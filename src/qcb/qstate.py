"""Finite-dimensional density matrices and qubit-side entanglement measures.

Conventions fixed here and used everywhere else:

* bipartite index ordering is ``index = i_A * d_B + i_B`` (subsystem A is the
  slow index);
* von Neumann entropy uses the natural logarithm, ``0 ln 0 := 0``;
* the qubit-side logarithmic negativity uses log base 2,
  ``E_N = log2(2 N + 1)``;
* eigenvalues in ``[-PSD_TOL, 0]`` are clamped to zero before entropy sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DimensionError,
    DomainError,
    PurityError,
    SplitRequiredError,
    UndefinedMutualInfoError,
)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10

PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

# Sum_k sigma_k (x) sigma_k on C^2 (x) C^2, the SU(2)-invariant exchange operator.
PAULI_DOT = sum(np.kron(PAULI[k], PAULI[k]) for k in "xyz")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix with optional split.

    Parameters
    ----------
    matrix : ndarray
        Square complex matrix.
    split : tuple (d_A, d_B), optional
        Bipartite factorization with ``d_A * d_B == dim``; A is the slow index.
    """

    matrix: np.ndarray
    split: tuple[int, int] | None = None
    _eigvals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"density matrix must be square, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise DomainError("matrix is not Hermitian within 1e-12")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise DomainError(f"trace is {np.trace(m)}, expected 1 within 1e-10")
        w = np.linalg.eigvalsh(m)
        if w.min() < -PSD_TOL:
            raise DomainError(f"matrix not positive semidefinite: min eigenvalue {w.min():.3e}")
        if self.split is not None:
            d_a, d_b = self.split
            if d_a * d_b != m.shape[0]:
                raise DimensionError(f"split {self.split} incompatible with dim {m.shape[0]}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_eigvals", w)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Ascending real spectrum, with tiny negative values clamped to 0."""
        return np.clip(self._eigvals, 0.0, None)

    def require_split(self) -> tuple[int, int]:
        if self.split is None:
            raise SplitRequiredError("operation requires bipartite split metadata")
        return self.split


def _as_blocks(rho: DensityMatrix) -> np.ndarray:
    d_a, d_b = rho.require_split()
    return rho.matrix.reshape(d_a, d_b, d_a, d_b)


def partial_trace(rho: DensityMatrix, keep: str = "A") -> DensityMatrix:
    """Reduced state of one subsystem; local observable averages are preserved."""
    blocks = _as_blocks(rho)
    if keep == "A":
        reduced = np.einsum("ikjk->ij", blocks)
    elif keep == "B":
        reduced = np.einsum("kikj->ij", blocks)
    else:
        raise DomainError(f"keep must be 'A' or 'B', got {keep!r}")
    return DensityMatrix(reduced)


def partial_transpose(rho: DensityMatrix, on: str = "A") -> np.ndarray:
    """Partial transpose on one subsystem; Hermitian but possibly not PSD."""
    blocks = _as_blocks(rho)
    if on == "A":
        out = np.einsum("ikjl->jkil", blocks)
    elif on == "B":
        out = np.einsum("ikjl->iljk", blocks)
    else:
        raise DomainError(f"on must be 'A' or 'B', got {on!r}")
    d = rho.dim
    return out.reshape(d, d)


def negativity(rho: DensityMatrix) -> tuple[float, float]:
    """Negativity N and logarithmic negativity E_N = log2(2N + 1).

    N is half of (trace norm of the partial transpose - 1), equal to the
    absolute sum of the negative eigenvalues; both vanish iff the partial
    transpose stays positive.
    """
    w = np.linalg.eigvalsh(partial_transpose(rho, "A"))
    n = float(-w[w < 0.0].sum())
    return n, float(np.log2(2.0 * n + 1.0))


def tangle(rho: DensityMatrix) -> float:
    """4 det of a reduced state; pure-state monotone on C^2 (x) C^2 only."""
    d_a, d_b = rho.require_split()
    if (d_a, d_b) != (2, 2):
        raise DimensionError(f"tangle needs a 2x2 split, got {rho.split}")
    purity = float(np.trace(rho.matrix @ rho.matrix).real)
    if purity < 1.0 - 1e-8:
        raise PurityError(f"tangle defined for pure states, purity={purity:.10f}")
    red = partial_trace(rho, "A").matrix
    return float(4.0 * np.linalg.det(red).real)


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence via the spin-flip eigenvalue construction."""
    if rho.dim != 4:
        raise DimensionError(f"concurrence needs dim 4, got {rho.dim}")
    yy = np.kron(PAULI["y"], PAULI["y"])
    m = rho.matrix @ yy @ rho.matrix.conj() @ yy
    w = np.sort(np.abs(np.linalg.eigvals(m).real))
    lam = np.sqrt(np.clip(w, 0.0, None))
    return float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0]))


def concurrence_from_correlator(c: float) -> float:
    """Concurrence of an SU(2)-invariant two-qubit state from <tau_a . tau_b>.

    Valid for c in [-3, 1]; vanishes exactly for c >= -1.
    """
    if not -3.0 - 1e-12 <= c <= 1.0 + 1e-12:
        raise DomainError(f"correlator {c} outside [-3, 1]")
    return max(0.0, abs(c) / 3.0 - c / 6.0 - 0.5)


def entropies(rho: DensityMatrix) -> tuple[float, float, float]:
    """(von Neumann entropy, linear entropy, purity).

    S_vn = -sum p ln p; S_lin = d/(d-1) (1 - purity).
    """
    p = rho.eigenvalues()
    nz = p[p > 0.0]
    s_vn = float(-(nz * np.log(nz)).sum())
    purity = float((rho._eigvals**2).sum())
    d = rho.dim
    s_lin = d / (d - 1.0) * (1.0 - purity)
    return s_vn, s_lin, purity


def normalized_mutual_info(rho: DensityMatrix) -> float:
    """(S_A + S_B - S_AB) / (S_A + S_B) of the von Neumann entropies; values
    above 1/2 witness quantumness (the bound is exact for classical Shannon
    entropies)."""
    s_a = entropies(partial_trace(rho, "A"))[0]
    s_b = entropies(partial_trace(rho, "B"))[0]
    if s_a + s_b <= 1e-12:
        raise UndefinedMutualInfoError("S_A + S_B vanishes; normalized MI undefined")
    return (s_a + s_b - entropies(rho)[0]) / (s_a + s_b)


def werner_state(f: float) -> DensityMatrix:
    """SU(2)-invariant two-qubit family rho(f) = (1 + f sum sigma.sigma)/4.

    f in [-1, 1/3]; f = -1 is the singlet and f > -1/3 is separable.
    """
    if not -1.0 <= f <= 1.0 / 3.0 + 1e-15:
        raise DomainError(f"Werner parameter {f} outside [-1, 1/3]")
    rho = 0.25 * (np.eye(4, dtype=complex) + f * PAULI_DOT)
    return DensityMatrix(rho, split=(2, 2))


def thermal_state(h: np.ndarray, beta: float, split: tuple[int, int] | None = None) -> DensityMatrix:
    """Canonical state exp(-beta H)/Z via eigendecomposition of Hermitian H."""
    h = np.asarray(h, dtype=complex)
    if not np.isfinite(beta):
        raise DomainError("beta must be finite")
    w, v = np.linalg.eigh(h)
    expw = np.exp(-beta * (w - w.min()))  # shift avoids overflow at large beta
    expw /= expw.sum()
    rho = (v * expw) @ v.conj().T
    return DensityMatrix(rho, split=split)
