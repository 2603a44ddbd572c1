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
    at_first,
    by_chunks,
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
        Square complex matrix, or a (..., dim, dim) stack of them; a failed
        check on a stack carries ``index``, the flat position of the first
        failing member.  :func:`partial_transpose` and :func:`negativity`
        take a stack; the other functions here take one matrix.
    split : tuple (d_A, d_B), optional
        Bipartite factorization with ``d_A * d_B == dim``; A is the slow index.
    """

    matrix: np.ndarray
    split: tuple[int, int] | None = None
    _eigvals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim < 2 or m.shape[-2] != m.shape[-1] or not m.shape[-1]:
            raise DimensionError(f"density matrix must be square, got shape {m.shape}")
        w = np.concatenate(by_chunks(_checked_spectrum, _flat(m))).reshape(m.shape[:-1])
        if self.split is not None:
            d_a, d_b = self.split
            if d_a * d_b != m.shape[-1]:
                raise DimensionError(f"split {self.split} incompatible with dim {m.shape[-1]}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_eigvals", w)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def eigenvalues(self) -> np.ndarray:
        """Ascending real spectrum, with tiny negative values clamped to 0."""
        return np.clip(self._eigvals, 0.0, None)

    def require_split(self) -> tuple[int, int]:
        if self.split is None:
            raise SplitRequiredError("operation requires bipartite split metadata")
        return self.split


def _flat(m: np.ndarray) -> np.ndarray:
    """A (..., d, d) stack as (k, d, d)."""
    return m.reshape((-1,) + m.shape[-2:])


def _checked_spectrum(m: np.ndarray) -> np.ndarray:
    """Ascending spectra of a (k, d, d) stack that passes the checks of
    :class:`DensityMatrix`; a failure carries ``index``.  Finiteness comes
    first: NaN fails no comparison, so it would pass every later check."""
    bad = ~np.isfinite(m).all(axis=(-2, -1))
    if bad.any():
        raise at_first(DomainError("density matrix not finite: its entries overflow"), bad)
    bad = np.max(np.abs(m - m.conj().swapaxes(-1, -2)), axis=(-2, -1)) > HERMITICITY_TOL
    if bad.any():
        raise at_first(DomainError("matrix is not Hermitian within 1e-12"), bad)
    tr = np.trace(m, axis1=-2, axis2=-1)
    bad = (abs(tr.real - 1.0) > TRACE_TOL) | (abs(tr.imag) > TRACE_TOL)
    if bad.any():
        raise at_first(DomainError(f"trace is {tr[bad][0]}, expected 1 within 1e-10"), bad)
    w = np.linalg.eigvalsh(m)
    low = w.min(axis=-1)
    bad = low < -PSD_TOL
    if bad.any():
        raise at_first(DomainError("matrix not positive semidefinite: min eigenvalue "
                                   f"{low[bad][0]:.3e}"), bad)
    return w


def _one(rho: DensityMatrix) -> DensityMatrix:
    """``rho``, refused unless it holds one matrix."""
    if rho.matrix.ndim != 2:
        raise DimensionError(f"needs one density matrix, got a stack {rho.matrix.shape}")
    return rho


def _as_blocks(rho: DensityMatrix) -> np.ndarray:
    d_a, d_b = rho.require_split()
    return rho.matrix.reshape(d_a, d_b, d_a, d_b)


def partial_trace(rho: DensityMatrix, keep: str = "A") -> DensityMatrix:
    """Reduced state of one subsystem; local observable averages are preserved."""
    blocks = _as_blocks(_one(rho))
    if keep == "A":
        reduced = np.einsum("ikjk->ij", blocks)
    elif keep == "B":
        reduced = np.einsum("kikj->ij", blocks)
    else:
        raise DomainError(f"keep must be 'A' or 'B', got {keep!r}")
    return DensityMatrix(reduced)


def partial_transpose(rho: DensityMatrix, on: str = "A") -> np.ndarray:
    """Partial transpose on one subsystem; Hermitian but possibly not PSD.
    A stack gives the stack of partial transposes."""
    return _transpose(rho.matrix, rho.require_split(), on)


def _transpose(m: np.ndarray, split: tuple[int, int], on: str) -> np.ndarray:
    d_a, d_b = split
    blocks = m.reshape(m.shape[:-2] + (d_a, d_b, d_a, d_b))
    if on == "A":
        out = np.einsum("...ikjl->...jkil", blocks)
    elif on == "B":
        out = np.einsum("...ikjl->...iljk", blocks)
    else:
        raise DomainError(f"on must be 'A' or 'B', got {on!r}")
    return out.reshape(m.shape)


def negativity(rho: DensityMatrix):
    """Negativity N and logarithmic negativity E_N = log2(2N + 1).

    N is half of (trace norm of the partial transpose - 1), equal to the
    absolute sum of the negative eigenvalues; both vanish iff the partial
    transpose stays positive.  One matrix gives two floats; a stack gives
    two arrays over its stack shape, each entry equal to the one-matrix
    result bit for bit.
    """
    split, m = rho.require_split(), rho.matrix
    parts = by_chunks(lambda part: np.linalg.eigvalsh(_transpose(part, split, "A")), _flat(m))
    w = np.concatenate(parts).reshape(m.shape[:-1])
    # The negative eigenvalues are the first k of each ascending spectrum.
    # Summing the k of all rows with equal k adds them as one row's sum does
    # (zeros in their place would regroup a pairwise sum of 8 or more).
    k = (w < 0.0).sum(axis=-1)
    negative_sum = np.zeros(k.shape)
    for j in np.unique(k).tolist():
        negative_sum[k == j] = w[k == j, :j].sum(axis=-1)
    n = -negative_sum
    en = np.log2(2.0 * n + 1.0)
    return (n.item(), en.item()) if n.ndim == 0 else (n, en)


def tangle(rho: DensityMatrix) -> float:
    """4 det of a reduced state; pure-state monotone on C^2 (x) C^2 only."""
    d_a, d_b = _one(rho).require_split()
    if (d_a, d_b) != (2, 2):
        raise DimensionError(f"tangle needs a 2x2 split, got {rho.split}")
    purity = float(np.trace(rho.matrix @ rho.matrix).real)
    if purity < 1.0 - 1e-8:
        raise PurityError(f"tangle defined for pure states, purity={purity:.10f}")
    red = partial_trace(rho, "A").matrix
    return float(4.0 * np.linalg.det(red).real)


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence via the spin-flip eigenvalue construction."""
    if _one(rho).dim != 4:
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
    p = _one(rho).eigenvalues()
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


def werner_state(f) -> DensityMatrix:
    """SU(2)-invariant two-qubit family rho(f) = (1 + f sum sigma.sigma)/4.

    f in [-1, 1/3]; f = -1 is the singlet and f > -1/3 is separable.  An
    array of f gives the stack of its states.
    """
    f = np.asarray(f, dtype=float)
    outside = ~((-1.0 <= f) & (f <= 1.0 / 3.0 + 1e-15))
    if outside.any():
        raise at_first(DomainError(
            f"Werner parameter {f[outside].flat[0]} outside [-1, 1/3]"), outside)
    rho = f[..., None, None] * PAULI_DOT
    rho += np.eye(4)
    rho *= 0.25  # in place: 0.25 (1 + f sum sigma.sigma)
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
