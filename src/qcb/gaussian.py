"""Gaussian continuous-variable states as covariance matrices.

Conventions (fixed package-wide): quadrature ordering (X1, P1, X2, P2, ...),
symplectic form sigma = direct sum of [[0, 1], [-1, 0]], hbar = 1 so the
vacuum covariance is identity/2.  The CV logarithmic negativity uses the
natural logarithm, E_N = max[0, -ln(2 d~_-)] (the qubit-side E_N in
:mod:`qcb.qstate` uses log base 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    DimensionError,
    DomainError,
    NonPhysicalCovarianceError,
    SingularCovarianceError,
    at_first,
    by_chunks,
)

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-10


def symplectic_form(n_modes: int) -> np.ndarray:
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k:2 * k + 2, 2 * k:2 * k + 2] = j
    return out


def _check_covariances(v: np.ndarray) -> None:
    """Finiteness, symmetry and physicality of a (m, 2n, 2n) stack; a failed
    check carries ``index``, the position of the first failing member."""
    bad = ~np.isfinite(v).all(axis=(-2, -1))
    if bad.any():
        raise at_first(DomainError("covariance not finite: its entries overflow"), bad)
    bad = np.max(np.abs(v - v.swapaxes(-1, -2)), axis=(-2, -1)) > SYMMETRY_TOL
    if bad.any():
        raise at_first(DomainError("covariance matrix not symmetric within 1e-12"), bad)
    herm = v + 0.5j * symplectic_form(v.shape[-1] // 2)
    bad = np.linalg.eigvalsh(herm).min(axis=-1) < -PHYSICALITY_TOL
    if bad.any():
        raise at_first(NonPhysicalCovarianceError(
            "V + i sigma/2 has eigenvalue < -1e-10"), bad)


@dataclass(frozen=True)
class GaussianState:
    """Covariance matrix V (2n x 2n, symmetric, physical) and mean vector,
    or a stack of them: ``cov`` of shape (..., 2n, 2n) and ``mean`` of shape
    (..., 2n).  A failed check on a stack carries ``index``, the flat
    position of the first failing member."""

    cov: np.ndarray
    mean: np.ndarray | None = None
    _n_modes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.cov, dtype=float)
        if v.ndim < 2 or v.shape[-2] != v.shape[-1] or v.shape[-1] % 2 or not v.shape[-1]:
            raise DimensionError(f"covariance must be 2n x 2n, got {v.shape}")
        n = v.shape[-1] // 2
        by_chunks(_check_covariances, v.reshape(-1, 2 * n, 2 * n))
        mean = np.asarray(np.zeros(v.shape[:-1]) if self.mean is None else self.mean,
                          dtype=float)
        if mean.shape != v.shape[:-1]:
            raise DimensionError(f"mean must have shape {v.shape[:-1]}")
        v.setflags(write=False)
        mean.setflags(write=False)
        object.__setattr__(self, "cov", v)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "_n_modes", n)

    @property
    def n_modes(self) -> int:
        return self._n_modes


def two_mode_blocks(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """2x2 blocks (A, B, C) of a two-mode covariance [[A, C], [C^T, B]], or
    of each member of a (..., 4, 4) stack."""
    v = np.asarray(v, dtype=float)
    if v.ndim < 2 or v.shape[-2:] != (4, 4):
        raise DimensionError(f"expected a 4x4 covariance or a stack of them, got {v.shape}")
    return v[..., :2, :2], v[..., 2:, 2:], v[..., :2, 2:]


def _block_invariants(v: np.ndarray) -> tuple[np.ndarray, ...]:
    """(det A, det B, det C, det V) of a two-mode covariance, as arrays over
    the stack shape of ``v`` (0-d for one matrix).

    Raises :class:`DomainError` when one of them is not finite: strong
    squeezing (r near 180) or a large occupancy (n_bar above about 1e77)
    overflows them, and the symplectic spectrum would come out as nan.
    """
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        dets = tuple(np.asarray(np.linalg.det(m)) for m in (*two_mode_blocks(v), v))
    overflow = ~np.isfinite(dets).all(axis=0)
    if overflow.any():
        raise at_first(DomainError(
            "covariance too large: its block determinants overflow"), overflow)
    return dets


def _clamp(x: np.ndarray) -> np.ndarray:
    """Elementwise ``max(x, 0.0)`` with Python's semantics (-0.0 stays)."""
    return np.where(x < 0.0, 0.0, x)


def _sympl_pair(sigma_inv: np.ndarray, det_v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(over="ignore", invalid="ignore"):
        disc = sigma_inv * sigma_inv - 4.0 * det_v
    overflow = ~np.isfinite(disc)
    if overflow.any():
        raise at_first(DomainError(
            "covariance too large: Sigma^2 - 4 det V overflows"), overflow)
    negative = disc < -PHYSICALITY_TOL
    if negative.any():
        raise at_first(NonPhysicalCovarianceError(
            f"Sigma^2 - 4 det V = {disc[negative].flat[0]:.3e} < 0: "
            "input not a physical covariance"), negative)
    root = np.sqrt(_clamp(disc))
    d_plus = np.sqrt(_clamp(sigma_inv + root) / 2.0)
    # d_-^2 d_+^2 = det V: the product form avoids the cancellation in
    # Sigma - sqrt(Sigma^2 - 4 det V) at strong squeezing.
    product = (det_v > 0.0) & (d_plus > 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        d_minus = np.where(product, np.sqrt(det_v) / d_plus,
                           np.sqrt(_clamp(sigma_inv - root) / 2.0))
    return d_plus, d_minus


def _result(x: np.ndarray):
    """A Python scalar for one matrix (0-d input), the array for a stack."""
    return x.item() if x.ndim == 0 else x


def symplectic_eigenvalues_two_mode(v: np.ndarray) -> tuple[float, float]:
    """(d_+, d_-) from the invariant formula 2 d^2 = Sigma -+ sqrt(Sigma^2 - 4 det V),
    Sigma = det A + det B + 2 det C.  For physical states d_- >= 1/2.
    A (..., 4, 4) stack gives two arrays over its stack shape."""
    det_a, det_b, det_c, det_v = _block_invariants(v)
    return tuple(map(_result, _sympl_pair(det_a + det_b + 2.0 * det_c, det_v)))


def ppt_tilde_dminus(v: np.ndarray) -> float:
    """Smallest symplectic eigenvalue after partial mirror reflection.

    Partial transposition of mode A flips the sign of det C only, so
    d~_- follows from the invariant formula with Sigma~ = det A + det B
    - 2 det C.  The state is entangled iff the result is below 1/2.
    A (..., 4, 4) stack gives an array over its stack shape; a failed check
    on a stack carries ``index``, the flat position of the first failing
    member.
    """
    det_a, det_b, det_c, det_v = _block_invariants(v)
    return _result(_sympl_pair(det_a + det_b - 2.0 * det_c, det_v)[1])


def logneg_gaussian(v: np.ndarray) -> float:
    """Logarithmic negativity max[0, -ln(2 d~_-)] (natural log).

    One 4x4 covariance gives a float; a (..., 4, 4) stack gives an array
    over its stack shape, each entry equal to the one-matrix result.  A
    failed check on a stack carries ``index``, the flat position of the
    first failing member.
    """
    d = np.asarray(ppt_tilde_dminus(v))
    # d~_- = 0 means det V was lost to cancellation (it is at least 1/16
    # for a physical state), which happens at squeezing r above about 10.
    lost = d <= 0.0
    if lost.any():
        raise at_first(DomainError(
            "covariance too ill-conditioned: det V lost to rounding"), lost)
    en = np.array([max(0.0, -math.log(2.0 * x)) for x in d.ravel().tolist()])
    return _result(en.reshape(d.shape))


def simon_invariant_check(v: np.ndarray) -> bool:
    """Separability-consistency: det A + det B + 2|det C| <= 1/4 + 4 det V.

    For Gaussian states violation is equivalent to entanglement (and to
    d~_- < 1/2).  A (..., 4, 4) stack gives a boolean array.
    """
    det_a, det_b, det_c, det_v = _block_invariants(v)
    return _result(det_a + det_b + 2.0 * np.abs(det_c) <= 0.25 + 4.0 * det_v + 1e-12)


def thermal_cov(n_bars) -> GaussianState:
    """Product thermal state: V = diag(n_k + 1/2) per quadrature pair."""
    n_bars = np.atleast_1d(np.asarray(n_bars, dtype=float))
    if np.any(n_bars < 0):
        raise DomainError("thermal occupancies must be >= 0")
    diag = np.repeat(n_bars + 0.5, 2)
    return GaussianState(np.diag(diag))


def _per_point(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` of each entry of ``x``: the ``math`` function, which need not
    round as its NumPy counterpart does."""
    return np.reshape([fn(t) for t in x.ravel().tolist()], x.shape)


def two_mode_squeezed_thermal_cov(r, theta=0.0, n_bar=0.0) -> GaussianState:
    """Two-mode squeezed thermal state, V = Omega(z) V(n_bar) Omega(z)^T.

    Block determinants: det V = (1+2n)^4/16, det A = det B =
    (1+2n)^2 cosh^2(2r)/4, det C = -(1+2n)^2 cosh^2 r sinh^2 r.
    E_N = max[0, 2r - ln(2 n_bar + 1)].

    Scalar (r, theta, n_bar) give one state; arrays, broadcast together,
    give one :class:`GaussianState` holding the (..., 4, 4) stack, each
    member equal bit for bit to its one-point state.  A failed check names
    the flat position of the first failing member in ``index``.
    """
    r, theta, n_bar = (np.asarray(x, dtype=float) for x in (r, theta, n_bar))
    shape = np.broadcast_shapes(r.shape, theta.shape, n_bar.shape)
    for x, what in ((r, "squeezing parameter r"), (n_bar, "thermal occupancy")):
        bad = np.broadcast_to(x < 0, shape)
        if bad.any():
            raise at_first(DomainError(f"{what} must be >= 0"), bad)
    ch, sh, c, s, n_bar = (np.broadcast_to(x, shape) for x in (
        _per_point(math.cosh, r), _per_point(math.sinh, r),
        _per_point(math.cos, theta), _per_point(math.sin, theta), n_bar))
    # Omega = [[ch I, sh R], [sh R, ch I]] with the reflection R = [[c, s], [s, -c]]
    omega = np.zeros(shape + (4, 4))
    for k in range(4):
        omega[..., k, k] = ch
    for i, j in ((0, 2), (2, 0)):
        omega[..., i, j], omega[..., i + 1, j + 1] = sh * c, -(sh * c)
        omega[..., i, j + 1] = omega[..., i + 1, j] = sh * s
    with np.errstate(over="ignore", invalid="ignore"):
        v = omega @ omega.swapaxes(-1, -2)
        del omega
        # in place: (n_bar + 1/2) Omega Omega^T, then (V + V^T)/2
        v *= (n_bar + 0.5)[..., None, None]
        v += v.swapaxes(-1, -2)
        v *= 0.5
        return GaussianState(v)


def wigner_gaussian(state: GaussianState, point) -> float:
    """Wigner density at a phase-space point; normalized so the integral is 1."""
    if state.cov.ndim != 2:
        raise DimensionError("the Wigner density needs one covariance, not a stack")
    point = np.asarray(point, dtype=float)
    if point.shape != state.mean.shape:
        raise DimensionError(f"point must have length {state.mean.shape[0]}")
    v = state.cov
    sign, logdet = np.linalg.slogdet(v)
    if sign <= 0 or np.linalg.cond(v) > 1e14:
        raise SingularCovarianceError("covariance matrix is singular")
    delta = point - state.mean
    quad = delta @ np.linalg.solve(v, delta)
    n = state.n_modes
    return math.exp(-0.5 * quad - 0.5 * logdet - n * math.log(2.0 * math.pi))
