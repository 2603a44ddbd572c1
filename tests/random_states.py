"""Random-state constructors, closed forms, reference integrals and identity
checks that only the tests use."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from qcb.exceptions import DomainError, PurityError
from qcb.gaussian import GaussianState
from qcb.optomech_stationary import StationaryParams
from qcb.optomech_unitary import OptoUnitaryParams, SubspaceSelector, marker_upsilon
from qcb.qstate import PAULI_DOT, DensityMatrix


def random_density_matrix(dim: int, rng: np.random.Generator, rank: int | None = None,
                          split: tuple[int, int] | None = None) -> DensityMatrix:
    """Haar-flavored mixed state: normalized Wishart matrix of given rank."""
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, split=split)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_separable_mixture(d_a: int, d_b: int, rng: np.random.Generator,
                             n_terms: int = 8) -> DensityMatrix:
    """Explicit convex mixture of product states (separable by construction)."""
    rho = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    weights = rng.dirichlet(np.ones(n_terms))
    for w in weights:
        a = random_density_matrix(d_a, rng, rank=max(1, d_a // 2)).matrix
        b = random_density_matrix(d_b, rng, rank=max(1, d_b // 2)).matrix
        rho += w * np.kron(a, b)
    return DensityMatrix(rho, split=(d_a, d_b))


# Random physical covariances: V = S V_th S^T with S an explicit symplectic,
# so physicality holds by construction.


def _interleave_permutation(n: int) -> np.ndarray:
    """Permutation matrix sending (X1..Xn, P1..Pn) to (X1, P1, ..., Xn, Pn)."""
    p = np.zeros((2 * n, 2 * n))
    for k in range(n):
        p[2 * k, k] = 1.0
        p[2 * k + 1, n + k] = 1.0
    return p


def random_symplectic(n_modes: int, rng: np.random.Generator,
                      max_squeeze: float = 1.0) -> np.ndarray:
    """Random symplectic via Euler decomposition O1 diag(e^z, e^-z) O2."""

    def ortho_sympl() -> np.ndarray:
        u = random_unitary(n_modes, rng)
        return np.block([[u.real, -u.imag], [u.imag, u.real]])

    z = rng.uniform(-max_squeeze, max_squeeze, size=n_modes)
    squeeze = np.diag(np.concatenate([np.exp(z), np.exp(-z)]))
    s_xxpp = ortho_sympl() @ squeeze @ ortho_sympl()
    perm = _interleave_permutation(n_modes)
    return perm @ s_xxpp @ perm.T


def thermal_cov(n_bars) -> GaussianState:
    """Product thermal state: V = diag(n_k + 1/2) per quadrature pair."""
    return GaussianState(np.diag(np.repeat(np.asarray(n_bars, dtype=float) + 0.5, 2)))


def random_physical_cov(n_modes: int, rng: np.random.Generator,
                        max_squeeze: float = 1.0, max_thermal: float = 2.0) -> GaussianState:
    s = random_symplectic(n_modes, rng, max_squeeze)
    n_bars = rng.uniform(0.0, max_thermal, size=n_modes)
    v = s @ thermal_cov(n_bars).cov @ s.T
    return GaussianState(0.5 * (v + v.T))


def mirror_variances_zero_detuning(p: StationaryParams, big_g: float
                                   ) -> tuple[float, float]:
    """Closed-form V11, V22 of the mirror block at Delta = 0 (V12 = 0).

    V11 = 1/2 + n_bar + G^2 (kappa + gamma_m) / (2 gamma_m (kappa^2 +
    kappa gamma_m + omega_m^2)) and V22 likewise with G^2 kappa; the
    effective occupancy follows as n_eff = (V11 + V22)/2 - 1/2.
    """
    w = p.omega_m
    gm, k, g2 = p.gamma_m / w, p.kappa / w, (big_g / w) ** 2
    denom = 2.0 * gm * (k**2 + k * gm + 1.0)
    v11 = 0.5 + p.n_bar + g2 * (k + gm) / denom
    v22 = 0.5 + p.n_bar + g2 * k / denom
    return v11, v22


def chi_aklt_sma(r: int) -> float:
    """AKLT probe-probe response at separation r as the single-mode-approximation
    integral over the magnon band w_q = 5(5 + 3 cos q)/27 with weights
    a = -2/3, b = 80/81: the reference for the closed form ``spin_lde.chi_aklt``.
    """
    from scipy.integrate import quad

    a, b = -2.0 / 3.0, 80.0 / 81.0

    def integrand(q: float) -> float:
        w = 5.0 * (5.0 + 3.0 * math.cos(q)) / 27.0
        return math.cos(q * r) / w * (a + b / w) / (2.0 * math.pi)

    val, _ = quad(integrand, -math.pi, math.pi, epsabs=1e-12, epsrel=1e-12,
                  limit=400)
    # overall -2: the structure-factor convolution carries a factor 2 and
    # the sign convention is fixed so positive chi favors the singlet
    return -2.0 * val


def renormalization_check(p: OptoUnitaryParams, s: int,
                          mirror_levels: tuple[int, ...] = (0, 1)) -> tuple[float, float]:
    """Both sides of the subspace rescaling identity; they agree exactly.

    Photon-number conservation ties the marker of the cavity subspace [0, s]
    at coupling k/s to the marker of [0, 1] at coupling k.  The scale factor
    s! |alpha|^(-2s) (vs |alpha|^(-2)) applies once per retained mirror level,
    i.e. the identity reads

        (s! |alpha|^(-2s))^d  Upsilon_[0,s](k/s) = |alpha|^(-2d) Upsilon_[0,1](k)

    with d = len(mirror_levels).  Returns (lhs, rhs).
    """
    if s < 1:
        raise DomainError("s must be a positive integer")
    d = len(mirror_levels)
    a2 = abs(p.alpha) ** 2
    ups_s = marker_upsilon(replace(p, k=p.k / s),
                           SubspaceSelector((0, s), tuple(mirror_levels)))
    ups_1 = marker_upsilon(p, SubspaceSelector((0, 1), tuple(mirror_levels)))
    lhs = (math.factorial(s) * a2 ** (-s)) ** d * ups_s
    rhs = a2 ** (-d) * ups_1
    return lhs, rhs


def subspace_tangle_t0(p: OptoUnitaryParams) -> float:
    """Closed-form tangle of the [0,1;0,1] projection at t = pi, n_bar = 0.

    tau = 16 k^2 |alpha|^2 e^(4k^2) / (e^(4k^2) + (1 + 4k^2)|alpha|^2)^2.
    """
    if p.n_bar > 1e-12:
        raise PurityError("closed-form tangle is a pure-state (n_bar = 0) quantity")
    k2 = p.k**2
    a2 = abs(p.alpha) ** 2
    e4 = math.exp(4.0 * k2)
    return 16.0 * k2 * a2 * e4 / (e4 + (1.0 + 4.0 * k2) * a2) ** 2


def probe_state_thermal(j_ab: float, beta: float) -> DensityMatrix:
    """Two-qubit Gibbs state rho ~ exp(-beta J_ab tau_a . tau_b).

    Singlet weight exp(3 beta J_ab) against three triplet weights
    exp(-beta J_ab); concurrence vanishes exactly at beta J_ab = ln(3)/4.
    """
    x = beta * j_ab
    # Boltzmann weights with the larger one factored out (no overflow)
    w_t = math.exp(-4.0 * x) if x >= 0 else 1.0
    w_s = 1.0 if x >= 0 else math.exp(4.0 * x)
    z = w_s + 3.0 * w_t
    # projectors from tau.tau eigenvalues: singlet -3, triplet +1
    p_s = (np.eye(4) - PAULI_DOT.real) / 4.0
    p_t = np.eye(4) - p_s
    rho = (w_s / z) * p_s + (w_t / z) * p_t
    return DensityMatrix(rho, split=(2, 2))
