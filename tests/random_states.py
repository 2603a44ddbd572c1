"""Random-state constructors, closed forms and reference integrals that
only the tests use."""

from __future__ import annotations

import math

import numpy as np

from qcb.gaussian import GaussianState, thermal_cov
from qcb.optomech_stationary import StationaryParams
from qcb.qstate import DensityMatrix


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
