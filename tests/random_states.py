"""Random-state constructors that only the property tests draw from."""

from __future__ import annotations

import numpy as np

from qcb.gaussian import GaussianState, random_symplectic, thermal_cov
from qcb.qstate import DensityMatrix, random_density_matrix


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


def random_physical_cov(n_modes: int, rng: np.random.Generator,
                        max_squeeze: float = 1.0, max_thermal: float = 2.0) -> GaussianState:
    s = random_symplectic(n_modes, rng, max_squeeze)
    n_bars = rng.uniform(0.0, max_thermal, size=n_modes)
    v = s @ thermal_cov(n_bars).cov @ s.T
    return GaussianState(0.5 * (v + v.T))
