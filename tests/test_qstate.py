import math

import numpy as np
import pytest

from qcb.exceptions import (
    DimensionError,
    DomainError,
    PurityError,
    SplitRequiredError,
    UndefinedMutualInfoError,
)
from qcb.qstate import (
    DensityMatrix,
    PAULI_DOT,
    concurrence,
    concurrence_from_correlator,
    entropies,
    negativity,
    normalized_mutual_info,
    partial_trace,
    partial_transpose,
    tangle,
    thermal_state,
    werner_state,
)

from random_states import (
    random_density_matrix,
    random_pure_state,
    random_separable_mixture,
    random_unitary,
)


def pure(vec, split=None):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return DensityMatrix(np.outer(vec, vec.conj()), split=split)


def partial_trace_oracle(mat, d_a, d_b, keep):
    """Explicit index-contraction double loop, independent of the library."""
    if keep == "A":
        out = np.zeros((d_a, d_a), dtype=complex)
        for i in range(d_a):
            for j in range(d_a):
                for k in range(d_b):
                    out[i, j] += mat[i * d_b + k, j * d_b + k]
    else:
        out = np.zeros((d_b, d_b), dtype=complex)
        for i in range(d_b):
            for j in range(d_b):
                for k in range(d_a):
                    out[i, j] += mat[k * d_b + i, k * d_b + j]
    return out


class TestPartialTrace:
    def test_singlet_reduces_to_maximally_mixed(self):
        red = partial_trace(werner_state(-1.0), "A")
        assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_recovers_factor(self):
        rng = np.random.default_rng(0)
        a = random_density_matrix(2, rng)
        b = random_density_matrix(3, rng)
        rho = DensityMatrix(np.kron(a.matrix, b.matrix), split=(2, 3))
        assert np.allclose(partial_trace(rho, "A").matrix, a.matrix, atol=1e-12)
        assert np.allclose(partial_trace(rho, "B").matrix, b.matrix, atol=1e-12)

    def test_matches_index_contraction_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rho = random_density_matrix(4, rng, split=(2, 2))
            for keep in "AB":
                want = partial_trace_oracle(rho.matrix, 2, 2, keep)
                assert np.max(np.abs(partial_trace(rho, keep).matrix - want)) < 1e-12

    def test_preserves_local_averages(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = random_density_matrix(6, rng, split=(2, 3))
            o_a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            o_a = o_a + o_a.conj().T
            full = np.trace(rho.matrix @ np.kron(o_a, np.eye(3)))
            local = np.trace(partial_trace(rho, "A").matrix @ o_a)
            assert abs(full - local) < 1e-12

    def test_split_required(self):
        rho = random_density_matrix(4, np.random.default_rng(3))
        with pytest.raises(SplitRequiredError):
            partial_trace(rho, "A")


class TestPartialTranspose:
    def test_werner_spectrum(self):
        for f in (-1.0, -0.5, 0.2):
            w = np.sort(np.linalg.eigvalsh(partial_transpose(werner_state(f))))
            expected = np.sort([(1 + 3 * f) / 4] + [(1 - f) / 4] * 3)
            assert np.allclose(w, expected, atol=1e-12)

    def test_product_state_stays_positive(self):
        rng = np.random.default_rng(4)
        a = random_density_matrix(2, rng)
        b = random_density_matrix(2, rng)
        rho = DensityMatrix(np.kron(a.matrix, b.matrix), split=(2, 2))
        assert np.linalg.eigvalsh(partial_transpose(rho)).min() > -1e-12

    def test_separable_mixture_stays_positive(self):
        rng = np.random.default_rng(5)
        rho = random_separable_mixture(2, 3, rng)
        assert np.linalg.eigvalsh(partial_transpose(rho)).min() >= -1e-10

    def test_hermitian_unit_trace(self):
        rng = np.random.default_rng(6)
        rho = random_density_matrix(6, rng, split=(2, 3))
        pt = partial_transpose(rho, "B")
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-12
        assert abs(np.trace(pt) - 1) < 1e-12


class TestNegativity:
    def test_singlet(self):
        n, en = negativity(werner_state(-1.0))
        assert abs(n - 0.5) < 1e-12 and abs(en - 1.0) < 1e-12

    def test_maximally_mixed_point(self):
        n, _ = negativity(werner_state(0.0))
        assert n == 0.0

    def test_werner_half(self):
        n, _ = negativity(werner_state(-0.5))
        assert abs(n - 0.125) < 1e-12
        # brute-force eigenvalue cross-check
        w = np.linalg.eigvalsh(partial_transpose(werner_state(-0.5)))
        assert abs(n + w[w < 0].sum()) < 1e-14

    def test_zero_for_separable_mixtures(self):
        rng = np.random.default_rng(7)
        for dims in ((2, 2), (2, 3)):
            for _ in range(100):
                n, _ = negativity(random_separable_mixture(*dims, rng))
                assert n <= 1e-10

    def test_werner_boundary(self):
        assert negativity(werner_state(-1 / 3 + 1e-9))[0] < 1e-9
        assert negativity(werner_state(-1 / 3 - 1e-6))[0] > 1e-8


class TestTangle:
    def test_singlet_is_one(self):
        assert abs(tangle(pure([0, 1, -1, 0], split=(2, 2))) - 1.0) < 1e-12

    def test_product_is_zero(self):
        assert abs(tangle(pure([1, 0, 0, 0], split=(2, 2)))) < 1e-12

    def test_schmidt_angle(self):
        th = math.pi / 6
        rho = pure([math.cos(th), 0, 0, math.sin(th)], split=(2, 2))
        assert abs(tangle(rho) - 4 * math.cos(th) ** 2 * math.sin(th) ** 2) < 1e-12
        assert abs(tangle(rho) - 0.75) < 1e-12

    def test_equals_four_det_rho_b(self):
        rng = np.random.default_rng(8)
        psi = random_pure_state(4, rng)
        rho = pure(psi, split=(2, 2))
        det_b = np.linalg.det(partial_trace(rho, "B").matrix).real
        assert abs(tangle(rho) - 4 * det_b) < 1e-12

    def test_mixed_input_rejected(self):
        with pytest.raises(PurityError):
            tangle(werner_state(-0.5))

    def test_wrong_dims_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(DimensionError):
            tangle(random_density_matrix(6, rng, rank=1, split=(2, 3)))


class TestConcurrence:
    def test_correlator_endpoints(self):
        assert concurrence_from_correlator(-3.0) == 1.0
        assert concurrence_from_correlator(1.0) == 0.0
        assert concurrence_from_correlator(-1.0) == 0.0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            concurrence_from_correlator(-3.5)

    def test_agrees_with_spin_flip_on_werner_family(self):
        for f in np.linspace(-1.0, 1 / 3, 25):
            rho = werner_state(float(f))
            c = np.trace(rho.matrix @ PAULI_DOT).real
            assert abs(concurrence(rho) - concurrence_from_correlator(c)) < 1e-10

    def test_wrong_dimension(self):
        with pytest.raises(DimensionError):
            concurrence(random_density_matrix(6, np.random.default_rng(10), split=(2, 3)))


class TestEntropies:
    def test_pure(self):
        s_vn, s_lin, pur = entropies(pure([1, 1j, 0.3], split=None))
        assert abs(s_vn) < 1e-10 and abs(s_lin) < 1e-10 and abs(pur - 1) < 1e-12

    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            rho = DensityMatrix(np.eye(d) / d)
            s_vn, s_lin, pur = entropies(rho)
            assert abs(s_vn - math.log(d)) < 1e-12
            assert abs(s_lin - 1.0) < 1e-12
            assert abs(pur - 1.0 / d) < 1e-12

    def test_two_level_example(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        s_vn = entropies(rho)[0]
        expected = 0.75 * math.log(4 / 3) + 0.25 * math.log(4)
        assert abs(s_vn - expected) < 1e-12
        assert abs(s_vn - 0.5623351446188083) < 1e-12

    def test_unitary_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho = random_density_matrix(5, rng)
            u = random_unitary(5, rng)
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
            assert abs(entropies(rho)[0] - entropies(rotated)[0]) < 1e-10

    def test_triangle_inequality(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            d_a, d_b = rng.choice([2, 3]), rng.choice([2, 3])
            rho = random_density_matrix(d_a * d_b, rng, split=(d_a, d_b))
            s_ab = entropies(rho)[0]
            s_a = entropies(partial_trace(rho, "A"))[0]
            s_b = entropies(partial_trace(rho, "B"))[0]
            assert abs(s_a - s_b) <= s_ab + 1e-10
            assert s_ab <= s_a + s_b + 1e-10


class TestNormalizedMutualInfo:
    def test_product_state_zero(self):
        # von Neumann entropy is additive, so the normalized MI vanishes on
        # product states
        rng = np.random.default_rng(13)
        a = random_density_matrix(2, rng)
        b = random_density_matrix(2, rng)
        rho = DensityMatrix(np.kron(a.matrix, b.matrix), split=(2, 2))
        assert abs(normalized_mutual_info(rho)) < 1e-10

    def test_entangled_pure_is_maximal(self):
        for th in (0.3, 0.8, 1.4):
            rho = pure([math.cos(th), 0, 0, math.sin(th)], split=(2, 2))
            assert abs(normalized_mutual_info(rho) - 1.0) < 1e-10

    def test_werner_half_matches_spectral_oracle(self):
        rho = werner_state(-0.5)
        # independent oracle: explicit eigenvalues of rho and its reductions
        p = np.linalg.eigvalsh(rho.matrix)
        s_ab = -(p * np.log(p)).sum()
        s_a = math.log(2)  # reductions are maximally mixed by symmetry
        want = (2 * s_a - s_ab) / (2 * s_a)
        got = normalized_mutual_info(rho)
        assert abs(got - want) < 1e-12
        assert abs(got - 0.22560252965230082) < 1e-10  # frozen from the oracle

    def test_undefined_for_pure_product(self):
        with pytest.raises(UndefinedMutualInfoError):
            normalized_mutual_info(pure([1, 0, 0, 0], split=(2, 2)))


class TestStateFactories:
    def test_werner_eigenvalues(self):
        w = np.sort(np.linalg.eigvalsh(werner_state(1 / 3).matrix))
        assert np.allclose(w, [0, 1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_werner_range(self):
        with pytest.raises(DomainError):
            werner_state(0.5)

    def test_thermal_beta_zero(self):
        rng = np.random.default_rng(14)
        h = rng.normal(size=(4, 4))
        h = h + h.T
        rho = thermal_state(h, 0.0)
        assert np.allclose(rho.matrix, np.eye(4) / 4, atol=1e-12)

    def test_thermal_threshold(self):
        # H = J tau.tau with beta J = ln3/4 sits exactly at separability
        beta_j = math.log(3.0) / 4.0
        rho = thermal_state(PAULI_DOT, beta_j, split=(2, 2))
        assert concurrence(rho) < 1e-12
        hot = thermal_state(PAULI_DOT, beta_j * 0.98, split=(2, 2))
        cold = thermal_state(PAULI_DOT, beta_j * 1.02, split=(2, 2))
        assert concurrence(hot) == 0.0
        assert concurrence(cold) > 1e-4

    def test_invariant_validation(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.diag([0.7, 0.7]))  # trace 1.4
        with pytest.raises(DomainError):
            DensityMatrix(np.array([[0.5, 0.5], [-0.5, 0.5]]))  # not Hermitian
        with pytest.raises(DomainError):
            DensityMatrix(np.diag([1.5, -0.5]))  # not PSD
