import math

import numpy as np
import pytest
from scipy.integrate import quad

from qcb.exceptions import (
    DimensionError,
    DomainError,
    NonPhysicalCovarianceError,
    SingularCovarianceError,
)
from qcb.gaussian import (
    GaussianState,
    logneg_gaussian,
    ppt_tilde_dminus,
    simon_invariant_check,
    symplectic_eigenvalues_two_mode,
    symplectic_form,
    thermal_cov,
    two_mode_blocks,
    two_mode_squeezed_thermal_cov,
    wigner_gaussian,
)

from random_states import random_physical_cov, random_symplectic

VAC = 0.5 * np.eye(4)


def sympl_eigs_oracle(v):
    """Moduli of the eigenvalues of i sigma V (independent of the invariant formula)."""
    n = v.shape[0] // 2
    w = np.abs(np.linalg.eigvals(1j * symplectic_form(n) @ v))
    return np.sort(w)[::2]  # each symplectic eigenvalue appears twice


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        assert symplectic_eigenvalues_two_mode(VAC) == (0.5, 0.5)

    def test_thermal(self):
        v = thermal_cov([1.0, 1.0]).cov
        d_plus, d_minus = symplectic_eigenvalues_two_mode(v)
        assert abs(d_plus - 1.5) < 1e-12 and abs(d_minus - 1.5) < 1e-12

    def test_squeezed_vacuum_is_pure(self):
        v = two_mode_squeezed_thermal_cov(1.0).cov
        d_plus, d_minus = symplectic_eigenvalues_two_mode(v)
        assert abs(d_plus - 0.5) < 1e-7 and abs(d_minus - 0.5) < 1e-7
        assert np.allclose(sympl_eigs_oracle(v), [0.5, 0.5], atol=1e-8)

    def test_against_eigen_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = random_physical_cov(2, rng).cov
            want = sympl_eigs_oracle(v)
            got = np.sort(symplectic_eigenvalues_two_mode(v))
            assert np.max(np.abs(np.sort(want) - got)) < 1e-10

    def test_nonphysical_rejected(self):
        with pytest.raises(NonPhysicalCovarianceError):
            GaussianState(0.1 * np.eye(4))


class TestPPTDminus:
    def test_vacuum_boundary(self):
        assert abs(ppt_tilde_dminus(VAC) - 0.5) < 1e-14

    def test_squeezing_entangles(self):
        for r in (0.05, 0.3, 1.0):
            assert ppt_tilde_dminus(two_mode_squeezed_thermal_cov(r).cov) < 0.5

    def test_product_thermal_separable(self):
        v = thermal_cov([0.7, 2.2]).cov
        assert ppt_tilde_dminus(v) >= 0.5 - 1e-12

    def test_mirror_reflection_oracle(self):
        rng = np.random.default_rng(1)
        lam = np.diag([1.0, -1.0, 1.0, 1.0])
        for _ in range(300):
            v = random_physical_cov(2, rng).cov
            want = sympl_eigs_oracle(lam @ v @ lam)[0]
            assert abs(ppt_tilde_dminus(v) - want) < 1e-10


class TestLogNegativity:
    def test_squeezed_thermal_closed_form_grid(self):
        for r in np.linspace(0.0, 2.0, 20):
            for nb in np.linspace(0.0, 3.0, 20):
                v = two_mode_squeezed_thermal_cov(float(r), 0.0, float(nb)).cov
                want = max(0.0, 2.0 * r - math.log(2.0 * nb + 1.0))
                assert abs(logneg_gaussian(v) - want) < 1e-10

    def test_unsqueezed_zero(self):
        for nb in (0.0, 0.5, 4.0):
            assert logneg_gaussian(two_mode_squeezed_thermal_cov(0.0, 0.0, nb).cov) == 0.0

    def test_threshold(self):
        r = 1.0
        nb = (math.e**2 - 1.0) / 2.0
        assert abs(logneg_gaussian(two_mode_squeezed_thermal_cov(r, 0.0, nb).cov)) < 1e-10


def raw_squeezed_vacuum(r):
    """Two-mode squeezed vacuum covariance without the physicality check,
    which rejects most r above 8 once rounding has eaten det V."""
    ch, sh = math.cosh(r), math.sinh(r)
    omega = np.block([[ch * np.eye(2), sh * np.eye(2)], [sh * np.eye(2), ch * np.eye(2)]])
    v = 0.5 * (omega @ omega.T)
    return 0.5 * (v + v.T)


class TestStacks:
    """A (..., 4, 4) stack gives, member by member, the bits of one-matrix
    calls, and a failed check names the first failing member."""

    @staticmethod
    def stack():
        rng = np.random.default_rng(11)
        covs = [random_physical_cov(2, rng, max_squeeze=ms).cov
                for ms in [1.0] * 300 + [3.0] * 100 + [0.01] * 20]
        covs += [VAC, thermal_cov([0.7, 2.2]).cov]
        covs += [two_mode_squeezed_thermal_cov(r, th, nb).cov
                 for r in (0.0, 0.3, 2.0, 5.0) for th in (0.0, 1.1) for nb in (0.0, 3.0)]
        return np.array(covs)

    def test_logneg_and_dminus_equal_single_calls(self):
        covs = self.stack()
        for fn in (logneg_gaussian, ppt_tilde_dminus, simon_invariant_check):
            got = fn(covs)
            assert isinstance(got, np.ndarray) and got.shape == (len(covs),)
            assert got.tolist() == [fn(v) for v in covs]
        got = logneg_gaussian(covs.reshape(2, -1, 4, 4))
        assert got.shape == (2, len(covs) // 2)
        assert got.ravel().tolist() == logneg_gaussian(covs).tolist()
        single = logneg_gaussian(VAC)
        assert type(single) is float and single == 0.0 and math.copysign(1, single) == 1

    def test_product_form_fallback_equals_single_calls(self):
        # det V rounds to 0 (r = 20) or is negative: Sigma~ - sqrt(disc) branch
        covs = np.array([raw_squeezed_vacuum(20.0), np.diag([1.0, -1e-3, 1.0, 1.0]),
                         np.zeros((4, 4)), VAC, raw_squeezed_vacuum(1.0)])
        got = ppt_tilde_dminus(covs)
        assert got.tolist() == [ppt_tilde_dminus(v) for v in covs]
        assert got[0] == 0.0 and got[1] == 0.0

    def test_lost_det_v_is_a_domain_error(self):
        covs = np.array([VAC, raw_squeezed_vacuum(1.0), raw_squeezed_vacuum(20.0)])
        with pytest.raises(DomainError) as info:
            logneg_gaussian(covs)
        assert info.value.index == 2
        with pytest.raises(DomainError):
            logneg_gaussian(covs[2])

    def test_overflowing_member_carries_index(self):
        covs = np.array([VAC] * 5)
        covs[3] = raw_squeezed_vacuum(200.0)
        with pytest.raises(DomainError) as info:
            logneg_gaussian(covs)
        assert info.value.index == 3

    def test_nonphysical_member_carries_index(self):
        covs = np.array([VAC] * 6).reshape(2, 3, 4, 4)
        covs[1, 1] = [[0.2, -0.6, -0.1, -2.2], [-0.6, 0.8, 0.0, 0.7],
                      [-0.1, 0.0, -1.2, -1.2], [-2.2, 0.7, -1.2, -1.4]]  # disc = -8.7
        with pytest.raises(NonPhysicalCovarianceError) as info:
            ppt_tilde_dminus(covs)
        assert info.value.index == 4

    def test_wrong_shape_rejected(self):
        with pytest.raises(DimensionError):
            logneg_gaussian(np.eye(6))


class TestSqueezedThermalCov:
    def test_block_determinants(self):
        for r, nb in ((0.0, 0.0), (0.8, 0.0), (1.3, 0.7)):
            v = two_mode_squeezed_thermal_cov(r, 0.4, nb).cov
            a, b, c = two_mode_blocks(v)
            assert abs(np.linalg.det(v) - (1 + 2 * nb) ** 4 / 16) < 1e-10
            want_ab = (1 + 2 * nb) ** 2 * math.cosh(2 * r) ** 2 / 4
            assert abs(np.linalg.det(a) - want_ab) < 1e-10
            assert abs(np.linalg.det(b) - want_ab) < 1e-10
            want_c = -((1 + 2 * nb) ** 2) * math.cosh(r) ** 2 * math.sinh(r) ** 2
            assert abs(np.linalg.det(c) - want_c) < 1e-8

    def test_no_squeezing_no_correlations(self):
        _, _, c = two_mode_blocks(two_mode_squeezed_thermal_cov(0.0, 0.9, 1.1).cov)
        assert np.max(np.abs(c)) < 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            two_mode_squeezed_thermal_cov(0.5, 0.0, -0.1)


def squeezed_thermal_one_point(r, theta, n_bar):
    """The one-point construction of V = (n_bar + 1/2) Omega Omega^T, one
    matrix at a time with ``np.block``: the oracle of the stacked build."""
    ch, sh = math.cosh(r), math.sinh(r)
    rot = np.array([[math.cos(theta), math.sin(theta)],
                    [math.sin(theta), -math.cos(theta)]])
    omega = np.block([[ch * np.eye(2), sh * rot], [sh * rot, ch * np.eye(2)]])
    v = (n_bar + 0.5) * (omega @ omega.T)
    return 0.5 * (v + v.T)


def same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


class TestSqueezedThermalStack:
    """Arrays of (r, theta, n_bar) give one state holding the stack, each
    member with the bits of the one-point construction."""

    def test_readme_grid_bit_for_bit(self):
        rs = np.repeat(np.linspace(0.0, 2.0, 20), 20)
        nbs = np.tile(np.linspace(0.0, 3.0, 20), 20)
        stack = two_mode_squeezed_thermal_cov(rs, 0.0, nbs).cov
        assert stack.shape == (400, 4, 4)
        assert same_bits(stack, [squeezed_thermal_one_point(r, 0.0, nb)
                                 for r, nb in zip(rs.tolist(), nbs.tolist())])
        assert same_bits(stack, [two_mode_squeezed_thermal_cov(r, 0.0, nb).cov
                                 for r, nb in zip(rs.tolist(), nbs.tolist())])

    def test_random_draws_bit_for_bit(self):
        rng = np.random.default_rng(12)
        rs, thetas = rng.uniform(0.0, 4.0, 500), rng.uniform(-7.0, 7.0, 500)
        nbs = rng.exponential(3.0, 500)
        stack = two_mode_squeezed_thermal_cov(rs.reshape(5, 100), thetas.reshape(5, 100),
                                              nbs.reshape(5, 100)).cov
        assert stack.shape == (5, 100, 4, 4)
        assert same_bits(stack.reshape(-1, 4, 4), [
            squeezed_thermal_one_point(*x) for x in zip(rs.tolist(), thetas.tolist(),
                                                        nbs.tolist())])

    def test_scalars_broadcast(self):
        st = two_mode_squeezed_thermal_cov(0.3, 0.7, [[1.5], [0.2]])
        assert st.cov.shape == (2, 1, 4, 4) and st.mean.shape == (2, 1, 4)
        assert st.n_modes == 2
        assert same_bits(st.cov[1, 0], two_mode_squeezed_thermal_cov(0.3, 0.7, 0.2).cov)
        assert two_mode_squeezed_thermal_cov(0.3).cov.shape == (4, 4)

    def test_nonphysical_member_carries_index(self):
        # at r = 7.5 rounding has eaten det V, and V + i sigma/2 is not PSD
        with pytest.raises(NonPhysicalCovarianceError) as info:
            two_mode_squeezed_thermal_cov([0.5, 1.0, 2.0, 7.5, 2.0, 7.5])
        assert info.value.index == 3
        covs = np.array([VAC] * 6).reshape(2, 3, 4, 4)
        covs[1, 1] = 0.1 * np.eye(4)
        with pytest.raises(NonPhysicalCovarianceError) as info:
            GaussianState(covs)
        assert info.value.index == 4

    def test_failure_index_counts_across_chunks(self, monkeypatch):
        import qcb.exceptions

        monkeypatch.setattr(qcb.exceptions, "STACK_CHUNK", 4)
        covs = np.array([VAC] * 11)
        covs[9] = 0.1 * np.eye(4)
        with pytest.raises(NonPhysicalCovarianceError) as info:
            GaussianState(covs)
        assert info.value.index == 9
        GaussianState(covs[:9])  # every chunk of the rest passes

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("r", [356.0, 400.0, 710.0])
    def test_overflowing_covariance_is_a_domain_error(self, r):
        # cosh(r)^2 overflows while cosh(r) does not: inf and nan entries
        with pytest.raises(DomainError, match="not finite") as info:
            two_mode_squeezed_thermal_cov([1.0, r], 0.3, 0.0)
        assert info.value.index == 1
        with pytest.raises(DomainError, match="not finite"):
            GaussianState(np.full((4, 4), np.nan))

    def test_negative_inputs_carry_index(self):
        with pytest.raises(DomainError, match="squeezing") as info:
            two_mode_squeezed_thermal_cov([[0.1, 0.2], [0.3, -0.4]])
        assert info.value.index == 3
        with pytest.raises(DomainError, match="occupancy") as info:
            two_mode_squeezed_thermal_cov([0.1, 0.2], 0.0, [[0.0], [-1.0]])
        assert info.value.index == 2

    def test_empty_stack(self):
        st = two_mode_squeezed_thermal_cov(np.zeros(0))
        assert st.cov.shape == (0, 4, 4)
        assert logneg_gaussian(st.cov).shape == (0,)


class TestSimonCriterion:
    def test_vacuum_consistent(self):
        assert simon_invariant_check(VAC)

    def test_small_squeezing_violates(self):
        assert not simon_invariant_check(two_mode_squeezed_thermal_cov(0.1).cov)

    def test_agrees_with_dminus_on_random_states(self):
        rng = np.random.default_rng(2)
        both = {True: 0, False: 0}
        for _ in range(1000):
            v = random_physical_cov(2, rng).cov
            sep = simon_invariant_check(v)
            assert sep == (ppt_tilde_dminus(v) >= 0.5 - 1e-10)
            both[sep] += 1
        assert both[True] > 50 and both[False] > 50  # both branches exercised


class TestSymplecticInvariance:
    def test_local_symplectic_preserves_invariants(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = random_physical_cov(2, rng).cov
            s_a = random_symplectic(1, rng)
            s_b = random_symplectic(1, rng)
            s = np.zeros((4, 4))
            s[:2, :2], s[2:, 2:] = s_a, s_b
            w = s @ v @ s.T
            a1, b1, c1 = two_mode_blocks(v)
            a2, b2, c2 = two_mode_blocks(w)
            for m1, m2 in ((a1, a2), (b1, b2), (c1, c2), (v, w)):
                assert abs(np.linalg.det(m1) - np.linalg.det(m2)) < 1e-10 * max(
                    1.0, abs(np.linalg.det(m1)))

    def test_physicality_preserved_by_symplectic_conjugation(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            v = random_physical_cov(2, rng).cov
            s = random_symplectic(2, rng)
            GaussianState(0.5 * ((s @ v @ s.T) + (s @ v @ s.T).T))  # must not raise

    def test_random_symplectic_is_symplectic(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            s = random_symplectic(n, rng)
            assert np.max(np.abs(s @ symplectic_form(n) @ s.T - symplectic_form(n))) < 1e-12


class TestWigner:
    def test_vacuum_at_origin(self):
        st = GaussianState(0.5 * np.eye(2))
        assert abs(wigner_gaussian(st, [0.0, 0.0]) - 1.0 / math.pi) < 1e-14

    def test_displaced_vacuum_peak(self):
        alpha = 0.7 + 0.4j
        mean = np.array([math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag])
        st = GaussianState(0.5 * np.eye(2), mean)
        peak = wigner_gaussian(st, mean)
        assert abs(peak - 1.0 / math.pi) < 1e-14
        assert wigner_gaussian(st, mean + [0.3, 0.1]) < peak

    def test_marginal_matches_position_distribution(self):
        # integrate W over momentum: must equal the Gaussian position density
        v = np.array([[0.9, 0.25], [0.25, 0.6]])
        st = GaussianState(v, [0.2, -0.4])

        for x in (-0.5, 0.2, 1.1):
            marginal = quad(lambda p: wigner_gaussian(st, [x, p]),
                            -np.inf, np.inf, epsabs=1e-12)[0]
            want = math.exp(-0.5 * (x - 0.2) ** 2 / v[0, 0]) / math.sqrt(
                2 * math.pi * v[0, 0])
            assert abs(marginal - want) < 1e-9

    def test_normalization_two_modes(self):
        rng = np.random.default_rng(6)
        st = random_physical_cov(1, rng)
        total = quad(lambda x: quad(lambda p: wigner_gaussian(st, [x, p]),
                                    -np.inf, np.inf, epsabs=1e-10)[0],
                     -np.inf, np.inf, epsabs=1e-10)[0]
        assert abs(total - 1.0) < 1e-7

    def test_singular_covariance(self):
        st = GaussianState(0.5 * np.eye(2))
        bad = GaussianState.__new__(GaussianState)
        object.__setattr__(bad, "cov", np.array([[1e-20, 0.0], [0.0, 1e20]]))
        object.__setattr__(bad, "mean", np.zeros(2))
        object.__setattr__(bad, "_n_modes", 1)
        with pytest.raises(SingularCovarianceError):
            wigner_gaussian(bad, [0.0, 0.0])
        assert wigner_gaussian(st, [1.0, 1.0]) > 0

    def test_stack_refused(self):
        st = GaussianState(np.array([0.5 * np.eye(2)] * 3))
        with pytest.raises(DimensionError):
            wigner_gaussian(st, [0.0, 0.0])
