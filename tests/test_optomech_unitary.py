import math
from functools import lru_cache

import numpy as np
import pytest
from scipy.linalg import expm

from qcb import cli, optomech_unitary
from qcb.exceptions import (
    DomainError,
    EmptySubspaceError,
    PurityError,
    ResourceError,
    TruncationError,
    UndefinedMutualInfoError,
)
from qcb.optomech_unitary import (
    OptoUnitaryParams,
    SubspaceSelector,
    _leibniz_block,
    _lag_weights,
    _linear_entropies,
    _poisson_log_weight,
    averaged_mi,
    eta,
    linear_entropies_closed,
    marker_upsilon,
    normalized_mi_time,
    projected_density,
    rho_element,
)
from qcb.qstate import tangle

from random_states import (leibniz_block_per_term, mp_leibniz_block, renormalization_check,
                           subspace_tangle_t0)

LOWEST = SubspaceSelector((0, 1), (0, 1))


@lru_cache(maxsize=8)
def brute_force_state(k, alpha, n_bar, t, nc=14, nm=40):
    """Full expm(-iHt) evolution on a truncated Fock space (test oracle)."""
    a = np.diag(np.sqrt(np.arange(1, nc)), 1)
    b = np.diag(np.sqrt(np.arange(1, nm)), 1)
    h = np.kron(np.eye(nc), b.T @ b) - k * np.kron(a.T @ a, b + b.T)
    coh = np.array([np.exp(-abs(alpha) ** 2 / 2) * alpha**n
                    / math.sqrt(math.factorial(n)) for n in range(nc)])
    pm = (n_bar / (1 + n_bar)) ** np.arange(nm) / (1 + n_bar) if n_bar > 0 \
        else np.eye(nm)[0]
    pm = pm / pm.sum()
    rho0 = np.kron(np.outer(coh, coh.conj()), np.diag(pm))
    u = expm(-1j * h * t)
    return (u @ rho0 @ u.conj().T).reshape(nc, nm, nc, nm)


class TestRhoElement:
    def test_matches_brute_force_evolution(self):
        # mirror cutoff sized to push the thermal truncation tail below 1e-12
        for k, alpha, n_bar, t, nm in [(0.3, 0.6, 0.8, 1.3, 40),
                                       (0.5, 0.9, 0.0, 2.2, 40),
                                       (0.2, 0.4 + 0.5j, 1.6, 4.0, 70)]:
            rho = brute_force_state(k, alpha, n_bar, t, nm=nm)
            p = OptoUnitaryParams(k=k, alpha=alpha, n_bar=n_bar, t=t)
            worst = 0.0
            for n in range(5):
                for m in range(5):
                    for mu in range(6):
                        for nu in range(6):
                            worst = max(worst, abs(rho[n, mu, m, nu]
                                                   - rho_element(p, n, m, mu, nu)))
            assert worst < 1e-12

    def test_initial_product_state(self):
        p = OptoUnitaryParams(k=0.7, alpha=1.1, n_bar=1.4, t=0.0)
        x = p.x
        for n, m in ((0, 0), (2, 1), (3, 3)):
            theta = (p.alpha**n * np.conj(p.alpha) ** m
                     * math.exp(-abs(p.alpha) ** 2)
                     / math.sqrt(math.factorial(n) * math.factorial(m)))
            for mu in range(4):
                want = theta * x**mu / (p.n_bar + 1)
                assert abs(rho_element(p, n, m, mu, mu) - want) < 1e-14
                if mu >= 1:
                    assert abs(rho_element(p, n, m, mu, mu - 1)) < 1e-15

    def test_hermiticity(self):
        p = OptoUnitaryParams(k=0.6, alpha=0.8 - 0.2j, n_bar=2.3, t=1.9)
        for n, m, mu, nu in [(0, 1, 2, 3), (2, 2, 0, 1), (4, 1, 3, 0)]:
            lhs = rho_element(p, n, m, mu, nu)
            rhs = np.conj(rho_element(p, m, n, nu, mu))
            assert abs(lhs - rhs) < 1e-12

    def test_photon_number_conservation(self):
        # cavity-diagonal weights are time independent Poisson weights
        for t in (0.9, 2.5):
            p = OptoUnitaryParams(k=1.2, alpha=1.2, n_bar=1.5, t=t)
            for n in (0, 1, 3):
                total = sum(rho_element(p, n, n, mu, mu) for mu in range(260))
                want = math.exp(-1.44) * 1.44**n / math.factorial(n)
                assert abs(total - want) < 1e-12

    def test_negative_index_rejected(self):
        p = OptoUnitaryParams(k=0.1, alpha=1.0, n_bar=0.0, t=1.0)
        with pytest.raises(DomainError):
            rho_element(p, -1, 0, 0, 0)


class TestLeibnizKernel:
    def test_block_matches_50_digit_sums(self):
        # cavity 0..3 x mirror 0..8: a range where the double-precision
        # Leibniz sum keeps its digits
        cav, mir = tuple(range(4)), tuple(range(9))
        for n_bar in (0.0, 2.0):
            p = OptoUnitaryParams(k=0.4, alpha=0.8 + 0.6j, n_bar=n_bar, t=2.5)
            raw = projected_density(p, SubspaceSelector(cav, mir), normalize=False)
            want = mp_leibniz_block(p, cav, mir).reshape(raw.shape)
            assert np.max(np.abs(raw - want)) <= 1e-12 * np.max(np.abs(want))

    def test_rho_element_is_the_block_kernel(self):
        p = OptoUnitaryParams(k=0.7, alpha=1.1 - 0.4j, n_bar=1.3, t=4.1)
        cav, mir = (0, 2, 3), (1, 4, 6)
        raw = projected_density(p, SubspaceSelector(cav, mir), normalize=False)
        block = raw.reshape(3, 3, 3, 3)
        for i, n in enumerate(cav):
            for a, mu in enumerate(mir):
                for j, m in enumerate(cav):
                    for b, nu in enumerate(mir):
                        want = 0.5 * (rho_element(p, n, m, mu, nu)
                                      + np.conj(rho_element(p, m, n, nu, mu)))
                        assert block[i, a, j, b] == want

    def test_frozen_6x20_block(self):
        # the benchmark's marker block: mirror levels 40..59, where the sum
        # cancels strongly, so its value is pinned to the frozen reference
        p = OptoUnitaryParams(k=0.4, alpha=1.0, n_bar=2.0, t=2.5)
        raw = projected_density(p, SubspaceSelector(tuple(range(6)), tuple(range(40, 60))),
                                normalize=False)
        trace, frobenius = np.trace(raw).real, np.linalg.norm(raw)
        assert abs(trace - 1.0087545044173537e-04) <= 1e-12 * 1.0087545044173537e-04
        assert abs(frobenius - 5.057549173399654e-05) <= 1e-12 * 5.057549173399654e-05


def _seed_style_draws(n):
    """(k, n_bar, t) drawn as the benchmark draws its marker job at seeds
    other than 0, rounded to 4 digits."""
    rng = np.random.default_rng(1)
    return [tuple(round(rng.uniform(lo, hi), 4) for lo, hi in ((0.2, 0.6), (0.0, 3.0), (0.5, 6.0)))
            for _ in range(n)]


BENCH_MIRROR = tuple(range(40, 60))
PHASE_TABLE_CASES = [
    # the benchmark's marker block, and the README tangle and marker commands
    ((0.4, 1.0, 2.0, 2.5), tuple(range(6)), BENCH_MIRROR),
    ((1.0, 1.0, 0.0, math.pi), (0, 1), (0, 1)),
    ((0.4, 1.0, 2.0, 2.5), (0, 1), (3, 4, 5)),
    # x = 0, P = Q = 0 at k = 0, no coherent weight, a complex amplitude
    ((0.7, 0.9, 0.0, 1.7), (0, 1, 2, 3), (0, 1, 2, 5)),
    ((0.0, 0.9, 1.3, 1.7), (0, 1, 2, 3), (0, 1, 2, 5)),
    ((0.7, 0.0, 1.3, 1.7), (0, 1, 2, 3), (0, 1, 2, 5)),
    ((0.7, 0.7 + 0.2j, 1.3, 1.7), (0, 1, 2, 3), (0, 1, 2, 5)),
    # far-apart mirror levels
    ((0.5, 1.1, 0.8, 4.2), (0, 1, 2), (0, 2, 9, 30)),
] + [((k, 1.0, n_bar, t), tuple(range(6)), BENCH_MIRROR) for k, n_bar, t in _seed_style_draws(2)]


@pytest.mark.parametrize("args, cav, mir", PHASE_TABLE_CASES)
def test_phase_table_is_bit_identical_to_per_term_factors(args, cav, mir):
    """The kernel evaluates exp(i phase) once per key and gathers it; every
    element, its signed zeros included, is the per-term evaluation's."""
    p = OptoUnitaryParams(*args)
    got = _leibniz_block(p, cav, cav, mir, mir)
    want = leibniz_block_per_term(p, cav, cav, mir, mir)
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def test_phase_table_is_bounded_by_the_terms(monkeypatch, capsys):
    """Far-apart mirror levels allocate nothing per level of the gap: the
    phase table never holds more entries than the block has terms.  The
    marker of the all-zero block at mirror levels 100000, 100001 is refused,
    not printed as 0."""
    sizes = []
    table_of = optomech_unitary._phase_table

    def spy(angles, pair, mu, nu, hi, count, run):
        table, first = table_of(angles, pair, mu, nu, hi, count, run)
        sizes.append((table.size, int(np.sum(np.maximum(count, 0)))))
        return table, first

    monkeypatch.setattr(optomech_unitary, "_phase_table", spy)
    for n_bar in (0.0, 2.0):
        p = OptoUnitaryParams(k=0.4, alpha=1.0, n_bar=n_bar, t=2.5)
        projected_density(p, SubspaceSelector((0, 1), (3, 100000)), normalize=False)
    assert cli.main(["optomech-unitary", "--mirror", "100000,100001"]) == 3
    assert capsys.readouterr().err == ("qcb: error: projection onto the selected subspace "
                                       "is zero: no marker\n")
    assert all(size <= terms for size, terms in sizes)
    assert sizes[0][1] <= 16 and sizes[2][1] <= 16  # n_bar = 0: one term each


def closed_form_projection(k, alpha, t):
    """Eq.-level closed form of the [0,1;0,1] projection at n_bar = 0 with the
    cavity-local free phases reinstated and trace normalization."""
    kk = math.exp(-2 * k**2 * math.sin(t / 2) ** 2)
    hh = 1 + 4 * k**2 * math.sin(t / 2) ** 2
    a2 = abs(alpha) ** 2
    et, etc = eta(t), np.conj(eta(t))
    m = np.array([
        [1, 0, np.conj(alpha) * kk, etc * k * np.conj(alpha) * kk],
        [0, 0, 0, 0],
        [alpha * kk, 0, a2 * kk**2, etc * k * a2 * kk**2],
        [et * k * alpha * kk, 0, et * k * a2 * kk**2,
         4 * k**2 * a2 * math.sin(t / 2) ** 2 * kk**2],
    ], dtype=complex)
    lam = t - math.sin(t)
    phases = np.array([0.0, 0.0, -k**2 * lam, -k**2 * lam])
    gauge = np.exp(-1j * phases)
    m = m * np.outer(gauge, gauge.conj())
    return m / np.trace(m)


class TestProjection:
    def test_lowest_subspace_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            k = rng.uniform(0.1, 1.5)
            alpha = rng.uniform(0.3, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            p = OptoUnitaryParams(k=k, alpha=alpha, n_bar=0.0, t=math.pi)
            got = projected_density(p, LOWEST).matrix
            assert np.max(np.abs(got - closed_form_projection(k, alpha, math.pi))) < 1e-12

    def test_lowest_subspace_closed_form_general_time(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            k = rng.uniform(0.1, 1.2)
            alpha = rng.uniform(0.3, 1.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            t = rng.uniform(0.3, 6.0)
            p = OptoUnitaryParams(k=k, alpha=alpha, n_bar=0.0, t=t)
            got = projected_density(p, LOWEST).matrix
            assert np.max(np.abs(got - closed_form_projection(k, alpha, t))) < 1e-12

    def test_normalized_projection_is_valid_state(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            p = OptoUnitaryParams(k=rng.uniform(0.1, 1.0), alpha=rng.uniform(0.5, 1.5),
                                  n_bar=rng.uniform(0.0, 3.0), t=rng.uniform(0.2, 6.0))
            dm = projected_density(p, SubspaceSelector((0, 1), (0, 1, 2)))
            assert dm.split == (2, 3)  # DensityMatrix ctor checked the invariants

    def test_empty_subspace(self):
        # n_bar = 0 and a high disjoint mirror subspace at t = 0: zero weight
        p = OptoUnitaryParams(k=0.2, alpha=0.01, n_bar=0.0, t=0.0)
        with pytest.raises(EmptySubspaceError):
            projected_density(p, SubspaceSelector((0, 1), (7, 8)))

    def test_unnormalized_trace_below_one(self):
        p = OptoUnitaryParams(k=0.4, alpha=1.0, n_bar=1.0, t=2.0)
        raw = projected_density(p, LOWEST, normalize=False)
        assert 0.0 < np.trace(raw).real < 1.0


class TestTangle:
    def test_closed_form_example(self):
        p = OptoUnitaryParams(k=1.0, alpha=1.0, n_bar=0.0, t=math.pi)
        want = 16 * math.e**4 / (math.e**4 + 5.0) ** 2
        assert abs(subspace_tangle_t0(p) - want) < 1e-12

    def test_vanishes_at_zero_coupling(self):
        assert subspace_tangle_t0(OptoUnitaryParams(k=0.0, alpha=1.0,
                                                    n_bar=0.0, t=math.pi)) == 0.0

    def test_matches_projected_matrix_tangle(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            k = rng.uniform(0.05, 1.5)
            alpha = rng.uniform(0.2, 2.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            p = OptoUnitaryParams(k=k, alpha=alpha, n_bar=0.0, t=math.pi)
            dm = projected_density(p, LOWEST)
            assert abs(tangle(dm) - subspace_tangle_t0(p)) < 1e-10

    def test_large_alpha_asymptotics(self):
        p1 = OptoUnitaryParams(k=0.5, alpha=40.0, n_bar=0.0, t=math.pi)
        p2 = OptoUnitaryParams(k=0.5, alpha=80.0, n_bar=0.0, t=math.pi)
        ratio = subspace_tangle_t0(p1) / subspace_tangle_t0(p2)
        assert abs(ratio - 4.0) < 0.05  # tau ~ |alpha|^-2

    def test_thermal_input_rejected(self):
        with pytest.raises(PurityError):
            subspace_tangle_t0(OptoUnitaryParams(k=1.0, alpha=1.0, n_bar=0.5, t=math.pi))


class TestMarker:
    def test_positive_at_zero_temperature(self):
        for t in (0.7, 2.0, math.pi, 5.0):
            p = OptoUnitaryParams(k=0.3, alpha=0.9, n_bar=0.0, t=t)
            assert marker_upsilon(p, LOWEST) > 1e-14

    def test_zero_at_full_periods(self):
        p = OptoUnitaryParams(k=0.3, alpha=0.9, n_bar=0.0, t=2 * math.pi)
        assert abs(marker_upsilon(p, LOWEST)) < 1e-25

    def test_separable_initial_state(self):
        p = OptoUnitaryParams(k=0.8, alpha=1.2, n_bar=1.0, t=0.0)
        assert marker_upsilon(p, LOWEST) <= 1e-14

    def test_sign_depends_only_on_x_and_y(self):
        def marker(alpha, x, y, t=1.1):
            k = y / abs(eta(t))
            p = OptoUnitaryParams(k=k, alpha=alpha, n_bar=x / (1 - x), t=t)
            return marker_upsilon(p, LOWEST)

        for x, y in [(0.3, 0.5), (0.7, 0.5), (0.5, 2.0), (0.9, 0.3), (0.95, 1.0)]:
            signs = {np.sign(marker(a, x, y)) for a in (0.3, 1.0, 3.0, 1.0 + 2.0j)}
            assert len(signs) == 1

    def test_marker_negativity_consistency(self):
        # in 2x2 subspaces: Upsilon > 0 iff the projected state has negativity
        rng = np.random.default_rng(24)
        hits = {True: 0, False: 0}
        for _ in range(60):
            p = OptoUnitaryParams(k=rng.uniform(0.05, 1.2), alpha=rng.uniform(0.3, 2.0),
                                  n_bar=rng.uniform(0.0, 4.0), t=rng.uniform(0.1, 6.2))
            levels = (0, 1) if rng.random() < 0.5 else (1, 2)
            sel = SubspaceSelector((0, 1), levels)
            ups = marker_upsilon(p, sel)
            raw = projected_density(p, sel, normalize=False)
            w = np.linalg.eigvalsh(np.transpose(
                raw.reshape(2, 2, 2, 2), (2, 1, 0, 3)).reshape(4, 4))
            entangled = w.min() < -1e-12
            assert (ups > 1e-14) == entangled
            hits[entangled] += 1
        assert hits[True] > 5 and hits[False] > 5

    def test_peak_negativity_in_2x3_subspace(self):
        # raw-projection negativity near (x = 0.9, k = 0.2) at alpha=1, t=pi
        x = 0.9
        p = OptoUnitaryParams(k=0.2, alpha=1.0, n_bar=x / (1 - x), t=math.pi)
        raw = projected_density(p, SubspaceSelector((0, 1), (3, 4, 5)),
                                normalize=False)
        w = np.linalg.eigvalsh(np.transpose(
            raw.reshape(2, 3, 2, 3), (2, 1, 0, 3)).reshape(6, 6))
        neg = -w[w < 0].sum()
        assert 3e-4 / 1.5 < neg < 3e-4 * 1.5


class TestRenormalization:
    def test_identity_trivial_at_s1(self):
        p = OptoUnitaryParams(k=0.5, alpha=1.3, n_bar=1.0, t=2.0)
        lhs, rhs = renormalization_check(p, 1)
        assert abs(lhs - rhs) < 1e-14 * abs(rhs)

    def test_identity_spec_example(self):
        p = OptoUnitaryParams(k=0.4, alpha=1.0, n_bar=2.0, t=2.5)
        lhs, rhs = renormalization_check(p, 2, (3, 4, 5))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_identity_random_parameters(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            p = OptoUnitaryParams(k=rng.uniform(0.1, 1.2),
                                  alpha=rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 6)),
                                  n_bar=rng.uniform(0.0, 4.0),
                                  t=rng.uniform(0.2, 6.0))
            s = int(rng.integers(1, 5))
            mirror = ((0, 1), (1, 3), (0, 2, 5))[rng.integers(0, 3)]
            lhs, rhs = renormalization_check(p, s, mirror)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)

    def test_sign_transfer_between_subspaces(self):
        # the rescaling identity ties sign([0,s] at k/s) to sign([0,1] at k):
        # here [0,1] at k/3 witnesses entanglement while [0,3] at the same
        # coupling does not, tracking the separable [0,1] point at 3x the
        # coupling.  (For the exact evolved state the separable zone sits at
        # large k |eta|, so the transfer runs from high to low subspaces.)
        k, s, x = 0.9, 3, 0.9
        p_small = OptoUnitaryParams(k=k / s, alpha=1.0, n_bar=x / (1 - x), t=math.pi)
        p_big = OptoUnitaryParams(k=k, alpha=1.0, n_bar=x / (1 - x), t=math.pi)
        assert marker_upsilon(p_small, LOWEST) > 1e-14
        assert marker_upsilon(p_big, LOWEST) < 0.0
        assert marker_upsilon(p_small, SubspaceSelector((0, s), (0, 1))) < 0.0

    def test_s_domain(self):
        p = OptoUnitaryParams(k=0.3, alpha=1.0, n_bar=0.0, t=1.0)
        with pytest.raises(DomainError):
            renormalization_check(p, 0)


class TestEntropies:
    def test_total_entropy_time_independent(self):
        for n_bar in (0.0, 0.5, 4.0):
            p = OptoUnitaryParams(k=0.7, alpha=1.0, n_bar=n_bar, t=1.7)
            s_tot = linear_entropies_closed(p)[0]
            assert abs(s_tot - (1 - 1 / (2 * n_bar + 1))) < 1e-14

    def test_initial_time_product(self):
        p = OptoUnitaryParams(k=0.7, alpha=1.4, n_bar=2.0, t=0.0)
        s_tot, s_cav, s_mir = linear_entropies_closed(p)
        assert abs(s_cav) < 1e-12
        assert abs(s_mir - s_tot) < 1e-12

    def test_pure_state_schmidt_symmetry(self):
        for t in (0.8, 2.9):
            p = OptoUnitaryParams(k=0.6, alpha=1.1, n_bar=0.0, t=t)
            _, s_cav, s_mir = linear_entropies_closed(p)
            assert abs(s_cav - s_mir) < 1e-12
            assert s_cav > 1e-3

    def test_against_brute_force_purities(self):
        k, alpha, n_bar, t = 0.3, 0.6, 0.8, 1.3
        rho = brute_force_state(k, alpha, n_bar, t)
        rho_cav = np.einsum("nkmk->nm", rho)
        rho_mir = np.einsum("nknl->kl", rho)
        p = OptoUnitaryParams(k=k, alpha=alpha, n_bar=n_bar, t=t)
        _, s_cav, s_mir = linear_entropies_closed(p)
        assert abs(s_cav - (1 - np.trace(rho_cav @ rho_cav).real)) < 1e-8
        assert abs(s_mir - (1 - np.trace(rho_mir @ rho_mir).real)) < 1e-8

def skellam_lag_weights(alpha, lags):
    """r[0] and 2 r[d] at ``lags`` to 40 digits, r[d] = e^(-x) I_d(x) with
    x = 2 |alpha|^2: ``mpmath.besseli`` (oracle)."""
    import mpmath

    with mpmath.workdps(40):
        x = 2 * mpmath.mpf(abs(alpha)) ** 2
        return [(1 if d == 0 else 2) * mpmath.besseli(d, x) * mpmath.exp(-x) for d in lags]


class TestSkellamLagWeights:
    @pytest.mark.parametrize("alpha", [0.0, 1e-30, 0.1, 1.0, 10.0, 30.0])
    def test_every_lag_against_40_digits(self, alpha):
        # with no numpy warning (an error here) at |alpha| = 1e-30, where the
        # recurrence's factor 2d/x is about 1e60 d
        got = _lag_weights(alpha)
        want = skellam_lag_weights(alpha, range(got.size))
        assert max(abs(float(g - w)) for g, w in zip(got.tolist(), want)) <= 1e-14 * got[0]

    def test_more_lags_than_an_array_holds_are_refused(self):
        with pytest.raises(ResourceError, match=r"\|alpha\| = 1e\+100 needs 3.31e\+101 lags"):
            _lag_weights(1e100)

    def test_spread_of_lags_at_alpha_1000_against_40_digits(self):
        # e^(-x) I_d(x) = (1/pi) int_0^pi e^(-x (1 - cos u)) cos(d u) du, with
        # u = v/sqrt(x): the integrand is below 1e-50 of its peak beyond v = 24
        import mpmath

        got = _lag_weights(1000.0)
        lags = [0, 1, 700, 1414, 2828, 5000, 8000, got.size - 1]
        with mpmath.workdps(40):
            x = mpmath.mpf(2e6)
            s = mpmath.sqrt(x)
            for d in lags:
                f = lambda v: mpmath.exp(-x * (1 - mpmath.cos(v / s))) * mpmath.cos(d * v / s)
                want = (1 if d == 0 else 2) * mpmath.quad(f, mpmath.linspace(0, 24, 49)) / (
                    mpmath.pi * s)
                assert abs(float(got[d] - want)) <= 1e-14 * got[0], d


def double_sum_partial_entropies(p, t, cutoff):
    """The O(T N^2) double Poisson sums of the partial purities over the
    weights of Fock levels 0..cutoff (oracle)."""
    a2 = abs(p.alpha) ** 2
    w = np.exp([_poisson_log_weight(a2, n) for n in range(cutoff + 1)])
    idx = np.arange(cutoff + 1)
    d2 = (idx[:, None] - idx[None, :]) ** 2
    ww = w[:, None] * w[None, :]
    y2 = p.k**2 * np.abs(eta(t)) ** 2
    c_cav, c_mir = 1.0 + 2.0 * p.n_bar, 1.0 / (1.0 + 2.0 * p.n_bar)
    s_cav = 1.0 - np.einsum("pq,tpq->t", ww, np.exp(-np.multiply.outer(y2 * c_cav, d2)))
    s_mir = 1.0 - c_mir * np.einsum("pq,tpq->t", ww,
                                    np.exp(-np.multiply.outer(y2 * c_mir, d2)))
    return s_cav, s_mir


def averaged_mi_full_grids(p):
    """The trapezoid average with the MI evaluated at every point of every
    grid: the oracle for :func:`averaged_mi`, which reuses the coarser
    grid's points."""
    lag_weight = _lag_weights(p.alpha)

    def average(steps):
        t = np.linspace(0.0, 2.0 * math.pi, steps + 1)
        s_total, s_cav, s_mir = _linear_entropies(p, t, lag_weight)
        mi = np.empty_like(t)
        denom = s_cav + s_mir
        ok = denom > 1e-12
        mi[ok] = 1.0 - s_total / denom[ok]
        mi[~ok] = 0.0
        return float(np.trapezoid(mi, t) / (2.0 * math.pi))

    steps, fine = 256, average(256)
    while True:
        steps, coarse = 2 * steps, fine
        fine = average(steps)
        if abs(fine - coarse) <= 5e-4 * max(1.0, abs(fine)):
            return fine


class TestMutualInformation:
    def test_autocorrelation_matches_double_sum(self):
        alpha = 10.0
        cutoff = math.ceil(alpha**2 + 10.0 * math.sqrt(alpha**2 + 1.0))  # 10 sigma above
        for n_bar in (10.0, 1.0, 0.3):
            p = OptoUnitaryParams(k=1.0, alpha=alpha, n_bar=n_bar, t=0.0)
            t = np.linspace(0.0, 2.0 * math.pi, 257)
            got = _linear_entropies(p, t, _lag_weights(alpha))[1:]
            want = double_sum_partial_entropies(p, t, cutoff)
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) < 1e-13


    def test_undefined_at_t0_pure(self):
        p = OptoUnitaryParams(k=1.0, alpha=1.0, n_bar=0.0, t=0.0)
        with pytest.raises(UndefinedMutualInfoError):
            normalized_mi_time(p)

    def test_periodicity(self):
        p0 = OptoUnitaryParams(k=0.9, alpha=1.0, n_bar=1.0, t=1e-9)
        p1 = OptoUnitaryParams(k=0.9, alpha=1.0, n_bar=1.0, t=2 * math.pi - 1e-9)
        assert abs(normalized_mi_time(p0) - normalized_mi_time(p1)) < 1e-9

    def test_classical_bound_crossing_interval(self):
        # k = 1, n_bar = 1, alpha = 1: quantum (MI > 1/2) over an interior
        # t-interval symmetric about pi, classical near the period ends;
        # the crossing value is frozen from this brute-force-verified pipeline.
        p = lambda t: OptoUnitaryParams(k=1.0, alpha=1.0, n_bar=1.0, t=t)
        assert normalized_mi_time(p(math.pi)) > 0.5
        assert normalized_mi_time(p(0.1 * math.pi)) < 0.5
        assert normalized_mi_time(p(1.9 * math.pi)) < 0.5
        lo, hi = 0.05 * math.pi, 0.5 * math.pi
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if normalized_mi_time(p(mid)) < 0.5:
                lo = mid
            else:
                hi = mid
        crossing = lo / math.pi
        assert abs(crossing - 0.2296) < 0.005
        # symmetry: the upper crossing mirrors the lower one about t = pi
        assert normalized_mi_time(p((2 - crossing + 0.02) * math.pi)) < 0.5
        assert normalized_mi_time(p((2 - crossing - 0.02) * math.pi)) > 0.5

    def test_averaged_value_headline(self):
        p = OptoUnitaryParams(k=1.0, alpha=10.0, n_bar=10.0, t=0.0)
        assert abs(averaged_mi(p) - 0.52) <= 0.02

    def test_averaged_value_frozen_at_large_alpha(self):
        # frozen on the Skellam lag weights: the value that the same pipeline
        # gives with 50-digit window weights (the correlated window's
        # 0.521817040960005 was 4.6e-14 away)
        p = OptoUnitaryParams(k=1.0, alpha=100.0, n_bar=10.0, t=0.0)
        assert averaged_mi(p) == 0.5218170409600509

    def test_window_trim_and_chunks_leave_the_average(self, monkeypatch):
        # against Skellam lags untrimmed down to a tail of 1e-300 r[0], from
        # a later start of the recurrence, in one chunk
        for alpha in (10.0, 100.0):
            p = OptoUnitaryParams(k=1.0, alpha=alpha, n_bar=10.0, t=0.0)
            got = averaged_mi(p)
            with monkeypatch.context() as m:
                m.setattr("qcb.optomech_unitary._LAG_TAIL", 1e-300)
                full = _lag_weights(alpha)
            assert full.size > _lag_weights(alpha).size
            with monkeypatch.context() as m:
                m.setattr("qcb.optomech_unitary._lag_weights", lambda _: full)
                m.setattr("qcb.optomech_unitary._CHUNK_ELEMENTS", 1 << 62)
                assert abs(averaged_mi(p) - got) <= 1e-13 * got

    def test_chunked_entropies_match_one_chunk(self, monkeypatch):
        p = OptoUnitaryParams(k=0.7, alpha=3.0, n_bar=2.0, t=0.0)
        t = np.linspace(0.0, 2.0 * math.pi, 1001)
        lag_weight = _lag_weights(p.alpha)
        whole = _linear_entropies(p, t, lag_weight)
        monkeypatch.setattr("qcb.optomech_unitary._CHUNK_ELEMENTS", 7 * lag_weight.size + 3)
        chunked = _linear_entropies(p, t, lag_weight)
        for a, b in zip(whole[1:], chunked[1:]):
            assert np.max(np.abs(a - b)) <= 1e-15

    def test_lags_end_at_the_floor(self):
        # the last kept lag D is the first whose dropped tail sum_(d>D) r[d]
        # is at most 1e-17 r[0] (40-digit sums); the tail after D - 1 is not
        for alpha in (0.1, 1.0, 10.0):
            got = _lag_weights(alpha)
            r = skellam_lag_weights(alpha, range(got.size + 200))
            tail = sum(r[got.size:]) / 2
            assert tail <= 1e-17 * r[0] < tail + r[got.size - 1] / 2
        # |alpha|^2 = 1e-60: r[1] = 1e-60 r[0] is the whole dropped tail, so
        # lag 0 alone is kept, as at alpha = 0
        assert _lag_weights(1e-30).tolist() == [1.0]
        assert _lag_weights(0.0).tolist() == [1.0]
        # about 13 |alpha| lags from alpha = 10 on
        assert [_lag_weights(alpha).size for alpha in (10.0, 100.0, 1000.0)] == [129, 1295, 13289]

    def test_lag_sums_reach_the_gaussian_limit(self):
        # |alpha| = 1000: sum_pq w_p w_q e^(-c y^2 (p-q)^2) -> 1/sqrt(1 + 4 c alpha^2 y^2)
        # (Bose, Jacobs and Knight, PRA 56, 4175 (1997)) while c y^2 << 1
        alpha = 1000.0
        lag_weight = _lag_weights(alpha)
        d2 = np.arange(lag_weight.size) ** 2
        cy2 = np.logspace(-12, -2, 11)
        sums = np.exp(-np.multiply.outer(cy2, d2)) @ lag_weight
        assert np.max(np.abs(sums * np.sqrt(1.0 + 4.0 * alpha**2 * cy2) - 1.0)) < 1e-6

    def test_averaged_grid_sizes_itself(self):
        # 256 and 512 intervals disagree here; the grid keeps doubling
        p = OptoUnitaryParams(k=20.0, alpha=3.0, n_bar=0.1, t=0.0)
        t = np.linspace(0.0, 2.0 * math.pi, 8193)
        s_total, s_cav, s_mir = _linear_entropies(p, t, _lag_weights(p.alpha))
        reference = np.trapezoid(1.0 - s_total / (s_cav + s_mir), t) / (2.0 * math.pi)
        assert abs(averaged_mi(p) - reference) <= 5e-4

    @pytest.mark.parametrize("k, alpha, n_bar", [
        (1.0, 3.0, 0.3), (1.0, 10.0, 10.0), (1.0, 10.0, 1.0), (1.0, 30.0, 3.0),
        (1.0, 100.0, 10.0), (20.0, 3.0, 0.1), (0.7, 5.0, 2.0), (0.3, 50.0, 0.5)])
    def test_refined_grid_reuse_equals_full_grids(self, k, alpha, n_bar):
        # bit for bit: the even points of a doubled grid are the coarse grid
        p = OptoUnitaryParams(k=k, alpha=alpha, n_bar=n_bar, t=0.0)
        assert averaged_mi(p) == averaged_mi_full_grids(p)

    def test_averaged_refuses_beyond_the_finest_grid(self, monkeypatch):
        # the same parameters with 512 intervals as the finest grid
        monkeypatch.setattr("qcb.optomech_unitary.MI_MAX_INTERVALS", 512)
        with pytest.raises(TruncationError, match="at 512 intervals"):
            averaged_mi(OptoUnitaryParams(k=20.0, alpha=3.0, n_bar=0.1, t=0.0))

    def test_averaged_requires_thermal_mirror(self):
        with pytest.raises(UndefinedMutualInfoError):
            averaged_mi(OptoUnitaryParams(k=1.0, alpha=1.0, n_bar=0.0, t=0.0))

    def test_subspace_selector_validation(self):
        with pytest.raises(DomainError):
            SubspaceSelector((1, 0), (0, 1))
        with pytest.raises(DomainError):
            SubspaceSelector((), (0, 1))
