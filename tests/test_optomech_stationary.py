import math

import numpy as np
import pytest
import scipy.constants
from scipy.linalg import solve_continuous_lyapunov

from qcb import optomech_stationary
from qcb.exceptions import DomainError, StabilityError
from qcb.gaussian import symplectic_form
from qcb.optomech_stationary import (
    StationaryParams,
    SteadyState,
    derive_physical_params,
    detuning_sweep,
    drift_and_diffusion,
    lyapunov_solve,
    stability_check,
    stationary_point,
    steady_state,
    thermal_occupancy,
)

from random_states import exact_lyapunov, mirror_variances_zero_detuning


def fig_params(**overrides):
    kw = dict(length=1e-3, mass=5e-12, power=50e-3, quality=1e5,
              temperature=0.4, wavelength=810e-9, finesse=1.07e4)
    kw.update(overrides)
    return derive_physical_params(**kw)


def integral_oracle(a, d, n_steps=4000, decay_times=20.0):
    """V = int_0^inf e^(As) D e^(A^T s) ds by stepwise propagator products."""
    from scipy.linalg import expm

    tau = -1.0 / np.max(np.linalg.eigvals(a).real)
    h = decay_times * tau / n_steps
    step = expm(a * h)
    m = np.eye(a.shape[0])
    vals = []
    for _ in range(n_steps + 1):
        vals.append(m @ d @ m.T)
        m = m @ step
    vals = np.array(vals)
    # composite Simpson on the uniform grid
    return h / 3.0 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum(axis=0)
                      + 2 * vals[2:-1:2].sum(axis=0))


def record_state(p, row):
    """The working point of a :func:`detuning_sweep` record."""
    alpha_s = float(row["alpha_s"])
    return SteadyState(alpha_s=alpha_s, q_s=p.g * alpha_s**2 / p.omega_m, p_s=0.0,
                       Delta_eff=float(row["Delta_over_wm"]) * p.omega_m,
                       G=float(row["G"]), stable=bool(row["stable"]))


def record_cov(row):
    """The 4 x 4 covariance of a :func:`detuning_sweep` record."""
    return np.array([[row[f"V{i}{j}"] for j in range(1, 5)] for i in range(1, 5)])


def random_stable_system(rng):
    a = rng.normal(size=(4, 4))
    shift = np.max(np.linalg.eigvals(a).real)
    a -= (shift + rng.uniform(0.2, 1.0)) * np.eye(4)
    d = np.diag(rng.uniform(0.1, 2.0, size=4))
    return a, d


class TestPhysicalParams:
    def test_reference_set(self):
        p = fig_params()
        assert 828 < p.n_bar < 838            # quoted ~832
        assert abs(p.kappa - 8.80e7) < 2e6     # quoted damping rate ~88 MHz
        want_g = (2 * math.pi * 3e8 / 810e-9 / 1e-3) * math.sqrt(
            1.054571817e-34 / (5e-12 * 2 * math.pi * 1e7))
        assert abs(p.g - want_g) / want_g < 1e-3
        assert p.gamma_m == pytest.approx(p.omega_m / 1e5)

    def test_zero_temperature(self):
        assert thermal_occupancy(2 * math.pi * 1e7, 0.0) == 0.0
        assert fig_params(temperature=1e-9).n_bar < 1e-6

    def test_power_scales_drive_squared(self):
        p1, p2 = fig_params(), fig_params(power=100e-3)
        assert abs(p2.drive_E**2 / p1.drive_E**2 - 2.0) < 1e-12

    def test_kappa_override(self):
        p = fig_params(kappa=1e7)
        assert p.kappa == 1e7

    def test_domain(self):
        with pytest.raises(DomainError):
            fig_params(mass=-1.0)


class TestSteadyState:
    def test_linear_cavity(self):
        p = StationaryParams(omega_m=1.0, gamma_m=1e-3, kappa=0.5, Delta0=0.7,
                             g=0.0, drive_E=2.0, n_bar=0.0)
        (branch,) = steady_state(p)
        assert abs(branch.alpha_s**2 - 4.0 / (0.25 + 0.49)) < 1e-12
        assert branch.p_s == 0.0

    def test_zero_drive_one_empty_branch(self):
        p = StationaryParams(omega_m=1.0, gamma_m=1e-3, kappa=0.5, Delta0=0.7,
                             g=0.2, drive_E=0.0, n_bar=0.0)
        (branch,) = steady_state(p)
        assert branch.alpha_s == 0.0 and branch.G == 0.0
        assert branch.Delta_eff == p.Delta0
        assert branch.stable and stability_check(p, branch)[0]

    def test_zero_bare_detuning_unique_root(self):
        p = StationaryParams(omega_m=1.0, gamma_m=1e-3, kappa=0.3, Delta0=0.0,
                             g=0.2, drive_E=1.5, n_bar=0.0)
        branches = steady_state(p)
        assert len(branches) == 1
        u = branches[0].alpha_s**2
        resid = u * (0.09 + (0.0 - 0.04 * u) ** 2) - 1.5**2
        assert abs(resid) < 1e-10
        assert branches[0].q_s == pytest.approx(0.2 * u)
        assert branches[0].G == pytest.approx(0.2 * math.sqrt(u) * math.sqrt(2))

    def test_bistable_three_roots(self):
        p = StationaryParams(omega_m=1.0, gamma_m=1e-3, kappa=0.1, Delta0=3.0,
                             g=0.05, drive_E=math.sqrt(50.0), n_bar=0.0)
        branches = steady_state(p)
        assert len(branches) == 3
        us = [b.alpha_s**2 for b in branches]
        assert us == sorted(us)
        # bracketing-oracle golden values for the cubic roots
        from scipy.optimize import brentq

        def f(u):
            return u * (0.01 + (3.0 - 2.5e-3 * u) ** 2) - 50.0

        golden = [brentq(f, lo, hi, xtol=1e-13, rtol=1e-15) for lo, hi in
                  ((0.1, 400.0), (400.0, 1200.0), (1200.0, 2400.0))]
        assert np.allclose(us, golden, rtol=1e-9)

    def test_detuning_branch(self):
        p = fig_params()
        (row,) = detuning_sweep(p, [1.0])
        assert row["alpha_s"] == pytest.approx(p.drive_E / math.hypot(p.kappa, p.omega_m))


class TestDriftMatrix:
    def _params(self):
        p = StationaryParams(omega_m=1.0, gamma_m=0.01, kappa=0.6, Delta0=0.0,
                             g=1e-3, drive_E=0.0, n_bar=3.0)
        s = SteadyState(alpha_s=0.0, q_s=0.0, p_s=0.0, Delta_eff=0.8, G=1.1,
                        stable=False)
        return p, s

    def test_hand_transcription(self):
        p, s = self._params()
        a, d = drift_and_diffusion(p, s.Delta_eff, s.G)
        want = np.array([
            [0.0, 1.0, 0.0, 0.0],
            [-1.0, -0.01, 1.1, 0.0],
            [0.0, 0.0, -0.6, 0.8],
            [1.1, 0.0, -0.8, -0.6],
        ])
        assert np.allclose(a, want, atol=1e-15)
        assert np.allclose(d, np.diag([0.0, 0.01 * 7.0, 0.6, 0.6]), atol=1e-15)

    def test_trace(self):
        p, s = self._params()
        a, _ = drift_and_diffusion(p, s.Delta_eff, s.G)
        assert abs(np.trace(a) + p.gamma_m + 2 * p.kappa) < 1e-14

    def test_block_diagonal_at_zero_coupling(self):
        p, s = self._params()
        a, _ = drift_and_diffusion(p, s.Delta_eff, 0.0)
        assert np.max(np.abs(a[:2, 2:])) == 0.0 and np.max(np.abs(a[2:, :2])) == 0.0


class TestStability:
    def test_zero_detuning_always_stable(self):
        p = StationaryParams(omega_m=1.0, gamma_m=1e-4, kappa=0.4, Delta0=0.0,
                             g=1e-3, drive_E=0.0, n_bar=100.0)
        for big_g in (0.0, 0.5, 2.0, 10.0):
            st = SteadyState(0.0, 0.0, 0.0, 0.0, big_g, False)
            ok, s1, s2 = stability_check(p, st)
            assert ok

    def test_uncoupled_stable(self):
        p = StationaryParams(omega_m=1.0, gamma_m=1e-3, kappa=0.5, Delta0=1.0,
                             g=1e-3, drive_E=0.0, n_bar=0.0)
        ok, _, _ = stability_check(p, SteadyState(0, 0, 0, 1.0, 0.0, False))
        assert ok

    def test_routh_hurwitz_matches_eigenvalues(self):
        p = StationaryParams(omega_m=1.0, gamma_m=1e-3, kappa=0.8, Delta0=0.0,
                             g=1e-3, drive_E=0.0, n_bar=10.0)
        for delta in np.linspace(-2.0, 3.0, 20):
            for big_g in np.linspace(0.0, 2.5, 20):
                st = SteadyState(0.0, 0.0, 0.0, delta, big_g, False)
                a, _ = drift_and_diffusion(p, delta, big_g)
                rh = stability_check(p, st)[0]
                eig = bool(np.max(np.linalg.eigvals(a).real) < 0.0)
                assert rh == eig


class TestLyapunov:
    def test_identity_case(self):
        v = lyapunov_solve(-np.eye(4), np.eye(4))
        assert np.allclose(v, 0.5 * np.eye(4), atol=1e-14)

    def test_residual_and_oracles(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            a, d = random_stable_system(rng)
            v = lyapunov_solve(a, d)
            resid = np.max(np.abs(a @ v + v @ a.T + d))
            assert resid <= 1e-10 * np.max(np.abs(d))
            assert np.max(np.abs(v - v.T)) == 0.0
            assert np.max(np.abs(v - solve_continuous_lyapunov(a, -d))) < 1e-10
        a, d = random_stable_system(rng)
        v = lyapunov_solve(a, d)
        vi = integral_oracle(a, d)
        assert np.max(np.abs(v - vi)) < 1e-6 * max(1.0, np.max(np.abs(v)))

    def test_unstable_rejected(self):
        with pytest.raises(StabilityError):
            lyapunov_solve(np.eye(4), np.eye(4))

    def test_stack_equals_single_calls(self):
        rng = np.random.default_rng(7)
        a, d = (np.array(m) for m in zip(*(random_stable_system(rng)
                                           for _ in range(50))))
        v = lyapunov_solve(a, d)
        assert v.shape == (50, 4, 4)
        for k in range(50):
            assert np.array_equal(v[k], lyapunov_solve(a[k], d[k]))

    def test_stack_with_one_unstable_system(self):
        rng = np.random.default_rng(8)
        a, d = (np.array(m) for m in zip(*(random_stable_system(rng)
                                           for _ in range(5))))
        a[3] = np.eye(4)
        with pytest.raises(StabilityError) as info:
            lyapunov_solve(a, d)
        assert info.value.index == 3

    def test_zero_detuning_closed_forms(self):
        p = fig_params()
        (row,) = detuning_sweep(p, [0.0])
        v11, v22 = mirror_variances_zero_detuning(p, row["G"])
        assert abs(row["V11"] - v11) < 1e-8 * v11
        assert abs(row["V22"] - v22) < 1e-8 * v22
        assert abs(row["V12"]) < 1e-10
        want_neff = p.n_bar + (row["G"] / p.omega_m) ** 2 * (
            2 * p.kappa / p.omega_m + p.gamma_m / p.omega_m) / (
            4 * p.gamma_m / p.omega_m * ((p.kappa / p.omega_m) ** 2
                                         + p.kappa * p.gamma_m / p.omega_m**2 + 1))
        assert abs(row["n_eff"] - want_neff) < 1e-8 * want_neff


class TestStationaryEntanglement:
    def test_zero_detuning_no_entanglement(self):
        p = fig_params()
        assert detuning_sweep(p, [0.0])[0]["EN"] == 0.0

    def test_detuned_point_entangled_and_cooled(self):
        p = fig_params()
        r1, r2 = detuning_sweep(p, [1.0, 2.0])
        assert r1["EN"] > 0.25
        assert 0.35 < r2["n_eff"] < 1.5       # reference value ~0.75
        assert abs(r2["n_eff"] - 0.754) < 0.01  # frozen from this pipeline

    def test_sweep_shape(self):
        p = fig_params()
        xs = np.linspace(0.2, 3.0, 141)
        rows = detuning_sweep(p, xs)
        ens = np.array([r["EN"] for r in rows])
        assert all(r["stable"] for r in rows)
        assert ens[np.argmin(np.abs(xs - 1.0))] > 0.0
        # single interior maximum
        diffs = np.sign(np.diff(ens))
        changes = int((np.diff(diffs[diffs != 0]) != 0).sum())
        assert changes == 1
        peak = xs[np.argmax(ens)]
        assert 0.2 < peak < 3.0
        # continuity at 0.01 omega_m resolution
        fine = detuning_sweep(p, np.arange(0.2, 3.0, 0.01))
        fine_en = np.array([r["EN"] for r in fine])
        assert np.max(np.abs(np.diff(fine_en))) < 0.05
        # effective coupling stays within the quoted order-of-magnitude band
        gs = np.array([r["G"] for r in rows])
        assert gs.min() > 3e6 and gs.max() < 3e8

    def test_sweep_rows_equal_stationary_point(self):
        p = fig_params()
        xs = np.linspace(0.2, 3.0, 141)
        for row in detuning_sweep(p, xs):
            ref = stationary_point(p, record_state(p, row))
            assert (row["EN"], row["n_eff"]) == (ref.E_N, ref.n_eff)
            assert (row["S1"], row["S2"]) == (ref.S1, ref.S2)
            assert np.array_equal(record_cov(row), ref.cov)

    def test_covariances_physical(self):
        p = fig_params()
        sigma = symplectic_form(2)
        for row in detuning_sweep(p, [0.3, 0.83, 1.5, 2.7]):
            w = np.linalg.eigvalsh(record_cov(row) + 0.5j * sigma).min()
            assert w > -1e-8

    def test_first_stable_branch_point(self):
        p = StationaryParams(omega_m=1.0, gamma_m=1e-3, kappa=0.5, Delta0=1.2,
                             g=0.02, drive_E=5.0, n_bar=1.0)
        res = stationary_point(p, next(b for b in steady_state(p) if b.stable))
        assert res.cov.shape == (4, 4)
        assert res.E_N >= 0.0 and res.n_eff > 0.0

    def test_steady_entanglement_requires_stable_branch(self):
        # the reference drive at zero bare detuning self-shifts onto the
        # anti-damping side and has no stable branch
        p = fig_params()
        branches = steady_state(p)
        assert not any(b.stable for b in branches)
        with pytest.raises(StabilityError):
            stationary_point(p, branches[0])

    def test_stationary_point_refuses_unstable_branch(self):
        p = fig_params(power=0.15)
        st = record_state(p, detuning_sweep(p, [1.0])[0])
        assert not st.stable
        with pytest.raises(StabilityError):
            stationary_point(p, st)

    def test_sweep_is_a_table_of_columns(self):
        xs = np.linspace(0.2, 3.0, 7)
        sweep = detuning_sweep(fig_params(power=0.15), xs)
        assert sweep.dtype.names == optomech_stationary.SWEEP_COLUMNS
        assert len(sweep) == 7 and sweep["stable"].dtype.kind == "i"
        assert np.array_equal(sweep["Delta_over_wm"], xs)
        assert sweep[3]["G"] == sweep["G"][3]
        unstable = sweep["stable"] == 0
        assert unstable.any() and np.isnan(sweep["V11"][unstable]).all()


# The benchmark's seed-0 maps (2810 steps) and the README sweep (281 steps at
# the default 50 mW), each as (power [W], steps).
REAL_SWEEPS = [(0.005, 2810), (0.025, 2810), (0.075, 2810), (0.15, 2810), (0.05, 281)]


@pytest.mark.parametrize("power, steps", REAL_SWEEPS)
def test_routh_hurwitz_stable_points_need_no_eigenvalue_check(power, steps):
    """The sweep solves the points that Routh-Hurwitz calls stable without
    lyapunov_solve's eigenvalue check.  On the real maps every such point has
    max Re eig(A) < 0, and the public solver, checks and all, gives the
    sweep's covariances bit for bit."""
    p = fig_params(power=power)
    sweep = detuning_sweep(p, np.linspace(0.2, 3.0, steps))
    stable = sweep["stable"] == 1
    assert stable.any()
    delta = sweep["Delta_over_wm"][stable] * p.omega_m
    a, d = drift_and_diffusion(p, delta, sweep["G"][stable], p.omega_m)
    assert np.max(np.linalg.eigvals(a).real, axis=-1).max() < 0.0
    cov = np.stack([sweep[f"V{i}{j}"][stable] for i in range(1, 5) for j in range(1, 5)],
                   axis=-1).reshape(-1, 4, 4)
    assert np.array_equal(cov, lyapunov_solve(a, d))


def operator_tally(n):
    """(i, j, tally): the unknowns V_ij, i <= j, of a symmetric n x n V, and
    tally[r, c, x, y], how often A_xy multiplies unknown c in equation r of
    A V + V A^T, from (A V + V A^T)_ij = sum_k A_ik V_kj + A_jk V_ik."""
    i, j = np.triu_indices(n)
    pos = np.empty((n, n), dtype=int)
    pos[i, j] = pos[j, i] = np.arange(i.size)
    r, k = np.arange(i.size)[:, None], np.arange(n)
    tally = np.zeros((i.size, i.size, n, n))
    np.add.at(tally, (r, pos[k, j[:, None]], i[:, None], k), 1.0)
    np.add.at(tally, (r, pos[i[:, None], k], j[:, None], k), 1.0)
    return i, j, tally


def einsum_operator(a):
    """The vectorized operator of V -> A V + V A^T as a contraction of A with
    the tally: 16 products per entry, zeros included.  The oracle for the
    values of the equation build."""
    return np.einsum("rcxy,...xy->...rc", operator_tally(a.shape[-1])[2], a)


def operator_by_terms(a):
    """The vectorized operator from the term table of the tally: each nonzero
    entry's terms w A_xy in (x, y) order, the first written into zeros and
    the second added with one ``+``.  The oracle for the signs of zeros,
    which the contraction cannot give (its zero products make -0.0 +0)."""
    i, _, tally = operator_tally(a.shape[-1])
    op = np.zeros(a.shape[:-2] + (i.size, i.size))
    r, c, x, y = np.nonzero(tally)
    first = np.r_[True, (r[1:] != r[:-1]) | (c[1:] != c[:-1])]
    for rr, cc, xx, yy, is_first in zip(r, c, x, y, first):
        term = tally[rr, cc, xx, yy] * a[..., xx, yy]
        if is_first:
            op[..., rr, cc] = term
        else:
            op[..., rr, cc] += term
    return op


def signed_zero_stacks():
    """Drift stacks for :func:`operator_by_terms`: the stable points of the
    2810-point 50 mW sweep and one of its systems, A at Delta/omega_m in
    {-1, 0, 1} and {0.0, -0.0} (where A holds -0.0), random 4 x 4 stacks
    with +-0 entries, a 3 x 3 stack and one 6 x 6 system."""
    p = fig_params()
    sweep = detuning_sweep(p, np.linspace(0.2, 3.0, 2810))
    stable = sweep["stable"] == 1
    a, _ = drift_and_diffusion(p, sweep["Delta_over_wm"][stable] * p.omega_m,
                               sweep["G"][stable], p.omega_m)
    stacks = [a, a[0]]
    for xs in ([-1.0, 0.0, 1.0], [0.0, -0.0]):
        delta = np.array(xs) * p.omega_m
        big_g = p.g * p.drive_E / np.sqrt(p.kappa**2 + delta**2) * math.sqrt(2.0)
        stacks.append(drift_and_diffusion(p, delta, big_g, p.omega_m)[0])
    rng = np.random.default_rng(5)
    entries = np.array([-0.0, 0.0, 1.5, -2.25, 3.0])
    for shape in ((40, 4, 4), (40, 4, 4), (20, 3, 3), (6, 6)):
        stacks.append(rng.choice(entries, size=shape))
    return stacks


@pytest.mark.parametrize("power, steps", REAL_SWEEPS)
def test_scatter_operator_equals_einsum_oracle(power, steps):
    """On the drift stacks of the real maps, and on one system, the scatter
    build equals the contraction to the bit, the signs of its zeros
    included, and is C-contiguous like the contraction's result: ``op @ sol``
    on another layout of the same values moves bits of V."""
    p = fig_params(power=power)
    sweep = detuning_sweep(p, np.linspace(0.2, 3.0, steps))
    stable = sweep["stable"] == 1
    a, _ = drift_and_diffusion(p, sweep["Delta_over_wm"][stable] * p.omega_m,
                               sweep["G"][stable], p.omega_m)
    for drift in (a, a[0]):
        got, want = optomech_stationary._lyapunov_operator(drift), einsum_operator(drift)
        assert got.shape == want.shape == drift.shape[:-2] + (10, 10)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        assert got.flags.c_contiguous and want.flags.c_contiguous


def test_operator_equals_term_table_to_the_bit():
    """The equation build equals the term-table build in bytes, signs of
    zeros and strides, also where A holds -0.0 (Delta = 0) and where the
    contraction oracle would give +0.0."""
    stacks = signed_zero_stacks()
    assert any(np.signbit(s[s == 0]).any() for s in stacks)
    for drift in stacks:
        got, want = optomech_stationary._lyapunov_operator(drift), operator_by_terms(drift)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert got.strides == want.strides


def test_si_constants_equal_scipy_constants():
    assert optomech_stationary._c_light == scipy.constants.c
    assert optomech_stationary._k_boltzmann == scipy.constants.k
    assert optomech_stationary._hbar == scipy.constants.hbar


@pytest.mark.parametrize("power, steps", REAL_SWEEPS)
def test_passing_systems_take_no_compensated_steps(monkeypatch, power, steps):
    """Only systems that miss the residual gate take the compensated
    refinement steps, so every point of the real maps keeps its bits."""
    def refuse(*args):
        raise AssertionError("a passing map took a compensated step")

    monkeypatch.setattr(optomech_stationary, "_residual_dot2", refuse)
    detuning_sweep(fig_params(power=power), np.linspace(0.2, 3.0, steps))


@pytest.mark.parametrize("power, x", [(0.0797, 1.65233179067), (0.0684, 1.45496618014)])
def test_marginal_systems_refined_to_the_last_bit(power, x):
    """At the two points of the 79.7 and 68.4 mW maps (2810 steps) that
    miss the gate, the compensated steps bring V within one unit in the last
    place of the 50-digit solution.  Evaluated in double, even that solution
    rounded to double has a residual above 1e-10 ||D||; the compensated
    gate's residual is the exact one of V, rounded, and passes."""
    import mpmath

    p = fig_params(power=power)
    xs = np.linspace(0.2, 3.0, 2810)
    delta = xs[np.abs(xs - x).argmin()] * p.omega_m
    alpha_s = p.drive_E / np.sqrt(p.kappa**2 + np.square(delta))  # as detuning_sweep
    big_g = p.g * alpha_s * math.sqrt(2.0)
    a, d = drift_and_diffusion(p, delta, big_g, p.omega_m)
    v, residual, failed = optomech_stationary._refined_solution(a, d)
    exact = np.array(exact_lyapunov(a, d), dtype=float)  # rounded to double
    # V_qp = <dq dp + dp dq>/2 vanishes; the 50-digit solve leaves it ~1e-48
    assert np.all(np.abs(v - exact) <= np.maximum(np.spacing(np.abs(exact)), 1e-40))
    assert optomech_stationary._gate(a, d, exact)[1]
    assert not failed and optomech_stationary._gate(a, d, v)[1]
    with mpmath.workdps(50):
        am, vm, dm = (mpmath.matrix(m.tolist()) for m in (a, v, d))
        r = am * vm + vm * am.T + dm
        want = float(max(abs(r[i, j]) for i in range(4) for j in range(4)))
    assert abs(residual - want) <= 1e-15 * want
    assert residual <= 1e-10 * np.max(np.abs(d))


def test_compensated_residual_against_mpmath():
    """rhs - op @ sol from error-free transformations is the exact value
    rounded, up to a term of order eps^2 times the sum of the |terms|."""
    import mpmath

    rng = np.random.default_rng(21)
    op = rng.normal(size=(20, 10, 10)) * 10.0 ** rng.integers(-3, 4, size=(20, 10, 10))
    sol = rng.normal(size=(20, 10, 1))
    rhs = np.einsum("kij,kjl->kil", op, sol) * (1.0 + 1e-12 * rng.normal(size=(20, 10, 1)))
    got = optomech_stationary._residual_dot2(op, sol, rhs)
    with mpmath.workdps(60):
        for k in range(20):
            for i in range(10):
                terms = [-mpmath.mpf(op[k, i, j]) * mpmath.mpf(sol[k, j, 0])
                         for j in range(10)]
                exact = mpmath.mpf(rhs[k, i, 0]) + mpmath.fsum(terms)
                size = abs(rhs[k, i, 0]) + sum(abs(float(t)) for t in terms)
                assert abs(got[k, i, 0] - exact) <= 2.3e-16 * abs(exact) + 1e-30 * size
