"""Acceptance gate: one test per criterion, at the stated tolerance and
runtime budget, printing one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from qcb import ed as ed_mod
from qcb import gaussian, optomech_stationary, optomech_unitary, qstate, spin_lde

from random_states import (
    chi_aklt_sma,
    mirror_variances_zero_detuning,
    probe_state_thermal,
    random_density_matrix,
    random_physical_cov,
    random_separable_mixture,
    random_symplectic,
    renormalization_check,
    subspace_tangle_t0,
)


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_s else "FAIL (over budget)"
    print(f"ACCEPTANCE {number:2d}: {status} - {description} "
          f"[{elapsed:.2f}s / {budget_s:.0f}s]")
    assert elapsed < budget_s


def test_criterion_01_werner_family():
    with criterion(1, "Werner negativity N(f) = max[0, -(1+3f)/4] on 100-point grid", 1.0):
        for f in np.linspace(-1.0, 1.0 / 3.0, 100):
            n, en = qstate.negativity(qstate.werner_state(float(f)))
            want = max(0.0, -(1.0 + 3.0 * f) / 4.0)
            assert abs(n - want) <= 1e-12
            assert abs(en - math.log2(2.0 * want + 1.0)) <= 1e-12
        # separability boundary exactly at f = -1/3
        assert qstate.negativity(qstate.werner_state(-1 / 3))[0] <= 1e-12
        assert qstate.negativity(qstate.werner_state(-1 / 3 - 1e-9))[0] > 0.0


def test_criterion_02_gaussian_grid():
    with criterion(2, "Gaussian E_N(r, n_bar) closed form on 20x20 grid to 1e-10", 1.0):
        for r in np.linspace(0.0, 2.0, 20):
            for nb in np.linspace(0.0, 3.0, 20):
                v = gaussian.two_mode_squeezed_thermal_cov(float(r), 0.0, float(nb))
                got = gaussian.logneg_gaussian(v.cov)
                want = max(0.0, 2.0 * r - math.log(2.0 * nb + 1.0))
                assert abs(got - want) <= 1e-10


def _closed_form_projection(k, alpha, t=math.pi):
    kk = math.exp(-2 * k**2 * math.sin(t / 2) ** 2)
    hh = 1 + 4 * k**2 * math.sin(t / 2) ** 2
    a2 = abs(alpha) ** 2
    et = optomech_unitary.eta(t)
    etc = np.conj(et)
    m = np.array([
        [1, 0, np.conj(alpha) * kk, etc * k * np.conj(alpha) * kk],
        [0, 0, 0, 0],
        [alpha * kk, 0, a2 * kk**2, etc * k * a2 * kk**2],
        [et * k * alpha * kk, 0, et * k * a2 * kk**2,
         4 * k**2 * a2 * math.sin(t / 2) ** 2 * kk**2],
    ], dtype=complex)
    lam = t - math.sin(t)
    gauge = np.exp(-1j * np.array([0.0, 0.0, -k**2 * lam, -k**2 * lam]))
    m = m * np.outer(gauge, gauge.conj())
    return m / np.trace(m)


def test_criterion_03_projection_and_tangle():
    with criterion(3, "[0,1;0,1] projection matches closed form (1e-12) and "
                      "tangle formula (1e-10), 50 random (k, alpha)", 5.0):
        rng = np.random.default_rng(2024)
        sel = optomech_unitary.SubspaceSelector((0, 1), (0, 1))
        for _ in range(50):
            k = rng.uniform(0.05, 1.5)
            alpha = rng.uniform(0.2, 2.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            p = optomech_unitary.OptoUnitaryParams(k=k, alpha=alpha, n_bar=0.0,
                                                   t=math.pi)
            dm = optomech_unitary.projected_density(p, sel)
            assert np.max(np.abs(dm.matrix - _closed_form_projection(k, alpha))) <= 1e-12
            assert abs(qstate.tangle(dm)
                       - subspace_tangle_t0(p)) <= 1e-10


def test_criterion_04_subspace_renormalization():
    with criterion(4, "subspace rescaling identity to 1e-10, s in {1..4}, "
                      "20 random parameter sets", 10.0):
        rng = np.random.default_rng(77)
        mirrors = ((0, 1), (1, 3), (0, 2, 5), (3, 4, 5))
        for _ in range(20):
            p = optomech_unitary.OptoUnitaryParams(
                k=rng.uniform(0.1, 1.2),
                alpha=rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 6.28)),
                n_bar=rng.uniform(0.0, 4.0), t=rng.uniform(0.2, 6.0))
            mirror = mirrors[rng.integers(0, len(mirrors))]
            for s in (1, 2, 3, 4):
                lhs, rhs = renormalization_check(p, s, mirror)
                assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-30)


def test_criterion_05_averaged_mutual_information():
    with criterion(5, "averaged normalized MI at (k=1, n_bar=10, alpha=10) "
                      "= 0.52 +/- 0.02", 60.0):
        p = optomech_unitary.OptoUnitaryParams(k=1.0, alpha=10.0, n_bar=10.0, t=0.0)
        value = optomech_unitary.averaged_mi(p)
        assert abs(value - 0.52) <= 0.02


def test_criterion_06_lyapunov_solver():
    with criterion(6, "Lyapunov: 1e-10 residual on 200 random systems, "
                      "integral oracle 1e-6, Delta=0 closed forms 1e-8", 10.0):
        rng = np.random.default_rng(123)
        for _ in range(200):
            a = rng.normal(size=(4, 4))
            a -= (np.max(np.linalg.eigvals(a).real) + rng.uniform(0.2, 1.0)) * np.eye(4)
            d = np.diag(rng.uniform(0.1, 2.0, size=4))
            v = optomech_stationary.lyapunov_solve(a, d)
            assert np.max(np.abs(a @ v + v @ a.T + d)) <= 1e-10 * np.max(np.abs(d))
            assert np.max(np.abs(v - solve_continuous_lyapunov(a, -d))) < 1e-8

        from scipy.linalg import expm
        for _ in range(5):
            a = rng.normal(size=(4, 4))
            a -= (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(4)
            d = np.diag(rng.uniform(0.2, 1.5, size=4))
            v = optomech_stationary.lyapunov_solve(a, d)
            tau = -1.0 / np.max(np.linalg.eigvals(a).real)
            n_steps = 4000
            h = 20.0 * tau / n_steps
            step = expm(a * h)
            m = np.eye(4)
            vals = []
            for _ in range(n_steps + 1):
                vals.append(m @ d @ m.T)
                m = m @ step
            vals = np.array(vals)
            vi = h / 3.0 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum(axis=0)
                            + 2 * vals[2:-1:2].sum(axis=0))
            assert np.max(np.abs(v - vi)) <= 1e-6 * max(1.0, np.max(np.abs(v)))

        p = optomech_stationary.derive_physical_params(
            length=1e-3, mass=5e-12, power=50e-3, quality=1e5, temperature=0.4,
            wavelength=810e-9, finesse=1.07e4)
        (row,) = optomech_stationary.detuning_sweep(p, [0.0])
        v11, v22 = mirror_variances_zero_detuning(p, row["G"])
        assert abs(row["V11"] - v11) <= 1e-8 * v11
        assert abs(row["V22"] - v22) <= 1e-8 * v22
        assert abs(row["V12"]) <= 1e-10


def test_criterion_07_stationary_entanglement_sweep():
    with criterion(7, "reference sweep: E_N = 0 at Delta=0, E_N > 0 around "
                      "omega_m with one interior max, n_eff(2 omega_m) in "
                      "[0.35, 1.5]", 10.0):
        p = optomech_stationary.derive_physical_params(
            length=1e-3, mass=5e-12, power=50e-3, quality=1e5, temperature=0.4,
            wavelength=810e-9, finesse=1.07e4)
        assert optomech_stationary.detuning_sweep(p, [0.0])[0]["EN"] == 0.0
        xs = np.linspace(0.2, 3.0, 141)
        rows = optomech_stationary.detuning_sweep(p, xs)
        ens = np.array([r["EN"] for r in rows])
        assert all(r["stable"] for r in rows)
        assert ens[np.argmin(np.abs(xs - 1.0))] > 0.0
        pos = xs[ens > 0]
        assert pos.min() < 1.0 < pos.max()
        diffs = np.sign(np.diff(ens))
        assert int((np.diff(diffs[diffs != 0]) != 0).sum()) == 1
        n2 = optomech_stationary.detuning_sweep(p, [2.0])[0]["n_eff"]
        assert 0.35 <= n2 <= 1.5


def test_criterion_08_aklt():
    with criterion(8, "AKLT closed vs numeric <= 1e-6 for r=1..10; "
                      "chi(1) = 2.1 exactly", 1.0):
        assert abs(spin_lde.chi_aklt(1) - 2.1) <= 1e-12
        for r in range(1, 11):
            assert abs(spin_lde.chi_aklt(r) - chi_aklt_sma(r)) <= 1e-6


def test_criterion_09_thermal_threshold():
    with criterion(9, "probe concurrence vanishes exactly at "
                      "beta J_ab = ln(3)/4 = 0.2747", 1.0):
        beta_star = math.log(3.0) / 4.0
        assert abs(beta_star - 0.27) < 0.005  # matches the quoted 0.27
        assert qstate.concurrence(probe_state_thermal(1.0, beta_star)) <= 1e-12
        assert qstate.concurrence(probe_state_thermal(1.0, beta_star * 1.02)) > 0.0
        assert qstate.concurrence(probe_state_thermal(1.0, beta_star * 0.98)) == 0.0


def test_criterion_10_canonical_table_row():
    with criterion(10, "spin-chain table row: T = 0 concurrence "
                       "= 0.984 +/- 0.002", 1.0):
        cp = spin_lde.CanonicalParams(5.07e-4, 1.03e-2, 6.23e-4)
        c0 = spin_lde.correlator_of_beta(cp, 1e12)
        e_c = qstate.concurrence_from_correlator(c0)
        assert abs(e_c - 0.984) <= 0.002


def test_criterion_11_ed_end_to_end():
    with criterion(11, "ED pipeline (8-site chain, boundary probes, "
                       "alpha=0.05): sector, J_can vs 4(Ja)^2 chi (5%), "
                       "fit rms < 1e-3, T* vs estimate (3%)", 120.0):
        spec = ed_mod.chain(8, alpha=0.05, probes=(1, 6))
        rep = ed_mod.theory_consistency_report(spec)
        assert rep["gap_over_jcan"] > 5.0          # 1 singlet + 1 triplet low sector
        assert rep["jcan_rel_error"] < 0.05        # perturbative J_can
        assert rep["fit_rms_residual"] < 1e-3      # canonical-model fit
        assert rep["tstar_rel_error"] < 0.03       # separability temperature


def test_criterion_12_property_suites():
    with criterion(12, "property suites: state invariants, entropy triangle, "
                       "symplectic invariants, RH vs eigenvalues", 30.0):
        rng = np.random.default_rng(999)
        # density-matrix invariants + triangle inequality
        for _ in range(200):
            d_a, d_b = rng.choice([2, 3]), rng.choice([2, 3])
            rho = random_density_matrix(d_a * d_b, rng, split=(d_a, d_b))
            w = np.linalg.eigvalsh(rho.matrix)
            assert w.min() >= -1e-10 and abs(w.sum() - 1.0) < 1e-10
            s_ab = qstate.entropies(rho)[0]
            s_a = qstate.entropies(qstate.partial_trace(rho, "A"))[0]
            s_b = qstate.entropies(qstate.partial_trace(rho, "B"))[0]
            assert abs(s_a - s_b) <= s_ab + 1e-10 <= s_a + s_b + 2e-10
        # separable states have no negativity
        for _ in range(300):
            rho = random_separable_mixture(2, rng.choice([2, 3]), rng)
            assert qstate.negativity(rho)[0] <= 1e-10
        # symplectic-invariant conservation under local operations
        for _ in range(100):
            v = random_physical_cov(2, rng).cov
            s_a = random_symplectic(1, rng)
            s_b = random_symplectic(1, rng)
            s = np.block([[s_a, np.zeros((2, 2))], [np.zeros((2, 2)), s_b]])
            w = s @ v @ s.T
            for f in (lambda m: np.linalg.det(m[:2, :2]),
                      lambda m: np.linalg.det(m[2:, 2:]),
                      lambda m: np.linalg.det(m[:2, 2:]),
                      np.linalg.det):
                assert abs(f(v) - f(w)) < 1e-10 * max(1.0, abs(f(v)))
        # Routh-Hurwitz iff eigenvalue stability
        p = optomech_stationary.StationaryParams(
            omega_m=1.0, gamma_m=1e-3, kappa=0.8, Delta0=0.0, g=1e-3,
            drive_E=0.0, n_bar=10.0)
        for _ in range(400):
            st = optomech_stationary.SteadyState(
                0.0, 0.0, 0.0, rng.uniform(-2.0, 3.0), rng.uniform(0.0, 2.5), False)
            a, _ = optomech_stationary.drift_and_diffusion(p, st.Delta_eff, st.G)
            rh = optomech_stationary.stability_check(p, st)[0]
            assert rh == bool(np.max(np.linalg.eigvals(a).real) < 0.0)
