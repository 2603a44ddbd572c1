import math
import sys
import warnings

import numpy as np
import pytest

from qcb import ed, spin_lde
from qcb.exceptions import DomainError, FitError, QcbError
from qcb.qstate import PAULI_DOT, concurrence, concurrence_from_correlator
from qcb.spin_lde import (
    AKLT_GAP,
    AKLT_XI,
    CanonicalParams,
    RingGeometry,
    canonical_correlator,
    chi_aklt,
    chi_ring,
    correlator_from_jab,
    correlator_of_beta,
    critical_temperature,
    fit_canonical_params,
    jab_of_beta,
)

from random_states import chi_aklt_sma, probe_state_thermal, ring_integral_quad

CHAIN_ROW = CanonicalParams(5.07e-4, 1.03e-2, 6.23e-4)       # table: spin chain
SQUARE_ROW = CanonicalParams(3.04e-3, 1.46e-1, -1.34e-2)     # table: square lattice


class TestRingSusceptibility:
    def test_half_ring_vanishes(self):
        assert chi_ring(RingGeometry(100, 50)) == 0.0

    def test_reflection_symmetry(self):
        # same-parity pair r and L - r (L even keeps the staggered sign);
        # x is taken from min(r, L - r), so the pair gives one float, also
        # where 2 pi (L - 1) / L rounds to 2 pi
        for L, r in ((100, 31), (64, 9), (200, 77), (10**17, 1)):
            assert chi_ring(RingGeometry(L, r)) == chi_ring(RingGeometry(L, L - r))

    def test_odd_ring_is_refused(self):
        # (-1)^r would give r and L - r opposite signs on an odd ring
        for L, r in ((3, 1), (3, 2), (101, 31), (101, 70)):
            with pytest.raises(DomainError, match="even L"):
                RingGeometry(L, r)

    def test_sign_follows_separation_parity(self):
        assert chi_ring(RingGeometry(60, 13)) > 0.0
        assert chi_ring(RingGeometry(60, 14)) < 0.0

    def test_logarithmic_divergence_at_origin(self):
        L = 20_000_000
        vals = []
        for xe in (1e-2, 1e-3, 1e-4):
            r = int(round(xe * L / (2 * math.pi)))
            r += 1 - r % 2
            vals.append(chi_ring(RingGeometry(L, r)))
        inc1, inc2 = vals[1] - vals[0], vals[2] - vals[1]
        assert abs(inc1 - math.log(10)) < 0.01
        assert abs(inc2 - math.log(10)) < 0.01
        # x = 2 pi / L from 1e-2 down to about 1e-307 on even rings: a finite
        # value with no warning at every step, and below x = 1e-6 each step
        # grows by ln(L_next / L), the slope of the log asymptote
        rings = [2 * round(math.pi * 10.0**k) for k in range(2, 308)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = [chi_ring(RingGeometry(L, 1)) for L in rings]
        assert all(math.isfinite(v) for v in vals)
        for k in range(len(rings) - 1):
            if RingGeometry(rings[k], 1).x <= 1e-6:
                step = math.log(rings[k + 1]) - math.log(rings[k])
                assert abs(vals[k + 1] - vals[k] - step) < 1e-9

    def test_quadrature_stability(self):
        # independent tanh-sinh oracle on the raw singular integrand,
        # evaluated at 60 digits so that cos x - cos tau keeps its digits at
        # the nodes next to tau = x; x = 0.3 is where the quadrature once
        # changed substitution
        from mpmath import mp, mpf, quad as mpquad, cos as mpcos, sqrt as mpsqrt, pi as mppi

        mp.dps = 30
        from qcb.spin_lde import _ring_integral

        def f(tau, x):
            with mp.workdps(60):
                return (tau / mppi - 1) / mpsqrt(mpcos(mpf(x)) - mpcos(tau))

        for x in (0.05, 0.7, 2.0, 0.3, 1e-6, 3.0):
            got, _ = _ring_integral(x)
            want = float(mpquad(lambda tau: f(tau, x), [mpf(x), mppi]))
            assert abs(got - want) < 1e-8 * max(1.0, abs(want))

    def test_rule_against_adaptive_quadrature(self):
        # the Gauss-Legendre rule within 1e-13 max(1, |value|) of scipy's quad
        # on the same integrand: the 306 rings of the log-asymptote walk, 300
        # x across (0, pi) and x = pi - 2 pi / L next to the half ring
        xs = [RingGeometry(2 * round(math.pi * 10.0**k), 1).x for k in range(2, 308)]
        xs += np.linspace(0.0, math.pi, 302)[1:-1].tolist()
        xs += [math.pi - 2.0 * math.pi / L for L in (*np.geomspace(4.0, 1e15, 40), 2e15)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in xs:
                got, diff = spin_lde._ring_integral(x)
                want = ring_integral_quad(x)
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), x
                assert diff <= 1e-13 * max(1.0, abs(got))

    def test_rule_that_does_not_converge_is_refused(self, monkeypatch, capsys):
        # capped at its first rule of 16 nodes, no two values can agree
        from qcb.cli import main

        monkeypatch.setattr(spin_lde, "_RING_NODES", (16,))
        with pytest.raises(QcbError, match="not converged at 16 nodes: last difference inf"):
            chi_ring(RingGeometry(100, 31))
        assert main(["lde", "chi", "--model", "ring", "--L", "100", "--r", "31"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("qcb: error: ring susceptibility quadrature")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_domain(self):
        with pytest.raises(DomainError):
            RingGeometry(10, 0)
        with pytest.raises(DomainError):
            RingGeometry(10, 10)


class TestAkltSusceptibility:
    def test_exact_first_values(self):
        assert abs(chi_aklt(1) - 2.1) < 1e-12
        assert abs(chi_aklt(2) + 1.1) < 1e-12

    def test_closed_matches_numeric(self):
        for r in range(1, 11):
            assert abs(chi_aklt(r) - chi_aklt_sma(r)) <= 1e-6

    def test_sign_alternation(self):
        for r in range(1, 9):
            assert math.copysign(1, chi_aklt(r)) == (-1.0) ** (r + 1)

    def test_gap_and_correlation_length_constants(self):
        assert abs(AKLT_GAP - 10.0 / 27.0) < 1e-15
        assert abs(AKLT_XI - 1.0 / math.log(3.0)) < 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            chi_aklt(0)

    def test_below_the_smallest_normal_double_is_refused(self):
        # r = 651 is the last separation whose |chi| is a normal double
        assert abs(chi_aklt(651)) >= sys.float_info.min
        with pytest.raises(DomainError, match=r"log10\|chi\| = -307.712 at r = 652"):
            chi_aklt(652)
        with pytest.raises(DomainError, match=r"r = 10\^400 does not convert"):
            chi_aklt(10**400)
        with pytest.raises(DomainError, match=r"L = 10\^400 does not convert"):
            RingGeometry(10**400, 1)


class TestEffectiveCoupling:
    """The second-order probe-probe exchange J_eff = J_p^2 chi."""

    def test_aklt_nearest(self):
        assert abs(0.1**2 * chi_aklt(1) - 0.021) < 1e-12

    def test_af_sign_for_odd_separation(self):
        for r in (1, 3, 5):
            assert 0.1**2 * chi_aklt(r) > 0.0


class TestProbeThermalState:
    def test_ground_state_is_singlet(self):
        rho = probe_state_thermal(1.0, 200.0)
        corr = np.trace(rho.matrix @ PAULI_DOT).real
        assert abs(corr + 3.0) < 1e-12

    def test_infinite_temperature(self):
        rho = probe_state_thermal(1.0, 0.0)
        assert np.allclose(rho.matrix, np.eye(4) / 4, atol=1e-14)

    def test_concurrence_threshold(self):
        beta_star = math.log(3.0) / 4.0
        assert concurrence(probe_state_thermal(1.0, beta_star)) < 1e-12
        assert concurrence(probe_state_thermal(1.0, 1.05 * beta_star)) > 1e-3
        assert concurrence(probe_state_thermal(1.0, 0.95 * beta_star)) == 0.0

    def test_large_beta_overflow_safe(self):
        rho = probe_state_thermal(1.0, 1e6)
        assert np.isfinite(rho.matrix).all()


class TestCanonicalModel:
    def test_constraint(self):
        with pytest.raises(DomainError):
            CanonicalParams(1.0, 1.5, 0.0)   # eta + 3 Phi > 4

    def test_zero_corrections_quarter_gap(self):
        cp = CanonicalParams(1.0, 0.0, 0.0)
        for beta in (0.1, 1.0, 10.0):
            assert abs(jab_of_beta(cp, beta) - 0.25) < 1e-12

    def test_jab_correlator_consistency(self):
        for cp in (CHAIN_ROW, SQUARE_ROW, CanonicalParams(2.0, 0.3, 0.05)):
            for bj in (0.1, 1.0, 10.0, 60.0):
                beta = bj / cp.J_can
                got = correlator_from_jab(jab_of_beta(cp, beta), beta)
                assert abs(got - correlator_of_beta(cp, beta)) < 1e-10

    def test_zero_temperature_limits(self):
        cp = CHAIN_ROW
        assert abs(correlator_of_beta(cp, 1e9) - (-3 + cp.eta + 3 * cp.Phi)) < 1e-9
        want = 0.25 * math.log((4 - 3 * cp.Phi - cp.eta) / (cp.Phi + cp.eta / 3))
        beta = 1e7
        assert abs(beta * jab_of_beta(cp, beta) - want) < 1e-8

    def test_high_temperature_saturation(self):
        # J_ab -> J_can (1 - Phi)/4 - (k_B T/3) eta; the eta/3 slope follows
        # from the closed J_ab(beta) formula itself
        cp = CHAIN_ROW
        beta = 1e-4
        want = cp.J_can * (1 - cp.Phi) / 4.0 - cp.eta / (3.0 * beta)
        assert abs(jab_of_beta(cp, beta) - want) < 1e-3 * abs(want)
        cp0 = CanonicalParams(2.0, 0.1, 0.0)
        assert abs(jab_of_beta(cp0, 1e-5) - cp0.J_can * (1 - cp0.Phi) / 4) < 1e-6

    def test_table_chain_row_concurrence(self):
        c0 = correlator_of_beta(CHAIN_ROW, 1e12)
        assert abs(c0 + 2.9685) < 5e-4
        assert abs(concurrence_from_correlator(c0) - 0.984) <= 0.002

    def test_monotone_in_beta(self):
        cp = CanonicalParams(1.0, 0.4, 0.01)
        betas = np.geomspace(1e-3, 1e3, 200)
        vals = [correlator_of_beta(cp, b) for b in betas]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("x", [-1.0, -800.0])
    def test_negative_beta_jcan_against_mpmath(self, x):
        # beta J_can < 0 divides through by e^(-x), which overflows at -800
        import mpmath

        with mpmath.workdps(40):
            u = mpmath.exp(-mpmath.mpf(x))
            want = float((u - 1) / (u + mpmath.mpf(1) / 3))
        got = canonical_correlator(1.0, x)
        assert abs(got - want) <= math.ulp(want)

    def test_overflowing_beta_jcan_leaves_the_limits(self):
        # beta J_can = 1e600 is not formed: J_can/4 where only the numerator
        # grows as e^(beta J), ln(b_num/b_den)/(4 beta) where both do
        assert jab_of_beta(CanonicalParams(1e300, 0.0, 0.0), 1e300) == 2.5e299
        cp = CanonicalParams(1e300, 0.5, 0.1)
        want = math.log((4.0 - 1.5 - 0.1) / (0.5 + 0.1 / 3.0)) / 4e300
        assert abs(jab_of_beta(cp, 1e300) - want) < 1e-15 * want
        assert abs(jab_of_beta(cp, 1.0) - want * 1e300) < 1e-15

    def test_subnormal_jab_is_refused(self):
        # 4 beta overflows from beta = 4.5e307: J_ab = (ln b_num - ln b_den)/4/beta
        # is formed without it and kept while it is a normal double (phi =
        # 1e-6 at beta = 1e308), and a subnormal one is named by its log10
        # (kT = 6e-309: -3.8e-309 and 2.3e-309)
        for phi, eta, betas in ((1.2, 0.3, (1e300, 1e307)), (0.5, 0.1, (1e300, 1e307)),
                                (1e-6, 0.0, (1e300, 1e307, 1e308))):
            cp = CanonicalParams(1.0, phi, eta)
            want = math.log(4.0 - 3.0 * phi - eta) - math.log(phi + eta / 3.0)
            for beta in betas:
                got = jab_of_beta(cp, beta)
                assert got == want / 4.0 / beta and abs(got) >= sys.float_info.min
        for phi, eta, log10_jab in ((1.2, 0.3, "-308.415"), (0.5, 0.1, "-308.647")):
            with pytest.raises(DomainError, match=rf"log10\|J_ab\| = {log10_jab} at beta"):
                jab_of_beta(CanonicalParams(1.0, phi, eta), 1.0 / 6e-309)

    def test_log_domain_error(self):
        cp = CanonicalParams(1.0, 1.2, 0.3)
        with pytest.raises(DomainError):
            jab_of_beta(cp, -1.0)


class TestCriticalTemperature:
    def test_eta_zero_closed_form(self):
        # exact root: k_B T* = J_can / ln[3 (2 - Phi)/(2 - 3 Phi)]
        for phi in (0.0, 0.05, 0.2):
            cp = CanonicalParams(1.7, phi, 0.0)
            ct = critical_temperature(cp)
            want = cp.J_can / math.log(3.0 * (2 - phi) / (2 - 3 * phi))
            assert abs(ct.kT_exact - want) < 1e-9 * want
        cp0 = CanonicalParams(1.0, 0.0, 0.0)
        assert abs(critical_temperature(cp0).kT_exact - 1.0 / math.log(3.0)) < 1e-10

    def test_estimate_vs_exact_chain(self):
        ct = critical_temperature(CHAIN_ROW)
        assert abs(ct.kT_estimate / ct.kT_exact - 1.0) < 0.03

    def test_square_row_estimate_band(self):
        ct = critical_temperature(SQUARE_ROW)
        assert 0.9 <= ct.kT_estimate / ct.kT_exact <= 1.0

    @pytest.mark.parametrize("j_can", [1.0, 5.07e-4, 3e-7, 1e-200, 1e200])
    def test_eta_phi_zero_to_the_last_bits(self, j_can):
        # correlator = -1 at exp(-beta J_can) = 1/3: k_B T* = J_can / ln 3,
        # at any scale of J_can (beta J_can is what is bisected)
        want = j_can / math.log(3.0)
        got = critical_temperature(CanonicalParams(j_can, 0.0, 0.0)).kT_exact
        assert abs(got - want) <= 1e-15 * want

    def test_entangled_at_every_temperature_is_refused(self):
        # eta <= -1: the correlator never climbs above -1, however hot
        with pytest.raises(DomainError):
            critical_temperature(CanonicalParams(1.0, 0.5, -1.0))

    def test_never_entangled_flag(self):
        ct = critical_temperature(CanonicalParams(1.0, 4.0 / 3.0, 0.0))
        assert ct.never_entangled and ct.kT_exact is None

    def test_concurrence_vanishes_at_tstar(self):
        cp = SQUARE_ROW
        ct = critical_temperature(cp)

        def probe_concurrence(beta):
            return concurrence_from_correlator(correlator_of_beta(cp, beta))

        assert probe_concurrence(1.0 / ct.kT_exact) < 1e-9
        assert probe_concurrence(1.2 / ct.kT_exact) > 1e-4


def bisect_120(f, lo, hi):
    """120 bisections of log beta and no early stop: the oracle of
    :func:`separability_beta`."""
    for _ in range(120):
        mid = math.sqrt(lo * hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def recorded_bisections(monkeypatch, module):
    """Route the ``separability_beta`` that ``module`` calls through a
    recorder of (result, oracle result, evaluations of f) per call."""
    records, bisect = [], spin_lde.separability_beta

    def recorded(f, lo, hi):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        got = bisect(counted, lo, hi)
        records.append((got, bisect_120(f, lo, hi), len(calls)))
        return got

    monkeypatch.setattr(module, "separability_beta", recorded)
    return records


# Every critical_temperature case of TestCriticalTemperature that bisects.
BISECTED = [CanonicalParams(1.7, phi, 0.0) for phi in (0.0, 0.05, 0.2)] + [
    CanonicalParams(j, 0.0, 0.0) for j in (1.0, 5.07e-4, 3e-7, 1e-200, 1e200)] + [
    CHAIN_ROW, SQUARE_ROW]


class TestSeparabilityBisection:
    """The bisection stops once its midpoint rounds to an endpoint, with the
    float that 120 steps give, in at most 64 evaluations."""

    @pytest.mark.parametrize("cp", BISECTED)
    def test_critical_temperature(self, monkeypatch, cp):
        records = recorded_bisections(monkeypatch, spin_lde)
        critical_temperature(cp)
        [(got, want, calls)] = records
        assert got == want and calls <= 64

    @pytest.mark.parametrize("spec", [
        ed.chain(8, 0.05, (1, 6)), ed.chain(10, 0.05, (1, 8)), ed.ladder(4, 0.05)],
        ids=["chain8", "chain10", "ladder4"])
    def test_ed_report(self, monkeypatch, spec):
        records = recorded_bisections(monkeypatch, ed)
        rep = ed.theory_consistency_report(spec)
        [(got, want, calls)] = records
        assert got == want and calls <= 64
        assert rep["kT_star_exact"] == 1.0 / want


class TestCanonicalFit:
    def make_betas(self, cp, n=12):
        return np.geomspace(0.05 / cp.J_can, 20.0 / cp.J_can, n)

    def test_exact_recovery(self):
        cp = CanonicalParams(2.3e-3, 0.08, 1.5e-3)
        data = [(b, correlator_of_beta(cp, b)) for b in self.make_betas(cp)]
        fit = fit_canonical_params(data)
        assert fit.rms_residual < 1e-10
        assert abs(fit.params.J_can - cp.J_can) < 1e-8 * cp.J_can
        assert abs(fit.params.Phi - cp.Phi) < 1e-8
        assert abs(fit.params.eta - cp.eta) < 1e-8

    def test_jab_samples(self):
        cp = CanonicalParams(1.1e-3, 0.12, 0.0)
        betas = self.make_betas(cp)
        data = [(b, jab_of_beta(cp, b)) for b in betas]
        fit = fit_canonical_params(data, kind="jab")
        assert abs(fit.params.J_can - cp.J_can) < 1e-6 * cp.J_can

    def test_noise_recovery_monte_carlo(self):
        # 0.5 % multiplicative noise on J_ab samples, 100 draws, fixed seed
        cp = CanonicalParams(2.3e-3, 0.08, 1.5e-3)
        betas = self.make_betas(cp)
        rng = np.random.default_rng(11)
        worst_j = worst_phi = 0.0
        for _ in range(100):
            data = [(b, jab_of_beta(cp, b) * (1 + 0.005 * rng.normal()))
                    for b in betas]
            fit = fit_canonical_params(data, kind="jab").params
            worst_j = max(worst_j, abs(fit.J_can - cp.J_can) / cp.J_can)
            worst_phi = max(worst_phi, abs(fit.Phi - cp.Phi) / cp.Phi)
        assert worst_j < 0.02
        assert worst_phi < 0.04

    def test_constraint_respected(self):
        cp = CanonicalParams(1.0, 0.01, 0.0)
        data = [(b, correlator_of_beta(cp, b)) for b in self.make_betas(cp)]
        fit = fit_canonical_params(data)
        assert 0.0 <= fit.params.eta + 3 * fit.params.Phi <= 4.0

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_canonical_params([(1.0, -1.0), (2.0, -2.0)])

    @pytest.mark.parametrize("bad", [("x", -1.0), (1.0, "x"), (0.0, -1.0), (-1.0, -1.0),
                                     (math.inf, -1.0), (1.0, math.nan)])
    def test_bad_samples_are_domain_errors(self, bad):
        good = [(b, correlator_of_beta(CHAIN_ROW, b)) for b in (1e3, 2e3, 4e3, 8e3)]
        with pytest.raises(DomainError):
            fit_canonical_params(good + [bad])
