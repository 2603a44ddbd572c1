"""Spin-bus long-distance entanglement: bus susceptibilities and the
three-parameter canonical model of the probe pair at all temperatures.

Probe operators are Pauli matrices (correlator <tau_a . tau_b> in [-3, 1]);
bath spins are spin-1/2.  Ring susceptibilities are quoted in units of the
non-universal bosonization amplitude over the Fermi velocity (both set to 1),
and the ring formula is asymptotic in the probe separation.  The AKLT
susceptibility is the closed form of the single-mode approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, FitError, QcbError

AKLT_GAP = 10.0 / 27.0           # single-mode-approximation gap at q = pi
AKLT_XI = 1.0 / math.log(3.0)    # correlation length


@dataclass(frozen=True)
class RingGeometry:
    """Heisenberg ring of an even number L of sites with probes attached r
    sites apart.  The staggered sign (-1)^r of the ring response exists only
    on an even ring, where r and L - r have one parity."""

    L: int
    r: int

    def __post_init__(self):
        if not 0 < self.r < self.L:
            raise DomainError("need 0 < r < L")
        _check_double("ring size L", self.L)
        if self.L % 2:
            raise DomainError(f"ring of L = {self.L} sites: the staggered sign "
                              "(-1)^r needs an even L")

    @property
    def x(self) -> float:
        """2 pi r / L along the shorter arc, in (0, pi], taken from the
        integers so that r and L - r give one float."""
        return 2.0 * math.pi * min(self.r, self.L - self.r) / self.L


@dataclass(frozen=True)
class CanonicalParams:
    """(gap, delocalization rate, correlator offset) of the probe pair.

    The zero-temperature correlator is -3 + eta + 3 Phi, which bounds
    0 <= eta + 3 Phi <= 4.
    """

    J_can: float
    Phi: float
    eta: float

    def __post_init__(self):
        s = self.eta + 3.0 * self.Phi
        if not -1e-9 <= s <= 4.0 + 1e-9:
            raise DomainError(f"eta + 3 Phi = {s} outside [0, 4]")


def chi_ring(geom: RingGeometry) -> float:
    """Zero-frequency probe-probe response of the Heisenberg ring.

    C * integral_x^pi (tau/pi - 1)/sqrt(cos x - cos tau) dtau with
    C = (-1)^r / sqrt(2) and x = :attr:`RingGeometry.x`; positive (favoring
    a probe singlet) for odd separations, and 0 on the half ring.
    """
    x = geom.x
    if math.pi - x < 1e-15:
        return 0.0
    val, err = _ring_integral(x)
    if err > 1e-8 * max(1.0, abs(val)):
        raise QcbError(f"ring susceptibility quadrature error estimate {err:.2e}")
    sign = -1.0 if geom.r % 2 else 1.0
    return sign / math.sqrt(2.0) * val


def _ring_integral(x: float) -> tuple[float, float]:
    """integral_x^pi (tau/pi - 1)/sqrt(cos x - cos tau) dtau with error
    estimate, for 0 < x < pi.

    One adaptive quadrature under tau = x cosh v, v in [0, acosh(pi/x)]:
    dtau = x sinh v dv cancels the inverse-square-root endpoint singularity,
    and the logarithmic scale tau - x ~ x of small x is spread evenly in v.
    cos x - cos tau = 2 sin((tau+x)/2) sin((tau-x)/2), each factor under its
    own square root, so that the product cannot underflow at tiny x and
    tau - x = 2 x sinh^2(v/2) suffers no cancellation.
    """
    from scipy.integrate import quad

    def f(v: float) -> float:
        if v == 0.0:
            return (x / math.pi - 1.0) * math.sqrt(2.0 * x / math.sin(x))
        diff = 2.0 * x * math.sinh(0.5 * v) ** 2  # x (cosh v - 1), stably
        gap_root = math.sqrt(2.0 * math.sin(x + 0.5 * diff)) * math.sqrt(math.sin(0.5 * diff))
        return ((x + diff) / math.pi - 1.0) * x * math.sinh(v) / gap_root

    return quad(f, 0.0, math.acosh(math.pi / x), epsabs=1e-11, epsrel=1e-11, limit=300)[:2]


def _check_double(name: str, n: int) -> None:
    """Refuse an integer ``n`` >= 1 that does not convert to a double."""
    try:
        float(n)
    except OverflowError:
        raise DomainError(f"{name} = 10^{math.log10(n):.6g} does not convert to a double"
                          ) from None


def chi_aklt(r: int) -> float:
    """Probe-probe response of the biquadratic spin-1 chain at separation r,
    in closed form: (1/gap) (-1)^(r+1) (1 + 4r/3) exp(-r/xi).

    A |chi| below the smallest normal double (from r = 652) is a
    DomainError naming log10|chi|: a subnormal keeps fewer than 12 digits.
    """
    if r < 1:
        raise DomainError("separation r must be >= 1")
    _check_double("separation r", r)
    chi = (1.0 / AKLT_GAP) * (-1.0) ** (r + 1) * (1.0 + 4.0 * r / 3.0) \
        * math.exp(-r / AKLT_XI)
    if abs(chi) < np.finfo(float).tiny:
        log10_chi = math.log10((1.0 + 4.0 * r / 3.0) / AKLT_GAP) - r / AKLT_XI / math.log(10.0)
        raise DomainError(f"AKLT chi underflows: log10|chi| = {log10_chi:.6g} at r = {r}")
    return chi


def canonical_correlator(j_can: float, beta: float) -> float:
    """<tau_a . tau_b> of the canonical Gibbs pair with gap J_can."""
    x = beta * j_can
    if x >= 0:
        u = math.exp(-x)
        return (u - 1.0) / (u + 1.0 / 3.0)
    v = math.exp(x)  # divide through by e^(-x) to stay finite
    return (1.0 - v) / (1.0 + v / 3.0)


def correlator_of_beta(cp: CanonicalParams, beta: float) -> float:
    """Temperature-dependent probe correlator eta + (1 - Phi) <tau.tau>_can."""
    return cp.eta + (1.0 - cp.Phi) * canonical_correlator(cp.J_can, beta)


def jab_of_beta(cp: CanonicalParams, beta: float) -> float:
    """Actual effective coupling J_ab(beta) of the canonical three-parameter model.

    J_ab(beta) = (1/4 beta) ln[(3(Phi - eta) + (4 - 3 Phi - eta) e^(b J)) /
    (4 - Phi + eta + (Phi + eta/3) e^(b J))]; consistent with the correlator
    through the Gibbs relation <tau.tau> = (e^(-4 b J_ab) - 1)/(e^(-4 b J_ab) + 1/3).
    """
    if beta <= 0:
        raise DomainError("beta must be > 0")
    bj = beta * cp.J_can
    a_num, b_num = 3.0 * (cp.Phi - cp.eta), 4.0 - 3.0 * cp.Phi - cp.eta
    a_den, b_den = 4.0 - cp.Phi + cp.eta, cp.Phi + cp.eta / 3.0

    def log_lin_exp(a: float, b: float) -> tuple[int, float]:
        # (c, rest) with log(a + b e^bj) = c bj + rest: c = 1 where bj > 50
        # (b >= 0 there by the constraint), so that no c bj is formed; b = 0
        # never forms e^bj, which overflows beyond bj = 709
        if b == 0.0:
            arg = a
        elif bj > 50.0:
            if b < 0.0:
                raise DomainError("canonical parameterization leaves log argument <= 0")
            return 1, math.log(b + a * math.exp(-bj))
        else:
            arg = a + b * math.exp(bj)
        if arg <= 0.0:
            raise DomainError("canonical parameterization leaves log argument <= 0")
        return 0, math.log(arg)

    # the bj terms of numerator and denominator cancel: what is left of
    # them is 0 or +-bj, that is +-J_can/4 in J_ab
    (c_num, rest_num), (c_den, rest_den) = log_lin_exp(a_num, b_num), log_lin_exp(a_den, b_den)
    j_ab = (rest_num - rest_den) / (4.0 * beta)
    return j_ab if c_num == c_den else j_ab + (c_num - c_den) * cp.J_can / 4.0


def correlator_from_jab(j_ab: float, beta: float) -> float:
    """Gibbs correlator of a probe pair with coupling J_ab at inverse temperature beta."""
    return canonical_correlator(4.0 * j_ab, beta)


@dataclass(frozen=True)
class CriticalTemperature:
    """Exact separability temperature and the closed high-T estimate."""

    kT_exact: float | None
    kT_estimate: float
    never_entangled: bool


def separability_beta(f, lo: float, hi: float) -> float:
    """Zero of ``f`` (probe correlator + 1 against beta) between ``lo``
    (f > 0) and ``hi`` (f <= 0), by bisection of log beta.

    At most 120 steps, which close any bracket to adjacent floats.  The loop
    stops once the midpoint rounds to an endpoint: ``f`` is deterministic
    and the caller has checked f(lo) > 0 >= f(hi), so every later step would
    set that endpoint to itself and return the same float.
    """
    for _ in range(120):
        mid = math.sqrt(lo * hi)
        if mid == lo or mid == hi:
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def critical_temperature(cp: CanonicalParams) -> CriticalTemperature:
    """Temperature at which the probe concurrence vanishes, and the
    saturation estimate 0.93 J_can (1 - Phi) for comparison.

    :func:`separability_beta` finds the zero of f(x) = correlator + 1 in
    x = beta J_can on [1e-300, 1e6], where exp(-x) rounds to 1 and to 0, so
    f there equals its limits f(0) and f(inf).  f(inf) >= 0 means the pair is
    never entangled; f(0) <= 0 (never separable) is refused.
    """
    if cp.J_can <= 0:
        raise DomainError("critical temperature defined for J_can > 0")
    estimate = 0.93 * cp.J_can * (1.0 - cp.Phi)
    unit = CanonicalParams(1.0, cp.Phi, cp.eta)  # beta in units of 1/J_can

    def f(x: float) -> float:
        return correlator_of_beta(unit, x) + 1.0

    lo, hi = 1e-300, 1e6
    if f(hi) >= 0.0:
        return CriticalTemperature(None, estimate, True)
    if f(lo) <= 0.0:
        raise DomainError(f"eta = {cp.eta} <= -1: the pair is entangled at every "
                          "temperature")
    return CriticalTemperature(cp.J_can / separability_beta(f, lo, hi), estimate, False)


@dataclass(frozen=True)
class FitResult:
    params: CanonicalParams
    rms_residual: float
    n_evaluations: int


def fit_canonical_params(samples, kind: str = "correlator") -> FitResult:
    """Least-squares fit of (J_can, Phi, eta) to (beta, value) samples.

    ``kind`` selects whether values are probe correlators or effective
    couplings J_ab (mapped to correlators before fitting).  The constraint
    0 <= eta + 3 Phi <= 4 is enforced through the box-bounded
    parameterization (J_can, s = eta + 3 Phi, Phi); initialization uses the
    high-temperature saturation of J_ab and the low-temperature plateau of
    beta J_ab.  Samples must be finite numbers with beta > 0; others raise
    DomainError.
    """
    from scipy.optimize import least_squares

    try:
        pts = [(float(b), float(v)) for b, v in samples]
    except (TypeError, ValueError) as exc:
        raise DomainError(f"fit samples must be numbers: {exc}") from exc
    if not all(math.isfinite(v) and 0.0 < b < math.inf for b, v in pts):
        raise DomainError("fit samples need finite values and 0 < beta < inf")
    if len(pts) < 4:
        raise FitError("need at least 4 temperature points")
    betas = np.array([b for b, _ in pts])
    if kind == "correlator":
        corrs = np.array([v for _, v in pts])
    elif kind == "jab":
        corrs = np.array([correlator_from_jab(v, b) for b, v in pts])
    else:
        raise DomainError(f"unknown sample kind {kind!r}")
    order = np.argsort(betas)
    betas, corrs = betas[order], corrs[order]

    # initial guesses from the two ends of the temperature range
    j_ab = np.array([-0.25 / b * math.log(max((1.0 + c) / max(1.0 - c / 3.0, 1e-12), 1e-300))
                     for b, c in zip(betas, corrs)])
    j_sat = max(j_ab[0], 1e-12)                     # high T (smallest beta)
    bj_plateau = max(betas[-1] * j_ab[-1], 1e-6)    # low T (largest beta)
    phi0 = min(max(4.0 / (3.0 + math.exp(4.0 * bj_plateau)), 1e-9), 1.2)
    j0 = 4.0 * j_sat / max(1.0 - phi0, 1e-6)

    def unpack(p):
        j_can, s, phi = p
        return CanonicalParams(j_can, phi, s - 3.0 * phi)

    def residuals(p):
        cp = unpack(p)
        return np.array([correlator_of_beta(cp, b) for b in betas]) - corrs

    x0 = np.array([j0, 3.0 * phi0, phi0])
    lower = np.array([1e-300, 0.0, 0.0])
    upper = np.array([np.inf, 4.0, 4.0 / 3.0])
    x0 = np.clip(x0, lower + 1e-12, np.where(np.isfinite(upper), upper - 1e-12, x0))
    res = least_squares(residuals, x0, bounds=(lower, upper), xtol=1e-15,
                        ftol=1e-15, gtol=1e-15, max_nfev=2000)
    if not res.success and np.sqrt(np.mean(res.fun**2)) > 1e-6:
        raise FitError(f"canonical fit did not converge: {res.message}")
    rms = float(np.sqrt(np.mean(res.fun**2)))
    return FitResult(unpack(res.x), rms, int(res.nfev))
