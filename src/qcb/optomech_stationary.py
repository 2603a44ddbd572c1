"""Driven-cavity steady state: semiclassical amplitudes, linearized drift and
diffusion, Routh-Hurwitz stability, Lyapunov covariance, and the stationary
entanglement / effective-occupancy figures of merit.

A detuning sweep is one array pass, a structured array of columns, with one
stacked Lyapunov solve over the points that Routh-Hurwitz proves stable; the
one-point functions share its drift-matrix, Routh-Hurwitz and covariance
bodies, so a sweep record and :func:`stationary_point` agree bit for bit.

Fluctuation basis is (dq, dp, dX, dY): mirror position/momentum followed by
the cavity quadratures, matching the quadrature conventions of
:mod:`qcb.gaussian` so the steady covariance can be fed straight into the CV
log-negativity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import (DegenerateSystemError, DomainError, QcbError, StabilityError,
                         at_first)
from .gaussian import logneg_gaussian

# The exact SI values (c, k and h are defined constants since 2019); each
# float equals its scipy.constants counterpart.
_c_light = 299792458.0                    # speed of light [m/s]
_k_boltzmann = 1.380649e-23               # Boltzmann constant [J/K]
_hbar = 6.62607015e-34 / (2 * math.pi)    # reduced Planck constant [J s]


@dataclass(frozen=True)
class StationaryParams:
    """Rates in rad/s: mirror frequency/damping, cavity decay, bare detuning,
    single-photon coupling g, drive amplitude E, mirror thermal occupancy."""

    omega_m: float
    gamma_m: float
    kappa: float
    Delta0: float
    g: float
    drive_E: float
    n_bar: float

    def __post_init__(self):
        for name in ("omega_m", "gamma_m", "kappa"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be > 0")
        if self.n_bar < 0:
            raise DomainError("n_bar must be >= 0")


@dataclass(frozen=True)
class SteadyState:
    """Semiclassical working point; alpha_s phase-fixed real and >= 0."""

    alpha_s: float
    q_s: float
    p_s: float
    Delta_eff: float
    G: float
    stable: bool


def thermal_occupancy(omega_m: float, temperature: float) -> float:
    if temperature <= 0.0:
        return 0.0
    x = _hbar * omega_m / (_k_boltzmann * temperature)
    return 0.0 if x > 700.0 else 1.0 / math.expm1(x)


def derive_physical_params(length: float, mass: float, power: float,
                           quality: float, temperature: float, wavelength: float,
                           finesse: float, kappa: float | None = None,
                           omega_m: float = 2 * math.pi * 1e7) -> StationaryParams:
    """Build :class:`StationaryParams` from laboratory quantities in SI units
    (length, mass, power, temperature, wavelength; omega_m and kappa in rad/s).

    omega_c = 2 pi c / wavelength, and the bare detuning Delta0 is 0 (a
    sweep prescribes the effective detuning instead).  g = (omega_c/L)
    sqrt(hbar/(m omega_m)); |E| = sqrt(2 P kappa / hbar omega_c); kappa
    defaults to the cavity linewidth pi c/(L F); the finesse-to-kappa
    convention is ambiguous in the literature, so kappa can be pinned
    directly via ``kappa``.  The default reproduces the reference working
    point (amplitude decay 8.8e7 s^-1 for L = 1 mm, F = 1.07e4, and
    n_eff ~ 0.75 at Delta = 2 omega_m).
    """
    if min(length, mass, power, quality) <= 0:
        raise DomainError("physical inputs must be positive")
    omega_c = 2.0 * math.pi * _c_light / wavelength
    if kappa is None:
        kappa = math.pi * _c_light / (length * finesse)
    free_spectral_range = math.pi * _c_light / length
    if omega_m / free_spectral_range > 0.01:
        warnings.warn("adiabatic condition omega_m << pi c / L is marginal",
                      stacklevel=2)
    g = (omega_c / length) * math.sqrt(_hbar / (mass * omega_m))
    drive = math.sqrt(2.0 * power * kappa / (_hbar * omega_c))
    n_bar = thermal_occupancy(omega_m, temperature)
    # The intensity cubic of steady_state has the coefficients (g/omega_m)^4
    # and (E/omega_m)^2.  Inputs that overflow them, or the rates themselves,
    # would give inf and nan rows instead of an error.
    g2_scaled, e_scaled = (g / omega_m) * (g / omega_m), drive / omega_m
    for name, value in (("cavity decay kappa", kappa), ("coupling g", g),
                        ("drive amplitude E", drive), ("thermal occupancy", n_bar),
                        ("(g/omega_m)^4", g2_scaled * g2_scaled),
                        ("(E/omega_m)^2", e_scaled * e_scaled)):
        if not math.isfinite(value):
            raise DomainError(f"derived {name} is not finite; inputs out of range")
    return StationaryParams(omega_m=omega_m, gamma_m=omega_m / quality,
                            kappa=kappa, Delta0=0.0, g=g, drive_E=drive,
                            n_bar=n_bar)


def _working_point(p: StationaryParams, alpha_s: float, q_s: float,
                   delta: float) -> SteadyState:
    """Working point at |alpha_s| and Delta_eff = delta, with its stability."""
    st = SteadyState(alpha_s=alpha_s, q_s=q_s, p_s=0.0, Delta_eff=delta,
                     G=p.g * alpha_s * math.sqrt(2.0), stable=False)
    return replace(st, stable=stability_check(p, st)[0])


def _branch(p: StationaryParams, u: float) -> SteadyState:
    return _working_point(p, math.sqrt(u), p.g * u / p.omega_m,
                          p.Delta0 - p.g**2 * u / p.omega_m)


def steady_state(p: StationaryParams) -> list[SteadyState]:
    """All steady-state branches of the intra-cavity intensity cubic.

    Solves u [kappa^2 + (Delta0 - g^2 u / omega_m)^2] = E^2 for u = |alpha_s|^2
    and reports every real positive root in ascending order (three in the
    bistable regime).  The cubic is solved on omega_m-normalized variables and
    each root is polished with one Newton step.
    """
    if p.drive_E == 0.0:
        return [_branch(p, 0.0)]
    # normalize rates by omega_m to condition the cubic
    k, d0, g2 = p.kappa / p.omega_m, p.Delta0 / p.omega_m, (p.g / p.omega_m) ** 2
    e2 = (p.drive_E / p.omega_m) ** 2
    if p.g == 0.0:
        roots = [e2 / (k**2 + d0**2)]
    else:
        coeffs = [g2**2, -2.0 * d0 * g2, k**2 + d0**2, -e2]
        rts = np.roots(coeffs)
        roots = sorted(r.real for r in rts
                       if abs(r.imag) <= 1e-9 * max(1.0, abs(r)) and r.real > 0.0)
        if not roots:
            raise DegenerateSystemError("no positive steady-state root found")

        def f(u):
            return u * (k**2 + (d0 - g2 * u) ** 2) - e2

        def fp(u):
            return k**2 + (d0 - g2 * u) ** 2 - 2.0 * g2 * u * (d0 - g2 * u)

        polished = []
        for u in roots:
            df = fp(u)
            if df != 0.0:
                step = f(u) / df
                if abs(step) < 0.5 * abs(u):  # damped: keep within the basin
                    u = u - step
            polished.append(u)
        roots = polished
    return [_branch(p, float(u)) for u in roots]


def _amplitude(p: StationaryParams, delta):
    return p.drive_E / np.sqrt(p.kappa**2 + np.square(delta))


def steady_state_at_detuning(p: StationaryParams, delta: float) -> SteadyState:
    """Working point at a prescribed effective detuning (figure sweeps).

    With Delta given, the intra-cavity amplitude is simply
    |alpha_s| = E / sqrt(kappa^2 + Delta^2); the cubic self-consistency is
    bypassed because Delta already includes the static spring shift.
    """
    alpha_s = float(_amplitude(p, delta))
    return _working_point(p, alpha_s, p.g * alpha_s**2 / p.omega_m, delta)


def _drift_diffusion(p: StationaryParams, delta, big_g, unit: float = 1.0):
    """Drift and diffusion matrices A and D, stacked over the shape of
    ``delta`` and ``big_g`` [rad/s], with every rate in units of ``unit``."""
    w, gm, k = p.omega_m / unit, p.gamma_m / unit, p.kappa / unit
    delta, big_g = np.broadcast_arrays(np.divide(delta, unit), np.divide(big_g, unit))
    a = np.zeros(delta.shape + (4, 4))
    a[..., 0, 1], a[..., 1, 0], a[..., 1, 1] = w, -w, -gm
    a[..., 1, 2] = a[..., 3, 0] = big_g
    a[..., 2, 2] = a[..., 3, 3] = -k
    a[..., 2, 3], a[..., 3, 2] = delta, -delta
    diff = np.diag([0.0, gm * (2.0 * p.n_bar + 1.0), k, k])
    return a, np.broadcast_to(diff, a.shape).copy()


def drift_and_diffusion(p: StationaryParams, s: SteadyState
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Linearized drift matrix A and Markovian diffusion matrix D.

    D = diag(0, gamma_m (2 n_bar + 1), kappa, kappa); the optical bath
    occupancy is taken as zero (optical photons at lab temperature).
    """
    return _drift_diffusion(p, s.Delta_eff, s.G)


def _routh_hurwitz(p: StationaryParams, delta: np.ndarray, big_g: np.ndarray):
    """(stable, S1, S2) on omega_m-normalized rates over 1-d arrays of
    Delta_eff and G [rad/s].  One point goes in as a length-1 array, so that
    its powers round exactly as in a sweep."""
    w = p.omega_m
    gm, k = p.gamma_m / w, p.kappa / w
    d, big_g = delta / w, big_g / w
    s1 = 2.0 * gm * k * (d**4 + d**2 * (gm**2 + 2.0 * gm * k + 2.0 * k**2 - 2.0)
                         + (gm * k + k**2 + 1.0) ** 2) \
        + big_g**2 * d * (gm + 2.0 * k) ** 2
    s2 = d**2 + k**2 - big_g**2 * d
    return (s1 > 0.0) & (s2 > 0.0), s1, s2


def stability_check(p: StationaryParams, s: SteadyState
                    ) -> tuple[bool, float, float]:
    """Routh-Hurwitz conditions (S1 > 0 and S2 > 0) for the drift matrix.

    Evaluated on omega_m-normalized rates; agrees with max Re eig(A) < 0.
    """
    ok, s1, s2 = _routh_hurwitz(p, np.array([s.Delta_eff]), np.array([s.G]))
    return bool(ok[0]), float(s1[0]), float(s2[0])


def lyapunov_solve(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Steady covariance V from A V + V A^T = -D, for one system or a stack.

    ``a`` and ``d`` are (..., n, n) arrays of one shape; every A must be
    strictly stable.  The symmetric unknown is vectorized into its n(n+1)/2
    independent entries and solved directly with two refinement steps, and
    each residual is checked against 1e-10 ||D|| of its own system.  The
    error of a failed check carries ``index``, the flat position of the
    first failing system.
    """
    a = np.asarray(a, dtype=float)
    d = np.asarray(d, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or d.shape != a.shape:
        raise DomainError("A and D must be square matrices of equal size")
    unstable = np.max(np.linalg.eigvals(a).real, axis=-1) >= 0.0
    if unstable.any():
        raise at_first(StabilityError("drift matrix is not strictly stable"), unstable)
    return _solve_lyapunov(a, d)


def _solve_lyapunov(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """:func:`lyapunov_solve` past its checks, for stacks of known-stable A."""
    v, residual, failed = _refined_solution(a, d)
    if failed.any():
        raise at_first(DegenerateSystemError(
            f"Lyapunov residual {residual[failed].flat[0]:.2e} exceeds 1e-10 * ||D||"),
            failed)
    return v


def _refined_solution(a: np.ndarray, d: np.ndarray):
    """(V, residual, failed) of each system: the solution, its residual
    max |A V + V A^T + D| in double, and whether that exceeds 1e-10 ||D||.

    Two refinement steps follow the direct solve.  Near marginal stability
    that can leave V 1e5 to 1e6 units in the last place off, so the systems
    that fail the check take two more steps on a residual of the linear
    system that :func:`_residual_dot2` gets right to the last bit.  That
    brings V within one unit in the last place of the exact solution; the
    systems that pass keep their bits.
    """
    n = a.shape[-1]
    # (A V + V A^T)_ij = sum_k A_ik V_kj + A_jk V_ik: tally[r, c, x, y] counts
    # how often A_xy multiplies unknown c in equation r (at most twice).
    i, j = np.triu_indices(n)
    pos = np.empty((n, n), dtype=int)
    pos[i, j] = pos[j, i] = np.arange(i.size)
    r, k = np.arange(i.size)[:, None], np.arange(n)
    tally = np.zeros((i.size, i.size, n, n))
    np.add.at(tally, (r, pos[k, j[:, None]], i[:, None], k), 1.0)
    np.add.at(tally, (r, pos[i[:, None], k], j[:, None], k), 1.0)
    op = np.einsum("rcxy,...xy->...rc", tally, a)
    rhs = -d[..., i, j, None]
    try:
        sol = np.linalg.solve(op, rhs)
        for _ in range(2):  # iterative refinement for stiff rate ratios
            sol += np.linalg.solve(op, rhs - op @ sol)
        v = sol[..., pos, 0]
        residual, failed = _gate(a, d, v)
        if failed.any():
            op_f, rhs_f, sol_f = op[failed], rhs[failed], sol[failed]
            for _ in range(2):
                sol_f += np.linalg.solve(op_f, _residual_dot2(op_f, sol_f, rhs_f))
            v[failed] = sol_f[..., pos, 0]
            residual[failed], failed[failed] = _gate(a[failed], d[failed], v[failed])
    except np.linalg.LinAlgError as exc:
        raise DegenerateSystemError("Lyapunov system is singular") from exc
    return v, residual, failed


def _gate(a: np.ndarray, d: np.ndarray, v: np.ndarray):
    """(residual, failed): max |A V + V A^T + D| of each system, evaluated
    in double, and whether it exceeds 1e-10 ||D||."""
    residual = np.max(np.abs(a @ v + v @ np.swapaxes(a, -1, -2) + d), axis=(-2, -1))
    scale = np.maximum(np.max(np.abs(d), axis=(-2, -1)), 1e-300)
    # arrays, 0-d for one system, so that the refined entries can be set
    return np.asarray(residual), np.asarray(residual > 1e-10 * scale)


def _two_sum(a, b):
    """(a + b, its rounding error), exactly (Knuth's TwoSum)."""
    x = a + b
    z = x - a
    return x, (a - (x - z)) + (b - z)


def _two_product(a, b):
    """(a * b, its rounding error), exactly (Dekker's TwoProduct, no FMA)."""
    x = a * b
    (a_hi, a_lo), (b_hi, b_lo) = _split(a), _split(b)
    return x, a_lo * b_lo - (((x - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _split(a):
    """Veltkamp's split of ``a`` into two halves of 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _residual_dot2(op: np.ndarray, sol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """rhs - op @ sol for stacks of (m, m) systems, as accurate as if summed
    in twice the working precision and rounded once: Dot2 of Ogita, Rump
    and Oishi, SIAM J. Sci. Comput. 26, 1955 (2005)."""
    terms, errors = _two_product(-op, np.swapaxes(sol, -1, -2))
    total, carry = rhs[..., 0], np.zeros(rhs.shape[:-1])
    for j in range(op.shape[-1]):
        total, e = _two_sum(total, terms[..., j])
        carry += e + errors[..., j]
    return (total + carry)[..., None]


@dataclass(frozen=True)
class StationaryResult:
    E_N: float
    n_eff: float
    cov: np.ndarray
    steady: SteadyState
    S1: float
    S2: float


def _covariance(p: StationaryParams, delta, big_g):
    """(V, E_N, n_eff) over the shape of ``delta`` and ``big_g`` [rad/s]:
    the steady covariance on omega_m-normalized rates, its log-negativity and
    the effective mirror occupancy (V11 + V22)/2 - 1/2, at Routh-Hurwitz
    stable points only."""
    v = _solve_lyapunov(*_drift_diffusion(p, delta, big_g, p.omega_m))
    return v, logneg_gaussian(v), 0.5 * (v[..., 0, 0] + v[..., 1, 1]) - 0.5


def stationary_point(p: StationaryParams, s: SteadyState) -> StationaryResult:
    """Covariance, log-negativity and effective mirror occupancy at a stable
    branch (the one-point reference that :func:`detuning_sweep` matches)."""
    stable, s1, s2 = stability_check(p, s)
    if not stable:
        raise StabilityError("drift matrix is not strictly stable (Routh-Hurwitz)")
    v, en, n_eff = _covariance(p, s.Delta_eff, s.G)
    return StationaryResult(E_N=en, n_eff=float(n_eff), cov=v, steady=s, S1=s1, S2=s2)


def steady_entanglement(p: StationaryParams) -> tuple[float, float, np.ndarray]:
    """(E_N, n_eff, V) on the low-power-connected stable branch."""
    branches = [b for b in steady_state(p) if b.stable]
    if not branches:
        raise StabilityError("no stable steady-state branch")
    res = stationary_point(p, branches[0])
    return res.E_N, res.n_eff, res.cov


SWEEP_COLUMNS = ("Delta_over_wm", "alpha_s", "G", "S1", "S2", "stable", "EN",
                 "n_eff") + tuple(f"V{i}{j}" for i in range(1, 5) for j in range(1, 5))


def detuning_sweep(p: StationaryParams, deltas_over_wm) -> np.ndarray:
    """The CLI sweep as a record array, one record per detuning with the
    fields :data:`SWEEP_COLUMNS` (``stable`` an int, the rest floats, NaN
    where unstable; V is the 4 x 4 covariance): ``sweep["EN"]`` is a column
    and ``sweep[i]["EN"]`` a cell.  Each stable record has the bits of
    :func:`stationary_point`; a failed residual check names the Delta/omega_m
    of the first failing point.
    """
    xs = np.atleast_1d(np.asarray(deltas_over_wm, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        delta = xs * p.omega_m
        alpha_s = _amplitude(p, delta)
        big_g = p.g * alpha_s * math.sqrt(2.0)
        stable, s1, s2 = _routh_hurwitz(p, delta, big_g)
    overflow = ~np.isfinite([alpha_s, big_g, s1, s2]).all(axis=0)
    if overflow.any():
        raise DomainError("detuning too large: the sweep overflows at "
                          f"Delta/omega_m = {xs[overflow][0]:.12g}")
    cov = np.full((xs.size, 4, 4), np.nan)
    en = np.full(xs.size, np.nan)
    n_eff = np.full(xs.size, np.nan)
    if stable.any():
        try:
            cov[stable], en[stable], n_eff[stable] = _covariance(
                p, delta[stable], big_g[stable])
        except QcbError as exc:
            if not hasattr(exc, "index"):
                raise
            raise type(exc)(
                f"{exc} at Delta/omega_m = {xs[stable][exc.index]:.12g}") from exc
    return np.rec.fromarrays((xs, alpha_s, big_g, s1, s2, stable.astype(int), en, n_eff,
                              *cov.reshape(-1, 16).T), names=SWEEP_COLUMNS)
