"""Driven-cavity steady state: semiclassical amplitudes, linearized drift and
diffusion, Routh-Hurwitz stability, Lyapunov covariance, and the stationary
entanglement / effective-occupancy figures of merit.

A point at a prescribed detuning is a record of :func:`detuning_sweep`, a
structured array of columns from one array pass with one stacked Lyapunov
solve over the points that Routh-Hurwitz proves stable.  :func:`stationary_point`
takes a branch of :func:`steady_state` through the same bodies, bit for bit.

Fluctuation basis is (dq, dp, dX, dY): mirror position/momentum followed by
the cavity quadratures, matching the quadrature conventions of
:mod:`qcb.gaussian` so the steady covariance can be fed straight into the CV
log-negativity.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import (DegenerateSystemError, DomainError, StabilityError, at_first,
                         naming_point)
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
    kt = _k_boltzmann * temperature
    if kt <= 0.0:  # T <= 0, or k_B T underflows (T below about 1.8e-301 K)
        return 0.0
    x = _hbar * omega_m / kt
    if x == 0.0:  # hbar omega_m underflows beside k_B T: n_bar = k_B T / hbar omega_m
        return math.inf
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
    photon = _hbar * omega_c  # 0 for a wavelength above about 8e298 m
    drive = math.sqrt(2.0 * power * kappa / photon) if photon else math.inf
    n_bar = thermal_occupancy(omega_m, temperature)
    # The intensity cubic of steady_state has the coefficients (g/omega_m)^4
    # and (E/omega_m)^2, and the Routh-Hurwitz S1 the terms (gamma_m/omega_m)^2
    # and S1 at zero detuning.  Inputs that overflow them, or the rates, would
    # give inf and nan rows or an error that does not name the quantity.
    g2_scaled, e_scaled = (g / omega_m) * (g / omega_m), drive / omega_m
    gamma_m = omega_m / quality
    gm, k = gamma_m / omega_m, kappa / omega_m
    s1_term = gm * k + k * k + 1.0
    for name, value in (("mechanical frequency omega_m", omega_m),
                        ("cavity decay kappa", kappa), ("kappa^2", kappa * kappa),
                        ("coupling g", g), ("drive amplitude E", drive),
                        ("thermal occupancy", n_bar),
                        ("(g/omega_m)^4", g2_scaled * g2_scaled),
                        ("(E/omega_m)^2", e_scaled * e_scaled),
                        ("(gamma_m/omega_m)^2", gm * gm),
                        ("Routh-Hurwitz S1 at zero detuning",
                         2.0 * gm * k * (s1_term * s1_term))):
        if not math.isfinite(value):
            raise DomainError(f"derived {name} is not finite; inputs out of range")
    return StationaryParams(omega_m=omega_m, gamma_m=gamma_m,
                            kappa=kappa, Delta0=0.0, g=g, drive_E=drive,
                            n_bar=n_bar)


def _branch(p: StationaryParams, u: float) -> SteadyState:
    """Working point of intra-cavity intensity u = |alpha_s|^2, with its stability."""
    alpha_s = math.sqrt(u)
    st = SteadyState(alpha_s=alpha_s, q_s=p.g * u / p.omega_m, p_s=0.0,
                     Delta_eff=p.Delta0 - p.g**2 * u / p.omega_m,
                     G=p.g * alpha_s * math.sqrt(2.0), stable=False)
    return replace(st, stable=stability_check(p, st)[0])


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


def drift_and_diffusion(p: StationaryParams, delta, big_g, unit: float = 1.0
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Linearized drift matrix A and Markovian diffusion matrix D at the
    effective detuning ``delta`` and coupling ``big_g`` [rad/s], stacked over
    their broadcast shape, with every rate in units of ``unit``.

    D = diag(0, gamma_m (2 n_bar + 1), kappa, kappa); the optical bath
    occupancy is taken as zero (optical photons at lab temperature).
    """
    w, gm, k = p.omega_m / unit, p.gamma_m / unit, p.kappa / unit
    delta, big_g = np.broadcast_arrays(np.divide(delta, unit), np.divide(big_g, unit))
    a = np.zeros(delta.shape + (4, 4))
    a[..., 0, 1], a[..., 1, 0], a[..., 1, 1] = w, -w, -gm
    a[..., 1, 2] = a[..., 3, 0] = big_g
    a[..., 2, 2] = a[..., 3, 3] = -k
    a[..., 2, 3], a[..., 3, 2] = delta, -delta
    diff = np.diag([0.0, gm * (2.0 * p.n_bar + 1.0), k, k])
    return a, np.broadcast_to(diff, a.shape).copy()


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
    max |A V + V A^T + D|, and whether that exceeds 1e-10 ||D||.

    Two refinement steps follow the direct solve.  Near marginal stability
    that can leave V 1e5 to 1e6 units in the last place off, so the systems
    that fail the check take two more steps on a residual of the linear
    system that :func:`_residual_dot2` gets right to the last bit.  That
    brings V within one unit in the last place of the exact solution.  Their
    check is taken again in double, and the systems it still refuses take it
    once more by :func:`_gate_dot2`: there the terms of A V + V A^T are about
    1e16 times the bound, so their rounding in double alone reaches it.  The
    systems that pass the first check keep their bits.
    """
    i, j, pos = _symmetric_unknowns(a.shape[-1])
    op = _lyapunov_operator(a)
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
        if failed.any():
            residual[failed], failed[failed] = _gate_dot2(a[failed], d[failed], v[failed])
    except np.linalg.LinAlgError as exc:
        raise DegenerateSystemError("Lyapunov system is singular") from exc
    return v, residual, failed


@functools.cache
def _symmetric_unknowns(n: int):
    """(i, j, pos): the unknowns of a symmetric n x n V are its n(n+1)/2
    entries V_ij with i <= j, and V_xy is unknown pos[x, y].  Read-only, as
    every caller shares them."""
    i, j = np.triu_indices(n)
    pos = np.empty((n, n), dtype=int)
    pos[i, j] = pos[j, i] = np.arange(i.size)
    for index in (i, j, pos):
        index.flags.writeable = False
    return i, j, pos


def _lyapunov_operator(a: np.ndarray) -> np.ndarray:
    """The vectorized operator of V -> A V + V A^T for each A of the stack,
    from (A V + V A^T)_ij = sum_k A_ik V_kj + A_jk V_ik: in equation (i, j),
    A_ik multiplies unknown (k, j) and A_jk unknown (i, k).  An entry's
    first term is written into zeros and a second (another A_xy, or the same
    one again where i = j) added with one ``+``, one term at a time over the
    stack.  No absent term is read, so an entry without terms stays +0, and
    a term of -0.0 keeps its sign."""
    n = a.shape[-1]
    i, j, pos = _symmetric_unknowns(n)
    op = np.zeros(a.shape[:-2] + (i.size,) * 2)
    for r, (x, y) in enumerate(zip(i.tolist(), j.tolist())):
        written = set()
        for k in range(n):
            for c, term in ((pos[k, y], a[..., x, k]), (pos[x, k], a[..., y, k])):
                if c in written:
                    op[..., r, c] += term
                else:
                    op[..., r, c] = term
                    written.add(c)
    return op


def _gate(a: np.ndarray, d: np.ndarray, v: np.ndarray):
    """(residual, failed): max |A V + V A^T + D| of each system, evaluated
    in double, and whether it exceeds 1e-10 ||D||."""
    return _over_bound(a @ v + v @ np.swapaxes(a, -1, -2) + d, d)


def _gate_dot2(a: np.ndarray, d: np.ndarray, v: np.ndarray):
    """:func:`_gate` with each entry of A V + V A^T + D summed by
    :func:`_dot2` over its 2n + 1 terms, D_ij, A_ik V_kj and V_ik A_jk, each
    product exact: as accurate as if summed in twice the working precision
    and rounded once.  (The vectorized operator of :func:`_lyapunov_operator`
    would round the coefficient a_ii + a_jj first.)"""
    n = a.shape[-1]
    shape = a.shape[:-2] + (n, n, n)  # (..., i, j, k)
    left = np.concatenate((np.broadcast_to(a[..., :, None, :], shape),
                           np.broadcast_to(v[..., :, None, :], shape)), axis=-1)
    right = np.concatenate((np.broadcast_to(np.swapaxes(v, -1, -2)[..., None, :, :], shape),
                            np.broadcast_to(a[..., None, :, :], shape)), axis=-1)
    return _over_bound(_dot2(d, left, right), d)


def _over_bound(r: np.ndarray, d: np.ndarray):
    """(max |R|, whether it exceeds 1e-10 ||D||) of each system's residual R."""
    residual = np.max(np.abs(r), axis=(-2, -1))
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
    """rhs - op @ sol for stacks of (m, m) systems by :func:`_dot2`."""
    return _dot2(rhs[..., 0], -op, np.swapaxes(sol, -1, -2))[..., None]


def _dot2(total: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """total + sum_k x[..., k] y[..., k], as accurate as if summed in twice
    the working precision and rounded once: Dot2 of Ogita, Rump and Oishi,
    SIAM J. Sci. Comput. 26, 1955 (2005)."""
    terms, errors = _two_product(x, y)
    carry = 0.0
    for k in range(terms.shape[-1]):
        total, e = _two_sum(total, terms[..., k])
        carry = carry + (e + errors[..., k])
    return total + carry


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
    v = _solve_lyapunov(*drift_and_diffusion(p, delta, big_g, p.omega_m))
    return v, logneg_gaussian(v), 0.5 * (v[..., 0, 0] + v[..., 1, 1]) - 0.5


def stationary_point(p: StationaryParams, s: SteadyState) -> StationaryResult:
    """Covariance, log-negativity and effective mirror occupancy at a stable
    branch (the one-point reference that :func:`detuning_sweep` matches)."""
    stable, s1, s2 = stability_check(p, s)
    if not stable:
        raise StabilityError("drift matrix is not strictly stable (Routh-Hurwitz)")
    v, en, n_eff = _covariance(p, s.Delta_eff, s.G)
    return StationaryResult(E_N=en, n_eff=float(n_eff), cov=v, steady=s, S1=s1, S2=s2)


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
        alpha_s = p.drive_E / np.sqrt(p.kappa**2 + np.square(delta))
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
        with naming_point(lambda i: f"Delta/omega_m = {xs[stable][i]:.12g}"):
            cov[stable], en[stable], n_eff[stable] = _covariance(
                p, delta[stable], big_g[stable])
    return np.rec.fromarrays((xs, alpha_s, big_g, s1, s2, stable.astype(int), en, n_eff,
                              *cov.reshape(-1, 16).T), names=SWEEP_COLUMNS)
