"""Exact unitary cavity-mirror model: density-matrix elements, subspace
projection, entanglement markers and closed-form linear entropies.

The cavity mode (Fock index n, m) couples to a mirror mode (Fock index mu, nu)
through radiation pressure, H = b'b - k a'a (b + b'), in units of the mirror
frequency and in the frame rotating at the cavity frequency (whose phases
exp(-i (n - m) w_c t) cancel in every reported quantity).  Starting from
|alpha><alpha| (x) thermal(n_bar), the evolved matrix elements have an exact
closed form: writing eta(t) = 1 - exp(-i t), x = n_bar/(n_bar+1),

    rho_{mu nu n m}(t) = Theta_nm e^{-i(phi_n - phi_m)} / ((n_bar+1) sqrt(mu! nu!))
                         * exp[k^2|eta|^2 (x n m - (n^2+m^2)/2)]
                         * [d^mu/da^mu d^nu/db^nu exp(x a b + a P + b Q)]_(a=b=0)

with P = k eta(t) (n - x m), Q = k eta(-t) (m - x n), Theta the coherent-state
weights and phi_n = -k^2 n^2 (t - sin t).  The derivative is the
finite Leibniz sum over j = 0..min(mu, nu) of

    x^j P^(mu-j) Q^(nu-j) mu! nu! / (j! (mu-j)! (nu-j)!),

never a numeric derivative.  A whole Fock block is one array pass over the
terms (n, m, mu, nu, j), summed in log magnitude with a per-element max
shift, with each phase factor evaluated once per (n, m, mu - j, nu - j);
:func:`rho_element` is the one-element call of the same kernel.  This
form matches brute-force expm evolution to machine precision at any
temperature.  At high mirror levels the alternating sum cancels: in the
block at cavity 0..5 x mirror 40..59 the worst element is off by 4e-4 of the
block's largest element.

The partial purities of the linear entropies are double Poisson sums whose
dephasing factor depends only on p - q; they are sums over the lag d with
the Skellam weights r[d] = e^(-2|alpha|^2) I_d(2|alpha|^2), O(T D) for T times
and D lags.  The weights come from Miller's backward recurrence, in O(D) with
D about 13 |alpha| for |alpha| >= 10 (3 ms at |alpha| = 1000, 0.3 s at 1e5);
the tail of lags left out is at most 1e-17 of r[0].  The times are taken in
chunks of at most 2^20 exponential-matrix elements, so memory is bounded by
the lags, not by the time grid.  The MI average over one mirror period sizes
its own trapezoid grid.  No scipy module is loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DomainError,
    EmptySubspaceError,
    ResourceError,
    TruncationError,
    UndefinedMutualInfoError,
)
from .qstate import DensityMatrix


@dataclass(frozen=True)
class OptoUnitaryParams:
    """Dimensionless model parameters (time in units of 1/omega_m).

    k is the scaled coupling g/omega_m, alpha the initial cavity amplitude,
    n_bar the mirror thermal occupancy.
    """

    k: float
    alpha: complex
    n_bar: float
    t: float

    def __post_init__(self):
        if self.k < 0:
            raise DomainError("coupling k must be >= 0")
        if self.n_bar < 0:
            raise DomainError("thermal occupancy n_bar must be >= 0")
        if not math.isfinite(abs(self.alpha) * abs(self.alpha)):
            raise DomainError("derived |alpha|^2 is not finite; inputs out of range")

    @property
    def x(self) -> float:
        return self.n_bar / (self.n_bar + 1.0)


@dataclass(frozen=True)
class SubspaceSelector:
    """Fock levels retained on each side; strictly increasing, non-empty."""

    cavity_levels: tuple[int, ...]
    mirror_levels: tuple[int, ...]

    def __post_init__(self):
        for name, levels in (("cavity", self.cavity_levels), ("mirror", self.mirror_levels)):
            if len(levels) == 0:
                raise DomainError(f"{name} level list is empty")
            if any(l < 0 for l in levels) or any(b <= a for a, b in zip(levels, levels[1:])):
                raise DomainError(f"{name} levels must be distinct, non-negative, increasing")
        object.__setattr__(self, "cavity_levels", tuple(int(l) for l in self.cavity_levels))
        object.__setattr__(self, "mirror_levels", tuple(int(l) for l in self.mirror_levels))


def eta(t: float) -> complex:
    return 1.0 - np.exp(-1j * t)


def _free_phase(p: OptoUnitaryParams, n: int) -> float:
    return -p.k**2 * n**2 * (p.t - math.sin(p.t))


def _poisson_log_weight(alpha_abs2: float, n: int) -> float:
    if alpha_abs2 == 0.0:
        return 0.0 if n == 0 else -math.inf
    return n * math.log(alpha_abs2) - alpha_abs2 - math.lgamma(n + 1)


def _leibniz_block(p: OptoUnitaryParams, rows, cols, mu_levels, nu_levels) -> np.ndarray:
    """Matrix elements <n, mu| rho(t) |m, nu> for n in ``rows``, m in ``cols``,
    mu in ``mu_levels`` and nu in ``nu_levels``, as an array of shape
    (len(rows), len(mu_levels), len(cols), len(nu_levels)).

    Each Leibniz term is summed in log magnitude, which keeps mirror indices
    of a few hundred finite.  An element's kept terms run over an interval of
    j (the x = 0, P = 0 and Q = 0 factors drop every term with a positive
    power of them); elements with the same number of terms are summed
    together, one row each, after a shift by the row's largest log.

    A term's phase (phase_nm + (mu - j) arg P) + (nu - j) arg Q depends only
    on its key, the cavity pair (n, m) and (mu - j, nu - j).  Its factor
    exp(i phase) is evaluated once per key, by the same expression in the
    same operand order, and gathered per term (:func:`_phase_table`), so
    every element has the bits of a per-term evaluation.
    """
    x = p.x
    et = eta(p.t)
    abs_eta2 = abs(et) ** 2
    k = p.k
    a2 = abs(p.alpha) ** 2
    log_x = math.log(x) if x > 0.0 else 0.0  # x = 0 keeps only j = 0
    mu = np.asarray(mu_levels)[:, None]
    nu = np.asarray(nu_levels)[None, :]
    lg = np.array([math.lgamma(i + 1) for i in range(max(mu.max(), nu.max()) + 1)])  # log(i!)
    log_mirror = 0.5 * (lg[mu] + lg[nu])
    top_j = np.minimum(mu, nu)
    if x == 0.0:
        top_j = np.minimum(top_j, 0)

    # per cavity pair: the log magnitude and phase shared by its (mu, nu)
    # elements, the logs and angles of P and Q, and each element's j range
    log_mag, phase, factors, lo, hi = [], [], [], [], []
    for n in rows:
        for m in cols:
            base = 0.5 * (_poisson_log_weight(a2, n) + _poisson_log_weight(a2, m))
            base += k**2 * abs_eta2 * (x * n * m - 0.5 * (n**2 + m**2))
            base -= math.log1p(p.n_bar)
            big_p = k * et * (n - x * m)
            big_q = k * np.conj(et) * (m - x * n)
            j_lo, j_hi = np.zeros_like(top_j), top_j
            if big_p == 0.0:  # only j = mu survives
                j_lo, j_hi = np.maximum(j_lo, mu), np.minimum(j_hi, mu)
            if big_q == 0.0:  # only j = nu survives
                j_lo, j_hi = np.maximum(j_lo, nu), np.minimum(j_hi, nu)
            if a2 == 0.0 and n + m > 0:
                j_hi = j_lo - 1  # no coherent-state weight: no terms
            log_mag.append(base + log_mirror)
            phase.append((n - m) * np.angle(p.alpha) - (_free_phase(p, n) - _free_phase(p, m)))
            factors.append((math.log(abs(big_p)) if big_p != 0.0 else 0.0, np.angle(big_p),
                            math.log(abs(big_q)) if big_q != 0.0 else 0.0, np.angle(big_q)))
            lo.append(j_lo)
            hi.append(j_hi)

    # one entry per element, ordered (n, m, mu, nu)
    shape = (len(rows) * len(cols),) + log_mirror.shape

    def per_element(v):
        return np.broadcast_to(v, shape).ravel()

    log_mag, lo, hi = np.ravel(log_mag), np.ravel(lo), np.ravel(hi)
    count = hi - lo + 1
    log_p, ang_p, log_q, ang_q = (np.array(v) for v in zip(*factors))
    mu_e, nu_e = per_element(mu), per_element(nu)
    # the run of the phase table that an element reads: its diagonal's when
    # its last term is j = min(mu, nu), with the key (pair, 0, nu - mu) or
    # (pair, mu - nu, 0); its own otherwise (at x = 0, j = 0 alone)
    cells = np.arange(log_mirror.size).reshape(log_mirror.shape)
    _, first_cell, diagonal = np.unique(nu - mu, return_index=True, return_inverse=True)
    pair = per_element(np.arange(len(phase))[:, None, None])
    run = pair * cells.size + np.where(hi == np.minimum(mu_e, nu_e),
                                       per_element(first_cell[diagonal.reshape(cells.shape)]),
                                       per_element(cells))
    table, first = _phase_table((np.array(phase), ang_p, ang_q), pair, mu_e, nu_e, hi, count, run)
    log_p, log_q = per_element(log_p[:, None, None]), per_element(log_q[:, None, None])
    values = np.zeros(count.size, dtype=complex)

    for c in np.unique(count[count > 0]):
        e = np.flatnonzero(count == c)
        jj = lo[e, None] + np.arange(c)
        d_mu = mu_e[e, None] - jj
        d_nu = nu_e[e, None] - jj
        # term order as in the Leibniz sum: factorials, then x, P and Q;
        # in place, each step rounded as in one expression
        logs = log_mag[e, None] - lg[jj]
        logs -= lg[d_mu]
        logs -= lg[d_nu]
        logs += jj * log_x
        logs += d_mu * log_p[e, None]
        logs += d_nu * log_q[e, None]
        # floor: a row whose terms all underflow (log -inf) sums to 0, not nan
        top = np.maximum(logs.max(axis=1), -np.finfo(float).max)
        logs -= top[:, None]
        terms = table[first[e, None] - jj]
        terms *= np.exp(logs, out=logs)
        values[e] = np.exp(top) * terms.sum(axis=1)
    return values.reshape(len(rows), len(cols), *log_mirror.shape).transpose(0, 2, 1, 3)


def _phase_table(angles, pair, mu, nu, hi, count, run):
    """(table, first): the factors exp(i phase) of a block's terms, one per
    run of keys, and the table index of each element's term j = hi; its
    term j is at ``first - j``.

    ``angles`` holds (phase, arg P, arg Q) per cavity pair, the rest is per
    element.  The keys (pair, mu - j, nu - j) of an element's terms run from
    (pair, mu - hi, nu - hi) up by (1, 1) for ``count`` terms.  Elements of
    one ``run`` number start from one key and read one run of the table, as
    long as the longest of them, so the table never holds more entries than
    the block has terms.
    """
    phase, ang_p, ang_q = angles
    live = np.flatnonzero(count > 0)
    length = np.zeros(count.size, dtype=int)
    np.maximum.at(length, run[live], count[live])
    offset = np.cumsum(length) - length
    lead = np.zeros_like(run)
    lead[run[live]] = live  # an element of each run
    step = np.arange(offset[-1] + length[-1])
    d_mu = np.repeat((mu - hi)[lead] - offset, length) + step
    d_nu = np.repeat((nu - hi)[lead] - offset, length) + step
    pr = np.repeat(pair[lead], length)
    return np.exp(1j * ((phase[pr] + d_mu * ang_p[pr]) + d_nu * ang_q[pr])), offset[run] + hi


def rho_element(p: OptoUnitaryParams, n: int, m: int, mu: int, nu: int) -> complex:
    """Exact matrix element <n, mu| rho(t) |m, nu> of the evolved state."""
    if min(n, m, mu, nu) < 0:
        raise DomainError("Fock indices must be non-negative")
    return complex(_leibniz_block(p, (n,), (m,), (mu,), (nu,))[0, 0, 0, 0])


def projected_density(p: OptoUnitaryParams, sel: SubspaceSelector, normalize: bool = True):
    """Project rho(t) onto the selected Fock subspace, cavity as slow index.

    With ``normalize`` the result is returned as a :class:`DensityMatrix`
    (split = (n_cavity_levels, n_mirror_levels)); otherwise the raw projected
    block P rho P is returned as an ndarray (its trace is <= 1).
    """
    cav, mir = sel.cavity_levels, sel.mirror_levels
    dc, dm = len(cav), len(mir)
    out = _leibniz_block(p, cav, cav, mir, mir).reshape(dc * dm, dc * dm)
    out = 0.5 * (out + out.conj().T)
    if not normalize:
        return out
    tr = float(np.trace(out).real)
    if tr < 1e-150:
        raise EmptySubspaceError(f"projection carries numerically zero weight (trace={tr:.3e})")
    return DensityMatrix(out / tr, split=(dc, dm))


def marker_upsilon(p: OptoUnitaryParams, sel: SubspaceSelector) -> float:
    """Entanglement marker -det[(PT_cavity) P rho P] on the raw projection.

    A positive value (an odd count of negative eigenvalues of the partial
    transpose) witnesses entanglement of the full state.  Zero or a negative
    value gives no verdict: an m x n block can have up to (m-1)(n-1) negative
    eigenvalues (Rana, PRA 87, 054301 (2013)), and 2 x 3 blocks already
    show two.  Computed on the unnormalized projection so the subspace
    rescaling identity is exact; the sign is unaffected by normalization.
    A determinant that is not finite (the LU of a singular block with
    subnormal entries divides by zero) is a DomainError, and so is one that
    underflows to 0 while ``slogdet`` finds it nonzero: no 0 printed means
    underflow.  A block with no nonzero entry is an EmptySubspaceError.
    """
    raw = projected_density(p, sel, normalize=False)
    dc, dm = len(sel.cavity_levels), len(sel.mirror_levels)
    pt = np.transpose(raw.reshape(dc, dm, dc, dm), (2, 1, 0, 3)).reshape(dc * dm, dc * dm)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = np.linalg.det(pt)
        if det == 0:
            sign, logdet = np.linalg.slogdet(pt)
            if sign != 0:
                raise DomainError(f"marker determinant underflows: log|det| = {logdet:.6g} "
                                  f"at t = {p.t}")
            if not raw.any():
                raise EmptySubspaceError("projection onto the selected subspace is zero: "
                                         "no marker")
    if not np.isfinite(det):
        raise DomainError(f"marker determinant is not finite ({det.real}) at t = {p.t}")
    return float(-det.real)


# ---------------------------------------------------------------------------
# Closed-form linear entropies and normalized mutual information.
# ---------------------------------------------------------------------------


# Finest grid of averaged_mi.  Its times are evaluated in chunks of at most
# _CHUNK_ELEMENTS (times x lags) elements, so the grid size bounds the time of
# an average, not its memory.
MI_MAX_INTERVALS = 4096

# The lags end at the first D whose dropped tail sum_(d>D) r[d] is at most
# _LAG_TAIL r[0] (:func:`_lag_weights`).
_LAG_TAIL = 1e-17
# Elements of one (times, lags) exponential matrix in _linear_entropies.
_CHUNK_ELEMENTS = 1 << 20


def linear_entropies_closed(p: OptoUnitaryParams) -> tuple[float, float, float]:
    """(S_total, S_cavity, S_mirror) linear entropies at ``p.t``, S := 1 - Tr rho^2."""
    s_total, s_cav, s_mir = _linear_entropies(p, np.array([p.t]), _lag_weights(p.alpha))
    return s_total, float(s_cav[0]), float(s_mir[0])


def _lag_weights(alpha: complex) -> np.ndarray:
    """r[0], 2 r[1], ..., 2 r[D]: the lag weights of :func:`_linear_entropies`.

    r[d] = sum_p w_p w_(p+d) of the Poisson(a) weights w, a = |alpha|^2, is
    the Skellam pmf e^(-x) I_d(x), x = 2a (Skellam, J. R. Stat. Soc. 109, 296
    (1946)).  Miller's backward recurrence I_(d-1) = I_(d+1) + (2d/x) I_d,
    started at I_(n+1) = 0, runs on the ratios I_d / I_(d-1) = x / (2d + x
    I_(d+1) / I_d), so every value is rescaled and none overflows; their
    running products are r[d] / r[0], normalized by r[0] + 2 sum_(d>0) r[d] = 1.
    The start n puts the Skellam tail beyond it below e^-3 _LAG_TAIL r[0]:
    Bernstein's inequality bounds that tail by exp(-n^2 / (2 (x + n/3))), and
    r[0] >= 1/sqrt(1 + 2 pi x).  The lags end at the first D whose dropped
    tail is at most _LAG_TAIL r[0]; D is about 13 |alpha| for |alpha| >= 10.
    """
    x = 2.0 * abs(alpha) ** 2
    log_bound = 3.0 - math.log(_LAG_TAIL) + 0.5 * math.log1p(2.0 * math.pi * x)
    n = math.ceil(log_bound / 3.0 + math.sqrt(log_bound**2 / 9.0 + 2.0 * log_bound * x))
    if n > np.iinfo(np.intp).max // 8:  # numpy refuses such an array with a ValueError
        raise ResourceError(f"|alpha| = {abs(alpha):g} needs {n:.3g} lags; no array holds them")
    ratio = np.empty(n)  # I_d / I_(d-1) at d = 1..n
    q = 0.0
    for d in range(n, 0, -1):
        q = x / (2 * d + x * q)
        ratio[d - 1] = q
    lag = np.cumprod(ratio)  # r[d] / r[0] at d = 1..n
    dropped = np.cumsum(lag[::-1])[::-1]  # sum_(d' > D) r[d'] / r[0] at D = 0..n-1
    kept = np.count_nonzero(dropped > _LAG_TAIL)
    return np.concatenate(([1.0], 2.0 * lag[:kept])) / (1.0 + 2.0 * lag.sum())


def _linear_entropies(p: OptoUnitaryParams, t: np.ndarray, lag_weight: np.ndarray
                      ) -> tuple[float, np.ndarray, np.ndarray]:
    """(S_total, S_cavity, S_mirror) at the times ``t``.

    S_total = 1 - 1/(2 n_bar + 1) is time independent (unitary evolution).
    The partial purities are double sums over the Poisson(|alpha|^2) weights
    w_p, with the Gaussian dephasing factor exp(-c y^2 (p-q)^2),
    y^2 = |k eta(t)|^2, c = 1 + 2 n_bar for the cavity and c = 1/(1 + 2 n_bar)
    for the mirror (which also carries the thermal purity prefactor
    1/(1 + 2 n_bar)).  The factor depends on p - q only, so the double sum is
    a sum over the lag d with r[d] = sum_p w_p w_(p+d), the Skellam pmf of
    :func:`_lag_weights`:

        sum_pq w_p w_q e^(-c y^2 (p-q)^2) = r[0] + 2 sum_(d>0) r[d] e^(-c y^2 d^2).

    One (times, lags) exponential matrix per factor c, times a vector, over
    chunks of times of at most _CHUNK_ELEMENTS matrix elements.
    """
    d2 = np.arange(lag_weight.size) ** 2
    y2 = (p.k**2) * np.abs(eta(t)) ** 2  # |k eta(t)|^2, shape of t
    c_cav = 1.0 + 2.0 * p.n_bar
    c_mir = 1.0 / (1.0 + 2.0 * p.n_bar)
    s_cav, s_mir = np.empty_like(y2), np.empty_like(y2)
    rows = max(1, _CHUNK_ELEMENTS // lag_weight.size)
    for i in range(0, y2.size, rows):
        y = y2[i:i + rows]
        s_cav[i:i + rows] = 1.0 - np.exp(-np.multiply.outer(y * c_cav, d2)) @ lag_weight
        s_mir[i:i + rows] = 1.0 - c_mir * (np.exp(-np.multiply.outer(y * c_mir, d2))
                                           @ lag_weight)
    return 1.0 - 1.0 / (2.0 * p.n_bar + 1.0), s_cav, s_mir


def normalized_mi_time(p: OptoUnitaryParams) -> float:
    """Normalized linear mutual information 1 - S_total/(S_cav + S_mir).

    Values above 1/2 witness quantum correlations (classical bound).
    """
    s_total, s_cav, s_mir = linear_entropies_closed(p)
    denom = s_cav + s_mir
    if denom <= 1e-12:
        raise UndefinedMutualInfoError("S_cav + S_mir vanishes; normalized MI undefined")
    return 1.0 - s_total / denom


def averaged_mi(p: OptoUnitaryParams) -> float:
    """Normalized MI averaged over one mirror period by composite trapezoid.

    The grid starts at 256 intervals and doubles until two successive
    averages agree within 5e-4 (relative above 1); the finer one is returned.
    Each doubling evaluates the MI at the new midpoints only: every other
    point of linspace over 2s intervals is linspace over s, exactly.
    No agreement by MI_MAX_INTERVALS intervals raises TruncationError.
    Requires n_bar > 0 (at n_bar = 0 the t -> 0 limit is singular).
    """
    if p.n_bar <= 0.0:
        raise UndefinedMutualInfoError("averaged MI undefined at n_bar = 0 (t = 0 endpoint)")
    lag_weight = _lag_weights(p.alpha)

    def mi_at(t: np.ndarray) -> np.ndarray:
        s_total, s_cav, s_mir = _linear_entropies(p, t, lag_weight)
        mi = np.zeros_like(t)  # left at t = 0 (mod 2 pi): product state, MI -> 0
        denom = s_cav + s_mir
        ok = denom > 1e-12
        mi[ok] = 1.0 - s_total / denom[ok]
        return mi

    steps, t = 256, np.linspace(0.0, 2.0 * math.pi, 257)
    mi = mi_at(t)
    fine = float(np.trapezoid(mi, t) / (2.0 * math.pi))
    while steps < MI_MAX_INTERVALS:
        steps, coarse = 2 * steps, fine
        t = np.linspace(0.0, 2.0 * math.pi, steps + 1)
        mi = np.insert(mi, range(1, mi.size), mi_at(t[1::2]))  # new midpoints
        fine = float(np.trapezoid(mi, t) / (2.0 * math.pi))
        if abs(fine - coarse) <= 5e-4 * max(1.0, abs(fine)):
            return fine
    raise TruncationError(
        f"trapezoid average not converged: {coarse} vs {fine} at {steps} intervals")
