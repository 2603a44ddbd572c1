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
shift; :func:`rho_element` is the one-element call of the same kernel.  This
form matches brute-force expm evolution to machine precision at any
temperature.  At high mirror levels the alternating sum cancels: in the
block at cavity 0..5 x mirror 40..59 the worst element is off by 4e-4 of the
block's largest element.

The partial purities of the linear entropies are double Poisson sums whose
dephasing factor depends only on p - q; they are evaluated through the
autocorrelation of the Poisson weights, O(T N) for T times and cutoff N.
The MI average over one mirror period sizes its own trapezoid grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DomainError,
    EmptySubspaceError,
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

    log_mag, lo = np.ravel(log_mag), np.ravel(lo)
    count = np.ravel(hi) - lo + 1
    phase, log_p, ang_p, log_q, ang_q = (per_element(np.reshape(v, (-1, 1, 1)))
                                         for v in (phase, *zip(*factors)))
    mu_e, nu_e = per_element(mu), per_element(nu)
    values = np.zeros(count.size, dtype=complex)

    for c in np.unique(count[count > 0]):
        e = np.flatnonzero(count == c)
        jj = lo[e, None] + np.arange(c)
        d_mu = mu_e[e, None] - jj
        d_nu = nu_e[e, None] - jj
        # term order as in the Leibniz sum: factorials, then x, P and Q
        logs = (log_mag[e, None] - lg[jj] - lg[d_mu] - lg[d_nu]
                + jj * log_x + d_mu * log_p[e, None] + d_nu * log_q[e, None])
        phases = phase[e, None] + d_mu * ang_p[e, None] + d_nu * ang_q[e, None]
        # floor: a row whose terms all underflow (log -inf) sums to 0, not nan
        top = np.maximum(logs.max(axis=1), -np.finfo(float).max)
        acc = np.sum(np.exp(logs - top[:, None]) * np.exp(1j * phases), axis=1)
        values[e] = np.exp(top) * acc
    return values.reshape(len(rows), len(cols), *log_mirror.shape).transpose(0, 2, 1, 3)


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
    subnormal entries divides by zero) is a DomainError.
    """
    raw = projected_density(p, sel, normalize=False)
    dc, dm = len(sel.cavity_levels), len(sel.mirror_levels)
    pt = np.transpose(raw.reshape(dc, dm, dc, dm), (2, 1, 0, 3)).reshape(dc * dm, dc * dm)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = np.linalg.det(pt)
    if not np.isfinite(det):
        raise DomainError(f"marker determinant is not finite ({det.real}) at t = {p.t}")
    return float(-det.real)


# ---------------------------------------------------------------------------
# Closed-form linear entropies and normalized mutual information.
# ---------------------------------------------------------------------------


# Finest grid of averaged_mi; it bounds its (intervals + 1, cutoff + 1) arrays.
MI_MAX_INTERVALS = 4096


def default_fock_cutoff(alpha: complex) -> int:
    a2 = abs(alpha) ** 2
    return math.ceil(a2 + 10.0 * math.sqrt(a2 + 1.0))


def _poisson_weights(alpha: complex, cutoff: int) -> np.ndarray:
    from scipy.special import gammaln, xlogy

    a2 = abs(alpha) ** 2
    n = np.arange(cutoff + 1)
    return np.exp(xlogy(n, a2) - a2 - gammaln(n + 1))  # xlogy(0, 0) = 0


def _check_cutoff(alpha: complex, cutoff: int) -> None:
    from scipy.special import pdtrc

    tail = float(pdtrc(cutoff, abs(alpha) ** 2))  # Poisson P(N > cutoff)
    if tail >= 1e-12:
        raise TruncationError(
            f"Poisson tail beyond cutoff {cutoff} is {tail:.2e} >= 1e-12")


def linear_entropies_closed(p: OptoUnitaryParams) -> tuple[float, float, float]:
    """(S_total, S_cavity, S_mirror) linear entropies at ``p.t``, S := 1 - Tr rho^2."""
    s_total, s_cav, s_mir = _linear_entropies(p, np.array([p.t]), _lag_weights(p.alpha))
    return s_total, float(s_cav[0]), float(s_mir[0])


def _lag_weights(alpha: complex) -> np.ndarray:
    """r[0], 2 r[1], ..., 2 r[cutoff]: the lag weights of :func:`_linear_entropies`."""
    cutoff = default_fock_cutoff(alpha)
    _check_cutoff(alpha, cutoff)
    w = _poisson_weights(alpha, cutoff)
    r = np.correlate(w, w, mode="full")[cutoff:]
    return np.concatenate((r[:1], 2.0 * r[1:]))


def _linear_entropies(p: OptoUnitaryParams, t: np.ndarray, lag_weight: np.ndarray
                      ) -> tuple[float, np.ndarray, np.ndarray]:
    """(S_total, S_cavity, S_mirror) at the times ``t``.

    S_total = 1 - 1/(2 n_bar + 1) is time independent (unitary evolution).
    The partial purities are double Poisson sums, over w_0..w_cutoff with the
    cutoff of :func:`default_fock_cutoff`, with the Gaussian dephasing factor
    exp(-c y^2 (p-q)^2), y^2 = |k eta(t)|^2, c = 1 + 2 n_bar for the cavity
    and c = 1/(1 + 2 n_bar) for the mirror (which also carries the thermal
    purity prefactor 1/(1 + 2 n_bar)).  The factor depends on p - q only, so
    the double sum is a sum over the lag d with the autocorrelation
    r[d] = sum_p w_p w_(p+d):

        sum_pq w_p w_q e^(-c y^2 (p-q)^2) = r[0] + 2 sum_(d>0) r[d] e^(-c y^2 d^2).

    One (T, cutoff + 1) exponential matrix per factor c, times a vector.
    """
    d2 = np.arange(lag_weight.size) ** 2
    y2 = (p.k**2) * np.abs(eta(t)) ** 2  # |k eta(t)|^2, shape of t
    c_cav = 1.0 + 2.0 * p.n_bar
    c_mir = 1.0 / (1.0 + 2.0 * p.n_bar)
    s_cav = 1.0 - np.exp(-np.multiply.outer(y2 * c_cav, d2)) @ lag_weight
    s_mir = 1.0 - c_mir * (np.exp(-np.multiply.outer(y2 * c_mir, d2)) @ lag_weight)
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
    No agreement by MI_MAX_INTERVALS intervals raises TruncationError.
    Requires n_bar > 0 (at n_bar = 0 the t -> 0 limit is singular).
    """
    if p.n_bar <= 0.0:
        raise UndefinedMutualInfoError("averaged MI undefined at n_bar = 0 (t = 0 endpoint)")
    lag_weight = _lag_weights(p.alpha)

    def average(steps: int) -> float:
        t = np.linspace(0.0, 2.0 * math.pi, steps + 1)
        s_total, s_cav, s_mir = _linear_entropies(p, t, lag_weight)
        mi = np.empty_like(t)
        denom = s_cav + s_mir
        ok = denom > 1e-12
        mi[ok] = 1.0 - s_total / denom[ok]
        mi[~ok] = 0.0  # t = 0 (mod 2 pi): product state, MI -> 0
        return float(np.trapezoid(mi, t) / (2.0 * math.pi))

    steps, fine = 256, average(256)
    while steps < MI_MAX_INTERVALS:
        steps, coarse = 2 * steps, fine
        fine = average(steps)
        if abs(fine - coarse) <= 5e-4 * max(1.0, abs(fine)):
            return fine
    raise TruncationError(
        f"trapezoid average not converged: {coarse} vs {fine} at {steps} intervals")
