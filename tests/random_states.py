"""Random-state constructors, closed forms, reference integrals and identity
checks that only the tests use."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from qcb.exceptions import DomainError, PurityError
from qcb.gaussian import GaussianState
from qcb.optomech_stationary import StationaryParams
from qcb.optomech_unitary import (OptoUnitaryParams, SubspaceSelector, _free_phase,
                                  _poisson_log_weight, eta, marker_upsilon)
from qcb.qstate import PAULI_DOT, DensityMatrix


def random_density_matrix(dim: int, rng: np.random.Generator, rank: int | None = None,
                          split: tuple[int, int] | None = None) -> DensityMatrix:
    """Haar-flavored mixed state: normalized Wishart matrix of given rank."""
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, split=split)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_separable_mixture(d_a: int, d_b: int, rng: np.random.Generator,
                             n_terms: int = 8) -> DensityMatrix:
    """Explicit convex mixture of product states (separable by construction)."""
    rho = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    weights = rng.dirichlet(np.ones(n_terms))
    for w in weights:
        a = random_density_matrix(d_a, rng, rank=max(1, d_a // 2)).matrix
        b = random_density_matrix(d_b, rng, rank=max(1, d_b // 2)).matrix
        rho += w * np.kron(a, b)
    return DensityMatrix(rho, split=(d_a, d_b))


# Random physical covariances: V = S V_th S^T with S an explicit symplectic,
# so physicality holds by construction.


def _interleave_permutation(n: int) -> np.ndarray:
    """Permutation matrix sending (X1..Xn, P1..Pn) to (X1, P1, ..., Xn, Pn)."""
    p = np.zeros((2 * n, 2 * n))
    for k in range(n):
        p[2 * k, k] = 1.0
        p[2 * k + 1, n + k] = 1.0
    return p


def random_symplectic(n_modes: int, rng: np.random.Generator,
                      max_squeeze: float = 1.0) -> np.ndarray:
    """Random symplectic via Euler decomposition O1 diag(e^z, e^-z) O2."""

    def ortho_sympl() -> np.ndarray:
        u = random_unitary(n_modes, rng)
        return np.block([[u.real, -u.imag], [u.imag, u.real]])

    z = rng.uniform(-max_squeeze, max_squeeze, size=n_modes)
    squeeze = np.diag(np.concatenate([np.exp(z), np.exp(-z)]))
    s_xxpp = ortho_sympl() @ squeeze @ ortho_sympl()
    perm = _interleave_permutation(n_modes)
    return perm @ s_xxpp @ perm.T


def thermal_cov(n_bars) -> GaussianState:
    """Product thermal state: V = diag(n_k + 1/2) per quadrature pair."""
    return GaussianState(np.diag(np.repeat(np.asarray(n_bars, dtype=float) + 0.5, 2)))


def random_physical_cov(n_modes: int, rng: np.random.Generator,
                        max_squeeze: float = 1.0, max_thermal: float = 2.0) -> GaussianState:
    s = random_symplectic(n_modes, rng, max_squeeze)
    n_bars = rng.uniform(0.0, max_thermal, size=n_modes)
    v = s @ thermal_cov(n_bars).cov @ s.T
    return GaussianState(0.5 * (v + v.T))


def mirror_variances_zero_detuning(p: StationaryParams, big_g: float
                                   ) -> tuple[float, float]:
    """Closed-form V11, V22 of the mirror block at Delta = 0 (V12 = 0).

    V11 = 1/2 + n_bar + G^2 (kappa + gamma_m) / (2 gamma_m (kappa^2 +
    kappa gamma_m + omega_m^2)) and V22 likewise with G^2 kappa; the
    effective occupancy follows as n_eff = (V11 + V22)/2 - 1/2.
    """
    w = p.omega_m
    gm, k, g2 = p.gamma_m / w, p.kappa / w, (big_g / w) ** 2
    denom = 2.0 * gm * (k**2 + k * gm + 1.0)
    v11 = 0.5 + p.n_bar + g2 * (k + gm) / denom
    v22 = 0.5 + p.n_bar + g2 * k / denom
    return v11, v22


def exact_lyapunov(a, d, dps=50):
    """V of A V + V A^T = -D for the double matrices ``a`` and ``d``, from the
    Kronecker system (I x A + A x I) vec V = -vec D solved in ``dps`` digits,
    independent of the library's vectorization: V as rows of mpf."""
    import mpmath

    n = a.shape[0]
    with mpmath.workdps(dps):
        k = mpmath.zeros(n * n)
        for i in range(n):
            for j in range(n):
                for m in range(n):
                    k[i * n + j, m * n + j] += a[i, m]  # A V
                    k[i * n + j, i * n + m] += a[j, m]  # V A^T
        rhs = mpmath.matrix([-d[i, j] for i in range(n) for j in range(n)])
        vec = mpmath.lu_solve(k, rhs)
        return [[vec[i * n + j] for j in range(n)] for i in range(n)]


def chi_aklt_sma(r: int) -> float:
    """AKLT probe-probe response at separation r as the single-mode-approximation
    integral over the magnon band w_q = 5(5 + 3 cos q)/27 with weights
    a = -2/3, b = 80/81: the reference for the closed form ``spin_lde.chi_aklt``.
    """
    from scipy.integrate import quad

    a, b = -2.0 / 3.0, 80.0 / 81.0

    def integrand(q: float) -> float:
        w = 5.0 * (5.0 + 3.0 * math.cos(q)) / 27.0
        return math.cos(q * r) / w * (a + b / w) / (2.0 * math.pi)

    val, _ = quad(integrand, -math.pi, math.pi, epsabs=1e-12, epsrel=1e-12,
                  limit=400)
    # overall -2: the structure-factor convolution carries a factor 2 and
    # the sign convention is fixed so positive chi favors the singlet
    return -2.0 * val


def ring_integral_quad(x: float) -> float:
    """integral_x^pi (tau/pi - 1)/sqrt(cos x - cos tau) dtau for 0 < x < pi by
    adaptive quadrature of the scalar integrand under tau = x cosh v, the
    route ``spin_lde._ring_integral`` took before its Gauss-Legendre rule:
    the reference for that rule."""
    from scipy.integrate import quad

    def f(v: float) -> float:
        if v == 0.0:
            return (x / math.pi - 1.0) * math.sqrt(2.0 * x / math.sin(x))
        gap = 2.0 * x * math.sinh(0.5 * v) ** 2  # x (cosh v - 1), stably
        gap_root = math.sqrt(2.0 * math.sin(x + 0.5 * gap)) * math.sqrt(math.sin(0.5 * gap))
        return ((x + gap) / math.pi - 1.0) * x * math.sinh(v) / gap_root

    return quad(f, 0.0, math.acosh(math.pi / x), epsabs=1e-11, epsrel=1e-11, limit=300)[0]


def leibniz_block_per_term(p: OptoUnitaryParams, rows, cols, mu_levels, nu_levels
                           ) -> np.ndarray:
    """The Leibniz kernel of :mod:`qcb.optomech_unitary` with exp(i phase)
    evaluated for every term, the reference of its table of phase factors.

    Matrix elements <n, mu| rho(t) |m, nu> for n in ``rows``, m in ``cols``,
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


def mp_leibniz_block(p, cav, mir, dps=50):
    """The closed-form elements <n, mu| rho |m, nu> as direct Leibniz sums in
    ``dps``-digit arithmetic, shape (len(cav), len(mir), len(cav), len(mir))."""
    from mpmath import mp, mpc, mpf

    with mp.workdps(dps):
        k, nb, t = mpf(p.k), mpf(p.n_bar), mpf(p.t)
        alpha = mpc(p.alpha)
        x = nb / (nb + 1)
        et = 1 - mp.exp(-1j * t)
        y2 = k**2 * abs(et) ** 2

        def phi(n):
            return -k**2 * n**2 * (t - mp.sin(t))

        out = np.empty((len(cav), len(mir), len(cav), len(mir)), dtype=complex)
        for i, n in enumerate(cav):
            for j, m in enumerate(cav):
                theta = (mp.exp(-abs(alpha) ** 2) * alpha**n * mp.conj(alpha) ** m
                         / mp.sqrt(mp.factorial(n) * mp.factorial(m)))
                pre = (theta * mp.exp(-1j * (phi(n) - phi(m))) / (nb + 1)
                       * mp.exp(y2 * (x * n * m - (n**2 + m**2) / mpf(2))))
                big_p, big_q = k * et * (n - x * m), k * mp.conj(et) * (m - x * n)
                for a, mu in enumerate(mir):
                    for b, nu in enumerate(mir):
                        acc = mp.fsum(x**jj * big_p ** (mu - jj) * big_q ** (nu - jj)
                                      / (mp.factorial(jj) * mp.factorial(mu - jj)
                                         * mp.factorial(nu - jj))
                                      for jj in range(min(mu, nu) + 1))
                        value = pre * acc * mp.sqrt(mp.factorial(mu) * mp.factorial(nu))
                        out[i, a, j, b] = complex(value)
        return out


def renormalization_check(p: OptoUnitaryParams, s: int,
                          mirror_levels: tuple[int, ...] = (0, 1)) -> tuple[float, float]:
    """Both sides of the subspace rescaling identity; they agree exactly.

    Photon-number conservation ties the marker of the cavity subspace [0, s]
    at coupling k/s to the marker of [0, 1] at coupling k.  The scale factor
    s! |alpha|^(-2s) (vs |alpha|^(-2)) applies once per retained mirror level,
    i.e. the identity reads

        (s! |alpha|^(-2s))^d  Upsilon_[0,s](k/s) = |alpha|^(-2d) Upsilon_[0,1](k)

    with d = len(mirror_levels).  Returns (lhs, rhs).
    """
    if s < 1:
        raise DomainError("s must be a positive integer")
    d = len(mirror_levels)
    a2 = abs(p.alpha) ** 2
    ups_s = marker_upsilon(replace(p, k=p.k / s),
                           SubspaceSelector((0, s), tuple(mirror_levels)))
    ups_1 = marker_upsilon(p, SubspaceSelector((0, 1), tuple(mirror_levels)))
    lhs = (math.factorial(s) * a2 ** (-s)) ** d * ups_s
    rhs = a2 ** (-d) * ups_1
    return lhs, rhs


def subspace_tangle_t0(p: OptoUnitaryParams) -> float:
    """Closed-form tangle of the [0,1;0,1] projection at t = pi, n_bar = 0.

    tau = 16 k^2 |alpha|^2 e^(4k^2) / (e^(4k^2) + (1 + 4k^2)|alpha|^2)^2.
    """
    if p.n_bar > 1e-12:
        raise PurityError("closed-form tangle is a pure-state (n_bar = 0) quantity")
    k2 = p.k**2
    a2 = abs(p.alpha) ** 2
    e4 = math.exp(4.0 * k2)
    return 16.0 * k2 * a2 * e4 / (e4 + (1.0 + 4.0 * k2) * a2) ** 2


def probe_state_thermal(j_ab: float, beta: float) -> DensityMatrix:
    """Two-qubit Gibbs state rho ~ exp(-beta J_ab tau_a . tau_b).

    Singlet weight exp(3 beta J_ab) against three triplet weights
    exp(-beta J_ab); concurrence vanishes exactly at beta J_ab = ln(3)/4.
    """
    x = beta * j_ab
    # Boltzmann weights with the larger one factored out (no overflow)
    w_t = math.exp(-4.0 * x) if x >= 0 else 1.0
    w_s = 1.0 if x >= 0 else math.exp(4.0 * x)
    z = w_s + 3.0 * w_t
    # projectors from tau.tau eigenvalues: singlet -3, triplet +1
    p_s = (np.eye(4) - PAULI_DOT.real) / 4.0
    p_t = np.eye(4) - p_s
    rho = (w_s / z) * p_s + (w_t / z) * p_t
    return DensityMatrix(rho, split=(2, 2))
