"""Exact diagonalization of small spin-1/2 lattices with two attached probes.

Desk-scale stand-in for large-lattice simulations: assembles the Heisenberg
bath plus probe coupling per total-S_z block, extracts the probe
singlet-triplet splitting and robust gap, exact thermal probe correlators,
and the Lehmann-representation inputs of the perturbative canonical
parameters.

Engine (after Sandvik, arXiv:1101.3281, sec. 4): basis states are bit
strings, blocks are sorted arrays of equal popcount, and each block matrix
is assembled with array bit operations and ``searchsorted`` lookups (dense
``eigh`` up to ``DENSE_BLOCK_CAP``, Lanczos from a fixed start vector above
it).  Importing this module loads no scipy: block assembly imports
``scipy.sparse``, and only the Lanczos branch imports ``scipy.sparse.linalg``,
so dense-only runs never load the sparse eigensolver.  The T = 0 quantities
read the S_z = -1, 0, +1 blocks only, of a given spectrum or of their own
diagonalization, and total spin is verified through
<S^2> = S_z^2 + S_z + ||S^+ v||^2.  One Boltzmann average serves every
thermal correlator; it bounds what a truncated spectrum left out.

Units and normalization: energies are in units of the bath exchange J = 1;
bath spins are S = sigma/2; probe operators tau are full Pauli matrices
(correlator <tau_a . tau_b> in [-3, 1]).  The probe coupling
alpha S_site . tau_probe therefore equals 2 alpha S_site . S_probe in
uniform spin-1/2 operators, which is how bonds are stored internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .exceptions import (
    DegenerateSystemError,
    DomainError,
    ResourceError,
    SectorAmbiguityError,
    TruncationError,
)
from .spin_lde import fit_canonical_params, separability_beta

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

MAX_SPINS = 16
DENSE_BLOCK_CAP = 4096
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class LatticeSpec:
    """l x n_c Heisenberg lattice plus two probes coupled at sites A and B.

    ``bonds`` are (i, j, weight) with weight in units of J = 1 for uniform
    spin-1/2 operators; the constructor helpers fill them in.  Probes are the
    last two spin indices. alpha is the dimensionless probe coupling.
    """

    n_bath: int
    bonds: tuple[tuple[int, int, float], ...]
    probe_sites: tuple[int, int]
    alpha: float
    label: str = "custom"

    def __post_init__(self):
        _check_size(self.n_bath)
        a, b = self.probe_sites
        if not (0 <= a < self.n_bath and 0 <= b < self.n_bath):
            raise DomainError("probe sites must be bath site indices")
        seen = set()
        for i, j, _ in self.bonds:
            seen.update((i, j))
        if self.n_bath > 1 and seen != set(range(self.n_bath)):
            raise DomainError("bond graph must touch every bath site")
        # Each Hamiltonian entry is bounded by the sum of |weight| / 2.
        if not math.isfinite(sum(abs(w) for *_, w in self.coupled_bonds())):
            raise DomainError("bond weights too large: the Hamiltonian overflows")

    @property
    def n_total(self) -> int:
        return self.n_bath + 2

    @property
    def probe_indices(self) -> tuple[int, int]:
        return self.n_bath, self.n_bath + 1

    def coupled_bonds(self) -> tuple[tuple[int, int, float], ...]:
        """Bath bonds plus the probe bonds 2 alpha S.S (= alpha S.tau)."""
        a, b = self.probe_sites
        pa, pb = self.probe_indices
        extra = ((a, pa, 2.0 * self.alpha), (b, pb, 2.0 * self.alpha))
        return self.bonds + extra


def _check_size(n_bath: int) -> None:
    """Refuse a lattice whose bath sites and two probes exceed MAX_SPINS."""
    if n_bath + 2 > MAX_SPINS:
        raise ResourceError(f"{n_bath + 2} spins exceed the cap of {MAX_SPINS}")


def chain(length: int, alpha: float, probes: str | tuple[int, int] = "ends") -> LatticeSpec:
    """Open Heisenberg chain with probes at the ends (or given sites)."""
    if length < 2:
        raise DomainError("chain needs at least 2 sites")
    _check_size(length)  # before any bond is built
    bonds = tuple((i, i + 1, 1.0) for i in range(length - 1))
    sites = (0, length - 1) if probes == "ends" else (int(probes[0]), int(probes[1]))
    return LatticeSpec(n_bath=length, bonds=bonds, probe_sites=sites,
                       alpha=alpha, label=f"chain L={length}")


def ladder(length: int, alpha: float, probes: str | tuple[int, int] = "ends") -> LatticeSpec:
    """2-leg ladder; probes attach to opposite ends of the first leg."""
    if length < 2:
        raise DomainError("ladder needs at least 2 rungs")
    _check_size(2 * length)
    bonds = []
    for y in (0, 1):
        bonds += [(x + y * length, x + 1 + y * length, 1.0) for x in range(length - 1)]
    bonds += [(x, x + length, 1.0) for x in range(length)]
    sites = (0, length - 1) if probes == "ends" else (int(probes[0]), int(probes[1]))
    return LatticeSpec(n_bath=2 * length, bonds=tuple(bonds), probe_sites=sites,
                       alpha=alpha, label=f"ladder l={length}")


# ---------------------------------------------------------------------------
# S_z-blocked Hamiltonian assembly and diagonalization.
# ---------------------------------------------------------------------------


def _blocks_by_magnetization(n: int, n_ups: tuple[int, ...] | None = None
                             ) -> dict[int, np.ndarray]:
    """Sorted basis states of each S_z block, keyed by the number of up spins
    (all n + 1 blocks, or only those in ``n_ups``)."""
    states = np.arange(1 << n, dtype=np.int64)
    pop = np.zeros_like(states)
    for i in range(n):
        pop += (states >> i) & 1
    if n_ups is None:
        n_ups = range(n + 1)
    return {n_up: states[pop == n_up] for n_up in n_ups}


def _block_hamiltonian(bonds, states: np.ndarray) -> csr_matrix:
    """Sparse Heisenberg Hamiltonian restricted to one S_z block.

    The diagonal is summed bond by bond in bond order; its floats, and so the
    printed eigenvalues, depend on that order.
    """
    from scipy.sparse import csr_matrix

    dim = len(states)
    rows, cols, vals = [], [], []
    diag = np.zeros(dim)
    for i, j, w in bonds:
        differ = ((states >> i) ^ (states >> j)) & 1
        diag += np.where(differ, -0.25 * w, 0.25 * w)
        k = np.flatnonzero(differ)
        rows.append(k)
        cols.append(np.searchsorted(states, states[k] ^ (1 << i) ^ (1 << j)))
        vals.append(np.full(len(k), 0.5 * w))
    h = csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                   shape=(dim, dim))
    h += csr_matrix((diag, (np.arange(dim), np.arange(dim))), shape=(dim, dim))
    return h


def build_hamiltonian(spec: LatticeSpec, blocks: tuple[int, ...] | None = None
                      ) -> dict[int, tuple[np.ndarray, csr_matrix]]:
    """Per-S_z-block sparse Hamiltonian of bath + probes.

    Returns {n_up: (basis states, H_block)} for every block, or only for the
    n_up values in ``blocks``; H commutes with total S_z by construction
    (only flip-flop terms appear off the diagonal).
    """
    bonds = spec.coupled_bonds()
    return {m: (sts, _block_hamiltonian(bonds, sts))
            for m, sts in _blocks_by_magnetization(spec.n_total, blocks).items()}


def _correlator_operator(spec: LatticeSpec, states: np.ndarray) -> csr_matrix:
    """tau_a . tau_b = 4 S_a . S_b on one block."""
    pa, pb = spec.probe_indices
    return _block_hamiltonian(((pa, pb, 4.0),), states)


@dataclass(frozen=True)
class SpectrumResult:
    """Eigen-decomposition of some S_z blocks, keyed by the number of up spins.

    A block at or below ``DENSE_BLOCK_CAP`` holds every level; a larger one
    holds its lowest ``k_each`` (truncated).  The ground energy and the probe
    correlator diagonals are computed on first use and kept.
    """

    spec: LatticeSpec
    energies: dict[int, np.ndarray]
    vectors: dict[int, np.ndarray]
    states: dict[int, np.ndarray]

    @cached_property
    def ground_energy(self) -> float:
        return min(float(e[0]) for e in self.energies.values())

    def all_levels(self, blocks=None) -> list[tuple[float, int, int]]:
        """Sorted (energy, n_up, index) of the stored levels of every block,
        or of the n_up values in ``blocks``."""
        return sorted((float(e), m, k) for m in (self.energies if blocks is None else blocks)
                      for k, e in enumerate(self.energies[m]))

    @cached_property
    def probe_diagonals(self) -> dict[int, np.ndarray]:
        """<k|tau_a . tau_b|k> for every stored eigenvector, per block."""
        return {m: np.einsum("ik,ik->k", v, _correlator_operator(self.spec, self.states[m]) @ v)
                for m, v in self.vectors.items()}


def full_spectrum(spec: LatticeSpec) -> SpectrumResult:
    """Every level of every S_z block (total dim <= 4096, so each block
    goes through the dense branch of :func:`_low_levels`)."""
    if (1 << spec.n_total) > DENSE_BLOCK_CAP:
        raise ResourceError(
            f"full spectrum needs total dim <= {DENSE_BLOCK_CAP}; "
            f"got {1 << spec.n_total}")
    return _low_levels(spec)


def _low_levels(spec: LatticeSpec, k_each: int = 8,
                blocks: tuple[int, ...] | None = None) -> SpectrumResult:
    """Lowest levels per block (all blocks, or the n_up values in ``blocks``):
    every level by dense ``eigh`` at or below the cap, ``k_each`` by Lanczos
    above it.

    Lanczos starts from a fixed-seed vector, so repeated calls return the
    same floats.  (A constant start vector would not do: in every block it is
    the fully polarized S = n/2 eigenstate.)
    """
    energies, vectors, states = {}, {}, {}
    for m, (sts, h) in build_hamiltonian(spec, blocks).items():
        dim = h.shape[0]
        if dim <= DENSE_BLOCK_CAP:
            w, v = np.linalg.eigh(h.toarray())
        else:
            from scipy.sparse.linalg import eigsh

            k = min(k_each, dim - 1)
            v0 = np.random.default_rng(0).standard_normal(dim)
            w, v = eigsh(h, k=k, which="SA", tol=1e-12, v0=v0)
            order = np.argsort(w)
            w, v = w[order], v[:, order]
        energies[m], vectors[m], states[m] = w, v, sts
    return SpectrumResult(spec, energies, vectors, states)


def total_spin_expectation(result: SpectrumResult, m: int, level: int) -> float:
    """<S_tot^2> of one eigenvector (0 for a singlet, 2 for a triplet), from
    the full O(n^2) pair operator: the oracle for :func:`_spin_squared`."""
    spec = result.spec
    n = spec.n_total
    sts = result.states[m]
    vec = result.vectors[m][:, level]
    pairs = tuple((i, j, 2.0) for i in range(n) for j in range(i + 1, n))
    op = _block_hamiltonian(pairs, sts)  # 2 sum_{i<j} S_i.S_j
    return float(vec @ (op @ vec)) + 0.75 * n


def _spin_squared(result: SpectrumResult, m: int, level: int) -> float:
    """<S_tot^2> = S_z^2 + S_z + ||S^+ v||^2 of one eigenvector.

    S^+ = sum_i S_i^+ maps block m into block m + 1 with unit amplitudes:
    n vectorized bit flips instead of the n(n-1)/2 pair bonds.
    """
    n = result.spec.n_total
    sts = result.states[m]
    vec = result.vectors[m][:, level]
    up = _blocks_by_magnetization(n, (m + 1,))[m + 1]
    raised = np.zeros(len(up))
    for i in range(n):
        down = np.flatnonzero(((sts >> i) & 1) == 0)
        # s -> s | 2^i is one-to-one on these states, so no index repeats
        raised[np.searchsorted(up, sts[down] | (1 << i))] += vec[down]
    sz = m - 0.5 * n
    return sz * sz + sz + float(raised @ raised)


def _central_levels(spec: LatticeSpec, spectrum: SpectrumResult | None):
    """``spectrum`` (diagonalized now if None) and the sorted levels of its
    S_z = -1, 0, +1 blocks, where every total-spin multiplet has a member
    (SU(2)): the other blocks add nothing to the ground or probe sector."""
    if spec.n_total % 2:
        raise SectorAmbiguityError(
            f"{spec.n_total} spins have half-integer total spin: no probe singlet")
    mid = spec.n_total // 2
    blocks = (mid - 1, mid, mid + 1)
    if spectrum is None:
        spectrum = _low_levels(spec, blocks=blocks)
    return spectrum, spectrum.all_levels(blocks)


def low_spectrum_jcan(spec: LatticeSpec,
                      spectrum: SpectrumResult | None = None) -> tuple[float, float]:
    """(J_can_exact, robust gap): singlet-triplet splitting and the gap from
    the triplet to the first level outside the 4-dimensional probe sector.

    Levels come from the central blocks of ``spectrum`` when given, else of
    a new diagonalization of those three blocks alone (:func:`_central_levels`).
    The sector is identified by S_z-block membership and degeneracy counting,
    and cross-checked with <S_tot^2> = 0 and 2 on the candidate eigenvectors.
    """
    if spec.alpha <= 0:
        raise DomainError("probe coupling alpha must be > 0 for the probe gap")
    spectrum, levels = _central_levels(spec, spectrum)
    e0, m0, k0 = levels[0]
    if abs(_spin_squared(spectrum, m0, k0)) > 1e-6:
        raise SectorAmbiguityError("ground state is not a total-spin singlet")
    if levels[1][0] - e0 < DEGENERACY_TOL:
        raise SectorAmbiguityError("degenerate ground state")
    # next distinct level: must be a triplet (3 states across m0-1, m0, m0+1)
    e_t = levels[1][0]
    members = [lv for lv in levels[1:] if lv[0] - e_t < DEGENERACY_TOL]
    if len(members) != 3 or {mm for _, mm, _ in members} != {m0 - 1, m0, m0 + 1}:
        raise SectorAmbiguityError(
            f"first excited multiplet is not a clean triplet: {members[:5]}")
    s2 = _spin_squared(spectrum, members[0][1], members[0][2])
    if abs(s2 - 2.0) > 1e-6:
        raise SectorAmbiguityError(f"<S^2> of candidate triplet is {s2}")
    e_rest = levels[4][0]
    if e_rest - e_t < DEGENERACY_TOL:
        raise SectorAmbiguityError("low sector larger than singlet + triplet")
    return e_t - e0, e_rest - e_t


def ground_state_correlator(spec: LatticeSpec,
                            spectrum: SpectrumResult | None = None) -> float:
    """<tau_a . tau_b> in the lowest level of the central blocks (of
    ``spectrum`` if given), as in :func:`low_spectrum_jcan`."""
    spectrum, levels = _central_levels(spec, spectrum)
    _, m0, k0 = levels[0]
    vec = spectrum.vectors[m0][:, k0]
    op = _correlator_operator(spec, spectrum.states[m0])
    return float(vec @ (op @ vec))


def _boltzmann_average(spectrum: SpectrumResult, betas) -> np.ndarray:
    """Probe correlator averaged over the stored levels of every block,
    summed block by block in stored order.

    The levels a truncated block left out lie above its top stored level, so
    their weight against the ground level is at most (states not stored) x
    exp(-beta (lowest top stored level of a truncated block - E0)).  A bound
    above 1e-10, or a missing S_z block, raises TruncationError.
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    energies, e0 = spectrum.energies, spectrum.ground_energy
    if len(energies) <= spectrum.spec.n_total:
        raise TruncationError(
            f"thermal average needs every S_z block; got n_up in {sorted(energies)}")
    left = {m: len(spectrum.states[m]) - len(es) for m, es in energies.items()}
    if any(left.values()):
        cut = min(float(energies[m][-1]) for m in energies if left[m])
        tail = sum(left.values()) * np.exp(-betas * (cut - e0))
        if np.any(tail > 1e-10):
            raise TruncationError(
                f"truncated Boltzmann tail up to {tail.max():.2e} > 1e-10; "
                "lower the temperature or raise k_each")
    num, den = np.zeros_like(betas), np.zeros_like(betas)
    for m, es in energies.items():
        w = np.exp(-np.outer(betas, es - e0))
        num += w @ spectrum.probe_diagonals[m]
        den += w.sum(axis=1)
    return num / den


def thermal_correlator_exact(spec: LatticeSpec, betas,
                             spectrum: SpectrumResult | None = None) -> np.ndarray:
    """<tau_a . tau_b>(beta) from the full blockwise spectrum (``spectrum``,
    whose correlator diagonals are kept across calls, or a new one).  Energies
    are shifted by the ground energy, so any beta >= 0 is safe."""
    return _boltzmann_average(full_spectrum(spec) if spectrum is None else spectrum, betas)


def thermal_correlator_truncated(spec: LatticeSpec, betas, k_each: int = 8) -> np.ndarray:
    """Low-temperature correlator from the lowest ``k_each`` levels of each
    block above ``DENSE_BLOCK_CAP`` (every level of the others), refused
    where the levels left out could shift it at the 1e-10 level."""
    return _boltzmann_average(_low_levels(spec, k_each=k_each), betas)


# ---------------------------------------------------------------------------
# Lehmann-representation inputs for the perturbative canonical parameters.
# ---------------------------------------------------------------------------


def chi_lehman_and_phi(spec: LatticeSpec) -> tuple[float, float]:
    """(chi, Phi/(2 alpha)^2) from the dense S_z = 0 block of the bath alone
    (alpha = 0).

    chi = -sum_{k>0} [<0|S_A^z|k><k|S_B^z|0> + c.c.]/(E_k - E_0), positive
    when the bath favors a probe singlet (J_can ~ 4 alpha^2 chi), and
    Phi/(2 alpha)^2 = sum_{k>0} |<0|(S_A^z - S_B^z)|k>|^2/(E_k - E_0)^2.
    eta vanishes at this order.
    """
    if spec.n_bath % 2:
        raise DegenerateSystemError("bath must have an even number of sites "
                                    "for a singlet ground state")
    m0 = spec.n_bath // 2
    states = _blocks_by_magnetization(spec.n_bath, (m0,))[m0]
    w, v = np.linalg.eigh(_block_hamiltonian(spec.bonds, states).toarray())
    if w[1] - w[0] < DEGENERACY_TOL:
        raise DegenerateSystemError("degenerate bath ground state")
    a, b = spec.probe_sites
    za = np.where((states >> a) & 1, 0.5, -0.5)
    zb = np.where((states >> b) & 1, 0.5, -0.5)
    psi0 = v[:, 0]
    amps_a = v.T @ (za * psi0)   # <k|S_A^z|0>
    amps_b = v.T @ (zb * psi0)
    de = w - w[0]
    chi = -2.0 * float(np.sum(amps_a[1:] * amps_b[1:] / de[1:]))
    diff = amps_a - amps_b
    phi_coeff = float(np.sum(diff[1:] ** 2 / de[1:] ** 2))
    return chi, phi_coeff


# ---------------------------------------------------------------------------
# End-to-end comparison of the ED oracle with the canonical theory.
# ---------------------------------------------------------------------------


def default_temperature_grid(j_can: float) -> np.ndarray:
    """12 log-spaced temperatures from k_B T = J_can/20 to 20 J_can."""
    return np.geomspace(j_can / 20.0, 20.0 * j_can, 12)


def theory_consistency_report(spec: LatticeSpec) -> dict:
    """Exact-diagonalization vs canonical-theory scorecard.

    Builds and diagonalizes the lattice once (:func:`full_spectrum`, so at
    most 12 spins) and takes every ED quantity from that one spectrum.
    Reports (i) J_can_exact against the perturbative 4 alpha^2 chi,
    (ii) the three-parameter fit of the ED thermal correlator with its RMS
    residual, (iii) the T = 0 correlator against -3 + eta + 3 Phi, and
    (iv) the exact separability temperature against 0.93 J_can (1 - Phi).
    """
    spectrum = full_spectrum(spec)
    j_can, gap = low_spectrum_jcan(spec, spectrum=spectrum)
    chi, phi_coeff = chi_lehman_and_phi(spec)
    j_can_pert = 4.0 * spec.alpha ** 2 * chi

    temps = default_temperature_grid(j_can)
    betas = 1.0 / temps
    corrs = thermal_correlator_exact(spec, betas, spectrum=spectrum)
    fit = fit_canonical_params(list(zip(betas, corrs)))
    cp = fit.params

    c0_exact = ground_state_correlator(spec, spectrum=spectrum)
    c0_model = -3.0 + cp.eta + 3.0 * cp.Phi

    # exact separability temperature from the ED correlator itself
    def f(beta):
        return float(thermal_correlator_exact(spec, [beta], spectrum=spectrum)[0]) + 1.0

    lo, hi = 1e-3 / j_can, 1e3 / j_can  # betas: high-T (corr ~ 0) to low-T
    t_star = None
    if f(lo) > 0.0 > f(hi):
        t_star = 1.0 / separability_beta(f, lo, hi)
    t_star_est = 0.93 * cp.J_can * (1.0 - cp.Phi)

    return {
        "lattice": spec.label,
        "alpha": spec.alpha,
        "J_can_exact": j_can,
        "robust_gap": gap,
        "gap_over_jcan": gap / j_can,
        "chi_lehman": chi,
        "J_can_perturbative": j_can_pert,
        "jcan_rel_error": abs(j_can - j_can_pert) / j_can,
        "fit_J_can": cp.J_can,
        "fit_Phi": cp.Phi,
        "fit_eta": cp.eta,
        "fit_rms_residual": fit.rms_residual,
        "phi_perturbative": 4.0 * spec.alpha ** 2 * phi_coeff,
        "corr_T0_exact": c0_exact,
        "corr_T0_model": c0_model,
        "corr_T0_abs_error": abs(c0_exact - c0_model),
        "kT_star_exact": t_star,
        "kT_star_estimate": t_star_est,
        "tstar_rel_error": (abs(t_star - t_star_est) / t_star
                            if t_star is not None else None),
    }
