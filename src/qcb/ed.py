"""Exact diagonalization of small spin-1/2 lattices with two attached probes.

Desk-scale stand-in for large-lattice simulations: assembles the Heisenberg
bath plus probe coupling per total-S_z block, extracts the probe
singlet-triplet splitting and robust gap, exact thermal probe correlators,
and the Lehmann-representation inputs of the perturbative canonical
parameters.

Engine (after Sandvik, arXiv:1101.3281, sec. 4): basis states are bit
strings and blocks are sorted arrays of equal popcount.  One pass of array
bit operations over all states of the requested blocks keeps each block's
diagonal and each bond's flip-flop entries in it; a block's H is built from
those only when the block is reached, in one of two formats.  A whole block
is a dense array of its own (:func:`_assemble`), one scatter per bond, and
only up to ``DENSE_BLOCK_CAP`` states: a larger one raises ResourceError.
The S_z = 0 block of a lattice above 12 spins is built only as the two
half-size sectors of the global spin flip F = prod sigma^x, as CSR from the
first half of its rows.  Two routes diagonalize, one block at a time, and
the lattice picks the method: :func:`full_spectrum` takes every block of a
lattice of at most 12 spins (2^n <= ``DENSE_BLOCK_CAP``) by dense ``eigh``,
and the probe route (:func:`_probe_block`) takes the S_z = 0 block alone,
by dense ``eigh`` on those same lattices and above them by Lanczos from a
fixed start vector on its two flip sectors.  Dense blocks are not reduced,
because the printed goldens pin the bits of their direct ``eigh``.
Importing this module loads no scipy, and neither does a dense block: only
the Lanczos branch imports ``scipy.sparse`` and ``scipy.sparse.linalg``.
A spectrum keeps no block's eigenvectors but the three lowest of the
S_z = 0 block: right after its ``eigh``, :func:`full_spectrum` reduces each
block to its levels and probe correlator diagonals.
The T = 0 quantities read the S_z = 0 block alone, where every
integer-spin multiplet has one member (SU(2)), of a given spectrum or of
its own diagonalization, and total spin is verified through
<S^2> = S_z^2 + S_z + ||S^+ v||^2.  The probe correlator is applied as a
two-term gather, exact to the bit.  One Boltzmann average serves every
thermal correlator: one exponential over the levels of every block,
concatenated once per spectrum, summed block by block.  It refuses a
spectrum that does not store every level.

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
# The most states of a dense block, and of a lattice diagonalized densely (at
# most 12 spins); a larger lattice's S_z = 0 block goes through flip sectors.
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
        if a == b:
            raise DomainError(f"both probes sit on bath site {a}: they need two sites")
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


def _bond_pass(n: int, bonds, n_ups: tuple[int, ...]):
    """{n_up: (states, diagonal, terms)} of ``n`` spins and ``bonds``, for
    the blocks in ``n_ups``, in that order, from one pass over all their
    states.

    ``states`` are the block's sorted basis states and ``diagonal`` its
    diagonal, summed bond by bond in bond order: its floats, and so the
    printed eigenvalues, depend on that order.  ``terms`` holds, per spin
    pair in the order of its first bond, its flip-flop entries in the block,
    (at, weight): the ascending positions row * dim + column in the block,
    the column read from a table of every state's rank in its block, and
    half the weights of the pair's bonds, summed in bond order.  So no entry
    has two terms, and a dense block and the flip sectors give it the same
    bits.
    """
    flip = {}  # (i, j) -> the weights of its bonds, summed in bond order
    for i, j, w in bonds:
        pair = (min(i, j), max(i, j))
        flip[pair] = flip[pair] + w if pair in flip else w
    every = np.arange(1 << n, dtype=np.int64)
    pop = np.bitwise_count(every)
    blocks = {m: every[pop == m] for m in n_ups}
    states = np.concatenate(list(blocks.values()))
    dims = [len(sts) for sts in blocks.values()]
    cuts = np.cumsum(dims)[:-1]
    rank = np.zeros(1 << n, dtype=np.int64)
    for sts in blocks.values():
        rank[sts] = np.arange(len(sts))
    row_start = np.concatenate([np.arange(0, dim * dim, dim) for dim in dims])
    diagonal = np.zeros(len(states))
    terms = {m: [] for m in blocks}
    for i, j, w in bonds:
        differ = ((states >> i) ^ (states >> j)) & 1
        diagonal += np.where(differ, -0.25 * w, 0.25 * w)
        weight = flip.pop((min(i, j), max(i, j)), None)
        if weight is None:  # a later bond of a pair: its entries are in
            continue
        k = np.flatnonzero(differ)
        ends = [0, *np.searchsorted(k, cuts).tolist(), len(k)]
        at = row_start[k] + rank[states[k] ^ (1 << i) ^ (1 << j)]
        for m, lo, hi in zip(blocks, ends, ends[1:]):
            terms[m].append((at[lo:hi], 0.5 * weight))
    return {m: (sts, d, terms[m])
            for (m, sts), d in zip(blocks.items(), np.split(diagonal, cuts))}


def _assemble(n: int, bonds, n_ups: tuple[int, ...] | None = None):
    """Yield (n_up, states, H) of ``n`` spins and ``bonds`` block by block,
    for every block or those in ``n_ups``, in that order, each H a dense
    array of its own: each pair's flip-flop entries scattered in pair order
    (no entry twice), then the diagonal.

    A requested block of more than ``DENSE_BLOCK_CAP`` states raises
    ResourceError before any is built.  One :func:`_bond_pass` serves every
    block, and each H is built only when its block is reached, so a caller
    that drops it holds one block at a time.
    """
    n_ups = tuple(range(n + 1)) if n_ups is None else n_ups
    for m in n_ups:
        if math.comb(n, m) > DENSE_BLOCK_CAP:
            raise ResourceError(f"the block of {m} up spins out of {n} has {math.comb(n, m)} "
                                f"states; a dense block holds at most {DENSE_BLOCK_CAP}")
    for m, (sts, diagonal, terms) in _bond_pass(n, bonds, n_ups).items():
        block = [np.zeros((len(sts), len(sts)))]
        flat = block[0].reshape(-1)
        for at, weight in terms:
            flat[at] += weight
        np.fill_diagonal(block[0], diagonal)
        del flat
        # popped, so that this frame holds no reference to H while the
        # caller has it: the caller's ``del`` releases it
        yield m, sts, block.pop()


def _flip_sectors(diagonal: np.ndarray, terms) -> tuple[csr_matrix, csr_matrix]:
    """The F = +1 and F = -1 sectors A + B and A - B of an S_z = 0 block
    (:func:`_flip_sector_levels`), each as CSR from one COO build, with
    int32 indices, over the entries of the first half of its rows: the
    flip-flop entries of every pair whose weight is not zero, then the
    nonzero diagonal (the whole block is never built).

    F reverses the sorted basis, so A = H[:half, :half] and column c of B
    is column dim - 1 - c of the block.  The (row, col) pairs that A and B
    share are summed by the CSR build, which keeps a sum that is exactly
    zero.
    """
    from scipy.sparse import csr_matrix

    dim = len(diagonal)
    half = dim // 2
    on = np.flatnonzero(diagonal[:half])
    kept = [(at[:np.searchsorted(at, half * dim)], weight) for at, weight in terms if weight]
    # every position is below half * dim < 2**31 (at most 16 spins)
    rows, cols = np.divmod(np.concatenate([at for at, _ in kept] + [on * (dim + 1)],
                                          dtype=np.int32), dim)
    data = np.concatenate([np.full(len(at), weight) for at, weight in kept] + [diagonal[on]])
    right = cols >= half
    cols[right] = dim - 1 - cols[right]
    return tuple(csr_matrix((d, (rows, cols)), shape=(half, half))
                 for d in (data, np.where(right, -data, data)))


def build_hamiltonian(spec: LatticeSpec, blocks: tuple[int, ...] | None = None
                      ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per-S_z-block Hamiltonian of bath + probes, from one bond pass
    (:func:`_assemble`).

    Returns {n_up: (basis states, H_block)} for every block, or only for the
    n_up values in ``blocks``, each H a dense array of its own; a block of
    more than ``DENSE_BLOCK_CAP`` states raises ResourceError.  H commutes
    with total S_z by construction (only flip-flop terms appear off the
    diagonal).  The diagonalization routes do not hold every block at once:
    they take the blocks one by one from :func:`_assemble`.
    """
    return {m: (sts, h) for m, sts, h in _assemble(spec.n_total, spec.coupled_bonds(), blocks)}


def _apply_probe_correlator(spec: LatticeSpec, states: np.ndarray,
                            v: np.ndarray) -> np.ndarray:
    """tau_a . tau_b = 4 S_a . S_b applied to the rows of ``v`` (one block).

    Each row is +-1 times itself, plus twice the row of the probe-swapped
    state where the probes differ.  Both products are exact and the sum has
    two terms, so the floats equal those of the sparse operator's product.
    """
    pa, pb = spec.probe_indices
    k = np.flatnonzero(((states >> pa) ^ (states >> pb)) & 1)
    out = v.copy()
    out[k] = -v[k]
    out[k] += 2.0 * v[np.searchsorted(states, states[k] ^ (1 << pa) ^ (1 << pb))]
    return out


@dataclass(frozen=True)
class SpectrumResult:
    """Levels of some S_z blocks, keyed by the number of up spins.

    A block of :func:`full_spectrum` holds every level; the S_z = 0 block of
    the probe route (:func:`_probe_block`) holds its lowest three, of a dense
    ``eigh`` or merged from its two spin-flip sectors.  ``probe_diagonals``
    holds <k|tau_a . tau_b|k> of every level of every block of
    :func:`full_spectrum` (none on the probe route).  ``vectors`` and
    ``states`` hold the S_z = 0 block alone: its three lowest eigenvectors
    and its basis, which the T = 0 quantities read (nothing for an odd spin
    count).  The Boltzmann terms (the shifted
    levels of all blocks, concatenated, and each block's slice) are computed
    on first use and kept.
    """

    spec: LatticeSpec
    energies: dict[int, np.ndarray]
    probe_diagonals: dict[int, np.ndarray]
    vectors: dict[int, np.ndarray]
    states: dict[int, np.ndarray]

    @cached_property
    def boltzmann_terms(self) -> tuple[np.ndarray, list[tuple[slice, np.ndarray]]]:
        """What :func:`_boltzmann_average` reads at every beta: the levels of
        every block minus the ground energy, concatenated in stored order,
        and per block its slice of them with its probe diagonals."""
        e0 = min(float(e[0]) for e in self.energies.values())
        levels = np.concatenate(list(self.energies.values())) - e0
        ends = np.cumsum([len(es) for es in self.energies.values()]).tolist()
        return levels, [(slice(end - len(es), end), self.probe_diagonals[m])
                        for end, (m, es) in zip(ends, self.energies.items())]


def full_spectrum(spec: LatticeSpec) -> SpectrumResult:
    """Every level of every S_z block by dense ``eigh`` (total dim <= 4096,
    so no block exceeds ``DENSE_BLOCK_CAP``), one block at a time: each is
    built when reached (:func:`_assemble`), and its H is released after its
    ``eigh`` and its vectors once its probe diagonals are taken, but for the
    three lowest of the S_z = 0 block."""
    if (1 << spec.n_total) > DENSE_BLOCK_CAP:
        raise ResourceError(
            f"full spectrum needs total dim <= {DENSE_BLOCK_CAP}; "
            f"got {1 << spec.n_total}")
    energies, diagonals, vectors, states = {}, {}, {}, {}
    for m, sts, h in _assemble(spec.n_total, spec.coupled_bonds()):
        energies[m], v = np.linalg.eigh(h)
        del h  # gone before the next block is built
        diagonals[m] = np.einsum("ik,ik->k", v, _apply_probe_correlator(spec, sts, v))
        if 2 * m == spec.n_total:
            vectors[m], states[m] = v[:, :3].copy(order="K"), sts
    return SpectrumResult(spec, energies, diagonals, vectors, states)


def _flip_sector_levels(sectors: tuple[csr_matrix, csr_matrix],
                        k: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``k`` levels of an S_z = 0 block from its two F sectors.

    F = prod sigma^x commutes with H and reverses the sorted basis of the
    block, so with A = H[:half, :half] and B = H[:half, half:][:, ::-1] the
    F = +1 and F = -1 sectors are A + B and A - B (``sectors``, from
    :func:`_flip_sectors`), each diagonalized by ``eigsh``; their vectors
    expand back as [v; +-v[::-1]]/sqrt(2).
    Each sector converges ``k`` levels, so the lowest ``k`` of the merged
    levels are the block's lowest ``k``.  The probe singlet and triplet
    member fall in different sectors, so neither Krylov space has to resolve
    their splitting.
    """
    from scipy.sparse.linalg import eigsh

    ws, vs = [], []
    for sign, sector in zip((1.0, -1.0), sectors):
        # Lanczos starts from a fixed-seed vector, so repeated calls return
        # the same floats.  (A constant start vector would not do: in every
        # block it is the fully polarized S = n/2 eigenstate.)
        v0 = np.random.default_rng(0).standard_normal(sector.shape[0])
        w, v = eigsh(sector, k=min(k, sector.shape[0] - 1), which="SA", tol=1e-12, v0=v0)
        ws.append(w)
        vs.append(np.vstack([v, sign * v[::-1]]) / math.sqrt(2.0))
    w = np.concatenate(ws)
    order = np.argsort(w, kind="stable")[:k]
    return w[order], np.hstack(vs)[:, order]


def total_spin_expectation(n: int, m: int, vec: np.ndarray) -> float:
    """<S_tot^2> of a vector of the block of ``m`` up spins out of ``n`` (0
    for a singlet, 2 for a triplet), from the full O(n^2) pair operator as a
    dense block (ResourceError above ``DENSE_BLOCK_CAP`` states): the oracle
    for :func:`_spin_squared`."""
    pairs = tuple((i, j, 2.0) for i in range(n) for j in range(i + 1, n))
    ((_, _, op),) = _assemble(n, pairs, (m,))  # 2 sum_{i<j} S_i.S_j
    return float(vec @ (op @ vec)) + 0.75 * n


def _spin_squared(result: SpectrumResult, m: int, levels: tuple[int, ...]) -> list[float]:
    """<S_tot^2> = S_z^2 + S_z + ||S^+ v||^2 of the eigenvectors ``levels``
    of block m.

    S^+ = sum_i S_i^+ maps block m into block m + 1 with unit amplitudes:
    n vectorized bit flips instead of the n(n-1)/2 pair bonds.  S^+ v is
    indexed by the raised state itself (at most 2^n entries), so block
    m + 1 is neither enumerated nor searched.  The flips are worked out once
    for all ``levels``; each level is then one scatter.
    """
    n = result.spec.n_total
    sts = result.states[m]
    source = [np.flatnonzero(((sts >> i) & 1) == 0) for i in range(n)]
    target = np.concatenate([sts[down] | (1 << i) for i, down in enumerate(source)])
    source = np.concatenate(source)
    sz = m - 0.5 * n
    out = []
    for level in levels:
        raised = np.bincount(target, weights=result.vectors[m][:, level][source])
        out.append(sz * sz + sz + float(raised @ raised))
    return out


def _probe_block(spec: LatticeSpec, spectrum: SpectrumResult | None):
    """``spectrum`` (diagonalized now if None) and the n_up of its S_z = 0
    block.

    Every integer-spin multiplet has exactly one member at S_z = 0 (SU(2)),
    so the levels of that block alone are the distinct levels of the
    lattice: the ground singlet, the probe triplet and the next level are
    its three lowest.  A new diagonalization builds only this block and
    keeps those three levels and their vectors: by dense ``eigh`` where
    :func:`full_spectrum` would hold the lattice (at most 12 spins), above
    it from its spin-flip sectors (:func:`_flip_sector_levels`).
    """
    if spec.n_total % 2:
        raise SectorAmbiguityError(
            f"{spec.n_total} spins have half-integer total spin: no probe singlet")
    mid = spec.n_total // 2
    if spectrum is None:
        bonds = spec.coupled_bonds()
        if 1 << spec.n_total <= DENSE_BLOCK_CAP:
            ((_, sts, h),) = _assemble(spec.n_total, bonds, (mid,))
            w, v = np.linalg.eigh(h)
        else:  # the whole block is never built, only its two flip sectors
            ((sts, diagonal, terms),) = _bond_pass(spec.n_total, bonds, (mid,)).values()
            sectors = _flip_sectors(diagonal, terms)
            del diagonal, terms  # released before Lanczos: 0.9 MiB at 16 spins
            w, v = _flip_sector_levels(sectors, 3)
        # order "K" keeps the sectors' column-major layout: the dot product
        # of a column rounds differently at another stride
        spectrum = SpectrumResult(spec, {mid: w[:3]}, {}, {mid: v[:, :3].copy(order="K")},
                                  {mid: sts})
    return spectrum, mid


def low_spectrum_jcan(spec: LatticeSpec,
                      spectrum: SpectrumResult | None = None) -> tuple[float, float]:
    """(J_can_exact, robust gap): singlet-triplet splitting and the gap from
    the triplet to the first level outside the 4-dimensional probe sector.

    Levels come from the S_z = 0 block of ``spectrum`` when given, else of
    a new diagonalization of that block alone (:func:`_probe_block`).  Its
    lowest level must be a singlet (<S_tot^2> = 0) and its next a triplet
    (<S_tot^2> = 2), each apart from its neighbours by more than
    ``DEGENERACY_TOL``; the third gives the robust gap.
    """
    if spec.alpha <= 0:
        raise DomainError("probe coupling alpha must be > 0 for the probe gap")
    spectrum, m0 = _probe_block(spec, spectrum)
    e0, e_t, e_rest = map(float, spectrum.energies[m0][:3])
    s2_ground, s2 = _spin_squared(spectrum, m0, (0, 1))
    if abs(s2_ground) > 1e-6:
        raise SectorAmbiguityError("ground state is not a total-spin singlet")
    if e_t - e0 < DEGENERACY_TOL:
        raise SectorAmbiguityError("degenerate ground state")
    if abs(s2 - 2.0) > 1e-6:
        raise SectorAmbiguityError(f"first excited level is not a triplet: <S^2> = {s2}")
    if e_rest - e_t < DEGENERACY_TOL:
        raise SectorAmbiguityError("low sector larger than singlet + triplet")
    return e_t - e0, e_rest - e_t


def ground_state_correlator(spec: LatticeSpec,
                            spectrum: SpectrumResult | None = None) -> float:
    """<tau_a . tau_b> in the lowest level of the S_z = 0 block (of
    ``spectrum`` if given), as in :func:`low_spectrum_jcan`."""
    spectrum, m0 = _probe_block(spec, spectrum)
    vec = spectrum.vectors[m0][:, 0]
    return float(vec @ _apply_probe_correlator(spec, spectrum.states[m0], vec))


def _boltzmann_average(spectrum: SpectrumResult, betas) -> np.ndarray:
    """Probe correlator averaged over every level of every block: one
    exponential over all levels, whose slices are summed block by block in
    stored order, as one exponential per block would be.

    A beta that is NaN, infinite or negative raises DomainError; a spectrum
    that does not store all 2^n levels (the probe route's, or one missing a
    block) raises TruncationError.
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    bad = betas[~(np.isfinite(betas) & (betas >= 0.0))]
    if bad.size:
        raise DomainError(f"beta must be finite and >= 0; got {bad[0]}")
    stored = sum(len(es) for es in spectrum.energies.values())
    if stored < 1 << spectrum.spec.n_total:
        raise TruncationError(f"thermal average needs all {1 << spectrum.spec.n_total} "
                              f"levels; the spectrum stores {stored}")
    levels, blocks = spectrum.boltzmann_terms
    w = np.exp(-np.outer(betas, levels))
    num, den = np.zeros_like(betas), np.zeros_like(betas)
    for sl, diagonals in blocks:
        num += w[:, sl] @ diagonals
        den += w[:, sl].sum(axis=1)
    return num / den


def thermal_correlator_exact(spec: LatticeSpec, betas,
                             spectrum: SpectrumResult | None = None) -> np.ndarray:
    """<tau_a . tau_b>(beta) from the full blockwise spectrum (``spectrum``,
    whose Boltzmann terms are kept across calls, or a new one).  Energies
    are shifted by the ground energy, so any finite beta >= 0 is safe."""
    return _boltzmann_average(full_spectrum(spec) if spectrum is None else spectrum, betas)


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
    ((_, states, h),) = _assemble(spec.n_bath, spec.bonds, (m0,))
    w, v = np.linalg.eigh(h)
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
