import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qcb import ed
from qcb.exceptions import (
    DegenerateSystemError,
    DomainError,
    ResourceError,
    SectorAmbiguityError,
    TruncationError,
)
from qcb.ed import (
    LatticeSpec,
    SpectrumResult,
    _apply_probe_correlator,
    _boltzmann_average,
    _probe_block,
    _spin_squared,
    build_hamiltonian,
    chain,
    chi_lehman_and_phi,
    default_temperature_grid,
    full_spectrum,
    ground_state_correlator,
    ladder,
    low_spectrum_jcan,
    theory_consistency_report,
    thermal_correlator_exact,
    total_spin_expectation,
)

# reference geometry: probes on the boundary-adjacent sites of an 8-site
# chain; probes dangling off the raw chain ends pick up a large third-order
# boundary correction that leaves the perturbative window at alpha = 0.05
ACCEPT = dict(length=8, probes=(1, 6))

# 16 spins: a 14-site chain whose bond 5-6 is listed twice, plus a pair 3-5
# whose two bonds cancel, so that its flip-flop entries and diagonal terms
# sum to exactly zero; 1164 states of the S_z = 0 block have a zero diagonal
REPEATED_BONDS = LatticeSpec(
    14, tuple((i, i + 1, 1.0) for i in range(13)) + ((5, 6, 1.0), (3, 5, 0.5), (3, 5, -0.5)),
    (1, 12), 0.05, "repeated bonds")


def dense_hamiltonian(spec):
    n = spec.n_total
    dim = 1 << n
    h = np.zeros((dim, dim))
    for i, j, w in spec.coupled_bonds():
        for s in range(dim):
            bi, bj = (s >> i) & 1, (s >> j) & 1
            if bi == bj:
                h[s, s] += 0.25 * w
            else:
                h[s, s] -= 0.25 * w
                h[s ^ (1 << i) ^ (1 << j), s] += 0.5 * w
    return h


def block_states(n, n_up):
    """Sorted basis states with ``n_up`` of ``n`` spins up."""
    return np.array([s for s in range(1 << n) if bin(s).count("1") == n_up], dtype=np.int64)


def bond_terms(bonds, states):
    """Heisenberg terms of one S_z block, found by ``searchsorted`` within the
    block: the diagonal summed bond by bond in bond order, and per bond the
    (rows, columns, value) of its flip-flop entries."""
    diag = np.zeros(len(states))
    flips = []
    for i, j, w in bonds:
        differ = ((states >> i) ^ (states >> j)) & 1
        diag += np.where(differ, -0.25 * w, 0.25 * w)
        k = np.flatnonzero(differ)
        flips.append((k, np.searchsorted(states, states[k] ^ (1 << i) ^ (1 << j)), 0.5 * w))
    return diag, flips


def dense_block(bonds, states):
    """One block as a numpy array, assembled on its own: the oracle for the
    dense blocks of :func:`build_hamiltonian`."""
    dim = len(states)
    diag, flips = bond_terms(bonds, states)
    h = np.zeros((dim, dim))
    flat = h.reshape(-1)
    for rows, cols, val in flips:
        flat[rows * dim + cols] += val
    flat[::dim + 1] = diag
    return h


def sparse_block(bonds, states):
    """One block as CSR, from the same terms as :func:`dense_block`: the
    whole block that the flip sectors are cut from (:func:`flip_sectors`),
    and the oracle's pair operator above ``DENSE_BLOCK_CAP`` states."""
    from scipy.sparse import csr_matrix

    dim = len(states)
    diag, flips = bond_terms(bonds, states)
    rows = np.concatenate([r for r, _, _ in flips])
    cols = np.concatenate([c for _, c, _ in flips])
    vals = np.concatenate([np.full(len(r), v) for r, _, v in flips])
    h = csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    h += csr_matrix((diag, (np.arange(dim), np.arange(dim))), shape=(dim, dim))
    return h


def flip_sectors(h):
    """A + B and A - B of an S_z = 0 block's CSR ``h``, with
    A = H[:half, :half] and B = H[:half, half:][:, ::-1]: the first half of
    rows through COO, B's columns mirrored, and the (row, col) pairs that A
    and B share summed by the CSR build.  The oracle for the sectors that
    :func:`ed._flip_sectors` builds without the whole block."""
    from scipy.sparse import csr_matrix

    half = h.shape[0] // 2
    top = h[:half].tocoo()
    right = top.col >= half
    cols = np.where(right, h.shape[0] - 1 - top.col, top.col)
    return tuple(csr_matrix((np.where(right, sign * top.data, top.data), (top.row, cols)),
                            shape=(half, half)) for sign in (1.0, -1.0))


def bond_pass_sectors(spec, m):
    """The flip sectors of block ``m`` of ``spec``, as the probe route
    builds them: from the bond pass, without the whole block."""
    ((_, diagonal, terms),) = ed._bond_pass(spec.n_total, spec.coupled_bonds(), (m,)).values()
    return ed._flip_sectors(diagonal, terms)


def same_arrays(got, want):
    """Whether two blocks hold the same bits: arrays of one dtype and shape,
    or CSR matrices with the same ``indptr``, ``indices`` and ``data``."""
    if isinstance(want, np.ndarray):
        return (isinstance(got, np.ndarray) and got.shape == want.shape
                and got.dtype == want.dtype and got.tobytes() == want.tobytes())
    return all(getattr(got, part).dtype == getattr(want, part).dtype
               and getattr(got, part).tobytes() == getattr(want, part).tobytes()
               for part in ("indptr", "indices", "data"))


def sparse_spin_squared(n, m, vec):
    """<S_tot^2> of a vector of the block of ``m`` up spins out of ``n``,
    from the O(n^2) pair operator as CSR (:func:`sparse_block`): the oracle
    for :func:`_spin_squared` where :func:`total_spin_expectation` refuses
    the block, above ``DENSE_BLOCK_CAP`` states."""
    pairs = tuple((i, j, 2.0) for i in range(n) for j in range(i + 1, n))
    op = sparse_block(pairs, block_states(n, m))  # 2 sum_{i<j} S_i.S_j
    return float(vec @ (op @ vec)) + 0.75 * n


def boltzmann_average_per_block(spectrum, betas):
    """The probe correlator averaged with one exponential per block, summed
    block by block in stored order: the oracle for
    :func:`_boltzmann_average`."""
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    e0 = min(float(e[0]) for e in spectrum.energies.values())
    num, den = np.zeros_like(betas), np.zeros_like(betas)
    for m, es in spectrum.energies.items():
        w = np.exp(-np.outer(betas, es - e0))
        num += w @ spectrum.probe_diagonals[m]
        den += w.sum(axis=1)
    return num / den


def plain_lanczos(h, k=8):
    """Lowest k levels of a whole S_z block by eigsh, with no spin-flip
    sectors: the oracle for the probe route's Lanczos branch."""
    from scipy.sparse.linalg import eigsh

    v0 = np.random.default_rng(1).standard_normal(h.shape[0])
    return np.sort(eigsh(h, k=k, which="SA", tol=1e-12, v0=v0,
                         return_eigenvectors=False))


def every_vector_spectrum(spec):
    """Every block of ``spec`` by its own ``eigh``, every eigenvector kept,
    and the probe diagonals taken from all of them: the oracle for what
    :func:`full_spectrum` keeps of each block."""
    energies, vectors, states = {}, {}, {}
    for m, (sts, h) in build_hamiltonian(spec).items():
        energies[m], vectors[m] = np.linalg.eigh(h)
        states[m] = sts
    diagonals = {m: np.einsum("ik,ik->k", v, _apply_probe_correlator(spec, states[m], v))
                 for m, v in vectors.items()}
    return SpectrumResult(spec, energies, diagonals, vectors, states)


def all_levels(result):
    """Sorted (energy, n_up, index) of the stored levels of every block."""
    return sorted((float(e), m, k) for m, es in result.energies.items()
                  for k, e in enumerate(es))


def chi_resolvent(spec):
    """chi via a linear solve, (E_0 - H) x = Q S_B^z |0>: an eigenbasis-free
    oracle for :func:`chi_lehman_and_phi`."""
    m0 = spec.n_bath // 2
    states = block_states(spec.n_bath, m0)
    h = dense_block(spec.bonds, states)
    w, v = np.linalg.eigh(h)
    a, b = spec.probe_sites
    za = np.where((states >> a) & 1, 0.5, -0.5)
    zb = np.where((states >> b) & 1, 0.5, -0.5)
    psi0 = v[:, 0]
    rhs = zb * psi0
    rhs = rhs - psi0 * (psi0 @ rhs)
    x, *_ = np.linalg.lstsq(w[0] * np.eye(len(w)) - h, rhs, rcond=None)
    x = x - psi0 * (psi0 @ x)
    return 2.0 * float((za * psi0) @ x)


class TestHamiltonian:
    def test_two_site_spectrum(self):
        # decoupled probes (alpha = 0): the spectrum is the bare two-site pair
        # {-3J/4 singlet, +J/4 triplet} times 4 free probe states
        blocks = build_hamiltonian(LatticeSpec(n_bath=2, bonds=((0, 1, 1.0),),
                                               probe_sites=(0, 1), alpha=0.0))
        eigs = np.sort(np.concatenate(
            [np.linalg.eigvalsh(h) for _, h in blocks.values()]))
        assert np.allclose(eigs[:4], -0.75, atol=1e-12)
        assert np.allclose(eigs[4:], 0.25, atol=1e-12)

    def test_commutes_with_total_sz(self):
        spec = chain(6, alpha=0.1)
        h = dense_hamiltonian(spec)
        dim = h.shape[0]
        sz = np.array([sum(((s >> i) & 1) - 0.5 for i in range(spec.n_total))
                       for s in range(dim)])
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = rng.normal(size=dim)
            assert np.max(np.abs(h @ (sz * v) - sz * (h @ v))) < 1e-12

    def test_blocked_matches_dense(self):
        spec = chain(6, alpha=0.1)
        dense = np.sort(np.linalg.eigvalsh(dense_hamiltonian(spec)))
        blocked = np.sort(np.concatenate(
            [e for e in full_spectrum(spec).energies.values()]))
        assert np.max(np.abs(dense - blocked)) < 1e-10

    def test_blocks_equal_dense_oracle(self):
        for spec in (chain(10, alpha=0.05), ladder(4, alpha=0.05)):
            dense = dense_hamiltonian(spec)
            blocks = build_hamiltonian(spec)
            assert len(blocks) == spec.n_total + 1
            for sts, h in blocks.values():
                assert isinstance(h, np.ndarray)
                assert np.array_equal(h, dense[np.ix_(sts, sts)])
            mid = spec.n_total // 2
            subset = build_hamiltonian(spec, blocks=(mid, mid + 1))
            assert list(subset) == [mid, mid + 1]
            for m, (sts, h) in subset.items():
                assert np.array_equal(sts, blocks[m][0])
                assert np.array_equal(h, blocks[m][1])

    def test_dense_block_equals_sparse_builder(self):
        # the same terms summed in the same order: equal to the bit, also
        # where a bond is listed twice and its flip-flop entries add up
        doubled = LatticeSpec(n_bath=4, bonds=((0, 1, 1.0), (1, 2, 0.7), (1, 2, 0.3),
                                               (2, 3, 1.0)), probe_sites=(0, 3), alpha=0.05)
        for spec in (chain(10, alpha=0.05), chain(8, alpha=0.05, probes=(1, 6)),
                     chain(6, alpha=0.1), ladder(4, alpha=0.05), doubled):
            bonds = spec.coupled_bonds()
            for sts in (block_states(spec.n_total, m) for m in range(spec.n_total + 1)):
                assert np.array_equal(dense_block(bonds, sts),
                                      sparse_block(bonds, sts).toarray())

    def test_pair_listed_three_times_gives_one_set_of_bits(self):
        # 10 spins, every bath pair bonded and 0-1 listed three times with
        # weights 0.1, 0.2 and 0.3, whose sum depends on its order: the bond
        # pass sums them once, in bond order, so the flip sectors of the
        # 252-state block hold the bits of A +- B cut from its dense block,
        # and that block those of the per-bond oracle
        bonds = tuple((i, j, 0.1 if (i, j) == (0, 1) else 1.0)
                      for i, j in itertools.combinations(range(8), 2))
        spec = LatticeSpec(8, bonds + ((0, 1, 0.2), (1, 0, 0.3)), (1, 6), 0.05)
        ((sts, diagonal, terms),) = ed._bond_pass(10, spec.coupled_bonds(), (5,)).values()
        assert len(sts) == 252 and len(terms) == 28 + 2
        ((_, _, dense),) = ed._assemble(10, spec.coupled_bonds(), (5,))
        a, b = dense[:126, :126], dense[:126, 126:][:, ::-1]
        for sector, cut in zip(ed._flip_sectors(diagonal, terms), (a + b, a - b)):
            assert same_arrays(sector.toarray(), cut)
        assert same_arrays(dense, dense_block(spec.coupled_bonds(), sts))

    def test_one_pass_blocks_equal_per_block_oracle(self):
        # every block, or a subset in any order, equal to the bit to the same
        # block assembled on its own; the doubled bond adds up its flip-flop
        # entries in bond order, as do those of REPEATED_BONDS (16 spins,
        # whose blocks of at most 4 or at least 12 up spins are dense)
        doubled = LatticeSpec(n_bath=4, bonds=((0, 1, 1.0), (1, 2, 0.7), (1, 2, 0.3),
                                               (2, 3, 1.0)), probe_sites=(0, 3), alpha=0.05)
        cases = [(REPEATED_BONDS, (3, 14, 1))]
        for spec in (chain(10, alpha=0.05, probes=(1, 8)), chain(8, alpha=0.05, probes=(1, 6)),
                     ladder(4, alpha=0.05), doubled):
            mid = spec.n_total // 2
            cases += [(spec, None), (spec, (mid,)), (spec, (mid + 1, 0, mid - 1))]
        for spec, blocks in cases:
            bonds = spec.coupled_bonds()
            built = build_hamiltonian(spec, blocks)
            assert list(built) == list(blocks or range(spec.n_total + 1))
            for m, (sts, h) in built.items():
                assert np.array_equal(sts, block_states(spec.n_total, m))
                assert isinstance(h, np.ndarray)
                assert np.array_equal(h, dense_block(bonds, sts))

    def test_sixteen_spin_blocks_are_dense_or_refused(self):
        # 16 spins: the blocks of 4 and 3 up spins (1820 and 560 states) are
        # dense and hold the oracle's bits; a whole block above the cap (the
        # 12,870 states of S_z = 0) is refused, for the pair operator too.
        # The sectors drop the zero diagonal of REPEATED_BONDS' S_z = 0 block
        # as the oracle's CSR does (test_flip_sectors_equal_cut_from_whole_block)
        for spec in (chain(14, alpha=0.05, probes=(1, 12)), ladder(7, alpha=0.05),
                     REPEATED_BONDS):
            bonds = spec.coupled_bonds()
            built = build_hamiltonian(spec, (4, 3))
            assert list(built) == [4, 3]
            for m, (sts, h) in built.items():
                assert np.array_equal(sts, block_states(spec.n_total, m))
                assert same_arrays(h, dense_block(bonds, sts)), (spec.label, m)
            for blocks in ((8,), (4, 7), None):
                with pytest.raises(ResourceError, match="up spins out of 16 has [0-9]+ states"):
                    build_hamiltonian(spec, blocks)
        with pytest.raises(ResourceError, match="12870 states"):
            total_spin_expectation(16, 8, np.zeros(12870))
        ((_, diagonal, _),) = ed._bond_pass(16, REPEATED_BONDS.coupled_bonds(), (8,)).values()
        assert np.count_nonzero(diagonal == 0) == 1164

    def test_probe_correlator_gather_equals_sparse_product(self):
        for spec in (chain(10, alpha=0.05, probes=(1, 8)), chain(8, alpha=0.05, probes=(1, 6)),
                     chain(6, alpha=0.1), ladder(4, alpha=0.05)):
            result = every_vector_spectrum(spec)
            pa, pb = spec.probe_indices
            for m, vecs in result.vectors.items():
                sts = result.states[m]
                op = sparse_block(((pa, pb, 4.0),), sts)
                assert np.array_equal(_apply_probe_correlator(spec, sts, vecs), op @ vecs)
                assert np.array_equal(_apply_probe_correlator(spec, sts, vecs[:, 0]),
                                      op @ vecs[:, 0])

    def test_sign_flip_rebuild(self):
        spec = chain(4, alpha=0.07)
        flipped = LatticeSpec(n_bath=4, bonds=spec.bonds,
                              probe_sites=spec.probe_sites, alpha=-0.07)
        assert spec.coupled_bonds()[-1][2] == -flipped.coupled_bonds()[-1][2]
        e1 = np.sort(np.concatenate(
            [e for e in full_spectrum(flipped).energies.values()]))
        rebuilt = LatticeSpec(n_bath=4, bonds=spec.bonds,
                              probe_sites=spec.probe_sites, alpha=-0.07)
        e2 = np.sort(np.concatenate(
            [e for e in full_spectrum(rebuilt).energies.values()]))
        assert np.array_equal(e1, e2)

    def test_size_cap(self):
        # 10^12 bonds would not fit in memory: the cap comes before any bond
        for make, length in ((chain, 15), (chain, 10**12), (ladder, 10**12)):
            with pytest.raises(ResourceError):
                make(length, alpha=0.05)

    def test_coincident_probe_sites_refused(self):
        for make in (lambda: chain(8, alpha=0.01, probes=(3, 3)),
                     lambda: ladder(4, alpha=0.05, probes=(2, 2)),
                     lambda: LatticeSpec(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)), (0, 0), 0.05)):
            with pytest.raises(DomainError, match="both probes"):
                make()

    def test_ladder_geometry(self):
        spec = ladder(3, alpha=0.05)
        assert spec.n_bath == 6
        assert len(spec.bonds) == 2 * 2 + 3  # two legs of 2 bonds + 3 rungs


class TestLowSpectrum:
    def test_fourfold_degeneracy_at_zero_coupling(self):
        spec = LatticeSpec(n_bath=6, bonds=tuple((i, i + 1, 1.0) for i in range(5)),
                           probe_sites=(0, 5), alpha=0.0)
        levels = all_levels(full_spectrum(spec))
        e0 = levels[0][0]
        degenerate = [lv for lv in levels if lv[0] - e0 < 1e-9]
        assert len(degenerate) == 4

    def test_singlet_triplet_identification(self):
        spec = chain(**ACCEPT, alpha=0.05)
        j_can, gap = low_spectrum_jcan(spec)
        assert j_can > 0.0
        assert gap > 5.0 * j_can  # robust-gap property
        result = every_vector_spectrum(spec)
        (_, m0, k0), (_, m1, k1) = all_levels(result)[:2]
        n = spec.n_total
        assert abs(total_spin_expectation(n, m0, result.vectors[m0][:, k0])) < 1e-8
        assert abs(total_spin_expectation(n, m1, result.vectors[m1][:, k1]) - 2.0) < 1e-8

    def test_given_spectrum_matches_central_blocks(self):
        # both routes read the same central blocks, so the floats agree exactly
        for spec in (chain(10, alpha=0.05, probes=(1, 8)), chain(**ACCEPT, alpha=0.05),
                     chain(8, alpha=0.05), chain(6, alpha=0.1, probes=(1, 4)),
                     ladder(4, alpha=0.05)):
            spectrum = full_spectrum(spec)
            assert low_spectrum_jcan(spec) == low_spectrum_jcan(spec, spectrum=spectrum)
            assert ground_state_correlator(spec) == ground_state_correlator(spec, spectrum)

    def test_raising_operator_spin_check_matches_pair_operator(self):
        # 16 spins, the S_z = 0 block through Lanczos: the ground singlet,
        # the probe triplet member and the next level, one call each
        spec = chain(14, alpha=0.05, probes=(1, 12))
        result, mid = _probe_block(spec, None)
        s2 = [_spin_squared(result, mid, (k,))[0] for k in range(3)]
        oracle = [sparse_spin_squared(spec.n_total, mid, result.vectors[mid][:, k])
                  for k in range(3)]
        assert np.max(np.abs(np.subtract(s2, oracle))) < 1e-9
        assert np.max(np.abs(np.subtract(s2[:2], [0.0, 2.0]))) < 1e-6

    def test_spin_check_of_several_levels_matches_pair_operator(self):
        # one call per block for all its stored levels: a 10-spin lattice
        # (dense, every block with every vector) and the 16-spin S_z = 0
        # block (Lanczos, its pair operator as CSR)
        for result, oracle_of in (
                (every_vector_spectrum(chain(8, alpha=0.05, probes=(1, 6))),
                 total_spin_expectation),
                (_probe_block(chain(14, alpha=0.05, probes=(1, 12)), None)[0],
                 sparse_spin_squared)):
            spec = result.spec
            for m, energies in result.energies.items():
                levels = tuple(range(min(len(energies), 6)))
                s2 = _spin_squared(result, m, levels)
                oracle = [oracle_of(spec.n_total, m, result.vectors[m][:, k]) for k in levels]
                assert np.max(np.abs(np.subtract(s2, oracle))) < 1e-9, (spec.label, m)

    def test_flip_sectors_and_mirror_match_plain_lanczos(self):
        # 16 spins: the S_z = 0 block through its two F sectors against eigsh
        # of the whole block
        spec = chain(14, alpha=0.05, probes=(1, 12))
        result, mid = _probe_block(spec, None)
        sts = block_states(spec.n_total, mid)
        h = sparse_block(spec.coupled_bonds(), sts)
        assert np.array_equal(result.states[mid], sts)
        assert len(result.energies[mid]) == 3
        assert np.max(np.abs(result.energies[mid] - plain_lanczos(h)[:3])) < 1e-10
        vecs = result.vectors[mid]
        assert np.max(np.abs(h @ vecs - vecs * result.energies[mid])) < 1e-10
        # kept as the sectors return them, layout too, which the bits of the
        # ground correlator's dot product depend on
        w, v = ed._flip_sector_levels(flip_sectors(h), 3)
        assert np.array_equal(vecs, v) and vecs.strides == v.strides
        # F mirrors the block onto itself: H = J H J entry for entry, J the
        # order reversal, which the sector split A +- B relies on
        rev = np.arange(len(sts))[::-1]
        assert (h - h[rev][:, rev]).count_nonzero() == 0

    @pytest.mark.parametrize("spec", [chain(14, alpha=0.05, probes=(1, 12)),
                                      ladder(7, alpha=0.05), REPEATED_BONDS],
                             ids=["chain14", "ladder7", "repeated-bonds"])
    def test_flip_sectors_equal_cut_from_whole_block(self, spec):
        # 16 spins: the sectors built from the first half of the S_z = 0
        # block's rows hold the arrays of those cut from the whole block's
        # CSR, so Lanczos returns the same vectors, strides included, and the
        # probe gap and ground correlator the same floats; the ladder's
        # probes sit on one sublattice, and both routes find a ground state
        # with <S^2> = 2 there
        mid = spec.n_total // 2
        sts = block_states(spec.n_total, mid)
        want = flip_sectors(sparse_block(spec.coupled_bonds(), sts))
        for sector, oracle in zip(bond_pass_sectors(spec, mid), want):
            assert same_arrays(sector, oracle)
        w, v = ed._flip_sector_levels(want, 3)
        old = SpectrumResult(spec, {mid: w}, {}, {mid: v[:, :3].copy(order="K")}, {mid: sts})
        new, _ = _probe_block(spec, None)
        assert np.array_equal(new.energies[mid], old.energies[mid])
        assert np.array_equal(new.vectors[mid], old.vectors[mid])
        assert new.vectors[mid].strides == old.vectors[mid].strides
        assert _spin_squared(new, mid, (0, 1, 2)) == _spin_squared(old, mid, (0, 1, 2))
        assert ground_state_correlator(spec, new) == ground_state_correlator(spec, old)
        if spec.label.startswith("ladder"):
            with pytest.raises(SectorAmbiguityError, match="not a total-spin singlet"):
                low_spectrum_jcan(spec)
        else:
            assert low_spectrum_jcan(spec) == low_spectrum_jcan(spec, old)

    def test_flip_sectors_keep_cancelled_entries(self):
        # 4 spins, the sectors of the S_z = 0 block: the probe bonds flip
        # complementary spin pairs, so A and B share entries, and A - B
        # keeps the two where they cancel, as the cut from the whole block
        # does
        spec = LatticeSpec(2, ((0, 1, 1.0),), (0, 1), 0.5)
        got = bond_pass_sectors(spec, 2)
        want = flip_sectors(sparse_block(spec.coupled_bonds(), block_states(4, 2)))
        for sector, oracle in zip(got, want):
            assert same_arrays(sector, oracle)
        assert np.count_nonzero(got[0].data == 0) == 0
        assert np.count_nonzero(got[1].data == 0) == 2

    def test_reduced_lanczos_route_matches_dense(self, monkeypatch):
        # a cap of 100 sends the 252-state S_z = 0 block of 10 spins through
        # the sectors; 9 spins have no S_z = 0 block
        even, odd = chain(8, alpha=0.05, probes=(1, 6)), chain(7, alpha=0.05, probes=(1, 5))
        want = (low_spectrum_jcan(even), ground_state_correlator(even))
        full = full_spectrum(even)
        monkeypatch.setattr(ed, "DENSE_BLOCK_CAP", 100)
        j_can, gap = low_spectrum_jcan(even)
        assert abs(j_can - want[0][0]) < 1e-10 and abs(gap - want[0][1]) < 1e-10
        assert abs(ground_state_correlator(even) - want[1]) < 1e-10
        reduced, mid = _probe_block(even, None)
        assert list(reduced.energies) == [mid]
        assert np.array_equal(reduced.states[mid], full.states[mid])
        assert len(reduced.energies[mid]) == 3
        assert np.max(np.abs(reduced.energies[mid] - full.energies[mid][:3])) < 1e-10
        for quantity in (low_spectrum_jcan, ground_state_correlator):
            with pytest.raises(SectorAmbiguityError):
                quantity(odd)

    def test_repeated_lanczos_probe_gap_is_bit_identical(self):
        spec = chain(14, alpha=0.05, probes=(1, 12))
        assert low_spectrum_jcan(spec) == low_spectrum_jcan(spec)

    def test_jcan_perturbative_scaling(self):
        spec0 = chain(**ACCEPT, alpha=0.001)
        chi, _ = chi_lehman_and_phi(spec0)
        r1 = low_spectrum_jcan(chain(**ACCEPT, alpha=0.01))[0] / (4 * 0.01**2 * chi)
        r2 = low_spectrum_jcan(chain(**ACCEPT, alpha=0.02))[0] / (4 * 0.02**2 * chi)
        assert abs(r1 / r2 - 1.0) < 0.02
        assert abs(r1 - 1.0) < 0.02

    def test_end_attachment_has_large_third_order_term(self):
        # dangling-end probes: J_can/(4 (J a)^2 chi) - 1 grows ~ 7 alpha and
        # reaches ~35 % at alpha = 0.05 (reference values frozen from the
        # eigensolver; this is why the acceptance geometry avoids raw ends)
        spec0 = chain(8, alpha=0.001, probes="ends")
        chi, _ = chi_lehman_and_phi(spec0)
        j_can = low_spectrum_jcan(chain(8, alpha=0.05, probes="ends"))[0]
        assert abs(j_can - 3.642852318216594e-3) < 1e-12  # frozen golden value
        assert abs(j_can / (4 * 0.05**2 * chi) - 1.348) < 0.01

    def test_requires_positive_alpha(self):
        with pytest.raises(DomainError):
            low_spectrum_jcan(chain(4, alpha=0.0))

    def test_odd_total_spin_has_no_singlet(self):
        # 13-site bath + 2 probes = 15 spins: half-integer total spin, so the
        # singlet/triplet sector cannot exist and identification must refuse
        with pytest.raises(SectorAmbiguityError):
            low_spectrum_jcan(chain(13, alpha=0.05, probes=(1, 11)))
        spec = chain(5, alpha=0.05)  # 7 spins, on the given-spectrum route too
        for quantity in (low_spectrum_jcan, ground_state_correlator):
            for spectrum in (None, full_spectrum(spec)):
                with pytest.raises(SectorAmbiguityError):
                    quantity(spec, spectrum)

    @pytest.mark.parametrize("cap", [ed.DENSE_BLOCK_CAP, 50], ids=["dense", "lanczos"])
    def test_probe_sector_refusals(self, monkeypatch, cap):
        # a bath chain 0-3 carries the probes (J_can = 0.00466); sites 4.. add
        # levels of their own: a ferromagnetic chain has a ground multiplet
        # with S > 0, a frustrated plaquette puts a singlet below the probe
        # triplet, and a dimer with gap J_can a second triplet beside it
        probe_bonds = ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))
        j_can = low_spectrum_jcan(LatticeSpec(4, probe_bonds, (0, 3), 0.05))[0]
        j1 = 1.0 - j_can / 4.0
        plaquette = ((4, 5, j1), (5, 6, j1), (6, 7, j1), (7, 4, j1), (4, 6, 1.0), (5, 7, 1.0))
        cases = [
            (LatticeSpec(6, tuple((i, i + 1, -1.0) for i in range(5)), (0, 5), 0.05),
             "ground state is not a total-spin singlet"),
            (LatticeSpec(8, probe_bonds + plaquette, (0, 3), 0.05),
             "first excited level is not a triplet"),
            (LatticeSpec(6, probe_bonds + ((4, 5, j_can),), (0, 3), 0.05),
             "low sector larger than singlet"),
        ]
        monkeypatch.setattr(ed, "DENSE_BLOCK_CAP", cap)
        for spec, reason in cases:
            mid = spec.n_total // 2
            assert len(_probe_block(spec, None)[0].energies[mid]) == 3
            with pytest.raises(SectorAmbiguityError, match=reason):
                low_spectrum_jcan(spec)

    def test_fourteen_spin_probe_gap_takes_the_sectors(self):
        # 14 spins exceed full_spectrum's lattice, so the 3432-state S_z = 0
        # block goes through its flip sectors, not a dense eigh (180 MiB)
        import scipy.sparse.linalg  # noqa: F401  (its import is not the route's)

        spec = chain(12, alpha=0.05, probes=(1, 10))
        tracemalloc.start()
        try:
            result, mid = _probe_block(spec, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.energies[mid]) == 3
        h = sparse_block(spec.coupled_bonds(), block_states(spec.n_total, mid))
        assert h.shape == (3432, 3432)
        assert np.max(np.abs(result.energies[mid] - plain_lanczos(h)[:3])) < 1e-10
        assert peak < 10 * (1 << 20)

    def test_desk_scale_cap_uses_lanczos_blocks(self):
        # 16 spins: the S_z = 0 block exceeds the dense cap and goes through
        # the iterative path; the probe sector must still come out clean
        spec = chain(14, alpha=0.05, probes=(1, 12))
        j_can, gap = low_spectrum_jcan(spec)
        assert abs(j_can - 7.808983e-4) < 1e-9  # frozen from this solver
        assert gap > 5.0 * j_can

    def test_probe_gap_builds_no_whole_block(self):
        # 16 spins: the flip sectors come from the first half of the S_z = 0
        # block's rows, and its whole CSR is never built; the peak, 4.3 MiB,
        # is Lanczos on the sectors (7.8 MiB with the whole block first)
        import scipy.sparse.linalg  # noqa: F401  (its import is not the route's)

        spec = chain(14, alpha=0.05, probes=(1, 12))
        tracemalloc.start()
        try:
            low_spectrum_jcan(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * (1 << 20)


class TestThermalCorrelator:
    def test_infinite_temperature(self):
        spec = chain(4, alpha=0.1)
        assert abs(thermal_correlator_exact(spec, [0.0])[0]) < 1e-12

    def test_ground_state_limit(self):
        spec = chain(6, alpha=0.1, probes="ends")
        j_can, _ = low_spectrum_jcan(spec)
        want = ground_state_correlator(spec)
        got = thermal_correlator_exact(spec, [200.0 / j_can])[0]
        assert abs(want - got) < 1e-8

    @pytest.fixture(scope="class")
    def spectra(self):
        return [full_spectrum(spec) for spec in (chain(8, alpha=0.05, probes=(1, 6)),
                                                 chain(10, alpha=0.05, probes=(1, 8)),
                                                 ladder(4, alpha=0.05))]

    @pytest.mark.parametrize("batch", [1, 2, 3, 5, 12, 71])
    def test_one_exponential_equals_per_block_oracle(self, spectra, batch):
        # bit for bit, at every batch size
        rng = np.random.default_rng(batch)
        for spectrum in spectra:
            j_can, _ = low_spectrum_jcan(spectrum.spec, spectrum=spectrum)
            betas = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), batch)) / j_can
            assert np.array_equal(_boltzmann_average(spectrum, betas),
                                  boltzmann_average_per_block(spectrum, betas))

    @pytest.mark.parametrize("spec", [chain(8, alpha=0.05, probes=(1, 6)),
                                      chain(10, alpha=0.05, probes=(1, 8)),
                                      ladder(4, alpha=0.05),
                                      chain(7, alpha=0.05, probes=(1, 5))],
                             ids=["chain8", "chain10", "ladder4", "chain7-odd"])
    def test_reduced_spectrum_equals_every_vector_oracle(self, spec):
        # what a spectrum keeps of each block gives every reader the bits
        # that every vector gave; 9 spins keep no vector and have no probe
        # gap, so they take the thermal part alone, on the grid of the
        # 10-spin chain's J_can (1.2e-3)
        got, want = full_spectrum(spec), every_vector_spectrum(spec)
        assert list(got.probe_diagonals) == list(want.energies)
        for m, es in want.energies.items():
            assert np.array_equal(got.energies[m], es)
            assert np.array_equal(got.probe_diagonals[m], want.probe_diagonals[m])
        j_can = 1.2e-3
        if spec.n_total % 2:
            assert got.vectors == {} and got.states == {}
        else:
            mid = spec.n_total // 2
            assert list(got.vectors) == list(got.states) == [mid]
            assert np.array_equal(got.vectors[mid], want.vectors[mid][:, :3])
            j_can, gap = low_spectrum_jcan(spec, spectrum=want)
            assert low_spectrum_jcan(spec, spectrum=got) == (j_can, gap)
            assert (ground_state_correlator(spec, spectrum=got)
                    == ground_state_correlator(spec, spectrum=want))
        betas = 1.0 / default_temperature_grid(j_can)
        assert np.array_equal(thermal_correlator_exact(spec, betas, spectrum=got),
                              thermal_correlator_exact(spec, betas, spectrum=want))

    def test_spectrum_holds_no_eigenvector_blocks(self):
        # every vector of a 12-spin spectrum would hold 20.7 MiB, what is
        # kept 0.1 MiB; the peak, 20.5 MiB, is the 924-state block's vectors
        # and probe diagonals, its H already dropped (40.8 MiB with every
        # block's H in one buffer through every eigh)
        spec = chain(10, alpha=0.05, probes=(1, 8))
        tracemalloc.start()
        try:
            spectrum = full_spectrum(spec)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert spectrum.vectors[6].shape == (924, 3)
        assert held < 1 << 20
        assert peak < 24 * (1 << 20)  # an H held through the diagonals: 27 MiB

    def test_dense_oracle_agreement(self):
        spec = chain(6, alpha=0.1)  # 8 spins
        h = dense_hamiltonian(spec)
        pa, pb = spec.probe_indices
        dim = h.shape[0]
        op = np.zeros((dim, dim))
        for s in range(dim):
            bi, bj = (s >> pa) & 1, (s >> pb) & 1
            if bi == bj:
                op[s, s] += 1.0
            else:
                op[s, s] -= 1.0
                op[s ^ (1 << pa) ^ (1 << pb), s] += 2.0
        w, v = np.linalg.eigh(h)
        diag = np.einsum("ik,ij,jk->k", v, op, v)
        for beta in (0.0, 0.5, 5.0, 50.0):
            boltz = np.exp(-beta * (w - w[0]))
            want = (boltz * diag).sum() / boltz.sum()
            got = thermal_correlator_exact(spec, [beta])[0]
            assert abs(want - got) < 1e-12

    def test_monotone_in_beta(self):
        spec = chain(**ACCEPT, alpha=0.05)
        j_can, _ = low_spectrum_jcan(spec)
        betas = np.geomspace(0.01 / j_can, 100.0 / j_can, 40)
        vals = thermal_correlator_exact(spec, betas)
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -1e3])
    def test_beta_outside_domain_is_refused(self, beta):
        # refused before any exponential, so no overflow warning either
        spec = chain(4, alpha=0.1)
        for betas in ([beta], [1.0, beta]):
            with pytest.raises(DomainError, match="beta must be finite and >= 0"):
                thermal_correlator_exact(spec, betas)

    def test_spectrum_missing_a_block_is_refused(self):
        # the probe route stores the S_z = 0 block alone
        spec = chain(**ACCEPT, alpha=0.05)
        probe, _ = _probe_block(spec, None)
        assert low_spectrum_jcan(spec, spectrum=probe) == low_spectrum_jcan(spec)
        with pytest.raises(TruncationError):
            thermal_correlator_exact(spec, [1e3], spectrum=probe)


class TestLehmann:
    def test_resolvent_oracle(self):
        for length, probes in ((4, "ends"), (6, (1, 4))):
            spec = chain(length, alpha=0.0 + 0.01, probes=probes)
            chi, _ = chi_lehman_and_phi(spec)
            assert abs(chi - chi_resolvent(spec)) < 1e-10

    def test_sign_alternates_with_separation(self):
        for sep in range(1, 6):
            chi, _ = chi_lehman_and_phi(chain(8, alpha=0.01, probes=(0, sep)))
            assert math.copysign(1.0, chi) == (-1.0) ** (sep + 1)

    def test_odd_bath_rejected(self):
        with pytest.raises(DegenerateSystemError):
            chi_lehman_and_phi(chain(5, alpha=0.01))


class TestConsistencyReport:
    def test_acceptance_configuration(self):
        rep = theory_consistency_report(chain(**ACCEPT, alpha=0.05))
        assert rep["gap_over_jcan"] > 5.0
        assert rep["jcan_rel_error"] < 0.05
        assert rep["fit_rms_residual"] < 1e-3
        assert rep["tstar_rel_error"] < 0.03
        assert rep["corr_T0_abs_error"] < 1e-3

    def test_strong_coupling_fit_in_entangled_window(self):
        # "reliable fits up to alpha = 0.2": within the temperature window
        # where the probes are entangled (k_B T <= 2 J_can << gap)
        from qcb.spin_lde import fit_canonical_params

        spec = chain(**ACCEPT, alpha=0.2)
        j_can, gap = low_spectrum_jcan(spec)
        assert gap > 5.0 * j_can
        temps = np.geomspace(j_can / 20.0, 2.0 * j_can, 12)
        corrs = thermal_correlator_exact(spec, 1.0 / temps)
        fit = fit_canonical_params(list(zip(1.0 / temps, corrs)))
        assert fit.rms_residual < 1e-3

    def test_zero_coupling_probes_uncorrelated(self):
        spec = LatticeSpec(n_bath=6, bonds=tuple((i, i + 1, 1.0) for i in range(5)),
                           probe_sites=(0, 5), alpha=0.0)
        vals = thermal_correlator_exact(spec, [0.0, 1.0, 10.0])
        assert np.max(np.abs(vals)) < 1e-12
