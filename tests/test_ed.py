import math

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
    _block_hamiltonian,
    _blocks_by_magnetization,
    _low_levels,
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
    thermal_correlator_truncated,
    total_spin_expectation,
)

# reference geometry: probes on the boundary-adjacent sites of an 8-site
# chain; probes dangling off the raw chain ends pick up a large third-order
# boundary correction that leaves the perturbative window at alpha = 0.05
ACCEPT = dict(length=8, probes=(1, 6))


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


def plain_lanczos(h, k=8):
    """Lowest k levels of a whole S_z block by eigsh, with no spin-flip
    sectors or mirrors: the oracle for the reduced Lanczos route."""
    from scipy.sparse.linalg import eigsh

    v0 = np.random.default_rng(1).standard_normal(h.shape[0])
    return np.sort(eigsh(h, k=k, which="SA", tol=1e-12, v0=v0,
                         return_eigenvectors=False))


def chi_resolvent(spec):
    """chi via a linear solve, (E_0 - H) x = Q S_B^z |0>: an eigenbasis-free
    oracle for :func:`chi_lehman_and_phi`."""
    m0 = spec.n_bath // 2
    states = _blocks_by_magnetization(spec.n_bath, (m0,))[m0]
    h = _block_hamiltonian(spec.bonds, states).toarray()
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
            [np.linalg.eigvalsh(h.toarray()) for _, h in blocks.values()]))
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
                assert np.array_equal(h.toarray(), dense[np.ix_(sts, sts)])
            mid = spec.n_total // 2
            subset = build_hamiltonian(spec, blocks=(mid, mid + 1))
            assert list(subset) == [mid, mid + 1]
            for m, (sts, h) in subset.items():
                assert np.array_equal(sts, blocks[m][0])
                assert np.array_equal(h.toarray(), blocks[m][1].toarray())

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

    def test_ladder_geometry(self):
        spec = ladder(3, alpha=0.05)
        assert spec.n_bath == 6
        assert len(spec.bonds) == 2 * 2 + 3  # two legs of 2 bonds + 3 rungs


class TestLowSpectrum:
    def test_fourfold_degeneracy_at_zero_coupling(self):
        spec = LatticeSpec(n_bath=6, bonds=tuple((i, i + 1, 1.0) for i in range(5)),
                           probe_sites=(0, 5), alpha=0.0)
        levels = full_spectrum(spec).all_levels()
        e0 = levels[0][0]
        degenerate = [lv for lv in levels if lv[0] - e0 < 1e-9]
        assert len(degenerate) == 4

    def test_singlet_triplet_identification(self):
        spec = chain(**ACCEPT, alpha=0.05)
        j_can, gap = low_spectrum_jcan(spec)
        assert j_can > 0.0
        assert gap > 5.0 * j_can  # robust-gap property
        result = full_spectrum(spec)
        levels = result.all_levels()
        assert abs(total_spin_expectation(result, levels[0][1], levels[0][2])) < 1e-8
        assert abs(total_spin_expectation(result, levels[1][1], levels[1][2]) - 2.0) < 1e-8

    def test_given_spectrum_matches_central_blocks(self):
        # both routes read the same central blocks, so the floats agree exactly
        for spec in (chain(10, alpha=0.05, probes=(1, 8)), chain(**ACCEPT, alpha=0.05),
                     chain(8, alpha=0.05), chain(6, alpha=0.1, probes=(1, 4)),
                     ladder(4, alpha=0.05)):
            spectrum = full_spectrum(spec)
            assert low_spectrum_jcan(spec) == low_spectrum_jcan(spec, spectrum=spectrum)
            assert ground_state_correlator(spec) == ground_state_correlator(spec, spectrum)

    def test_raising_operator_spin_check_matches_pair_operator(self):
        # 16 spins, central blocks through Lanczos: ground singlet and the
        # three triplet members
        spec = chain(14, alpha=0.05, probes=(1, 12))
        result = _low_levels(spec, blocks=(7, 8, 9))
        levels = result.all_levels()[:4]
        assert sorted(m for _, m, _ in levels[1:]) == [7, 8, 9]
        s2 = [_spin_squared(result, m, k) for _, m, k in levels]
        oracle = [total_spin_expectation(result, m, k) for _, m, k in levels]
        assert np.max(np.abs(np.subtract(s2, oracle))) < 1e-9
        assert np.max(np.abs(np.subtract(s2, [0.0, 2.0, 2.0, 2.0]))) < 1e-6

    def test_flip_sectors_and_mirror_match_plain_lanczos(self):
        # 16 spins: S_z = 0 through its two F sectors, S_z = -1 as the mirror
        # of S_z = +1; both against eigsh of the whole block
        spec = chain(14, alpha=0.05, probes=(1, 12))
        result = _low_levels(spec, blocks=(7, 8, 9))
        built = build_hamiltonian(spec, (7, 8, 9))
        for m, (sts, h) in built.items():
            assert np.array_equal(result.states[m], sts)
            assert np.max(np.abs(result.energies[m] - plain_lanczos(h))) < 1e-10
            vecs = result.vectors[m]
            assert np.max(np.abs(h @ vecs - vecs * result.energies[m])) < 1e-10
        # H_{n-m} = J H_m J entry for entry, J the order reversal
        rev = np.arange(len(built[9][0]))[::-1]
        assert (built[7][1] - built[9][1][rev][:, rev]).count_nonzero() == 0
        # the triplet member of the mirrored block is a triplet
        member = next(k for _, m, k in result.all_levels()[1:4] if m == 7)
        assert abs(total_spin_expectation(result, 7, member) - 2.0) < 1e-8

    def test_reduced_lanczos_route_matches_dense(self, monkeypatch):
        # a cap of 100 sends the central blocks of 10 spins through the
        # sectors and the mirror; 9 spins have no S_z = 0 block, mirror only
        even, odd = chain(8, alpha=0.05, probes=(1, 6)), chain(7, alpha=0.05, probes=(1, 5))
        want = (low_spectrum_jcan(even), ground_state_correlator(even))
        dense = {spec: full_spectrum(spec) for spec in (even, odd)}
        monkeypatch.setattr(ed, "DENSE_BLOCK_CAP", 100)
        j_can, gap = low_spectrum_jcan(even)
        assert abs(j_can - want[0][0]) < 1e-10 and abs(gap - want[0][1]) < 1e-10
        assert abs(ground_state_correlator(even) - want[1]) < 1e-10
        for spec, full in dense.items():
            reduced = _low_levels(spec)
            n = spec.n_total
            lanczos = [m for m in reduced.energies if math.comb(n, m) > 100]
            assert lanczos == ([3, 4, 5, 6, 7] if n == 10 else [4, 5])
            for m, es in reduced.energies.items():
                assert np.array_equal(reduced.states[m], full.states[m])
                assert len(es) == (8 if m in lanczos else len(full.energies[m]))
                assert np.max(np.abs(es - full.energies[m][:len(es)])) < 1e-10
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

    def test_desk_scale_cap_uses_lanczos_blocks(self):
        # 16 spins: the central S_z blocks exceed the dense cap and go through
        # the iterative path; the probe sector must still come out clean
        spec = chain(14, alpha=0.05, probes=(1, 12))
        j_can, gap = low_spectrum_jcan(spec)
        assert abs(j_can - 7.808983e-4) < 1e-9  # frozen from this solver
        assert gap > 5.0 * j_can


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

    def test_truncated_path(self, monkeypatch):
        spec = chain(**ACCEPT, alpha=0.05)
        j_can, _ = low_spectrum_jcan(spec)
        betas = 1.0 / default_temperature_grid(j_can)[:4]
        exact = thermal_correlator_exact(spec, betas)
        # at or below the dense cap every level is kept, and nothing is refused
        assert np.array_equal(thermal_correlator_truncated(spec, [0.1], k_each=4),
                              thermal_correlator_exact(spec, [0.1]))
        # a cap of 100 sends the five central blocks of 10 spins through Lanczos
        monkeypatch.setattr(ed, "DENSE_BLOCK_CAP", 100)
        trunc = thermal_correlator_truncated(spec, betas, k_each=12)
        assert np.max(np.abs(exact - trunc)) < 1e-10
        with pytest.raises(TruncationError):
            thermal_correlator_truncated(spec, [0.1], k_each=4)

    def test_spectrum_missing_a_block_is_refused(self):
        spec = chain(**ACCEPT, alpha=0.05)
        central = _low_levels(spec, blocks=(4, 5, 6))
        assert low_spectrum_jcan(spec, spectrum=central) == low_spectrum_jcan(spec)
        with pytest.raises(TruncationError):
            thermal_correlator_exact(spec, [1e3], spectrum=central)


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

    def test_same_site_phi_vanishes(self):
        _, phi_coeff = chi_lehman_and_phi(chain(8, alpha=0.01, probes=(3, 3)))
        assert phi_coeff == 0.0

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
