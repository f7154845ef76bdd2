import hashlib

import numpy as np
import pytest

from polarsim.costs import (ComparatorNetwork, build_ctsn, build_tstsn,
                            channel_combination_additions,
                            ml_detector_additions)
from polarsim.pruning import full_select, two_stage_select


class TestAdditionCounts:
    def test_direct_detector(self):
        assert ml_detector_additions(2) == 4
        assert ml_detector_additions(4) == 48
        assert ml_detector_additions(8) == 1792

    def test_recursive_combination(self):
        assert channel_combination_additions(4) == 24  # 2^4 + 2*2^2
        assert channel_combination_additions(2) == 4
        assert channel_combination_additions(8) == 304  # 2^8 + 2*2^4 + 4*2^2

    @pytest.mark.parametrize("M", [4, 8, 16])
    def test_dominance(self, M):
        assert channel_combination_additions(M) < ml_detector_additions(M)

    def test_equality_at_m2(self):
        assert channel_combination_additions(2) == ml_detector_additions(2)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            ml_detector_additions(1)
        with pytest.raises(ValueError):
            ml_detector_additions(3)
        with pytest.raises(ValueError):
            channel_combination_additions(6)
        # counts of 2^M: a width above the decoders' bound is refused
        # before the integer is built
        for M in (32, 1 << 40):
            with pytest.raises(ValueError, match="M must be in"):
                ml_detector_additions(M)
            with pytest.raises(ValueError, match="M must be in"):
                channel_combination_additions(M)


class TestNetworkStructure:
    def test_select_all_is_free(self):
        net = build_ctsn(0, 8)
        assert net.comparators == 0
        assert net.depth == 0

    def test_ctsn_m1_is_single_partial_sorter(self):
        # one merge level: exactly one ps-2L-to-L block, two bitonic sorters
        # of L wires, one half-cleaning rank and one bitonic merge, with the
        # survivors on the first block
        for L in (2, 4, 8, 16):
            k = L.bit_length() - 1
            net = build_ctsn(1, L)
            assert net.comparators == L * k * (k + 1) // 2 + L + L * k // 2
            assert net.depth == k * (k + 1) // 2 + 1 + k
            assert net.outputs == list(range(L))

    def test_ranks_are_derived_from_program_order(self):
        # each comparator takes the earliest rank after every earlier one on
        # its wires: (3, 0) joins (1, 2) after (0, 1), and the last, on
        # wires no earlier comparator touches, joins the first rank
        net = ComparatorNetwork(6, [(0, 1), (1, 2), (3, 0), (2, 3), (4, 5)],
                                [0], "toy")
        assert net.levels == [[(0, 1), (4, 5)], [(1, 2), (3, 0)], [(2, 3)]]
        assert (net.comparators, net.depth) == (5, 3)
        assert ComparatorNetwork(3, [], [0], "empty").levels == []

    @pytest.mark.parametrize("length", [2, 4])
    def test_run_rejects_wrong_length(self, length):
        net = ComparatorNetwork(3, [(0, 1)], [0], "toy")
        with pytest.raises(ValueError, match="expected 3 input values"):
            net.run(np.zeros(length))

    # (M, L): CTSN (comparators, depth), then TSTSN's for q = 1, 2, 4, .., L
    PINNED = {
        (1, 2): ((5, 3), [(3, 2), (7, 4)]),
        (1, 4): ((20, 6), [(10, 4), (32, 9), (32, 9)]),
        (1, 8): ((68, 10), [(32, 7), (116, 16), (116, 16), (116, 16)]),
        (1, 16): ((208, 15), [(96, 11)] + [(368, 25)] * 4),
        (1, 32): ((592, 21), [(272, 16)] + [(1072, 36)] * 5),
        (2, 2): ((15, 6), [(7, 3), (15, 6)]),
        (2, 4): ((60, 12), [(18, 5), (48, 11), (84, 15)]),
        (2, 8): ((204, 20), [(48, 8), (148, 18), (300, 26), (300, 26)]),
        (2, 16): ((624, 30), [(128, 12), (432, 27)] + [(944, 40)] * 3),
        (2, 32): ((1776, 42), [(336, 17), (1200, 38)] + [(2736, 57)] * 4),
        (3, 2): ((35, 9), [(15, 4), (35, 9)]),
        (3, 4): ((140, 18), [(34, 6), (88, 14), (140, 18)]),
        (3, 8): ((476, 30), [(80, 9), (228, 21), (412, 29), (668, 36)]),
        (3, 16): ((1456, 45), [(192, 13), (592, 30), (1168, 43)]
                  + [(2096, 55)] * 2),
        (3, 32): ((4144, 63), [(464, 18), (1520, 41), (3184, 60)]
                  + [(6064, 78)] * 3),
        (4, 2): ((75, 12), [(31, 5), (75, 12)]),
        (4, 4): ((300, 24), [(66, 7), (168, 17), (300, 24)]),
        (4, 8): ((1020, 40), [(144, 10), (388, 24), (732, 35), (1020, 40)]),
        (4, 16): ((3120, 60), [(320, 14), (912, 33), (1808, 49), (2800, 59),
                               (4400, 70)]),
        (4, 32): ((8880, 84), [(720, 19), (2160, 44), (4464, 66), (7472, 82),
                               (12720, 99), (12720, 99)]),
    }

    @pytest.mark.parametrize("M,L", sorted(PINNED))
    def test_pinned_comparator_counts_and_depths(self, M, L):
        ctsn, tstsn = self.PINNED[M, L]
        net = build_ctsn(M, L)
        assert (net.comparators, net.depth) == ctsn
        got = [(net.comparators, net.depth)
               for net in (build_tstsn(M, L, 1 << i)
                           for i in range(L.bit_length()))]
        assert got == tstsn

    @pytest.mark.parametrize("net,digest", [
        (build_ctsn(3, 4), "9fdf8a3eb1ceef8d"),
        (build_tstsn(3, 8, 2), "8ab0aa9dba88a5bd"),
        (build_tstsn(4, 8, 4), "b0f5e8275eb32e0d"),
    ], ids=lambda x: getattr(x, "label", None))
    def test_pinned_rank_sets(self, net, digest):
        # the comparators of each rank, in any order within it; a stage-2
        # merge that keeps its inputs but not its order shows only here,
        # because the ps blocks after it sort their inputs again
        ranks = repr([sorted(lvl) for lvl in net.levels]).encode()
        assert hashlib.sha256(ranks).hexdigest()[:16] == digest

    def test_tstsn_dominates_ctsn(self):
        ctsn = build_ctsn(4, 8)
        tstsn = build_tstsn(4, 8, 4)
        assert tstsn.comparators < ctsn.comparators
        assert tstsn.depth < ctsn.depth

    def test_reports_deterministic(self):
        a = build_tstsn(3, 4, 2)
        b = build_tstsn(3, 4, 2)
        assert ((a.label, a.comparators, a.depth, a.levels, a.outputs)
                == (b.label, b.comparators, b.depth, b.levels, b.outputs))

    def test_rejects_symbol_width_outside_the_decoders_bound(self):
        # M = 32 would take 2^32 * L wires; it fails before any is built
        for build in (lambda M: build_ctsn(M, 4),
                      lambda M: build_tstsn(M, 4, 2)):
            for M in (-1, 17, 32):
                with pytest.raises(ValueError, match="M must be in"):
                    build(M)

    def test_rejects_non_powers(self):
        with pytest.raises(ValueError):
            build_ctsn(2, 3)
        with pytest.raises(ValueError):
            build_tstsn(2, 4, 3)
        with pytest.raises(ValueError, match="q must be at most L"):
            build_tstsn(4, 8, 16)

    def test_levels_have_disjoint_wires(self):
        for net in (build_ctsn(3, 4), build_tstsn(4, 8, 4), build_tstsn(3, 4, 4)):
            for lvl in net.levels:
                wires = [w for pair in lvl for w in pair]
                assert len(wires) == len(set(wires))


class TestNetworkExecution:
    @pytest.mark.parametrize("M,L", [(1, 2), (2, 4), (3, 4), (4, 8)])
    def test_ctsn_matches_full_prune(self, M, L):
        rng = np.random.default_rng(M * 10 + L)
        net = build_ctsn(M, L)
        for _ in range(30):
            values = rng.standard_normal((1 << M) * L)
            got = np.sort(net.run(values))
            sel = full_select(values.reshape(L, 1 << M), L)
            ref = np.sort(values.reshape(L, -1).ravel()[sel])
            assert np.allclose(got, ref)

    def test_ctsn_output_sorted(self):
        rng = np.random.default_rng(0)
        net = build_ctsn(3, 4)
        out = net.run(rng.standard_normal(32))
        assert np.all(np.diff(out) <= 0)

    @pytest.mark.parametrize("M,L,q", [(2, 4, 2), (3, 4, 2), (4, 8, 4),
                                       (4, 8, 8), (3, 8, 2), (4, 4, 1),
                                       (2, 1, 1), (4, 1, 1)])
    def test_tstsn_matches_two_stage_prune(self, M, L, q):
        # candidate groups are wired per parent: group g owns wires
        # [g*2^M, (g+1)*2^M)
        rng = np.random.default_rng(M * 100 + L * 10 + q)
        net = build_tstsn(M, L, q)
        for _ in range(30):
            values = rng.standard_normal((1 << M) * L)
            got = np.sort(net.run(values))
            sel = two_stage_select(values.reshape(L, 1 << M), q, L)
            ref = np.sort(values.reshape(L, -1).ravel()[sel])
            assert np.allclose(got, ref)

    @pytest.mark.parametrize("M,L,q,alpha", [(2, 8, 1, 2), (3, 8, 2, 2),
                                             (4, 16, 2, 4), (3, 4, 1, 1)])
    def test_tstsn_with_idle_groups(self, M, L, q, alpha):
        # with alpha live groups and alpha * q < L, the network's outputs
        # are the alpha * q stage-1 survivors, sorted, then the -inf of the
        # L - alpha idle groups: what two_stage_select keeps
        rng = np.random.default_rng(M + L + q + alpha)
        net = build_tstsn(M, L, q)
        kept = alpha * min(q, 1 << M)
        for _ in range(30):
            values = np.full((L, 1 << M), -np.inf)
            values[:alpha] = rng.standard_normal((alpha, 1 << M))
            got = net.run(values.ravel())
            sel = two_stage_select(values[:alpha], q, L)
            assert sel.shape == (kept,)
            assert np.array_equal(got[:kept], values[:alpha].ravel()[sel])
            assert (got[kept:] == -np.inf).all()

    def test_tstsn_output_sorted(self):
        rng = np.random.default_rng(1)
        net = build_tstsn(4, 8, 4)
        out = net.run(rng.standard_normal(128))
        assert np.all(np.diff(out) <= 0)
