import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsim.pruning import exactness_check, full_select, two_stage_select


def _pairs(groups, flat):
    """(parent, symbol) of each selected flat index, in selection order."""
    size = np.shape(groups)[-1]
    return [(int(i // size), int(i % size)) for i in flat]


def _metrics(groups, flat):
    return sorted(np.asarray(groups, dtype=np.float64).ravel()[flat].tolist())


class TestFullPrune:
    def test_inspection_example(self):
        groups = [[9, 3, 5, 1], [8, 7, 2, 6]]
        assert _metrics(groups, full_select(groups, 2)) == [8, 9]

    def test_all_equal_takes_tie_order(self):
        groups = np.zeros((3, 4))
        assert _pairs(groups, full_select(groups, 3)) == [
            (0, 0), (0, 1), (0, 2)]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_sort_oracle(self, seed):
        rng = np.random.default_rng(seed)
        L, S = int(rng.integers(1, 9)), int(rng.integers(1, 17))
        keep = int(rng.integers(1, L * S + 1))
        metrics = rng.standard_normal((L, S))
        got = _metrics(metrics, full_select(metrics, keep))
        ref = sorted(np.sort(metrics.ravel())[::-1][:keep])
        assert np.allclose(got, ref)


class TestTwoStagePrune:
    def test_pass_through_when_q_is_group_size(self):
        rng = np.random.default_rng(0)
        metrics = rng.standard_normal((4, 8))
        assert (set(_pairs(metrics, two_stage_select(metrics, 8, 4)))
                == set(_pairs(metrics, full_select(metrics, 4))))

    def test_equal_example(self):
        groups = [[9, 3, 5, 1], [8, 7, 2, 6]]
        got = set(_pairs(groups, two_stage_select(groups, 1, 2)))
        assert got == set(_pairs(groups, full_select(groups, 2))) == {
            (0, 0), (1, 0)}

    def test_approximation_exhibited(self):
        # q=1 keeps only one of the first group's two best
        groups = [[9, 8, 1, 1], [7, 2, 2, 2]]
        assert _metrics(groups, two_stage_select(groups, 1, 2)) == [7, 9]
        assert _metrics(groups, full_select(groups, 2)) == [8, 9]

    def test_output_subset_of_stage1(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            metrics = rng.standard_normal((4, 16))
            q = int(rng.integers(1, 5))
            got = _pairs(metrics, two_stage_select(metrics, q, 4))
            assert len(got) == 4
            for parent, symbol in got:
                row = metrics[parent]
                rank = np.sum(row > row[symbol])
                assert rank < q

    def test_monotonic_in_q(self):
        # ranked survivors of a larger q dominate those of a smaller q
        rng = np.random.default_rng(2)
        for _ in range(50):
            metrics = rng.standard_normal((8, 16))
            chosen = {}
            for q in (1, 2, 4, 8):
                sel = two_stage_select(metrics, q, 8)
                chosen[q] = np.sort(metrics.ravel()[sel])[::-1]
            for qa, qb in ((2, 1), (4, 2), (8, 4)):
                assert np.all(chosen[qa] >= chosen[qb])


class TestExactnessTheorem:
    @pytest.mark.parametrize("M,L", [(3, 4), (4, 4), (4, 8)])
    def test_exact_when_q_at_least_l(self, M, L):
        assert exactness_check(M, L, L, trials=20000, seed=5) == 1.0

    def test_exact_when_q_is_full_group(self):
        assert exactness_check(3, 4, 8, trials=5000, seed=6) == 1.0

    def test_q1_not_exact(self):
        frac = exactness_check(4, 4, 1, trials=10000, seed=7)
        assert frac < 1.0

    def test_fraction_reproducible(self):
        a = exactness_check(4, 4, 2, trials=2000, seed=8)
        b = exactness_check(4, 4, 2, trials=2000, seed=8)
        assert a == b
