import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsim.construction import (PolarCode, bit_reversal_permutation,
                                   construct_code, load_frozen_set,
                                   partition_symbols)


class TestBitReversal:
    def test_n1_identity(self):
        assert bit_reversal_permutation(1).tolist() == [0, 1]

    def test_n2(self):
        # reverse the 2-bit representations of 0..3
        assert bit_reversal_permutation(2).tolist() == [0, 2, 1, 3]

    def test_n3(self):
        assert bit_reversal_permutation(3).tolist() == [0, 4, 2, 6, 1, 5, 3, 7]

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=12, deadline=None)
    def test_involution(self, n):
        perm = bit_reversal_permutation(n)
        assert np.array_equal(perm[perm], np.arange(1 << n))

    def test_rejects_n0(self):
        with pytest.raises(ValueError):
            bit_reversal_permutation(0)


class TestConstructCode:
    def test_rate_one_has_no_frozen(self):
        code = construct_code(2, 4)
        assert code.frozen_set.size == 0

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            construct_code(2, 0)

    def test_k_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            construct_code(3, 9)

    def test_n8_k4_design0(self):
        # the 8-value Z recursion from Z0 = exp(-1) puts the four largest
        # parameters at indices 0, 1, 2, 4
        code = construct_code(3, 4, design_snr_db=0.0)
        assert code.frozen_set.tolist() == [0, 1, 2, 4]
        assert code.info_set.tolist() == [3, 5, 6, 7]

    def test_deterministic(self):
        a = construct_code(6, 30, design_snr_db=1.5)
        b = construct_code(6, 30, design_snr_db=1.5)
        assert np.array_equal(a.frozen_set, b.frozen_set)

    def test_partition_of_indices(self):
        code = construct_code(5, 13)
        together = np.concatenate([code.frozen_set, code.info_set])
        assert np.array_equal(np.sort(together), np.arange(32))

    def test_frozen_file_roundtrip(self, tmp_path):
        code = construct_code(4, 9, design_snr_db=0.5)
        path = tmp_path / "frozen.txt"
        path.write_text("\n".join(str(i) for i in code.frozen_set) + "\n")
        loaded = construct_code(4, 9, frozen_file=str(path))
        assert np.array_equal(loaded.frozen_set, code.frozen_set)

    def test_frozen_file_wrong_cardinality(self, tmp_path):
        path = tmp_path / "frozen.txt"
        path.write_text("0\n1\n")
        with pytest.raises(ValueError):
            construct_code(4, 9, frozen_file=str(path))

    def test_frozen_file_malformed(self, tmp_path):
        path = tmp_path / "frozen.txt"
        path.write_text("0\nnope\n")
        with pytest.raises(ValueError):
            load_frozen_set(str(path), 16, 14)

    def test_polar_code_validates_overlap(self):
        with pytest.raises(ValueError):
            PolarCode(n=2, K=3, frozen_set=np.array([0, 0]))


class TestPartitionSymbols:
    def test_m0_singletons(self):
        code = construct_code(3, 4)
        part = partition_symbols(code, 0)
        assert part.symbol_count == 8
        for j in range(8):
            expected_info = [j] if j in code.info_set else []
            assert part.info_sets[j].tolist() == expected_info

    def test_m_equals_n_whole_block(self):
        code = construct_code(3, 4)
        part = partition_symbols(code, 3)
        assert part.symbol_count == 1
        assert part.info_sets[0].size == code.K

    def test_n8_m4_example(self):
        # A = {3,5,6,7}: first symbol carries one info bit, second carries three
        code = construct_code(3, 4, design_snr_db=0.0)
        part = partition_symbols(code, 2)
        assert part.info_sets[0].tolist() == [3]
        assert part.frozen_sets[0].tolist() == [0, 1, 2]
        assert part.info_sets[1].tolist() == [5, 6, 7]
        assert part.frozen_sets[1].tolist() == [4]

    def test_m_too_large_rejected(self):
        code = construct_code(3, 4)
        with pytest.raises(ValueError):
            partition_symbols(code, 4)

    @given(st.integers(min_value=2, max_value=6), st.data())
    @settings(max_examples=30, deadline=None)
    def test_counts_sum_to_k(self, n, data):
        N = 1 << n
        K = data.draw(st.integers(min_value=1, max_value=N))
        m = data.draw(st.integers(min_value=0, max_value=n))
        code = construct_code(n, K)
        part = partition_symbols(code, m)
        assert sum(s.size for s in part.info_sets) == K
        assert sum(s.size for s in part.frozen_sets) == N - K

    def test_hypotheses_scatter(self):
        # info positions {1, 3} in a 4-bit symbol: k's bits land MSB-first
        code = construct_code(3, 4, design_snr_db=0.0)
        part = partition_symbols(code, 2)
        # symbol 1 has info {5,6,7} -> local {1,2,3}: value k placed directly
        hyps = part.hypotheses(1)
        assert hyps.tolist() == list(range(8))
        # symbol 0 has info {3} -> local {3}: hypotheses are {0, 1}
        assert part.hypotheses(0).tolist() == [0, 1]
