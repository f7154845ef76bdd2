import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsim import construction
from polarsim.codec import encode_bits
from polarsim.construction import (MAX_BLOCK_EXPONENT, MAX_SYMBOL_BITS,
                                   PolarCode, bit_reversal_permutation,
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

    def test_n0_is_the_identity(self):
        assert bit_reversal_permutation(0).tolist() == [0]
        bits = np.array([[1], [0]], dtype=np.int8)
        coded = encode_bits(bits, 0)
        assert np.array_equal(coded, bits) and not np.shares_memory(coded, bits)


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
        # a frozen file replaces the recursion, so its SNR goes unchecked
        loaded = construct_code(4, 9, design_snr_db=math.nan,
                                frozen_file=str(path))
        assert np.array_equal(loaded.frozen_set, code.frozen_set)

    def test_frozen_file_wrong_cardinality(self, tmp_path):
        path = tmp_path / "frozen.txt"
        path.write_text("0\n1\n")
        with pytest.raises(ValueError):
            construct_code(4, 9, frozen_file=str(path))

    def test_frozen_file_malformed(self, tmp_path):
        path = tmp_path / "frozen.txt"
        path.write_text("0\nnope\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2")):
            load_frozen_set(str(path))

    def test_load_frozen_set_only_parses(self, tmp_path):
        # duplicates and stray indices reach PolarCode, which owns the checks
        path = tmp_path / "frozen.txt"
        path.write_text("7\n\n-1\n7\n")
        assert load_frozen_set(str(path)).tolist() == [7, -1, 7]

    @pytest.mark.parametrize("text", [
        "3\n3\n",     # a duplicated index
        "3\n16\n",    # an index out of range
        "-1\n3\n",    # a negative index
        "1\n2\n3\n",  # the wrong count
        "3\n4.0\n",   # a non-integer line
        "3\n99999999999999999999999\n",  # an integer beyond int64
    ])
    def test_bad_frozen_file_names_the_file(self, tmp_path, text):
        path = tmp_path / "frozen.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            construct_code(4, 14, frozen_file=str(path))

    def test_undecodable_frozen_file_names_the_file_once(self, tmp_path):
        path = tmp_path / "frozen.txt"
        path.write_bytes(b"\xff\xfe3\n")
        with pytest.raises(ValueError) as info:
            construct_code(4, 14, frozen_file=str(path))
        assert str(info.value).startswith(f"{path}: 'utf-8' codec")
        assert str(info.value).count(str(path)) == 1

    @pytest.mark.parametrize("n", [1, MAX_BLOCK_EXPONENT + 1, 30])
    def test_block_exponent_is_bounded(self, n, monkeypatch):
        # rejected before the recursion allocates 2^n floats
        def unreachable(*args):
            raise AssertionError("bhattacharyya_parameters was called")
        monkeypatch.setattr(construction, "bhattacharyya_parameters",
                            unreachable)
        with pytest.raises(ValueError, match=r"n must be in \[2, 20\]"):
            construct_code(n, 1)
        with pytest.raises(ValueError, match=r"n must be in \[2, 20\]"):
            PolarCode(n=n, K=1, frozen_set=np.arange(3))

    def test_polar_code_validates_overlap(self):
        with pytest.raises(ValueError):
            PolarCode(n=2, K=3, frozen_set=np.array([0, 0]))


def _scatter_hypotheses(frozen_row):
    """The documented hypothesis order of one symbol: entry k places the
    bits of k, MSB first, into the information positions in ascending
    index order; frozen positions stay zero. Bit 0 is the last position."""
    M = len(frozen_row)
    info = [i for i in range(M) if not frozen_row[i]]
    k = np.arange(1 << len(info))
    sym = np.zeros_like(k)
    for pos, i in enumerate(info):
        sym |= ((k >> (len(info) - 1 - pos)) & 1) << (M - 1 - i)
    return sym.tolist()


class TestPartitionSymbols:
    def test_m0_singletons(self):
        code = construct_code(3, 4)
        part = partition_symbols(code, 0)
        assert part.symbol_count == 8
        for j in range(8):
            frozen = j not in code.info_set
            assert part.frozen[j].tolist() == [frozen]
            assert part.hypotheses[j].tolist() == ([0] if frozen else [0, 1])

    def test_m_equals_n_whole_block(self):
        code = construct_code(3, 4)
        part = partition_symbols(code, 3)
        assert part.symbol_count == 1
        assert part.hypotheses[0].size == 1 << code.K

    def test_n8_m4_example(self):
        # A = {3,5,6,7}: first symbol carries one info bit, second carries three
        code = construct_code(3, 4, design_snr_db=0.0)
        part = partition_symbols(code, 2)
        assert part.frozen.tolist() == [[True, True, True, False],
                                        [True, False, False, False]]
        assert part.hypotheses[0].size == 2
        assert part.hypotheses[1].size == 8

    def test_m_too_large_rejected(self):
        code = construct_code(3, 4)
        with pytest.raises(ValueError):
            partition_symbols(code, 4)

    def test_m_above_max_symbol_bits_rejected(self):
        # 2^5 = 32 > MAX_SYMBOL_BITS although the block has 64 bits
        code = construct_code(6, 32)
        assert 1 << 5 > MAX_SYMBOL_BITS
        partition_symbols(code, 4)
        with pytest.raises(ValueError, match="m must satisfy"):
            partition_symbols(code, 5)

    @given(st.integers(min_value=2, max_value=6), st.data())
    @settings(max_examples=30, deadline=None)
    def test_counts_sum_to_k(self, n, data):
        N = 1 << n
        K = data.draw(st.integers(min_value=1, max_value=N))
        m = data.draw(st.integers(min_value=0, max_value=min(n, 4)))
        code = construct_code(n, K)
        part = partition_symbols(code, m)
        # a symbol with i information bits has 2^i hypotheses
        info_bits = [h.size.bit_length() - 1 for h in part.hypotheses]
        assert sum(info_bits) == K
        assert part.frozen.sum() == N - K

    def test_hypotheses_scatter(self):
        # info positions {1, 3} in a 4-bit symbol: k's bits land MSB-first
        code = construct_code(3, 4, design_snr_db=0.0)
        part = partition_symbols(code, 2)
        # symbol 1 has info {5,6,7} -> local {1,2,3}: value k placed directly
        hyps = part.hypotheses[1]
        assert hyps.tolist() == list(range(8))
        # symbol 0 has info {3} -> local {3}: hypotheses are {0, 1}
        assert part.hypotheses[0].tolist() == [0, 1]
        code = PolarCode(n=2, K=2, frozen_set=np.array([0, 2]))
        part = partition_symbols(code, 2)
        assert part.hypotheses[0].tolist() == [0b0000, 0b0001, 0b0100, 0b0101]

    @given(st.integers(min_value=2, max_value=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_partition_matches_scatter_definition(self, n, data):
        N = 1 << n
        frozen = data.draw(st.sets(st.integers(0, N - 1), max_size=N - 1))
        m = data.draw(st.integers(min_value=0, max_value=min(n, 4)))
        code = PolarCode(n=n, K=N - len(frozen),
                         frozen_set=np.array(sorted(frozen), dtype=np.int64))
        part = partition_symbols(code, m)
        assert part.m == m and part.symbol_count == N >> m
        assert np.array_equal(part.frozen.ravel(), code.frozen_mask())
        assert not part.frozen.flags.writeable
        for j, hyps in enumerate(part.hypotheses):
            assert not hyps.flags.writeable
            assert hyps.tolist() == _scatter_hypotheses(part.frozen[j].tolist())
