import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsim.codec import (CrcSpec, attach_crc, crc_value, encode_bits,
                            polar_encode, scatter_info, verify_crc)
from polarsim.construction import construct_code

from oracle import dense_generator


def _ascii_bits(text):
    return np.array([(ord(c) >> k) & 1 for c in text for k in range(7, -1, -1)])


class TestPolarEncode:
    def test_all_zero(self):
        code = construct_code(3, 4)
        u = np.zeros(8, dtype=int)
        assert np.array_equal(polar_encode(code, u), u)

    def test_n2_direct_product(self):
        code = construct_code(2, 4)
        # length-2 sub-block behaviour shows through N=4 with upper half zero
        assert encode_bits(np.array([1, 0]), 1).tolist() == [1, 0]

    def test_n4_example(self):
        code = construct_code(2, 4)
        assert polar_encode(code, [0, 0, 0, 1]).tolist() == [1, 1, 1, 1]

    def test_wrong_length_rejected(self):
        code = construct_code(2, 4)
        with pytest.raises(ValueError):
            polar_encode(code, [0, 1])

    def test_nonzero_frozen_rejected(self):
        code = construct_code(3, 4)
        u = np.ones(8, dtype=int)
        with pytest.raises(ValueError):
            polar_encode(code, u)

    def test_non_binary_rejected(self):
        # a 2 at an information position would otherwise be encoded as is
        code = construct_code(3, 4)
        u = np.zeros(8, dtype=int)
        u[code.info_set[0]] = 2
        for bad in (u, -u // 2, u / 4):
            with pytest.raises(ValueError, match="u entries must be 0 or 1"):
                polar_encode(code, bad)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_matches_dense_matrix(self, n):
        rng = np.random.default_rng(n)
        gen = dense_generator(n)
        u = rng.integers(0, 2, size=(64, 1 << n))
        assert np.array_equal(encode_bits(u, n), (u @ gen) & 1)

    def test_kron_power_self_inverse(self):
        # F^(x)n squared is the identity over GF(2), for N <= 64
        for n in range(1, 7):
            f = np.array([[1]], dtype=np.int64)
            for _ in range(n):
                f = np.kron([[1, 0], [1, 1]], f) & 1
            assert np.array_equal((f @ f) & 1, np.eye(1 << n, dtype=np.int64))

    @given(st.integers(min_value=2, max_value=6), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, n, seed):
        rng = np.random.default_rng(seed)
        u = rng.integers(0, 2, size=(2, 1 << n))
        lhs = encode_bits(u[0] ^ u[1], n)
        rhs = encode_bits(u[0], n) ^ encode_bits(u[1], n)
        assert np.array_equal(lhs, rhs)


class TestScatterInfo:
    def test_rate_one_identity(self):
        code = construct_code(2, 4)
        assert scatter_info(code, [1, 0, 1, 1]).tolist() == [1, 0, 1, 1]

    def test_all_zero(self):
        code = construct_code(3, 4)
        assert scatter_info(code, np.zeros(4, int)).tolist() == [0] * 8

    def test_n8_placement(self):
        code = construct_code(3, 4, design_snr_db=0.0)  # A = {3,5,6,7}
        u = scatter_info(code, [1, 0, 1, 1])
        assert u.tolist() == [0, 0, 0, 1, 0, 0, 1, 1]

    def test_length_mismatch(self):
        code = construct_code(3, 4)
        with pytest.raises(ValueError):
            scatter_info(code, [1, 0])

    @pytest.mark.parametrize("info", [[2, 0, 1, 5], [0, 0, 1, -1]])
    def test_non_binary_rejected(self, info):
        code = construct_code(3, 4)
        with pytest.raises(ValueError, match="info entries must be 0 or 1"):
            scatter_info(code, info)


class TestCrc:
    def test_check_value_ccitt_false(self):
        # classic published check value for this 16-bit variant
        assert crc_value(_ascii_bits("123456789"), CrcSpec()) == 0x29B1

    def test_zero_payload_zero_init_gives_zero(self):
        spec = CrcSpec(width=8, poly=0x07, init=0)
        assert crc_value(np.zeros(40, int), spec) == 0

    @given(st.integers(0, 2**32 - 1), st.integers(min_value=1, max_value=48))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, seed, nbits):
        rng = np.random.default_rng(seed)
        payload = rng.integers(0, 2, size=nbits)
        block = attach_crc(payload, CrcSpec())
        assert verify_crc(block, CrcSpec())

    def test_single_bit_flip_detected(self):
        rng = np.random.default_rng(0)
        spec = CrcSpec()
        payload = rng.integers(0, 2, size=24)
        block = attach_crc(payload, spec)
        for k in range(block.size):
            flipped = block.copy()
            flipped[k] ^= 1
            assert not verify_crc(flipped, spec)

    def test_false_accept_rate(self):
        # random blocks pass a width-w CRC with probability about 2^-w
        spec = CrcSpec(width=4, poly=0x3, init=0xF)
        rng = np.random.default_rng(42)
        blocks = rng.integers(0, 2, size=(1000, 36))
        rate = float(np.mean(verify_crc(blocks, spec)))
        assert 0.02 < rate < 0.12  # 1/16 +- Monte Carlo slack

    def test_vectorized_verify(self):
        spec = CrcSpec()
        rng = np.random.default_rng(2)
        payload = rng.integers(0, 2, size=(5, 7, 20))
        blocks = attach_crc(payload, spec)
        assert verify_crc(blocks, spec).all()
        blocks[..., 3] ^= 1
        assert not verify_crc(blocks, spec).any()

    @pytest.mark.parametrize("width,poly", [
        (4, 0x3), (8, 0x07), (12, 0x80F), (16, 0x1021), (24, 0x864CFB),
        (32, 0x04C11DB7)])
    def test_standard_polynomial_per_width(self, width, poly):
        # the register starts at all ones unless init is given
        assert CrcSpec(width) == CrcSpec(width, poly, (1 << width) - 1)

    def test_default_is_ccitt_false(self):
        assert CrcSpec() == CrcSpec(16, 0x1021, 0xFFFF)

    def test_width_without_standard_polynomial(self):
        with pytest.raises(ValueError, match="for width 5"):
            CrcSpec(width=5)
        assert CrcSpec(width=5, poly=0x15).init == 0x1F

    @pytest.mark.parametrize("nbits", [3, 16])
    def test_verify_rejects_block_not_longer_than_crc(self, nbits):
        with pytest.raises(ValueError, match="longer than the 16-bit CRC"):
            verify_crc(np.zeros(nbits, np.int8), CrcSpec())

    def test_width_bounds(self):
        with pytest.raises(ValueError):
            CrcSpec(width=0)
        with pytest.raises(ValueError):
            CrcSpec(width=33)
