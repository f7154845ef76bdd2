import importlib.util

import numpy as np
import pytest

from polarsim.channel import initial_metrics, modulate
from polarsim.codec import encode_bits, polar_encode
from polarsim.construction import construct_code
from polarsim.scl import scl_decode

from oracle import (DenseCode, channel_loglik,
                    combination_identity_sides, dense_generator,
                    exhaustive_ml, exhaustive_symbol_metric)


class TestDenseCode:
    def test_exhaustive_match_small(self):
        # every length-16 message encodes identically via matrix and butterfly
        code = construct_code(4, 16)
        dense = DenseCode(code)
        msgs = ((np.arange(1 << 16)[:, None] >> np.arange(15, -1, -1)) & 1)
        assert np.array_equal(dense.encode(msgs), encode_bits(msgs, 4))

    def test_sampled_match_n64(self):
        rng = np.random.default_rng(0)
        code = construct_code(6, 64)
        dense = DenseCode(code)
        msgs = rng.integers(0, 2, size=(10000, 64))
        assert np.array_equal(dense.encode(msgs), encode_bits(msgs, 6))

    def test_size_limit(self):
        with pytest.raises(ValueError):
            DenseCode(construct_code(7, 64))

    def test_generator_is_self_inverse_modulo_permutation(self):
        # G = B ยท F^(x)n with F^(x)n an involution over GF(2)
        for n in (2, 3, 4):
            g = dense_generator(n)
            gg = (g @ g) & 1
            assert np.array_equal(np.sort(np.argmax(gg, axis=1)),
                                  np.arange(1 << n))


class TestExhaustiveMl:
    def test_noiseless(self):
        rng = np.random.default_rng(1)
        code = construct_code(4, 7)
        dense = DenseCode(code)
        u = np.zeros(16, dtype=np.int64)
        u[code.info_set] = rng.integers(0, 2, 7)
        y = modulate(polar_encode(code, u))
        assert np.array_equal(exhaustive_ml(dense, y, 0.5), u)

    def test_k1_threshold(self):
        code = construct_code(2, 1)
        dense = DenseCode(code)
        x1 = modulate(polar_encode(code, [0, 0, 0, 1]))
        assert exhaustive_ml(dense, x1 * 0.9, 0.5)[3] == 1
        assert exhaustive_ml(dense, -x1 * 0.0 + modulate(np.zeros(4, int)) * 0.9,
                             0.5)[3] == 0

    def test_agrees_with_unpruned_scl(self):
        rng = np.random.default_rng(2)
        code = construct_code(4, 5)
        dense = DenseCode(code)
        sigma2 = 0.8
        for _ in range(100):
            u = np.zeros(16, dtype=np.int64)
            u[code.info_set] = rng.integers(0, 2, 5)
            y = modulate(polar_encode(code, u)) + rng.normal(0, np.sqrt(sigma2), 16)
            met = initial_metrics(y, sigma2)
            assert np.array_equal(exhaustive_ml(dense, y, sigma2),
                                  scl_decode(code, met, 32))

    def test_k_limit(self):
        code = construct_code(6, 40)
        dense = DenseCode(code)
        with pytest.raises(ValueError):
            exhaustive_ml(dense, np.zeros(64), 0.5)


class TestExhaustiveSymbolMetric:
    def test_whole_block_reduces_to_codeword_likelihoods(self):
        rng = np.random.default_rng(3)
        code = construct_code(3, 8)
        dense = DenseCode(code)
        y = rng.normal(0, 1, 8)
        sigma2 = 0.6
        table = exhaustive_symbol_metric(dense, y, sigma2, 0, 8, np.array([]))
        ll = channel_loglik(y, sigma2)
        for h in range(256):
            u = np.array([(h >> (7 - t)) & 1 for t in range(8)])
            x = dense.encode(u)
            ref = ll[np.arange(8), x].sum()
            assert table[h] == pytest.approx(ref, rel=1e-12)

    def test_normalization_is_prefix_invariant(self):
        # exp-summed over all hypotheses, two different prefixes of the same
        # length give totals that are both true probabilities of disjoint
        # events: each must be <= the no-prefix marginal
        rng = np.random.default_rng(4)
        code = construct_code(4, 16)
        dense = DenseCode(code)
        y = rng.normal(0, 1, 16)
        full = exhaustive_symbol_metric(dense, y, 0.7, 0, 4, np.array([]))
        total = np.logaddexp.reduce(full)
        for _ in range(5):
            prefix = rng.integers(0, 2, size=4)
            tab = exhaustive_symbol_metric(dense, y, 0.7, 1, 4, prefix)
            assert np.logaddexp.reduce(tab) <= total + 1e-12

    def test_prefix_length_validation(self):
        code = construct_code(3, 8)
        dense = DenseCode(code)
        with pytest.raises(ValueError):
            exhaustive_symbol_metric(dense, np.zeros(8), 0.5, 1, 2, np.array([]))

    def test_tail_guard(self):
        code = construct_code(5, 32)
        dense = DenseCode(code)
        with pytest.raises(ValueError):
            exhaustive_symbol_metric(dense, np.zeros(32), 0.5, 0, 4, np.array([]))


class TestCombinationIdentity:
    @pytest.mark.parametrize("half,M", [(4, 1), (4, 2), (8, 2), (8, 4), (16, 4)])
    def test_identity_small(self, half, M):
        rng = np.random.default_rng(half * 10 + M)
        full = 2 * half
        nf = full.bit_length() - 1
        dense_f = DenseCode(construct_code(nf, full))
        dense_h = DenseCode(construct_code(nf - 1, half))
        for _ in range(20):
            feas = [j for j in range(half // M) if full - 2 * (j + 1) * M <= 14]
            j = int(rng.choice(feas))
            prefix = rng.integers(0, 2, size=2 * j * M)
            y = rng.normal(0, 1.1, full)
            lhs, rhs = combination_identity_sides(
                dense_f, dense_h, y, 0.6, j, M, prefix)
            assert np.abs(np.expm1(lhs - rhs)).max() < 1e-12


def test_oracle_is_not_shipped():
    # the references serve the tests and live beside them, not in the package
    assert importlib.util.find_spec("polarsim.oracle") is None
