import numpy as np
import pytest

from polarsim.channel import initial_metrics, modulate
from polarsim.codec import encode_bits, int_to_bits, polar_encode
from polarsim.construction import construct_code, partition_symbols
from polarsim.sc import (_PairBank, _symbol_tables, channel_combine, sc_decode,
                         sc_decode_batch, symbol_component_bits,
                         symbol_sc_decode, symbol_sc_decode_batch,
                         transform_check, transform_combine)

from oracle import DenseCode, exhaustive_symbol_metric

LOG_HALF = np.log(0.5)


def _random_pairs(rng, shape=()):
    return rng.normal(0, 2, size=shape + (2,))


class _EagerBank(_PairBank):
    """Reference bank that reorders stages 1..w of the list axis at once."""

    def take_static(self, idx):
        for s in range(1, self.w + 1):
            self.up[s] = np.take(self.up[s], idx, axis=1)
            self.ev[s] = np.take(self.ev[s], idx, axis=1)

    def gather_paths(self, idx):
        b = np.arange(idx.shape[0])[:, None]
        for s in range(1, self.w + 1):
            self.up[s] = self.up[s][b, idx]
            self.ev[s] = self.ev[s][b, idx]


class TestTransformCheck:
    def test_symmetric_inputs(self):
        out = transform_check(np.zeros(2), np.zeros(2))
        assert out[0] == out[1]

    def test_known_lower_bit(self):
        upper = np.array([0.3, -1.2])
        lower = np.array([0.0, -np.inf])
        out = transform_check(upper, lower)
        assert np.allclose(out, upper)

    def test_exp_domain_oracle(self):
        rng = np.random.default_rng(0)
        upper = _random_pairs(rng, (500,))
        lower = _random_pairs(rng, (500,))
        out = transform_check(upper, lower)
        # marginalize the partner bit on raw probabilities, halving kept
        pu, pl = np.exp(upper), np.exp(lower)
        for b in (0, 1):
            ref = 0.5 * (pu[:, b] * pl[:, 0] + pu[:, 1 - b] * pl[:, 1])
            assert np.allclose(np.exp(out[:, b] + LOG_HALF), ref, rtol=1e-9)


class TestTransformCombine:
    def test_even_zero(self):
        upper = np.array([1.0, 2.0])
        lower = np.array([5.0, 7.0])
        assert transform_combine(upper, lower, 0).tolist() == [6.0, 9.0]

    def test_even_one_swaps(self):
        upper = np.array([1.0, 2.0])
        lower = np.array([5.0, 7.0])
        assert transform_combine(upper, lower, 1).tolist() == [7.0, 8.0]

    def test_exp_domain_oracle(self):
        rng = np.random.default_rng(1)
        upper = _random_pairs(rng, (500,))
        lower = _random_pairs(rng, (500,))
        e = rng.integers(0, 2, size=500)
        out = transform_combine(upper, lower, e)
        pu, pl = np.exp(upper), np.exp(lower)
        for b in (0, 1):
            ref = 0.5 * pu[np.arange(500), e ^ b] * pl[:, b]
            assert np.allclose(np.exp(out[:, b] + LOG_HALF), ref, rtol=1e-9)


class TestChannelCombine:
    def test_base_case_matches_transform_combine(self):
        rng = np.random.default_rng(2)
        left = _random_pairs(rng, (100,))
        right = _random_pairs(rng, (100,))
        table = channel_combine(left, right)
        for u0 in (0, 1):
            pair = transform_combine(left, right, u0)
            for u1 in (0, 1):
                assert np.allclose(table[:, 2 * u0 + u1], pair[:, u1])

    def test_two_bit_expansion(self):
        left = np.array([10.0, 20.0])
        right = np.array([1.0, 2.0])
        # entry (u0 u1) = left[u0^u1] + right[u1]
        assert channel_combine(left, right).tolist() == [11.0, 22.0, 21.0, 12.0]

    def test_independent_enumeration(self):
        rng = np.random.default_rng(3)
        for width in (1, 2, 4):
            left = rng.normal(size=1 << width)
            right = rng.normal(size=1 << width)
            got = channel_combine(left, right)
            for h in range(1 << (2 * width)):
                bits = [(h >> (2 * width - 1 - p)) & 1 for p in range(2 * width)]
                eo = sum((bits[2 * i] ^ bits[2 * i + 1]) << (width - 1 - i)
                         for i in range(width))
                od = sum(bits[2 * i + 1] << (width - 1 - i) for i in range(width))
                assert got[h] == left[eo] + right[od]

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            channel_combine(np.zeros(4), np.zeros(2))

    def test_exp_domain_product_oracle(self):
        rng = np.random.default_rng(4)
        left = rng.normal(size=(200, 4))
        right = rng.normal(size=(200, 4))
        table = channel_combine(left, right)
        pl, pr = np.exp(left), np.exp(right)
        for h in range(16):
            bits = [(h >> (3 - p)) & 1 for p in range(4)]
            eo = ((bits[0] ^ bits[1]) << 1) | (bits[2] ^ bits[3])
            od = (bits[1] << 1) | bits[3]
            assert np.allclose(np.exp(table[:, h]), pl[:, eo] * pr[:, od],
                               rtol=1e-9)


def _transmit_code(code, rng, sigma2, u_info=None):
    u = np.zeros(code.N, dtype=np.int64)
    if u_info is None:
        u_info = rng.integers(0, 2, size=code.K)
    u[code.info_set] = u_info
    x = polar_encode(code, u)
    y = modulate(x) + rng.normal(0, np.sqrt(sigma2), code.N)
    return u, initial_metrics(y, sigma2), y


class TestScDecode:
    def test_noiseless_all_zero(self):
        code = construct_code(4, 8)
        met = initial_metrics(modulate(np.zeros(16, int)), 0.5)
        assert sc_decode(code, met).tolist() == [0] * 16

    def test_noiseless_rate_one(self):
        rng = np.random.default_rng(6)
        code = construct_code(2, 4)
        for _ in range(10):
            u = rng.integers(0, 2, size=4)
            met = initial_metrics(modulate(polar_encode(code, u)), 0.3)
            assert np.array_equal(sc_decode(code, met), u)

    def test_against_exhaustive_metric_oracle(self):
        # replay the per-bit decisions with brute-force metrics
        rng = np.random.default_rng(7)
        code = construct_code(3, 4)
        dense = DenseCode(code)
        frozen = set(code.frozen_set.tolist())
        sigma2 = 0.5
        for _ in range(40):
            _, met, y = _transmit_code(code, rng, sigma2)
            got = sc_decode(code, met)
            ref = np.zeros(8, dtype=np.int64)
            for j in range(8):
                if j in frozen:
                    continue
                pair = exhaustive_symbol_metric(dense, y, sigma2, j, 1, ref[:j])
                ref[j] = 1 if pair[1] >= pair[0] else 0
            assert np.array_equal(got, ref)

    def test_stage0_is_the_callers_array(self):
        # every path reads the same channel pairs: stage 0 is the metric
        # array itself, with a size-1 list axis, and reorders leave it alone
        met = np.random.default_rng(3).normal(size=(2, 1, 8, 2))
        bank = _PairBank((2, 4), met, 3)
        assert bank.up[0] is met
        bank.refresh(0)
        bank.take_static(np.array([0, 0, 1, 1]))
        bank.gather_paths(np.array([[3, 2, 1, 0], [0, 0, 1, 1]]))
        assert bank.up[0] is met
        assert [u.shape[:2] for u in bank.up[1:]] == [(2, 4)] * 3

    @pytest.mark.parametrize("M", [1, 4])
    def test_lazy_reorders_equal_eager_reorders(self, M):
        # random reorders between refresh and feed: the lazy bank returns
        # the same top pairs and, once its pending reorders are applied,
        # holds the same stages as a bank that reorders at once
        rng = np.random.default_rng(20 + M)
        B, L, w = 3, 4, 4
        met = rng.normal(size=(B, 1, M << w, 2))
        lazy = _PairBank((B, L), met, w)
        eager = _EagerBank((B, L), met, w)

        def reorder():
            for _ in range(rng.integers(0, 3)):
                if rng.random() < 0.3:
                    idx = rng.integers(0, L, size=L)
                    lazy.take_static(idx)
                    eager.take_static(idx)
                else:
                    idx = rng.integers(0, L, size=(B, L))
                    lazy.gather_paths(idx)
                    eager.gather_paths(idx)
                assert_same_stages()

        def assert_same_stages():
            b = np.arange(B)[:, None]
            for k, (got, want) in enumerate(((lazy.up, eager.up),
                                             (lazy.ev, eager.ev))):
                for s in range(1, lazy.w + 1):
                    e = lazy.epoch[k][s]
                    arr = got[s] if e == lazy.t else got[s][b, lazy.chain[e]]
                    assert np.array_equal(arr, want[s]), (k, s)

        for j in range(1 << w):
            assert np.array_equal(lazy.refresh(j), eager.refresh(j))
            assert_same_stages()
            reorder()
            bits = rng.integers(0, 2, size=(B, L, M))
            lazy.feed(j, bits)
            eager.feed(j, bits)
            assert np.array_equal(lazy.decided(j), eager.decided(j))
            assert_same_stages()
            reorder()
        assert lazy.t > 0 and np.array_equal(lazy.ev[0], eager.ev[0])

    def test_l1_decodes_create_no_pending_reorder(self, monkeypatch):
        from polarsim import scl
        banks = []

        class Recorded(_PairBank):
            def __init__(self, *args):
                super().__init__(*args)
                banks.append(self)

        monkeypatch.setattr(scl, "_PairBank", Recorded)
        code = construct_code(6, 24)
        met = initial_metrics(np.random.default_rng(4).normal(
            1.0, 1.0, (5, code.N)), 0.5)
        sc_decode_batch(code, met)
        symbol_sc_decode_batch(code, partition_symbols(code, 2), met)
        assert len(banks) == 2
        assert all(bank.t == 0 and not bank.chain for bank in banks)
        scl.scl_decode_batch(code, met, 4)
        assert banks[-1].t > 0

    @pytest.mark.parametrize("m", [0, 2])
    def test_partial_sums_reencode_prefix(self, m):
        # after a complete decode every stage's stored feedback bits match an
        # independent recomputation of the transformed decided sequence; a
        # symbol decode feeds its re-encoded symbols back at stage n - m
        rng = np.random.default_rng(8)
        code = construct_code(4, 10)
        _, met, _ = _transmit_code(code, rng, 0.6)
        part = partition_symbols(code, m)
        M, w = part.M, code.n - m
        bank = _PairBank((1,), met[None], w)
        u = np.zeros(code.N, dtype=np.int8)
        for j in range(part.symbol_count):
            table = _symbol_tables(bank.refresh(j))[0]
            hyps = part.hypotheses[j]
            sym = hyps[np.argmax(table[hyps])]
            u[j * M : (j + 1) * M] = int_to_bits(sym, M)
            bank.feed(j, symbol_component_bits(M)[sym][None])
            # the decided prefix, then zeros
            assert np.array_equal(bank.decided(j)[0], u)
        assert u.any() and not u[code.frozen_set].any()
        # node bit sequences: upper child takes even^odd, lower child takes odd
        seqs = {code.n: [u.astype(np.int64)]}
        for s in range(code.n - 1, -1, -1):
            prev, cur = seqs[s + 1], []
            for parent in prev:
                cur.append(parent[0::2] ^ parent[1::2])
                cur.append(parent[1::2])
            seqs[s] = cur
        assert np.array_equal(bank.ev[0][0], np.array([z[0] for z in seqs[0]]))
        for s in range(1, w + 1):
            width = 1 << s
            expect = np.array([z[width - 2] for z in seqs[s]])
            assert np.array_equal(bank.ev[s][0], expect)
        assert np.array_equal(bank.ev[0][0], encode_bits(u, code.n))


class TestSymbolScDecode:
    def test_m1_equals_bit_based(self):
        rng = np.random.default_rng(9)
        for n, K in ((3, 4), (5, 16), (6, 40)):
            code = construct_code(n, K)
            part = partition_symbols(code, 0)
            met = initial_metrics(rng.normal(0, 1, size=(64, code.N)), 0.5)
            assert np.array_equal(sc_decode_batch(code, met),
                                  symbol_sc_decode_batch(code, part, met))

    def test_frozen_symbol_is_zero(self):
        code = construct_code(3, 4, design_snr_db=0.0)  # symbol 0 mostly frozen
        part = partition_symbols(code, 1)  # symbols {0,1},{2,3},{4,5},{6,7}
        rng = np.random.default_rng(10)
        _, met, _ = _transmit_code(code, rng, 0.4)
        u = symbol_sc_decode(code, part, met)
        assert u[0] == 0 and u[1] == 0  # both positions frozen

    @pytest.mark.parametrize("n,K,m", [(3, 4, 2), (3, 6, 1), (4, 8, 2), (4, 11, 2)])
    def test_matches_enumeration_oracle(self, n, K, m):
        # symbol decisions equal the brute-force argmax over consistent
        # hypotheses of the exhaustively marginalized metric
        rng = np.random.default_rng(100 + n * 10 + m)
        code = construct_code(n, K)
        part = partition_symbols(code, m)
        dense = DenseCode(code)
        M = part.M
        sigma2 = 0.6
        for _ in range(25):
            _, met, y = _transmit_code(code, rng, sigma2)
            got = symbol_sc_decode(code, part, met)
            ref = np.zeros(code.N, dtype=np.int64)
            for j in range(part.symbol_count):
                hyps = part.hypotheses[j]
                if hyps.size == 1:
                    continue
                table = exhaustive_symbol_metric(dense, y, sigma2, j, M, ref[: j * M])
                cons = table[hyps]
                k = int(np.argmax(cons))  # ties take the smallest symbol
                sym = int(hyps[k])
                ref[j * M : (j + 1) * M] = [(sym >> (M - 1 - t)) & 1 for t in range(M)]
            assert np.array_equal(got, ref)

    def test_stage_tables_match_oracle_small(self, top_pairs):
        rng = np.random.default_rng(11)
        for n, m in ((3, 2), (4, 1), (4, 2)):
            code = construct_code(n, (1 << n) // 2)
            part = partition_symbols(code, m)
            dense = DenseCode(code)
            sigma2 = 0.5
            _, met, y = _transmit_code(code, rng, sigma2)
            top_pairs.clear()
            u = symbol_sc_decode_batch(code, part, met[None])
            for j in range(part.symbol_count):
                ref = exhaustive_symbol_metric(dense, y, sigma2, j, part.M,
                                               u[0, : j * part.M])
                got = _symbol_tables(top_pairs[j])[0]
                assert np.allclose(got - got.mean(), ref - ref.mean(),
                                   rtol=1e-9, atol=1e-9)

    def test_component_feedback_bits_n8_m4(self):
        # the four component decoders of an 8-bit block receive, per symbol,
        # exactly these transforms of the decided symbol bits:
        #   xor of all four, bits 2^3, bits 1^3, bit 3
        table = symbol_component_bits(4)
        for s in range(16):
            b = [(s >> (3 - i)) & 1 for i in range(4)]
            assert table[s].tolist() == [
                b[0] ^ b[1] ^ b[2] ^ b[3],
                b[2] ^ b[3],
                b[1] ^ b[3],
                b[3],
            ]

    def test_whole_block_symbol(self):
        # m = n: one symbol, pure ML over consistent hypotheses
        rng = np.random.default_rng(12)
        code = construct_code(3, 5)
        part = partition_symbols(code, 3)
        for _ in range(20):
            u, met, _ = _transmit_code(code, rng, 0.8)
            got = symbol_sc_decode(code, part, met)
            assert got[code.frozen_set].sum() == 0
