import numpy as np
import pytest

from polarsim import sc
from polarsim.channel import initial_metrics, modulate
from polarsim.codec import CrcSpec, attach_crc, polar_encode, scatter_info
from polarsim.construction import construct_code, partition_symbols
from polarsim.sc import (sc_decode, sc_decode_batch, symbol_sc_decode,
                         symbol_sc_decode_batch)
from polarsim.scl import (_best_path, ca_scl_decode, ca_scl_decode_batch,
                          scl_decode, scl_decode_batch, symbol_scl_decode,
                          symbol_scl_decode_batch)

from oracle import DenseCode, exhaustive_ml, exhaustive_symbol_metric


def _transmit(code, rng, sigma2, info=None):
    u = np.zeros(code.N, dtype=np.int64)
    if info is None:
        info = rng.integers(0, 2, size=code.K)
    u[code.info_set] = info
    x = polar_encode(code, u)
    y = modulate(x) + rng.normal(0, np.sqrt(sigma2), code.N)
    return u, y, initial_metrics(y, sigma2)


class _ReferenceBitScl:
    """Plain-python list decoder driven by brute-force metrics.

    Shares no code with the production engine: per-bit metrics come from
    exhaustive marginalization and pruning is python `sorted` with the
    documented tie order.
    """

    def __init__(self, code, y, sigma2, L):
        self.code = code
        self.dense = DenseCode(code)
        self.y = y
        self.sigma2 = sigma2
        self.L = L
        self.frozen = set(code.frozen_set.tolist())

    def run(self):
        paths = [((), 0.0)]
        states = []
        for j in range(self.code.N):
            metrics = {}
            for prefix, _ in paths:
                pair = exhaustive_symbol_metric(
                    self.dense, self.y, self.sigma2, j, 1, np.array(prefix))
                metrics[prefix] = pair
            if j in self.frozen:
                paths = [(p + (0,), metrics[p][0]) for p, _ in paths]
            elif 2 * len(paths) <= self.L:
                grown = [(p + (0,), metrics[p][0]) for p, _ in paths]
                grown += [(p + (1,), metrics[p][1]) for p, _ in paths]
                paths = grown
            else:
                cands = []
                for i, (p, _) in enumerate(paths):
                    for b in (0, 1):
                        cands.append((-metrics[p][b], i, b, p))
                cands.sort()
                paths = [(p + (b,), -negm) for negm, i, b, p in cands[: self.L]]
            states.append([p for p, _ in paths])
        order = sorted(range(len(paths)), key=lambda i: -paths[i][1])
        return np.array(paths[order[0]][0]), states


class TestSclDecode:
    def test_l1_equals_sc(self):
        rng = np.random.default_rng(0)
        for n, K in ((3, 4), (5, 16), (6, 33)):
            code = construct_code(n, K)
            met = initial_metrics(rng.normal(0, 1, (300, code.N)), 0.5)
            hist, pm, alpha = scl_decode_batch(code, met, 1)
            assert np.array_equal(_best_path(hist, pm, alpha),
                                  sc_decode_batch(code, met))

    @pytest.mark.parametrize("m", [0, 1])
    def test_l1_tie_order_matches_sc(self, m):
        # all-zero metrics tie every hypothesis; SC and the list decoder at
        # L = 1 share one tie order and take the smallest symbol each time
        code = construct_code(4, 8)
        part = partition_symbols(code, m)
        zero = np.zeros((code.N, 2))
        words = [sc_decode(code, zero), scl_decode(code, zero, 1),
                 symbol_sc_decode(code, part, zero),
                 symbol_scl_decode(code, part, zero, 1, 1)]
        for word in words:
            assert word.tolist() == [0] * code.N

    # frozen sets of N = 64 read from a file: the first 32 bits frozen (one
    # 32-bit rate-0 block at M = 1), and the last bit frozen along with
    # symbols spread through the word (the last symbol, whose metric is
    # returned, steps alone)
    _FROZEN_FILES = {
        "first": list(range(32)) + [33, 34, 36, 40, 48],
        "last": list(range(0, 64, 3)) + [61, 62],
    }

    @pytest.mark.parametrize("K,m,L,q", [
        *(pytest.param(24, m, L, L, id=f"{m}-{L}")
          for m, L in ((0, 1), (0, 4), (2, 1), (2, 4))),
        (24, 1, 8, 2), (4, 0, 1, 1), (4, 1, 8, 8), (64, 0, 8, 8),
        (64, 2, 2, 2), ("first", 0, 2, 2), ("first", 2, 8, 8),
        ("last", 0, 8, 8), ("last", 1, 2, 2), ("last", 2, 1, 1),
        ("last", 2, 8, 4)])
    def test_final_metrics_independent_of_trace_hook(self, tmp_path, K, m,
                                                      L, q):
        # an untraced decode skips rate-0 blocks, a traced one steps every
        # symbol; frozen and L = 1 steps set the path metrics only where
        # they are seen, and the returned ones must equal the traced ones
        rng = np.random.default_rng(6)
        if isinstance(K, str):
            path = tmp_path / "frozen.txt"
            frozen = self._FROZEN_FILES[K]
            path.write_text("".join(f"{i}\n" for i in frozen))
            code = construct_code(6, 64 - len(frozen), frozen_file=str(path))
        else:
            code = construct_code(6, K)
        part = partition_symbols(code, m)
        met = initial_metrics(rng.normal(0, 1, (5, code.N)), 0.5)
        seen = []
        hook = lambda j, a, h, pm: seen.append(pm.copy())
        hist, pm, alpha = symbol_scl_decode_batch(code, part, met, L, q)
        hist_t, pm_t, alpha_t = symbol_scl_decode_batch(code, part, met, L, q,
                                                        trace_hook=hook)
        assert np.array_equal(hist, hist_t) and alpha == alpha_t
        assert np.array_equal(pm, pm_t) and np.array_equal(pm, seen[-1])
        assert np.all(np.isfinite(pm[:, :alpha]))

    @pytest.mark.parametrize("K,m,calls", [(512, 0, 1124), (512, 2, 333),
                                           (256, 0, 644), (256, 2, 228)])
    def test_rate0_blocks_skip_pair_transforms(self, monkeypatch, K, m, calls):
        # each rate-0 block computes only the stages above its root; a
        # traced decode runs every transform, 2^(w+1) - 2 per decode
        made = []
        for name in ("transform_check", "transform_combine"):
            def counted(*args, _fn=getattr(sc, name), **kwargs):
                made.append(1)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(sc, name, counted)
        code = construct_code(10, K)
        part = partition_symbols(code, m)
        met = np.zeros((1, code.N, 2))
        for L in (1, 4):
            made.clear()
            symbol_scl_decode_batch(code, part, met, L, L)
            assert len(made) == calls
            made.clear()
            symbol_scl_decode_batch(code, part, met, L, L,
                                    trace_hook=lambda *a: None)
            assert len(made) == (2 << (code.n - m)) - 2

    def test_noiseless(self):
        rng = np.random.default_rng(1)
        code = construct_code(4, 8)
        u, _, _ = _transmit(code, rng, 1.0)
        met = initial_metrics(modulate(polar_encode(code, u)), 0.5)
        assert np.array_equal(scl_decode(code, met, 4), u)

    def test_list_size_validation(self):
        code = construct_code(3, 4)
        with pytest.raises(ValueError):
            scl_decode(code, np.zeros((8, 2)), 3)

    def test_ml_when_list_covers_all_messages(self):
        rng = np.random.default_rng(2)
        code = construct_code(4, 6)
        dense = DenseCode(code)
        sigma2 = 0.7
        for _ in range(50):
            _, y, met = _transmit(code, rng, sigma2)
            assert np.array_equal(scl_decode(code, met, 64),
                                  exhaustive_ml(dense, y, sigma2))

    def test_reference_trace_n8_l2(self):
        # step-by-step path sets match the brute-force list decoder
        rng = np.random.default_rng(3)
        code = construct_code(3, 4)
        sigma2 = 0.8
        for _ in range(10):
            _, y, met = _transmit(code, rng, sigma2)
            ref_out, ref_states = _ReferenceBitScl(code, y, sigma2, 2).run()
            got_states = []
            hook = lambda j, a, h, pm: got_states.append(
                [tuple(h[0, i, : j + 1].tolist()) for i in range(a)])
            hist, pm, alpha = scl_decode_batch(code, met[None], 2,
                                               trace_hook=hook)
            for js, (ref, got) in enumerate(zip(ref_states, got_states)):
                assert set(ref) == set(got), f"bit {js}"
            assert np.array_equal(_best_path(hist, pm, alpha)[0], ref_out)

    def test_list_histories_distinct(self):
        rng = np.random.default_rng(4)
        code = construct_code(5, 20)
        _, _, met = _transmit(code, rng, 1.0)

        def hook(j, alpha, hist, pm):
            rows = {tuple(hist[0, i, : j + 1].tolist()) for i in range(alpha)}
            assert len(rows) == alpha

        scl_decode_batch(code, met[None], 4, trace_hook=hook)

    def test_candidate_metrics_are_consistent_marginals(self):
        # summing a path's candidate table over both extensions reproduces
        # its previous metric up to one step-wide constant
        rng = np.random.default_rng(5)
        code = construct_code(4, 16)  # rate 1: every bit expands
        _, _, met = _transmit(code, rng, 0.9)
        seen = []

        def hook(j, alpha, hist, pm):
            seen.append(pm[0, :alpha].copy())

        scl_decode_batch(code, met[None], 4, trace_hook=hook)
        assert len(seen) == code.N


class TestCaSclDecode:
    def _crc_code(self, n, K, width=4):
        from polarsim.codec import CrcSpec
        crc = CrcSpec(width=width, poly=0x3, init=0x0)
        return construct_code(n, K, crc=crc)

    def test_requires_crc(self):
        code = construct_code(3, 4)
        with pytest.raises(ValueError):
            ca_scl_decode(code, np.zeros((8, 2)), 2)

    def test_noiseless_selects_transmitted(self):
        rng = np.random.default_rng(6)
        code = self._crc_code(4, 8)
        payload = rng.integers(0, 2, size=code.K - 4)
        info = attach_crc(payload, code.crc)
        u = scatter_info(code, info)
        met = initial_metrics(modulate(polar_encode(code, u)), 0.5)
        assert np.array_equal(ca_scl_decode(code, met, 4), u)

    def test_fallback_when_no_path_valid(self):
        # a CRC the decoder cannot satisfy forces the plain SCL decision
        rng = np.random.default_rng(7)
        code = self._crc_code(4, 8)
        nocrc = construct_code(4, 8)
        for _ in range(100):
            met = initial_metrics(rng.normal(0, 1.5, code.N), 1.0)
            hist, pm, alpha = scl_decode_batch(nocrc, met[None], 4)
            info = hist[0, :alpha][:, code.info_set]
            from polarsim.codec import verify_crc
            if not verify_crc(info, code.crc).any():
                got = ca_scl_decode(code, met, 4)
                assert np.array_equal(got, _best_path(hist, pm, alpha)[0])
                return
        pytest.fail("no all-invalid instance found")

    def test_lower_rank_valid_path_selected(self):
        # hunt for a frame where the metric-best path fails the CRC but a
        # lower-ranked one passes: CA selection must return the valid one
        code = self._crc_code(4, 9, width=4)
        from polarsim.codec import verify_crc
        found = False
        for seed in range(400):
            rng = np.random.default_rng(seed)
            payload = rng.integers(0, 2, size=code.K - 4)
            info = attach_crc(payload, code.crc)
            u = scatter_info(code, info)
            y = modulate(polar_encode(code, u)) + rng.normal(0, 1.0, code.N)
            met = initial_metrics(y, 1.0)
            hist, pm, alpha = scl_decode_batch(code, met[None], 8)
            order = np.argsort(-pm[0, :alpha], kind="stable")
            valid = verify_crc(hist[0, order][:, code.info_set], code.crc)
            if valid.any() and not valid[0]:
                rank = int(np.flatnonzero(valid)[0])
                expect = hist[0, order[rank]]
                got = ca_scl_decode(code, met, 8)
                assert np.array_equal(got, expect)
                found = True
                break
        assert found, "no rank>1 CRC-valid instance in the search budget"


class _ReferenceSymbolScl:
    """Brute-force symbol list decoder: exhaustive tables, python sorting."""

    def __init__(self, code, part, y, sigma2, L, q):
        self.code = code
        self.part = part
        self.dense = DenseCode(code)
        self.y = y
        self.sigma2 = sigma2
        self.L = L
        self.q = q

    def run(self):
        M = self.part.M
        paths = [((), 0.0)]
        states = []
        for j in range(self.part.symbol_count):
            hyps = self.part.hypotheses[j]
            beta = hyps.size
            tables = {}
            for prefix, _ in paths:
                tables[prefix] = exhaustive_symbol_metric(
                    self.dense, self.y, self.sigma2, j, M, np.array(prefix))
            def ext(prefix, sym):
                return prefix + tuple((sym >> (M - 1 - t)) & 1 for t in range(M))
            if beta == 1:
                paths = [(ext(p, 0), tables[p][0]) for p, _ in paths]
            elif len(paths) * beta <= self.L:
                grown = []
                for k in range(beta):
                    for p, _ in paths:
                        grown.append((ext(p, int(hyps[k])), tables[p][hyps[k]]))
                paths = grown
            else:
                survivors = []
                for i, (p, _) in enumerate(paths):
                    group = sorted(
                        ((-tables[p][hyps[k]], i, k) for k in range(beta)))
                    survivors.extend(group[: self.q])
                survivors.sort()
                paths = [
                    (ext(paths[i][0], int(hyps[k])), -negm)
                    for negm, i, k in survivors[: self.L]
                ]
            states.append([p for p, _ in paths])
        order = sorted(range(len(paths)), key=lambda i: -paths[i][1])
        return np.array(paths[order[0]][0]), states


def _live_counts(part, L, q):
    """Live list entries after each symbol, and the symbols whose pruning
    step has fewer than L stage-1 survivors (alpha * q < L)."""
    alpha, alphas, padded = 1, [], []
    for j in range(part.symbol_count):
        beta = part.hypotheses[j].size
        if alpha * beta > L:
            beta = min(q, beta)
            if alpha * beta < L:
                padded.append(j)
        alpha = min(L, alpha * beta)
        alphas.append(alpha)
    return alphas, padded


class TestSymbolSclDecode:
    def test_m1_qL_equals_scl_exactly(self):
        rng = np.random.default_rng(8)
        for n, K, L in ((3, 4, 2), (5, 16, 4), (6, 40, 8)):
            code = construct_code(n, K)
            part = partition_symbols(code, 0)
            met = initial_metrics(rng.normal(0, 1, (100, code.N)), 0.5)
            h1, p1, a1 = scl_decode_batch(code, met, L)
            h2, p2, a2 = symbol_scl_decode_batch(code, part, met, L, L)
            assert a1 == a2
            assert np.array_equal(h1, h2)
            assert np.allclose(p1[:, :a1], p2[:, :a2])

    def test_q_equal_l_matches_full_sort_selection(self):
        # with q = L every pruning step equals the full sort, so decoding
        # with q = L and with q clamped to the group size agree exactly
        rng = np.random.default_rng(9)
        code = construct_code(5, 21)
        part = partition_symbols(code, 2)
        met = initial_metrics(rng.normal(0, 1, (100, code.N)), 0.5)
        h1, p1, a1 = symbol_scl_decode_batch(code, part, met, 4, 4)
        h2, p2, a2 = symbol_scl_decode_batch(code, part, met, 4, 4)
        assert np.array_equal(h1, h2) and np.allclose(p1, p2)

    def test_reference_trace_n8_m4_l4(self):
        rng = np.random.default_rng(10)
        code = construct_code(3, 5)
        part = partition_symbols(code, 2)
        sigma2 = 0.8
        for _ in range(8):
            _, y, met = _transmit(code, rng, sigma2)
            ref_out, ref_states = _ReferenceSymbolScl(
                code, part, y, sigma2, 4, 4).run()
            got_states = []
            M = part.M
            hook = lambda j, a, h, pm: got_states.append(
                [tuple(h[0, i, : (j + 1) * M].tolist()) for i in range(a)])
            hist, pm, alpha = symbol_scl_decode_batch(
                code, part, met[None], 4, 4, trace_hook=hook)
            for js, (ref, got) in enumerate(zip(ref_states, got_states)):
                assert set(ref) == set(got), f"symbol {js}"
            assert np.array_equal(_best_path(hist, pm, alpha)[0], ref_out)

    def test_reference_trace_with_small_q(self):
        rng = np.random.default_rng(11)
        code = construct_code(4, 11)
        part = partition_symbols(code, 2)
        sigma2 = 1.0
        for _ in range(6):
            _, y, met = _transmit(code, rng, sigma2)
            ref_out, ref_states = _ReferenceSymbolScl(
                code, part, y, sigma2, 4, 2).run()
            got_states = []
            hook = lambda j, a, h, pm: got_states.append(
                [tuple(h[0, i, : (j + 1) * 4].tolist()) for i in range(a)])
            hist, pm, alpha = symbol_scl_decode_batch(
                code, part, met[None], 4, 2, trace_hook=hook)
            for js, (ref, got) in enumerate(zip(ref_states, got_states)):
                assert set(ref) == set(got), f"symbol {js}"
            assert np.array_equal(_best_path(hist, pm, alpha)[0], ref_out)

    def test_expansion_with_fewer_paths_than_list_size(self):
        # a 1-info symbol followed by a 3-info symbol with L=8 expands two
        # live paths to sixteen candidates: the alpha < L < alpha*beta case
        rng = np.random.default_rng(14)
        code = construct_code(3, 4, design_snr_db=0.0)
        part = partition_symbols(code, 2)
        sigma2 = 1.0
        for _ in range(10):
            _, y, met = _transmit(code, rng, sigma2)
            ref_out, ref_states = _ReferenceSymbolScl(
                code, part, y, sigma2, 8, 4).run()
            alphas = []
            hook = lambda j, a, h, pm: alphas.append(a)
            hist, pm, alpha = symbol_scl_decode_batch(
                code, part, met[None], 8, 4, trace_hook=hook)
            assert alphas == [2, 8]
            got = {tuple(hist[0, i].tolist()) for i in range(alpha)}
            assert got == set(ref_states[-1])
            assert np.array_equal(_best_path(hist, pm, alpha)[0], ref_out)

    @pytest.mark.parametrize("n,K,m,L,q", [
        (3, 5, 2, 8, 1), (3, 6, 2, 16, 2), (4, 8, 1, 8, 1), (4, 10, 2, 4, 1),
        (4, 11, 2, 8, 1), (4, 11, 2, 8, 2)])
    def test_fewer_than_l_over_q_live_paths(self, n, K, m, L, q):
        # a pruning step with alpha * q < L keeps all its stage-1 survivors,
        # sorted, and the rest of the list is inactive with metric -inf
        code = construct_code(n, K)
        part = partition_symbols(code, m)
        alphas, padded = _live_counts(part, L, q)
        assert padded
        rng = np.random.default_rng(100 * n + K)
        for _ in range(4):
            _, y, met = _transmit(code, rng, 1.0)
            ref_out, ref_states = _ReferenceSymbolScl(
                code, part, y, 1.0, L, q).run()
            got_states, got_alphas = [], []

            def hook(j, a, h, pm):
                got_alphas.append(a)
                got_states.append(sorted(
                    tuple(h[0, i, : (j + 1) * part.M].tolist())
                    for i in range(a)))
                assert np.isfinite(pm[:, :a]).all()
                assert (pm[:, a:] == -np.inf).all()
            hist, pm, alpha = symbol_scl_decode_batch(
                code, part, met[None], L, q, trace_hook=hook)
            assert got_alphas == alphas
            assert got_states == [sorted(s) for s in ref_states]
            assert np.array_equal(_best_path(hist, pm, alpha)[0], ref_out)

    @pytest.mark.parametrize("L,q", [(8, 1), (16, 2)])
    def test_fewer_than_l_over_q_live_paths_n1024(self, L, q):
        code = construct_code(10, 256)
        part = partition_symbols(code, 2)
        alphas, padded = _live_counts(part, L, q)
        assert padded
        rng = np.random.default_rng(L + q)
        frames = [_transmit(code, rng, 0.5) for _ in range(3)]
        met = np.stack([f[2] for f in frames])
        got_alphas = []
        hist, pm, alpha = symbol_scl_decode_batch(
            code, part, met, L, q,
            trace_hook=lambda j, a, h, pm: got_alphas.append(a))
        assert got_alphas == alphas
        assert np.isfinite(pm[:, :alpha]).all()
        assert (pm[:, alpha:] == -np.inf).all()
        best = _best_path(hist, pm, alpha)
        for b, (u, _, m_b) in enumerate(frames):
            assert len({tuple(h) for h in hist[b, :alpha].tolist()}) == alpha
            assert np.array_equal(best[b], u)
            assert np.array_equal(symbol_scl_decode(code, part, m_b, L, q),
                                  best[b])

    def test_q_validation(self):
        code = construct_code(3, 4)
        part = partition_symbols(code, 2)
        met = np.zeros((8, 2))
        with pytest.raises(ValueError):
            symbol_scl_decode(code, part, met, 4, 0)
        with pytest.raises(ValueError):
            symbol_scl_decode(code, part, met, 4, 8)

    def test_path_metrics_monotone_under_extension(self):
        # a candidate's metric never exceeds its parent's table maximum, and
        # within one step all paths share the marginalization constant
        rng = np.random.default_rng(12)
        code = construct_code(5, 26)
        part = partition_symbols(code, 2)
        _, _, met = _transmit(code, rng, 0.9)
        pms = []
        hook = lambda j, a, h, pm: pms.append(pm[0, :a].copy())
        symbol_scl_decode_batch(code, part, met[None], 4, 4, trace_hook=hook)
        # metrics are joint log-probabilities of growing prefixes: bounded
        # above by any earlier ancestor metric plus the step constants, and
        # never -inf for finite channel metrics
        for pm in pms:
            assert np.all(np.isfinite(pm))

    def test_surviving_sets_usually_match_bit_scl(self):
        # with q = L and no ties, the symbol decoder's surviving set at a
        # symbol boundary usually (not always: a mid-symbol pruned prefix
        # can re-enter via a strong joint extension) matches bit SCL
        rng = np.random.default_rng(13)
        code = construct_code(5, 16)
        part = partition_symbols(code, 2)
        M, L = 4, 4
        agree = 0
        trials = 60
        for _ in range(trials):
            _, _, met = _transmit(code, rng, 0.55)
            bit_states = {}
            hook_b = lambda j, a, h, pm: bit_states.__setitem__(
                j, {tuple(h[0, i, : j + 1].tolist()) for i in range(a)})
            scl_decode_batch(code, met[None], L, trace_hook=hook_b)
            sym_states = {}
            hook_s = lambda j, a, h, pm: sym_states.__setitem__(
                j, {tuple(h[0, i, : (j + 1) * M].tolist()) for i in range(a)})
            symbol_scl_decode_batch(code, part, met[None], L, L,
                                    trace_hook=hook_s)
            matches = all(sym_states[j] == bit_states[(j + 1) * M - 1]
                          for j in range(part.symbol_count))
            agree += matches
        assert agree / trials > 0.7


def _single_frame_decoders():
    from polarsim.codec import CrcSpec
    code = construct_code(4, 8)
    crc_code = construct_code(4, 8, crc=CrcSpec(width=4, poly=0x3, init=0x0))
    part = partition_symbols(code, 2)
    return {
        "sc_decode": (code, lambda m: sc_decode(code, m)),
        "symbol_sc_decode": (code, lambda m: symbol_sc_decode(code, part, m)),
        "scl_decode": (code, lambda m: scl_decode(code, m, 4)),
        "ca_scl_decode": (crc_code, lambda m: ca_scl_decode(crc_code, m, 4)),
        "symbol_scl_decode": (
            code, lambda m: symbol_scl_decode(code, part, m, 4, 2)),
    }


@pytest.mark.parametrize("entry", sorted(_single_frame_decoders()))
@pytest.mark.parametrize("bad", ["nan", "+inf", "-inf", "-inf pair",
                                 "shape"])
def test_single_frame_rejects_bad_metrics(entry, bad):
    code, decode = _single_frame_decoders()[entry]
    met = initial_metrics(modulate(np.zeros(code.N, int)), 0.5)
    decode(met)  # the clean word decodes
    if bad == "shape":
        met = met[:-1]
    else:
        met[3] = {"nan": [0.0, np.nan], "+inf": [np.inf, 0.0],
                  "-inf": [0.0, -np.inf], "-inf pair": [-np.inf, -np.inf]}[bad]
    with pytest.raises(ValueError, match="metrics must"):
        decode(met)


@pytest.mark.parametrize("other", [(5, 16), (6, 40), (6, 32, 4.0)])
@pytest.mark.parametrize("decode", [
    symbol_sc_decode,
    lambda code, part, met: symbol_scl_decode(code, part, met, 4, 2),
], ids=["symbol_sc_decode", "symbol_scl_decode"])
def test_symbol_decoders_reject_another_codes_partition(other, decode):
    # a partition of a shorter code, or of one with another frozen set
    code = construct_code(6, 32)
    met = initial_metrics(modulate(np.zeros(code.N, int)), 0.5)
    assert not decode(code, partition_symbols(code, 2), met).any()
    foreign = partition_symbols(construct_code(*other), 2)
    with pytest.raises(ValueError, match="partition does not match"):
        decode(code, foreign, met)


def _batch_decoders():
    code = construct_code(6, 24, crc=CrcSpec(width=4, poly=0x3, init=0xF))
    part = partition_symbols(code, 2)
    return code, {
        "sc_decode_batch": lambda m: sc_decode_batch(code, m),
        "symbol_sc_decode_batch": lambda m: symbol_sc_decode_batch(
            code, part, m),
        "scl_decode_batch": lambda m: scl_decode_batch(code, m, 4)[0],
        "ca_scl_decode_batch": lambda m: ca_scl_decode_batch(code, m, 4),
        "symbol_scl_decode_batch": lambda m: symbol_scl_decode_batch(
            code, part, m, 4, 2)[0],
    }


@pytest.mark.parametrize("entry", sorted(_batch_decoders()[1]))
def test_batch_decoders_never_write_metrics(entry):
    # the pair bank's stage 0 is the caller's metric array: a read-only
    # array decodes to the same decisions as a writable copy
    code, decoders = _batch_decoders()
    rng = np.random.default_rng(17)
    met = initial_metrics(rng.normal(1.0, 1.0, (6, code.N)), 0.5)
    frozen = met.copy()
    frozen.setflags(write=False)
    decode = decoders[entry]
    assert np.array_equal(decode(frozen), decode(met.copy()))
