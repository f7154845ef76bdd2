"""Acceptance suite: one test per top-level criterion, each printing a
pass/fail line with the measured quantities (run with `pytest -s`)."""

import math

import numpy as np
import pytest

from polarsim.channel import initial_metrics, modulate
from polarsim.codec import polar_encode
from polarsim.construction import construct_code, partition_symbols
from polarsim.costs import (build_ctsn, build_tstsn,
                            channel_combination_additions,
                            ml_detector_additions)
from polarsim.pruning import exactness_check
from polarsim.sc import (_symbol_tables, sc_decode_batch,
                         symbol_sc_decode_batch)
from polarsim.scl import _best_path, scl_decode_batch, symbol_scl_decode_batch
from polarsim.sim import SimConfig, run_campaign, run_point

from oracle import (DenseCode, combination_identity_sides,
                    exhaustive_ml, exhaustive_symbol_metric)


def _report(name, ok, details):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {details}")


def test_proposition_identity():
    """Both sides of the recursive channel-combination identity agree to
    1e-12 relative on 1000 random instances."""
    rng = np.random.default_rng(2024)
    dense = {}
    for n in (2, 3, 4, 5, 6):
        dense[1 << n] = DenseCode(construct_code(n, 1 << n))
    combos = [(half, M) for half in (4, 8, 16, 32) for M in (1, 2, 4)
              if M <= half]
    per = -(-1000 // len(combos))
    worst = 0.0
    trials = 0
    for half, M in combos:
        full = 2 * half
        feasible = [j for j in range(half // M)
                    if full - 2 * (j + 1) * M <= 14]
        for _ in range(per):
            j = int(rng.choice(feasible))
            prefix = rng.integers(0, 2, size=2 * j * M)
            y = rng.normal(0, 1.1, full)
            sigma2 = float(rng.uniform(0.4, 1.2))
            lhs, rhs = combination_identity_sides(
                dense[full], dense[half], y, sigma2, j, M, prefix)
            worst = max(worst, float(np.abs(np.expm1(lhs - rhs)).max()))
            trials += 1
    ok = trials >= 1000 and worst <= 1e-12
    _report("proposition-1 identity", ok,
            f"{trials} instances, worst relative gap {worst:.3e} (tol 1e-12)")
    assert ok


def test_oracle_equivalence(top_pairs):
    """Symbol-stage metric tables match the exhaustive marginalization up to
    one additive constant, 1e-9 after mean-centering, 200 noise draws."""
    rng = np.random.default_rng(7)
    plan = [(3, 1, 34), (3, 2, 34), (4, 1, 33), (4, 2, 33), (5, 1, 33),
            (5, 2, 33)]
    worst = 0.0
    draws = 0
    checked = 0
    for n, m, count in plan:
        code = construct_code(n, (1 << n) // 2)
        part = partition_symbols(code, m)
        dense = DenseCode(code)
        M = part.M
        for _ in range(count):
            sigma2 = float(rng.uniform(0.3, 1.0))
            u = np.zeros(code.N, dtype=np.int64)
            u[code.info_set] = rng.integers(0, 2, code.K)
            y = modulate(polar_encode(code, u)) + rng.normal(
                0, math.sqrt(sigma2), code.N)
            met = initial_metrics(y, sigma2)
            top_pairs.clear()
            u_hat = symbol_sc_decode_batch(code, part, met[None])
            for j in range(part.symbol_count):
                if code.N - (j + 1) * M > 16:
                    continue
                ref = exhaustive_symbol_metric(dense, y, sigma2, j, M,
                                               u_hat[0, : j * M])
                got = _symbol_tables(top_pairs[j])[0]
                a = got - got.mean()
                b = ref - ref.mean()
                scale = max(1.0, float(np.abs(b).max()))
                worst = max(worst, float(np.abs(a - b).max()) / scale)
                checked += 1
            draws += 1
    ok = draws == 200 and worst <= 1e-9
    _report("oracle equivalence", ok,
            f"{draws} draws, {checked} tables, worst centered error "
            f"{worst:.3e} (tol 1e-9)")
    assert ok


def test_degeneracy_chain():
    """symbol SC(M=1) == SC, SCL(L=1) == SC and symbol SCL(M=1, q=L) == SCL,
    exactly, over 10^4 random frames with N up to 64."""
    rng = np.random.default_rng(99)
    plans = [(3, 4, 2500), (4, 11, 2500), (5, 16, 2500), (6, 32, 2500)]
    frames = 0
    all_ok = True
    for n, K, count in plans:
        code = construct_code(n, K)
        part = partition_symbols(code, 0)
        met = initial_metrics(rng.normal(0, 1.0, (count, code.N)), 0.5)
        sc = sc_decode_batch(code, met)
        ssc = symbol_sc_decode_batch(code, part, met)
        h1, p1, a1 = scl_decode_batch(code, met, 1)
        scl1 = _best_path(h1, p1, a1)
        L = 4
        h2, p2, a2 = scl_decode_batch(code, met, L)
        h3, p3, a3 = symbol_scl_decode_batch(code, part, met, L, L)
        all_ok &= np.array_equal(ssc, sc)
        all_ok &= np.array_equal(scl1, sc)
        all_ok &= np.array_equal(_best_path(h2, p2, a2), _best_path(h3, p3, a3))
        all_ok &= np.array_equal(h2, h3)
        frames += count
    ok = all_ok and frames >= 10000
    _report("degeneracy chain", ok,
            f"{frames} frames across N in {{8,16,32,64}}, exact equality: {all_ok}")
    assert ok


def test_ml_limit():
    """SCL with L = 2^K equals exhaustive ML on 500 random frames, N=16."""
    rng = np.random.default_rng(5)
    code = construct_code(4, 10)
    dense = DenseCode(code)
    sigma2 = 0.7
    L = 1 << code.K
    matches = 0
    total = 500
    for lo in range(0, total, 50):
        count = min(50, total - lo)
        u = np.zeros((count, code.N), dtype=np.int64)
        u[:, code.info_set] = rng.integers(0, 2, (count, code.K))
        x = np.array([polar_encode(code, row) for row in u])
        y = modulate(x) + rng.normal(0, math.sqrt(sigma2), x.shape)
        met = initial_metrics(y, sigma2)
        hist, pm, alpha = scl_decode_batch(code, met, L)
        got = _best_path(hist, pm, alpha)
        for b in range(count):
            ref = exhaustive_ml(dense, y[b], sigma2)
            matches += int(np.array_equal(got[b], ref))
    ok = matches == total
    _report("ML limit", ok, f"{matches}/{total} frames identical at L=2^K={L}")
    assert ok


def test_addition_counts():
    """Direct-detector vs recursive-combination addition counts."""
    ml4 = ml_detector_additions(4)
    cc4 = channel_combination_additions(4)
    dominance = all(channel_combination_additions(M) < ml_detector_additions(M)
                    for M in (4, 8, 16))
    ok = ml4 == 48 and cc4 == 24 and dominance
    _report("addition counts", ok,
            f"M=4: direct={ml4} (want 48), recursive={cc4} (want 24); "
            f"dominance for M in {{4,8,16}}: {dominance}")
    assert ok


def test_two_stage_exactness_theorem():
    """With q >= L and 2^M > L the two-stage selection equals the full sort
    on 10^5 random instances per configuration."""
    results = {}
    for M, L in ((3, 4), (4, 4), (4, 8)):
        results[(M, L)] = exactness_check(M, L, L, trials=100000, seed=31 + M)
    ok = all(v == 1.0 for v in results.values())
    _report("two-stage exactness theorem", ok,
            "; ".join(f"(M={M},L={L}): {v:.6f}" for (M, L), v in results.items()))
    assert ok


@pytest.mark.slow
def test_fer_parity_symbol_vs_bit():
    """(1024,512), L=4, 2.0 dB, shared seed: symbol-based and bit-based list
    decoding FERs agree within two binomial standard errors."""
    frames = 5000
    recs = {}
    for decoder in ("scl", "sscl"):
        cfg = SimConfig(n=10, K=512, decoder=decoder, symbol_bits=4,
                        list_size=4, stage1_keep=4, max_frames=frames,
                        max_frame_errors=0, seed=77, workers=4)
        recs[decoder] = run_point(cfg, 2.0)
    a, b = recs["scl"], recs["sscl"]
    se = math.sqrt(a.fer * (1 - a.fer) / a.frames
                   + b.fer * (1 - b.fer) / b.frames)
    diff = abs(a.fer - b.fer)
    ok = diff <= 2 * se and a.frames >= 5000
    _report("FER parity (symbol vs bit SCL)", ok,
            f"FER(scl)={a.fer:.4e} FER(sscl-4)={b.fer:.4e} |diff|={diff:.2e} "
            f"<= 2*SE={2 * se:.2e} over {a.frames} shared-seed frames")
    assert ok


@pytest.mark.slow
def test_q_degradation_direction():
    """(1024,512), symbol SCL M=4, L=8 at 1.5 dB (FER(q=8) inside [1e-3,
    1e-1]): q=2 degrades FER with 95% confidence; q=4 stays within 2 sigma."""
    frames = 20000
    recs = {}
    for q in (8, 4, 2):
        cfg = SimConfig(n=10, K=512, decoder="sscl", symbol_bits=4,
                        list_size=8, stage1_keep=q, max_frames=frames,
                        max_frame_errors=0, seed=11, workers=4)
        recs[q] = run_point(cfg, 1.5)
    p8, p4, p2 = recs[8].fer, recs[4].fer, recs[2].fer
    in_band = 1e-3 <= p8 <= 1e-1
    se28 = math.sqrt(p2 * (1 - p2) / frames + p8 * (1 - p8) / frames)
    z = (p2 - p8) / se28
    se48 = math.sqrt(p4 * (1 - p4) / frames + p8 * (1 - p8) / frames)
    parity4 = abs(p4 - p8) <= 2 * se48
    ok = in_band and z > 1.645 and parity4
    _report("q-degradation direction", ok,
            f"FER(q=8)={p8:.4e} (in band: {in_band}), FER(q=2)={p2:.4e} "
            f"z={z:.2f} (>1.645), FER(q=4)={p4:.4e} within 2 sigma: {parity4}; "
            f"{frames} frames per point")
    assert ok


def test_sorting_network_dominance():
    """TSTSN(M=4, L=8, q=4) strictly beats CTSN(M=4, L=8) in comparator
    count and depth (area/delay figures are out of scope)."""
    ctsn = build_ctsn(4, 8)
    tstsn = build_tstsn(4, 8, 4)
    ok = (tstsn.comparators < ctsn.comparators) and (tstsn.depth < ctsn.depth)
    _report("sorting-network dominance", ok,
            f"tstsn {tstsn.comparators} comparators / depth {tstsn.depth} < "
            f"ctsn {ctsn.comparators} / {ctsn.depth}")
    assert ok


def test_campaign_determinism(tmp_path):
    """Identical configurations produce byte-identical CSV output."""
    outputs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        cfg = SimConfig(n=6, K=32, decoder="scl", list_size=2,
                        snr_start=1.0, snr_step=1.0, snr_stop=3.0,
                        max_frames=300, max_frame_errors=0, seed=13,
                        workers=3, out=str(out))
        run_campaign(cfg, log=lambda msg: None)
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    _report("campaign determinism", ok,
            f"two runs, {len(outputs[0])} CSV bytes, byte-identical: {ok}")
    assert ok
