"""One workload run, in its own process: set-up, timed rounds and checks.

`run.py` starts this script and passes the monotonic time at which it
started the process, so `setup_s` covers interpreter start, the imports,
code construction and the symbol partition. The last line of standard
output is one JSON object: the contract fields plus a `record` with the
details that `run.py` writes to the result file.

A round runs, for each decoder of the workload, `sim.run_point` on a fixed
frame budget and then the single-frame API on words the benchmark makes
itself, whose decisions must equal the batched decisions on the same words.
Rounds repeat until `--seconds` have passed. `frames_per_s` is the median
over rounds; `single_frames_per_s` comes from the median call time.
With `--trace 1` each round runs twice, untraced and traced, and the run
reports per-layer figures instead of end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import replace

import numpy as np

from tracing import HOOKS, Tracer
from workloads import NOISELESS_WORDS, ROUND_BITS, SEED_LIMIT, WORKLOADS, K, N_EXP

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_FILE = os.path.join(HERE, "reference_fer.json")

# Band half-width, in standard deviations of the difference between the
# run's FER and the reference FER (both binomial).
FER_BAND_SIGMAS = 6.0

# Per-layer metrics. kind "total", "self" or "calls" reads span `key`;
# "count" reads counter `key`; "ratio" divides two counters.
CAMPAIGN_LAYERS = (
    ("sim.run_point.self_s", "s", "self", "sim.run_point"),
    ("codec.scatter_info_batch_s", "s", "total", "codec.scatter_info_batch"),
    ("codec.attach_crc_s", "s", "total", "codec.attach_crc"),
    ("codec.encode_bits_s", "s", "total", "codec.encode_bits"),
    ("channel.modulate_s", "s", "total", "channel.modulate"),
    ("channel.initial_metrics_s", "s", "total", "channel.initial_metrics"),
)
DECODER_LAYERS = (
    ("sc.refresh_s", "s", "total", "sc.refresh"),
    ("sc.refresh.calls", "count", "calls", "sc.refresh"),
    ("sc.feed_s", "s", "total", "sc.feed"),
    ("sc.decode.self_s", "s", "self", "sc.decode"),
    ("sc.gather_paths_s", "s", "total", "sc.gather_paths"),
    ("sc.gather_paths.calls", "count", "calls", "sc.gather_paths"),
    ("sc.gather_paths.bytes", "bytes", "count", "sc.gather_paths.bytes"),
    ("sc.take_static_s", "s", "total", "sc.take_static"),
    ("scl.decode.self_s", "s", "self", "scl.decode"),
    ("scl.hist.bytes_copied", "bytes", "count", "scl.hist.bytes_copied"),
    ("pruning.full_select_s", "s", "total", "pruning.full_select"),
    ("pruning.full_select.calls", "count", "calls", "pruning.full_select"),
    ("codec.verify_crc_s", "s", "total", "codec.verify_crc"),
    ("pruning.two_stage_select_s", "s", "total", "pruning.two_stage_select"),
    ("pruning.two_stage_select.calls", "count", "calls",
     "pruning.two_stage_select"),
    ("sc.symbol_tables_s", "s", "total", "sc.symbol_tables"),
    ("sc.channel_combine.additions_per_table", "count", "ratio",
     ("sc.channel_combine.additions", "sc.symbol_tables.tables")),
)
SETUP_LAYERS = (
    ("construction.construct_code_s", "s", "total",
     "construction.construct_code"),
    ("construction.partition_symbols_s", "s", "total",
     "construction.partition_symbols"),
)
# spans whose wrappers produce each counter
COUNTER_SPANS = {
    "sc.gather_paths.bytes": ("sc.gather_paths",),
    "scl.hist.bytes_copied": ("scl.decode", "scl.hist"),
    "sc.channel_combine.additions": ("sc.channel_combine",),
    "sc.symbol_tables.tables": ("sc.symbol_tables",),
}


def layer_metric_names():
    """Every per-layer metric with its unit, in report order."""
    names = [(m, u) for m, u, _, _ in SETUP_LAYERS + CAMPAIGN_LAYERS
             + DECODER_LAYERS]
    names.append(("trace.frames_per_s", "frames/s"))
    names += [("single." + m, u) for m, u, _, _ in DECODER_LAYERS]
    names.append(("single.trace.frames_per_s", "frames/s"))
    names.append(("trace.missing_hooks", "count"))
    return names


def _needs(kind, key):
    keys = key if kind == "ratio" else (key,)
    return [span for k in keys for span in COUNTER_SPANS.get(k, (k,))]


def layer_values(tracer, phase, specs, prefix=""):
    """Metric name -> value for one phase; names of missing metrics."""
    table = tracer.summary(phase)
    counts = tracer.counts.get(phase, {})
    absent = {name for name, _ in tracer.missing}
    values, missing = {}, []
    for metric, unit, kind, key in specs:
        if any(span in absent for span in _needs(kind, key)):
            missing.append(prefix + metric)
        if kind == "ratio":
            num, den = (counts.get(k, 0) for k in key)
            value = num / den if den else 0.0
        elif kind == "count":
            value = counts.get(key, 0)
        else:
            row = table.get(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            value = row["calls" if kind == "calls" else kind + "_s"]
        values[prefix + metric] = value
    return values, missing


def import_polarsim():
    """Import polarsim from this checkout's `src`, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import polarsim
    where = os.path.abspath(polarsim.__file__)
    if not where.startswith(src + os.sep):
        raise ImportError(f"polarsim was imported from {where}, not {src}")


class Context:
    """A workload's program objects, built once per process."""

    def __init__(self, workload, seed, quick, tracer=None):
        import_polarsim()
        from polarsim import codec, construction, costs, sc, scl, sim
        undo = tracer.install() if tracer is not None else []
        try:
            base = dict(n=N_EXP, K=K, crc_width=workload.crc_width,
                        snr_start=workload.snr_db, snr_stop=workload.snr_db,
                        max_frame_errors=0,
                        max_frames=(workload.quick_frames if quick
                                    else workload.frames))
            self.configs = [sim.SimConfig(**base, **dict(d.config))
                            for d in workload.decoders]
            self.code = self.configs[0].build_code()
            symbol_bits = {c.symbol_bits for c in self.configs
                           if c.decoder in ("ssc", "sscl")}
            self.part = None
            if symbol_bits:
                (M,) = symbol_bits
                self.part = construction.partition_symbols(
                    self.code, M.bit_length() - 1)
        finally:
            Tracer.uninstall(undo)
        self.workload = workload
        self.seed = seed
        self.single_frames = (workload.quick_single_frames if quick
                              else workload.single_frames)
        self.codec, self.costs, self.sc, self.scl, self.sim = (
            codec, costs, sc, scl, sim)

    def prepare(self):
        """Benchmark-side state, built after set-up has been timed."""
        code = self.code
        self.generator = generator_matrix(code.n)
        rate = code.payload_bits / code.N
        self.sigma2 = 1.0 / (2.0 * rate * 10.0 ** (self.workload.snr_db / 10.0))

    def single_decoder(self, cfg):
        """The one-frame-per-call API for a decoder configuration."""
        code, part, sc, scl = self.code, self.part, self.sc, self.scl
        return {
            "sc": lambda m: sc.sc_decode(code, m),
            "ssc": lambda m: sc.symbol_sc_decode(code, part, m),
            "cascl": lambda m: scl.ca_scl_decode(code, m, cfg.list_size),
            "sscl": lambda m: scl.symbol_scl_decode(
                code, part, m, cfg.list_size, cfg.stage1_keep),
        }[cfg.decoder]

    def batch_decoder(self, cfg):
        """The batched decoder that `run_point` uses for this configuration."""
        return self.sim._make_decoder(cfg, self.code)

    def make_words(self, rng, count):
        """Payloads and channel metrics of `count` frames; the first
        NOISELESS_WORDS carry no noise. Encoding is a generator-matrix
        product, independent of the package's butterfly encoder."""
        code = self.code
        payload = rng.integers(0, 2, size=(count, code.payload_bits),
                               dtype=np.int8)
        info = (self.codec.attach_crc(payload, code.crc)
                if code.crc is not None else payload)
        u = np.zeros((count, code.N), dtype=np.int32)
        u[:, code.info_set] = info
        y = 1.0 - 2.0 * ((u @ self.generator) & 1)
        noisy = count - NOISELESS_WORDS
        y[NOISELESS_WORDS:] += (math.sqrt(self.sigma2)
                                * rng.standard_normal((noisy, code.N)))
        metrics = np.stack([-(y - 1.0) ** 2, -(y + 1.0) ** 2], axis=-1)
        return payload, metrics / (2.0 * self.sigma2)

    def payload_errors(self, u_hat, payload):
        decided = u_hat[..., self.code.info_set][..., :self.code.payload_bits]
        return (decided != payload).sum(axis=-1)


def generator_matrix(n):
    """Dense polar generator: bit-reversal rows of the n-fold Kronecker power
    of [[1, 0], [1, 1]]."""
    f = np.ones((1, 1), dtype=np.int32)
    for _ in range(n):
        f = np.kron(np.array([[1, 0], [1, 1]], dtype=np.int32), f)
    reverse = [int(format(i, f"0{n}b")[::-1], 2) for i in range(1 << n)]
    return f[reverse]


def record_problem(rec, cfg, payload_bits):
    """Why a FerRecord is inconsistent with its budget, or None."""
    if rec.frames != cfg.max_frames:
        return f"frames {rec.frames} != budget {cfg.max_frames}"
    if not 0 <= rec.frame_errors <= rec.frames:
        return f"frame_errors {rec.frame_errors} outside [0, {rec.frames}]"
    if not rec.frame_errors <= rec.bit_errors <= rec.frame_errors * payload_bits:
        return (f"bit_errors {rec.bit_errors} outside "
                f"[{rec.frame_errors}, {rec.frame_errors * payload_bits}]: "
                f"some erroneous frame has 0 or more than {payload_bits} errors")
    return None


def _set_phase(tracer, phase):
    if tracer is not None:
        tracer.phase = phase


def run_round(ctx, r, tracer=None):
    """One round: every decoder's campaign point, then its single-frame calls."""
    out = {"attempted": 0, "failed": 0, "frames": 0, "wall": 0.0,
           "walls": {}, "single_times": {}, "records": {}, "failures": []}
    labels = [d.label for d in ctx.workload.decoders]
    for label, cfg in zip(labels, ctx.configs):
        cfg = replace(cfg, seed=(ctx.seed << ROUND_BITS) | r)
        out["attempted"] += cfg.max_frames
        _set_phase(tracer, "batch")
        start = time.perf_counter()
        try:
            rec = ctx.sim.run_point(cfg, ctx.workload.snr_db, code=ctx.code)
        except Exception as exc:  # a failed operation, counted, not fatal
            out["failed"] += cfg.max_frames
            out["failures"].append(f"{label}: run_point raised {exc!r}")
            continue
        wall = time.perf_counter() - start
        problem = record_problem(rec, cfg, ctx.code.payload_bits)
        if problem:
            out["failed"] += cfg.max_frames
            out["failures"].append(f"{label}: {problem}")
            continue
        out["frames"] += rec.frames
        out["wall"] += wall
        out["walls"][label] = wall
        out["records"][label] = rec
    for index, (label, cfg) in enumerate(zip(labels, ctx.configs)):
        _set_phase(tracer, "check")
        rng = np.random.default_rng([ctx.seed, r, index])
        payload, metrics = ctx.make_words(rng, ctx.single_frames)
        single = ctx.single_decoder(cfg)
        decisions = []
        times = out["single_times"][label] = []
        _set_phase(tracer, "single")
        for m in metrics:
            start = time.perf_counter()
            try:
                decisions.append(single(m))
            except Exception as exc:  # a failed operation, counted, not fatal
                decisions.append(None)
                out["failures"].append(f"{label}: single-frame raised {exc!r}")
            times.append(time.perf_counter() - start)
        _set_phase(tracer, "check")
        out["attempted"] += 2 * len(metrics)
        try:
            batched = ctx.batch_decoder(cfg)(metrics)
        except Exception as exc:  # a failed operation, counted, not fatal
            batched = [None] * len(metrics)
            out["failures"].append(f"{label}: batched decode raised {exc!r}")
        for i in range(len(metrics)):
            results = [d for d in (decisions[i], batched[i]) if d is not None]
            bad = 2 - len(results)
            if i < NOISELESS_WORDS:
                wrong = sum(int(ctx.payload_errors(d, payload[i]) > 0)
                            for d in results)
                if wrong:
                    out["failures"].append(
                        f"{label}: noiseless word {i} decoded with errors")
                bad += wrong
            if bad == 0 and not np.array_equal(results[0], results[1]):
                out["failures"].append(
                    f"{label}: single-frame and batched decisions differ "
                    f"on word {i}")
                bad = 2
            out["failed"] += bad
    return out


def fer_band(frames, errors, ref):
    """Whether errors/frames is consistent with the reference FER."""
    ref_frames, ref_errors = ref["frames"], ref["frame_errors"]
    pooled = (errors + ref_errors) / (frames + ref_frames)
    sd = math.sqrt(pooled * (1.0 - pooled) * (1.0 / frames + 1.0 / ref_frames))
    half = FER_BAND_SIGMAS * sd + 1.0 / frames
    return abs(errors / frames - ref_errors / ref_frames) <= half, half


def fer_checks(workload, rounds):
    """Aggregate each decoder's FER over the run and test it against the
    reference band; returns (summary, problems)."""
    with open(REFERENCE_FILE) as fh:
        reference = json.load(fh).get(workload.name, {})
    summary, problems = {}, []
    for d in workload.decoders:
        recs = [rd["records"][d.label] for rd in rounds
                if d.label in rd["records"]]
        frames = sum(r.frames for r in recs)
        errors = sum(r.frame_errors for r in recs)
        ref = reference.get(d.label)
        entry = {"frames": frames, "frame_errors": errors,
                 "fer": errors / frames if frames else None}
        if ref is None or ref["snr_db"] != workload.snr_db:
            problems.append(f"{d.label}: no reference FER at "
                            f"{workload.snr_db} dB")
        elif frames:
            ok, half = fer_band(frames, errors, ref)
            entry.update(reference_fer=ref["frame_errors"] / ref["frames"],
                         band_half_width=half, inside_band=ok)
            if not ok:
                problems.append(f"{d.label}: FER {errors}/{frames} outside the "
                                f"band around the reference")
        summary[d.label] = entry
    return summary, problems


def pruning_steps(frozen_set, N, M, L):
    """List pruning steps per decode: information-bearing symbols met once
    the list cannot hold every extension."""
    frozen = set(int(i) for i in frozen_set)
    alpha, steps = 1, 0
    for j in range(N // M):
        beta = 1 << sum(1 for i in range(j * M, (j + 1) * M) if i not in frozen)
        if beta == 1:
            continue
        if alpha * beta <= L:
            alpha *= beta
        else:
            steps += 1
            alpha = L
    return steps


def trace_checks(ctx, tracer):
    """Operation counts against the cost model and the frozen set."""
    problems = []
    absent = {name for name, _ in tracer.missing}
    selects = ("pruning.full_select", "pruning.two_stage_select")
    symbol_cfgs = [c for c in ctx.configs if c.decoder in ("ssc", "sscl")]
    for phase in ("batch", "single"):
        counts = tracer.counts.get(phase, {})
        if not absent & {"sc.channel_combine", "sc.symbol_tables"}:
            tables = counts.get("sc.symbol_tables.tables", 0)
            if bool(tables) != bool(symbol_cfgs):
                problems.append(f"{phase}: {tables} symbol tables computed")
            if tables:
                M = symbol_cfgs[0].symbol_bits
                per_table = counts["sc.channel_combine.additions"] / tables
                expected = ctx.costs.channel_combination_additions(M)
                direct = ctx.costs.ml_detector_additions(M)
                if not per_table == expected < direct:
                    problems.append(f"{phase}: {per_table} additions per table,"
                                    f" expected {expected} (direct: {direct})")
        if absent & {"scl.decode", *selects}:
            continue
        table = tracer.summary(phase)
        list_decoders = [(d, c) for d, c in zip(ctx.workload.decoders,
                                                ctx.configs) if d.select]
        for select in selects:
            used = [(d, c) for d, c in list_decoders if d.select == select]
            if not used:
                calls = table.get(select, {}).get("calls", 0)
                if calls:
                    problems.append(f"{phase}: {calls} unexpected {select} calls")
                continue
            (d, cfg), = used
            M = cfg.symbol_bits if cfg.decoder == "sscl" else 1
            steps = pruning_steps(ctx.code.frozen_set, ctx.code.N, M,
                                  cfg.list_size)
            per_decode = tracer.children_per_span(phase, "scl.decode", {select})
            if not per_decode or any(c != steps for c in per_decode):
                problems.append(f"{phase}: {select} calls per decode "
                                f"{sorted(set(per_decode))}, expected {steps}")
        if not list_decoders and table.get("sc.gather_paths", {}).get("calls"):
            problems.append(f"{phase}: gather_paths called without a list")
    return problems


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(ctx, seconds, trace, hooks=HOOKS):
    """Run rounds for `seconds`; return (metrics, attempted, failed, problems,
    record)."""
    rounds, traced_rounds, layer_rounds = [], [], []
    problems, missing, layer_tables = [], set(), {}
    start = time.monotonic()
    while not rounds or time.monotonic() - start < seconds:
        r = len(rounds)
        if r >> ROUND_BITS:
            break
        rd = run_round(ctx, r)
        rounds.append(rd)
        if not trace:
            continue
        tracer = Tracer()
        undo = tracer.install(hooks)
        try:
            td = run_round(ctx, r, tracer)
        finally:
            Tracer.uninstall(undo)
        traced_rounds.append(td)
        if td["records"] != rd["records"]:
            problems.append(f"round {r}: traced FerRecords differ from "
                            f"untraced ones")
        problems += [f"round {r}: {p}" for p in trace_checks(ctx, tracer)]
        values, miss = layer_values(tracer, "batch",
                                    CAMPAIGN_LAYERS + DECODER_LAYERS)
        single, miss_single = layer_values(tracer, "single", DECODER_LAYERS,
                                           "single.")
        values.update(single)
        values["trace.frames_per_s"] = _rate(td["frames"], td["wall"])
        values["single.trace.frames_per_s"] = single_rate([td])
        layer_rounds.append(values)
        missing |= set(miss + miss_single)
        missing_hooks = sorted({target for _, target in tracer.missing})
        layer_tables = {p: tracer.summary(p) for p in ("batch", "single")}
    all_rounds = rounds + traced_rounds
    attempted = sum(rd["attempted"] for rd in all_rounds)
    failed = sum(rd["failed"] for rd in all_rounds)
    failures = [f for rd in all_rounds for f in rd["failures"]]
    fer_summary, fer_problems = fer_checks(ctx.workload, rounds)
    problems += fer_problems
    per_decoder = {}
    for d, cfg in zip(ctx.workload.decoders, ctx.configs):
        walls = [rd["walls"][d.label] for rd in rounds if d.label in rd["walls"]]
        times = [t for rd in rounds for t in rd["single_times"][d.label]]
        per_decoder[d.label] = {
            "frames_per_s": _rate(cfg.max_frames, _median(walls)),
            "single_call_ms": 1e3 * _median(times)}
    record = {"rounds": len(rounds), "fer": fer_summary, "failures": failures,
              "per_decoder": per_decoder,
              "round_frames_per_s": [_rate(rd["frames"], rd["wall"])
                                     for rd in rounds],
              "round_single_frames_per_s": [single_rate([rd])
                                            for rd in rounds]}
    if trace:
        metrics = {name: _median([v[name] for v in layer_rounds])
                   for name in layer_rounds[0]}
        metrics["trace.missing_hooks"] = len(missing_hooks)
        record.update(missing_hooks=missing_hooks,
                      missing_metrics=sorted(missing),
                      layer_tables_last_round=layer_tables)
    else:
        metrics = {
            "frames_per_s": _median(record["round_frames_per_s"]),
            "single_frames_per_s": single_rate(rounds),
        }
    return metrics, attempted, failed, problems, record


def single_rate(rounds):
    """Single-frame calls per second at each decoder's median call time.

    Call times jitter by a factor of two on a shared host; the median over
    all calls of a run is steady where a sum over a few calls is not.
    Decoders are weighted by their call counts.
    """
    times = {}
    for rd in rounds:
        for label, t in rd["single_times"].items():
            times.setdefault(label, []).extend(t)
    calls = sum(len(t) for t in times.values())
    busy = sum(len(t) * statistics.median(t) for t in times.values())
    return _rate(calls, busy)


def _rate(count, wall):
    return count / wall if wall > 0 else 0.0


def run(workload_name, seed, seconds, trace, quick, t_start, hooks=HOOKS):
    """Set up, measure and check one workload; return the result object."""
    workload = WORKLOADS[workload_name]
    setup_tracer = Tracer() if trace else None
    ctx = Context(workload, seed % SEED_LIMIT, quick, setup_tracer)
    setup_s = time.monotonic() - t_start
    ctx.prepare()
    metrics, attempted, failed, problems, record = measure(
        ctx, seconds, trace, hooks)
    units = dict(layer_metric_names())
    if trace:
        values, missing = layer_values(setup_tracer, "setup", SETUP_LAYERS)
        metrics.update(values)
        record["missing_metrics"] = sorted(set(record["missing_metrics"])
                                           | set(missing))
        shown = {name: {"value": metrics[name], "unit": unit}
                 for name, unit in units.items()}
    else:
        shown = {"frames_per_s": {"value": metrics["frames_per_s"],
                                  "unit": "frames/s"},
                 "single_frames_per_s": {"value": metrics["single_frames_per_s"],
                                         "unit": "frames/s"},
                 "setup_s": {"value": setup_s, "unit": "s"}}
    record.update(
        workload=workload_name, seed=seed, seconds=seconds, trace=trace,
        quick=quick, snr_db=workload.snr_db, setup_s=setup_s,
        problems=problems, python=platform.python_version(),
        numpy=np.__version__, cpu_count=os.cpu_count(),
        machine=platform.machine(),
        frames_per_round={d.label: c.max_frames
                          for d, c in zip(workload.decoders, ctx.configs)},
        single_frames_per_round=ctx.single_frames)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": shown, "record": record}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--t-start", required=True, type=float)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.quick, args.t_start)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
