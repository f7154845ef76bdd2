"""Self-test of the benchmark, in its reduced-length mode.

Usage (from the repository root):

    python3 benchmarks/selftest.py

Checks that:
- every workload runs through `run.py --quick`, untraced and traced, with
  `correct` true, no failed operation, and exactly the metric names that
  BENCHMARK.json declares;
- a traced run with one hook target absent completes, reports the hook and
  the metrics it feeds as missing, and still passes its checks; the same
  holds when the list decoders lose the `trace_hook` argument through which
  history copies are observed;
- `run.py` exits non-zero, printing no result, in a directory that holds
  only BENCHMARK.json and the benchmark's own files.
Exits 0 when all pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import bench
import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
BARE = os.path.join(ROOT, ".bench_out", "selftest-bare")


def run_quick(workload, trace, cwd=ROOT, script=None):
    script = script or os.path.join(HERE, "run.py")
    cmd = [sys.executable, script, "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=170)


def check_runs(spec, failures):
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            proc = run_quick(workload, trace)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit code {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json:"
                                f" {sorted(set(units) ^ set(expected[trace]))}")
            print(f"ok {label}: attempted={result['attempted']}")


def traced_quick_run(hooks):
    return bench.run("sscl-two-stage", seed=5, seconds=1, trace=True,
                     quick=True, t_start=time.monotonic(), hooks=hooks)


def check_missing_hook(failures):
    """One hook renamed away: reported as missing, not fatal."""
    gone = "sc.take_static"
    hooks = tuple((name, module, path + "_absent" if name == gone else path,
                   counter)
                  for name, module, path, counter in tracing.HOOKS)
    result = traced_quick_run(hooks)
    record = result["record"]
    if record["missing_hooks"] != ["polarsim.sc:_PairBank.take_static_absent"]:
        failures.append(f"missing hooks reported: {record['missing_hooks']}")
    want = {"sc.take_static_s", "single.sc.take_static_s"}
    if set(record["missing_metrics"]) != want:
        failures.append(f"missing metrics reported: {record['missing_metrics']}")
    if result["metrics"]["trace.missing_hooks"]["value"] != 1:
        failures.append("trace.missing_hooks is not 1")
    if not result["metrics"]["scl.hist.bytes_copied"]["value"] > 0:
        failures.append("no history copy observed in symbol SCL")
    if not result["correct"] or result["failed"]:
        failures.append(f"run with a missing hook: {record['problems']}")
    print("ok missing hook reported, run completed")


def check_missing_observer(failures):
    """The decoders' trace_hook parameter renamed away: the history metric
    is reported as missing, the decode spans are still traced."""
    absent = tracing.Observer("scl.hist", "trace_hook_absent",
                              tracing.HISTORY.make)
    hooks = tuple((name, module, path,
                   absent if counter is tracing.HISTORY else counter)
                  for name, module, path, counter in tracing.HOOKS)
    result = traced_quick_run(hooks)
    record = result["record"]
    reported = record["missing_hooks"]
    if not reported or not all(h.endswith("(trace_hook_absent)")
                               for h in reported):
        failures.append(f"missing observer reported as: {reported}")
    want = {"scl.hist.bytes_copied", "single.scl.hist.bytes_copied"}
    if set(record["missing_metrics"]) != want:
        failures.append(f"missing metrics reported: {record['missing_metrics']}")
    if not result["metrics"]["pruning.two_stage_select.calls"]["value"] > 0:
        failures.append("decode spans lost with the observer")
    if not result["correct"] or result["failed"]:
        failures.append(f"run with a missing observer: {record['problems']}")
    print("ok missing observer reported, run completed")


def check_bare_directory(failures):
    """Without the program's sources the benchmark must fail, not report."""
    shutil.rmtree(BARE, ignore_errors=True)
    os.makedirs(BARE)
    shutil.copy(SPEC, BARE)
    shutil.copytree(HERE, os.path.join(BARE, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_quick(sorted(WORKLOADS)[0], 0, cwd=BARE,
                     script=os.path.join(BARE, os.path.basename(HERE),
                                         "run.py"))
    shutil.rmtree(BARE)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, "
                        f"stdout {proc.stdout.strip()[:200]!r}")
    print(f"ok bare directory: exit code {proc.returncode}")


def main():
    with open(SPEC) as fh:
        spec = json.load(fh)
    failures = []
    check_runs(spec, failures)
    check_missing_hook(failures)
    check_missing_observer(failures)
    check_bare_directory(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
