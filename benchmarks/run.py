"""Frame-throughput benchmark of polarsim's SC, CA-SCL and symbol SCL decoders.

Usage (from the repository root):

    python3 benchmarks/run.py --workload sc-frames --seed 1 --seconds 30 --trace 0

Runs one workload in a child process with numpy's thread pools held to one
thread, measures the child's set-up time from its start and its peak
resident memory, and prints as the last line one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones; with `--trace 1` they are the per-layer ones. The
full result, with versions, machine and git revision, is written to
`.bench_out/`. `--quick` shortens every budget for smoke testing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
CHILD_TIMEOUT_S = 170
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def git_revision(root):
    """HEAD's commit id, or 'unknown' outside a git checkout."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"  # not the revision of a repository around `root`
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="reduced frame budgets, for smoke tests")
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")

    env = dict(os.environ)
    env.update({name: "1" for name in SINGLE_THREAD})
    child = [sys.executable, os.path.join(HERE, "bench.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        child.append("--quick")
    t_start = time.monotonic()
    try:
        proc = subprocess.run(child + ["--t-start", repr(t_start)], env=env,
                              cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"benchmark child exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"benchmark child failed with code {proc.returncode}",
              file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 4
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = result.pop("record")
    if not args.trace:
        # ru_maxrss is in KiB on Linux; the only child waited for is the
        # workload process
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"]["peak_rss_mb"] = {"value": peak_kib / 1024.0,
                                            "unit": "MB"}
    record.update(git_revision=git_revision(ROOT), command=sys.argv,
                  correct=result["correct"], attempted=result["attempted"],
                  failed=result["failed"], metrics=result["metrics"])
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for failure in record["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{args.workload}: rounds={record['rounds']} "
          f"python={record['python']} numpy={record['numpy']} "
          f"cpus={record['cpu_count']} rev={record['git_revision']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
