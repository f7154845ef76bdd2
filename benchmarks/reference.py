"""Measure the reference FER of each workload with one long campaign point.

Usage (from the repository root):

    python3 benchmarks/reference.py

Each decoder of each workload runs `run_point` at the workload's SNR on the
workload's `reference_frames` frames, with seeds from REFERENCE_SEED
upwards, which no benchmark run uses. The results replace
`reference_fer.json`, which the benchmark's FER band check reads.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace

from bench import REFERENCE_FILE, Context
from workloads import REFERENCE_SEED, WORKLOADS


def main():
    reference = {}
    for name, workload in sorted(WORKLOADS.items()):
        ctx = Context(workload, seed=0, quick=False)
        entries = {}
        for i, (d, cfg) in enumerate(zip(workload.decoders, ctx.configs)):
            seed = REFERENCE_SEED + i
            start = time.perf_counter()
            rec = ctx.sim.run_point(
                replace(cfg, max_frames=workload.reference_frames, seed=seed),
                workload.snr_db, code=ctx.code)
            entries[d.label] = {
                "snr_db": workload.snr_db, "seed": seed, "frames": rec.frames,
                "frame_errors": rec.frame_errors, "bit_errors": rec.bit_errors,
                "fer": rec.fer}
            print(f"{name}/{d.label}: FER {rec.fer:.4e} "
                  f"({rec.frame_errors}/{rec.frames}) "
                  f"in {time.perf_counter() - start:.0f} s", file=sys.stderr)
        reference[name] = entries
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
