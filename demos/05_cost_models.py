"""Operation counts: symbol-metric additions and pruning-network hardware."""

import numpy as np

from polarsim import (build_ctsn, build_tstsn, channel_combination_additions,
                      ml_detector_additions)

# Computing all 2^M symbol metrics directly costs (M-1) additions each; the
# recursive combination pays one addition per table entry across its stages
# and pulls ahead from M=4 onward.
print("additions per symbol decision")
print(f"{'M':>3} {'direct':>8} {'recursive':>10}")
for M in (2, 4, 8, 16):
    print(f"{M:>3} {ml_detector_additions(M):>8} "
          f"{channel_combination_additions(M):>10}")

# Selection networks for the worst-case list pruning step of a symbol
# decoder with M=4, L=8: 128 candidates in, 8 survivors out.
ctsn = build_ctsn(4, 8)
print(f"\nconventional tree ({ctsn.label}): "
      f"{ctsn.comparators} comparators, depth {ctsn.depth}")
for q in (8, 4, 2):
    r = build_tstsn(4, 8, q)
    print(f"two-stage tree ({r.label}): "
          f"{r.comparators} comparators, depth {r.depth}")

# The constructed networks are executable: run one on random metrics and
# compare its survivors against a straight sort.
rng = np.random.default_rng(0)
values = rng.standard_normal(128)
net = build_ctsn(4, 8)
survivors = net.run(values)
best = np.sort(values)[::-1][:8]
print("\nnetwork survivors match the 8 largest values:",
      np.allclose(np.sort(survivors), np.sort(best)))
