"""The two-stage list pruning network: exactness region and failure modes."""

import numpy as np

from polarsim import exactness_check, full_select, two_stage_select

# Picking the L best of 2^M * L candidates can be split into two cheaper
# stages: top-q per group, then top-L of the q*L survivors. Both selections
# return flat candidate indices, group-major.
groups = np.array([[9, 3, 5, 1], [8, 7, 2, 6]])
print("groups:", groups.tolist())
print("full sort keeps:   ", groups.ravel()[full_select(groups, 2)].tolist())
print("two-stage (q=1):   ",
      groups.ravel()[two_stage_select(groups, 1, 2)].tolist())

# With q below the survivor target the stages can discard a candidate the
# full sort would keep: both of the first group's 9 and 8 belong in the top
# two, but q=1 forwards only one of them.
groups = np.array([[9, 8, 1, 1], [7, 2, 2, 2]])
print("\ngroups:", groups.tolist())
print("full sort keeps:   ", groups.ravel()[full_select(groups, 2)].tolist())
print("two-stage (q=1):   ",
      groups.ravel()[two_stage_select(groups, 1, 2)].tolist())

# Whenever q >= L the two stages are provably exact; below that the match
# probability degrades smoothly with q.
print("\nfraction of random instances where two-stage == full sort")
print("(M=4 candidate groups, L=4 survivors, 10^4 Gaussian instances)")
for q in (4, 3, 2, 1):
    frac = exactness_check(M=4, L=4, q=q, trials=10000, seed=1)
    marker = "  (exact by construction)" if q >= 4 else ""
    print(f"  q={q}: {frac:.4f}{marker}")
