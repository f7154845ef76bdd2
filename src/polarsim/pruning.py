"""List pruning as pure top-k selection over grouped candidate metrics.

Candidates arrive as groups (one group per surviving list entry). Full
pruning keeps the overall best; two-stage pruning first keeps the best q of
each group, then the overall best of the q-per-group survivors. Whenever
q >= the survivor target (and groups are larger than it), the two stages
select exactly the same set as a full sort.

Ties are broken deterministically: higher metric first, then lower group
(parent) index, then lower in-group (symbol) index.
"""

from __future__ import annotations

import numpy as np


def topk_descending(metrics, k):
    """Stable top-k indices along the last axis, metric-descending.

    Stability makes equal metrics keep ascending index order.
    """
    return np.argsort(-np.asarray(metrics, dtype=np.float64),
                      axis=-1, kind="stable")[..., :k]


def full_select(metrics, keep):
    """Flat indices of the overall `keep` best candidates.

    `metrics` has shape (..., groups, group_size); candidates are flattened
    group-major so the tie order is (metric desc, parent asc, symbol asc).
    """
    metrics = np.asarray(metrics)
    flat = metrics.reshape(metrics.shape[:-2] + (-1,))
    return topk_descending(flat, keep)


def two_stage_select(metrics, stage1_keep, keep):
    """Flat indices selected by per-group top-q followed by overall top-keep.

    Within each group the stage-1 survivors keep metric order; stage 2 sorts
    the surviving q*groups candidates and keeps the best `keep`. Returned
    indices address the original (groups * group_size) flattening.
    """
    metrics = np.asarray(metrics)
    group_size = metrics.shape[-1]
    q = min(stage1_keep, group_size)
    order1 = topk_descending(metrics, q)
    vals1 = np.take_along_axis(metrics, order1, axis=-1)
    flat_vals = vals1.reshape(vals1.shape[:-2] + (-1,))
    flat_idx = order1.reshape(flat_vals.shape)
    order2 = topk_descending(flat_vals, keep)
    parent = order2 // q
    symbol = np.take_along_axis(flat_idx, order2, axis=-1)
    return parent * group_size + symbol


def exactness_check(M, L, q, trials, seed=0):
    """Fraction of random instances where two-stage equals full pruning.

    Instances draw i.i.d. standard Gaussian metrics for L groups of 2^M
    candidates (ties have probability zero). Must return 1.0 whenever
    q >= L or q >= 2^M.
    """
    rng = np.random.default_rng(seed)
    size = 1 << M
    metrics = rng.standard_normal((trials, L, size))
    full = np.sort(full_select(metrics, L), axis=-1)
    two = np.sort(two_stage_select(metrics, q, L), axis=-1)
    return float(np.mean(np.all(full == two, axis=-1)))
