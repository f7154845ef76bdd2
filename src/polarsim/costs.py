"""Operation-count models: symbol-metric additions and sorting networks.

Addition counts compare the direct per-symbol detector against the
recursive table combination. Sorting networks are built explicitly out of
bitonic partial-sorter blocks and their comparator count and depth are read
off the constructed object; the same construction is executable, so tests
can check that a network selects exactly the survivors the pruning
operations select.

A "ps-2k-to-k" block takes 2k unsorted wires and outputs the k largest,
sorted: it bitonically sorts each half (ascending / descending), runs one
half-cleaning comparator rank, and re-sorts the surviving bitonic half.
The conventional tree network (CTSN) reduces 2^M blocks of L candidates
with a binary tree of ps-2L-to-L blocks. The two-stage network (TSTSN)
first reduces each candidate group to its q best with a tree of ps-2q-to-q
blocks (all groups in parallel), then merges the q-per-group survivors up
to width L and reduces with ps-2L-to-L blocks.
"""

from __future__ import annotations

import numpy as np

from .construction import MAX_SYMBOL_BITS


def _require_power_of_two(value, name):
    if value < 1 or (value & (value - 1)):
        raise ValueError(f"{name} must be a power of two, got {value}")


def _require_symbol_width(M):
    """The addition models take M in [2, MAX_SYMBOL_BITS]: their counts
    grow as 2^M, so a wider M would only build a huge integer."""
    _require_power_of_two(M, "M")
    if not 2 <= M <= MAX_SYMBOL_BITS:
        raise ValueError(f"M must be in [2, {MAX_SYMBOL_BITS}], got {M}")


def ml_detector_additions(M):
    """Additions for the direct M-bit symbol detector: 2^M * (M - 1)."""
    _require_symbol_width(M)
    return (1 << M) * (M - 1)


def channel_combination_additions(M):
    """Additions for the recursive table combination: one per table entry.

    The stage producing 2^(M/2^i)-entry tables is instantiated 2^i times,
    giving sum_{i=0}^{m-1} 2^i * 2^(M / 2^i) additions per symbol.
    """
    _require_symbol_width(M)
    m = M.bit_length() - 1
    return sum((1 << i) * (1 << (M >> i)) for i in range(m))


class ComparatorNetwork:
    """A sorting network as ranks of disjoint compare-exchange pairs.

    Each level is a list of (max_wire, min_wire) pairs applied in parallel;
    `outputs` are the surviving wires in descending sorted order.
    """

    def __init__(self, size, levels, outputs, label):
        self.size = size
        self.levels = [lvl for lvl in levels if lvl]
        self.outputs = list(outputs)
        self.label = label

    @property
    def comparators(self):
        return sum(len(lvl) for lvl in self.levels)

    @property
    def depth(self):
        return len(self.levels)

    def run(self, values):
        """Execute on a value vector, returning the survivors (sorted desc)."""
        v = np.array(values, dtype=np.float64, copy=True)
        if v.shape != (self.size,):
            raise ValueError(f"expected {self.size} input values")
        for lvl in self.levels:
            hi = np.array([c[0] for c in lvl])
            lo = np.array([c[1] for c in lvl])
            a, b = v[hi], v[lo]
            v[hi] = np.maximum(a, b)
            v[lo] = np.minimum(a, b)
        return v[self.outputs]


def _parallel(level_lists):
    """Side-by-side composition of level lists on disjoint wires."""
    merged = []
    for depth in range(max((len(ls) for ls in level_lists), default=0)):
        rank = []
        for ls in level_lists:
            if depth < len(ls):
                rank.extend(ls[depth])
        merged.append(rank)
    return merged


def _merge_levels(wires, descending=True):
    """Bitonic merge: sorts a bitonic wire sequence into the given order."""
    n = len(wires)
    if n == 1:
        return []
    h = n // 2
    if descending:
        rank = [(wires[i], wires[i + h]) for i in range(h)]
    else:
        rank = [(wires[i + h], wires[i]) for i in range(h)]
    halves = _parallel([_merge_levels(wires[:h], descending),
                        _merge_levels(wires[h:], descending)])
    return [rank] + halves


def _sort_levels(wires, descending=True):
    """Full bitonic sorter on unsorted wires."""
    n = len(wires)
    if n == 1:
        return []
    h = n // 2
    head = _parallel([_sort_levels(wires[:h], descending=False),
                      _sort_levels(wires[h:], descending=True)])
    return head + _merge_levels(wires, descending)


def _ps_block_levels(block_a, block_b):
    """Partial sorter: keep the k largest of two unsorted k-wire blocks.

    Survivors land on `block_a`, sorted descending.
    """
    head = _parallel([_sort_levels(block_a, descending=False),
                      _sort_levels(block_b, descending=True)])
    clean = [[(a, b) for a, b in zip(block_a, block_b)]]
    return head + clean + _merge_levels(block_a, descending=True)


def _full_merge_levels(block_p, block_q):
    """Merge two descending-sorted blocks into one descending 2k block.

    Reversing the first block makes the concatenation bitonic; no inputs
    are discarded. The merged order is reversed(p) + q.
    """
    wires = list(reversed(block_p)) + list(block_q)
    return _merge_levels(wires, descending=True), wires


def _ps_tree(blocks):
    """Binary tree of partial-sorter blocks reducing to a single block."""
    levels = []
    while len(blocks) > 1:
        stage = []
        nxt = []
        for i in range(0, len(blocks), 2):
            stage.append(_ps_block_levels(blocks[i], blocks[i + 1]))
            nxt.append(blocks[i])
        levels.extend(_parallel(stage))
        blocks = nxt
    return levels, blocks[0]


def build_ctsn(M, L):
    """Conventional tree network selecting the L best of 2^M * L inputs."""
    _require_power_of_two(L, "L")
    if not 0 <= M <= MAX_SYMBOL_BITS:  # 2^M * L wires
        raise ValueError(f"M must be in [0, {MAX_SYMBOL_BITS}], got {M}")
    total = (1 << M) * L
    blocks = [list(range(g * L, (g + 1) * L)) for g in range(1 << M)]
    if len(blocks) == 1:
        return ComparatorNetwork(total, [], blocks[0], f"ctsn(M={M},L={L})")
    levels, out = _ps_tree(blocks)
    return ComparatorNetwork(total, levels, out, f"ctsn(M={M},L={L})")


def build_tstsn(M, L, q):
    """Two-stage tree network: per-group top-q, then overall top-L.

    Inputs are grouped per parent list: wires [g*2^M, (g+1)*2^M) form group
    g. Stage 1 reduces each group to its q best in parallel; stage 2 merges
    the sorted survivors up to width L and reduces with a ps-block tree.
    """
    _require_power_of_two(L, "L")
    _require_power_of_two(q, "q")
    if q > L:
        raise ValueError(f"q must be at most L={L}, got {q}")
    if not 1 <= M <= MAX_SYMBOL_BITS:  # 2^M * L wires
        raise ValueError(f"M must be in [1, {MAX_SYMBOL_BITS}], got {M}")
    size = 1 << M
    total = size * L
    q_eff = min(q, size)
    levels = []

    stage1 = []
    survivors = []
    for g in range(L):
        wires = list(range(g * size, (g + 1) * size))
        if q_eff == size:
            stage1.append(_sort_levels(wires, descending=True))
            survivors.append(wires)
        else:
            blocks = [wires[i : i + q_eff] for i in range(0, size, q_eff)]
            lv, out = _ps_tree(blocks)
            stage1.append(lv)
            survivors.append(out)
    levels.extend(_parallel(stage1))

    # stage 2: blocks arrive sorted descending
    blocks = [b[:L] for b in survivors]  # sorted: the top L are a prefix
    while len(blocks[0]) < L:
        stage = []
        nxt = []
        for i in range(0, len(blocks), 2):
            lv, merged = _full_merge_levels(blocks[i], blocks[i + 1])
            stage.append(lv)
            nxt.append(merged)
        levels.extend(_parallel(stage))
        blocks = nxt
    if len(blocks) > 1:
        lv, out = _ps_tree(blocks)
        levels.extend(lv)
        blocks = [out]
    return ComparatorNetwork(total, levels, blocks[0],
                             f"tstsn(M={M},L={L},q={q})")

