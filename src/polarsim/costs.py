"""Operation-count models: symbol-metric additions and sorting networks.

Addition counts compare the direct per-symbol detector against the
recursive table combination. Sorting networks are built explicitly out of
bitonic partial-sorter blocks (Batcher, AFIPS 1968) as lists of
comparators in program order; their ranks, and so the comparator count
and depth, are derived from that list by the constructed object. The same
construction is executable, so tests can check that a network selects
exactly the survivors the pruning operations select.

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
    """A sorting network: compare-exchange pairs kept in program order.

    `program` lists (max_wire, min_wire) pairs in the order they apply.
    Each pair is placed in the earliest rank after every earlier pair on
    either of its wires, so `levels` holds ranks of disjoint pairs that
    apply in parallel and `depth` is their count. `outputs` are the
    surviving wires in descending sorted order.
    """

    def __init__(self, size, program, outputs, label):
        self.size = size
        self.levels = []
        free = [0] * size  # the first rank each wire is free in
        for hi, lo in program:
            rank = max(free[hi], free[lo])
            if rank == len(self.levels):
                self.levels.append([])
            self.levels[rank].append((hi, lo))
            free[hi] = free[lo] = rank + 1
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


def _merge(wires, descending=True):
    """Bitonic merge: sorts a bitonic wire sequence into the given order."""
    n = len(wires)
    if n == 1:
        return []
    h = n // 2
    if descending:
        rank = [(wires[i], wires[i + h]) for i in range(h)]
    else:
        rank = [(wires[i + h], wires[i]) for i in range(h)]
    return (rank + _merge(wires[:h], descending)
            + _merge(wires[h:], descending))


def _sort(wires, descending=True):
    """Full bitonic sorter on unsorted wires."""
    n = len(wires)
    if n == 1:
        return []
    h = n // 2
    return (_sort(wires[:h], descending=False)
            + _sort(wires[h:], descending=True) + _merge(wires, descending))


def _ps_block(block_a, block_b):
    """Partial sorter: keep the k largest of two unsorted k-wire blocks.

    Survivors land on `block_a`, sorted descending.
    """
    return (_sort(block_a, descending=False) + _sort(block_b, descending=True)
            + list(zip(block_a, block_b)) + _merge(block_a, descending=True))


def _ps_tree(blocks):
    """Binary tree of partial-sorter blocks reducing to a single block."""
    program = []
    while len(blocks) > 1:
        for a, b in zip(blocks[::2], blocks[1::2]):
            program += _ps_block(a, b)
        blocks = blocks[::2]
    return program, blocks[0]


def build_ctsn(M, L):
    """Conventional tree network selecting the L best of 2^M * L inputs."""
    _require_power_of_two(L, "L")
    if not 0 <= M <= MAX_SYMBOL_BITS:  # 2^M * L wires
        raise ValueError(f"M must be in [0, {MAX_SYMBOL_BITS}], got {M}")
    total = (1 << M) * L
    blocks = [list(range(g * L, (g + 1) * L)) for g in range(1 << M)]
    program, out = _ps_tree(blocks)
    return ComparatorNetwork(total, program, out, f"ctsn(M={M},L={L})")


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
    q_eff = min(q, size)
    program = []
    blocks = []
    for g in range(L):
        wires = list(range(g * size, (g + 1) * size))
        if q_eff == size:
            program += _sort(wires)
            blocks.append(wires)
        else:
            tree, out = _ps_tree([wires[i : i + q_eff]
                                  for i in range(0, size, q_eff)])
            program += tree
            blocks.append(out)
    # stage 2: each block arrives sorted descending (at most L wires), so a
    # reversed block followed by the next is bitonic and merges whole
    while len(blocks[0]) < L:
        blocks = [a[::-1] + b for a, b in zip(blocks[::2], blocks[1::2])]
        for wires in blocks:
            program += _merge(wires)
    tree, out = _ps_tree(blocks)
    return ComparatorNetwork(size * L, program + tree, out,
                             f"tstsn(M={M},L={L},q={q})")
