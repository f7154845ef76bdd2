"""Successive cancellation decoding, bit-based and symbol-based.

The decoder state is a bank of metric-pair buffers organized by stage: stage
0 holds the per-sample channel pairs, stage s holds one pair per node of
block width 2^s. Stage 0 is input, not path state: every list path reads the
same channel pairs, so the bank holds the caller's array once per frame and
never writes or reorders it. Working in the log domain turns the probability
products into sums; products marginalized over a bit use the exact Jacobian
logarithm max*(a, b) = max(a, b) + log(1 + exp(-|a - b|)). Halving constants
are dropped throughout: they are shared by every hypothesis at a given step
and cancel in all comparisons (the tests' brute-force oracle keeps them).

A symbol-based decode of width M = 2^m runs the bit tree cut m stages short:
node c of its top stage n - m covers received samples [cN/M, (c+1)N/M). The
M top pairs combine into a 2^M-entry symbol table with `channel_combine`, and
the decided symbol's re-encoded bits feed back as those nodes' partial sums.
Bit-based decoding is the case M = 1, and SC decoding runs as the list loop
of `scl` at L = 1, so both share its tie order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .codec import encode_bits, int_to_bits
from .construction import partition_symbols


def transform_check(upper, lower, out=None):
    """Pair transformation marginalizing the partner bit (log domain).

    out_b = max*(upper_b + lower_0, upper_{1-b} + lower_1), with the exact
    Jacobian logarithm max*(a, c) = max(a, c) + log(1 + exp(-|a - c|)).
    `upper` carries the xor branch of the first half-block, `lower` the
    direct branch of the second half-block. Shapes (..., 2) -> (..., 2); the
    result is written to `out` when given.
    """
    upper = np.asarray(upper, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    shape = np.broadcast(upper, lower).shape
    a = np.empty(shape)
    c = np.empty(shape)
    for b in (0, 1):
        np.add(upper[..., b], lower[..., 0], out=a[..., b])
        np.add(upper[..., 1 - b], lower[..., 1], out=c[..., b])
    out = np.maximum(a, c, out=out)
    # out += log1p(exp(-|a - c|)), evaluated in place in c's buffer
    d = np.abs(np.subtract(a, c, out=c), out=c)
    out += np.log1p(np.exp(np.negative(d, out=d), out=d), out=d)
    return out


def transform_combine(upper, lower, u_even, out=None):
    """Pair transformation once the partner (even) bit is decided.

    out_b = upper_{u_even xor b} + lower_b. `u_even` broadcasts against the
    leading axes of the pair arrays; the result is written to `out` when
    given.
    """
    upper = np.asarray(upper, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    even = np.asarray(u_even) == 0
    out = np.empty(np.broadcast(upper, lower).shape) if out is None else out
    for b in (0, 1):
        np.add(np.where(even, upper[..., b], upper[..., 1 - b]),
               lower[..., b], out=out[..., b])
    return out


@lru_cache(maxsize=None)
def _combine_index_maps(width):
    """Index maps for combining two width-bit tables into a 2*width-bit table.

    For each output symbol (bits MSB first), returns the integer formed by
    the xor of adjacent bit pairs and the integer formed by the odd bits.
    """
    bits = int_to_bits(np.arange(1 << (2 * width)), 2 * width)
    even, odd = bits[:, 0::2], bits[:, 1::2]
    # the pack of partition_symbols: bits MSB first to an integer
    pack = 1 << np.arange(width - 1, -1, -1)
    return (even ^ odd) @ pack, odd @ pack


def channel_combine(left, right):
    """Combine two half-width symbol tables into a double-width table.

    `left` holds log metrics for the xor-branch sub-symbol, `right` for the
    direct-branch sub-symbol; entry u of the output is
    left[u_even xor u_odd] + right[u_odd] (one addition per entry). Tables
    are indexed by symbol value with bits read MSB first; leading axes are
    broadcast elementwise.
    """
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    size = left.shape[-1]
    if right.shape[-1] != size:
        raise ValueError("left and right tables must have equal width")
    if size & (size - 1):
        raise ValueError("table size must be a power of two")
    width = size.bit_length() - 1
    eo, odd = _combine_index_maps(width)
    return left[..., eo] + right[..., odd]


@lru_cache(maxsize=None)
def symbol_component_bits(M):
    """(2^M, M) table for a power-of-two M: row s holds the re-encoded bits
    of symbol value s.

    Entry (s, c) is the partial sum fed back to top-stage node c after symbol
    s is decided: coded bit c of the width-M polar encoding of s.
    """
    m = M.bit_length() - 1
    sym_bits = int_to_bits(np.arange(1 << M), M)
    return encode_bits(sym_bits, m)


class _PairBank:
    """Vectorized SC metric recursions of the bit tree cut at stage w = n - m.

    One bank drives every frame and path in lockstep over leading axes
    (batch,) or (batch, list). `up[s]` holds the latest pair emitted by each
    of the N / 2^s nodes of stage s; `ev[s]` holds each node's stored
    even-step bit decision (the partial sums fed back between stages), the
    only record of the decisions, which `decided` reads back.

    Stage 0, `up[0]`, is the caller's float64 channel-pair array itself, of
    shape lead + (N, 2) up to broadcasting: a list axis of size 1 shares
    one frame's pairs among all its paths. It is read by broadcasting and
    never written; `ev[0]` is written only by the final `feed`.

    List-axis (axis 1) reorders are deferred, the vectorized form of Tal and
    Vardy's lazy copy: `take_static` and `gather_paths` move no stage data;
    a stage is reordered when `refresh` or `feed` next reads it, and not at
    all when it is overwritten first. `t` counts reorders; stage s of `up`
    (k = 0) or `ev` (k = 1) was last in order at reorder count
    `epoch[k][s]`, and `chain[e]` is the pending (B, L) index from epoch e's
    order to the current one. At L = 1 nothing is reordered and `t` stays 0.
    """

    def __init__(self, lead, channel_pairs, w):
        N = channel_pairs.shape[-2]
        self.lead = tuple(lead)
        self.w = w
        # refresh(0) computes every stage above 0 before any is read
        self.up = [channel_pairs] + [np.empty(self.lead + (N >> s, 2))
                                     for s in range(1, w + 1)]
        self.ev = [np.zeros(self.lead + (N >> s,), dtype=np.int8)
                   for s in range(w + 1)]
        self.t = 0
        self.epoch = ([0] * (w + 1), [0] * (w + 1))
        self.chain = {}
        self._b = np.arange(self.lead[0])[:, None]

    def _settle(self, k, s):
        """Apply the pending reorder of stage s of `up` (k = 0) or `ev`."""
        e = self.epoch[k][s]
        if e != self.t:
            arrs = (self.up, self.ev)[k]
            arrs[s] = arrs[s][self._b, self.chain[e]]
            self.epoch[k][s] = self.t

    def refresh(self, j):
        """Advance metric computation for symbol j; return the top pairs.

        Stage s recomputes when j is a multiple of 2^(w-s): with the partner
        bit still undecided it marginalizes (check form), afterwards it uses
        the stored partial sum (combine form). At j > 0 the lowest stage
        recomputed, d = w - tz(j), is the one in combine form; it reads
        `up[d-1]` and `ev[d]`, and every stage of `up` from d on is
        overwritten.
        """
        d = self.w - ((j & -j).bit_length() - 1) if j else 0
        lo = d or 1
        if self.t:
            self._settle(0, lo - 1)
            self._settle(1, d)
            self.epoch[0][lo:] = [self.t] * (self.w + 1 - lo)
        for s in range(lo, self.w + 1):
            below = self.up[s - 1]
            upper, lower = below[..., 0::2, :], below[..., 1::2, :]
            if s == d:
                transform_combine(upper, lower, self.ev[s], out=self.up[s])
            else:
                transform_check(upper, lower, out=self.up[s])
        return self.up[self.w]

    def feed(self, j, bits):
        """Record symbol j's M re-encoded bits and cascade partial sums:
        read `ev[s]` for s = w, ..., stop + 1 and overwrite `ev[stop]`."""
        cur = np.asarray(bits, dtype=np.int8).reshape(self.lead + (-1,))
        # j < 2^w has at most w trailing one bits, so stop >= 0
        stop = self.w + 1 - ((j + 1) & -(j + 1)).bit_length()
        if self.t:
            for s in range(stop + 1, self.w + 1):
                self._settle(1, s)
            self.epoch[1][stop] = self.t
        for s in range(self.w, stop, -1):
            upper = self.ev[s] ^ cur
            nxt = np.empty(self.lead + (2 * upper.shape[-1],), dtype=np.int8)
            nxt[..., 0::2] = upper
            nxt[..., 1::2] = cur
            cur = nxt
        self.ev[stop][...] = cur

    def decided(self, j):
        """Bits decided through symbol j (zeros after): `ev[w-k]` holds each
        finished 2^k-symbol subtree encoded; encoding is an involution."""
        N = self.ev[0].shape[-1]
        u = np.zeros(self.lead + (N,), dtype=np.int8)
        start = 0
        for s in range(self.w + 1):
            if (j + 1) >> (self.w - s) & 1:
                self._settle(1, s)
                width = N >> s
                u[..., start : start + width] = encode_bits(
                    self.ev[s], width.bit_length() - 1)
                start += width
        return u

    def _defer(self, idx):
        """Compose a (B, L) reorder into each live epoch's pending index."""
        t = self.t
        live = set(self.epoch[0]).union(self.epoch[1])
        self.chain = {e: idx if e == t else self.chain[e][self._b, idx]
                      for e in live}
        self.t = t + 1
        # stage 0 is never reordered
        self.epoch[0][0] = self.epoch[1][0] = self.t

    def take_static(self, idx):
        """Reorder the list axis with one shared (L,) index (growth phase)."""
        self._defer(np.broadcast_to(idx, self.lead[:2]))

    def gather_paths(self, idx):
        """Per-frame reorder of the list axis: idx has shape (B, L)."""
        self._defer(idx)


def _check_metrics(code, metrics):
    """One frame's (N, 2) channel metrics, checked at the single-frame
    boundary: a wrong shape or a NaN or infinite entry raises ValueError."""
    metrics = np.asarray(metrics, dtype=np.float64)
    if metrics.shape != (code.N, 2):
        raise ValueError(f"metrics must have shape ({code.N}, 2), "
                         f"got {metrics.shape}")
    if not np.isfinite(metrics).all():
        raise ValueError("metrics must be finite, got NaN or infinity")
    return metrics


def _check_partition(code, part):
    """A symbol partition checked at the single-frame boundary: one built
    from another code (other N or frozen set) raises ValueError."""
    if not np.array_equal(part.frozen.ravel(), code.frozen_mask()):
        raise ValueError("symbol partition does not match the code's length "
                         "and frozen set")
    return part


def _symbol_tables(pairs):
    """Reduce the top-stage pairs (..., M, 2) to a (..., 2^M) symbol table."""
    tabs = pairs
    while tabs.shape[-2] > 1:
        tabs = channel_combine(tabs[..., 0::2, :], tabs[..., 1::2, :])
    return tabs[..., 0, :]


def _sc(code, part, metrics):
    """SC decode as the list loop at L = 1: path 0's (B, N) decisions."""
    from .scl import _scl_loop  # scl imports this module
    return _scl_loop(code, part, metrics, 1, 1)[0][:, 0]


def sc_decode_batch(code, metrics):
    """Bit-based SC decode of a batch; metrics (B, N, 2) -> decisions (B, N).

    The M = 1 case of the symbol decoder, which is the list decoder at
    L = 1. Frozen bits decode to zero; information bit j decodes to the
    hypothesis maximizing the running metric pair, with ties resolved to 0
    (the list decoders' tie order: lower symbol value first).
    """
    return _sc(code, partition_symbols(code, 0), metrics)


def sc_decode(code, metrics):
    """SC-decode one frame; metrics is an (N, 2) array of finite log metric
    pairs."""
    return sc_decode_batch(code, _check_metrics(code, metrics)[None])[0]


def symbol_sc_decode_batch(code, part, metrics):
    """Symbol-based SC decode of a batch; metrics (B, N, 2) -> (B, N).

    Decides M bits per step by maximizing the combined symbol table over the
    hypotheses consistent with the symbol's frozen positions; ties pick the
    smallest. Fully frozen symbols extend with zeros; no table is built.
    """
    return _sc(code, part, metrics)


def symbol_sc_decode(code, part, metrics):
    """Symbol-based SC decode of one frame."""
    return symbol_sc_decode_batch(code, _check_partition(code, part),
                                  _check_metrics(code, metrics)[None])[0]
