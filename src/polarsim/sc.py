"""Successive cancellation decoding, bit-based and symbol-based.

The decoder state is a bank of metric-pair buffers organized by stage: stage
0 holds the per-sample channel pairs, stage s holds one pair per node of
block width 2^s. Working in the log domain turns the probability products
into sums; products marginalized over a bit use the exact Jacobian logarithm
max*(a, b) = max(a, b) + log(1 + exp(-|a - b|)). Halving constants are
dropped throughout: they are shared by every hypothesis at a given step and
cancel in all comparisons (the oracle module keeps them).

A symbol-based decode of width M = 2^m runs M component decoders of length
N/M over contiguous received chunks, then combines their per-stage output
pairs into 2^M-entry symbol tables with `channel_combine`. The decided
symbol's re-encoded bits feed back into the component decoders' partial
sums. Bit-based decoding is the case M = 1, and runs through the same loop.
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
    h = np.arange(1 << (2 * width))
    eo = np.zeros_like(h)
    odd = np.zeros_like(h)
    for i in range(width):
        b_even = (h >> (2 * width - 1 - 2 * i)) & 1
        b_odd = (h >> (2 * width - 2 - 2 * i)) & 1
        eo |= (b_even ^ b_odd) << (width - 1 - i)
        odd |= b_odd << (width - 1 - i)
    return eo, odd


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
    """(2^M, M) table: row s holds the re-encoded bits of symbol value s.

    Entry (s, c) is the bit fed back to component decoder c after symbol s
    is decided; it equals coded bit c of the width-M polar encoding of s.
    """
    m = M.bit_length() - 1
    if M != 1 << m:
        raise ValueError(f"M must be a power of two, got {M}")
    sym_bits = int_to_bits(np.arange(1 << M), M)
    return encode_bits(sym_bits, m)


class _PairBank:
    """Vectorized bank of SC metric recursions over arbitrary leading axes.

    One bank instance drives every decoder unit in lockstep: leading axes
    typically run over (batch,), (batch, list) or (batch, list, component).
    `up[s]` holds the latest pair emitted by each of the 2^(w-s) nodes of
    stage s; `ev[s]` holds each node's stored even-step bit decision (the
    partial sums fed back between stages).
    """

    def __init__(self, lead, width):
        w = width.bit_length() - 1
        if width != 1 << w:
            raise ValueError(f"width must be a power of two, got {width}")
        self.lead = tuple(lead)
        self.width = width
        self.w = w
        self.up = [np.zeros(self.lead + (width >> s, 2)) for s in range(w + 1)]
        self.ev = [np.zeros(self.lead + (width >> s,), dtype=np.int8)
                   for s in range(w + 1)]

    def load(self, channel_pairs):
        """Set the stage-0 pairs; shape lead + (width, 2), broadcastable."""
        self.up[0][...] = channel_pairs

    def refresh(self, j):
        """Advance metric computation for bit index j; return the top pair.

        Stage s recomputes when j is a multiple of 2^(w-s): with the partner
        bit still undecided it marginalizes (check form), afterwards it uses
        the stored partial sum (combine form). At j > 0 the lowest stage
        recomputed, w - tz(j), is the one in combine form.
        """
        d = self.w - ((j & -j).bit_length() - 1) if j else 0
        for s in range(max(d, 1), self.w + 1):
            below = self.up[s - 1]
            upper, lower = below[..., 0::2, :], below[..., 1::2, :]
            if s == d:
                transform_combine(upper, lower, self.ev[s], out=self.up[s])
            else:
                transform_check(upper, lower, out=self.up[s])
        return self.up[self.w][..., 0, :]

    def feed(self, j, bits):
        """Record decided bit j (shape = lead) and cascade partial sums."""
        cur = np.asarray(bits, dtype=np.int8).reshape(self.lead + (1,))
        s = self.w
        t = j
        while (t & 1) and s > 0:
            upper = self.ev[s] ^ cur
            nxt = np.empty(self.lead + (2 * upper.shape[-1],), dtype=np.int8)
            nxt[..., 0::2] = upper
            nxt[..., 1::2] = cur
            cur = nxt
            s -= 1
            t >>= 1
        self.ev[s][...] = cur

    def take_static(self, idx, axis=1):
        """Reorder a leading axis with one shared index vector (growth phase)."""
        for s in range(self.w + 1):
            self.up[s] = np.take(self.up[s], idx, axis=axis)
            self.ev[s] = np.take(self.ev[s], idx, axis=axis)

    def gather_paths(self, idx):
        """Per-frame reorder of axis 1 (list axis): idx has shape (B, L)."""
        b = np.arange(idx.shape[0])[:, None]
        for s in range(self.w + 1):
            self.up[s] = self.up[s][b, idx]
            self.ev[s] = self.ev[s][b, idx]


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


def _bit_partition(code):
    """The code's 1-bit symbol partition, built once and kept on the code."""
    part = code.__dict__.get("_bit_partition")
    if part is None:
        part = partition_symbols(code, 0)
        object.__setattr__(code, "_bit_partition", part)
    return part


@lru_cache(maxsize=None)
def _symbol_bits(M):
    """Tables indexed by symbol value: its M bits, MSB first, and the bits
    fed back to the component decoders (no component axis for M = 1)."""
    feed = symbol_component_bits(M)
    return int_to_bits(np.arange(1 << M), M), feed[:, 0] if M == 1 else feed


def _component_bank(lead, M, metrics):
    """A bank of M component decoders of length N/M per unit of `lead`,
    loaded with (B, N, 2) channel pairs; no component axis for M = 1."""
    B, N = metrics.shape[:2]
    comp = () if M == 1 else (M,)
    bank = _PairBank(lead + comp, N // M)
    bank.load(metrics.reshape((B,) + (1,) * (len(lead) - 1) + comp
                              + (N // M, 2)))
    return bank


def _symbol_tables(pairs):
    """Reduce component output pairs (..., M, 2) to a (..., 2^M) symbol table."""
    tabs = pairs
    while tabs.shape[-2] > 1:
        tabs = channel_combine(tabs[..., 0::2, :], tabs[..., 1::2, :])
    return tabs[..., 0, :]


def _sc_loop(code, part, metrics, tables=None):
    """The SC decode loop over the symbols of `part`; appends each symbol's
    (B, 2^M) table to `tables` when given."""
    metrics = np.asarray(metrics, dtype=np.float64)
    B = metrics.shape[0]
    M = part.M
    bank = _component_bank((B,), M, metrics)
    bits, feed = _symbol_bits(M)
    zero = np.zeros(bank.lead, dtype=np.int8)
    u = np.zeros((B, code.N), dtype=np.int8)
    for j in range(part.symbol_count):
        pairs = bank.refresh(j)
        hyps = part.hypotheses(j)
        if hyps.size == 1 and tables is None:
            bank.feed(j, zero)  # a frozen symbol decodes to zero
            continue
        # a 1-bit table is the pair itself
        table = pairs if M == 1 else _symbol_tables(pairs)
        if tables is not None:
            tables.append(table.copy())
        cons = table if hyps.size == table.shape[-1] else table[:, hyps]
        # ties pick the largest consistent hypothesis
        sym = hyps[::-1][cons[:, ::-1].argmax(axis=1)]
        bank.feed(j, feed[sym])
        u[:, j * M : (j + 1) * M] = bits[sym]
    return u


def sc_decode_batch(code, metrics):
    """Bit-based SC decode of a batch; metrics (B, N, 2) -> decisions (B, N).

    The M = 1 case of the symbol decoder. Frozen bits decode to zero;
    information bit j decodes to the hypothesis maximizing the running
    metric pair, with ties resolved to 1 (a tied likelihood ratio counts as
    >= 1).
    """
    return _sc_loop(code, _bit_partition(code), metrics)


def sc_decode(code, metrics):
    """SC-decode one frame; metrics is an (N, 2) array of finite log metric
    pairs."""
    return sc_decode_batch(code, _check_metrics(code, metrics)[None])[0]


def symbol_sc_decode_batch(code, part, metrics, record_tables=False):
    """Symbol-based SC decode of a batch; metrics (B, N, 2) -> (B, N).

    Decides M bits per step by maximizing the combined symbol table over the
    hypotheses consistent with the symbol's frozen positions; ties pick the
    largest. Fully frozen symbols extend with zeros without evaluating the
    table (unless tables are being recorded).

    With record_tables=True also returns a list of per-symbol (B, 2^M) log
    tables (constants dropped).
    """
    tables = [] if record_tables else None
    u = _sc_loop(code, part, metrics, tables)
    return (u, tables) if record_tables else u


def symbol_sc_decode(code, part, metrics):
    """Symbol-based SC decode of one frame."""
    return symbol_sc_decode_batch(code, part,
                                  _check_metrics(code, metrics)[None])[0]
