"""Successive cancellation list decoding, bit-based and symbol-based.

Paths carry their decided bits and a running log metric; the metric
of a path after deciding bit (or symbol) j is the decoder's joint metric of
the received word and the whole decided prefix, so candidate metrics at any
step are directly comparable. Pruning uses the selection primitives from
`pruning`; candidate tie order is (metric desc, parent asc, symbol asc) and
the returned word is the path with the highest final metric (lowest list
index on ties).

Path state lives in one vectorized bank per decode, which also holds each
path's decisions (`_PairBank.decided`): the loop keeps no history array.
Pruning hands the bank each survivor's parent index, and the bank defers
the reorder: a stage is gathered only when the decode next reads it (a lazy
copy), observably equivalent to cloning each surviving path. SC decoding is
this loop at L = 1: the survivor extends path 0; nothing is sorted or gathered.
"""

from __future__ import annotations

import numpy as np

from .codec import verify_crc
from .pruning import full_select, two_stage_select
from .construction import partition_symbols
from .sc import (_PairBank, _check_metrics, _check_partition, _symbol_tables,
                 symbol_component_bits)


def _scl_loop(code, part, metrics, L, q, trace_hook=None):
    """The list decode loop over the symbols of `part`, list size L, q
    stage-1 survivors per group; returns (histories, metrics, alpha).
    Aligned runs of frozen symbols (rate-0 subtrees) take one step each: a
    frozen step never prunes, and its metric is not read before the next
    information step overwrites it. The last symbol, whose metric is
    returned, and all symbols of a traced decode step one by one."""
    if L < 1 or (L & (L - 1)):
        raise ValueError(f"list size must be a power of two >= 1, got {L}")
    # q beyond a group's candidate count clamps to keeping the whole group
    if not 1 <= q <= L:
        raise ValueError(f"stage1 survivor count must be in [1, L], got {q}")
    metrics = np.asarray(metrics, dtype=np.float64)
    B = metrics.shape[0]
    M = part.M
    # no list axis at L = 1: a rank smaller makes each numpy call in refresh
    # and feed cheaper. Every path shares stage 0, the metrics themselves
    lead = (B, L) if L > 1 else (B,)
    w = code.n - part.m
    bank = _PairBank(lead, metrics[:, None] if L > 1 else metrics, w)
    # each symbol value's top-stage partial sums
    feed = symbol_component_bits(M)
    zero = np.zeros(lead + (M,), dtype=np.int8)
    pm = np.full((B, L), -np.inf)
    alpha = 1
    last = part.symbol_count - 1
    # span[j] = 2^k when symbols j .. j + 2^k - 1 are frozen, j is a multiple
    # of 2^k and k is the largest such; 0 where symbols step one by one
    rate0 = part.frozen.all(axis=1) & (trace_hook is None)
    rate0[last] = False
    span = np.zeros(last + 1, dtype=np.int64)
    for k in range(w + 1):
        span[:: 1 << k][rate0.reshape(-1, 1 << k).all(axis=1)] = 1 << k
    span = span.tolist()
    j = 0
    while j <= last:
        if span[j]:
            # only the stages above the block's root, then its zeros
            size = span[j]
            bank.refresh(j, w - size.bit_length())
            j += size
            bank.feed(j - 1, np.zeros(lead + (size * M,), dtype=np.int8))
            continue
        pairs = bank.refresh(j)
        if L == 1:
            pairs = pairs[:, None]
        hyps = part.hypotheses[j]
        beta = hyps.size
        # selection reads the tables, never the path metrics, so a frozen or
        # L = 1 step sets them only where they are seen: in trace_hook and
        # after the last symbol
        seen = trace_hook is not None or j == last
        if beta == 1:
            # zero-symbol extension: metric is the all-zero entry of the
            # would-be table, the sum of the top stage's zero metrics
            if seen:
                pm[:, :alpha] = pairs[:, :alpha, :, 0].sum(axis=-1)
            bank.feed(j, zero)
        else:
            # a 1-bit table is the pair itself
            table = pairs[..., 0, :] if M == 1 else _symbol_tables(pairs)
            cons = table[:, :alpha]
            if beta < table.shape[-1]:
                cons = cons[:, :, hyps]
            if alpha * beta <= L:
                idx = np.arange(L)
                idx[: alpha * beta] = np.tile(np.arange(alpha), beta)
                bank.take_static(idx)
                sym = np.zeros((B, L), dtype=np.int64)
                sym[:, : alpha * beta] = np.repeat(hyps, alpha)
                pm[:, : alpha * beta] = cons.transpose(0, 2, 1).reshape(B, -1)
                alpha *= beta
            elif L == 1:
                # the single survivor extends path 0 with the first best
                # hypothesis, the candidate full_select(cons, 1) picks
                sym = hyps[cons.argmax(axis=2)]
                if seen:
                    pm = cons.max(axis=2)
            else:
                # candidates in parent-major order; q >= L equals a full sort
                flat = (full_select(cons, L) if q >= L
                        else two_stage_select(cons, q, L))
                # fewer than L stage-1 survivors (alpha * q < L) are all kept;
                # the rest of the list is padded with inactive entries
                kept = flat.shape[1]
                if kept < L:
                    flat = np.pad(flat, ((0, 0), (0, L - kept)))
                parents = flat // beta
                bank.gather_paths(parents)
                pm = np.take_along_axis(cons.reshape(B, -1), flat, axis=1)
                pm[:, kept:] = -np.inf
                sym = hyps[flat % beta]
                alpha = kept
            bank.feed(j, feed[sym])
        if trace_hook is not None:
            trace_hook(j, alpha, bank.decided(j).reshape(B, L, -1), pm)
        j += 1
    return bank.decided(last).reshape(B, L, -1), pm, alpha


def scl_decode_batch(code, metrics, list_size, trace_hook=None):
    """Bit-based SCL decode of a batch; returns (histories, metrics, alpha).

    The M = 1, q = L case of `symbol_scl_decode_batch`. `histories` has
    shape (B, L, N), `metrics` (B, L); entries at list indices >= alpha are
    inactive. Paths double on information bits until L paths exist, then
    each bit keeps the L best of the 2L extensions. `trace_hook`, when
    given, is called as trace_hook(j, alpha, histories, metrics) after
    every bit.
    """
    return _scl_loop(code, partition_symbols(code, 0), metrics, list_size,
                     list_size, trace_hook)


def _best_path(hist, pm, alpha):
    best = np.argmax(pm[:, :alpha], axis=1)
    return hist[np.arange(hist.shape[0]), best]


def scl_decode(code, metrics, list_size):
    """SCL-decode one frame of (N, 2) finite log metric pairs, returning the
    most reliable final path. L = 1 reproduces `sc_decode` decisions."""
    metrics = _check_metrics(code, metrics)
    hist, pm, alpha = scl_decode_batch(code, metrics[None], list_size)
    return _best_path(hist, pm, alpha)[0]


def ca_scl_decode_batch(code, metrics, list_size):
    """CRC-aided SCL decode of a batch; returns (B, N) decisions."""
    if code.crc is None:
        raise ValueError("ca_scl_decode requires a code with a CRC")
    hist, pm, alpha = scl_decode_batch(code, metrics, list_size)
    valid = verify_crc(hist[:, :alpha][:, :, code.info_set], code.crc)
    # all paths compete when none is valid
    valid |= ~valid.any(axis=1, keepdims=True)
    return _best_path(hist, np.where(valid, pm[:, :alpha], -np.inf), alpha)


def ca_scl_decode(code, metrics, list_size):
    """CA-SCL decode one frame: most reliable CRC-valid path, falling back
    to the plain SCL decision when no path passes the CRC."""
    metrics = _check_metrics(code, metrics)
    return ca_scl_decode_batch(code, metrics[None], list_size)[0]


def symbol_scl_decode_batch(code, part, metrics, list_size, stage1_keep,
                            trace_hook=None):
    """Symbol-based SCL decode of a batch; returns (histories, metrics, alpha).

    Per symbol j the path expansion factor is 2^(information bits in the
    symbol). Fully frozen symbols extend every path with zeros; while
    alpha * beta <= L all extensions are kept (new path i + k*alpha extends
    parent i with hypothesis k); otherwise each path expands to its beta
    candidates and the two-stage selection with per-group survivor count
    `stage1_keep` prunes back to L (a full sort, which selects the same, when
    stage1_keep = L). When alpha * stage1_keep < L all stage-1 survivors are
    kept and alpha becomes their count. `trace_hook` is called as in
    `scl_decode_batch`.
    """
    return _scl_loop(code, part, metrics, list_size, stage1_keep, trace_hook)


def symbol_scl_decode(code, part, metrics, list_size, stage1_keep):
    """Symbol-based SCL decode of one frame.

    With M = 1 and stage1_keep = L this reproduces `scl_decode` exactly.
    """
    metrics = _check_metrics(code, metrics)
    hist, pm, alpha = symbol_scl_decode_batch(
        code, _check_partition(code, part), metrics[None], list_size,
        stage1_keep)
    return _best_path(hist, pm, alpha)[0]
