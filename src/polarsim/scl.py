"""Successive cancellation list decoding, bit-based and symbol-based.

Paths carry their decided-bit history and a running log metric; the metric
of a path after deciding bit (or symbol) j is the decoder's joint metric of
the received word and the whole decided prefix, so candidate metrics at any
step are directly comparable. Pruning uses the selection primitives from
`pruning`; candidate tie order is (metric desc, parent asc, symbol asc) and
the returned word is the path with the highest final metric (lowest list
index on ties).

Path state lives in one vectorized bank per decode; pruning reorders the
bank's list axis with gather operations, which is observably equivalent to
cloning each surviving path.
"""

from __future__ import annotations

import numpy as np

from .codec import verify_crc
from .pruning import full_select, two_stage_select
from .sc import (_bit_partition, _check_metrics, _component_bank, _symbol_bits,
                 _symbol_tables)


def _scl_loop(code, part, metrics, L, q, trace_hook):
    """The list decode loop over the symbols of `part`, list size L, q
    stage-1 survivors per group; returns (histories, metrics, alpha)."""
    if L < 1 or (L & (L - 1)):
        raise ValueError(f"list size must be a power of two >= 1, got {L}")
    # q beyond a group's candidate count clamps to keeping the whole group
    if not 1 <= q <= L:
        raise ValueError(f"stage1 survivor count must be in [1, L], got {q}")
    metrics = np.asarray(metrics, dtype=np.float64)
    B = metrics.shape[0]
    M = part.M
    bank = _component_bank((B, L), M, metrics)
    bits, feed = _symbol_bits(M)
    zero = np.zeros(bank.lead, dtype=np.int8)
    hist = np.zeros((B, L, code.N), dtype=np.int8)
    pm = np.full((B, L), -np.inf)
    alpha = 1
    batch_idx = np.arange(B)[:, None]
    for j in range(part.symbol_count):
        pairs = bank.refresh(j)
        hyps = part.hypotheses(j)
        beta = hyps.size
        if beta == 1:
            # zero-symbol extension: metric is the all-zero entry of the
            # would-be table, obtained from the component pairs directly
            entry = pairs[:, :alpha, ..., 0]
            pm[:, :alpha] = entry if M == 1 else entry.sum(axis=-1)
            bank.feed(j, zero)
        else:
            # a 1-bit table is the pair itself
            table = pairs if M == 1 else _symbol_tables(pairs)
            cons = table[:, :alpha]
            if beta < table.shape[-1]:
                cons = cons[:, :, hyps]
            if alpha * beta <= L:
                idx = np.arange(L)
                idx[: alpha * beta] = np.tile(np.arange(alpha), beta)
                bank.take_static(idx)
                hist = np.take(hist, idx, axis=1)
                sym = np.zeros((B, L), dtype=np.int64)
                sym[:, : alpha * beta] = np.repeat(hyps, alpha)
                pm[:, : alpha * beta] = cons.transpose(0, 2, 1).reshape(B, -1)
                alpha *= beta
            else:
                # candidates in parent-major order; q >= L equals a full sort
                flat = (full_select(cons, L) if q >= L
                        else two_stage_select(cons, q, L))
                parents = flat // beta
                bank.gather_paths(parents)
                hist = hist[batch_idx, parents]
                pm = np.take_along_axis(cons.reshape(B, -1), flat, axis=1)
                sym = hyps[flat % beta]
                alpha = L
            hist[:, :, j * M : (j + 1) * M] = bits[sym]
            bank.feed(j, feed[sym])
        if trace_hook is not None:
            trace_hook(j, alpha, hist, pm)
    return hist, pm, alpha


def scl_decode_batch(code, metrics, list_size, trace_hook=None):
    """Bit-based SCL decode of a batch; returns (histories, metrics, alpha).

    The M = 1, q = L case of `symbol_scl_decode_batch`. `histories` has
    shape (B, L, N), `metrics` (B, L); entries at list indices >= alpha are
    inactive. Paths double on information bits until L paths exist, then
    each bit keeps the L best of the 2L extensions. `trace_hook`, when
    given, is called as trace_hook(j, alpha, histories, metrics) after
    every bit.
    """
    return _scl_loop(code, _bit_partition(code), metrics, list_size,
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
    stage1_keep = L). `trace_hook` is called as in `scl_decode_batch`.
    """
    return _scl_loop(code, part, metrics, list_size, stage1_keep, trace_hook)


def symbol_scl_decode(code, part, metrics, list_size, stage1_keep):
    """Symbol-based SCL decode of one frame.

    With M = 1 and stage1_keep = L this reproduces `scl_decode` exactly.
    """
    metrics = _check_metrics(code, metrics)
    hist, pm, alpha = symbol_scl_decode_batch(
        code, part, metrics[None], list_size, stage1_keep)
    return _best_path(hist, pm, alpha)[0]
