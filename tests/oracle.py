"""Brute-force reference implementations used by the test suite.

Everything here is deliberately independent of the production decoders: the
generator matrix is materialized densely, likelihoods keep their exact
Gaussian normalization and halving constants, and metric marginalizations
enumerate completions outright (summing probabilities in extended precision
after max-factoring) instead of using the staged recursions. Block lengths
are capped so the exp-domain dynamic range stays safe.
"""

from __future__ import annotations

import numpy as np

from polarsim.codec import int_to_bits, scatter_info_batch
from polarsim.construction import bit_reversal_permutation

_LOG2 = np.log(2.0)


class DenseCode:
    """A polar code with its generator matrix held as a dense GF(2) matrix."""

    def __init__(self, code):
        if code.N > 64:
            raise ValueError("DenseCode is limited to N <= 64")
        self.code = code
        self.N = code.N
        self.matrix = dense_generator(code.n)

    def encode(self, u):
        """Encode one block or a batch of blocks via the dense matrix."""
        u = np.asarray(u, dtype=np.int64)
        return (u @ self.matrix) & 1


def dense_generator(n):
    """Dense generator: bit-reversal permutation times the n-fold Kronecker
    power of [[1,0],[1,1]], over GF(2)."""
    f = np.array([[1]], dtype=np.int64)
    block = np.array([[1, 0], [1, 1]], dtype=np.int64)
    for _ in range(n):
        f = np.kron(block, f) & 1
    perm = bit_reversal_permutation(n)
    return f[perm] & 1


def channel_loglik(y, sigma2):
    """Exact per-sample Gaussian log densities, shape (N, 2).

    Unlike the decoder's metrics, the normalization constant is kept so that
    probabilities are exact.
    """
    y = np.asarray(y, dtype=np.float64)
    norm = -0.5 * np.log(2.0 * np.pi * sigma2)
    out = np.empty(y.shape + (2,))
    out[..., 0] = norm - ((y - 1.0) ** 2) / (2.0 * sigma2)
    out[..., 1] = norm - ((y + 1.0) ** 2) / (2.0 * sigma2)
    return out


_TAIL_CACHE = {}


def _tail_codewords(n, start):
    """Codewords of all blocks that are zero before `start` (cached)."""
    key = (n, start)
    if key not in _TAIL_CACHE:
        N = 1 << n
        tail = N - start
        blocks = np.zeros((1 << tail, N), dtype=np.int64)
        if tail:
            blocks[:, start:] = int_to_bits(np.arange(1 << tail), tail)
        _TAIL_CACHE[key] = ((blocks @ dense_generator(n)) & 1).astype(np.int8)
    return _TAIL_CACHE[key]


def _streamed_logsumexp(tail_x, weights, chunk=1 << 16):
    """log sum of exp(tail_x @ weights) rows, accumulated in long double.

    tail_x is (T, N) in {0,1}, weights (N, H); returns (H,) float64.
    """
    T = tail_x.shape[0]
    H = weights.shape[1]
    run_max = np.full(H, -np.inf)
    run_sum = np.zeros(H, dtype=np.longdouble)
    for lo in range(0, T, chunk):
        vals = tail_x[lo : lo + chunk].astype(np.float64) @ weights
        cmax = vals.max(axis=0)
        new_max = np.maximum(run_max, cmax)
        scale = np.where(np.isfinite(run_max),
                         np.exp(np.longdouble(run_max - new_max)), 0.0)
        run_sum = run_sum * scale
        run_sum += np.exp(vals.astype(np.longdouble)
                          - new_max.astype(np.longdouble)).sum(axis=0)
        run_max = new_max
    return run_max + np.log(run_sum).astype(np.float64)


def exhaustive_symbol_metric(dense, y, sigma2, j, M, prefix):
    """Joint log metric of (received word, decided prefix) per symbol value.

    Computes log P(y, prefix | symbol hypothesis) for every M-bit hypothesis
    of symbol j by enumerating all completions of the remaining bits, each
    weighted uniformly, and summing the exact joint probabilities. Returns a
    (2^M,) array of logs; hypothesis bits are read MSB first.
    """
    y = np.asarray(y, dtype=np.float64)
    N = dense.N
    prefix = np.asarray(prefix, dtype=np.int64)
    a = j * M
    if prefix.shape != (a,):
        raise ValueError(f"prefix must have length j*M = {a}")
    tail = N - a - M
    if tail < 0:
        raise ValueError("symbol extends past the block")
    if tail > 22:
        raise ValueError(f"tail of {tail} bits is too large to enumerate")
    ll = channel_loglik(y, sigma2)
    delta = ll[:, 1] - ll[:, 0]
    base_ll = ll[:, 0].sum()

    hyps = np.arange(1 << M)
    heads = np.zeros(((1 << M), N), dtype=np.int64)
    heads[:, :a] = prefix
    heads[:, a : a + M] = int_to_bits(hyps, M)
    head_x = (heads @ dense.matrix) & 1

    tail_x = _tail_codewords(dense.code.n, a + M)

    const = base_ll + head_x @ delta - (N - M) * _LOG2
    weights = (delta[:, None] * (1 - 2 * head_x.T)).astype(np.float64)
    return _streamed_logsumexp(tail_x, weights) + const


def exhaustive_ml(dense, y, sigma2):
    """Maximum-likelihood word by enumerating all 2^K codewords.

    Returns the full length-N input word u maximizing the exact Gaussian
    likelihood of y; ties go to the lexicographically smallest u.
    """
    code = dense.code
    if code.K > 20:
        raise ValueError("exhaustive ML is limited to K <= 20")
    ll = channel_loglik(np.asarray(y, dtype=np.float64), sigma2)
    info = int_to_bits(np.arange(1 << code.K), code.K)
    u = scatter_info_batch(code, info).astype(np.int64)
    x = (u @ dense.matrix) & 1
    scores = x @ (ll[:, 1] - ll[:, 0])
    return u[np.argmax(scores)].astype(np.int8)


def _pairwise_xor_maps(M):
    """Index maps sending a 2M-bit symbol to its (even xor odd, odd) halves."""
    h = np.arange(1 << (2 * M))
    eo = np.zeros_like(h)
    odd = np.zeros_like(h)
    for i in range(M):
        be = (h >> (2 * M - 1 - 2 * i)) & 1
        bo = (h >> (2 * M - 2 - 2 * i)) & 1
        eo |= (be ^ bo) << (M - 1 - i)
        odd |= bo << (M - 1 - i)
    return eo, odd


def combination_identity_sides(dense_full, dense_half, y, sigma2, j, M, prefix):
    """Both sides of the recursive channel-combination identity, in logs.

    The left side is the exhaustive 2M-bit symbol metric of the full block;
    the right side assembles the two exhaustive M-bit half-block metrics of
    the pairwise-xor and odd sub-sequences. Returns (lhs, rhs) arrays of
    length 2^(2M), one entry per hypothesis.
    """
    y = np.asarray(y, dtype=np.float64)
    half = dense_half.N
    prefix = np.asarray(prefix, dtype=np.int64)
    lhs = exhaustive_symbol_metric(dense_full, y, sigma2, j, 2 * M, prefix)
    v_even = prefix[0::2] ^ prefix[1::2]
    v_odd = prefix[1::2]
    up = exhaustive_symbol_metric(dense_half, y[:half], sigma2, j, M, v_even)
    lo = exhaustive_symbol_metric(dense_half, y[half:], sigma2, j, M, v_odd)
    eo, odd = _pairwise_xor_maps(M)
    return lhs, up[eo] + lo[odd]
