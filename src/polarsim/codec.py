"""Polar encoding over GF(2) and CRC attachment/verification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construction import bit_reversal_permutation


def _butterfly(bits):
    """Apply the n-fold Kronecker transform of [[1,0],[1,1]] in place-free form.

    `bits` has shape (..., N); returns the transformed copy. O(N log N) xors.
    """
    x = np.array(bits, dtype=np.int8, copy=True)
    N = x.shape[-1]
    half = N // 2
    while half >= 1:
        blocks = x.reshape(x.shape[:-1] + (-1, 2, half))
        blocks[..., 0, :] ^= blocks[..., 1, :]
        half //= 2
    return x.reshape(np.shape(bits))


def encode_bits(bits, n):
    """Encode length-2^n blocks (vectorized over leading axes), no validation."""
    perm = bit_reversal_permutation(n)
    return _butterfly(np.asarray(bits)[..., perm])


def _check_binary(bits, name):
    if not np.isin(bits, (0, 1)).all():
        raise ValueError(f"{name} entries must be 0 or 1")


def polar_encode(code, u):
    """Encode u into a codeword: bit-reversal permutation then butterfly stages.

    Parameters
    ----------
    code : PolarCode
    u : array-like of {0,1}, length N
        Frozen positions must be zero.

    Returns
    -------
    ndarray
        Codeword of length N.
    """
    u = np.asarray(u)
    if u.shape != (code.N,):
        raise ValueError(f"u must have length {code.N}, got shape {u.shape}")
    _check_binary(u, "u")
    if np.any(u[code.frozen_set] != 0):
        raise ValueError("frozen positions of u must be zero")
    return encode_bits(u, code.n)


def scatter_info(code, info):
    """Place K information bits at the code's information indices, zeros elsewhere."""
    info = np.asarray(info)
    if info.shape != (code.K,):
        raise ValueError(f"info must have length {code.K}, got shape {info.shape}")
    _check_binary(info, "info")
    return scatter_info_batch(code, info)


def scatter_info_batch(code, info):
    """Batched scatter_info: info has shape (..., K); bits are not checked."""
    info = np.asarray(info)
    u = np.zeros(info.shape[:-1] + (code.N,), dtype=np.int8)
    u[..., code.info_set] = info
    return u


# Standard generator polynomial per CRC width, without the leading 1
_STANDARD_POLYS = {4: 0x3, 8: 0x07, 12: 0x80F, 16: 0x1021, 24: 0x864CFB,
                   32: 0x04C11DB7}


@dataclass(frozen=True)
class CrcSpec:
    """CRC parameters: width, generator polynomial and initial register.

    `poly` is the generator mask without the implicit leading 1; None takes
    the standard polynomial of the width (4, 8, 12, 16, 24 or 32 bits).
    `init` None starts the register at all ones. Message bits enter the
    high end of the register; the final register is the CRC. The defaults
    are CRC-16/CCITT-FALSE.
    """

    width: int = 16
    poly: int | None = None
    init: int | None = None

    def __post_init__(self):
        if not 1 <= self.width <= 32:
            raise ValueError(f"CRC width must be in [1, 32], got {self.width}")
        if self.poly is None:
            if self.width not in _STANDARD_POLYS:
                raise ValueError(f"no standard CRC polynomial for width "
                                 f"{self.width}; give a polynomial")
            object.__setattr__(self, "poly", _STANDARD_POLYS[self.width])
        if self.init is None:
            object.__setattr__(self, "init", (1 << self.width) - 1)
        if self.poly >> self.width:
            raise ValueError("poly does not fit in width bits")


def crc_value(bits, spec):
    """CRC register value for a bit sequence; vectorized over leading axes.

    `bits` has shape (..., nbits) with the first axis-(-1) element processed
    first (wire order).
    """
    bits = np.asarray(bits, dtype=np.int64)
    reg = np.full(bits.shape[:-1], spec.init, dtype=np.int64)
    mask = (1 << spec.width) - 1
    top = spec.width - 1
    for k in range(bits.shape[-1]):
        out = ((reg >> top) ^ bits[..., k]) & 1
        reg = ((reg << 1) & mask) ^ (out * spec.poly)
    return reg


def int_to_bits(values, width):
    """Integers to width-bit arrays, MSB first."""
    values = np.asarray(values)
    shifts = np.arange(width - 1, -1, -1)
    return ((values[..., None] >> shifts) & 1).astype(np.int8)


def attach_crc(payload, spec):
    """Append the CRC of `payload` (MSB first), giving a self-checking block."""
    payload = np.asarray(payload)
    rem = crc_value(payload, spec)
    return np.concatenate([payload.astype(np.int8), int_to_bits(rem, spec.width)],
                          axis=-1)


def verify_crc(block, spec):
    """True where the trailing CRC bits match a recomputation over the payload.

    Vectorized: `block` has shape (..., K); returns bool array of shape (...).
    """
    block = np.asarray(block)
    if block.shape[-1] <= spec.width:
        raise ValueError(f"block must be longer than the {spec.width}-bit CRC")
    payload = block[..., : -spec.width]
    expected = int_to_bits(crc_value(payload, spec), spec.width)
    return np.all(block[..., -spec.width :] == expected, axis=-1)
