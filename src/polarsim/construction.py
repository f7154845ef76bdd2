"""Polar code construction: information-set selection and symbol partitions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .codec import CrcSpec


def bit_reversal_permutation(n):
    """Permutation of {0..2^n-1} mapping each index to its bit-reversed value.

    Parameters
    ----------
    n : int
        Number of address bits (n >= 0).

    Returns
    -------
    ndarray
        Length-2^n integer array. The permutation is its own inverse.
    """
    idx = np.arange(1 << n)
    rev = np.zeros_like(idx)
    for k in range(n):
        rev = (rev << 1) | ((idx >> k) & 1)
    return rev


def bhattacharyya_parameters(n, design_snr_db):
    """Bhattacharyya parameters of the 2^n synthesized bit channels.

    Starts from Z = exp(-10^(design_snr_db/10)) for the raw channel and
    applies the recursion Z(2i) = 2 Z(i) - Z(i)^2, Z(2i+1) = Z(i)^2.
    Larger Z means a less reliable channel.
    """
    z = np.array([np.exp(-(10.0 ** (design_snr_db / 10.0)))])
    for _ in range(n):
        nxt = np.empty(2 * z.size)
        nxt[0::2] = 2.0 * z - z * z
        nxt[1::2] = z * z
        z = nxt
    return z


@dataclass(frozen=True, eq=False)
class PolarCode:
    """An (N, K) polar code: block length, information set and CRC config.

    `frozen_set` holds the N-K indices decoded as zero; `info_set` holds the
    K information indices (payload plus CRC bits when `crc` is set). Both are
    sorted ascending and together cover {0..N-1}.
    """

    n: int
    K: int
    frozen_set: np.ndarray
    design_snr_db: float = 0.0
    crc: "CrcSpec | None" = None
    info_set: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2 (N >= 4), got n={self.n}")
        N = self.N
        if not 0 < self.K <= N:
            raise ValueError(f"K must satisfy 0 < K <= N, got K={self.K}, N={N}")
        frozen = np.unique(np.asarray(self.frozen_set, dtype=np.int64))
        if frozen.size != np.asarray(self.frozen_set).size:
            raise ValueError("frozen_set contains duplicate indices")
        if frozen.size != N - self.K:
            raise ValueError(
                f"frozen_set has {frozen.size} indices, expected N-K={N - self.K}"
            )
        if frozen.size and (frozen[0] < 0 or frozen[-1] >= N):
            raise ValueError(f"frozen_set indices must lie in [0, {N})")
        object.__setattr__(self, "frozen_set", frozen)
        mask = np.ones(N, dtype=bool)
        mask[frozen] = False
        object.__setattr__(self, "info_set", np.flatnonzero(mask).astype(np.int64))
        if self.crc is not None and self.crc.width >= self.K:
            raise ValueError("CRC width must be smaller than K")

    @property
    def N(self):
        return 1 << self.n

    @property
    def payload_bits(self):
        """Number of user bits per frame (K minus CRC bits, if any)."""
        return self.K - (self.crc.width if self.crc is not None else 0)

    def frozen_mask(self):
        """Boolean mask of length N, True at frozen positions."""
        mask = np.zeros(self.N, dtype=bool)
        mask[self.frozen_set] = True
        return mask


def load_frozen_set(path):
    """Parse a frozen-set file, one decimal index per line (unchecked)."""
    indices = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text:
                continue
            try:
                indices.append(np.int64(text))
            except (ValueError, OverflowError):
                raise ValueError(f"{path}:{lineno}: not an index: {text!r}")
    return np.array(indices, dtype=np.int64)


def construct_code(n, K, design_snr_db=0.0, frozen_file=None, crc=None):
    """Build a PolarCode by choosing the K most reliable positions.

    Parameters
    ----------
    n : int
        Block length exponent, N = 2^n.
    K : int
        Number of information positions (payload + CRC bits).
    design_snr_db : float
        Construction SNR in dB for the Bhattacharyya recursion, which
        selects the K indices with smallest Z parameter.
    frozen_file : str, optional
        Path to a frozen-set file (one decimal index per line), loaded in
        place of the recursion's choice.
    crc : CrcSpec, optional
        CRC attached inside the K information bits.

    The construction is deterministic: identical inputs give identical codes.
    """
    if frozen_file:
        frozen = load_frozen_set(frozen_file)
    else:
        z = bhattacharyya_parameters(n, design_snr_db)
        # stable sort: ties keep the lower index, which freezes first
        frozen = np.sort(np.argsort(-z, kind="stable")[: z.size - K])
    try:  # PolarCode checks n, K, the frozen set and the CRC
        return PolarCode(n=n, K=K, frozen_set=frozen,
                         design_snr_db=design_snr_db, crc=crc)
    except ValueError as exc:
        raise ValueError(f"{frozen_file}: {exc}") if frozen_file else exc


# Widest symbol the symbol decoders take: each symbol step builds 2^M-entry
# tables, which at M = 32 would take gigabytes.
MAX_SYMBOL_BITS = 16


@dataclass(frozen=True, eq=False)
class SymbolPartition:
    """Partition of {0..N-1} into N/M contiguous M-bit symbols.

    `frozen` is the code's frozen mask as an (N/M, M) array, row j covering
    indices [jM, jM+M). `hypotheses[j]` lists, ascending, the M-bit symbol
    values that are zero at every frozen position of symbol j: entry k
    carries the bits of k (MSB first) in the symbol's information positions,
    in ascending index order. Bit 0 of a symbol integer is its last
    (highest-index) bit. All arrays are read-only, and symbols with the same
    frozen pattern share one hypothesis array.
    """

    m: int
    frozen: np.ndarray
    hypotheses: tuple

    @property
    def M(self):
        return 1 << self.m

    @property
    def symbol_count(self):
        return len(self.hypotheses)


def partition_symbols(code, m):
    """Split a code's index space into 2^m-bit symbols.

    Parameters
    ----------
    code : PolarCode
    m : int
        Symbol width exponent, 0 <= m <= code.n and 2^m <= MAX_SYMBOL_BITS.
        M = 2^m bits per symbol.
    """
    m_max = min(code.n, MAX_SYMBOL_BITS.bit_length() - 1)
    if not 0 <= m <= m_max:
        raise ValueError(f"m must satisfy 0 <= m <= {m_max} (n={code.n}, "
                         f"M <= {MAX_SYMBOL_BITS}), got {m}")
    M = 1 << m
    frozen = code.frozen_mask().reshape(-1, M)
    frozen.flags.writeable = False
    # each row's frozen positions as an M-bit integer, MSB first
    patterns, which = np.unique(frozen @ (1 << np.arange(M - 1, -1, -1)),
                                return_inverse=True)
    values = np.arange(1 << M)
    shared = [values[(values & p) == 0] for p in patterns]
    for hyps in shared:
        hyps.flags.writeable = False
    return SymbolPartition(m=m, frozen=frozen,
                           hypotheses=tuple(shared[i] for i in which.tolist()))
