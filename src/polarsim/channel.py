"""BPSK over AWGN and conversion of samples to log-domain channel metrics.

Metric pairs are arrays with a trailing axis of size 2 holding
(log P(y|bit=0), log P(y|bit=1)) up to a shared additive constant; decoder
decisions are invariant under adding any constant to both entries.
"""

from __future__ import annotations

import math

import numpy as np


def noise_sigma2(ebn0_db, code_rate):
    """Per-sample noise variance for unit-energy BPSK at the given Eb/N0."""
    if math.isinf(ebn0_db) and ebn0_db > 0:
        return 0.0
    return 1.0 / (2.0 * code_rate * 10.0 ** (ebn0_db / 10.0))


def modulate(bits):
    """Map bits to antipodal symbols: 0 -> +1.0, 1 -> -1.0."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def initial_metrics(y, sigma2):
    """Channel-stage metric pairs: ll_b = -(y - s_b)^2 / (2 sigma^2).

    The Gaussian normalization constant is dropped (shared by both entries).
    Returns an array of shape y.shape + (2,).
    """
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    y = np.asarray(y, dtype=np.float64)
    out = np.empty(y.shape + (2,))
    out[..., 0] = -((y - 1.0) ** 2) / (2.0 * sigma2)
    out[..., 1] = -((y + 1.0) ** 2) / (2.0 * sigma2)
    return out
