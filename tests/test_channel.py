import math

import numpy as np
import pytest

from polarsim.channel import initial_metrics, modulate, noise_sigma2
from polarsim.construction import construct_code
from polarsim.sc import sc_decode


class TestModulate:
    def test_zeros(self):
        assert modulate([0, 0]).tolist() == [1.0, 1.0]

    def test_mixed(self):
        assert modulate([1, 0, 1]).tolist() == [-1.0, 1.0, -1.0]

    def test_noiseless_roundtrip(self):
        bits = np.array([0, 1, 1, 0, 1])
        assert np.array_equal((modulate(bits) < 0).astype(int), bits)


class TestNoiseSigma2:
    def test_sigma2_formula(self):
        assert noise_sigma2(0.0, 0.5) == pytest.approx(1.0)
        assert noise_sigma2(3.0, 1.0) == pytest.approx(1.0 / (2 * 10 ** 0.3))

    def test_noiseless_at_infinite_snr(self):
        assert noise_sigma2(math.inf, 0.5) == 0.0


class TestInitialMetrics:
    def test_symmetry_at_zero(self):
        pair = initial_metrics(np.array([0.0]), 0.5)[0]
        assert pair[0] == pair[1]

    def test_loglik_difference(self):
        # ll0 - ll1 = 2 y / sigma^2
        pair = initial_metrics(np.array([1.0]), 0.5)[0]
        assert pair[0] - pair[1] == pytest.approx(4.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            initial_metrics(np.array([1.0]), 0.0)

    def test_shift_invariance_of_decisions(self):
        rng = np.random.default_rng(5)
        code = construct_code(5, 16)
        x = modulate(np.zeros(code.N, int))
        y = x + rng.normal(0, 0.8, code.N)
        met = initial_metrics(y, 0.64)
        shifted = met + rng.normal(0, 3.0, size=(code.N, 1))  # per-sample offsets
        assert np.array_equal(sc_decode(code, met), sc_decode(code, shifted))
