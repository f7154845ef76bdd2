"""Decision fingerprints: the decoders' exact output on seeded noisy words.

Each digest is the sha256 of the (frames, N) int8 decisions that the
batched decoder behind `run_point` returns for the same words of the
(1024, 512) code. The digests were recorded from the separate bit-based and
symbol-based decoding loops, before bit decoding became the M = 1 case of
the symbol decoders, so any refactor that changes one decision of one frame
fails here in seconds rather than in the slow FER acceptance runs.
"""

import hashlib

import numpy as np
import pytest

from polarsim.channel import initial_metrics, modulate, noise_sigma2
from polarsim.codec import attach_crc, encode_bits, scatter_info_batch
from polarsim.sim import SimConfig, _make_decoder

FRAMES = 24
SNR_DB = 1.0

CASES = {
    "sc": dict(decoder="sc"),
    "ssc-M4": dict(decoder="ssc", symbol_bits=4),
    "scl-L8": dict(decoder="scl", list_size=8),
    "cascl-L8-crc16": dict(decoder="cascl", list_size=8, crc_width=16),
    "sscl-M4-L8-q8": dict(decoder="sscl", symbol_bits=4, list_size=8,
                          stage1_keep=8),
    "sscl-M4-L8-q4": dict(decoder="sscl", symbol_bits=4, list_size=8,
                          stage1_keep=4),
}

DIGESTS = {
    "sc":
        "0f0a808c20f87e5ed2e7d73f0b6036f6d9968d1d2488e53ffb690b9e8d1bcbb5",
    "ssc-M4":
        "46ed5a667f6afa5d7e2457c394c13b10e7d4a1ee90d56d819d446deebf998008",
    "scl-L8":
        "ad4925a5d92a72e52b761a3d286ece036ae8b4ccb412365033b5dae6ff0bf3b4",
    "cascl-L8-crc16":
        "b1dc8e8c93d7fdb50dc0a6a68b8b0e07d0e8cf62203e353da96c789ce3ef469b",
    # on these words symbol SCL equals bit SCL, with either q
    "sscl-M4-L8-q8":
        "ad4925a5d92a72e52b761a3d286ece036ae8b4ccb412365033b5dae6ff0bf3b4",
    "sscl-M4-L8-q4":
        "ad4925a5d92a72e52b761a3d286ece036ae8b4ccb412365033b5dae6ff0bf3b4",
}


def _words(code, seed):
    """Channel metrics of FRAMES random payloads sent over AWGN at SNR_DB."""
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 2, size=(FRAMES, code.payload_bits),
                           dtype=np.int8)
    info = attach_crc(payload, code.crc) if code.crc is not None else payload
    x = encode_bits(scatter_info_batch(code, info), code.n)
    sigma2 = noise_sigma2(SNR_DB, code.payload_bits / code.N)
    y = modulate(x) + np.sqrt(sigma2) * rng.standard_normal(x.shape)
    return payload, initial_metrics(y, sigma2)


@pytest.mark.parametrize("name", sorted(CASES))
def test_decision_fingerprint(name):
    cfg = SimConfig(n=10, K=512, **CASES[name])
    code = cfg.build_code()
    payload, metrics = _words(code, seed=20140518)
    decisions = np.asarray(_make_decoder(cfg, code)(metrics))
    assert decisions.shape == (FRAMES, code.N)
    errors = (decisions[:, code.info_set][:, :code.payload_bits]
              != payload).any(axis=1)
    # the words must exercise wrong decisions too, or the digest says little
    assert 0 < errors.sum() < FRAMES
    digest = hashlib.sha256(decisions.astype(np.int8).tobytes()).hexdigest()
    assert digest == DIGESTS[name]
