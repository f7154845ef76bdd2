"""Monte Carlo FER/BER campaigns: frame generation, decoding, aggregation.

Frames are distributed round-robin over `workers` logical streams, each
backed by its own SeedSequence-spawned generator, and processed in
vectorized batches of whole rounds. The global frame order (round-major,
worker-minor) is what early stopping is defined on: the run counts every
frame up to and including the frame that reaches the error budget, so the
estimator is the standard unbiased fixed-stopping-rule one. Results are
byte-reproducible for identical configurations: the CSV's wall_seconds
column is written as 0 (measured time lives on the FerRecord and the
console log; file output must not depend on the clock).
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .channel import initial_metrics, modulate, noise_sigma2
from .codec import CrcSpec, attach_crc, encode_bits, scatter_info_batch
from .construction import MAX_SYMBOL_BITS, construct_code, partition_symbols
from .sc import sc_decode_batch, symbol_sc_decode_batch
from .scl import (_best_path, ca_scl_decode_batch, scl_decode_batch,
                  symbol_scl_decode_batch)

# Batch decoders by name, called as decode(metrics, code, part, cfg). Each
# entry looks its decoder up when called, so a wrapper installed on the
# module attribute (a tracer, say) takes effect.
_DECODERS = {
    "sc": lambda m, code, part, cfg: sc_decode_batch(code, m),
    "ssc": lambda m, code, part, cfg: symbol_sc_decode_batch(code, part, m),
    "scl": lambda m, code, part, cfg: _best_path(
        *scl_decode_batch(code, m, cfg.list_size)),
    "cascl": lambda m, code, part, cfg: ca_scl_decode_batch(
        code, m, cfg.list_size),
    "sscl": lambda m, code, part, cfg: _best_path(*symbol_scl_decode_batch(
        code, part, m, cfg.list_size, cfg.stage1_keep)),
}
DECODERS = tuple(_DECODERS)
_LIST_DECODERS = ("scl", "cascl", "sscl")

CSV_HEADER = "snr_db,frames,frame_errors,bit_errors,fer,ber,wall_seconds"

# Most SNR points a campaign may sweep: a tiny step would list ~1e300.
MAX_SNR_POINTS = 10_000


@dataclass(frozen=True)
class SimConfig:
    """One simulation campaign: code, decoder, sweep and stopping rules."""

    n: int = 10
    K: int = 512
    decoder: str = "scl"
    symbol_bits: int = 4
    list_size: int = 4
    stage1_keep: int = 4
    snr_start: float = 1.0
    snr_step: float = 0.5
    snr_stop: float = 3.0
    max_frames: int = 10000
    max_frame_errors: int = 100
    seed: int = 0
    workers: int = 1
    out: str | None = None
    design_snr_db: float = 0.0
    frozen_file: str | None = None
    crc_width: int = 0
    crc_poly: int | None = None  # None: standard polynomial for the width
    batch_rounds: int = 0  # 0 = auto

    def __post_init__(self):
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}")
        if self.max_frames < 1 or self.max_frame_errors < 0:
            raise ValueError("need max_frames >= 1 and max_frame_errors >= 0")
        # a single point may be +inf dB (noiseless); NaN fails every test
        # here. A sweep's count, snr_points' floor(span) + 1, is bounded here.
        start, step, stop = snr = (self.snr_start, self.snr_step, self.snr_stop)
        if not (math.isfinite(step) and -math.inf < start <= stop and (
                start == stop or step > 0
                and (stop - start) / step + 1e-9 < MAX_SNR_POINTS)):
            raise ValueError(f"snr needs start <= stop, no NaN, no -inf, a "
                             f"finite step and, to sweep, a step > 0 giving at "
                             f"most {MAX_SNR_POINTS} points; got {snr}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # fields that the chosen decoder ignores are not checked
        L, q, M = self.list_size, self.stage1_keep, self.symbol_bits
        if self.decoder in _LIST_DECODERS and (L < 1 or L & (L - 1)):
            raise ValueError(f"list_size must be a power of two >= 1 for "
                             f"{self.decoder}, got {L}")
        widest = min(1 << self.n, MAX_SYMBOL_BITS)
        if self.decoder in ("ssc", "sscl") and (
                not 1 <= M <= widest or M & (M - 1)):
            raise ValueError(f"symbol_bits must be a power of two of at most "
                             f"{widest} (the block length, capped at "
                             f"{MAX_SYMBOL_BITS}) for {self.decoder}, got {M}")
        if self.decoder == "sscl" and not 1 <= q <= L:
            raise ValueError(f"stage1_keep must be in [1, list_size={L}], "
                             f"got {q}")
        if self.decoder == "cascl" and self.crc_width == 0:
            raise ValueError("decoder cascl needs a CRC: set crc_width > 0")

    def snr_points(self):
        if self.snr_start == self.snr_stop:
            return [self.snr_start]
        count = int(math.floor((self.snr_stop - self.snr_start)
                               / self.snr_step + 1e-9)) + 1
        return [self.snr_start + i * self.snr_step for i in range(count)]

    def crc_spec(self):
        if self.crc_width == 0:
            return None
        poly = self.crc_poly
        if poly is None:
            defaults = {4: 0x3, 8: 0x07, 12: 0x80F, 16: 0x1021,
                        24: 0x864CFB, 32: 0x04C11DB7}
            if self.crc_width not in defaults:
                raise ValueError(
                    f"no default polynomial for width {self.crc_width}; "
                    f"set crc_poly")
            poly = defaults[self.crc_width]
        return CrcSpec(self.crc_width, poly, (1 << self.crc_width) - 1)

    def build_code(self):
        return construct_code(self.n, self.K, design_snr_db=self.design_snr_db,
                              frozen_file=self.frozen_file, crc=self.crc_spec())


@dataclass(frozen=True)
class FerRecord:
    """One simulation result row; wall time is telemetry, not a result."""

    snr_db: float
    frames: int
    frame_errors: int
    bit_errors: int
    fer: float
    ber: float
    wall_seconds: float = field(compare=False)

    @classmethod
    def from_counts(cls, snr_db, frames, frame_errors, bit_errors,
                    payload_bits, wall_seconds):
        return cls(snr_db=snr_db, frames=frames, frame_errors=frame_errors,
                   bit_errors=bit_errors, fer=frame_errors / frames,
                   ber=bit_errors / (frames * payload_bits),
                   wall_seconds=wall_seconds)

    def csv_row(self):
        """Deterministic CSV serialization (timing column fixed at zero)."""
        return (f"{self.snr_db:.6g},{self.frames},{self.frame_errors},"
                f"{self.bit_errors},{self.fer:.10e},{self.ber:.10e},0")


def _make_decoder(cfg, code):
    """The batched decoder of a configuration: metrics (B, N, 2) -> (B, N)."""
    part = (partition_symbols(code, cfg.symbol_bits.bit_length() - 1)
            if cfg.decoder in ("ssc", "sscl") else None)
    decode = _DECODERS[cfg.decoder]
    return lambda m: decode(m, code, part, cfg)


def _auto_rounds(cfg):
    """Rounds per batch: 128 frames, shared among the workers. List
    decoders take the same size: their path reorders are lazy, so a larger
    batch does not cost more per frame."""
    if cfg.batch_rounds > 0:
        return cfg.batch_rounds
    return max(1, 128 // cfg.workers)


def run_point(cfg, snr_db, code=None):
    """Estimate FER/BER at one SNR point.

    Deterministic for a given (cfg, snr_db): worker streams are spawned from
    SeedSequence(seed, worker) and consumed in a fixed round order, so the
    result is independent of batch sizing and identical across runs.
    """
    if code is None:
        code = cfg.build_code()
    payload_bits = code.payload_bits
    rate = payload_bits / code.N
    sigma2 = noise_sigma2(snr_db, rate)
    metric_sigma2 = sigma2 if sigma2 > 0 else 1.0  # any constant: argmax-invariant
    decode = _make_decoder(cfg, code)
    W = cfg.workers
    rngs = [np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(w,)))
            for w in range(W)]
    rounds_per_batch = _auto_rounds(cfg)
    crc = code.crc

    start = time.perf_counter()
    frames = 0
    frame_errors = 0
    bit_errors = 0
    budget = cfg.max_frames
    while frames < budget:
        rounds = min(rounds_per_batch, (budget - frames + W - 1) // W)
        payloads = np.empty((rounds, W, payload_bits), dtype=np.int8)
        noise = np.empty((rounds, W, code.N))
        # one (payload, noise) draw pair per frame keeps each worker's stream
        # consumption independent of how many rounds a batch spans
        for r in range(rounds):
            for w, rng in enumerate(rngs):
                payloads[r, w] = rng.integers(0, 2, size=payload_bits,
                                              dtype=np.int8)
                noise[r, w] = rng.standard_normal(code.N)
        payloads = payloads.reshape(rounds * W, payload_bits)
        noise = noise.reshape(rounds * W, code.N)
        info = attach_crc(payloads, crc) if crc is not None else payloads
        u = scatter_info_batch(code, info)
        x = encode_bits(u, code.n)
        y = modulate(x) + math.sqrt(sigma2) * noise
        metrics = initial_metrics(y, metric_sigma2)
        u_hat = decode(metrics)
        payload_hat = u_hat[:, code.info_set][:, :payload_bits]
        bit_errs = (payload_hat != payloads).sum(axis=1)
        bit_errs = bit_errs[:budget - frames]
        err = bit_errs > 0
        if cfg.max_frame_errors > 0:
            cum = frame_errors + np.cumsum(err)
            hit = np.flatnonzero(cum >= cfg.max_frame_errors)
            if hit.size:  # the point ends with the frame that reaches it
                bit_errs, err = bit_errs[:hit[0] + 1], err[:hit[0] + 1]
                budget = frames + err.size
        frames += err.size
        frame_errors += int(err.sum())
        bit_errors += int(bit_errs.sum())
    wall = time.perf_counter() - start
    return FerRecord.from_counts(snr_db, frames, frame_errors, bit_errors,
                                 payload_bits, wall)


def _metadata_text(cfg, code):
    frozen = "\n".join(str(i) for i in code.frozen_set)
    lines = ["[config]"]
    for key, value in sorted(vars(cfg).items()):
        lines.append(f"{key} = {value}")
    lines += [
        "",
        "[code]",
        f"N = {code.N}",
        f"K = {code.K}",
        f"payload_bits = {code.payload_bits}",
        f"frozen_set_sha256 = {hashlib.sha256(frozen.encode()).hexdigest()}",
        "",
    ]
    return "\n".join(lines)


def run_campaign(cfg, log=None, code=None):
    """Sweep the configured SNR range, returning one FerRecord per point.

    When `cfg.out` is set, rows are appended to the CSV as they finish and a
    `<out>.meta` file records the full configuration and a digest of the
    frozen set. Output files are byte-identical across runs of the same
    configuration.
    """
    if log is None:
        log = lambda msg: print(msg, file=sys.stderr)
    code = cfg.build_code() if code is None else code
    records = []
    out = open(cfg.out, "w") if cfg.out else None
    try:
        if out:
            out.write(CSV_HEADER + "\n")
            out.flush()
            with open(cfg.out + ".meta", "w") as meta:
                meta.write(_metadata_text(cfg, code))
        for snr_db in cfg.snr_points():
            rec = run_point(cfg, snr_db, code=code)
            records.append(rec)
            log(f"snr={snr_db:g} dB: fer={rec.fer:.4e} ber={rec.ber:.4e} "
                f"({rec.frames} frames, {rec.frame_errors} errors, "
                f"{rec.wall_seconds:.1f}s)")
            if out:
                out.write(rec.csv_row() + "\n")
                out.flush()
    finally:
        if out:
            out.close()
    return records
