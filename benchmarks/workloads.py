"""The benchmark's workloads: code, decoders, operating point and budgets.

All workloads use the (1024, 512) code built by Bhattacharyya construction
at 0 dB. Each SNR is chosen so that one run sees a few tens of frame errors
or more; the reference FERs in `reference_fer.json` were measured at the
same points on disjoint seeds by `reference.py`.

This module imports nothing outside the standard library, so the launcher
can validate arguments without importing numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

N_EXP = 10
K = 512

# Any integer seed is accepted and folded into [0, SEED_LIMIT); campaign
# seeds are (folded seed << ROUND_BITS) | round. Reference runs use seeds
# from REFERENCE_SEED upwards, which no workload seed reaches.
ROUND_BITS = 12
SEED_LIMIT = 1 << 28
REFERENCE_SEED = SEED_LIMIT << ROUND_BITS

# Single-frame words per decoder per round that carry no noise; they must
# decode without error.
NOISELESS_WORDS = 2

# Frames per decoder batch of the list workloads. With run_point's automatic
# choice (128 frames at L=8) the path state of one batch is tens of MB, and
# each pruning step copies all of it: the figure then follows the memory
# bandwidth left by other processes on the host and wanders by 30 %. At 16
# frames it stays within a few percent and still copies the whole state.
LIST_BATCH = 16


@dataclass(frozen=True)
class Decoder:
    """One decoder configuration: a label and its `SimConfig` fields."""

    label: str
    config: tuple  # ((field, value), ...)
    select: str | None = None  # pruning span that each list step calls


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    snr_db: float
    crc_width: int
    decoders: tuple
    frames: int           # run_point budget per decoder per round
    single_frames: int    # single-frame API calls per decoder per round
    quick_frames: int
    quick_single_frames: int
    reference_frames: int  # frames per decoder of the reference FER run


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="sc-frames",
            why="bit SC and 4-bit symbol SC, no list: pair-bank refresh, "
                "frame generation and encoding dominate",
            snr_db=2.0, crc_width=0,
            decoders=(Decoder("sc", (("decoder", "sc"),)),
                      Decoder("ssc", (("decoder", "ssc"), ("symbol_bits", 4)))),
            frames=512, single_frames=16,
            quick_frames=64, quick_single_frames=3,
            reference_frames=100000),
        Workload(
            name="cascl-list",
            why="bit CA-SCL L=8 with CRC-16: path gathering, history copies "
                "and full-sort selection at every information bit",
            snr_db=1.0, crc_width=16,
            decoders=(Decoder("cascl", (("decoder", "cascl"), ("list_size", 8),
                                         ("batch_rounds", LIST_BATCH)),
                              select="pruning.full_select"),),
            frames=64, single_frames=8,
            quick_frames=16, quick_single_frames=3,
            reference_frames=8000),
        Workload(
            name="sscl-two-stage",
            why="symbol SCL M=4 L=8 q=4: symbol tables by channel "
                "combination and two-stage pruning per information symbol",
            snr_db=1.25, crc_width=0,
            decoders=(Decoder("sscl", (("decoder", "sscl"), ("symbol_bits", 4),
                                       ("list_size", 8), ("stage1_keep", 4),
                                       ("batch_rounds", LIST_BATCH)),
                              select="pruning.two_stage_select"),),
            frames=256, single_frames=24,
            quick_frames=16, quick_single_frames=3,
            reference_frames=12000),
    )
}
