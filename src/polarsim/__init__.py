"""Polar code library: construction, codecs, SC/SCL decoding and simulation."""

from .channel import initial_metrics, modulate, noise_sigma2
from .codec import (CrcSpec, attach_crc, crc_value, polar_encode,
                    scatter_info, verify_crc)
from .construction import (PolarCode, SymbolPartition, bit_reversal_permutation,
                           construct_code, load_frozen_set, partition_symbols)
from .costs import (build_ctsn, build_tstsn, channel_combination_additions,
                    ml_detector_additions)
from .pruning import exactness_check, full_select, two_stage_select
from .sc import (channel_combine, sc_decode, symbol_sc_decode, transform_check,
                 transform_combine)
from .scl import ca_scl_decode, scl_decode, symbol_scl_decode
from .sim import FerRecord, SimConfig, run_campaign, run_point

__all__ = [
    "initial_metrics", "modulate", "noise_sigma2",
    "CrcSpec", "attach_crc", "crc_value", "polar_encode",
    "scatter_info", "verify_crc",
    "PolarCode", "SymbolPartition", "bit_reversal_permutation",
    "construct_code", "load_frozen_set", "partition_symbols",
    "build_ctsn", "build_tstsn", "channel_combination_additions",
    "ml_detector_additions",
    "exactness_check", "full_select", "two_stage_select",
    "channel_combine", "sc_decode", "symbol_sc_decode",
    "transform_check", "transform_combine",
    "ca_scl_decode", "scl_decode", "symbol_scl_decode",
    "FerRecord", "SimConfig", "run_campaign", "run_point",
]
