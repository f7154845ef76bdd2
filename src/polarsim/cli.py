"""Command line interface: `run` campaigns, `cost` tables, `construct` codes."""

from __future__ import annotations

import argparse
import sys

from .construction import construct_code
from .costs import (build_ctsn, build_tstsn, channel_combination_additions,
                    ml_detector_additions)
from .sim import CSV_HEADER, DECODERS, SimConfig, run_campaign


def _parse_snr(text):
    """Parse 'start:step:stop' (or a single value) into a triple."""
    parts = text.split(":")
    if len(parts) == 1:
        v = float(parts[0])
        return v, 0.0, v
    if len(parts) == 3:
        start, step, stop = (float(p) for p in parts)
        return start, step, stop
    raise argparse.ArgumentTypeError("snr must be VALUE or START:STEP:STOP")


def _block_exponent(value):
    """CLI block lengths arrive as N (a power of two, >= 4)."""
    N = int(value)
    if N < 4 or (N & (N - 1)):
        raise argparse.ArgumentTypeError(
            f"block length must be a power of two >= 4, got {N}")
    return N.bit_length() - 1


def _add_run_parser(sub):
    p = sub.add_parser("run", help="run a Monte Carlo FER/BER campaign")
    p.add_argument("--n", type=_block_exponent, required=True,
                   help="block length N (a power of two)")
    p.add_argument("--k", type=int, required=True,
                   help="information bits (payload + CRC)")
    p.add_argument("--decoder", choices=DECODERS, default="sc")
    p.add_argument("--symbol-bits", type=int, default=4,
                   help="symbol width M for ssc/sscl (power of two)")
    p.add_argument("--list", dest="list_size", type=int, default=4,
                   help="list size L for scl/cascl/sscl")
    p.add_argument("--q", type=int, default=0,
                   help="stage-1 survivors per group for sscl (default: L)")
    p.add_argument("--crc-width", type=int, default=0,
                   help="CRC width in bits (0 disables the CRC)")
    p.add_argument("--crc-poly", type=lambda s: int(s, 16), default=None,
                   help="CRC polynomial as hex, without the leading 1 "
                        "(default: standard polynomial for the width)")
    p.add_argument("--snr", type=_parse_snr, default=(1.0, 0.5, 3.0),
                   help="Eb/N0 sweep in dB as START:STEP:STOP")
    p.add_argument("--frames", type=int, default=10000,
                   help="maximum frames per SNR point")
    p.add_argument("--max-errors", type=int, default=100,
                   help="stop a point after this many frame errors (0: never)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="independent RNG streams frames are split over")
    p.add_argument("--design-snr", type=float, default=0.0,
                   help="construction SNR in dB")
    p.add_argument("--frozen-file", default=None,
                   help="load the frozen set from a file instead")
    p.add_argument("--out", default=None, help="CSV output path")


def _cmd_run(args, parser):
    start, step, stop = args.snr
    q = args.q if args.q > 0 else args.list_size
    try:
        cfg = SimConfig(
            n=args.n, K=args.k, decoder=args.decoder,
            symbol_bits=args.symbol_bits, list_size=args.list_size,
            stage1_keep=q, snr_start=start, snr_step=step, snr_stop=stop,
            max_frames=args.frames, max_frame_errors=args.max_errors,
            seed=args.seed, workers=args.workers, out=args.out,
            design_snr_db=args.design_snr, frozen_file=args.frozen_file,
            crc_width=args.crc_width, crc_poly=args.crc_poly,
        )
        code = cfg.build_code()
    except ValueError as exc:
        parser.error(str(exc))
    records = run_campaign(cfg, code=code)
    if not args.out:
        print(CSV_HEADER)
        for rec in records:
            print(rec.csv_row())
    return 0


def _cmd_cost(args, parser):
    M, L, q = args.M, args.L, args.q
    m = M.bit_length() - 1
    try:
        rows = [
            ("direct_detector_additions", ml_detector_additions(M), ""),
            ("recursive_combination_additions",
             channel_combination_additions(M), ""),
        ]
        ctsn = build_ctsn(M, L)
        tstsn = build_tstsn(M, L, q)
    except ValueError as exc:
        parser.error(str(exc))
    rows += [
        ("ctsn_comparators", ctsn.comparators, ctsn.label),
        ("ctsn_depth", ctsn.depth, ctsn.label),
        ("tstsn_comparators", tstsn.comparators, tstsn.label),
        ("tstsn_depth", tstsn.depth, tstsn.label),
    ]
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("quantity,value,label\n")
            for name, value, label in rows:
                fh.write(f"{name},{value},{label}\n")
    width = max(len(r[0]) for r in rows)
    print(f"symbol width M={M} (m={m}), list size L={L}, q={q}")
    for name, value, label in rows:
        suffix = f"  [{label}]" if label else ""
        print(f"  {name:<{width}}  {value}{suffix}")
    return 0


def _cmd_construct(args, parser):
    try:
        code = construct_code(args.n, args.k, design_snr_db=args.design_snr)
    except ValueError as exc:
        parser.error(str(exc))
    lines = "\n".join(str(i) for i in code.frozen_set)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(lines + "\n")
    else:
        print(lines)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="polarsim",
        description="Polar code simulation: SC/SCL decoding, bit- and "
                    "symbol-based, with list pruning cost models.")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_parser(sub)

    p = sub.add_parser("cost", help="operation-count tables")
    p.add_argument("--M", type=int, required=True, help="symbol width (2^m)")
    p.add_argument("--L", type=int, required=True, help="list size")
    p.add_argument("--q", type=int, required=True, help="stage-1 survivors")
    p.add_argument("--csv", default=None, help="also write a CSV table here")

    p = sub.add_parser("construct", help="emit a frozen set, one index per line")
    p.add_argument("--n", type=_block_exponent, required=True,
                   help="block length N (a power of two)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--design-snr", type=float, default=0.0)
    p.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    command = {"run": _cmd_run, "cost": _cmd_cost,
               "construct": _cmd_construct}[args.command]
    # a file that cannot be read or written is bad input too; a ValueError
    # from inside a decode is a fault and keeps its traceback
    try:
        return command(args, parser)
    except OSError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
