import math

import pytest

from polarsim.cli import main as cli_main
from polarsim.sim import (CSV_HEADER, MAX_SNR_POINTS, FerRecord, SimConfig,
                          _auto_rounds, run_campaign, run_point)


def _small_cfg(**kw):
    base = dict(n=6, K=32, decoder="sc", max_frames=400, max_frame_errors=0,
                seed=9, workers=2)
    base.update(kw)
    return SimConfig(**base)


class TestRunPoint:
    def test_high_snr_error_free(self):
        cfg = _small_cfg(max_frames=100)
        rec = run_point(cfg, 12.0)
        assert rec.fer == 0.0 and rec.frames == 100

    def test_noiseless_rate_one(self):
        cfg = SimConfig(n=2, K=4, decoder="sc", max_frames=50,
                        max_frame_errors=0, seed=1, workers=1)
        rec = run_point(cfg, math.inf)
        assert rec.fer == 0.0

    def test_same_seed_identical(self):
        cfg = _small_cfg()
        assert run_point(cfg, 3.0) == run_point(cfg, 3.0)

    def test_batch_size_does_not_change_results(self):
        a = run_point(_small_cfg(batch_rounds=7), 2.0)
        b = run_point(_small_cfg(batch_rounds=50), 2.0)
        assert (a.frames, a.frame_errors, a.bit_errors) == \
               (b.frames, b.frame_errors, b.bit_errors)

    @pytest.mark.parametrize("kw,rounds", [
        (dict(decoder="sc", list_size=8), 128),
        (dict(decoder="ssc", list_size=32), 128),
        (dict(decoder="sc", n=12), 128),
        (dict(decoder="cascl", list_size=8, crc_width=16), 128),
        (dict(decoder="sscl", list_size=8, stage1_keep=4), 128),
        (dict(decoder="scl", list_size=32), 128),
        (dict(decoder="scl", list_size=8, workers=2), 64),
        (dict(decoder="sc", workers=3), 42),
        (dict(decoder="scl", list_size=32, workers=8), 16),
        (dict(decoder="cascl", list_size=8, crc_width=16, batch_rounds=5), 5),
        (dict(decoder="sc", workers=200), 1),
    ])
    def test_automatic_batch_size(self, kw, rounds):
        # 128 frames per batch, shared among the workers, for every decoder:
        # list decoders reorder their path state lazily
        cfg = SimConfig(**dict(dict(n=10, K=512, workers=1), **kw))
        assert _auto_rounds(cfg) == rounds

    def test_early_stop_counts_through_stopping_frame(self):
        cfg = _small_cfg(max_frames=100000, max_frame_errors=20)
        rec = run_point(cfg, 0.0)
        assert rec.frame_errors == 20
        # rerunning without the error cap but with max_frames = observed
        # frame count reproduces the exact same tallies
        cfg2 = _small_cfg(max_frames=rec.frames, max_frame_errors=0)
        rec2 = run_point(cfg2, 0.0)
        assert (rec2.frames, rec2.frame_errors, rec2.bit_errors) == \
               (rec.frames, rec.frame_errors, rec.bit_errors)

    def test_all_decoders_run(self):
        for decoder in ("sc", "ssc", "scl", "cascl", "sscl"):
            kw = dict(decoder=decoder, max_frames=40, list_size=2,
                      stage1_keep=2, symbol_bits=2)
            if decoder == "cascl":
                kw["crc_width"] = 8
            rec = run_point(_small_cfg(**kw), 4.0)
            assert rec.frames == 40

    def test_worker_streams_give_compatible_estimates(self):
        # different worker counts are different but valid estimators: their
        # 95% confidence intervals overlap on a common operating point
        cfgs = [_small_cfg(workers=w, max_frames=4000, seed=17) for w in (1, 4)]
        intervals = []
        for cfg in cfgs:
            rec = run_point(cfg, 1.0)
            half = 1.96 * math.sqrt(rec.fer * (1 - rec.fer) / rec.frames)
            intervals.append((rec.fer - half, rec.fer + half))
        (lo1, hi1), (lo2, hi2) = intervals
        assert max(lo1, lo2) <= min(hi1, hi2)


class TestRunCampaign:
    def test_sweep_point_count(self):
        cfg = _small_cfg(snr_start=1.0, snr_step=0.5, snr_stop=2.0,
                         max_frames=30)
        records = run_campaign(cfg, log=lambda msg: None)
        assert [r.snr_db for r in records] == [1.0, 1.5, 2.0]

    def test_fer_monotone_within_tolerance(self):
        cfg = _small_cfg(snr_start=0.0, snr_step=2.0, snr_stop=4.0,
                         max_frames=2000, seed=21)
        records = run_campaign(cfg, log=lambda msg: None)
        for a, b in zip(records, records[1:]):
            sigma = math.sqrt(
                a.fer * (1 - a.fer) / a.frames + b.fer * (1 - b.fer) / b.frames)
            assert b.fer <= a.fer + 2 * sigma + 1e-12

    def test_csv_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            cfg = _small_cfg(snr_start=2.0, snr_step=1.0, snr_stop=3.0,
                             max_frames=60, out=str(out))
            run_campaign(cfg, log=lambda msg: None)
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.csv.meta").read_text() \
            .replace("a.csv", "X") != ""

    def test_csv_header_and_rows(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = _small_cfg(snr_start=3.0, snr_step=0.0, snr_stop=3.0,
                         max_frames=50, out=str(out))
        records = run_campaign(cfg, log=lambda msg: None)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(records)
        fields = lines[1].split(",")
        assert len(fields) == 7
        assert int(fields[1]) == 50

    def test_metadata_digest_present(self, tmp_path):
        out = tmp_path / "r.csv"
        cfg = _small_cfg(max_frames=20, out=str(out), snr_start=3.0,
                         snr_step=0.0, snr_stop=3.0)
        run_campaign(cfg, log=lambda msg: None)
        meta = (tmp_path / "r.csv.meta").read_text()
        assert "frozen_set_sha256" in meta
        assert "decoder = sc" in meta

    def test_paired_scl_sscl_parity_small(self):
        # symbol-based and bit-based list decoding agree within Monte Carlo
        # noise on a shared-seed campaign (desk-scale parity check)
        n_frames = 3000
        fers = {}
        for decoder in ("scl", "sscl"):
            cfg = SimConfig(n=6, K=32, decoder=decoder, symbol_bits=4,
                            list_size=4, stage1_keep=4, max_frames=n_frames,
                            max_frame_errors=0, seed=33, workers=2)
            fers[decoder] = run_point(cfg, 2.0)
        a, b = fers["scl"], fers["sscl"]
        se = math.sqrt(a.fer * (1 - a.fer) / a.frames
                       + b.fer * (1 - b.fer) / b.frames)
        assert abs(a.fer - b.fer) <= 2 * se + 1e-12


class TestFerRecord:
    def test_counts_to_rates(self):
        rec = FerRecord.from_counts(2.0, 100, 7, 21, 16, 1.5)
        assert rec.fer == pytest.approx(0.07)
        assert rec.ber == pytest.approx(21 / 1600)
        assert rec.wall_seconds == 1.5

    def test_csv_row_excludes_timing(self):
        rec = FerRecord.from_counts(2.0, 100, 7, 21, 16, 1.5)
        assert rec.csv_row().endswith(",0")


class TestConfigValidation:
    def test_rejects_unknown_decoder(self):
        with pytest.raises(ValueError):
            SimConfig(decoder="viterbi")

    def test_rejects_bad_sweep(self):
        with pytest.raises(ValueError):
            SimConfig(snr_start=3.0, snr_stop=1.0)

    @pytest.mark.parametrize("q", [0, 5, 8])
    def test_rejects_stage1_keep_outside_list(self, q):
        with pytest.raises(ValueError, match="stage1_keep"):
            SimConfig(decoder="sscl", list_size=4, stage1_keep=q)

    def test_rejects_cascl_without_crc(self):
        with pytest.raises(ValueError, match="CRC"):
            SimConfig(decoder="cascl", list_size=4, crc_width=0)

    @pytest.mark.parametrize("decoder", ["scl", "cascl", "sscl"])
    @pytest.mark.parametrize("L", [0, 3, 6])
    def test_rejects_list_size_not_power_of_two(self, decoder, L):
        with pytest.raises(ValueError, match="list_size"):
            SimConfig(decoder=decoder, list_size=L, stage1_keep=1,
                      crc_width=8)

    @pytest.mark.parametrize("decoder", ["ssc", "sscl"])
    def test_rejects_symbol_wider_than_block(self, decoder):
        SimConfig(n=4, K=8, decoder=decoder, symbol_bits=16)
        with pytest.raises(ValueError, match="symbol_bits"):
            SimConfig(n=4, K=8, decoder=decoder, symbol_bits=32)

    @pytest.mark.parametrize("kw", [
        dict(snr_start=math.nan, snr_stop=math.nan),
        dict(snr_step=math.nan),
        dict(snr_stop=math.nan),
        dict(snr_start=-math.inf, snr_step=0.0),
        dict(snr_step=math.inf),
        dict(snr_stop=math.inf),
        dict(max_frame_errors=-3),
        # a sweep from 1 to 3 that never advances
        dict(snr_step=-0.5),
        dict(snr_step=0.0),
        # sweeps of too many points, counted without building them
        dict(snr_step=1e-300),
        dict(snr_step=5e-324),  # the span overflows to inf
        dict(snr_start=-1e308, snr_stop=1e308),  # so does stop - start
        dict(snr_start=0.0, snr_step=1.0, snr_stop=MAX_SNR_POINTS),
    ])
    def test_rejects_nan_or_infinite_sweep_and_negative_error_budget(self, kw):
        with pytest.raises(ValueError, match="snr|max_frame_errors"):
            SimConfig(**kw)

    def test_sweep_point_count(self):
        cfg = SimConfig(snr_start=0.0, snr_step=1.0,
                        snr_stop=MAX_SNR_POINTS - 1)
        assert len(cfg.snr_points()) == MAX_SNR_POINTS
        # one point ignores the step
        for snr, step in [(2.0, -1.0), (2.0, 0.0), (2.0, 0.5), (math.inf, 0.5)]:
            cfg = SimConfig(snr_start=snr, snr_step=step, snr_stop=snr)
            assert cfg.snr_points() == [snr]

    @pytest.mark.parametrize("decoder", ["ssc", "sscl"])
    @pytest.mark.parametrize("M", [0, 3, 6])
    def test_rejects_symbol_width_not_power_of_two(self, decoder, M):
        with pytest.raises(ValueError, match="symbol_bits"):
            SimConfig(decoder=decoder, symbol_bits=M)

    def test_infinite_snr_is_the_noiseless_point(self):
        cfg = SimConfig(snr_start=math.inf, snr_step=0.0, snr_stop=math.inf)
        assert cfg.snr_points() == [math.inf]

    def test_ignored_fields_are_not_checked(self):
        # sc and ssc have no list; scl and cascl take no stage-1 count; the
        # bit decoders take no symbol width
        for decoder in ("sc", "ssc"):
            SimConfig(decoder=decoder, list_size=3, stage1_keep=9)
        SimConfig(decoder="scl", list_size=4, stage1_keep=9)
        SimConfig(decoder="cascl", list_size=4, stage1_keep=0, crc_width=8)
        SimConfig(n=4, K=8, decoder="sc", symbol_bits=32)
        SimConfig(decoder="sc", symbol_bits=3)
        SimConfig(decoder="cascl", symbol_bits=0, crc_width=8)


RUN = ["run", "--n", "16", "--k", "8", "--snr", "4.0", "--frames", "10"]
RUN64 = ["run", "--n", "64", "--frames", "10", "--snr", "1"]


class TestCli:
    def test_construct_emits_frozen_set(self, capsys):
        assert cli_main(["construct", "--n", "8", "--k", "4"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out == ["0", "1", "2", "4"]

    def test_cost_table(self, capsys, tmp_path):
        csv = tmp_path / "cost.csv"
        assert cli_main(["cost", "--M", "4", "--L", "8", "--q", "4",
                         "--csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "48" in out and "24" in out
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "quantity,value,label"
        assert len(lines) == 7

    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "fer.csv"
        rc = cli_main([
            "run", "--n", "16", "--k", "8", "--decoder", "scl", "--list", "2",
            "--snr", "4.0", "--frames", "40", "--max-errors", "0",
            "--seed", "5", "--workers", "2", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER and len(lines) == 2

    def test_run_stdout_when_no_out(self, capsys):
        rc = cli_main([
            "run", "--n", "16", "--k", "8", "--decoder", "sc",
            "--snr", "5.0", "--frames", "20", "--max-errors", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert CSV_HEADER in out

    @pytest.mark.parametrize("flags", [
        RUN + ["--decoder", "cascl"],
        RUN + ["--decoder", "sscl", "--list", "4", "--q", "8"],
        RUN + ["--decoder", "scl", "--list", "3"],
        ["cost", "--M", "4", "--L", "8", "--q", "3"],
        ["cost", "--M", "3", "--L", "8", "--q", "4"],
        ["cost", "--M", "4", "--L", "6", "--q", "4"],
        ["cost", "--M", "4", "--L", "8", "--q", "16"],
        RUN + ["--decoder", "ssc", "--symbol-bits", "32"],
        ["run", "--decoder", "ssc", "--symbol-bits", "64", "--n", "64",
         "--k", "32", "--frames", "20", "--snr", "1"],
        # the code is built inside the boundary too
        RUN64 + ["--k", "100"],
        RUN64 + ["--k", "0"],
        RUN64 + ["--k", "32", "--crc-width", "5"],
        RUN64 + ["--k", "32", "--crc-width", "40"],
        RUN64 + ["--k", "10", "--crc-width", "16"],
        RUN64 + ["--k", "32", "--crc-width", "8", "--crc-poly", "1FF"],
        RUN64 + ["--k", "32", "--frozen-file", "/nonexistent"],
        ["construct", "--n", "64", "--k", "0"],
        RUN64 + ["--k", "32", "--snr", "nan"],
        RUN64 + ["--k", "32", "--snr", "1:nan:3"],
        RUN64 + ["--k", "32", "--max-errors", "-3"],
        # 2^32 * L wires: rejected before any network is built
        ["cost", "--M", "32", "--L", "4", "--q", "2"],
        # output files that cannot be opened
        RUN64 + ["--k", "32", "--out", "/nonexistent/x.csv"],
        ["construct", "--n", "64", "--k", "32", "--out", "/nonexistent/x.txt"],
        ["cost", "--M", "4", "--L", "8", "--q", "4",
         "--csv", "/nonexistent/x.csv"],
        # a sweep of ~1e300 points, and one that never reaches its stop
        RUN64 + ["--k", "32", "--snr=1:1e-300:2"],
        RUN64 + ["--k", "32", "--snr", "1:-0.5:3"],
        # a block length above 2^20, rejected before 2^n entries exist; at
        # 2^20 the code is built and K is what fails
        ["construct", "--n", "2097152", "--k", "5"],
        ["construct", "--n", "1073741824", "--k", "5"],
        ["run", "--n", "2097152", "--k", "5", "--frames", "10", "--snr", "1"],
        ["construct", "--n", "1048576", "--k", "0"],
        # a frozen set file that is not UTF-8
        RUN + ["--frozen-file", "{tmp}/undecodable.txt"],
        # an explicit q is checked against [1, L], not read as "use L"
        RUN + ["--decoder", "sscl", "--list", "4", "--q", "0"],
        RUN + ["--decoder", "sscl", "--list", "4", "--q", "-3"],
        # numpy's generators take no negative seed
        RUN + ["--seed", "-1"],
        # a design SNR whose raw Z is NaN, 1 (-inf, or rounded), or 0 (by
        # overflow or underflow): it leaves every channel tied
        ["construct", "--n", "16", "--k", "8", "--design-snr", "nan"],
        ["construct", "--n", "16", "--k", "8", "--design-snr=-inf"],
        ["construct", "--n", "16", "--k", "8", "--design-snr=-200"],
        ["construct", "--n", "16", "--k", "8", "--design-snr", "1e5"],
        ["construct", "--n", "16", "--k", "8", "--design-snr", "40"],
        ["construct", "--n", "16", "--k", "8", "--design-snr", "inf"],
        RUN + ["--design-snr", "nan"],
        RUN + ["--design-snr", "1e5"],
    ])
    def test_run_rejects_bad_config_at_the_boundary(self, flags, capsys,
                                                    tmp_path):
        # every subcommand reports bad input through the parser
        (tmp_path / "undecodable.txt").write_bytes(b"\xff\xfe3\n")
        flags = [f.replace("{tmp}", str(tmp_path)) for f in flags]
        with pytest.raises(SystemExit) as exit_info:
            cli_main(flags)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags,cause", [
        (["construct", "--n", "2097152", "--k", "5"], "n must be in [2, 20]"),
        (RUN + ["--frozen-file", "{tmp}"], "{tmp}: 'utf-8' codec can't decode"),
        (RUN + ["--decoder", "sscl", "--list", "4", "--q", "-3"],
         "stage1_keep must be in [1, list_size=4], got -3"),
        (RUN + ["--seed", "-1"], "seed must be >= 0, got -1"),
        (["construct", "--n", "16", "--k", "8", "--design-snr", "1e5"],
         "design SNR must give a raw Z strictly between 0 and 1"),
    ], ids=["n-above-bound", "undecodable-frozen-file", "negative-q",
            "negative-seed", "design-snr-overflow"])
    def test_boundary_errors_name_their_cause(self, flags, cause, capsys,
                                              tmp_path):
        path = tmp_path / "undecodable.txt"
        path.write_bytes(b"\xff\xfe3\n")
        flags = [f.replace("{tmp}", str(path)) for f in flags]
        with pytest.raises(SystemExit):
            cli_main(flags)
        err = capsys.readouterr().err.splitlines()[-1]
        assert cause.replace("{tmp}", str(path)) in err
        assert err.count(str(tmp_path)) <= 1

    def test_largest_block_length_is_accepted(self, tmp_path):
        out = tmp_path / "frozen.txt"
        assert cli_main(["construct", "--n", "1048576", "--k", "1048572",
                         "--out", str(out)]) == 0
        assert len(out.read_text().split()) == 4

    def test_run_noiseless_point(self, capsys):
        assert cli_main(RUN64 + ["--k", "32", "--snr", "inf"]) == 0
        out = capsys.readouterr().out.split("\n")
        assert out[1] == "inf,10,0,0,0.0000000000e+00,0.0000000000e+00,0"

    def test_block_length_must_be_power_of_two(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["construct", "--n", "1000", "--k", "500"])
        capsys.readouterr()

    def test_run_sscl_flags(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = cli_main([
            "run", "--n", "16", "--k", "8", "--decoder", "sscl",
            "--symbol-bits", "4", "--list", "4", "--q", "2",
            "--snr", "4.0", "--frames", "30", "--max-errors", "0",
            "--out", str(out)])
        assert rc == 0

    def test_run_sscl_with_fewer_than_l_over_q_live_paths(self, capsys):
        # at N = 64, K = 32 a pruning step meets alpha * q < L
        rc = cli_main([
            "run", "--n", "64", "--k", "32", "--decoder", "sscl",
            "--symbol-bits", "4", "--list", "8", "--q", "1",
            "--snr", "2.0", "--frames", "20", "--max-errors", "0"])
        assert rc == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == CSV_HEADER and out[1].startswith("2,20,")
