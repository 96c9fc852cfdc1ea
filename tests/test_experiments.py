import math

import numpy as np
import pytest
from scipy import stats

from physlice.cli import main as cli_main
from physlice.experiments import (
    EmpiricalCdf,
    empirical_cdf,
    load_config_file,
    make_config,
    run_scenario,
)


class TestEmpiricalCdf:
    def test_small_sample_values(self):
        cdf = empirical_cdf([1.0, 2.0, 3.0])
        assert cdf.evaluate(2.0) == pytest.approx(2 / 3)
        assert cdf.evaluate(0.5) == 0.0
        assert cdf.evaluate(3.0) == 1.0

    def test_reaches_one_at_max(self):
        rng = np.random.default_rng(0)
        cdf = empirical_cdf(rng.standard_normal(101))
        assert cdf.evaluate(cdf.values[-1]) == 1.0
        assert cdf.probs[-1] == 1.0
        assert np.all(np.diff(cdf.probs) > 0)

    def test_quantile_inverts_cdf(self):
        cdf = empirical_cdf([10.0, 20.0, 30.0, 40.0])
        assert cdf.quantile(0.25) == 10.0
        assert cdf.quantile(0.5) == 20.0
        assert cdf.quantile(1.0) == 40.0

    def test_converges_to_normal_cdf(self):
        rng = np.random.default_rng(1)
        samples = rng.standard_normal(10_000)
        cdf = empirical_cdf(samples)
        # Kolmogorov-Smirnov distance below the 1% critical value 1.63/sqrt(n).
        grid = np.linspace(-3, 3, 601)
        ks = np.max(np.abs(cdf.evaluate(grid) - stats.norm.cdf(grid)))
        assert ks < 1.63 / np.sqrt(10_000)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            empirical_cdf([])


class TestConfig:
    def test_preset_defaults(self):
        cfg = make_config("fig7")
        assert cfg.n_fft == 2048 and cfg.depth == 1 and cfg.num_runs == 500
        assert cfg.sample_period_ns == pytest.approx(32.552083, abs=1e-4)

    def test_overrides(self):
        cfg = make_config("fig7", num_runs=10, seed=7, output_dir="x")
        assert cfg.num_runs == 10 and cfg.seed == 7 and cfg.output_dir == "x"

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_config("fig99")

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            make_config("fig7", bogus=1)

    def test_validation_rejects_short_cp(self):
        cfg = make_config("fig7", cp_length=10)
        with pytest.raises(ValueError, match="does not cover"):
            cfg.validated()

    def test_validation_rejects_unknown_profile(self):
        cfg = make_config("fig7", profile="نothing")
        with pytest.raises(ValueError, match="unknown profile"):
            cfg.validated()

    @pytest.mark.parametrize("scenario", ["table1", "loopback"])
    @pytest.mark.parametrize("mode", ["exact-fold", "literal-triangular"])
    def test_mode_override_rejected_where_ignored(self, scenario, mode):
        with pytest.raises(ValueError, match="takes no mode"):
            make_config(scenario, mode=mode)

    def test_infinite_snr_maps_to_noiseless(self):
        cfg = make_config("loopback", snr_db=math.inf)
        assert cfg.snr is None
        assert make_config("loopback", snr_db=-math.inf).snr.rho == 0.0

    @pytest.mark.parametrize("snr_db", [-math.inf, math.nan])
    def test_validation_rejects_snr_without_signal_or_value(self, snr_db):
        cfg = make_config("loopback", snr_db=snr_db)
        with pytest.raises(ValueError, match="snr_db must be"):
            cfg.validated()

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "# demo\nscenario = fig9\nnum_runs = 5\nsnr_db = 12.5\nprofile = epa\n"
        )
        values = load_config_file(path)
        assert values == {"scenario": "fig9", "num_runs": 5, "snr_db": 12.5, "profile": "epa"}

    def test_config_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("volume = 11\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config_file(path)

    def test_custom_profile_file(self, tmp_path):
        profile = tmp_path / "two_tap.profile"
        profile.write_text("delays_ns = 0, 65\npowers_db = 0, -3\n")
        cfg = make_config(
            "fig9", profile=str(profile), num_runs=2, cp_length=8, output_dir=str(tmp_path)
        )
        paths = run_scenario(cfg)
        assert paths["runs"].exists()


class TestScenarios:
    def test_fig7_outputs(self, tmp_path):
        cfg = make_config("fig7", num_runs=12, output_dir=str(tmp_path))
        paths = run_scenario(cfg)
        runs = paths["runs"].read_text().splitlines()
        assert runs[0] == "run_id,slice_path,slice_size,mi_bits,decode_ops"
        assert len(runs) == 1 + 12 * 2  # two slices per run at depth 1
        cdf_lines = paths["cdf"].read_text().splitlines()
        curves = {line.split(",")[0] for line in cdf_lines[1:]}
        assert curves == {"positive", "negative", "half_total"}
        summary = paths["summary"].read_text()
        assert "total_decode_ops=22528" in summary
        residual = float(summary.split("max_conservation_residual_rel=")[1].splitlines()[0])
        assert residual < 1e-9
        mean_gap = float(summary.split("mean_branch_gap_rel=")[1].splitlines()[0])
        assert mean_gap < 0.01

    def test_fig8_reports_deepest_pair(self, tmp_path):
        cfg = make_config("fig8", num_runs=6, output_dir=str(tmp_path))
        paths = run_scenario(cfg)
        cdf_lines = paths["cdf"].read_text().splitlines()
        curves = {line.split(",")[0] for line in cdf_lines[1:]}
        assert curves == {"deepest_positive", "deepest_negative", "half_parent"}
        runs = paths["runs"].read_text().splitlines()
        assert len(runs) == 1 + 6 * 12  # 12 slices per run at depth 11

    def test_fig9_summary_levels(self, tmp_path):
        cfg = make_config("fig9", num_runs=8, output_dir=str(tmp_path))
        paths = run_scenario(cfg)
        summary = paths["summary"].read_text()
        assert "non_uniform=True uniform_floor=16" in summary
        level_lines = [l for l in summary.splitlines() if l and l[0].isdigit()]
        assert len(level_lines) == 7  # one per split level

    def test_fig4_emits_reference_op_count(self, tmp_path):
        cfg = make_config("fig4", output_dir=str(tmp_path))
        paths = run_scenario(cfg)
        summary = paths["summary"].read_text()
        assert "total_decode_ops=22528" in summary
        report = paths["report"].read_text().splitlines()
        assert report[0] == "level,path,size,mode,mi_bits,parent_residual"
        assert len(report) == 1 + 4

    def test_table1_cost_row(self, tmp_path):
        cfg = make_config("table1", output_dir=str(tmp_path))
        paths = run_scenario(cfg)
        summary = paths["summary"].read_text()
        assert "decode_cost_row=1152,512,224,96,40,16,6,2/1" in summary
        assert "continuation_root_size=256" in summary

    def test_loopback_noiseless_is_exact(self, tmp_path):
        cfg = make_config(
            "loopback", snr_db=math.inf, num_runs=3, n_fft=256, cp_length=32,
            profile="epa", delta_f_hz=240e3, depth=2, output_dir=str(tmp_path),
        )
        paths = run_scenario(cfg)
        rows = paths["runs"].read_text().splitlines()[1:]
        assert len(rows) == 3 * 3
        for row in rows:
            _, _, evm, errors = row.split(",")
            assert float(evm) < 1e-8
            assert errors == "0"

    def test_loopback_finite_snr_reports_evm(self, tmp_path):
        cfg = make_config("loopback", num_runs=2, output_dir=str(tmp_path))
        paths = run_scenario(cfg)
        rows = paths["runs"].read_text().splitlines()[1:]
        evms = [float(r.split(",")[2]) for r in rows]
        assert all(e > 1e-6 for e in evms)

    def test_loopback_muted_slice_sits_at_noise_floor(self, tmp_path):
        # Not a CLI path: mute one slice by hand and check its received power.
        from physlice.channel import ChannelImpulseResponse
        from physlice.sliceplan import build_plan
        from physlice.txrx import SlicePayload, modulate, propagate, receive, transmit

        rng = np.random.default_rng(23)
        plan = build_plan(256, 2, 40, channel_length=13)
        taps = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        cir = ChannelImpulseResponse(taps / np.linalg.norm(taps), 1.0)
        bits = rng.integers(0, 2, 512)
        payload = modulate(bits, plan)
        muted = list(payload.symbols)
        muted[0] = np.zeros_like(muted[0])
        rho = 10.0 ** 3  # 30 dB
        frame = transmit(SlicePayload(symbols=tuple(muted)), plan)
        estimate = receive(propagate(frame, cir, snr=rho, rng=rng), plan, cir)
        # The muted slice should carry roughly noise-level power, far below
        # the unit symbol power of the live slices.
        muted_power = np.mean(np.abs(estimate.symbols[0]) ** 2)
        live_power = np.mean(np.abs(estimate.symbols[1]) ** 2)
        assert muted_power < 0.05 * live_power

    @pytest.mark.parametrize("n_fft,num_runs", [(2048, 9), (256, 70)])
    def test_loopback_chunks_equal_a_serial_single_frame_replay(self, tmp_path, n_fft, num_runs):
        from physlice.channel import sample_cir
        from physlice.sliceplan import build_plan
        from physlice.txrx import modulate, nearest_symbols, propagate, receive, transmit

        # Neither run count is a multiple of the chunk (4 at N=2048, 32 at N=256).
        cfg = make_config("loopback", n_fft=n_fft, cp_length=32 if n_fft == 256 else 169, num_runs=num_runs, seed=11)
        profile = cfg.resolve_profile()
        plan = build_plan(cfg.n_fft, cfg.depth, cfg.cp_length)
        lines = ["run_id,slice_path,evm,symbol_errors"]
        for run_id in range(num_runs):
            rng = np.random.default_rng([cfg.seed, run_id])
            cir = sample_cir(profile, cfg.sample_period_ns, rng)
            payload = modulate(rng.integers(0, 2, size=2 * n_fft), plan)
            estimate = receive(propagate(transmit(payload, plan), cir, snr=cfg.snr, rng=rng), plan, cir)
            for desc, sent, got in zip(plan.slices, payload.symbols, estimate.symbols):
                evm = float(np.sqrt(np.mean(np.abs(got - sent) ** 2) / np.mean(np.abs(sent) ** 2)))
                errors = int(np.count_nonzero(nearest_symbols(got) != sent))
                lines.append(f"{run_id},{desc.path},{evm:.12g},{errors}")
        replay = ("\n".join(lines) + "\n").encode()
        for workers in (1, 2, 8):
            out = tmp_path / f"w{workers}"
            paths = run_scenario(
                make_config(
                    "loopback", n_fft=n_fft, cp_length=cfg.cp_length, num_runs=num_runs,
                    seed=11, workers=workers, output_dir=str(out),
                )
            )
            assert paths["runs"].read_bytes() == replay
            assert paths["summary"].read_bytes() == (tmp_path / "w1" / "loopback_summary.txt").read_bytes()

    def test_deterministic_across_worker_counts(self, tmp_path):
        out1 = tmp_path / "w1"
        out8 = tmp_path / "w8"
        for out, workers in ((out1, 1), (out8, 8)):
            cfg = make_config("fig7", num_runs=16, workers=workers, output_dir=str(out))
            run_scenario(cfg)
        assert (out1 / "fig7_runs.csv").read_bytes() == (out8 / "fig7_runs.csv").read_bytes()
        assert (out1 / "fig7_cdf.csv").read_bytes() == (out8 / "fig7_cdf.csv").read_bytes()
        assert (out1 / "fig7_summary.txt").read_bytes() == (out8 / "fig7_summary.txt").read_bytes()


class TestCli:
    def test_scenario_run(self, tmp_path, capsys):
        code = cli_main(
            ["--scenario", "fig9", "--runs", "3", "--out", str(tmp_path), "--seed", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "runs:" in out and "elapsed_s:" in out
        assert (tmp_path / "fig9_runs.csv").exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        conf = tmp_path / "job.conf"
        conf.write_text(f"scenario = fig9\nnum_runs = 2\noutput_dir = {tmp_path}\n")
        code = cli_main(["--config", str(conf), "--runs", "4"])
        assert code == 0
        rows = (tmp_path / "fig9_runs.csv").read_text().splitlines()[1:]
        assert len(rows) == 4 * 8  # flag override wins over the file

    def test_bad_config_is_reported(self, capsys):
        code = cli_main(["--scenario", "fig7", "--cp", "3"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_mode_on_loopback_is_reported(self, tmp_path, capsys):
        code = cli_main(["--scenario", "loopback", "--mode", "literal-triangular", "--out", str(tmp_path)])
        assert code == 2
        assert "takes no mode" in capsys.readouterr().err
        assert not (tmp_path / "loopback_runs.csv").exists()

    def test_loopback_without_signal_is_reported(self, tmp_path, capsys):
        code = cli_main(["--scenario", "loopback", "--snr-db=-inf", "--runs", "2", "--out", str(tmp_path)])
        assert code == 2
        assert "snr_db must be" in capsys.readouterr().err
        assert not (tmp_path / "loopback_runs.csv").exists()

    def test_literal_fig8_runs_at_full_frame_size(self, tmp_path, capsys):
        code = cli_main(
            ["--scenario", "fig8", "--mode", "literal-triangular", "--runs", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = (tmp_path / "fig8_runs.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * 12

    def test_missing_scenario_is_reported(self, capsys):
        code = cli_main([])
        assert code == 2
        assert "no scenario" in capsys.readouterr().err

    def test_env_var_default_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PHYSLICE_OUT", str(tmp_path / "envout"))
        code = cli_main(["--scenario", "fig9", "--runs", "2"])
        assert code == 0
        assert (tmp_path / "envout" / "fig9_runs.csv").exists()
