import csv
import dataclasses
import io
import math
import os
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physlice import experiments
from physlice.cli import main as cli_main
from physlice.experiments import (
    PRESETS,
    ExperimentConfig,
    load_config_file,
    make_config,
    run_scenario,
)
from physlice.mi import _SCRATCH_SAMPLE_BYTES, _scratch
from physlice.sliceplan import build_plan
from physlice.txrx import _QPSK, _LinkBuffers, _propagate_into, _receive_into, _unitary_idft

from oracles import cdf_quantile, cdf_text, link_rows, loopback_statistics, mi_rows, report_text, scaled_receive


def link_chunk(n_fft: int) -> int:
    """Frames per chunk of the loopback link at ``n_fft``."""
    return experiments._chunk_runs(n_fft, _LinkBuffers.sample_bytes, experiments._LINK_CHUNK_BYTES)


def mi_chunk(n_fft: int) -> int:
    """Runs per chunk of the MI engine at ``n_fft``."""
    return experiments._chunk_runs(n_fft, _SCRATCH_SAMPLE_BYTES, experiments._MI_CHUNK_BYTES)


def loopback_replay(cfg) -> bytes:
    """The loopback runs file, one frame at a time from each run's
    ``default_rng([seed, run_id])`` stream through the public link calls."""
    from physlice.channel import sample_cir
    from physlice.sliceplan import build_plan
    from physlice.txrx import modulate, nearest_symbols, propagate, receive, transmit

    profile = cfg.resolve_profile()
    plan = build_plan(cfg.n_fft, cfg.depth, cfg.cp_length)
    lines = ["run_id,slice_path,evm,symbol_errors"]
    for run_id in range(cfg.num_runs):
        rng = np.random.default_rng([cfg.seed, run_id])
        taps = sample_cir(profile, cfg.sample_period_ns, rng)
        payload = modulate(rng.integers(0, 2, size=2 * cfg.n_fft), plan)
        estimate = receive(propagate(transmit(payload, plan), taps, snr=cfg.snr, rng=rng), plan, taps)
        for desc, sent, got in zip(plan.slices, payload.symbols, estimate.symbols):
            evm = float(np.sqrt(np.mean(np.abs(got - sent) ** 2) / np.mean(np.abs(sent) ** 2)))
            errors = int(np.count_nonzero(nearest_symbols(got) != sent))
            lines.append(f"{run_id},{desc.path},{evm:.12g},{errors}")
    return ("\n".join(lines) + "\n").encode()


def mi_replay(cfg) -> tuple[list, bytes]:
    """Per-run chain MI (one ``split_report`` per run) from each run's
    ``default_rng([seed, run_id])`` stream, and the MI runs file they give."""
    from physlice.channel import sample_cir
    from physlice.mi import split_report
    from physlice.sliceplan import build_plan

    profile = cfg.resolve_profile()
    plan = build_plan(cfg.n_fft, cfg.depth, cfg.cp_length)
    reports = [
        split_report(
            sample_cir(profile, cfg.sample_period_ns, np.random.default_rng([cfg.seed, run_id])),
            cfg.n_fft, cfg.depth, cfg.snr, mode=cfg.mode,
        )
        for run_id in range(cfg.num_runs)
    ]
    lines = ["run_id,slice_path,slice_size,mi_bits,decode_ops"]
    for run_id, report in enumerate(reports):
        for desc, mi_bits in zip(plan.slices, report.slice_mi().tolist(), strict=True):
            lines.append(f"{run_id},{desc.path},{desc.size},{mi_bits:.12g},{desc.decode_ops}")
    return reports, ("\n".join(lines) + "\n").encode()


def traced_peak(tmp_path, scenario, num_runs, **overrides) -> int:
    """Peak traced memory of one scenario run, in bytes above what is held
    before it, after a 1-run warm-up."""
    import tracemalloc

    def run(runs):
        run_scenario(make_config(scenario, num_runs=runs, output_dir=str(tmp_path), **overrides))

    run(1)  # pays for the lazy imports and FFT plans
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run(num_runs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestCdf:
    """A cdf file plots the step empirical cdf of each curve: the k-th of its
    n sorted samples at k / n, whose quantiles ``oracles.cdf_quantile``
    takes."""

    def test_written_cdf_rises_strictly_to_one_over_the_sorted_samples(self):
        samples = np.random.default_rng(0).standard_normal(101)
        fh = io.StringIO()
        experiments._write_cdf(fh, {"c": samples})
        probs = [float(line.split(",")[2]) for line in fh.getvalue().splitlines()]
        assert probs[-1] == 1.0
        assert np.all(np.diff(probs) > 0)
        assert np.all(np.diff(samples) >= 0)

    def test_quantile_inverts_cdf(self):
        samples = [10.0, 20.0, 30.0, 40.0]
        assert cdf_quantile(samples, 0.25) == 10.0
        assert cdf_quantile(samples, 0.5) == 20.0
        assert cdf_quantile(samples, 1.0) == 40.0

    def test_quantile_does_not_round_k_over_n_up(self):
        # 0.28 * 25 is a hair above 7.
        fh = io.StringIO()
        experiments._write_cdf(fh, {"c": np.arange(25.0)})
        assert fh.getvalue().splitlines()[6] == "c,6,0.28"
        assert cdf_quantile(range(25), 0.28) == 6.0

    @given(st.integers(1, 300), st.data())
    def test_quantile_at_k_over_n_is_the_k_th_order_statistic(self, n, data):
        k = data.draw(st.integers(1, n))
        assert cdf_quantile(np.arange(n, dtype=float)[::-1], k / n) == k - 1


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

    @pytest.mark.parametrize("scenario", ["table1", "loopback"])
    def test_a_mode_on_a_directly_built_modeless_config_is_rejected(self, tmp_path, scenario):
        out = tmp_path / "out"
        cfg = ExperimentConfig(scenario=scenario, **PRESETS[scenario], mode="literal-triangular", output_dir=str(out))
        with pytest.raises(ValueError, match=f"scenario {scenario!r} takes no mode: it "):
            cfg.validated()
        with pytest.raises(ValueError, match="takes no mode"):
            run_scenario(cfg)
        assert not out.exists()

    def test_a_new_scenario_entry_needs_no_other_edit(self, tmp_path, monkeypatch):
        """A toy entry in the scenario table gets its rules checked, its
        files opened and headed, its runner called with the open files and
        its summary written."""

        def run_toy(config, plan, profile, taps, runs_csv, notes_csv):
            runs_csv.write("0\n")
            notes_csv.write(f"{taps}\n")
            return [f"scenario={config.scenario}", f"slices={len(plan.slices)}"]

        toy = experiments._Scenario(
            run_toy, dict(runs="run_id", notes="taps"), dict(PRESETS["fig4"], depth=2), modeless="it is a toy",
            one_run=True, min_depth=2, splits_further=True,
        )
        monkeypatch.setitem(experiments._SCENARIOS, "toy", toy)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="scenario 'toy' takes no mode: it is a toy"):
            make_config("toy", mode="exact-fold")
        rejected = [
            (dict(num_runs=2), "analyses one realization and needs num_runs = 1, got 2"),
            (dict(snr_db=math.inf), "computes mutual information and needs a finite snr_db"),
            (dict(depth=1), "needs depth >= 2, got 1"),
            (dict(depth=11), "splits the deepest positive slice further and needs depth < log2(n_fft) = 11, got 11"),
        ]
        for overrides, message in rejected:
            with pytest.raises(ValueError, match=re.escape(f"scenario 'toy' {message}")):
                run_scenario(make_config("toy", output_dir=str(out), **overrides))
        literal = ExperimentConfig(scenario="toy", **toy.preset, mode="literal-triangular", output_dir=str(out))
        with pytest.raises(ValueError, match="takes no mode"):
            run_scenario(literal)
        assert not out.exists()

        written = run_scenario(make_config("toy", output_dir=str(out)))
        assert [(key, path.name) for key, path in written.items()] == [
            ("runs", "toy_runs.csv"), ("notes", "toy_notes.csv"), ("summary", "toy_summary.txt")
        ]
        assert written["runs"].read_text() == "run_id\n0\n"
        assert written["notes"].read_text() == "taps\n155\n"
        assert written["summary"].read_text() == "scenario=toy\nslices=3\n"
        assert sorted(p.name for p in out.iterdir()) == ["toy_notes.csv", "toy_runs.csv", "toy_summary.txt"]

    @pytest.mark.parametrize("seed", [-1, -(2**32), 1.5])
    def test_validation_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        cfg = make_config("fig7", seed=seed)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            cfg.validated()

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("field", ["num_runs", "n_fft", "depth", "cp_length", "workers"])
    def test_validation_rejects_an_integer_field_of_another_type_before_the_output_directory(
        self, tmp_path, field, value
    ):
        out = tmp_path / "out"
        cfg = make_config("fig9", output_dir=str(out), **{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be a non-negative integer"):
            run_scenario(cfg)
        assert not out.exists()

    @pytest.mark.parametrize(
        "field,value,expected",
        [
            ("snr_db", "10", "a Python int or float"),
            ("delta_f_hz", True, "a Python int or float"),
            ("mode", 1, "a string"),
            # numpy scalars other than float64 are neither, whatever they hold.
            ("snr_db", np.int64(10), "a Python int or float"),
            ("snr_db", np.float32(10.0), "a Python int or float"),
            ("delta_f_hz", np.int64(15000), "a Python int or float"),
        ],
    )
    def test_validation_checks_number_and_string_fields_by_the_schema(self, field, value, expected):
        with pytest.raises(ValueError, match="^" + re.escape(f"{field} must be {expected}, got {value!r}")):
            make_config("fig9", **{field: value}).validated()

    def test_validation_rejects_an_empty_output_dir_before_making_a_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = make_config("fig9", num_runs=1, output_dir="")
        with pytest.raises(ValueError, match="^output_dir must name a directory, got ''$"):
            cfg.validated()
        with pytest.raises(ValueError, match="^output_dir must name a directory"):
            run_scenario(cfg)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["1e400", "-1e400"])
    @pytest.mark.parametrize("field", ["snr_db", "delta_f_hz"])
    def test_validation_rejects_an_int_beyond_the_float_range_before_the_output_directory(
        self, tmp_path, field, value
    ):
        out = tmp_path / "out"
        cfg = make_config("fig9", output_dir=str(out), **{field: value})
        message = f"^{field} must be a number within the float range, got an int of 1329 bits$"
        with pytest.raises(ValueError, match=message):
            cfg.validated()
        with pytest.raises(ValueError, match=message):
            run_scenario(cfg)
        assert not out.exists()

    def test_validation_bounds_the_run_count_by_one_run_id_word(self):
        assert make_config("fig7", num_runs=2**32).validated().num_runs == 2**32
        with pytest.raises(ValueError, match=r"num_runs must be at most 2\*\*32"):
            make_config("fig7", num_runs=2**32 + 1).validated()

    def test_validation_bounds_the_frame_size(self):
        # 2**20 samples at the ETU preset's 32.55 ns sample period, and a CP that covers its 155 taps.
        wide = dict(delta_f_hz=15e3 / 512, cp_length=169)
        assert make_config("loopback", n_fft=2**20, **wide).validated().n_fft == 2**20
        for n_fft in (2**21, 2**30, 2**64):
            message = f"n_fft must be a power of two from 2 to 2**20, got {n_fft}"
            with pytest.raises(ValueError, match=re.escape(message)):
                make_config("loopback", n_fft=n_fft, **wide).validated()

    @pytest.mark.parametrize("scenario", ["fig7", "fig9", "table1"])
    def test_validation_bounds_the_snr_of_an_mi_scenario(self, scenario):
        assert make_config(scenario, snr_db=3000).validated().snr_db == 3000
        assert make_config("loopback", snr_db=3080).validated().snr_db == 3080
        with pytest.raises(ValueError, match=f"snr_db 3080 is too large: scenario '{scenario}' computes mutual info"):
            make_config(scenario, snr_db=3080).validated()

    def test_numpy_integer_settings_run_as_python_ints(self, tmp_path):
        """numpy's fixed-width arithmetic would wrap np.int8(16) * 58 bytes."""
        settings = dict(n_fft=16, depth=2, cp_length=2, num_runs=3, seed=2)
        plain = run_scenario(make_config("loopback", output_dir=str(tmp_path / "plain"), **settings))
        kinds = (np.int8, np.uint8, np.int16, np.uint64, np.int64)
        as_numpy = {name: kind(value) for (name, value), kind in zip(settings.items(), kinds)}
        cfg = make_config("loopback", output_dir=str(tmp_path / "numpy"), **as_numpy)
        written = run_scenario(cfg)
        assert all(type(getattr(cfg, name)) is int for name in settings)
        for key, path in plain.items():
            assert written[key].read_bytes() == path.read_bytes(), key

    def test_infinite_snr_maps_to_noiseless(self):
        cfg = make_config("loopback", snr_db=math.inf)
        assert cfg.snr == math.inf
        assert make_config("loopback", snr_db=-math.inf).snr == 0.0

    @pytest.mark.parametrize("snr_db", [-math.inf, math.nan])
    def test_validation_rejects_snr_without_signal_or_value(self, snr_db):
        cfg = make_config("loopback", snr_db=snr_db)
        with pytest.raises(ValueError, match="snr_db must be"):
            cfg.validated()

    @pytest.mark.parametrize("delta_f_hz", [0.0, -15e3, math.nan, math.inf])
    def test_validation_rejects_a_spacing_that_is_not_positive_and_finite(self, delta_f_hz):
        cfg = make_config("fig7", delta_f_hz=delta_f_hz)
        with pytest.raises(ValueError, match="delta_f_hz must be a positive finite number"):
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

    def test_config_file_names_the_key_and_type_of_a_bad_value(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("scenario = fig9\nnum_runs = many\n")
        with pytest.raises(ValueError, match="config key 'num_runs' must be a non-negative integer, got 'many'"):
            load_config_file(path)

    def test_config_file_rejects_a_repeated_key(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("num_runs = 5\n# a second value below\nnum_runs = 6\n")
        with pytest.raises(ValueError, match="line 3: repeated config key 'num_runs'"):
            load_config_file(path)

    def test_custom_profile_file(self, tmp_path):
        profile = tmp_path / "two_tap.profile"
        profile.write_text("delays_ns = 0, 65\npowers_db = 0, -3\n")
        cfg = make_config(
            "fig9", profile=str(profile), num_runs=2, cp_length=8, output_dir=str(tmp_path)
        )
        paths = run_scenario(cfg)
        assert paths["runs"].exists()

    @pytest.mark.parametrize("scenario", sorted(PRESETS))
    def test_a_scenario_reads_its_profile_file_once(self, tmp_path, monkeypatch, scenario):
        import physlice.experiments as experiments

        reads = []
        load = experiments.load_profile
        monkeypatch.setattr(experiments, "load_profile", lambda path: reads.append(path) or load(path))
        profile = tmp_path / "two_tap.profile"
        profile.write_text("delays_ns = 0, 65\npowers_db = 0, -3\n")
        runs = min(2, PRESETS[scenario]["num_runs"])
        run_scenario(make_config(scenario, profile=str(profile), num_runs=runs, output_dir=str(tmp_path / "out")))
        assert reads == [str(profile)]

    @pytest.mark.parametrize("scenario", ["fig4", "table1"])
    @pytest.mark.parametrize("num_runs", [2, 500])
    def test_single_realization_scenarios_take_one_run(self, tmp_path, scenario, num_runs):
        out = tmp_path / "out"
        message = f"scenario {scenario!r} analyses one realization and needs num_runs = 1, got {num_runs}"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_scenario(make_config(scenario, num_runs=num_runs, output_dir=str(out)))
        assert not out.exists()


class TestScenarios:
    @pytest.mark.parametrize("scenario", sorted(PRESETS))
    def test_every_output_file_ends_its_lines_with_a_bare_newline(self, tmp_path, scenario):
        runs = min(2, PRESETS[scenario]["num_runs"])
        paths = run_scenario(make_config(scenario, num_runs=runs, output_dir=str(tmp_path)))
        for path in paths.values():
            data = path.read_bytes()
            assert b"\r" not in data and data.endswith(b"\n"), path.name

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
        from physlice.sliceplan import build_plan
        from physlice.txrx import SlicePayload, modulate, propagate, receive, transmit

        rng = np.random.default_rng(23)
        plan = build_plan(256, 2, 40, channel_length=13)
        taps = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        taps /= np.linalg.norm(taps)
        bits = rng.integers(0, 2, 512)
        payload = modulate(bits, plan)
        muted = payload.frames.copy()
        muted[: plan.slices[0].size] = 0
        rho = 10.0 ** 3  # 30 dB
        frame = transmit(SlicePayload(frames=muted, plan=plan), plan)
        estimate = receive(propagate(frame, taps, snr=rho, rng=rng), plan, taps)
        # The muted slice should carry roughly noise-level power, far below
        # the unit symbol power of the live slices.
        muted_power = np.mean(np.abs(estimate.symbols[0]) ** 2)
        live_power = np.mean(np.abs(estimate.symbols[1]) ** 2)
        assert muted_power < 0.05 * live_power

    # Each run count ends on a partial chunk, after a full one.
    @pytest.mark.parametrize("n_fft,num_runs", [(2048, link_chunk(2048) + 1), (256, link_chunk(256) + 6)])
    def test_loopback_chunks_equal_a_serial_single_frame_replay(self, tmp_path, n_fft, num_runs):
        cfg = make_config("loopback", n_fft=n_fft, cp_length=32 if n_fft == 256 else 169, num_runs=num_runs, seed=11)
        replay = loopback_replay(cfg)
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

    @pytest.mark.parametrize("mode", ["exact-fold", "literal-triangular"])
    # No run count is a multiple of the chunk: fig7 and fig8 (N = 2048) and
    # fig9 (N = 128) end on a partial chunk after a full one.
    @pytest.mark.parametrize(
        "scenario,num_runs",
        [
            ("fig7", mi_chunk(2048) + 9), ("fig7", 1), ("fig8", mi_chunk(2048) + 9), ("fig8", 1),
            ("fig9", mi_chunk(128) + 6), ("fig9", 1),
        ],
    )
    def test_mi_chunks_equal_a_per_run_report_replay(self, tmp_path, scenario, num_runs, mode):
        cfg = make_config(scenario, num_runs=num_runs, seed=7, mode=mode)
        reports, replay = mi_replay(cfg)
        residual = max(r.max_residual_rel() for r in reports)
        cdf = None
        if scenario != "fig9":
            level = 0 if scenario == "fig7" else -1
            names = ("positive", "negative", "half_total") if scenario == "fig7" else (
                "deepest_positive", "deepest_negative", "half_parent"
            )
            samples = (
                [float(r.positive[level]) for r in reports],
                [float(r.negative[level]) for r in reports],
                [float(r.parent[level]) / 2.0 for r in reports],
            )
            cdf = ["curve,x,cdf"] + [
                f"{name},{x:.12g},{(k + 1) / num_runs:.12g}"
                for name, values in zip(names, samples)
                for k, x in enumerate(sorted(values))
            ]
        for workers in (1, 2, 8):
            out = tmp_path / f"w{workers}"
            paths = run_scenario(
                make_config(scenario, num_runs=num_runs, seed=7, mode=mode, workers=workers, output_dir=str(out))
            )
            assert paths["runs"].read_bytes() == replay
            assert f"\nmax_conservation_residual_rel={residual:.12g}\n" in paths["summary"].read_text()
            if cdf is not None:
                assert paths["cdf"].read_text().splitlines() == cdf
            for path in paths.values():
                assert path.read_bytes() == (tmp_path / "w1" / path.name).read_bytes()

    @pytest.mark.parametrize(
        "scenario,mode,num_runs",
        [
            ("fig7", "exact-fold", 37),
            ("fig7", "literal-triangular", 37),
            ("fig8", "exact-fold", 37),
            ("fig8", "literal-triangular", 37),
            ("fig9", "literal-triangular", 70),
            # One run per chunk hashes the seed words _HASH_BLOCK_RUNS runs
            # at a time, so this many runs cross a hash block.
            ("fig9", "literal-triangular", experiments._HASH_BLOCK_RUNS + 6),
            ("loopback", None, 70),
        ],
    )
    def test_mi_files_do_not_depend_on_the_chunk_size(self, tmp_path, monkeypatch, scenario, mode, num_runs):
        cfg = dict(num_runs=num_runs, seed=3, mode=mode)
        chunked = run_scenario(make_config(scenario, output_dir=str(tmp_path / "chunked"), **cfg))
        monkeypatch.setattr(experiments, "_chunk_runs", lambda n_fft, sample_bytes, budget: 1)
        single = run_scenario(make_config(scenario, output_dir=str(tmp_path / "single"), **cfg))
        assert chunked.keys() == single.keys()
        for name, path in chunked.items():
            assert path.read_bytes() == single[name].read_bytes(), name

    @pytest.mark.parametrize("plan", ["link", "mi"])
    def test_each_buffer_plan_fills_its_own_chunk_budget(self, plan):
        sample_bytes, budget = {
            "link": (_LinkBuffers.sample_bytes, experiments._LINK_CHUNK_BYTES),
            "mi": (_SCRATCH_SAMPLE_BYTES, experiments._MI_CHUNK_BYTES),
        }[plan]
        cap = experiments._MAX_CHUNK_RUNS
        # As many runs as the plan's budget holds, at least one and at most
        # the cap: a frame too large for the budget still takes one run.
        for e in range(1, 21):
            n = 1 << e
            runs = experiments._chunk_runs(n, sample_bytes, budget)
            assert 1 <= runs <= cap
            assert runs == 1 or runs * sample_bytes * n <= budget
            assert runs == cap or (runs + 1) * sample_bytes * n > budget
        assert experiments._chunk_runs(2, sample_bytes, budget) == cap
        assert experiments._chunk_runs(experiments._MAX_N_FFT, sample_bytes, budget) == 1

    @pytest.mark.parametrize(
        "size", [1, 3, mi_chunk(2048), experiments._MAX_CHUNK_RUNS, experiments._HASH_BLOCK_RUNS + 1]
    )
    def test_seed_words_are_hashed_in_blocks_of_whole_chunks(self, monkeypatch, size):
        """Each hash block but the last holds as many whole chunks as fit in
        _HASH_BLOCK_RUNS runs, or one chunk if it holds more, and the blocks
        cover the runs in order."""
        from physlice import _streams

        hashed, stream_words = [], _streams.stream_words

        def recorded(seed, run_ids):
            hashed.append(run_ids)
            return stream_words(seed, run_ids)

        monkeypatch.setattr(_streams, "stream_words", recorded)
        limit = max(experiments._HASH_BLOCK_RUNS, size)
        num_runs = 2 * limit + size + 1
        cfg = make_config("fig9", num_runs=num_runs, seed=5)
        _, profile, taps = experiments._setup(cfg)
        chunks = [runs for runs, _, _ in experiments._drawn_chunks(cfg, profile, taps, size)]
        assert [runs.stop - runs.start for runs in chunks[:-1]] == [size] * (len(chunks) - 1)
        assert [run for block in hashed for run in block] == list(range(num_runs))
        for block in hashed[:-1]:
            assert len(block) % size == 0 and len(block) <= limit < len(block) + size

    @pytest.mark.parametrize("rows,n", [(1, 2), (3, 16), (8, 2048), (1, 16384)])
    def test_buffer_plans_allocate_their_declared_bytes_per_sample(self, rows, n):
        link = _LinkBuffers(build_plan(n, 1, 1), 10.0, rows)
        assert sum(buffer.nbytes for buffer in link.buffers) == _LinkBuffers.sample_bytes * rows * n
        assert sum(buffer.nbytes for buffer in link.cut(1).buffers) == _LinkBuffers.sample_bytes * n
        assert sum(buffer.nbytes for buffer in _scratch((rows, n))) == _SCRATCH_SAMPLE_BYTES * rows * n

    @pytest.mark.parametrize("scenario", ["fig7", "loopback"])
    def test_multi_word_seed_is_identical_across_worker_counts(self, tmp_path, scenario):
        # 2**32 + 1 is two entropy words, so the run id is the third.
        seed = 2**32 + 1
        cfg = make_config(scenario, num_runs=9, seed=seed)
        replay = loopback_replay(cfg) if scenario == "loopback" else mi_replay(cfg)[1]
        for workers in (1, 2, 8):
            out = tmp_path / f"w{workers}"
            paths = run_scenario(make_config(scenario, num_runs=9, seed=seed, workers=workers, output_dir=str(out)))
            assert paths["runs"].read_bytes() == replay
            for path in paths.values():
                assert path.read_bytes() == (tmp_path / "w1" / path.name).read_bytes()

    def test_deterministic_across_worker_counts(self, tmp_path):
        out1 = tmp_path / "w1"
        out8 = tmp_path / "w8"
        for out, workers in ((out1, 1), (out8, 8)):
            cfg = make_config("fig7", num_runs=16, workers=workers, output_dir=str(out))
            run_scenario(cfg)
        assert (out1 / "fig7_runs.csv").read_bytes() == (out8 / "fig7_runs.csv").read_bytes()
        assert (out1 / "fig7_cdf.csv").read_bytes() == (out8 / "fig7_cdf.csv").read_bytes()
        assert (out1 / "fig7_summary.txt").read_bytes() == (out8 / "fig7_summary.txt").read_bytes()

    @pytest.mark.parametrize(
        "scenario,num_runs,overrides",
        [("fig9", 20000, {"mode": "literal-triangular"}), ("loopback", 4000, {})],
        ids=["fig9-literal", "loopback"],
    )
    def test_memory_grows_by_arrays_not_objects_per_run(self, tmp_path, scenario, num_runs, overrides):
        # A scenario keeps numpy arrays per run: 1 + 2 * depth floats of chain
        # MI (15 at depth 7) or an EVM and an error count per slice. A Python
        # object per run or a whole-run .tolist() costs well over the bound.
        assert traced_peak(tmp_path, scenario, num_runs, **overrides) / num_runs < 450

    @pytest.mark.parametrize(
        "scenario,num_runs,overrides,bound",
        [("fig9", 20000, {"mode": "literal-triangular"}, 200), ("loopback", 4000, {}, 350)],
        ids=["fig9-literal", "loopback"],
    )
    def test_seed_words_are_hashed_per_block_of_chunks(self, tmp_path, scenario, num_runs, overrides, bound):
        # Hashing the seed words of every run at once holds 32 B of words and
        # about 117 B of hash temporaries per run on top of the kept arrays.
        assert traced_peak(tmp_path, scenario, num_runs, **overrides) / num_runs < bound

    def test_fig8_keeps_only_the_columns_its_cdfs_read(self, tmp_path):
        # The runs' three (num_runs,) columns hold 24 B per run. Keeping every
        # run's chain MI at depth 11 would hold 184 B per run.
        assert traced_peak(tmp_path, "fig8", 20000) / 20000 < 120

    def test_fig7_cdfs_sort_the_kept_columns_in_place(self, tmp_path):
        # Past the chunk phase the peak is the three kept columns (24 B per
        # run) and the branch gaps' two temporaries (16 B). A sorted copy of
        # each column and its k / n would hold 48 B per run more.
        config = dict(n_fft=128, profile="epa", delta_f_hz=240e3, cp_length=16)
        assert traced_peak(tmp_path, "fig7", 40000, **config) / 40000 < 48

    def test_the_link_holds_its_declared_bytes_per_frame_sample(self, tmp_path):
        # One run at N = 16384 is one chunk of one frame. Its buffers hold
        # _LinkBuffers.sample_bytes per frame sample; the raw words of its bits
        # (8 B per sample), its taps and its files fit in one complex frame.
        n, link = 16384, _LinkBuffers.sample_bytes
        peak = traced_peak(tmp_path, "loopback", 1, n_fft=n, cp_length=1352)
        assert link * n < peak < (link + 16) * n


class TestDrawnChunks:
    @pytest.mark.parametrize("size", [1, 3])
    def test_each_run_draws_its_channel_first_from_its_own_stream(self, size):
        """One-run chunks cross a hash block of _HASH_BLOCK_RUNS runs, and
        three-run chunks end on a chunk of one. EPA at the fig9 preset puts
        two taps on one index."""
        from physlice.channel import draw_taps

        num_runs = 3 * (experiments._HASH_BLOCK_RUNS // 3 + 1) + 1
        cfg = make_config("fig9", num_runs=num_runs, seed=5)
        _, profile, taps = experiments._setup(cfg)
        next_run = 0
        for runs, rngs, chunk_taps in experiments._drawn_chunks(cfg, profile, taps, size):
            assert runs == slice(next_run, min(next_run + size, num_runs))
            assert len(rngs) == len(chunk_taps) == runs.stop - runs.start
            assert chunk_taps.shape[1] == taps
            for run, rng, row in zip(range(runs.start, runs.stop), rngs, chunk_taps):
                oracle = np.random.default_rng([cfg.seed, run])
                assert row.tobytes() == draw_taps(profile, cfg.sample_period_ns, [oracle])[0].tobytes()
                assert rng.bit_generator.state == oracle.bit_generator.state
                assert rng.standard_normal() == oracle.standard_normal()
            next_run = runs.stop
        assert next_run == num_runs

    def test_table1_folds_the_channel_of_run_0(self, tmp_path, monkeypatch):
        from physlice.channel import draw_taps

        folded = []
        real_positive_child = experiments.positive_child

        def positive_child(generator):
            folded.append(np.array(generator))
            return real_positive_child(generator)

        monkeypatch.setattr(experiments, "positive_child", positive_child)
        cfg = make_config("table1", seed=9, output_dir=str(tmp_path))
        run_scenario(cfg)
        # The first fold takes the taps zero-padded to the frame; one fold per level of the plan.
        generator = folded[0]
        assert [g.size for g in folded] == [cfg.n_fft >> level for level in range(cfg.depth)]
        want = draw_taps(cfg.resolve_profile(), cfg.sample_period_ns, [np.random.default_rng([9, 0])])[0]
        assert generator[: want.size].tobytes() == want.tobytes()
        assert not generator[want.size :].any()


class TestOutputFiles:
    # Each scenario first with a config that writes longer files, then with
    # fewer runs or, where it takes one run, a plan that reports fewer rows.
    @pytest.mark.parametrize(
        "scenario,first,second",
        [
            ("fig4", {"depth": 4}, {}),
            ("fig7", {"num_runs": 5}, {"num_runs": 3}),
            ("fig8", {"num_runs": 5}, {"num_runs": 3}),
            ("fig9", {"num_runs": 5}, {"num_runs": 3}),
            ("table1", {"depth": 2}, {}),
            ("loopback", {"num_runs": 5}, {"num_runs": 3}),
        ],
    )
    def test_a_rerun_writes_the_files_of_a_fresh_run(self, tmp_path, scenario, first, second):
        """A re-run over shorter and over longer files writes over each in
        place (its inode stays) and leaves the bytes of a fresh run."""
        for label, old, new in (("shorter", first, second), ("longer", second, first)):
            out = tmp_path / label
            written = run_scenario(make_config(scenario, output_dir=str(out), **old))
            inodes = {name: path.stat().st_ino for name, path in written.items()}
            rerun = run_scenario(make_config(scenario, output_dir=str(out), **new))
            fresh = run_scenario(make_config(scenario, output_dir=str(tmp_path / f"fresh-{label}"), **new))
            assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in fresh.values())
            for name, path in fresh.items():
                assert rerun[name].read_bytes() == path.read_bytes(), (label, name)
                assert rerun[name].stat().st_ino == inodes[name], (label, name)

    def test_an_interrupted_rerun_leaves_no_stale_tail(self, tmp_path, monkeypatch):
        """A re-run that fails in its second chunk, over the longer files of
        a finished run, still closes its files: each keeps its inode, the
        runs CSV holds the rows written before the error and the summary,
        written after the runs, is empty. An interrupted run into a new
        directory leaves the same bytes, file for file."""
        old = run_scenario(make_config("fig9", num_runs=9, output_dir=str(tmp_path / "out")))
        inodes = {path.name: path.stat().st_ino for path in old.values()}
        full = run_scenario(make_config("fig9", num_runs=5, output_dir=str(tmp_path / "full")))["runs"].read_bytes()
        monkeypatch.setattr(experiments, "_chunk_runs", lambda n_fft, sample_bytes, budget: 2)
        kernel, calls = experiments._chain_levels_into, []

        def fail_second_chunk(*args):
            calls.append(None)
            if len(calls) % 2 == 0:
                raise RuntimeError("interrupted")
            kernel(*args)

        monkeypatch.setattr(experiments, "_chain_levels_into", fail_second_chunk)
        for name in ("out", "new"):
            with pytest.raises(RuntimeError, match="interrupted"):
                run_scenario(make_config("fig9", num_runs=5, output_dir=str(tmp_path / name)))
        left = {name: {path.name: path.read_bytes() for path in (tmp_path / name).iterdir()} for name in ("out", "new")}
        assert left["out"] == left["new"]
        assert {path.name: path.stat().st_ino for path in (tmp_path / "out").iterdir()} == inodes
        cut = left["out"]["fig9_runs.csv"]
        # The header and the rows of the first chunk's two runs, whole.
        assert {line.split(b",")[0] for line in cut.splitlines()[1:]} == {b"0", b"1"}
        assert full.startswith(cut) and full[len(cut) :].startswith(b"2,")
        assert left["out"]["fig9_summary.txt"] == b""

    def test_an_existing_output_is_replaced_by_a_new_file(self, tmp_path):
        out, kept = tmp_path / "out", tmp_path / "kept"
        kept.mkdir()
        paths = run_scenario(make_config("fig9", num_runs=3, output_dir=str(out)))
        old = {}
        for path in paths.values():
            # A hard link keeps the old inode alive, so its number is not reused.
            os.link(path, kept / path.name)
            old[path.name] = (path.stat().st_ino, path.read_bytes())
        paths["summary"].chmod(0o444)
        paths = run_scenario(make_config("fig9", num_runs=2, output_dir=str(out)))
        for path in paths.values():
            ino, data = old[path.name]
            assert path.stat().st_ino != ino, path.name
            assert (kept / path.name).read_bytes() == data != path.read_bytes(), path.name

    def test_a_read_only_output_is_replaced_by_a_new_file(self, tmp_path):
        """A read-only file with one link is replaced, not written over, even
        for root, whose open of it succeeds."""
        summary = run_scenario(make_config("fig9", num_runs=3, output_dir=str(tmp_path)))["summary"]
        summary.chmod(0o444)
        # The open descriptor keeps the old inode alive, so its number is not reused.
        with summary.open("rb") as held:
            data = held.read()
            run_scenario(make_config("fig9", num_runs=2, output_dir=str(tmp_path)))
            assert os.fstat(held.fileno()).st_nlink == 0
            assert summary.stat().st_ino != os.fstat(held.fileno()).st_ino
            held.seek(0)
            assert held.read() == data != summary.read_bytes()

    def test_an_output_linked_to_a_device_is_written_without_a_truncate(self, tmp_path):
        paths = run_scenario(make_config("fig9", num_runs=2, output_dir=str(tmp_path)))
        for path in paths.values():
            path.unlink()
            path.symlink_to(os.devnull)
        run_scenario(make_config("fig9", num_runs=3, output_dir=str(tmp_path)))
        for path in paths.values():
            assert path.is_symlink() and path.readlink() == Path(os.devnull), path.name

    def test_a_symlink_at_an_output_is_written_through(self, tmp_path):
        out, target = tmp_path / "out", tmp_path / "elsewhere" / "runs.csv"
        target.parent.mkdir()
        target.write_bytes(b"a stale file, longer than the new one\n" * 40)
        out.mkdir()
        (out / "fig9_runs.csv").symlink_to(target)
        run_scenario(make_config("fig9", num_runs=3, output_dir=str(out)))
        fresh = run_scenario(make_config("fig9", num_runs=3, output_dir=str(tmp_path / "fresh")))
        assert (out / "fig9_runs.csv").is_symlink()
        assert (out / "fig9_runs.csv").readlink() == target
        assert target.read_bytes() == fresh["runs"].read_bytes()

    def test_a_directory_at_an_output_path_is_reported(self, tmp_path, capsys):
        (tmp_path / "fig9_summary.txt").mkdir()
        assert cli_main(["--scenario", "fig9", "--runs", "2", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / "fig9_summary.txt") in err


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

    @pytest.mark.parametrize("scenario", sorted(PRESETS))
    @pytest.mark.parametrize("snr_db,message", [("4000", "is too large"), ("-4000", "is too small")])
    def test_snr_beyond_the_float_range_is_reported(self, tmp_path, capsys, scenario, snr_db, message):
        out = tmp_path / "out"
        code = cli_main(["--scenario", scenario, f"--snr-db={snr_db}", "--out", str(out)])
        assert code == 2
        assert f"snr_db {float(snr_db)} {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("snr_db", ["-3050", "-3090"])
    def test_loopback_whose_evm_overflows_a_float_is_reported(self, tmp_path, capsys, snr_db):
        """The SNR passes the schema, but the noise after the equalizer
        overflows the EVM: inf at -3050 dB, nan at -3090 dB. The floor of
        these two runs is about -3037 dB. The error is all the run prints:
        numpy's overflow warnings stay off, and the suite's
        ``error::RuntimeWarning`` filter would fail the run on one. The runs
        CSV keeps its header and the summary is empty."""
        out = tmp_path / "out"
        code = cli_main(["--scenario", "loopback", f"--snr-db={snr_db}", "--runs", "2", "--out", str(out)])
        assert code == 2
        message = f"snr_db {float(snr_db)} is too small: the link's EVM overflows a float"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert (out / "loopback_runs.csv").read_text() == "run_id,slice_path,evm,symbol_errors\n"
        assert (out / "loopback_summary.txt").read_bytes() == b""

    @pytest.mark.parametrize("scenario,snr_db", [("loopback", "-3030"), ("fig9", "-3090")])
    def test_an_snr_above_the_link_floor_or_of_an_mi_scenario_writes_finite_figures(
        self, tmp_path, capsys, scenario, snr_db
    ):
        out = tmp_path / "out"
        assert cli_main(["--scenario", scenario, f"--snr-db={snr_db}", "--runs", "2", "--out", str(out)]) == 0
        cells = [row.split(",")[2:] for row in (out / f"{scenario}_runs.csv").read_text().splitlines()[1:]]
        assert cells and np.isfinite(np.array(cells, dtype=float)).all()

    def test_fig7_at_a_subnormal_snr_counts_absolute_branch_gaps(self, tmp_path):
        """At -3200 dB rho is subnormal and every MI is 0, so a relative gap would be 0 / 0."""
        out = tmp_path / "out"
        assert cli_main(["--scenario", "fig7", "--snr-db=-3200", "--runs", "2", "--out", str(out)]) == 0
        summary = (out / "fig7_summary.txt").read_text()
        assert "mean_branch_gap_rel=0\n" in summary and "max_branch_gap_rel=0\n" in summary

    @pytest.mark.parametrize("delta_f", ["nan", "inf"])
    def test_non_finite_spacing_is_reported(self, tmp_path, capsys, delta_f):
        code = cli_main(["--scenario", "fig9", "--delta-f", delta_f, "--runs", "2", "--out", str(tmp_path)])
        assert code == 2
        assert "delta_f_hz must be a positive finite number" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("scenario", sorted(PRESETS))
    def test_only_the_link_runs_noiseless(self, tmp_path, capsys, scenario):
        out = tmp_path / "out"
        code = cli_main(["--scenario", scenario, "--snr-db", "inf", "--runs", "2", "--out", str(out)])
        if scenario == "loopback":
            assert code == 0
            assert (out / "loopback_runs.csv").exists()
        else:
            assert code == 2
            message = f"scenario {scenario!r} computes mutual information and needs a finite snr_db"
            assert message in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--scenario", "loopback", "--cp", "5000"], "cyclic prefix (5000) longer than the frame (2048)"),
            (
                ["--scenario", "fig9", "--profile", "etu", "--cp", "169"],
                "cyclic prefix (169) longer than the frame (128)",
            ),
        ],
    )
    def test_cyclic_prefix_longer_than_the_frame_is_reported(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        code = cli_main(flags + ["--runs", "2", "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_literal_fig8_runs_at_full_frame_size(self, tmp_path, capsys):
        code = cli_main(
            ["--scenario", "fig8", "--mode", "literal-triangular", "--runs", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = (tmp_path / "fig8_runs.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * 12

    @pytest.mark.parametrize(
        "flags,log_n",
        [
            (["--depth", "11"], 11),
            (["--depth", "12"], 11),
            (["--n-fft", "128", "--profile", "epa", "--delta-f", "240e3", "--cp", "16", "--depth", "7"], 7),
        ],
    )
    def test_table1_with_no_slice_left_to_split_is_reported(self, tmp_path, capsys, flags, log_n):
        out = tmp_path / "out"
        code = cli_main(["--scenario", "table1", *flags, "--out", str(out)])
        assert code == 2
        assert f"needs depth < log2(n_fft) = {log_n}, got {flags[-1]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["fig7", "fig8"])
    def test_split_plot_without_a_split_is_reported(self, tmp_path, capsys, scenario):
        code = cli_main(["--scenario", scenario, "--depth", "0", "--runs", "2", "--out", str(tmp_path)])
        assert code == 2
        assert "needs depth >= 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flag,message",
        [
            ("--seed=-1", "seed must be a non-negative integer"),
            ("--runs=4294967297", "num_runs must be at most"),
            ("--runs=0", "num_runs must be at least 1"),
        ],
    )
    def test_seed_and_run_count_beyond_the_run_streams_are_reported(self, tmp_path, capsys, flag, message):
        out = tmp_path / "out"
        code = cli_main(["--scenario", "fig7", flag, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_scenario_flag_wins_over_the_config_file(self, tmp_path, capsys):
        conf = tmp_path / "job.conf"
        conf.write_text("scenario = fig7\nnum_runs = 2\n")
        code = cli_main(["--scenario", "fig9", "--config", str(conf), "--out", str(tmp_path / "out")])
        assert code == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["fig9_runs.csv", "fig9_summary.txt"]

    @pytest.mark.parametrize("scenario", ["fig4", "table1"])
    def test_single_realization_scenario_rejects_a_run_count(self, tmp_path, capsys, scenario):
        out = tmp_path / "out"
        code = cli_main(["--scenario", scenario, "--runs", "500", "--out", str(out)])
        assert code == 2
        message = f"scenario {scenario!r} analyses one realization and needs num_runs = 1, got 500"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_scenario_is_reported(self, capsys):
        code = cli_main([])
        assert code == 2
        assert "no scenario" in capsys.readouterr().err

    def test_env_var_default_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PHYSLICE_OUT", str(tmp_path / "envout"))
        code = cli_main(["--scenario", "fig9", "--runs", "2"])
        assert code == 0
        assert (tmp_path / "envout" / "fig9_runs.csv").exists()

    @pytest.mark.parametrize("flags,env", [([], ""), (["--out", ""], None)], ids=["empty-env", "empty-out"])
    def test_an_empty_output_dir_is_reported_and_nothing_is_written(self, tmp_path, monkeypatch, capsys, flags, env):
        monkeypatch.chdir(tmp_path)
        if env is None:
            monkeypatch.delenv("PHYSLICE_OUT", raising=False)
        else:
            monkeypatch.setenv("PHYSLICE_OUT", env)
        code = cli_main(["--scenario", "fig9", "--runs", "2", *flags])
        assert code == 2
        assert "output_dir must name a directory, got ''" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


# SHA-256 of every file that a scenario writes, by CLI flags on top of the
# preset. Pinned so that a change to how a scenario is computed or formatted
# cannot alter a single output byte. The fig7, fig8 and fig9 entries cover
# both modes, the fig7 gap and fig9 mean summary lines, a depth-0 chain and
# run counts that end on a partial chunk.
GOLDEN_DIGESTS = [
    ("fig4", "", {
        "fig4_report.csv": "977dceb03a5d5a150bd2979f0c05e767a9393cc5f086e5d9a8cdc160e6505b09",
        "fig4_runs.csv": "eef8c21194ceddf0987d52c0b9dfca34649f5bcfd576cfa713a6138cd990156a",
        "fig4_summary.txt": "cbf4552c348ca6403430edcf00bc5166bf7db379355ef85ca945cef56044da40",
    }),
    ("fig4", "--seed 5", {
        "fig4_report.csv": "76e58548b460646c9c12ae0ff37c0e9896356bfef2b22bc8857d5b301795b120",
        "fig4_runs.csv": "9706e233783a3759a08f502d1c6d99d96b6cd796565ec5ea91bde7f9a8a6b1f3",
        "fig4_summary.txt": "7ea2c9c4314697834ebd94839b8fb4777097fcf93a5af5c9797087511906f69e",
    }),
    ("fig4", "--seed 4294967297", {
        "fig4_report.csv": "6e71a28e38e6c250dedcedac4f74131f05cc16be5d3e37cc77f9376a51e86063",
        "fig4_runs.csv": "4abd7b08dd115a9016ff658bdd147fea684d5dbeaf4d3d4b92eb0748070dfed4",
        "fig4_summary.txt": "5e84ea52483fd7c65ecb0dec104c53acd9539e840c7dc6dbd31ce5ee29b526fe",
    }),
    ("fig4", "--depth 5", {
        "fig4_report.csv": "447f7a3c61e5b0f5e885f4f43038450d03fe8b690381a0ccd0ca2c653def82d1",
        "fig4_runs.csv": "736399b33463506eeab74583f920c73a5aa3f5c0897d479c86e880cc6bbf0019",
        "fig4_summary.txt": "152d5600c0b070d1c74cc49d968bbb1cf407db0b7241d649308f9258cddd57aa",
    }),
    ("fig4", "--snr-db 25 --depth 6", {
        "fig4_report.csv": "1829166ae80cce803a27c36026cf96600ce0ebefcd65990998cfd55578e68a97",
        "fig4_runs.csv": "7eee83c226e4273a20ae4730d874dc9af49c5bc7a454d3ffdddc2945a15a945b",
        "fig4_summary.txt": "75eeb79abdcc70cb9272dd472def5332a898a494714fbb042c7f4f3a6d3f8fe5",
    }),
    ("fig4", "--n-fft 128 --profile epa --delta-f 240e3 --cp 16 --depth 7", {
        "fig4_report.csv": "19b5ad5d413e167f96cbeef85a77e302ddf29a2e4b7318271c8640261c9209c2",
        "fig4_runs.csv": "ff3a469163541f8201034d936ebcd63067470bc494399aa4957ac501630ab327",
        "fig4_summary.txt": "280d44e3b29cf959f384b8dd309f76a72a3a6a5251cbeadd8e5629d9c4976f75",
    }),
    ("fig4", "--depth 0", {
        "fig4_report.csv": "fee7aab05fe05cf5512829f70707ce8e7b0002abb69e15907e2638f2b9ab0669",
        "fig4_runs.csv": "2ccd5561b4d0535c4a6c5a8e6f7b525c5906d5a6a6b5f40841df22b46f57cc77",
        "fig4_summary.txt": "9a1786263c02b5b311abc4683c100d5a9147e17c66d7bbd3548b6077132df88a",
    }),
    ("fig4", "--mode literal-triangular", {
        "fig4_report.csv": "eebca6d6bba2bf702abd4574a360ac1129441c885e62829371901e4574b9967e",
        "fig4_runs.csv": "eef8c21194ceddf0987d52c0b9dfca34649f5bcfd576cfa713a6138cd990156a",
        "fig4_summary.txt": "39dffce96a2e260f718d3eefaf44fa830fa88c473230c809523110c799a23388",
    }),
    ("table1", "", {
        "table1_report.csv": "9725f6d71439e3ed24b37c483f7a76abe9280a0f23213224a2749cc328b708cf",
        "table1_summary.txt": "a65d8af520412813e52276476a16a59e7d2930854099448b724294077cab5860",
    }),
    ("table1", "--seed 5", {
        "table1_report.csv": "48f831b13aa1c5178f0d9d1722b8c30c29cebc9bc14965972decb30de6a84100",
        "table1_summary.txt": "48760fd2347ca5bad4bf085b870f23e9e6578dbef99401afc7b93ad9be86879f",
    }),
    ("table1", "--seed 4294967297", {
        "table1_report.csv": "b411336325bb5f99158c24a15bc8b69e1b81dc5d99804a38bca0cc14d24fc976",
        "table1_summary.txt": "709a8b96e0946b8b6e5dcd2cfc6100ba4f3f68c10229fea46c8a243d82f5b375",
    }),
    ("table1", "--depth 5", {
        "table1_report.csv": "a2f43c731d4147ea86046ed53f1088e61fef942becf80841dfeb48ffa5c208dc",
        "table1_summary.txt": "5c0c36896ccc4d28258f0b478ffe81e4a5cd7218c90f42ee7d3537c2ec1f9ee0",
    }),
    ("table1", "--snr-db 25 --depth 6", {
        "table1_report.csv": "210195599335d97a5e89ed58319d37e95eacdc467ddfe88c1972e91544e1d02d",
        "table1_summary.txt": "b6ed75f77c3a3e885802a71e1de0e7d9b1b3ef779984c5cba704d1c2cf4b83f1",
    }),
    # The deepest plan at N = 128 that leaves table1 a slice to split: one
    # split of a size-2 continuation root.
    ("table1", "--n-fft 128 --profile epa --delta-f 240e3 --cp 16 --depth 6", {
        "table1_report.csv": "a53b0f5d4aa35ac8f590ca938e4a5a247bda0e5562441010570fa3515624ee45",
        "table1_summary.txt": "15fa796bcaab9e68029470dead0725fa83c27b6744d773f3e0ac02b451991c31",
    }),
    ("table1", "--depth 7", {
        "table1_report.csv": "47b811530dfdfb68c7f7f49fc5c01b135a3e80a8eb9d668251117ce9063e769e",
        "table1_summary.txt": "7cb5726b3d4d653db2ad0f36e5f3cbea3d8b21effde687a7d7781849e873a7f6",
    }),
    ("table1", "--snr-db -3", {
        "table1_report.csv": "ec9aa87f5a882a77eeba08729eef99e68cf22e78ff9004b529b6e233e280e170",
        "table1_summary.txt": "1b53359aaa7fde75f588dd83eafb10e2ade7daf735795f4eee6620a4cdcb0e63",
    }),
    ("fig7", "", {
        "fig7_cdf.csv": "cc9c56d5579b8ec759ea3b35032892004fa20ce7d883a1cdf7f245cd9ee2c069",
        "fig7_runs.csv": "8613c1dfe67d07ac8b5b9f6c87b3a7f6d1947582b7f708e49e2e9afdbe92c844",
        "fig7_summary.txt": "f691a9c5e5d074b76a1b2582cbe4a308f7e5167e0bf06fb810a2720fbda79582",
    }),
    ("fig7", "--runs 9 --seed 4294967297 --mode literal-triangular", {
        "fig7_cdf.csv": "26e33934b904d9001d990849fbb97f06af399c76c3b508c93d39dfeed9d8110b",
        "fig7_runs.csv": "bde57a9421d227da51ff570fbfdd1e010c83cf82bdf181d115e428bf49f3e0c7",
        "fig7_summary.txt": "3587848263abe8135144ac509588de6ab327fd1683bc84c5992f7f6859361774",
    }),
    # 1009 runs at N = 2048: one seed-hash block of 36 MI chunks of 28 runs
    # (1008 runs, at most _HASH_BLOCK_RUNS), then a block of one run.
    ("fig7", "--runs 1009", {
        "fig7_cdf.csv": "210fed7d293a78baf155eeeee25cbfe6f2f6b4712407e12bd63ad7236c4b3dc5",
        "fig7_runs.csv": "59037767ea2a20a297e540a4cfeff7104e961d7809860905d8a5283d68ac6b7e",
        "fig7_summary.txt": "61ee954b8f80510f9e065f3d20c15de87a262266625955d4cccc2d162f7208a0",
    }),
    # 1100 runs cross a 1024-row cdf block, a seed-hash block and 40 MI
    # chunks of 28 runs, the last one partial.
    ("fig7", "--runs 1100", {
        "fig7_cdf.csv": "f7e868192b4c7ef844ff27da0e9ee8933c439b0a99b70f4ed81e53acc3f1a302",
        "fig7_runs.csv": "df063f2f5aadf38d09d51ba59405f5eaa38948c8dcc19afb936fbdda38f3ae20",
        "fig7_summary.txt": "d292ac50dbd2a99970443b35cd849fe0a5758738e6757a430a3a1712d7e78446",
    }),
    # 1300 runs: 47 MI chunks, and a second seed-hash block cut short.
    ("fig7", "--runs 1300", {
        "fig7_cdf.csv": "0b5082ae426754b8cac5d1d92552d1aba65c715c3f386dd69b0070acfef1251e",
        "fig7_runs.csv": "961e22fb2cd39d0454397423308e733adeec9ad01c3c4537d78183632af75c4d",
        "fig7_summary.txt": "e163a52f2795e568c826e1d9592361aa5d0e54121ea9ffdd37259e6b8b9b1eb1",
    }),
    # fig7 at depth 3 still plots the first split of a deeper plan.
    ("fig7", "--depth 3 --runs 20", {
        "fig7_cdf.csv": "1302a8e7fe7ae7e8bfa250a84e297855ef73898d6dffc366a1b626738f9035bd",
        "fig7_runs.csv": "e0fe69ce9ec86e2ff934205407f14fd2d38dd55b912397ee0a4b671896bd1e64",
        "fig7_summary.txt": "924f07bb62ba749d48f00b18fa442f2fc7a24d28d6375faf3fd6a0329ad4b83b",
    }),
    ("fig8", "--runs 37", {
        "fig8_cdf.csv": "6ec1f6d489dfec78b35a0514e0d9994d9ad0fbb594694747b27a60a6f3e04680",
        "fig8_runs.csv": "cf593740dd73b9df6ef500b7ecf7411ead195ed566845d82816ec0089a83db72",
        "fig8_summary.txt": "c873cbd0ded5fcdf9be12e4aed02cca56fa0ea20f46381c12bc627445cea2d6d",
    }),
    # One chunk of 17 runs.
    ("fig8", "--runs 17", {
        "fig8_cdf.csv": "2e98d4d212a28cdcaff33e54e7ccd1004527fff89d3c053c86ddf03b6f8c3c3c",
        "fig8_runs.csv": "56814a7fbdb089bd7cf3b1cb3845bcf169d9b8574d04c0c6b1e8f286f04ab0c5",
        "fig8_summary.txt": "b2f45cb7c293f078fbaaa02c1dafb1ca1b449436803ae8bfb5d842948bfadf47",
    }),
    # One chunk of 20 runs, whose root FFT takes numpy's multi-row path.
    ("fig8", "--runs 20", {
        "fig8_cdf.csv": "1cf8af451f8307b2842fe2f48179a17f0dfb8ec06caaed01040ac7a7191fd0b1",
        "fig8_runs.csv": "836f6f631a0e6694b15f488b73ee660af1326ab9a4dbb2fd86c3c1442c396dcf",
        "fig8_summary.txt": "9b19ef4978f1bc3aa0d861803ee61d0b001801837ad144a4ee9b5e1e3f5bf3f6",
    }),
    # A chunk of 28 runs, the MI chunk at N = 2048 (_MI_CHUNK_BYTES), then a
    # chunk of one run, whose root FFT takes numpy's one-row path.
    ("fig8", "--runs 29", {
        "fig8_cdf.csv": "a6dd0001667d72e10811230b2be6c950b26d470052d9c50e23fdd8673124f398",
        "fig8_runs.csv": "6b192945faa71f42b84e71070f8c073d13f49057d632dbd18b5d55c095a980dd",
        "fig8_summary.txt": "7ea5abd90dc63ef556c788f8a560d4323269232e87437967b2fb597a3660872e",
    }),
    ("fig8", "--runs 37 --mode literal-triangular", {
        "fig8_cdf.csv": "60a26ff5d31c392f4d2e1b2bd4f3f1f351db55543e58ca9ed504ee79e9b7ec6e",
        "fig8_runs.csv": "99c436cad35325b74a7e1935f21d4cbebb1c7e242232fc034fa8fb9217c0b6f2",
        "fig8_summary.txt": "154a165eff75a7569e2894fb136db3abddbc86ebf6562315a22e8ae04f5e87e7",
    }),
    # 1025 runs: past one 1024-row cdf block, and past one seed-hash block of
    # 36 MI chunks (1008 runs) into a block of 17.
    ("fig8", "--runs 1025", {
        "fig8_cdf.csv": "7f52da93df5ed8f89bfbadd05fbc81e6e40cab9c5fb0575a9e0af88330ee371c",
        "fig8_runs.csv": "21817f4d78310610f7e7120b7a95341b5a9d765979c579e19f856d6af16590c7",
        "fig8_summary.txt": "0db2e548d89f225a91ed0b7f25462ad7e565fdc4bc8fb627d1eb7d4b0f2deb16",
    }),
    # fig8 below depth 11 plots the deepest split of a shallower plan.
    ("fig8", "--depth 4 --runs 20", {
        "fig8_cdf.csv": "98284c9d9a90a63673eba923c23af205ea3709e415a34890197dbe835ec2b776",
        "fig8_runs.csv": "d1e9fba3d73f8f6f97e7daad54ba184667330efa47d34513af0027ba14553452",
        "fig8_summary.txt": "c8b67877155de71c6ccef47754b4727af776106553088c972507f57737c00994",
    }),
    ("fig9", "", {
        "fig9_runs.csv": "29809da55ddc486ce61a707097424fe0d47ee7cba1770549ab103a93ba9f7dd5",
        "fig9_summary.txt": "db390783ba8c5011369e30f2e584f7d0ec903e7b7a61cb747d663b0375ccf3c9",
    }),
    # A chunk of 64 runs at N = 128 (the chunk cap), then a chunk of 6.
    ("fig9", "--mode literal-triangular --runs 70", {
        "fig9_runs.csv": "c3e0e8e065de0066dcb892d9a583f5c1681a8175011d1bdd095fab683e9c67d6",
        "fig9_summary.txt": "fd19e4c824907cb822392b1f0e1403ebab8a4a72ef5621a12f182173bcb2b1da",
    }),
    # 49 ETU taps outgrow half the 64-sample frame, so literal level 1 takes
    # its own FFT instead of the root's.
    ("fig9", "--mode literal-triangular --n-fft 64 --delta-f 150e3 --cp 64 --profile etu --depth 6 --runs 70", {
        "fig9_runs.csv": "e3939bd3826327cab269b02136da1466fecc9565673dfbcee66682b2e8eb6c5f",
        "fig9_summary.txt": "c9eec29cd612558eab41c9beb6822b739ba4d678efbd1ef690310f18983b86e9",
    }),
    # Five chunks, the last one partial, and per-level means over more than
    # the 128 runs where numpy's pairwise sum starts to recurse.
    ("fig9", "--mode literal-triangular --runs 300", {
        "fig9_runs.csv": "f02d6f5afdd8342696a9552296ac91ce3f3752e8ca4a2669cc1318c77f74e20a",
        "fig9_summary.txt": "233991952857d812a8e38ed3e45ec30f27454d612c959199d42c8021b3e2e301",
    }),
    # Depth 0: a chunk of 64 runs, then a chunk of one.
    ("fig9", "--depth 0 --runs 65", {
        "fig9_runs.csv": "5eb5549d1e6ddec1e549377c77238cc1064d571b2bd0f791a8ed1aa4ad0d5ec1",
        "fig9_summary.txt": "41f7384de2f4e465e3249f9435120ed4cea849c21abbb21430d581731d90d326",
    }),
    ("loopback", "", {
        "loopback_runs.csv": "09738de5f0c31a2dbde5502f457c322e1513dc36792fe0786cfc3a73716e1ddc",
        "loopback_summary.txt": "bd1fa0bd73694130167e8d1ebcd89b9dc31c7217b85535906beef07a1e155bf9",
    }),
    ("loopback", "--snr-db inf --runs 20", {
        "loopback_runs.csv": "074fed5167e70750ac9de38e0c521ded993c52013c79fdfcc900972233f68133",
        "loopback_summary.txt": "d48f4a2178345718a8cc5ec6f88bc372cf43477597f784a38c25d80aeeeb7b44",
    }),
    ("loopback", "--snr-db 5 --seed 4294967297 --runs 40", {
        "loopback_runs.csv": "6269ed7fc63665525750d1cbe7f0b989430a163c74619118074f4cdeea6a24c5",
        "loopback_summary.txt": "05d035db154bd5c718388eb4b4788ebf513e69a783354fe65cd9618e1a0b90b7",
    }),
    # Most hard decisions are wrong, and every slice down to size 1 counts
    # errors.
    ("loopback", "--snr-db -10 --depth 11 --runs 9", {
        "loopback_runs.csv": "bf4bf6ecc495c2a4c6103e2f79b18537a7deb39facf28c2e2023c41f20c4d3e4",
        "loopback_summary.txt": "0e86c12603e88a914d9e23b67279951ab05707a3f8575f5c53f8c2b876a22aa4",
    }),
    ("loopback", "--depth 0", {
        "loopback_runs.csv": "f0ffc5eae013f52e8050c8e0650333e2e9b88aa8fc26fb0b4bf03066ede1ca55",
        "loopback_summary.txt": "50562b63e46d260fd0f4a24f7e8e42079cefa4f8f77a53c81f656e7968de3b7f",
    }),
    ("loopback", "--depth 11 --runs 9", {
        "loopback_runs.csv": "4324d617af8638a30a46d2f22fd36b7a2c9db95f242443f9bc3cb5fcbd5f7372",
        "loopback_summary.txt": "cfefaa26602b18e582446dcc1ac82a10532a2604c5818f95cc4417c4f2e599ba",
    }),
    ("loopback", "--n-fft 256 --profile epa --cp 30 --runs 70", {
        "loopback_runs.csv": "02f981e48b0a47dc99fdccad4d763a6da49b85d97c479e4b811f46970a494296",
        "loopback_summary.txt": "dfdd2445acc16a00457138e13fd8929f5f1b684e6b106347ea2b77bc871f8a11",
    }),
    # N = 16: 18 chunks of at most 64 runs (the cap), the last one partial,
    # across a seed-hash block of 1024 runs.
    ("loopback", "--n-fft 16 --depth 4 --cp 2 --runs 1100", {
        "loopback_runs.csv": "e6cbac96c0cbf25bae414ca22ba74b28b551d4224311ace45af14d145a48015b",
        "loopback_summary.txt": "7b3250185e223809299d0d69b160cfdf8dee811bcf28ed3bd94541c6f52a804d",
    }),
    # N = 8192: a chunk of two frames, then the link buffers cut to one.
    ("loopback", "--n-fft 8192 --cp 700 --runs 3", {
        "loopback_runs.csv": "d39877edc38accce4ded02232d40ed4c50036628025107c4e91bafbc5fdf22cb",
        "loopback_summary.txt": "0408c3d52506a2b6a9282f6a30c0dbd70bc007a5d85f6b12516f245c84beed72",
    }),
    # N = 16384 at depth 14: chunks of one frame, never cut, with every slice
    # down to size 1.
    ("loopback", "--n-fft 16384 --cp 1352 --depth 14 --runs 2", {
        "loopback_runs.csv": "dd0ed03c0bb5a26f52e7f140deb702d7e6161b34523cc7aa6edd664d0f04be1e",
        "loopback_summary.txt": "deea7e5c206a5385090f78f87495f72c89f96edf253685fed75f74543ee49def",
    }),
    # N = 2: a chunk of 64 frames (the cap), then a cut to one, whose sign
    # flags take the smallest view of the raw words.
    ("loopback", "--n-fft 2 --depth 1 --cp 1 --runs 65", {
        "loopback_runs.csv": "f0702b06b50b2e35b77a0a283a52a0f739576c1956d2c224205c13676cb42e3f",
        "loopback_summary.txt": "ef95d907320bfac547eab304fc696872b6a42a71ad76b638791294324fc6fa97",
    }),
]


@pytest.mark.parametrize(
    "scenario,flags,digests", GOLDEN_DIGESTS, ids=[f"{s} {f or 'preset'}" for s, f, _ in GOLDEN_DIGESTS]
)
def test_single_realization_outputs_match_their_pinned_digests(tmp_path, capsys, scenario, flags, digests):
    import hashlib

    assert cli_main(["--scenario", scenario, "--out", str(tmp_path), *flags.split()]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    assert written == digests


@st.composite
def link_chunk_cases(draw):
    """A plan of N = 16 .. 2048 at any depth, an SNR of at most 0 dB or
    none, a chunk size and a shorter or equal one, the zero-gain row and
    bins of an erased chunk (at least one of them), a silent row (no body
    and no noise) or none, and a seed."""
    log_n = draw(st.integers(4, 11))
    n = 1 << log_n
    plan = build_plan(n, draw(st.integers(0, log_n)), 8)
    snr_db = draw(st.one_of(st.floats(-20.0, 0.0), st.just(math.inf)))
    rows = draw(st.integers(1, 4))
    zero_row = draw(st.one_of(st.none(), st.integers(0, rows - 1)))
    zero_bins = draw(st.lists(st.integers(0, n - 1), min_size=0 if zero_row is not None else 1, max_size=4))
    silent_row = draw(st.one_of(st.none(), st.integers(0, rows - 1)))
    return (
        plan, snr_db, rows, draw(st.integers(1, rows)), zero_row, zero_bins, silent_row, draw(st.integers(0, 2**32 - 1))
    )


@settings(max_examples=120, deadline=None)
@given(link_chunk_cases())
def test_link_chunks_are_bitwise_the_scaled_receiver_and_per_slice_means(case):
    """An erased chunk, then a clean one on the same buffers: the receive
    kernel gives the oracle's estimates (up to the sign of zeros) and masks,
    and each slice's EVM is bitwise, its error count exactly, the oracle's.
    The chunk runs on the loopback's five buffers, from the frame bodies in
    ``signal`` and the spectrum in ``gains``. A silent row's estimates are
    zeros, of both signs in all but about 1 in 10**4 draws at N = 16, which
    the hard decision's ``< 0`` test reads alike (``np.signbit`` would not);
    an erased bin's estimate is +0."""
    plan, snr_db, rows, clean_rows, zero_row, zero_bins, silent_row, seed = case
    n = plan.frame_size
    rho = 10.0 ** (snr_db / 10.0)
    rng = np.random.default_rng(seed)
    link = _LinkBuffers(plan, rho, rows)
    rx_frames, rx_floats = (np.empty((2, rows, n), dtype) for dtype in (complex, float))
    rx_erasures = np.empty((rows, n), bool)
    for r, erase in ((rows, True), (clean_rows, False)):
        index = rng.integers(0, 4, (r, n)).astype(np.uint64)
        sent = _QPSK[index]
        gains = np.fft.fft(rng.standard_normal((r, 8)) + 1j * rng.standard_normal((r, 8)), n, axis=-1)
        if erase:
            if zero_row is not None:
                gains[zero_row] = 0.0
            gains[:, zero_bins] = 0.0
        noise = rng.standard_normal((r, 2, n))
        received = np.take(sent, plan.inverse_bin_order, axis=-1)
        _unitary_idft(received)
        silent = silent_row is not None and silent_row < r
        if silent:
            received[silent_row] = noise[silent_row] = 0.0
        body = received.copy()
        _propagate_into(received, gains, rho, noise.copy(), received)
        want_estimate, want_erasures = scaled_receive(received, plan, gains)
        assert want_erasures.any() == erase

        spectrum, estimate = rx_frames[:, :r]
        erasures = rx_erasures[:r]
        spectrum[...] = received
        _receive_into(spectrum, gains.copy(), plan.bin_order, *rx_floats[:, :r], estimate, erasures)
        np.testing.assert_array_equal(estimate, want_estimate)
        np.testing.assert_array_equal(erasures, want_erasures)
        if silent:
            assert not estimate[silent_row].any()

        chunk = link.cut(r)
        chunk.signal[...], chunk.gains[...] = body, gains
        chunk.noise[...], chunk.index[...] = noise, index
        evm = np.empty((len(plan.slices), r))
        errors = np.full(evm.shape, -1, dtype=np.int64)
        chunk.measure(evm, errors)
        want_evm, want_errors = loopback_statistics(want_estimate, sent, index, plan)
        assert evm.tobytes() == want_evm.tobytes()
        # Every SNR counts its errors: an erased bin is a miss unless its sent index is 0.
        np.testing.assert_array_equal(errors, want_errors)


# Floats whose text the row writers must keep: signed zeros and infinities,
# nan, subnormals and the ends of the normal range, and any other double.
_ROW_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, 1e300, -1e300]),
    st.floats(),
)


@st.composite
def row_chunks(draw):
    """A plan of any shape, a chunk of runs whose ids reach up to 2**32 - 1,
    and one float and one count per run and slice."""
    log_n = draw(st.integers(1, 11))
    plan = build_plan(1 << log_n, draw(st.integers(0, log_n)), 1)
    runs = draw(st.integers(1, 5))
    start = draw(st.one_of(st.integers(0, 100), st.integers(0, 2**32 - runs)))
    shape = (runs, len(plan.slices))
    values = np.array(draw(st.lists(_ROW_FLOATS, min_size=runs * len(plan.slices), max_size=runs * len(plan.slices))))
    counts = np.array(draw(st.lists(st.integers(0, 1 << log_n), min_size=values.size, max_size=values.size)))
    return plan, start, values.reshape(shape), counts.reshape(shape).astype(np.int64)


@settings(max_examples=150, deadline=None)
@given(row_chunks())
def test_chunk_rows_are_the_per_run_str_format_rows(case):
    """One ``%`` call over a chunk gives the text of one ``str.format`` per
    run, for the MI runs CSV and the loopback runs CSV."""
    plan, start, values, counts = case
    runs, per_run = values.shape
    run_ids = np.arange(start, start + runs).repeat(per_run).tolist()
    mi_text = experiments._rows(experiments._mi_row(plan), runs, run_ids, values.ravel().tolist())
    assert mi_text == mi_rows(plan, start, values)
    link_text = experiments._rows(
        experiments._link_row(plan), runs, run_ids, values.ravel().tolist(), counts.ravel().tolist()
    )
    assert link_text == link_rows(plan, start, values.T, counts.T)


@settings(max_examples=100, deadline=None)
@given(
    curves=st.dictionaries(
        st.from_regex(r"[a-z_]{1,16}", fullmatch=True),
        st.lists(_ROW_FLOATS, min_size=1, max_size=12),
        min_size=1,
        max_size=3,
    ),
    block=st.integers(1, 5),
)
def test_cdf_blocks_write_the_per_point_str_format_rows(curves, block):
    """The cdf writer, in blocks of a few rows, writes the text of one
    ``str.format`` per point of each curve's sorted samples, curve after
    curve, below the table's header, and leaves each column sorted."""
    from unittest import mock

    columns = {name: np.array(samples, dtype=float) for name, samples in curves.items()}
    expected = cdf_text(columns)
    fh = io.StringIO()
    fh.write(experiments._SCENARIOS["fig7"].files["cdf"] + "\n")
    with mock.patch.object(experiments, "_CDF_BLOCK_ROWS", block):
        experiments._write_cdf(fh, columns)
    assert fh.getvalue() == expected
    for name, samples in curves.items():
        assert columns[name].tobytes() == np.sort(samples).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 20),
            st.from_regex(r"[+-]{0,20}", fullmatch=True),
            st.integers(1, 2**20),
            st.sampled_from(["exact-fold", "literal-triangular"]),
            _ROW_FLOATS,
            _ROW_FLOATS,
        ),
        max_size=8,
    )
)
def test_report_rows_are_the_per_record_str_format_rows(records):
    """The report rows of fig4 and table1, one ``_rows`` call over the
    records, are the text of one ``str.format`` per record."""
    fh = io.StringIO()
    fh.write(experiments._SCENARIOS["table1"].files["report"] + "\n")
    fh.write(experiments._rows(experiments._REPORT_ROW, len(records), *zip(*records)))
    assert fh.getvalue() == report_text(records)


# The config boundary by property: Python and numpy scalars of every kind
# (bools too), ints beyond the int64 and the float ranges, signed zeros,
# subnormals, nan, infinities and a float near the top of the range, and
# empty and whitespace strings.
_SCALAR_TYPES = (
    int, float, str, np.str_, np.bool_, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32,
    np.uint64, np.float16, np.float32, np.float64, np.longdouble, np.complex128,
)
_ODD_VALUES = [
    True, False, 0, -1, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.nan, math.inf, -math.inf,
    2**63, -(2**63) - 1, 2**64, 10**400, -(10**400), 1e300, -1e300, "", " ", "\t\n",
]
# Values a field plausibly takes, at frames of at most 64 samples and at most 3 runs.
_FIELD_VALUES = {
    "scenario": sorted(experiments._SCENARIOS),
    "n_fft": [2, 16, 64],
    "delta_f_hz": [480e3, 1],
    "profile": ["epa", "ETU"],
    "snr_db": [10.0, 0, -3200, 3080],
    "num_runs": [1, 3],
    "depth": [0, 2, 6],
    "cp_length": [0, 16, 64],
    "seed": [0, 1, 2**32 + 1],
    "mode": ["exact-fold", "literal-triangular"],
    "output_dir": ["out", "a/b"],
    "workers": [1, 2],
}


def _scalar_forms(value) -> list:
    """``value`` as each of ``_SCALAR_TYPES`` that takes it."""
    forms = []
    for kind in _SCALAR_TYPES:
        try:
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                forms.append(kind(value))
        except (ValueError, TypeError, OverflowError):
            pass
    return forms


_FIELD_CANDIDATES = {
    name: [form for value in values for form in _scalar_forms(value)] + _ODD_VALUES
    for name, values in _FIELD_VALUES.items()
}


@st.composite
def boundary_configs(draw):
    """The fields of a small run of any scenario, one to three of them
    replaced by a value from the field's candidates."""
    scenario = draw(st.sampled_from(_FIELD_VALUES["scenario"]))
    values = dict(
        scenario=scenario, n_fft=64, delta_f_hz=480e3, profile="epa", snr_db=10.0,
        num_runs=1 if experiments._SCENARIOS[scenario].one_run else 3, depth=2, cp_length=16, seed=1,
        mode="exact-fold", output_dir="out", workers=1,
    )
    for name in draw(st.lists(st.sampled_from(sorted(_FIELD_CANDIDATES)), min_size=1, max_size=3, unique=True)):
        values[name] = draw(st.sampled_from(_FIELD_CANDIDATES[name]))
    return values


def test_the_boundary_candidates_cover_every_field():
    assert _FIELD_VALUES.keys() == {f.name for f in dataclasses.fields(ExperimentConfig)}


@settings(max_examples=400, deadline=None)
@given(boundary_configs())
def test_every_config_runs_to_finite_numbers_or_fails_cleanly(values):
    """A run completes with only finite numbers in its CSV files, or raises
    ValueError or TypeError. A config that ``_setup`` rejects leaves no
    output directory; a config that it accepts fails only at the loopback
    EVM floor."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)
        try:
            config = ExperimentConfig(**values)
            try:
                paths = run_scenario(config)
            except (ValueError, TypeError) as err:
                try:
                    experiments._setup(config)
                except (ValueError, TypeError):
                    assert os.listdir(root) == []
                else:
                    assert config.scenario == "loopback" and "EVM overflows a float" in str(err), err
                return
            for key, path in paths.items():
                if key == "summary":
                    continue
                for row in list(csv.reader(path.read_text().splitlines()))[1:]:
                    for cell in row:
                        try:
                            number = float(cell)
                        except ValueError:
                            continue
                        assert math.isfinite(number), (key, row)
        finally:
            os.chdir(cwd)
