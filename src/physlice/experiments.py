"""Scenario presets, Monte Carlo orchestration, and plot-ready CSV emission.

Every run derives its own RNG stream from (seed, run_id), so results are
byte-identical regardless of how many workers execute the runs; aggregation
is always in run_id order. Plot rendering is left to external tools: the
files written here are plain CSV plus a short text summary per scenario.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import (
    BUILTIN_PROFILES,
    ChannelProfile,
    build_circulant,
    load_profile,
    positive_child,
    profile_tap_count,
    sample_cir,
)
from .mi import MODE_EXACT, MODE_LITERAL, SnrSpec, deep_split_report, split_report
from .sliceplan import SlicePlan, build_plan, total_cost
from .txrx import modulate, nearest_symbols, propagate, receive, transmit

__all__ = [
    "ExperimentConfig",
    "EmpiricalCdf",
    "PRESETS",
    "make_config",
    "load_config_file",
    "empirical_cdf",
    "run_scenario",
    "loopback_demo",
]

_FLOAT_FMT = "{:.12g}"

# Frame samples per loopback chunk. The chunk size follows from the frame
# size (4 runs at N=2048, 32 at N=256); a small budget keeps the per-chunk
# arrays, and so the peak memory, near that of a single run.
_CHUNK_SAMPLES = 8192

PRESETS: dict[str, dict] = {
    # Urban channel, sub-6 GHz numerology, one split: distribution of the
    # two branch rates against the ideal half split.
    "fig7": dict(n_fft=2048, delta_f_hz=15e3, profile="etu", snr_db=10.0, num_runs=500, depth=1, cp_length=169),
    # Same link, split all the way down to size-1 slices: distribution of the
    # deepest pair against half of their parent.
    "fig8": dict(n_fft=2048, delta_f_hz=15e3, profile="etu", snr_db=10.0, num_runs=500, depth=11, cp_length=169),
    # Pedestrian channel at mmWave-style numerology, full chain, averaged MI
    # and latency rank per slice.
    "fig9": dict(n_fft=128, delta_f_hz=240e3, profile="epa", snr_db=10.0, num_runs=50, depth=7, cp_length=16),
    # One seeded realization, three splits: per-slice MI and operation counts.
    "fig4": dict(n_fft=2048, delta_f_hz=15e3, profile="etu", snr_db=10.0, num_runs=1, depth=3, cp_length=169),
    # Deep continuation from the deepest positive slice, both MI modes.
    "table1": dict(n_fft=2048, delta_f_hz=15e3, profile="etu", snr_db=10.0, num_runs=1, depth=3, cp_length=169),
    # End-to-end transmit/receive sanity loop.
    "loopback": dict(n_fft=2048, delta_f_hz=15e3, profile="etu", snr_db=30.0, num_runs=10, depth=3, cp_length=169),
}


# Scenarios that a mode override would not change, and why.
_MODELESS = {
    "table1": "it always reports both modes",
    "loopback": "it runs the link and computes no MI",
}


@dataclass
class ExperimentConfig:
    scenario: str
    n_fft: int
    delta_f_hz: float
    profile: str
    snr_db: float
    num_runs: int
    depth: int
    cp_length: int
    seed: int = 1
    mode: str = MODE_EXACT
    output_dir: str = "physlice-out"
    workers: int = 1

    @property
    def sample_period_ns(self) -> float:
        return 1e9 / (self.n_fft * self.delta_f_hz)

    @property
    def snr(self) -> SnrSpec | None:
        """Linear SNR; None for the exact noiseless flag snr_db = +inf."""
        if self.snr_db == math.inf:
            return None
        return SnrSpec.from_db(self.snr_db)

    def resolve_profile(self) -> ChannelProfile:
        key = self.profile.lower()
        if key in BUILTIN_PROFILES:
            return BUILTIN_PROFILES[key]
        if Path(self.profile).is_file():
            return load_profile(self.profile)
        raise ValueError(
            f"unknown profile {self.profile!r}: not a builtin ({', '.join(sorted(BUILTIN_PROFILES))}) "
            "and not a readable file"
        )

    def validated(self) -> "ExperimentConfig":
        if self.scenario not in PRESETS:
            raise ValueError(f"unknown scenario {self.scenario!r}, expected one of {sorted(PRESETS)}")
        if self.n_fft < 2 or self.n_fft & (self.n_fft - 1):
            raise ValueError(f"n_fft must be a power of two >= 2, got {self.n_fft}")
        if self.delta_f_hz <= 0:
            raise ValueError("delta_f_hz must be positive")
        if math.isnan(self.snr_db) or self.snr_db == -math.inf:
            raise ValueError(f"snr_db must be a number of dB or inf (noiseless), got {self.snr_db}")
        if self.num_runs < 1:
            raise ValueError("num_runs must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.mode not in (MODE_EXACT, MODE_LITERAL):
            raise ValueError(f"unknown mode {self.mode!r}")
        profile = self.resolve_profile()
        expected_taps = profile_tap_count(profile, self.sample_period_ns)
        if self.cp_length < expected_taps:
            raise ValueError(
                f"cp_length {self.cp_length} does not cover the {expected_taps}-tap "
                f"{profile.name} channel at Ts={self.sample_period_ns:.4g} ns"
            )
        return self


def make_config(scenario: str, **overrides) -> ExperimentConfig:
    """Preset defaults for a scenario, with explicit overrides on top."""
    if scenario not in PRESETS:
        raise ValueError(f"unknown scenario {scenario!r}, expected one of {sorted(PRESETS)}")
    params = dict(PRESETS[scenario])
    unknown = set(overrides) - {
        "n_fft", "delta_f_hz", "profile", "snr_db", "num_runs", "depth",
        "cp_length", "seed", "mode", "output_dir", "workers",
    }
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    given = {k: v for k, v in overrides.items() if v is not None}
    if "mode" in given and scenario in _MODELESS:
        raise ValueError(f"scenario {scenario!r} takes no mode: {_MODELESS[scenario]}")
    params.update(given)
    return ExperimentConfig(scenario=scenario, **params)


def load_config_file(path) -> dict:
    """Flat key=value config file; '#' starts a comment line."""
    values: dict[str, object] = {}
    converters = {
        "scenario": str, "profile": str, "mode": str, "output_dir": str,
        "n_fft": int, "num_runs": int, "depth": int, "cp_length": int,
        "seed": int, "workers": int,
        "delta_f_hz": float, "snr_db": float,
    }
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line (expected key = value): {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in converters:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = converters[key](value)
    return values


@dataclass(frozen=True)
class EmpiricalCdf:
    """Step empirical cdf: value k/n at the k-th order statistic."""

    values: np.ndarray
    probs: np.ndarray

    def evaluate(self, x) -> np.ndarray:
        """P(sample <= x) on the step function."""
        ranks = np.searchsorted(self.values, np.asarray(x, dtype=float), side="right")
        return ranks / self.values.size

    def quantile(self, p: float) -> float:
        """Smallest sample value with cdf >= p."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"quantile level must be in (0, 1], got {p}")
        k = max(int(np.ceil(p * self.values.size)) - 1, 0)
        return float(self.values[k])


def empirical_cdf(samples) -> EmpiricalCdf:
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise ValueError("empirical cdf needs at least one sample")
    ordered = np.sort(samples)
    probs = np.arange(1, ordered.size + 1, dtype=float) / ordered.size
    return EmpiricalCdf(values=ordered, probs=probs)


def _map_runs(fn, count: int, workers: int) -> list:
    """``[fn(0), ..., fn(count - 1)]``, on a thread pool when workers > 1."""
    if workers <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


def _run_rng(config: ExperimentConfig, run_id: int) -> np.random.Generator:
    return np.random.default_rng([config.seed, run_id])


def _fmt(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        return _FLOAT_FMT.format(float(value))
    return str(value)


def _write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(cell) for cell in row) + "\n")


def _write_cdf(path: Path, curves: dict[str, EmpiricalCdf]) -> None:
    rows = []
    for name in curves:
        cdf = curves[name]
        for x, p in zip(cdf.values, cdf.probs):
            rows.append([name, x, p])
    _write_rows(path, ["curve", "x", "cdf"], rows)


def _ops_by_path(plan: SlicePlan) -> dict[str, int]:
    return {s.path: s.decode_ops for s in plan.slices}


def _mi_rows(run_id: int, report, ops: dict[str, int]) -> list[list]:
    return [
        [run_id, r.path, r.size, r.mi_bits, ops[r.path]]
        for r in report.records
    ]


def _scenario_plan(config: ExperimentConfig) -> tuple[SlicePlan, ChannelProfile, int]:
    profile = config.resolve_profile()
    taps = profile_tap_count(profile, config.sample_period_ns)
    plan = build_plan(config.n_fft, config.depth, config.cp_length, channel_length=taps)
    return plan, profile, taps


def _rate_scenario(config: ExperimentConfig):
    """Shared engine of the MI scenarios: per-run split reports."""
    plan, profile, taps = _scenario_plan(config)
    ops = _ops_by_path(plan)
    snr = config.snr
    if snr is None:
        raise ValueError("MI scenarios need a finite SNR")

    def one_run(run_id: int):
        rng = _run_rng(config, run_id)
        cir = sample_cir(profile, config.sample_period_ns, rng)
        report = split_report(cir, config.n_fft, config.depth, snr, mode=config.mode)
        return report

    reports = _map_runs(one_run, config.num_runs, config.workers)
    rows = []
    for run_id, report in enumerate(reports):
        rows.extend(_mi_rows(run_id, report, ops))
    return plan, profile, taps, reports, rows


def _summary_lines(config: ExperimentConfig, plan: SlicePlan, taps: int, reports) -> list[str]:
    residual = max(r.max_level_residual(relative=True) for r in reports)
    lines = [
        f"scenario={config.scenario}",
        f"n_fft={config.n_fft} delta_f_hz={_fmt(config.delta_f_hz)} profile={config.profile}",
        f"sample_period_ns={_fmt(config.sample_period_ns)} channel_taps={taps}",
        f"depth={config.depth} cp_length={config.cp_length} snr_db={_fmt(config.snr_db)}",
        f"num_runs={config.num_runs} seed={config.seed} mode={config.mode}",
        f"total_decode_ops={total_cost(plan)}",
        f"non_uniform={plan.non_uniform} uniform_floor={plan.uniform_floor}",
        f"max_conservation_residual_rel={_fmt(residual)}",
    ]
    return lines


def run_scenario(config: ExperimentConfig) -> dict[str, Path]:
    """Run one scenario preset and write its output files.

    Returns a mapping of logical names to the written paths. Outputs are
    deterministic for a given (config, seed) regardless of worker count.
    """
    config = config.validated()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if config.scenario == "loopback":
        return loopback_demo(config)
    if config.scenario == "table1":
        return _run_table1(config, out)
    if config.scenario == "fig4":
        return _run_fig4(config, out)
    if config.scenario in ("fig7", "fig8"):
        return _run_rate_cdf(config, out)
    if config.scenario == "fig9":
        return _run_fig9(config, out)
    raise ValueError(f"unknown scenario {config.scenario!r}")


def _run_rate_cdf(config: ExperimentConfig, out: Path) -> dict[str, Path]:
    plan, profile, taps, reports, rows = _rate_scenario(config)
    runs_path = out / f"{config.scenario}_runs.csv"
    _write_rows(runs_path, ["run_id", "slice_path", "slice_size", "mi_bits", "decode_ops"], rows)

    if config.scenario == "fig7":
        pos = [r.levels[0].positive_mi for r in reports]
        neg = [r.levels[0].negative_mi for r in reports]
        bench = [r.levels[0].parent_mi / 2.0 for r in reports]
        curves = {
            "positive": empirical_cdf(pos),
            "negative": empirical_cdf(neg),
            "half_total": empirical_cdf(bench),
        }
    else:
        deepest = [r.levels[-1] for r in reports]
        curves = {
            "deepest_positive": empirical_cdf([lvl.positive_mi for lvl in deepest]),
            "deepest_negative": empirical_cdf([lvl.negative_mi for lvl in deepest]),
            "half_parent": empirical_cdf([lvl.parent_mi / 2.0 for lvl in deepest]),
        }
    cdf_path = out / f"{config.scenario}_cdf.csv"
    _write_cdf(cdf_path, curves)

    summary_path = out / f"{config.scenario}_summary.txt"
    lines = _summary_lines(config, plan, taps, reports)
    if config.scenario == "fig7":
        gaps = [
            abs(r.levels[0].positive_mi - r.levels[0].negative_mi) / r.levels[0].parent_mi
            for r in reports
        ]
        lines.append(f"mean_branch_gap_rel={_fmt(float(np.mean(gaps)))}")
        lines.append(f"max_branch_gap_rel={_fmt(float(np.max(gaps)))}")
    summary_path.write_text("\n".join(lines) + "\n")
    return {"runs": runs_path, "cdf": cdf_path, "summary": summary_path}


def _run_fig9(config: ExperimentConfig, out: Path) -> dict[str, Path]:
    plan, profile, taps, reports, rows = _rate_scenario(config)
    runs_path = out / f"{config.scenario}_runs.csv"
    _write_rows(runs_path, ["run_id", "slice_path", "slice_size", "mi_bits", "decode_ops"], rows)

    lines = _summary_lines(config, plan, taps, reports)
    lines.append("level,child_size,mean_mi_positive,mean_mi_negative,branch_gap_rel")
    for level in range(1, config.depth + 1):
        pos = float(np.mean([r.levels[level - 1].positive_mi for r in reports]))
        neg = float(np.mean([r.levels[level - 1].negative_mi for r in reports]))
        gap = abs(pos - neg) / max(pos, neg) if max(pos, neg) > 0 else 0.0
        lines.append(
            f"{level},{config.n_fft >> level},{_fmt(pos)},{_fmt(neg)},{_fmt(gap)}"
        )
    summary_path = out / f"{config.scenario}_summary.txt"
    summary_path.write_text("\n".join(lines) + "\n")
    return {"runs": runs_path, "summary": summary_path}


def _run_fig4(config: ExperimentConfig, out: Path) -> dict[str, Path]:
    config = replace(config, num_runs=1)
    plan, profile, taps, reports, rows = _rate_scenario(config)
    report = reports[0]
    runs_path = out / f"{config.scenario}_runs.csv"
    _write_rows(runs_path, ["run_id", "slice_path", "slice_size", "mi_bits", "decode_ops"], rows)
    report_path = out / f"{config.scenario}_report.csv"
    report.to_csv(report_path)
    summary_path = out / f"{config.scenario}_summary.txt"
    lines = _summary_lines(config, plan, taps, reports)
    lines.append(f"total_mi_bits={_fmt(report.total_mi_bits)}")
    lines.append(report.summary_table())
    summary_path.write_text("\n".join(lines) + "\n")
    return {"runs": runs_path, "report": report_path, "summary": summary_path}


def _run_table1(config: ExperimentConfig, out: Path) -> dict[str, Path]:
    plan, profile, taps = _scenario_plan(config)
    snr = config.snr
    if snr is None:
        raise ValueError("the deep continuation needs a finite SNR")
    rng = _run_rng(config, 0)
    cir = sample_cir(profile, config.sample_period_ns, rng)
    channel = build_circulant(cir, config.n_fft)
    for _ in range(config.depth):
        channel = positive_child(channel)
    report = deep_split_report(channel, snr)
    report_path = out / f"{config.scenario}_report.csv"
    report.to_csv(report_path)
    summary_path = out / f"{config.scenario}_summary.txt"
    lines = [
        f"scenario={config.scenario}",
        f"continuation_root_size={channel.size} (deepest positive slice of a depth-{config.depth} plan)",
        f"seed={config.seed} snr_db={_fmt(config.snr_db)}",
        f"decode_cost_row={','.join(report.cost_row)}",
        report.summary_table(),
    ]
    summary_path.write_text("\n".join(lines) + "\n")
    return {"report": report_path, "summary": summary_path}


def loopback_demo(config: ExperimentConfig) -> dict[str, Path]:
    """Transmit, propagate, receive one frame per run; report EVM and errors.

    Runs go through the link in chunks of ``_CHUNK_SAMPLES // n_fft`` frames
    on the batch axis; ``workers`` spreads the chunks. Each run still draws
    its channel, its bits and then its noise from its own stream.
    """
    config = config.validated()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    plan, profile, taps = _scenario_plan(config)
    snr = config.snr
    chunk = max(1, _CHUNK_SAMPLES // config.n_fft)

    def one_chunk(index: int):
        run_ids = range(index * chunk, min((index + 1) * chunk, config.num_runs))
        rngs = [_run_rng(config, run_id) for run_id in run_ids]
        cirs = [sample_cir(profile, config.sample_period_ns, rng) for rng in rngs]
        bits = np.stack([rng.integers(0, 2, size=2 * config.n_fft) for rng in rngs])
        payload = modulate(bits, plan)
        y = propagate(transmit(payload, plan), cirs, snr=snr, rng=rngs)
        estimate = receive(y, plan, cirs)
        per_slice = []
        for sent, got in zip(payload.symbols, estimate.symbols):
            evm = np.sqrt(np.mean(np.abs(got - sent) ** 2, axis=-1) / np.mean(np.abs(sent) ** 2, axis=-1))
            if snr is None:
                errors = np.zeros(len(rngs), dtype=np.int64)
            else:
                errors = np.count_nonzero(nearest_symbols(got) != sent, axis=-1)
            per_slice.append(zip(evm.tolist(), errors.tolist()))
        # For each run of the chunk, one (evm, errors) pair per slice.
        return list(zip(*per_slice))

    chunks = _map_runs(one_chunk, math.ceil(config.num_runs / chunk), config.workers)
    results = [per_slice for runs in chunks for per_slice in runs]
    rows = []
    for run_id, per_slice in enumerate(results):
        for desc, (evm, errors) in zip(plan.slices, per_slice):
            rows.append([run_id, desc.path, evm, errors])
    runs_path = out / "loopback_runs.csv"
    _write_rows(runs_path, ["run_id", "slice_path", "evm", "symbol_errors"], rows)

    lines = [
        f"scenario=loopback n_fft={config.n_fft} depth={config.depth} "
        f"cp_length={config.cp_length} snr_db={_fmt(config.snr_db)} runs={config.num_runs}",
    ]
    for i, desc in enumerate(plan.slices):
        evms = [per_slice[i][0] for per_slice in results]
        errs = sum(per_slice[i][1] for per_slice in results)
        lines.append(
            f"slice={desc.path or '(whole frame)'} size={desc.size} "
            f"mean_evm={_fmt(float(np.mean(evms)))} symbol_errors={errs}"
        )
    summary_path = out / "loopback_summary.txt"
    summary_path.write_text("\n".join(lines) + "\n")
    return {"runs": runs_path, "summary": summary_path}
