"""Scenario presets, Monte Carlo orchestration, and plot-ready CSV emission.

Every scenario is one entry of ``_SCENARIOS``: its runner, CSV headers,
preset and input rules. ``run_scenario`` checks every input against them in
one place, ``_setup``, which also resolves the channel profile (reading a
profile file once) and builds the slice plan, all before the output
directory is made. It then opens and heads every file of the scenario,
calls the runner with the open CSV files and writes the summary it returns.

The Monte Carlo scenarios run their realizations in chunks of consecutive
runs on a leading batch axis, as many as fit in the chunk budget of the
scenario's buffer plan (``_chunk_runs``: ``_LINK_CHUNK_BYTES`` for the link,
``_MI_CHUNK_BYTES`` for the MI engine), at most ``_MAX_CHUNK_RUNS``. One
generator, ``_drawn_chunks``, draws every scenario's runs: each run draws
from its own RNG stream, bitwise ``np.random.default_rng([seed, run_id])``,
whose seed words are hashed for a block of whole chunks of at most
``_HASH_BLOCK_RUNS`` runs at a time, one vectorized SeedSequence pass per
block (``_streams.stream_words``); each chunk builds its runs' Generators
from their rows and draws their channels first, with one call of the
tap-draw kernel ``channel._draw_taps_into``. A scenario makes its buffers
once and cuts them to ``[:r]`` rows for a short last chunk: the tap draw,
the link (``txrx._LinkBuffers``, bound to the plan and the SNR, whose
docstring gives each buffer's roles) and the MI kernel
``mi._chain_levels_into`` write every result into them, so no chunk
allocates a frame-sized array but the intp copy of the link's error mask
that its one error-count reduction casts.
Each chunk writes its runs' CSV rows as it finishes, with one ``%`` call
(``_rows``): one run's row template, repeated for the chunk's runs, filled
from one flat list of cells. It also keeps what the summaries read: an MI
chunk hands its ``ChainMi`` rows to the runner, which keeps the one run's
``ChainMi`` in fig4, a level-major (2, depth, num_runs) array of the branch
MI in fig9 and only the three (num_runs,) columns of its cdfs in fig7 and
fig8, which ``_write_cdf`` sorts in place, and ``loopback`` keeps (slices,
runs) EVMs and each slice's symbol-error total. The chunks run in order in
the calling thread, so ``workers`` changes neither the output nor the speed
(a thread pool never beat this loop: the chunks hold the GIL between short
numpy calls).
Plot rendering is left to external tools: the files written here are plain
CSV plus a short text summary per scenario, each opened by ``_create``.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
import stat
import sys
from collections.abc import Callable
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .channel import (
    BUILTIN_PROFILES,
    ChannelProfile,
    _draw_taps_into,
    _profile_grid,
    _read_key_values,
    load_profile,
    positive_child,
    profile_tap_count,
)
from .mi import MODE_EXACT, MODE_LITERAL, ChainMi, chain_mi
from .mi import _SCRATCH_SAMPLE_BYTES, _chain_levels_into, _scratch
from .sliceplan import SlicePlan, build_plan, decode_cost, total_cost
from .txrx import _LinkBuffers

__all__ = [
    "ExperimentConfig",
    "PRESETS",
    "make_config",
    "load_config_file",
    "run_scenario",
]

# The conversion of every float that a CSV row or ``_fmt`` writes.
_FLOAT_FIELD = "%.12g"
# A row of the per-slice report of fig4 and table1: (level, path, size, mode, mi_bits, parent_residual).
_REPORT_ROW = f"%s,%s,%s,%s,{_FLOAT_FIELD},{_FLOAT_FIELD}\n"
# The cdf file is written this many rows of a curve at a time.
_CDF_BLOCK_ROWS = 1024

# ``._streams`` is imported where it is used: it loads numpy.random, which
# adds about 6 MB and 25 ms to ``import physlice``; the first run of a
# scenario loads it either way.

# Bytes of chunk buffers per chunk, one budget per buffer plan: a chunk holds
# as many runs as fit at its plan's bytes per frame sample
# (``txrx._LinkBuffers``, ``mi._scratch``). A larger chunk spreads a chunk's
# fixed numpy calls and per-slice loops over more runs, and adds its buffers
# to the peak memory. The link's 928 KB hold 16671 frame samples at its 57 B
# each, so a link chunk holds 16384 / N frames up to the cap (8 at N = 2048,
# 64 at N = 256 and below, one from N = 16384 up); the MI engine's is 28 runs
# at N = 2048: a larger chunk measured at most 2 % faster and nears the bound
# of the fig8 memory test.
_LINK_CHUNK_BYTES = 928 * 1024
_MI_CHUNK_BYTES = 1344 * 1024
# The largest n_fft, and snr_db of a scenario that computes MI: one run's link
# buffers take 57 MB at 2**20 samples, and at 3000 dB (rho = 1e300) rho *
# |gain|^2 overflows only at a bin gain of 1.3e4 (a 20-run fig9 does at 3080).
_MAX_N_FFT = 2**20
_MAX_MI_SNR_DB = 3000
# Each run of a chunk also holds a Generator of about 0.75 KB, so no chunk
# holds more runs than this.
_MAX_CHUNK_RUNS = 64
# The seed words of the runs are hashed one block of whole chunks at a time,
# at most this many runs unless one chunk holds more: the hash takes about
# 150 B of words and temporaries per run of the block.
_HASH_BLOCK_RUNS = 1024


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
    def snr(self) -> float:
        """Linear SNR rho = 10**(snr_db / 10); ``inf`` for the noiseless snr_db = +inf."""
        try:
            return 10.0 ** (self.snr_db / 10.0)
        except OverflowError:
            raise ValueError(f"snr_db {self.snr_db} is too large: 10**(snr_db / 10) overflows a float") from None

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
        """This config, after every check a scenario run makes before it
        writes anything; raises ValueError naming the first bad input."""
        _setup(self)
        return self


# The one schema of settings: ExperimentConfig's fields and annotations. No
# setting is a bool, and every int setting is a size, a count or a seed.
_ACCEPTED = {"int": (int, np.integer), "float": (int, float), "str": (str,)}
_EXPECTED = {"int": "a non-negative integer", "float": "a Python int or float", "str": "a string"}
_PARSERS = {"int": int, "float": float, "str": str}
_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _setup(config: ExperimentConfig) -> tuple[SlicePlan, ChannelProfile, int]:
    """Check every input of a scenario and return its plan, its channel
    profile and the channel's tap count. A numpy integer setting is replaced
    by its Python int. The profile is resolved (a file read) once, here;
    nothing is written before this returns."""
    for name, kind in _FIELD_TYPES.items():
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, _ACCEPTED[kind]) or (kind == "int" and value < 0):
            raise ValueError(f"{name} must be {_EXPECTED[kind]}, got {value!r}")
        if kind == "float" and isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ValueError(f"{name} must be a number within the float range, got an int of {value.bit_length()} bits")
        if isinstance(value, np.integer):
            # numpy's fixed-width arithmetic would wrap a size or a count around.
            setattr(config, name, int(value))
    if not config.output_dir:
        raise ValueError("output_dir must name a directory, got ''")
    entry = _SCENARIOS.get(config.scenario)
    if entry is None:
        raise ValueError(f"unknown scenario {config.scenario!r}, expected one of {sorted(_SCENARIOS)}")
    if not 2 <= config.n_fft <= _MAX_N_FFT or config.n_fft & (config.n_fft - 1):
        raise ValueError(f"n_fft must be a power of two from 2 to 2**20, got {config.n_fft}")
    if not 0 < config.delta_f_hz < math.inf:
        raise ValueError(f"delta_f_hz must be a positive finite number of Hz, got {config.delta_f_hz}")
    if math.isnan(config.snr_db) or config.snr_db == -math.inf:
        raise ValueError(f"snr_db must be a number of dB or inf (noiseless), got {config.snr_db}")
    if config.snr_db == math.inf and not entry.noiseless:
        raise ValueError(f"scenario {config.scenario!r} computes mutual information and needs a finite snr_db")
    if config.snr == 0.0:
        raise ValueError(f"snr_db {config.snr_db} is too small: 10**(snr_db / 10) is 0 in a float")
    if config.snr_db > _MAX_MI_SNR_DB and not entry.noiseless:
        raise ValueError(f"snr_db {config.snr_db} is too large: scenario {config.scenario!r} computes mutual "
                         f"information, whose rho * |gain|^2 can overflow a float above {_MAX_MI_SNR_DB} dB")
    if config.num_runs < 1:
        raise ValueError("num_runs must be at least 1")
    from ._streams import MAX_RUNS

    if config.num_runs > MAX_RUNS:
        raise ValueError(f"num_runs must be at most 2**32 (a run id is one 32-bit word), got {config.num_runs}")
    if entry.one_run and config.num_runs != 1:
        raise ValueError(
            f"scenario {config.scenario!r} analyses one realization and needs num_runs = 1, got {config.num_runs}"
        )
    if config.workers < 1:
        raise ValueError("workers must be at least 1")
    if config.mode not in (MODE_EXACT, MODE_LITERAL):
        raise ValueError(f"unknown mode {config.mode!r}")
    if entry.modeless and config.mode != MODE_EXACT:
        raise ValueError(f"scenario {config.scenario!r} takes no mode: {entry.modeless}")
    if config.depth < entry.min_depth:
        raise ValueError(f"scenario {config.scenario!r} needs depth >= {entry.min_depth}, got {config.depth}")
    if entry.splits_further and config.depth >= config.n_fft.bit_length() - 1:
        raise ValueError(
            f"scenario {config.scenario!r} splits the deepest positive slice further and needs "
            f"depth < log2(n_fft) = {config.n_fft.bit_length() - 1}, got {config.depth}"
        )
    profile = config.resolve_profile()
    taps = profile_tap_count(profile, config.sample_period_ns)
    if config.cp_length < taps:
        raise ValueError(
            f"cp_length {config.cp_length} does not cover the {taps}-tap "
            f"{profile.name} channel at Ts={config.sample_period_ns:.4g} ns"
        )
    return build_plan(config.n_fft, config.depth, config.cp_length, channel_length=taps), profile, taps


def make_config(scenario: str, **overrides) -> ExperimentConfig:
    """Preset defaults for a scenario, with explicit overrides on top."""
    entry = _SCENARIOS.get(scenario)
    if entry is None:
        raise ValueError(f"unknown scenario {scenario!r}, expected one of {sorted(_SCENARIOS)}")
    params = dict(entry.preset)
    unknown = overrides.keys() - _FIELD_TYPES.keys()
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    given = {k: v for k, v in overrides.items() if v is not None}
    if "mode" in given and entry.modeless:
        raise ValueError(f"scenario {scenario!r} takes no mode: {entry.modeless}")
    params.update(given)
    return ExperimentConfig(scenario=scenario, **params)


def load_config_file(path) -> dict:
    """Flat ``key = value`` config file of :class:`ExperimentConfig` fields,
    each at most once; '#' starts a comment line."""
    values = {}
    for key, text in _read_key_values(path, _FIELD_TYPES, "config").items():
        kind = _FIELD_TYPES[key]
        try:
            values[key] = _PARSERS[kind](text)
        except ValueError:
            raise ValueError(f"config key {key!r} must be {_EXPECTED[kind]}, got {text!r}") from None
    return values


def _chunk_runs(n_fft: int, sample_bytes: int, budget: int) -> int:
    """Runs per chunk of a scenario whose buffer plan holds ``sample_bytes``
    per frame sample within ``budget`` bytes: ``budget // (sample_bytes *
    n_fft)``, clipped to 1 .. ``_MAX_CHUNK_RUNS``."""
    return min(max(1, budget // (sample_bytes * n_fft)), _MAX_CHUNK_RUNS)


def _drawn_chunks(config: ExperimentConfig, profile: ChannelProfile, taps: int, size: int):
    """Yield ``(runs, rngs, taps)`` for each chunk of at most ``size``
    consecutive runs, in run order; the one place where a scenario draws its
    runs. ``runs`` is the ``slice`` of the chunk's run ids, ``rngs`` holds
    the Generators of its runs, and the yielded ``taps`` is a complex
    (r, ``taps``) view of one reused buffer: row i is the channel that run i
    drew first from its stream (``channel._draw_taps_into``). The seed words
    are hashed one block of whole chunks at a time, at most
    ``_HASH_BLOCK_RUNS`` runs unless one chunk holds more, so the hash holds
    one block of runs, not every run; each chunk builds its Generators from
    its rows of the read-only words. The caller runs the chunks one after
    another, whatever ``workers`` says."""
    from ._streams import stream, stream_words

    _, scale, columns = _profile_grid(profile, config.sample_period_ns)
    rows = min(config.num_runs, size)
    draws = np.empty((rows, 2, scale.size))
    buffer = np.empty((rows, taps), dtype=np.complex128)
    block = size * max(1, _HASH_BLOCK_RUNS // size)
    for first in range(0, config.num_runs, block):
        words = stream_words(config.seed, range(first, min(first + block, config.num_runs)))
        for start in range(0, len(words), size):
            rngs = [stream(row) for row in words[start : start + size]]
            r = len(rngs)
            _draw_taps_into(rngs, scale, columns, draws[:r], buffer[:r])
            yield slice(first + start, first + start + r), rngs, buffer[:r]


def _fmt(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        return _FLOAT_FIELD % float(value)
    return str(value)


def _rows(row: str, copies: int, *columns) -> str:
    """``copies`` copies of the ``%`` template ``row``, filled by one ``%``
    call from one flat list of cells. The fields of the repeated text take
    their cells from the equal-length ``columns`` in turn: field k takes the
    next cell of ``columns[k % len(columns)]``. The columns are interleaved
    by list-slice assignment, so no Python call runs per row."""
    step = len(columns)
    cells = [None] * sum(map(len, columns))
    for k, column in enumerate(columns):
        cells[k::step] = column
    return (row * copies) % tuple(cells)


def _mi_row(plan: SlicePlan) -> str:
    """The ``%`` template of one run's rows of an MI runs CSV: one row per
    slice, in frame order, with two fields, the run id and the MI."""
    return "".join(f"%s,{s.path},{s.size},{_FLOAT_FIELD},{s.decode_ops}\n" for s in plan.slices)


def _link_row(plan: SlicePlan) -> str:
    """The ``%`` template of one run's rows of the loopback runs CSV: one
    row per slice, in frame order, with three fields, the run id, the EVM
    and the symbol errors."""
    return "".join(f"%s,{s.path},{_FLOAT_FIELD},%s\n" for s in plan.slices)


class _Overwrite(io.FileIO):
    """A regular file written over from its first byte; closing it first
    cuts the file at the write position, so no stale tail is left."""

    def close(self) -> None:
        if not self.closed:
            try:
                os.ftruncate(self.fileno(), self.tell())
            finally:
                super().close()


def _create(path: Path):
    """``path`` opened for writing from its start, with no newline
    translation; the one way ``run_scenario`` opens an output. A regular file
    with one link and a write bit is written over in place and cut to
    length at close: on ext4, a truncate to size 0 makes the close flush,
    and replacing the file frees and allocates an inode. This gains only
    when the file exists already. Any other regular file (a hard link, or
    a read-only file that root could open) is unlinked and created anew, so
    its other links keep the old contents; a symlink is written through,
    and a directory fails to open. A run that fails still closes the file,
    cutting it to the bytes written; a killed process leaves the new bytes
    over the old file's tail, and a reader of the old file sees them."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except PermissionError:
        pass
    else:
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and st.st_mode & 0o222:
            return io.TextIOWrapper(io.BufferedWriter(_Overwrite(fd, "w")), newline="")
        os.close(fd)
    if path.is_file() and not path.is_symlink():
        path.unlink()
    return path.open("w", newline="")


def _write_cdf(fh, curves: dict[str, np.ndarray]) -> None:
    """The step empirical cdf of each curve's (n,) float samples into ``fh``,
    curve after curve: one row per order statistic, the k-th at cdf k/n, in
    blocks of ``_CDF_BLOCK_ROWS`` rows, each written by one ``_rows`` call.
    Each curve's samples are sorted in place, as ``np.sort`` sorts a copy."""
    for name, samples in curves.items():
        samples.sort()
        row = f"{name},{_FLOAT_FIELD},{_FLOAT_FIELD}\n"
        for first in range(0, samples.size, _CDF_BLOCK_ROWS):
            values = samples[first : first + _CDF_BLOCK_ROWS].tolist()
            probs = (np.arange(first + 1, first + len(values) + 1, dtype=float) / samples.size).tolist()
            fh.write(_rows(row, len(values), values, probs))


def _rate_scenario(
    config: ExperimentConfig, plan: SlicePlan, profile: ChannelProfile, taps: int, runs_csv,
    keep: Callable[[slice, ChainMi], None],
) -> float:
    """Shared engine of the MI scenarios: the chain MI of every run, handed
    a chunk at a time to ``keep``, and the largest relative conservation
    residual over them. ``_drawn_chunks`` draws the runs' ``taps``-tap
    channels a chunk at a time, and each chunk takes one engine kernel call,
    which writes the chunk's ``ChainMi`` of (r, ...) arrays, and its spectra
    and log-gains (``mi._scratch``), into buffers made here, cut to ``[:r]``
    rows for a short last chunk. Each chunk writes its rows of the runs CSV
    into ``runs_csv`` as it finishes, with one ``_rows`` call: one row per
    run and slice, with the slices in frame order. Then ``keep(runs, part)``
    takes what the runner reads of the chunk's ``ChainMi`` ``part``, whose
    arrays the next chunk overwrites; ``runs`` is the slice of its run ids."""
    n, depth = config.n_fft, config.depth
    rho = config.snr
    size = _chunk_runs(n, _SCRATCH_SAMPLE_BYTES, _MI_CHUNK_BYTES)
    rows = min(config.num_runs, size)
    chunk = ChainMi(np.empty(rows), np.empty((rows, depth)), np.empty((rows, depth)))
    bins, gains = _scratch((rows, n))
    residual = 0.0
    row, per_run = _mi_row(plan), len(plan.slices)
    for runs, rngs, chunk_taps in _drawn_chunks(config, profile, taps, size):
        r = len(rngs)
        part = ChainMi(chunk.total[:r], chunk.positive[:r], chunk.negative[:r])
        _chain_levels_into(chunk_taps, rho, config.mode, part, bins[:r], gains[:r])
        residual = max(residual, part.max_residual_rel())
        run_ids = np.arange(runs.start, runs.stop).repeat(per_run).tolist()
        runs_csv.write(_rows(row, r, run_ids, part.slice_mi().ravel().tolist()))
        keep(runs, part)
    return residual


def _summary_lines(config: ExperimentConfig, plan: SlicePlan, taps: int, residual: float) -> list[str]:
    return [
        f"scenario={config.scenario}",
        f"n_fft={config.n_fft} delta_f_hz={_fmt(config.delta_f_hz)} profile={config.profile}",
        f"sample_period_ns={_fmt(config.sample_period_ns)} channel_taps={taps}",
        f"depth={config.depth} cp_length={config.cp_length} snr_db={_fmt(config.snr_db)}",
        f"num_runs={config.num_runs} seed={config.seed} mode={config.mode}",
        f"total_decode_ops={total_cost(plan)}",
        f"non_uniform={plan.non_uniform} uniform_floor={plan.uniform_floor}",
        f"max_conservation_residual_rel={_fmt(residual)}",
    ]


def run_scenario(config: ExperimentConfig) -> dict[str, Path]:
    """Run one scenario preset and write its output files.

    The one place that opens a scenario's files, all by ``_create``:
    ``<scenario>_summary.txt``, then ``<scenario>_<key>.csv`` with its header
    for each key of the table entry's files. The runner writes the rows and
    returns the summary, written last. A run that fails closes every file:
    each CSV file keeps its header and the rows written before the error,
    and the summary is empty, in a new or an old directory alike.

    Returns a mapping of logical names to the written paths: each key of its
    files, then ``summary``. Outputs are deterministic for a given config;
    ``workers`` does not change them.
    """
    plan, profile, taps = _setup(config)
    entry = _SCENARIOS[config.scenario]
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {key: out / f"{config.scenario}_{key}.csv" for key in entry.files}
    paths["summary"] = out / f"{config.scenario}_summary.txt"
    with contextlib.ExitStack() as stack:
        summary, *handles = [stack.enter_context(_create(paths[key])) for key in ("summary", *entry.files)]
        for fh, header in zip(handles, entry.files.values()):
            fh.write(header + "\n")
        summary.write("\n".join(entry.run(config, plan, profile, taps, *handles)) + "\n")
    return paths


def _run_rate_cdf(
    config: ExperimentConfig, plan: SlicePlan, profile: ChannelProfile, taps: int, runs_csv, cdf_csv,
    *, split: int, names: tuple[str, str, str], gaps: bool = False
) -> list[str]:
    """The cdfs ``names`` of the branch rates of split ``split`` (0 the first,
    -1 the deepest) and of half the rate of the slice it splits; ``gaps``
    adds the mean and largest relative branch gap to the summary."""
    # Only the three (num_runs,) columns that the cdfs and the gaps read are kept.
    k = range(config.depth)[split]
    pos, neg, parent = np.empty((3, config.num_runs))

    def keep(runs: slice, part: ChainMi) -> None:
        pos[runs], neg[runs], parent[runs] = part.positive[:, k], part.negative[:, k], part.parent[:, k]

    residual = _rate_scenario(config, plan, profile, taps, runs_csv, keep)
    lines = _summary_lines(config, plan, taps, residual)
    if gaps:
        # Taken in run order, before the cdf writer sorts the columns. A split of
        # a slice with no MI (a subnormal rho) counts its absolute gap, as the residual does.
        gap = np.abs(pos - neg)
        np.divide(gap, parent, out=gap, where=parent > 0)
        lines.append(f"mean_branch_gap_rel={_fmt(float(np.mean(gap)))}")
        lines.append(f"max_branch_gap_rel={_fmt(float(np.max(gap)))}")
    parent /= 2.0
    _write_cdf(cdf_csv, dict(zip(names, (pos, neg, parent))))
    return lines


def _run_fig9(config: ExperimentConfig, plan: SlicePlan, profile: ChannelProfile, taps: int, runs_csv) -> list[str]:
    # Only what the summary reads is kept: the positive, then the negative MI
    # of every level, level-major, so that each level's runs are one
    # contiguous row and one reduce sums every row pairwise, as np.mean would.
    kept = np.empty((2, config.depth, config.num_runs))

    def keep(runs: slice, part: ChainMi) -> None:
        kept[0, :, runs], kept[1, :, runs] = part.positive.T, part.negative.T

    residual = _rate_scenario(config, plan, profile, taps, runs_csv, keep)

    lines = _summary_lines(config, plan, taps, residual)
    lines.append("level,child_size,mean_mi_positive,mean_mi_negative,branch_gap_rel")
    means = np.add.reduce(kept, axis=-1) / config.num_runs
    for level, (pos, neg) in enumerate(zip(*means.tolist()), 1):
        gap = abs(pos - neg) / max(pos, neg) if max(pos, neg) > 0 else 0.0
        lines.append(
            f"{level},{config.n_fft >> level},{_fmt(pos)},{_fmt(neg)},{_fmt(gap)}"
        )
    return lines


def _table_head(size: int, depth: int, mode: str, rho: float, total: float) -> str:
    """First line of the per-slice table in a fig4 or table1 summary."""
    return f"frame_size={size} depth={depth} mode={mode} rho={rho:.6g} total_mi_bits={total:.6f}"


def _run_fig4(
    config: ExperimentConfig, plan: SlicePlan, profile: ChannelProfile, taps: int, runs_csv, report_csv
) -> list[str]:
    # One run makes one chunk, so its ChainMi is kept as it is: no later
    # chunk overwrites the buffers it views.
    parts: list[ChainMi] = []
    max_residual = _rate_scenario(config, plan, profile, taps, runs_csv, lambda runs, part: parts.append(part))
    (chain,) = parts
    # Each slice with the residual of the split that made it, at level
    # len(path); the whole frame of a depth-0 plan has none.
    residual = [0.0] + chain.residual()[0].tolist()
    records = [
        (len(s.path), s.path, s.size, config.mode, mi_bits, residual[len(s.path)])
        for s, mi_bits in zip(plan.slices, chain.slice_mi()[0].tolist())
    ]
    report_csv.write(_rows(_REPORT_ROW, len(records), *zip(*records)))

    total = float(chain.total[0])
    lines = _summary_lines(config, plan, taps, max_residual)
    lines.append(f"total_mi_bits={_fmt(total)}")
    lines.append(_table_head(config.n_fft, config.depth, config.mode, config.snr, total))
    lines.append(f"{'path':>12} {'size':>6} {'mi_bits':>14} {'residual':>12}")
    lines += [f"{path:>12} {size:>6} {mi_bits:>14.6f} {res:>12.3e}" for _, path, size, _, mi_bits, res in records]
    if plan.non_uniform:
        lines.append(
            f"note: channel ({taps} taps) outgrows the smallest slice ({config.n_fft >> config.depth}); "
            "splitting is non-uniform at the deep levels"
        )
    return lines


def _run_table1(config: ExperimentConfig, plan: SlicePlan, profile: ChannelProfile, taps: int, report_csv) -> list[str]:
    """Split the deepest positive slice of the plan all the way down to size
    1, and report both children of every level in both modes, with the
    decode cost of each child size."""
    _, _, (run_taps,) = next(_drawn_chunks(config, profile, taps, 1))
    generator = np.zeros(config.n_fft, dtype=np.complex128)
    generator[:taps] = run_taps
    for _ in range(config.depth):
        generator = positive_child(generator)
    size = generator.size
    depth = size.bit_length() - 1
    chains = {mode: chain_mi(generator, size, depth, config.snr, mode) for mode in (MODE_EXACT, MODE_LITERAL)}
    sizes = [size >> level for level in range(1, depth + 1)]
    records = [
        (level, path, size, mode, mi_bits, res)
        for mode, chain in chains.items()
        for level, size, pos, neg, res in zip(
            range(1, depth + 1), sizes, chain.positive.tolist(), chain.negative.tolist(), chain.residual().tolist()
        )
        for path, mi_bits in (("+" * level, pos), ("+" * (level - 1) + "-", neg))
    ]
    report_csv.write(_rows(_REPORT_ROW, len(records), *zip(*records)))

    cost_row = ["2/1" if size == 1 else str(decode_cost("-", size)) for size in sizes]
    table = [["size"] + [str(size) for size in sizes]]
    for mode, chain in chains.items():
        for branch, values in (("mi+", chain.positive), ("mi-", chain.negative)):
            table.append([f"{branch} ({mode})"] + [f"{mi_bits:.4g}" for mi_bits in values.tolist()])
    table.append(["decode_ops"] + cost_row)
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    return [
        f"scenario={config.scenario}",
        f"continuation_root_size={size} (deepest positive slice of a depth-{config.depth} plan)",
        f"seed={config.seed} snr_db={_fmt(config.snr_db)}",
        f"decode_cost_row={','.join(cost_row)}",
        _table_head(size, depth, "both", config.snr, float(chains[MODE_EXACT].total)),
        *("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in table),
        "note: the two modes coincide while the taps fit in the block and diverge below; "
        "per-level sums in literal mode need not match the parent",
    ]


def _run_loopback(config: ExperimentConfig, plan: SlicePlan, profile: ChannelProfile, taps: int, runs_csv) -> list[str]:
    """Transmit, propagate, receive one frame per run; report EVM and errors.

    Runs go through the link in chunks of frames on the batch axis, on one
    ``txrx._LinkBuffers`` made here and bound to the plan and the SNR.
    ``_drawn_chunks`` draws each run's channel from its own stream; the run
    then draws its bits and then its noise from the same stream. Each chunk
    writes its rows of the runs CSV into ``runs_csv`` with one ``_rows``
    call, once it has checked that their EVM is finite: an SNR that passes
    ``_setup`` can still make the noise after the equalizer so large that
    the EVM overflows a float (below about -3020 dB), and that raises
    ValueError instead, with numpy's overflow and invalid-value warnings
    off. The summary's error counts are the slices' totals, summed a chunk
    at a time.
    """
    size = _chunk_runs(config.n_fft, _LinkBuffers.sample_bytes, _LINK_CHUNK_BYTES)
    rows = min(config.num_runs, size)
    link = _LinkBuffers(plan, config.snr, rows)
    num_slices = len(plan.slices)
    evm = np.empty((num_slices, config.num_runs))
    error_buffer = np.empty((num_slices, rows), dtype=np.int64)
    error_totals = np.zeros(num_slices, dtype=np.int64)
    row = _link_row(plan)
    with np.errstate(over="ignore", invalid="ignore"):
        for runs, rngs, chunk_taps in _drawn_chunks(config, profile, taps, size):
            r = len(rngs)
            chunk_evm, chunk_errors = evm[:, runs], error_buffer[:, :r]
            link.run(rngs, chunk_taps, chunk_evm, chunk_errors)
            if not np.isfinite(chunk_evm).all():
                raise ValueError(f"snr_db {config.snr_db} is too small: the link's EVM overflows a float")
            error_totals += np.add.reduce(chunk_errors, axis=-1)
            run_ids = np.arange(runs.start, runs.stop).repeat(num_slices).tolist()
            runs_csv.write(_rows(row, r, run_ids, chunk_evm.T.ravel().tolist(), chunk_errors.T.ravel().tolist()))

    lines = [
        f"scenario={config.scenario} n_fft={config.n_fft} depth={config.depth} "
        f"cp_length={config.cp_length} snr_db={_fmt(config.snr_db)} runs={config.num_runs}",
    ]
    for desc, slice_evm, slice_errors in zip(plan.slices, evm, error_totals.tolist()):
        lines.append(
            f"slice={desc.path or '(whole frame)'} size={desc.size} "
            f"mean_evm={_fmt(float(np.mean(slice_evm)))} symbol_errors={slice_errors}"
        )
    return lines


@dataclass(frozen=True)
class _Scenario:
    """A scenario's runner, its CSV files, its preset and the rules its
    inputs obey. ``files`` maps each file's key to its header line.
    ``run(config, plan, profile, taps, *handles)`` writes the rows into the
    open, headed files of ``files``, in order, and returns the summary."""

    run: Callable[..., list[str]]
    files: dict[str, str]
    preset: dict
    modeless: str = ""  # why a mode would not change it, if it would not
    one_run: bool = False  # it analyses one realization
    noiseless: bool = False  # it allows snr_db = inf: it computes no MI, which has no finite value without noise
    min_depth: int = 0
    splits_further: bool = False  # it splits the plan's deepest positive slice: depth < log2(n_fft)


# Urban channel, sub-6 GHz numerology.
_ETU = dict(n_fft=2048, delta_f_hz=15e3, profile="etu", snr_db=10.0, cp_length=169)
# The CSV headers of the MI runs, the cdf and the per-slice report.
_MI_RUNS = "run_id,slice_path,slice_size,mi_bits,decode_ops"
_CDF = "curve,x,cdf"
_REPORT = "level,path,size,mode,mi_bits,parent_residual"

_SCENARIOS: dict[str, _Scenario] = {
    # One split: distribution of the two branch rates against the ideal half split.
    "fig7": _Scenario(
        functools.partial(_run_rate_cdf, split=0, names=("positive", "negative", "half_total"), gaps=True),
        dict(runs=_MI_RUNS, cdf=_CDF), dict(_ETU, num_runs=500, depth=1), min_depth=1,
    ),
    # Split down to size-1 slices: distribution of the deepest pair against half of their parent.
    "fig8": _Scenario(
        functools.partial(_run_rate_cdf, split=-1, names=("deepest_positive", "deepest_negative", "half_parent")),
        dict(runs=_MI_RUNS, cdf=_CDF), dict(_ETU, num_runs=500, depth=11), min_depth=1,
    ),
    # Pedestrian channel at mmWave-style numerology, full chain, averaged MI and latency rank per slice.
    "fig9": _Scenario(
        _run_fig9, dict(runs=_MI_RUNS),
        dict(n_fft=128, delta_f_hz=240e3, profile="epa", snr_db=10.0, num_runs=50, depth=7, cp_length=16),
    ),
    # One seeded realization, three splits: per-slice MI and operation counts.
    "fig4": _Scenario(_run_fig4, dict(runs=_MI_RUNS, report=_REPORT), dict(_ETU, num_runs=1, depth=3), one_run=True),
    # Deep continuation from the deepest positive slice, both MI modes.
    "table1": _Scenario(
        _run_table1, dict(report=_REPORT), dict(_ETU, num_runs=1, depth=3),
        modeless="it always reports both modes", one_run=True, splits_further=True,
    ),
    # End-to-end transmit/receive sanity loop.
    "loopback": _Scenario(
        _run_loopback, dict(runs="run_id,slice_path,evm,symbol_errors"), dict(_ETU, snr_db=30.0, num_runs=10, depth=3),
        modeless="it runs the link and computes no MI", noiseless=True,
    ),
}

PRESETS: dict[str, dict] = {name: entry.preset for name, entry in _SCENARIOS.items()}
