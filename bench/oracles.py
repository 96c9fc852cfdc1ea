"""Closed-form checks of sampled realizations, independent of the program's code path.

Each check replays the sampled runs from their ``default_rng([seed, run_id])``
stream and compares the scenario's output files against a formula that uses
numpy only:

* fold: every slice's exact-fold MI is the sum of log2(1 + rho |H_b|^2) over
  its residue class ``bin_residue::bin_stride`` of the single N-point FFT of
  the taps, and the summary's conservation residual stays below tolerance;
* literal: level k's negative slice is the skew-circulant of ``taps[:s]``
  (s = N / 2^k), whose MI is the FFT of ``taps[:s] * exp(-j pi n / s)``; the
  deepest positive slice is the circulant of ``taps[:s]``;
* link: the frame is rebuilt from its bins, passed through the channel by
  FFT, and the program's equalized slices must equal
  ``(fft(y) / sqrt(N) / H)[bin_residue::bin_stride]``; the CSV's EVM and
  symbol-error columns must match the values recomputed from those.

A check returns ``(run_id, message)`` pairs; ``run_id`` None fails the block.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

RTOL = 1e-9
# Absolute floor, far below any value the scenarios produce, so that an
# exact zero compares equal to a round-off zero.
ATOL = 1e-12

_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / math.sqrt(2.0)


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)


def _residue(path: str) -> int:
    return sum(1 << i for i, branch in enumerate(path) if branch == "-")


def draw_taps(profile, sample_period_ns: float, rng) -> np.ndarray:
    """Replay one channel draw: Rayleigh taps at round(delay / Ts), unit mean power."""
    delays = np.asarray(profile.tap_delays_ns, dtype=float)
    powers = 10.0 ** (np.asarray(profile.tap_powers_db, dtype=float) / 10.0)
    powers /= powers.sum()
    idx = np.rint(delays / sample_period_ns).astype(int)
    real = rng.standard_normal(idx.size)
    imag = rng.standard_normal(idx.size)
    taps = np.zeros(idx.max() + 1, dtype=complex)
    np.add.at(taps, idx, np.sqrt(powers / 2.0) * (real + 1j * imag))
    return taps


def _read_rows(path: Path) -> dict[int, list[dict]]:
    runs: dict[int, list[dict]] = {}
    with Path(path).open(newline="") as fh:
        for row in csv.DictReader(fh):
            runs.setdefault(int(row["run_id"]), []).append(row)
    return runs


def _summary_value(path: Path, key: str) -> float:
    for line in Path(path).read_text().splitlines():
        if line.startswith(key + "="):
            return float(line.split("=", 1)[1])
    raise KeyError(key)


def _rho(config) -> float:
    return 10.0 ** (config.snr_db / 10.0)


def _mi(bins: np.ndarray, rho: float) -> float:
    return float(np.sum(np.log2(1.0 + rho * np.abs(bins) ** 2)))


def _chain_paths(depth: int) -> list[str]:
    """Slice paths of the canonical chain plan in frame order, smallest slice first."""
    return ["+" * depth] + ["+" * (k - 1) + "-" for k in range(depth, 0, -1)]


def _rows_of(runs: dict[int, list[dict]], config, run_id: int, failures: list) -> list[dict]:
    rows = runs.get(run_id, [])
    paths = [row["slice_path"] for row in rows]
    if paths != _chain_paths(config.depth):
        failures.append((run_id, f"slice paths {paths} differ from the chain plan"))
        return []
    return rows


def check_fold(physlice, config, written, run_ids) -> list[tuple[int | None, str]]:
    failures: list[tuple[int | None, str]] = []
    residual = _summary_value(written["summary"], "max_conservation_residual_rel")
    if not residual <= RTOL:
        failures.append((None, f"conservation residual {residual} exceeds {RTOL}"))
    runs = _read_rows(written["runs"])
    profile = config.resolve_profile()
    rho = _rho(config)
    for run_id in run_ids:
        rows = _rows_of(runs, config, run_id, failures)
        taps = draw_taps(profile, config.sample_period_ns, np.random.default_rng([config.seed, run_id]))
        spectrum = np.fft.fft(taps, config.n_fft)
        for row in rows:
            path = row["slice_path"]
            want = _mi(spectrum[_residue(path) :: 1 << len(path)], rho)
            if not _close(float(row["mi_bits"]), want):
                failures.append((run_id, f"slice {path!r}: mi {row['mi_bits']} != bin-law {want!r}"))
    return failures


def check_literal(physlice, config, written, run_ids) -> list[tuple[int | None, str]]:
    failures: list[tuple[int | None, str]] = []
    runs = _read_rows(written["runs"])
    profile = config.resolve_profile()
    rho = _rho(config)
    for run_id in run_ids:
        rows = _rows_of(runs, config, run_id, failures)
        taps = draw_taps(profile, config.sample_period_ns, np.random.default_rng([config.seed, run_id]))
        for row in rows:
            path = row["slice_path"]
            s = config.n_fft >> len(path)
            head = np.zeros(s, dtype=complex)
            head[: min(s, taps.size)] = taps[:s]
            if path.endswith("-"):
                head = head * np.exp(-1j * np.pi * np.arange(s) / s)
            want = _mi(np.fft.fft(head), rho)
            if not _close(float(row["mi_bits"]), want):
                failures.append((run_id, f"slice {path!r}: mi {row['mi_bits']} != closed form {want!r}"))
    return failures


def _max_rel_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(want))), ATOL)
    return float(np.max(np.abs(got - want))) / scale


def check_link(physlice, config, written, run_ids) -> list[tuple[int | None, str]]:
    failures: list[tuple[int | None, str]] = []
    runs = _read_rows(written["runs"])
    profile = config.resolve_profile()
    n = config.n_fft
    paths = _chain_paths(config.depth)
    plan = physlice.sliceplan.build_plan(n, config.depth, config.cp_length)
    for run_id in run_ids:
        rows = _rows_of(runs, config, run_id, failures)
        if not rows:
            continue

        # Replay the program on this run's stream.
        rng = np.random.default_rng([config.seed, run_id])
        cir = physlice.channel.sample_cir(profile, config.sample_period_ns, rng)
        bits = rng.integers(0, 2, size=2 * n)
        payload = physlice.txrx.modulate(bits, plan)
        y = physlice.txrx.propagate(physlice.txrx.transmit(payload, plan), cir, snr=config.snr, rng=rng)
        estimate = physlice.txrx.receive(y, plan, cir)

        # The same run from the formulas: slice k carries the bins of its
        # residue class, in order, and the channel multiplies bin b by H_b.
        rng = np.random.default_rng([config.seed, run_id])
        taps = draw_taps(profile, config.sample_period_ns, rng)
        bits = rng.integers(0, 2, size=(n, 2))
        sent = _QPSK[2 * bits[:, 0] + bits[:, 1]]
        classes = [slice(_residue(path), n, 1 << len(path)) for path in paths]
        spectrum = np.zeros(n, dtype=complex)
        offset = 0
        for bins in classes:
            size = len(range(n)[bins])
            spectrum[bins] = sent[offset : offset + size]
            offset += size
        gains = np.fft.fft(taps, n)
        noise = math.sqrt(1.0 / (2.0 * _rho(config))) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        want_y = np.fft.ifft(spectrum * gains) * math.sqrt(n) + noise
        error = _max_rel_error(y, want_y)
        if error > RTOL:
            failures.append((run_id, f"received frame differs from the bin construction by {error:.3g}"))
        equalized = np.fft.fft(y) / math.sqrt(n) / gains

        for path, bins, got, row in zip(paths, classes, estimate.symbols, rows):
            want = equalized[bins]
            sent_slice = spectrum[bins]
            if _max_rel_error(got, want) > RTOL:
                failures.append((run_id, f"slice {path!r}: estimates off the one-tap closed form"))
            evm = math.sqrt(np.mean(np.abs(want - sent_slice) ** 2) / np.mean(np.abs(sent_slice) ** 2))
            nearest = (np.where(want.real < 0, -1, 1) + 1j * np.where(want.imag < 0, -1, 1)) / math.sqrt(2.0)
            errors = int(np.count_nonzero(nearest != sent_slice))
            if not _close(float(row["evm"]), evm):
                failures.append((run_id, f"slice {path!r}: CSV evm {row['evm']} != {evm!r}"))
            if int(row["symbol_errors"]) != errors:
                failures.append((run_id, f"slice {path!r}: CSV symbol errors {row['symbol_errors']} != {errors}"))
    return failures


CHECKS = {"fold": check_fold, "literal": check_literal, "link": check_link}
