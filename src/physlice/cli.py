"""Command-line front end for the scenario presets."""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields

from .experiments import PRESETS, ExperimentConfig, load_config_file, make_config, run_scenario
from .mi import MODE_EXACT, MODE_LITERAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="physlice",
        description="Slice an OFDM symbol at the physical layer and run the scenario presets.",
    )
    parser.add_argument("--scenario", choices=sorted(PRESETS), help="scenario preset to run")
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--n-fft", type=int, dest="n_fft")
    parser.add_argument("--delta-f", type=float, dest="delta_f_hz", help="subcarrier spacing in Hz")
    parser.add_argument("--profile", help="builtin profile name (etu, epa) or a profile file")
    parser.add_argument("--snr-db", type=float, dest="snr_db", help="SNR in dB ('inf' for noiseless)")
    parser.add_argument("--runs", type=int, dest="num_runs")
    parser.add_argument("--depth", type=int, help="number of splits")
    parser.add_argument("--cp", type=int, dest="cp_length", help="cyclic prefix length in samples")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--mode", choices=[MODE_EXACT, MODE_LITERAL])
    parser.add_argument("--out", dest="output_dir", help="output directory (default: $PHYSLICE_OUT or ./physlice-out)")
    parser.add_argument("--workers", type=int, help="accepted, but runs are serial: changes neither output nor speed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Every flag's dest is the name of the config field it sets.
    flags = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig) if getattr(args, f.name) is not None}
    try:
        merged = {**(load_config_file(args.config) if args.config else {}), **flags}
        scenario = merged.pop("scenario", None)
        if scenario is None:
            raise ValueError("no scenario given (use --scenario or a config file with scenario=...)")
        merged.setdefault("output_dir", os.environ.get("PHYSLICE_OUT", "physlice-out"))
        config = make_config(scenario, **merged)
        started = time.perf_counter()
        written = run_scenario(config)
        elapsed = time.perf_counter() - started
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for name, path in written.items():
        print(f"{name}: {path}")
    print(f"elapsed_s: {elapsed:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
