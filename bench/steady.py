"""Steadiness report: repeated runs of every workload, in sets.

    python3 bench/steady.py [--sets 2] [--repeats 10]

Runs ``run.py --trace 0`` for ``run_seconds`` once per (set, repeat,
workload) of ``BENCHMARK.json``, each run with its own seed, taking the workloads in turn so that a slow phase of the host falls
on all of them. For each end-to-end metric of ``BENCHMARK.json`` it prints
every set's median and quartiles, the spread (q3 - q1) / median against the
metric's bound, and how far each later set's median moved from the first
set's in the metric's worse direction; then ``fail_frac``, failed over
attempted realizations. With ``--sets 1 --repeats 1`` it is one command that
prints every end-to-end metric of every workload, with units.

A metric is steady when every set's spread is below a third of its bound and
no later set's median is worse than the first set's by more than the bound.
``setup_s`` is held to its median only, as the bound allows for the host's
speed phases, which set-up time cannot be normalised against; its spread is
printed and marked when above a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} exited with {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=10)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in benchmark["workloads"]]

    results = {(w, s): [] for w in workloads for s in range(args.sets)}
    for s in range(args.sets):
        for r in range(args.repeats):
            for w in workloads:
                seed = 1000 * (s + 1) + r
                result = run_once(w, seed, benchmark["run_seconds"])
                results[w, s].append(result)
                values = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
                print(f"# set {s} seed {seed} {w}: {values} failed={result['failed']}/{result['attempted']}", flush=True)

    steady = True
    print(f"{'workload':<20} {'metric':<14} {'unit':<10} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>5} {'shift':>7}")
    for w in workloads:
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for s in range(args.sets):
                q1, median, q3 = quartiles([r["metrics"][name]["value"] for r in results[w, s]])
                spread = (q3 - q1) / median
                first = median if first is None else first
                shift = (median - first) / first * (1 if metric["better"] == "lower" else -1)
                wide = spread >= bound / 3
                ok = shift <= bound and (name == "setup_s" or not wide)
                steady &= ok
                note = "  <- not steady" if not ok else "  (spread above bound/3)" if wide else ""
                print(f"{w:<20} {name:<14} {metric['unit']:<10} {s:>3} {median:>10.5g} {q1:>10.5g} {q3:>10.5g} "
                      f"{spread:>7.4f} {bound:>5} {shift:>7.4f}{note}")
        failed = sum(r["failed"] for s in range(args.sets) for r in results[w, s])
        attempted = sum(r["attempted"] for s in range(args.sets) for r in results[w, s])
        print(f"{w:<20} {'fail_frac':<14} {'fraction':<10} {'all':>3} {failed / attempted:>10.5g}  ({failed} of {attempted})")
        steady &= failed == 0
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
