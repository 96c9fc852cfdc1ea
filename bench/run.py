"""Closed-loop Monte Carlo benchmark of physlice scenarios.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One process runs one workload: blocks of ``run_scenario`` calls, one after
another, until ``--seconds`` have passed. Each block is bracketed by a fixed
reference kernel (numpy's unnormalised 2048-point complex FFT, timed right
before and right after it), and throughput is reported as realizations per
1000 reference iterations, which cancels most of the host's speed phases.
Sampled realizations of every block are checked against closed-form oracles,
and every few blocks are replayed on the thread pool and compared byte for
byte, all outside the timed region. Before the blocks, an untraced run times
fresh processes to their first warm result (set-up) and takes the peak
memory of one fresh process that runs a full-length scenario of the
workload. With ``--trace 1`` every other block runs with
spans around each physlice module's public functions, and the per-layer
metrics come from those blocks.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the run record, with the machine,
every block and every failure, goes to ``.bench_run/``. The exit code is 1
when any realization fails and 2 when the checkout cannot run the benchmark.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from oracles import CHECKS
from tracing import Tracer, layer_metrics
from workloads import ROOT, RUN_DIR, SRC, WORKLOADS, SetupError, load_physlice, nproc, warm_up

# Reference kernel: iterations of an unnormalised 2048-point complex FFT,
# timed right before and right after every block.
REF_SIZE = 2048
REF_ITERATIONS = 300
# Set-up samples per run, each a fresh process; the median is reported.
SETUP_SAMPLES = 15
PROBE = Path(__file__).with_name("probe.py")
# Realizations of every block checked against the oracles.
ORACLE_SAMPLES = 3
# A block's scenario seed is seed * SEED_STRIDE + block index.
SEED_STRIDE = 100_000
# Every POOL_EVERY-th block, starting at block POOL_EVERY - 1, is replayed
# with workers = nproc; these are never traced blocks.
POOL_EVERY = 4
# A run measures at least this many blocks, however short ``--seconds`` is.
MIN_BLOCKS = 4
# Units of the figures printed and recorded beside those of BENCHMARK.json.
UNGATED_UNITS = {
    "fail_frac": "fraction",
    "runs_per_s": "1/s",
    "machine.ref_fft_per_s": "1/s",
    "peak_rss_growth_mb": "MB",
    "trace.overhead": "ratio",
}


@dataclass
class Block:
    index: int
    seed: int
    traced: bool
    runs: int
    block_s: float
    ref_s: float
    failed: int
    bytes_written: int
    pool_s: float | None

    @property
    def runs_per_kref(self) -> float:
        return self.runs / self.block_s * 1000 * self.ref_s / (2 * REF_ITERATIONS)


class ReferenceKernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal(REF_SIZE) + 1j * rng.standard_normal(REF_SIZE)

    def seconds(self) -> float:
        fft, x = np.fft.fft, self.x
        start = perf_counter()
        for _ in range(REF_ITERATIONS):
            fft(x)
        return perf_counter() - start


def probe(workload, seed: int, out: Path, runs: int = 0) -> tuple[float, list[int]]:
    """Run ``probe.py`` in a fresh process: seconds from its start to its
    ready line, and the numbers it prints after that."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(PROBE), workload.name, str(seed), str(out), str(runs)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    ) as child:
        line = child.stdout.readline().strip()
        elapsed = perf_counter() - start
        rest = child.stdout.read().split()
    if child.returncode != 0 or line != "ready":
        raise SetupError(f"probe exited with {child.returncode}")
    return elapsed, [int(value) for value in rest]


def blas_threads() -> int | None:
    """OpenBLAS thread count of the library numpy loaded, when it can be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        try:
            get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        return int(get())
    return None


def machine_record(physlice) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "physlice": physlice.__version__,
        "blas": blas.get("openblas configuration", blas.get("name")),
        "blas_threads": blas_threads(),
        "blas_threads_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
    }


def sample_runs(block_seed: int, runs: int) -> list[int]:
    picks = {0, runs - 1, random.Random(block_seed).randrange(runs)}
    return sorted(picks)[:ORACLE_SAMPLES]


def pool_replay(physlice, workload, config, written, out: Path) -> tuple[float, str | None]:
    """Re-run a block with workers = nproc; its files must match byte for byte."""
    pooled = workload.config(physlice, config.seed, config.num_runs, out, workers=nproc())
    start = perf_counter()
    replayed = physlice.experiments.run_scenario(pooled)
    elapsed = perf_counter() - start
    for key, path in written.items():
        if Path(path).read_bytes() != Path(replayed[key]).read_bytes():
            return elapsed, f"{Path(path).name} differs between 1 and {pooled.workers} workers"
    return elapsed, None


def run_blocks(physlice, workload, seed: int, seconds: float, tracer: Tracer | None, out: Path):
    ref = ReferenceKernel()
    check = CHECKS[workload.oracle]
    blocks: list[Block] = []
    failures: list[str] = []
    deadline = perf_counter() + seconds
    while len(blocks) < MIN_BLOCKS or perf_counter() < deadline:
        index = len(blocks)
        block_seed = seed * SEED_STRIDE + index
        traced = tracer is not None and index % 2 == 0
        config = workload.config(physlice, block_seed, workload.block_runs, out / "block")
        ref_s = ref.seconds()
        if traced:
            tracer.run = index
            tracer.install()
        start = perf_counter()
        try:
            written = physlice.experiments.run_scenario(config)
        except Exception:
            written = None
            error = traceback.format_exc()
        finally:
            block_s = perf_counter() - start
            if traced:
                tracer.uninstall()
        ref_s += ref.seconds()

        failed: set[int] = set()
        pool_s = None
        if written is None:
            failed.update(range(config.num_runs))
            failures.append(f"block {index}: {error}")
        else:
            for run_id, message in check(physlice, config, written, sample_runs(block_seed, config.num_runs)):
                failed.update(range(config.num_runs) if run_id is None else (run_id,))
                failures.append(f"block {index} run {run_id}: {message}")
            if index % POOL_EVERY == POOL_EVERY - 1:
                pool_s, mismatch = pool_replay(physlice, workload, config, written, out / "pool")
                if mismatch:
                    failed.update(range(config.num_runs))
                    failures.append(f"block {index}: {mismatch}")
        blocks.append(
            Block(
                index=index,
                seed=block_seed,
                traced=traced,
                runs=config.num_runs,
                block_s=block_s,
                ref_s=ref_s,
                failed=len(failed),
                bytes_written=sum(Path(p).stat().st_size for p in written.values()) if written else 0,
                pool_s=pool_s,
            )
        )
    return blocks, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workload = WORKLOADS[args.workload]
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    out = RUN_DIR / label

    try:
        if not (ROOT / "BENCHMARK.json").is_file():
            raise SetupError(f"no BENCHMARK.json in {ROOT}")
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        spec = {m["name"]: m for m in benchmark["per_layer" if args.trace else "end_to_end"]}
        units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]} | UNGATED_UNITS
        physlice = load_physlice()
        shutil.rmtree(out, ignore_errors=True)
        setup: list[float] = []
        if not args.trace:
            setup = [probe(workload, args.seed, out / "setup")[0] for _ in range(SETUP_SAMPLES)]
            # Peak memory of a process that runs one full-length scenario.
            _, (warm_kib, peak_kib) = probe(workload, args.seed, out / "rss", workload.rss_runs)
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    warm_up(physlice, workload, args.seed, out / "warm")
    tracer = Tracer(physlice) if args.trace else None
    blocks, failures = run_blocks(physlice, workload, args.seed, args.seconds, tracer, out)
    shutil.rmtree(out, ignore_errors=True)

    attempted = sum(b.runs for b in blocks)
    failed = sum(b.failed for b in blocks)
    plain = [b for b in blocks if not b.traced]
    pooled = [b for b in blocks if b.pool_s]
    measured = {
        "runs_per_kref": statistics.median(b.runs_per_kref for b in plain),
        "fail_frac": failed / attempted,
        "runs_per_s": statistics.median(b.runs / b.block_s for b in plain),
        "machine.ref_fft_per_s": statistics.median(2 * REF_ITERATIONS / b.ref_s for b in blocks),
        # Serial block time over the same block's time on the pool: below 1
        # means the pool makes the scenario slower.
        "experiments.pool_speedup": statistics.median(b.block_s / b.pool_s for b in pooled) if pooled else 0.0,
    }
    layers = {}
    if tracer is None:
        measured["setup_s"] = statistics.median(setup)
        measured["peak_rss_mb"] = peak_kib / 1024.0
        measured["peak_rss_growth_mb"] = (peak_kib - warm_kib) / 1024.0
    else:
        traced = [b for b in blocks if b.traced]
        realizations = sum(b.runs for b in traced)
        traced_ns = int(sum(b.block_s for b in traced) * 1e9)
        layers = layer_metrics(tracer.spans, tracer.functions, realizations, traced_ns)
        layers["experiments.bytes_written"] = sum(b.bytes_written for b in traced) / realizations
        measured["trace.overhead"] = measured["runs_per_kref"] / statistics.median(b.runs_per_kref for b in traced)
        measured |= {name: value for name, value in layers.items() if name in units}
        RUN_DIR.mkdir(exist_ok=True)
        tracer.write(RUN_DIR / f"trace-{label}.jsonl.gz")

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {**machine_record(physlice), "ref_fft_per_s": measured["machine.ref_fft_per_s"]},
        "setup_s_samples": setup,
        "blocks": [asdict(b) | {"runs_per_kref": b.runs_per_kref} for b in blocks],
        "failures": failures,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in measured.items()},
        "layers": layers,
    }
    RUN_DIR.mkdir(exist_ok=True)
    (RUN_DIR / f"record-{label}.json").write_text(json.dumps(record, indent=1) + "\n")

    for message in failures[:20]:
        print(f"FAIL {message}", file=sys.stderr)
    if tracer is not None:
        print(f"{'function':<40} {'calls/run':>10} {'us/call':>10} {'self_share':>10}")
        for fn in tracer.functions:
            if layers[f"{fn}.calls"]:
                print(f"{fn:<40} {layers[fn + '.calls']:>10.5g} {layers[fn + '.us']:>10.5g} "
                      f"{layers[fn + '.self_share']:>10.4f}")
    for name, value in measured.items():
        print(f"{name:<44} {value:>16.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": measured[name], "unit": m["unit"]} for name, m in spec.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
