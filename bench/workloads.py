"""Workload table of the benchmark and the import of physlice from the checkout.

Every workload is a closed loop from one process: a block is one
``run_scenario`` call of ``block_runs`` realizations, and the next block
starts only after the previous one has returned and been checked.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (for example, no source tree)."""


def load_physlice():
    """Import physlice from the checkout's ``src`` tree and nowhere else."""
    if not (SRC / "physlice" / "__init__.py").is_file():
        raise SetupError(f"no physlice source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import physlice

    origin = Path(physlice.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"physlice was imported from {origin}, not from {SRC}")
    return physlice


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    # Overrides on top of the scenario preset.
    overrides: tuple[tuple[str, object], ...]
    # Realizations per timed block, sized so one block takes about 0.1 s.
    block_runs: int
    # Realizations of the one untimed full-length scenario whose peak memory
    # is reported, sized so it takes about 2 s; a scenario keeps every
    # report in memory, so its peak grows with this count.
    rss_runs: int
    # Name of the closed-form check in ``oracles``.
    oracle: str

    def config(self, physlice, seed: int, num_runs: int, output_dir: Path, workers: int = 1):
        return physlice.experiments.make_config(
            self.scenario, seed=seed, num_runs=num_runs, output_dir=str(output_dir),
            workers=workers, **dict(self.overrides),
        )


# fig8 with workers = nproc is not a timed workload of its own: its
# throughput follows whatever else runs on the other core, and on a shared
# 2-core host its run-to-run spread (8-12 %) stays above what the bounds
# allow. Every workload instead replays sampled blocks on the thread pool,
# outside the timed region (``run.pool_replay``).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="mi-fold-etu2048", scenario="fig8", overrides=(), block_runs=100, rss_runs=2000, oracle="fold"),
        Workload(name="link-etu2048", scenario="loopback", overrides=(), block_runs=60, rss_runs=1500, oracle="link"),
        Workload(
            name="mi-literal-epa128",
            scenario="fig9",
            overrides=(("mode", "literal-triangular"),),
            block_runs=50,
            rss_runs=1000,
            oracle="literal",
        ),
    )
}


def warm_up(physlice, workload: Workload, seed: int, output_dir: Path) -> None:
    """One tiny untimed scenario that pays for lazy FFT and LAPACK set-up."""
    physlice.experiments.run_scenario(workload.config(physlice, seed, 1, output_dir))
