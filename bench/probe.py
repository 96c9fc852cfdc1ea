"""A fresh process that imports physlice (with numpy and scipy), runs one tiny
warm-up scenario of a workload and reports ready; then, when asked for runs,
runs one full-length scenario of the workload and reports its memory.

    python3 bench/probe.py <workload> <seed> <output-dir> <runs>

``run.py`` times this process from its start to the ``ready`` line (the
set-up time). With ``runs`` above 0 the last line is ``<warm> <peak>``, the
process's ``ru_maxrss`` in KiB after the warm-up and after the scenario.
"""

import resource
import sys
from pathlib import Path

from workloads import WORKLOADS, load_physlice, warm_up


def max_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv) -> int:
    name, seed, output_dir, runs = argv
    workload, physlice = WORKLOADS[name], load_physlice()
    warm_up(physlice, workload, int(seed), Path(output_dir))
    print("ready", flush=True)
    if int(runs) > 0:
        warm = max_rss_kib()
        physlice.experiments.run_scenario(workload.config(physlice, int(seed), int(runs), Path(output_dir)))
        print(warm, max_rss_kib(), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
