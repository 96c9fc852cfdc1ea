import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_never_loads_scipy():
    """The runtime is numpy only; scipy serves the tests as an oracle."""
    result = subprocess.run(
        [sys.executable, "-c", "import physlice, sys; print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"


def test_scenarios_run_without_a_thread_pool(tmp_path):
    """Chunks of runs run serially: neither the import nor a run of any
    scenario loads ``concurrent.futures``."""
    script = (
        "import sys, physlice\n"
        "from physlice.experiments import PRESETS, make_config, run_scenario\n"
        "assert 'concurrent.futures' not in sys.modules, 'import'\n"
        "for scenario in PRESETS:\n"
        "    run_scenario(make_config(scenario, num_runs=2, workers=2, output_dir=sys.argv[1]))\n"
        "    assert 'concurrent.futures' not in sys.modules, scenario\n"
    )
    subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
    )
