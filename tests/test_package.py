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
