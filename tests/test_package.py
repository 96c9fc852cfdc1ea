import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _loaded_by_import(module: str) -> bool:
    """Whether a fresh ``import physlice`` loads ``module``."""
    result = subprocess.run(
        [sys.executable, "-c", f"import physlice, sys; print({module!r} in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip() == "True"


def test_import_never_loads_scipy():
    """The runtime is numpy only; scipy serves the tests as an oracle."""
    assert not _loaded_by_import("scipy")


def test_import_never_loads_numpy_random():
    """The run streams import numpy.random on a scenario's first run, not at
    ``import physlice``: it adds about 6 MB and 25 ms to the import, and a
    process's peak memory would move with the order of its imports."""
    assert not _loaded_by_import("numpy.random")


def test_scenarios_run_without_a_thread_pool(tmp_path):
    """Chunks of runs run serially: neither the import nor a run of any
    scenario loads ``concurrent.futures``."""
    script = (
        "import sys, physlice\n"
        "from physlice.experiments import PRESETS, make_config, run_scenario\n"
        "assert 'concurrent.futures' not in sys.modules, 'import'\n"
        "for scenario, preset in PRESETS.items():\n"
        "    runs = min(2, preset['num_runs'])\n"
        "    run_scenario(make_config(scenario, num_runs=runs, workers=2, output_dir=sys.argv[1]))\n"
        "    assert 'concurrent.futures' not in sys.modules, scenario\n"
    )
    subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True,
    )


def test_readme_tour_runs_as_written():
    """The README's Python block runs against the package, and the shapes
    and figures its comments state hold."""
    readme = ROOT / "README.md"
    (tour,) = re.findall(r"```python\n(.*?)```", readme.read_text(), flags=re.S)
    names: dict = {}
    exec(compile(tour, str(readme), "exec"), names)
    assert names["report"].max_residual_rel() < 1e-12
    assert names["report"].slice_mi().shape == (4,)
    assert names["chain"].slice_mi().shape == (4, 4)
    assert names["taps"].shape == (4, 155)
    assert names["frames"].body.shape == (4, 2048)
    assert names["payload"].frames.shape == (2048,)
    assert names["estimates"].frames.shape == names["estimates"].erasures.shape == (4, 2048)
    assert [s.shape for s in names["estimates"].symbols] == [(4, 256), (4, 256), (4, 512), (4, 1024)]
    assert names["bits_hat"].shape == (2 * 2048,)


def test_dense_oracles_live_only_in_the_tests():
    """The dense matrices are test oracles (``tests/oracles.py``): neither
    the package nor any of its modules defines one. A channel is its taps
    and an SNR its linear rho, and a cdf is its sorted samples: no wrapper
    type of any, nor the builder of one, is left in the package or any
    ``__all__``."""
    import physlice

    names = [f"physlice.{info.name}" for info in pkgutil.iter_modules(physlice.__path__)]
    modules = [physlice] + [importlib.import_module(name) for name in names]
    moved = ("mi_logdet", "split_matrix", "recursive_matrix", "_recursive_dense", "extract_blocks")
    retired = ("SnrSpec", "CirculantChannel", "build_circulant", "EmpiricalCdf", "empirical_cdf")
    for module in modules:
        for name in moved + retired + ("_LOGDET_CAP", "_DENSE_CAP"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
        assert not set(moved + retired) & set(getattr(module, "__all__", ())), module.__name__


def test_scenario_names_appear_only_in_the_scenario_table():
    """Every per-scenario rule, file and runner is an entry of
    ``experiments._SCENARIOS``: outside it, no string of the package (bar
    docstrings) names a scenario, as a whole or as a word of a path."""
    from physlice.experiments import PRESETS

    name = re.compile(r"(?<![A-Za-z0-9])(%s)(?![A-Za-z0-9])" % "|".join(PRESETS))
    tables = 0
    for path in sorted((SRC / "physlice").glob("*.py")):
        tree = ast.parse(path.read_text())
        table = range(0)
        for node in tree.body:
            if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "_SCENARIOS":
                table, tables = range(node.lineno, node.end_lineno + 1), tables + 1
        docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        stray = [
            (node.lineno, node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings
            and name.search(node.value) and node.lineno not in table
        ]
        assert not stray, f"{path.name}: {stray}"
    assert tables == 1


def test_only_run_scenario_opens_an_output():
    """``experiments._create`` is the one way the package opens an output,
    and it is named at exactly one site of the package source, a call inside
    ``run_scenario``: no runner opens a file of its own."""
    sites = []
    for path in sorted((SRC / "physlice").glob("*.py")):
        tree = ast.parse(path.read_text())
        owners = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if "_create" in (getattr(node, "id", None), getattr(node, "attr", None)):
                owner = [f.name for f in owners if f.lineno <= node.lineno <= f.end_lineno]
                sites.append((path.name, owner, id(node) in calls))
    assert sites == [("experiments.py", ["run_scenario"], True)]


def test_ci_workflow_loads_and_every_step_runs_something():
    """The workflow is valid YAML (a ``: `` in a plain step name once made
    it invalid), and every step has a short one-line name and a ``run`` or
    a ``uses``."""
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    assert steps
    for step in steps:
        assert isinstance(step.get("name"), str) and "\n" not in step["name"] and len(step["name"]) <= 100, step
        assert "run" in step or "uses" in step, step["name"]


def test_ci_replay_table_names_each_directory_once_and_every_config_validates():
    """Every line of the CI replay table names its own directory, and its
    flags parse with the CLI's parser and pass ``validated()`` (nothing is
    run); ``.gitignore`` keeps the replay directories out of git."""
    yaml = pytest.importorskip("yaml")
    from physlice.cli import build_parser
    from physlice.experiments import make_config

    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    (script,) = [step["run"] for step in steps if "<<'EOF'\n" in step.get("run", "")]
    table = script.split("<<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0]
    rows = [line.split(None, 1) for line in table.splitlines() if line.strip() and not line.startswith("#")]
    names = [name for name, _ in rows]
    assert len(rows) >= 19 and len(set(names)) == len(names), names
    for name, flags in rows:
        try:
            args = build_parser().parse_args(flags.split())
            overrides = {k: v for k, v in vars(args).items() if v is not None and k not in ("scenario", "config")}
            make_config(args.scenario, **overrides).validated()
        except (SystemExit, ValueError) as err:
            pytest.fail(f"replay config {name}: {err!r}")
    assert "replay/" in (ROOT / ".gitignore").read_text().splitlines()


def test_experiments_imports_few_private_names_of_the_kernel_modules():
    """The scenarios reach the kernel modules' internals through a pinned
    list of private names, and the link's through one: its chunk buffers,
    bound to the plan and the SNR, and what they run live in ``txrx``."""
    tree = ast.parse((SRC / "physlice" / "experiments.py").read_text())
    private: dict[str, list[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in ("txrx", "mi", "channel"):
            private.setdefault(node.module, []).extend(a.name for a in node.names if a.name.startswith("_"))
    assert private == {
        "channel": ["_draw_taps_into", "_profile_grid", "_read_key_values"],
        "mi": ["_SCRATCH_SAMPLE_BYTES", "_chain_levels_into", "_scratch"],
        "txrx": ["_LinkBuffers"],
    }
    assert len(private["txrx"]) <= 1
