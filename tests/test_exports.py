"""The package's public names and the names the shipped scripts import.

These checks make a removed or renamed export fail here rather than in a
script run; every script is also run end to end at small sizes, each in
about a second.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sdelab

SCRIPT_DIR = Path(__file__).resolve().parents[1] / "scripts"
SCRIPTS = sorted(SCRIPT_DIR.glob("*.py"))


def _env_with_src() -> dict:
    src = str(Path(sdelab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_all_lists_exactly_the_public_names():
    public = {
        name for name, value in vars(sdelab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(sdelab.__all__) == public
    assert len(sdelab.__all__) == len(set(sdelab.__all__))


def test_every_error_class_is_a_value_error():
    # the CLI turns a ValueError into one error line and exit 2; any other
    # error would escape as a traceback with exit 1, which means "an audit failed"
    errors = []
    for info in pkgutil.iter_modules(sdelab.__path__):
        module = importlib.import_module(f"sdelab.{info.name}")
        errors += [obj for obj in vars(module).values()
                   if isinstance(obj, type) and issubclass(obj, BaseException)
                   and obj.__module__ == module.__name__]
    assert len(errors) >= 9
    assert [e.__name__ for e in errors if not issubclass(e, ValueError)] == []


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_compiles_and_its_sdelab_imports_resolve(path):
    source = path.read_text()
    tree = compile(source, str(path), "exec", flags=ast.PyCF_ONLY_AST)
    compile(tree, str(path), "exec")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sdelab":
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
            node.module.split(".")[0] == "sdelab"
        ):
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not missing, f"{path.name}: {node.module} lacks {missing}"


def test_cli_import_loads_no_interpolate_or_optimize():
    # scipy.interpolate drags scipy.optimize and scipy.fft in with it, about
    # 0.2 s of every command's start-up, for one interpolation sdelab does
    # in numpy
    probe = ("import sys, sdelab.cli; print('\\n'.join(m for m in sys.modules "
             "if m.split('.')[:2] in (['scipy', 'interpolate'], ['scipy', 'optimize'])))")
    run = subprocess.run([sys.executable, "-c", probe], env=_env_with_src(),
                         capture_output=True, text=True, timeout=120, check=True)
    assert run.stdout.split() == []


_SOLVER_STACKS = ("['scipy', 'sparse'], ['scipy', 'linalg'], ['scipy', 'spatial']")


def test_cli_import_loads_no_sparse_linalg_or_spatial():
    # only the density and PDE solves factor a matrix, and they import the
    # sparse stack themselves; no command loads scipy.spatial
    probe = ("import sys, sdelab.cli; print('\\n'.join(m for m in sys.modules "
             f"if m.split('.')[:2] in ({_SOLVER_STACKS})))")
    run = subprocess.run([sys.executable, "-c", probe], env=_env_with_src(),
                         capture_output=True, text=True, timeout=120, check=True)
    assert run.stdout.split() == []


def test_check_and_simulate_run_without_solver_stacks(tmp_path):
    # the path-law leg runs without the solver stacks; density loads them
    probe = f"""
import sys
from sdelab.cli import main

def stacks():
    return sorted(m for m in sys.modules if m.split('.')[:2] in ({_SOLVER_STACKS}))

args = ["--config", {str(SCRIPT_DIR / "example_config.json")!r}, "--out", {str(tmp_path)!r},
        "--workers", "1", "--set", "sim.n_paths=50"]
for sub in ("check", "simulate"):
    assert main([sub] + args) == 0, sub
    assert stacks() == [], (sub, stacks())
assert main(["density"] + args) == 0
assert "scipy.sparse.linalg" in stacks()
"""
    run = subprocess.run([sys.executable, "-c", probe], env=_env_with_src(),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_diagnose_runs_without_spatial(tmp_path):
    # the energy test computes its distance matrix in numpy
    config = SCRIPT_DIR / "example_config.json"
    entries = [e for e in json.loads(config.read_text())["diagnostics"]
               if e["kind"] == "uniqueness"]
    probe = f"""
import sys
from sdelab.cli import main

assert main(["diagnose", "--config", {str(config)!r}, "--out", {str(tmp_path)!r},
             "--workers", "1", "--set", "sim.n_paths=300", "--set", "sim.dt=0.01",
             "--set", {"diagnostics=" + json.dumps(entries)!r}]) == 0
spatial = [m for m in sys.modules if m.split('.')[:2] == ['scipy', 'spatial']]
assert spatial == [], spatial
"""
    run = subprocess.run([sys.executable, "-c", probe], env=_env_with_src(),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert '"name":"energy"' in (tmp_path / "diagnose_0_uniqueness.json").read_text()


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT_DIR / name), *args],
                          env=_env_with_src(), capture_output=True, text=True, timeout=120)


def test_box_refinement_script_runs():
    # the script solves and audits the density on two nested grids
    run = _run_script("box_refinement.py", "--n0", "9", "--levels", "2")
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.splitlines()]
    assert [r[0] for r in rows if r and r[0].isdigit()] == ["9", "17"]


@pytest.mark.parametrize("paths, code, verdict", [
    # 300 paths cannot reject the added drift, so the run fails
    ("300", 1, "NOT rejected"),
    ("2000", 0, "rejected as expected"),
])
def test_uniqueness_script_control_sets_exit_code(paths, code, verdict):
    run = _run_script("uniqueness_experiment.py", "--paths", paths, "--dt", "0.01",
                      "--control")
    assert run.returncode == code, run.stderr
    assert f"negative control (added drift): {verdict}" in run.stdout


def test_weak_order_script_runs():
    run = _run_script("weak_order_study.py", "--paths", "500")
    assert run.returncode == 0, run.stderr
    assert "successive-difference ratio" in run.stdout
