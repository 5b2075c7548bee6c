"""Start-up stays cheap; each import check runs in a fresh interpreter.

Every ``gaugekit`` command is one process, so what the package imports
and compiles at start-up is paid on every run. The records are built
without ``dataclasses`` (which compiles each generated method from source
text and imports ``inspect``), ``import gaugekit`` loads no submodule,
and the CLI loads ``cov`` and ``variation`` only for the commands that
use them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the set-up probe of the benchmark (bench/run.py)
PROBE = (
    "import gaugekit; from gaugekit import cov, funcs; "
    "funcs.catalog(); cov.instances()"
)

# Counts compile events of source that is not a file on disk: generated
# code. What is left comes from typing.NamedTuple (core.Item,
# core.Violation) and decimal's own namedtuple; the dataclass records made
# about 160.
COUNT_COMPILES = """
import os, sys
compiles = []
def hook(event, args):
    if event == "compile" and not (isinstance(args[1], str) and os.path.isfile(args[1])):
        compiles.append(args[1])
sys.addaudithook(hook)
{probe}
print(len(compiles))
"""
MAX_GENERATED_COMPILES = 16


def python(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("GAUGEKIT_DEPTH_CAP", None)
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_loads_no_submodule():
    out = python("-c", "import sys, gaugekit; print(sorted("
                 "m for m in sys.modules if m.startswith('gaugekit.')))").stdout
    assert out.strip() == "[]"


def test_probe_loads_neither_dataclasses_nor_inspect():
    out = python("-c", PROBE + "; import sys; "
                 "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])").stdout
    assert out.strip() == "[]"


def test_neither_the_probe_nor_core_loads_csv():
    # only the commands that write a CSV import it
    for code in (PROBE, "import gaugekit.core"):
        out = python("-c", code + "; import sys; print('csv' in sys.modules)").stdout
        assert out.strip() == "False", code


def test_probe_compiles_little_generated_source():
    count = int(python("-c", COUNT_COMPILES.format(probe=PROBE)).stdout)
    assert count <= MAX_GENERATED_COMPILES


def test_package_neither_generates_code_nor_imports_dataclasses():
    for path in sorted((SRC / "gaugekit").glob("*.py")):
        tree = ast.parse(path.read_text())
        called = {node.func.id for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module}
        assert not called & {"exec", "eval", "compile"}, path.name
        assert "dataclasses" not in imported, path.name


def test_package_keeps_no_module_state_behind_global():
    # every cap and setting travels as a value; nothing rebinds a module name
    found = {}
    for path in sorted((SRC / "gaugekit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Global):
                found.setdefault(path.name, []).append(node.lineno)
    assert not found, f"global statements (module: lines): {found}"


def _imported(stderr):
    """Module names from ``python -X importtime`` lines."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def test_only_the_commands_that_use_cov_load_it(tmp_path):
    variation = python(
        "-X", "importtime", "-m", "gaugekit.cli", "variation", "--fn", "cantor",
        "--set", "C", "--domain", "0", "1", "--eps", "1e-1", "--samples", "2",
        "--seed", "1", "--out", "variation.json", cwd=tmp_path)
    loaded = _imported(variation.stderr)
    assert "gaugekit.variation" in loaded
    assert "gaugekit.cov" not in loaded
    ftc = python(
        "-X", "importtime", "-m", "gaugekit.cli", "ftc", "--fn", "square",
        "--domain", "-1", "1", "--eps", "1e-1", "--samples", "2", "--seed", "1",
        "--out", "ftc.json", cwd=tmp_path)
    assert "gaugekit.cov" in _imported(ftc.stderr)


def test_only_the_commands_that_use_variation_load_it(tmp_path):
    catalog = python("-X", "importtime", "-m", "gaugekit.cli", "catalog", cwd=tmp_path)
    assert "gaugekit.variation" not in _imported(catalog.stderr)
    integrate = python(
        "-X", "importtime", "-m", "gaugekit.cli", "integrate", "--fn", "linear",
        "--domain", "0", "1", "--eps", "1e-1", "--seed", "1", cwd=tmp_path)
    assert "gaugekit.variation" not in _imported(integrate.stderr)
    variation = python(
        "-X", "importtime", "-m", "gaugekit.cli", "variation", "--fn", "identity",
        "--set", "empty", "--domain", "0", "1", "--eps", "1e-1", "--samples", "1",
        "--seed", "1", cwd=tmp_path)
    assert "gaugekit.variation" in _imported(variation.stderr)
