"""The scripts under ``scripts/`` call the package's public and private
names directly (``make_symbol("series", ...)``, ``hilbert_symbol()``), so a
renamed or deleted name would break them with no other test noticing.
Every script is compiled, every name it imports from the package is
resolved, and the fast principal-value demo runs to completion."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fockbridge

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def _package_imports(tree: ast.Module):
    """(module, name) for every ``from fockbridge... import name``, and
    (module, None) for every ``import fockbridge...``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fockbridge":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names if a.name.split(".")[0] == "fockbridge")


def test_scripts_exist():
    assert {p.name for p in SCRIPTS} >= {"deriv_accuracy.py", "pv_symbol_demo.py"}


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_compiles_and_its_package_names_resolve(script):
    source = script.read_text(encoding="utf-8")
    tree = compile(source, str(script), "exec", ast.PyCF_ONLY_AST)
    compile(tree, str(script), "exec")
    imports = list(_package_imports(tree))
    assert imports, f"{script.name} imports nothing from fockbridge"
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if name is not None and not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_pv_symbol_demo_runs():
    env = dict(os.environ, PYTHONPATH=str(Path(fockbridge.__file__).parents[1]))
    script = next(p for p in SCRIPTS if p.name == "pv_symbol_demo.py")
    proc = subprocess.run(
        [sys.executable, "-B", str(script)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "worst disagreement" in proc.stdout


def test_check_memory_reports_one_row_per_check():
    from fockbridge.verify import suite_names

    env = dict(os.environ, PYTHONPATH=str(Path(fockbridge.__file__).parents[1]))
    script = next(p for p in SCRIPTS if p.name == "check_memory.py")
    proc = subprocess.run(
        [sys.executable, "-B", str(script), "bargmann", "3"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, after_import, *rows = proc.stdout.splitlines()
    assert header.split() == [
        "check", "traced", "peak", "MiB", "max", "RSS", "MB", "after", "modules", "loaded",
    ]
    assert after_import.startswith("(after import)")
    assert [r.split()[0] for r in rows] == suite_names("bargmann")
    for row in rows:
        peak, rss, *loaded = row.split()[1:]
        assert float(peak) >= 0.0 and float(rss) > 0.0 and loaded


def test_route_audit_reports_one_row_per_identity():
    env = dict(os.environ, PYTHONPATH=str(Path(fockbridge.__file__).parents[1]))
    script = next(p for p in SCRIPTS if p.name == "route_audit.py")
    proc = subprocess.run(
        [sys.executable, "-B", str(script), "basis", "3"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, *rows = [line.split("\t") for line in proc.stdout.splitlines()]
    assert header[:3] == ["check", "identity", "shared by two routes"]
    assert [row[:2] for row in rows] == [
        ["basis.orthonormality", "line_gram"],
        ["basis.orthonormality", "plane_norms"],
        ["gaussian.shift_invariance", "shift_invariance"],
    ]
    # the closed form, the unshifted and the shifted rule sums
    assert len(rows[2]) == 3 + 3
    assert rows[2][2] == "verify._check_gaussian_shift_invariance.<locals>.rule_sums"
    assert "special.gaussian_integral_closed" in rows[2][3].split()
    assert "special.hermite_fn_all" in rows[0][3].split()
