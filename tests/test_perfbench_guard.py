"""The traced benchmark run looks up each name in ``perfbench/tracing.py``'s
TRACED table with ``getattr`` and no default, so a name deleted from the
package would crash ``perfbench/run.py --trace 1``.  The table is read, never
changed, and no bytecode is written next to it."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    traced = importlib.import_module("tracing").TRACED
    missing = [
        f"{mod_name}.{fname}"
        for mod_name, funcs in traced.items()
        for fname in funcs
        if not callable(getattr(importlib.import_module(f"fockbridge.{mod_name}"), fname, None))
    ]
    assert traced
    assert missing == []


def test_workloads_run_against_the_package(tmp_path, monkeypatch):
    """Every call the workloads make into the package, on small inputs: the
    rule and symbol builds of each workload's setup, one validated CLI
    request of each kind, the smallest operator-matrix operation, and the
    verify workload's suite call (cut down to the ``basis`` suite)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    import fockbridge as fb
    import fockbridge.cli  # noqa: F401  (bound as fb.cli, as the benchmark binds it)

    built = {}
    for name, workload in workloads.WORKLOADS.items():
        (tmp_path / name).mkdir()
        built[name] = workload(fb, 1, tmp_path / name)
        workloads.build_setup(fb, built[name].spec)

    run_suite = fb.run_suite

    def basis_only(suite, cfg):
        assert suite in fb.verify.SUITES
        return run_suite("basis", cfg)

    monkeypatch.setattr(fb, "run_suite", basis_only)
    _, results = built["verify_all"].run_pass()
    assert results and all(r.ok for r in results)
    assert built["verify_all"].op_count() == len(fb.verify.CHECKS)

    cli = built["cli_data"]
    one_each = {}
    for req in cli.requests:
        one_each.setdefault(req["kind"], req)
    cli.requests = list(one_each.values())
    _, results = cli.run_pass()
    assert sorted(r.kind for r in results) == sorted(kind for kind, _ in workloads.CLI_MIX)
    assert [(r.kind, r.detail) for r in results if not r.ok] == []

    sop = built["sop_matrices"]
    assert sop._op(min(sop.ops, key=lambda op: op["n"])) <= 1.0
