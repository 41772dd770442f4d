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
