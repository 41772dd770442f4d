"""Span tracing for the traced benchmark run.

The tracer wraps fockbridge's public functions with timers.  Modules import
each other's functions by name (``from .representation import fock_eval``),
so a wrapper is installed under every module attribute that holds the
original function, not only in the defining module.  The untraced run never
installs anything.

A span records its name, start, end, parent span and the operation it belongs
to.  Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children; the program is
single-threaded here, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _plane_size(pos: int, key: str):
    """Counter for plane-quadrature applies: the rule's node count."""

    def count(args, kwargs):
        rule = kwargs[key] if key in kwargs else args[pos]
        return {"quadrature.plane_node_evals": rule.size}

    return count


def _erf_args(pos: int, key: str):
    """Counter for the erf-type kernel: the number of arguments evaluated."""

    def count(args, kwargs):
        z = kwargs[key] if key in kwargs else args[pos]
        return {"special.erf_kernel_args": int(np.size(z))}

    return count


def _file_bytes(written: bool):
    """Counter for fileio: bytes read before the call, or written after it."""

    def count(args, kwargs):
        path = kwargs["path"] if "path" in kwargs else args[1 if written else 0]
        return {"fileio.bytes": os.path.getsize(path)}

    count.after = written
    return count


def _matrix_tag(args, kwargs):
    """s_phi_matrix builds on the quadrature route are also tallied by size."""
    if kwargs.get("method") == "quadrature":
        n = kwargs["n"] if "n" in kwargs else args[1]
        return f"singular.s_phi_matrix.n{n}"
    return None


#: module -> {function name: counter or None}.  Every name here becomes a span.
TRACED = {
    "quadrature": {
        "integrate_line": None,
        "integrate_plane": _plane_size(0, "rule"),
    },
    "special": {
        "hermite_fn_all": None,
        "A_eval": _erf_args(0, "z"),
        "A_phi_eval": _erf_args(1, "z"),
        "erf_half_integral": _erf_args(0, "z"),
    },
    "representation": {
        "fock_eval": None,
        "analyze": None,
        "synthesize": None,
        "bargmann_direct": None,
        "hermite_eval": None,
        "inverse_bargmann_direct": None,
    },
    "frft": {
        "frft_integral": None,
        "frft_coeffs": None,
    },
    "hilbert": {
        "hilbert_classical_grid": None,
        "fractional_hilbert": None,
        "hilbert_fock_kernel_apply": _plane_size(3, "rule"),
        "hilbert_fock_S_apply": _plane_size(2, "rule"),
    },
    "singular": {
        "s_phi_apply": _plane_size(3, "rule"),
        "s_phi_alpha_apply": _plane_size(4, "rule"),
        "s_phi_matrix": None,
        "wavelet_fock_apply": _plane_size(3, "plane"),
        "wavelet_transform": None,
        "phi_from_g": None,
        "make_symbol": None,
        "operator_norm_estimate": None,
    },
    "fileio": {
        "read_signal_csv": _file_bytes(written=False),
        "write_signal_csv": _file_bytes(written=True),
        "read_coeffs_json": _file_bytes(written=False),
        "write_coeffs_json": _file_bytes(written=True),
    },
    "cli": {
        "run_command": None,
    },
    "verify": {
        "run_suite": None,
    },
}

_TAGS = {"singular.s_phi_matrix": _matrix_tag}


class Tracer:
    """Collects spans and counts while installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, tag)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = None
        self._undo: list[tuple] = []

    # --- recording --------------------------------------------------------

    def span(self, name: str, func, count=None, tag=None, op=None):
        def wrapper(*args, **kwargs):
            if op is not None:
                self._op = op
            if count is not None and not getattr(count, "after", False):
                for key, n in count(args, kwargs).items():
                    self.counts[key] += n
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                label = tag(args, kwargs) if tag is not None else None
                self.spans[sid] = (sid, name, start, end, parent, self._op, label)
                if count is not None and getattr(count, "after", False):
                    for key, n in count(args, kwargs).items():
                        self.counts[key] += n

        return functools.wraps(func)(wrapper)

    def operation(self, op_id):
        """Mark the spans recorded from now on as belonging to ``op_id``."""
        self._op = op_id

    # --- installation -----------------------------------------------------

    def install(self, fb) -> None:
        """Wrap every traced function wherever a fockbridge module bound it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "fockbridge" or name.startswith("fockbridge.")]
        for mod_name, funcs in TRACED.items():
            mod = getattr(fb, mod_name)
            for fname, count in funcs.items():
                name = f"{mod_name}.{fname}"
                original = getattr(mod, fname)
                wrapped = self.span(name, original, count, _TAGS.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._undo.append((m, attr, value))
                            setattr(m, attr, wrapped)
        # the verify checks live in a dict; each becomes a span and an operation
        checks = fb.verify.CHECKS
        for cname, (func, suites) in list(checks.items()):
            self._undo.append((checks, cname, (func, suites)))
            checks[cname] = (self.span(f"verify.{cname}", func, op=cname), suites)

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)
        self._undo.clear()

    # --- reduction --------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, total self time, call durations; per-tag durations."""
        child_time = defaultdict(float)
        for sid, name, start, end, parent, op, tag in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": []})
        for sid, name, start, end, parent, op, tag in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[sid]
            entry["durations"].append(end - start)
            if tag is not None:
                out[tag]["durations"].append(end - start)
        return dict(out)

    def write(self, path) -> None:
        """Write every span as one JSON object per line, gzip-compressed."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op, tag in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "tag": tag}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
