"""On-disk formats: CSV signals, coefficient JSON, symbol JSON.

Signal CSV: header ``x,re,im``, one row per sample, UTF-8, LF line endings,
strictly uniform grid.  Coefficient JSON:
``{"basis": "hermite"|"fock", "n": N, "coeffs": [[re, im], ...]}``.
Symbol JSON: ``{"kind": ..., "params": {...}, "taylor": [[re, im], ...]}``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .representation import FockCoeffs, HermiteCoeffs, SampledSignal, fock_eval
from .singular import FockSymbol, const_symbol, gaussian_symbol, hilbert_symbol, make_symbol

__all__ = [
    "read_signal_csv",
    "write_signal_csv",
    "read_coeffs_json",
    "write_coeffs_json",
    "read_symbol_json",
    "write_symbol_json",
]

_GRID_RTOL = 1e-9


def write_signal_csv(signal: SampledSignal, path) -> None:
    lines = ["x,re,im"]
    for x, v in zip(signal.grid, signal.values):
        lines.append(f"{float(x)!r},{float(v.real)!r},{float(v.imag)!r}")
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def read_signal_csv(path) -> SampledSignal:
    text = Path(path).read_text(encoding="utf-8")
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows or rows[0].strip().lower() != "x,re,im":
        raise ConfigurationError(f"{path}: expected header 'x,re,im'")
    try:
        data = np.array(
            [[float(c) for c in row.split(",")] for row in rows[1:]], dtype=float
        )
    except ValueError as exc:
        raise ConfigurationError(f"{path}: malformed row ({exc})") from exc
    if data.ndim != 2 or data.shape[1] != 3 or data.shape[0] < 2:
        raise ConfigurationError(f"{path}: need at least 2 rows of x,re,im")
    x = data[:, 0]
    steps = np.diff(x)
    dx = float(steps[0])
    if dx <= 0 or not np.allclose(steps, dx, rtol=_GRID_RTOL, atol=abs(dx) * _GRID_RTOL):
        raise ConfigurationError(f"{path}: grid is not uniformly increasing")
    return SampledSignal(float(x[0]), dx, data[:, 1] + 1j * data[:, 2])


def _pairs(vec: np.ndarray) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in vec]


def _unpairs(pairs) -> np.ndarray:
    try:
        return np.array([complex(p[0], p[1]) for p in pairs], dtype=complex)
    except (TypeError, IndexError) as exc:
        raise ConfigurationError(f"malformed [re, im] pair list: {exc}") from exc


def write_coeffs_json(coeffs, path) -> None:
    basis = "hermite" if isinstance(coeffs, HermiteCoeffs) else "fock"
    doc = {"basis": basis, "n": coeffs.order, "coeffs": _pairs(coeffs.coeffs)}
    Path(path).write_bytes(
        (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")
    )


def read_coeffs_json(path):
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    basis = doc.get("basis")
    if basis not in ("hermite", "fock"):
        raise ConfigurationError(f"{path}: basis must be 'hermite' or 'fock'")
    coeffs = _unpairs(doc.get("coeffs", []))
    if "n" in doc and int(doc["n"]) != coeffs.size:
        raise ConfigurationError(
            f"{path}: declared n={doc['n']} but {coeffs.size} coefficients given"
        )
    return HermiteCoeffs(coeffs) if basis == "hermite" else FockCoeffs(coeffs)


def write_symbol_json(sym: FockSymbol, path) -> None:
    doc = {
        "kind": sym.kind,
        "params": {k: v for k, v in sym.params.items() if _jsonable(v)},
        "growth_bound": sym.growth_bound,
        "taylor": _pairs(sym.taylor.coeffs),
    }
    Path(path).write_bytes(
        (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")
    )


def _jsonable(v) -> bool:
    return isinstance(v, (int, float, str, bool))


def read_symbol_json(path) -> FockSymbol:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    kind = doc.get("kind")
    params = doc.get("params", {})
    taylor = FockCoeffs(_unpairs(doc.get("taylor", [])))
    if kind == "gauss":
        return gaussian_symbol(float(params["a"]), float(params["b"]))
    if kind == "hilbert":
        return hilbert_symbol()
    if kind == "const":
        return const_symbol(complex(params.get("re", 1.0), params.get("im", 0.0)))
    # generic: rebuild the evaluator from the stored truncation (poly, from-g)
    growth = float(doc.get("growth_bound", 0.0))
    return make_symbol(
        kind or "taylor",
        lambda z, t=taylor: fock_eval(t, np.asarray(z, dtype=complex)),
        taylor,
        growth,
        dict(params),
        check=False,
    )
