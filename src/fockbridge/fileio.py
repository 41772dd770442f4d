"""On-disk formats: CSV signals, coefficient JSON, symbol JSON.

Signal CSV: header ``x,re,im``, one row per sample, UTF-8, LF line endings,
strictly uniform grid.  Signal CSVs are streamed: the reader holds one line
of text at a time and parses it into one flat float buffer (24 bytes per row),
the writer formats ``_WRITE_CHUNK`` rows at a time, and neither holds the
file's text or a Python object per row.  Coefficient JSON:
``{"basis": "hermite"|"fock", "n": N, "coeffs": [[re, im], ...]}``.
Symbol JSON: ``{"kind": ..., "params": {...}, "taylor": [[re, im], ...]}``, read
back as the polynomial its series spells unless ``kind`` is ``gauss`` or ``hilbert``.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .representation import FockCoeffs, HermiteCoeffs, SampledSignal
from .singular import FockSymbol, gaussian_symbol, hilbert_symbol, poly_symbol
from .special import sqrt_factorials

__all__ = [
    "read_signal_csv",
    "write_signal_csv",
    "read_coeffs_json",
    "write_coeffs_json",
    "read_symbol_json",
    "write_symbol_json",
]

_GRID_RTOL = 1e-9
#: rows per formatted chunk when writing a signal CSV
_WRITE_CHUNK = 4096


def write_signal_csv(signal: SampledSignal, path) -> None:
    grid, values = signal.grid, signal.values
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,re,im\n")
        for lo in range(0, values.size, _WRITE_CHUNK):
            hi = lo + _WRITE_CHUNK
            fh.write("".join(
                f"{x!r},{v.real!r},{v.imag!r}\n"
                for x, v in zip(grid[lo:hi].tolist(), values[lo:hi].tolist())
            ))


def read_signal_csv(path) -> SampledSignal:
    buf = array("d")
    with open(path, encoding="utf-8") as fh:
        rows = (line for line in fh if line.strip())
        if next(rows, "").strip().lower() != "x,re,im":
            raise ConfigurationError(f"{path}: expected header 'x,re,im'")
        for row in rows:
            try:
                x, re, im = row.split(",")
                buf.extend((float(x), float(re), float(im)))
            except ValueError as exc:
                raise ConfigurationError(f"{path}: malformed row ({exc})") from exc
    data = np.frombuffer(buf, dtype=float).reshape(-1, 3)
    if data.shape[0] < 2:
        raise ConfigurationError(f"{path}: need at least 2 rows of x,re,im")
    if not np.all(np.isfinite(data)):
        raise ConfigurationError(f"{path}: non-finite grid point or sample")
    x = data[:, 0]
    steps = np.diff(x)
    dx = float(steps[0])
    if dx <= 0 or not np.allclose(steps, dx, rtol=_GRID_RTOL, atol=abs(dx) * _GRID_RTOL):
        raise ConfigurationError(f"{path}: grid is not uniformly increasing")
    return SampledSignal(float(x[0]), dx, data[:, 1] + 1j * data[:, 2])


def _pairs(vec: np.ndarray) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in vec]


def _real(value) -> float | None:
    """A JSON number as a float; None for anything else: a bool, a string,
    a list, null, or an integer past the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def _unpairs(doc: dict, key: str, path) -> np.ndarray:
    """The complex vector stored at ``doc[key]`` as a list of [re, im]
    pairs; an entry that is not a list of exactly two real JSON numbers is
    refused by its index."""
    pairs = doc.get(key, [])
    if not isinstance(pairs, list):
        raise ConfigurationError(f"{path}: '{key}' must be a list of [re, im] pairs")
    values = []
    for i, pair in enumerate(pairs):
        parts = [_real(v) for v in pair] if isinstance(pair, list) else []
        if len(parts) != 2 or None in parts:
            raise ConfigurationError(
                f"{path}: '{key}' entry {i} is not an [re, im] pair of real numbers "
                f"({pair!r:.40})"
            )
        values.append(complex(*parts))
    return np.array(values, dtype=complex)


def _read_object(path) -> dict:
    """The JSON document at ``path``, which must be an object."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: the document must be a JSON object")
    return doc


def _number(doc: dict, key: str, path) -> float:
    """The number at ``doc[key]``; refused when missing."""
    value = doc.get(key)
    number = _real(value)
    if number is None:
        raise ConfigurationError(f"{path}: '{key}' is missing or not a number ({value!r:.40})")
    return number


def write_coeffs_json(coeffs, path) -> None:
    basis = "hermite" if isinstance(coeffs, HermiteCoeffs) else "fock"
    doc = {"basis": basis, "n": coeffs.order, "coeffs": _pairs(coeffs.coeffs)}
    Path(path).write_bytes(
        (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")
    )


def read_coeffs_json(path):
    doc = _read_object(path)
    basis = doc.get("basis")
    if basis not in ("hermite", "fock"):
        raise ConfigurationError(f"{path}: basis must be 'hermite' or 'fock'")
    coeffs = _unpairs(doc, "coeffs", path)
    n = doc.get("n", coeffs.size)
    if isinstance(n, bool) or not isinstance(n, int):
        raise ConfigurationError(f"{path}: 'n' must be an integer, got {n!r:.40}")
    if n != coeffs.size:
        raise ConfigurationError(f"{path}: declared n={n} but {coeffs.size} coefficients given")
    return HermiteCoeffs(coeffs) if basis == "hermite" else FockCoeffs(coeffs)


def write_symbol_json(sym: FockSymbol, path) -> None:
    doc = {
        "kind": sym.kind,
        "params": {k: v for k, v in sym.params.items() if isinstance(v, (int, float, str, bool))},
        "growth_bound": sym.growth_bound,
        "taylor": _pairs(sym.taylor.coeffs),
    }
    Path(path).write_bytes(
        (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")
    )


def read_symbol_json(path) -> FockSymbol:
    """The symbol a file stores: ``gauss`` and ``hilbert`` rebuilt by name, any
    other file the polynomial its ``taylor`` series spells (kind ``poly``,
    growth 0), whatever ``kind``, ``growth_bound`` or ``params`` it claims."""
    doc = _read_object(path)
    kind = doc.get("kind", "poly")
    if not isinstance(kind, str):
        raise ConfigurationError(f"{path}: 'kind' must be a string, got {kind!r:.40}")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigurationError(f"{path}: params must be a JSON object")
    taylor = FockCoeffs(_unpairs(doc, "taylor", path))
    if kind == "gauss":
        return gaussian_symbol(_number(params, "a", path), _number(params, "b", path))
    if kind == "hilbert":
        return hilbert_symbol()
    # past 301 terms sqrt(k!) overflows, and the symbol's series is refused
    with np.errstate(over="ignore", invalid="ignore"):
        return poly_symbol(taylor.coeffs / sqrt_factorials(taylor.order))
