"""Command-line surface.

Subcommands: frft, hilbert, bargmann, sop, wavelet, verify.  Data travels as
CSV signals or coefficient JSON (see fileio); ``verify`` runs named checks
and emits a machine-readable report.

Exit codes: 0 success, 1 verification failures, 2 usage/configuration
errors, 3 numerical evaluation failures.  Errors print one machine-parsable
line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .errors import ConfigurationError, EvaluationFailureError, FockbridgeError
from .frft import frft_coeffs
from .hilbert import HilbertParams, fractional_hilbert, hilbert_classical_grid
from .quadrature import gauss_hermite_rule, plane_gaussian_rule
from .representation import (
    PLANE_RULE_SIZES,
    FockCoeffs,
    HermiteCoeffs,
    SampledSignal,
    analyze,
    bargmann_coeff,
    inverse_bargmann_coeff,
    synthesize,
)
from .singular import (
    WaveletSpec,
    const_symbol,
    gaussian_symbol,
    hilbert_symbol,
    operator_norm_estimate,
    phi_from_g,
    poly_symbol,
    s_phi_matrix,
    wavelet_transform,
    _routed_apply,
)
from .verify import VerifyConfig, report_to_json, run_suite, SUITES

MAX_CLI_ORDER = 256


class UsageError(ConfigurationError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # single-line diagnostics, exit code 2
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    p = _Parser(prog="fockbridge", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_data_args(sp):
        sp.add_argument("--in", dest="infile", required=True, help="input CSV signal or coefficient JSON")
        sp.add_argument("--out", dest="outfile", required=True, help="output path")
        sp.add_argument("--n", type=int, help="truncation order for signal inputs (default 64, <= 256)")
        sp.add_argument("--format", choices=("json", "csv"), help="force input format (default: by extension)")
        sp.add_argument("--dump-grid", dest="dump_grid", help="also write the result sampled on a grid as CSV")

    sp = sub.add_parser("frft", help="fractional Fourier transform")
    sp.add_argument("--alpha", type=float, required=True, help="angle in radians")
    add_data_args(sp)

    sp = sub.add_parser("hilbert", help="classical or fractional Hilbert transform")
    sp.add_argument("--alpha", type=float, help="rotation angle (default pi/2)")
    sp.add_argument("--phi", type=float, help="phase angle (default pi/2)")
    sp.add_argument("--classical", action="store_true", help="FFT multiplier path on a CSV signal")
    add_data_args(sp)

    sp = sub.add_parser("bargmann", help="move between line and Fock coefficients")
    sp.add_argument("--inverse", action="store_true", help="Fock coefficients back to the line side")
    add_data_args(sp)

    sp = sub.add_parser("sop", help="singular integral operators on the Fock side")
    opsub = sp.add_subparsers(dest="sop_command", required=True)
    for name in ("apply", "matrix"):
        q = opsub.add_parser(name)
        q.add_argument("--symbol", choices=("const", "poly", "gauss", "hilbert", "from-g"))
        q.add_argument("--symbol-file", help="symbol JSON produced by this tool")
        q.add_argument("--kappa", default="1,0", help="const symbol value as re,im")
        q.add_argument("--coeffs", help="poly symbol monomial coefficients 're,im;re,im;...'")
        q.add_argument("--a", type=float, help="Gaussian symbol growth")
        q.add_argument("--b", type=float, default=0.0, help="Gaussian symbol shift")
        q.add_argument("--s", type=float, default=1.0, help="dilation for from-g")
        q.add_argument("--g-file", help="CSV signal sampling the wavelet g (for from-g)")
        q.add_argument("--alpha", type=float, default=0.0, help="rotation angle of the operator")
        if name == "apply":
            q.add_argument("--in", dest="infile", required=True, help="Fock coefficient JSON")
            q.add_argument("--z", action="append", required=True, help="evaluation point re,im (repeatable)")
            q.add_argument("--out", dest="outfile", help="write result JSON here instead of stdout")
        else:
            q.add_argument("--n", type=int, required=True, help="matrix truncation size")
            q.add_argument("--out", dest="outfile", required=True)
        q.add_argument("--symbol-out", help="also write the constructed symbol as JSON")

    sp = sub.add_parser("wavelet", help="continuous wavelet transform of a signal")
    sp.add_argument("--s", type=float, required=True, help="dilation (nonzero)")
    sp.add_argument("--g", dest="gfile", required=True, help="CSV signal sampling the wavelet")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", dest="outfile", required=True)
    sp.add_argument("--symbol-out", help="also write the induced Fock symbol as JSON")

    sp = sub.add_parser("verify", help="run the verification suite")
    sp.add_argument("--config", help="JSON file mirroring the flags below; explicit flags win")
    sp.add_argument("--suite", default=None, choices=SUITES)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--timings", action="store_const", const=True, default=None,
                    help="record wall times (breaks byte determinism)")
    sp.add_argument("--compact", action="store_const", const=True, default=None,
                    help="compact JSON")
    sp.add_argument("--out", dest="outfile", default=None,
                    help="write the report here instead of stdout")
    return p


def _read_input(args):
    path = args.infile
    fmt = args.format if getattr(args, "format", None) else None
    if fmt is None:
        fmt = "csv" if str(path).lower().endswith(".csv") else "json"
    return fileio.read_signal_csv(path) if fmt == "csv" else fileio.read_coeffs_json(path)


def _order(args) -> int:
    n = 64 if args.n is None else args.n
    if not 1 <= n <= MAX_CLI_ORDER:
        raise UsageError(f"--n must be in 1..{MAX_CLI_ORDER}, got {n}")
    return n


def _to_hermite(data, n: int) -> HermiteCoeffs:
    if isinstance(data, SampledSignal):
        return analyze(data, n, None)
    if isinstance(data, FockCoeffs):
        return inverse_bargmann_coeff(data)
    return data


def _write_grid(h: HermiteCoeffs, path) -> None:
    """Write ``h`` sampled on the fixed dump grid (-8 to 8, step 0.0125) as CSV."""
    fileio.write_signal_csv(synthesize(h, -8.0, 0.0125, 1281), path)


def _emit_like_input(result: HermiteCoeffs, data, args) -> None:
    if isinstance(data, SampledSignal):
        out = synthesize(result, data.x0, data.dx, data.values.size)
        fileio.write_signal_csv(out, args.outfile)
    elif isinstance(data, FockCoeffs):
        fileio.write_coeffs_json(bargmann_coeff(result), args.outfile)
    else:
        fileio.write_coeffs_json(result, args.outfile)
    if args.dump_grid:
        _write_grid(result, args.dump_grid)


def _cmd_frft(args) -> int:
    # Fock coefficients are the Hermite ones (B h_n = e_n), so a Fock input
    # rotates by the same phases and comes back as Fock JSON
    data = _read_input(args)
    h = _to_hermite(data, _order(args))
    _emit_like_input(frft_coeffs(h, args.alpha), data, args)
    return 0


def _cmd_hilbert(args) -> int:
    if args.classical and args.dump_grid:
        raise UsageError("--dump-grid needs a Hermite expansion; --classical has none")
    fractional = [f"--{name}" for name in ("alpha", "phi", "n") if getattr(args, name) is not None]
    if args.classical and fractional:
        raise UsageError(
            f"{', '.join(fractional)} set the fractional transform; --classical takes none"
        )
    data = _read_input(args)
    if args.classical:
        if not isinstance(data, SampledSignal):
            raise UsageError("--classical requires a CSV signal input")
        fileio.write_signal_csv(hilbert_classical_grid(data), args.outfile)
        return 0
    h = _to_hermite(data, _order(args))
    alpha = math.pi / 2 if args.alpha is None else args.alpha
    phi = math.pi / 2 if args.phi is None else args.phi
    result = fractional_hilbert(h, HilbertParams(alpha, phi))
    _emit_like_input(result, data, args)
    return 0


def _cmd_bargmann(args) -> int:
    data = _read_input(args)
    if args.inverse:
        if not isinstance(data, FockCoeffs):
            raise UsageError("--inverse expects Fock coefficient JSON input")
        result = inverse_bargmann_coeff(data)
        if str(args.outfile).lower().endswith(".csv"):
            _write_grid(result, args.outfile)
        else:
            fileio.write_coeffs_json(result, args.outfile)
    else:
        result = _to_hermite(data, _order(args))
        fileio.write_coeffs_json(bargmann_coeff(result), args.outfile)
    if args.dump_grid:
        _write_grid(result, args.dump_grid)
    return 0


def _parse_complex(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise UsageError(f"expected 're,im', got {text!r}") from exc


def _symbol_from_args(args):
    if args.symbol_file:
        return fileio.read_symbol_json(args.symbol_file)
    if not args.symbol:
        raise UsageError("need --symbol KIND or --symbol-file PATH")
    if args.symbol == "gauss":
        if args.a is None:
            raise UsageError("gauss symbol needs --a")
        return gaussian_symbol(args.a, args.b)
    if args.symbol == "hilbert":
        return hilbert_symbol()
    if args.symbol == "const":
        return const_symbol(_parse_complex(args.kappa))
    if args.symbol == "poly":
        if not args.coeffs:
            raise UsageError("poly symbol needs --coeffs 're,im;re,im;...'")
        return poly_symbol([_parse_complex(part) for part in args.coeffs.split(";")])
    if args.symbol == "from-g":
        if not args.g_file:
            raise UsageError("from-g symbol needs --g-file CSV")
        gsig = fileio.read_signal_csv(args.g_file)
        return phi_from_g(WaveletSpec(gsig, args.s), gauss_hermite_rule(200))
    raise UsageError(f"unknown symbol kind {args.symbol!r}")


def _cmd_sop(args) -> int:
    sym = _symbol_from_args(args)
    plane = plane_gaussian_rule(*PLANE_RULE_SIZES)
    doc = {"kind": sym.kind, "alpha": args.alpha}
    if args.sop_command == "apply":
        data = fileio.read_coeffs_json(args.infile)
        if not isinstance(data, FockCoeffs):
            raise UsageError("sop apply expects Fock coefficient JSON")
        zs = [_parse_complex(ztext) for ztext in args.z]
        vals = _routed_apply(sym, args.alpha, data, zs, plane)
        doc["values"] = [
            {"z": [z.real, z.imag], "value": [val.real, val.imag]}
            for z, val in zip(zs, vals.tolist())
        ]
    else:
        mat = s_phi_matrix(sym, _order(args), plane, alpha=args.alpha)
        doc.update(n=args.n, entries=[[[c.real, c.imag] for c in row] for row in mat.entries],
                   norm_estimate=operator_norm_estimate(mat))
    text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if args.outfile:
        Path(args.outfile).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    # last, so that a command that fails leaves no symbol file
    if args.symbol_out:
        fileio.write_symbol_json(sym, args.symbol_out)
    return 0


def _cmd_wavelet(args) -> int:
    gsig = fileio.read_signal_csv(args.gfile)
    fsig = fileio.read_signal_csv(args.infile)
    spec = WaveletSpec(gsig, args.s)
    # built before any output, so that a wavelet failing its integrability check writes nothing
    phi = phi_from_g(spec, gauss_hermite_rule(200)) if args.symbol_out else None
    values = wavelet_transform(fsig, spec, fsig.grid, gauss_hermite_rule(240))
    fileio.write_signal_csv(SampledSignal(fsig.x0, fsig.dx, values), args.outfile)
    if phi is not None:
        fileio.write_symbol_json(phi, args.symbol_out)
    return 0


#: key: (built-in default, the JSON types a config file may give it)
_VERIFY_CONFIG = {
    "suite": ("all", (str,)),
    "seed": (42, (int,)),
    "timings": (False, (bool,)),
    "compact": (False, (bool,)),
    "out": (None, (str, type(None))),
}


def _verify_settings(args) -> dict:
    """Flag > config file > built-in default, per key."""
    from_file = fileio._read_object(args.config) if args.config else {}
    unknown = set(from_file) - set(_VERIFY_CONFIG)
    if unknown:
        raise UsageError(f"{args.config}: unknown keys {sorted(unknown)}")
    out = {}
    for key, (default, types) in _VERIFY_CONFIG.items():
        # exact types: a JSON true is not an integer seed
        if key in from_file and type(from_file[key]) not in types:
            raise UsageError(f"{args.config}: {key} must be {types[0].__name__}, got {from_file[key]!r}")
        flag = getattr(args, "outfile" if key == "out" else key)
        out[key] = flag if flag is not None else from_file.get(key, default)
    return out


def _cmd_verify(args) -> int:
    opts = _verify_settings(args)
    cfg = VerifyConfig(seed=opts["seed"], timings=bool(opts["timings"]))
    report = run_suite(opts["suite"], cfg)
    text = report_to_json(report, compact=bool(opts["compact"]))
    if opts["out"]:
        Path(opts["out"]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


_COMMANDS = {
    "frft": _cmd_frft,
    "hilbert": _cmd_hilbert,
    "bargmann": _cmd_bargmann,
    "sop": _cmd_sop,
    "wavelet": _cmd_wavelet,
    "verify": _cmd_verify,
}


def run_command(argv: list[str] | None = None) -> int:
    """Parse and execute; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        # numpy warnings would add stderr lines; non-finite values are refused anyway
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except EvaluationFailureError as exc:
        sys.stderr.write(f'fockbridge: error=numerical detail="{exc}"\n')
        return 3
    except (ConfigurationError, ValueError, OSError) as exc:
        sys.stderr.write(f'fockbridge: error=usage detail="{exc}"\n')
        return 2
    except FockbridgeError as exc:
        sys.stderr.write(f'fockbridge: error=internal detail="{exc}"\n')
        return 3


def main(argv: list[str] | None = None) -> int:
    return run_command(argv)


if __name__ == "__main__":
    sys.exit(main())
