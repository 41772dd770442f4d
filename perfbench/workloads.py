"""The three benchmark workloads.

Each workload makes its inputs from the seed alone, names the rules and
symbols it uses (built cold for ``setup_s``), and runs one pass over a fixed
operation list.  Only the mix of operations is fixed; the seed draws every
parameter, angle, coefficient and signal.  Operations are validated as they
run, so a pass reports, per operation, its latency, whether it passed and its
worst error over tolerance (its margin).

Every call into fockbridge goes through a module attribute looked up at call
time (``fb.s_phi_matrix``, ``fb.cli.run_command``), so that the traced run's
wrappers see it.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: The plane rule the CLI and the verify suite use.
PLANE = (64, 256)


@dataclass
class OpResult:
    kind: str
    seconds: float
    ok: bool
    margin: float
    detail: str = ""


def build_setup(fb, spec: dict) -> float:
    """Cold-build the rules and symbols ``spec`` names; returns the seconds spent on rules."""
    start = time.perf_counter()
    for k in spec.get("line", []):
        fb.gauss_hermite_rule(k)
    for args in spec.get("plane", []):
        fb.plane_gaussian_rule(*args)
    for args in spec.get("split", []):
        fb.split_line_rule(*args)
    rules_s = time.perf_counter() - start
    for sym in spec.get("symbols", []):
        build_symbol(fb, sym)
    return rules_s


def build_symbol(fb, spec: dict):
    """A symbol from its seeded description, through the public constructors."""
    family = spec["family"]
    if family == "gauss":
        return fb.gaussian_symbol(spec["a"], spec["b"])
    if family == "phi":
        return fb.phi_n_closed(spec["n"], spec["s"])
    mono = np.array([complex(re, im) for re, im in spec["mono"]])
    sqrt_fact = np.sqrt([math.factorial(k) for k in range(mono.size)])
    return fb.make_symbol(
        "poly",
        lambda z, m=mono: np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex), m),
        fb.FockCoeffs(mono * sqrt_fact),
        0.0,
        {"degree": mono.size - 1},
    )


# --- verify_all ---------------------------------------------------------------


class VerifyAll:
    """The acceptance suite, single-threaded: one operation is one named check."""

    name = "verify_all"
    warmup_pass = False

    def __init__(self, fb, seed: int, workdir: Path):
        self.fb = fb
        self.seed = seed
        self.spec = {
            "line": [64, 120, 160, 200, 240, 480, 512],
            "plane": [list(PLANE)],
            "split": [[], [240, 12.0]],
        }

    def run_pass(self, tracer=None) -> tuple[float, list[OpResult]]:
        fb = self.fb
        start = time.perf_counter()
        report = fb.run_suite("all", fb.VerifyConfig(seed=self.seed, threads=1, timings=True))
        wall = time.perf_counter() - start
        return wall, [
            OpResult(c.name, c.wall_time, c.passed, c.max_error / c.tolerance)
            for c in report.checks
        ]

    def op_count(self) -> int:
        return len(self.fb.verify.CHECKS)


# --- sop_matrices -------------------------------------------------------------

#: (family, n) of each operation in a pass.  Fixed so that every seed does the
#: same amount of plane quadrature; the seed draws the symbol and the angle.
SOP_OPS = (("gauss", 8), ("phi", 12), ("poly", 16), ("poly", 24))
#: The conjugation residual is held to this share of the matrix's largest
#: entry (at least 1).  sop.rotation_conjugation checks it at 1e-6 absolute
#: on two fixed symbols whose largest entries are 1.0 and 49; the seeded
#: polynomial symbols reach entries of 1e5, and the quadrature route's
#: rounding error grows with them (1.6e-6 absolute next to a largest entry
#: of 4.3e4 at seed 18, n = 24; at most 3.4e-9 of the largest entry over
#: seeds 1-40).
SOP_RESIDUAL_TOL = 1e-6
#: operator_norm_estimate is 200 power steps with no convergence test.  When
#: the top two singular values nearly coincide it falls short of the LAPACK
#: value by up to 6.2e-3 relative (3200 seeded polynomial matrices), and the
#: rotated and unrotated matrices start it from different vectors, so the two
#: estimates agree only to that order.  The entries themselves are held to
#: SOP_RESIDUAL_TOL.
SOP_NORM_RTOL = 1e-2


class SopMatrices:
    """Truncated operator matrices on the CLI's plane rule."""

    name = "sop_matrices"
    warmup_pass = False

    def __init__(self, fb, seed: int, workdir: Path):
        self.fb = fb
        rng = np.random.default_rng([seed, 2])
        self.ops = []
        for family, n in SOP_OPS:
            if family == "gauss":
                sym = {"family": family, "a": rng.uniform(0.05, 0.4), "b": rng.uniform(-0.5, 0.5)}
            elif family == "phi":
                sym = {"family": family, "n": int(rng.integers(0, 7)),
                       "s": float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))}
            else:
                deg = int(rng.integers(0, 9))
                mono = (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)) * (
                    0.6 ** np.arange(deg + 1)
                )
                sym = {"family": family, "mono": [[c.real, c.imag] for c in mono]}
            self.ops.append({"symbol": sym, "n": n, "alpha": rng.uniform(-math.pi, math.pi)})
        rng.shuffle(self.ops)
        self.spec = {"plane": [list(PLANE)], "symbols": [op["symbol"] for op in self.ops]}

    def _op(self, op) -> float:
        """Build, rotate, cross-check; returns the margin."""
        fb = self.fb
        plane = fb.plane_gaussian_rule(*PLANE)
        n, alpha = op["n"], op["alpha"]
        sym = build_symbol(fb, op["symbol"])
        rotated = fb.s_phi_matrix(sym, n, plane, alpha=alpha, method="quadrature")
        base = fb.s_phi_matrix(sym, n, plane, method="auto")
        d = np.exp(-1j * alpha * np.arange(n))
        conj = (np.conj(d)[:, None] * base.entries) * d[None, :]
        scale = max(1.0, float(np.abs(base.entries).max()))
        residual = float(np.abs(conj - rotated.entries).max()) / scale
        norm_r = fb.operator_norm_estimate(rotated)
        norm_b = fb.operator_norm_estimate(base)
        norm_gap = abs(norm_r - norm_b) / max(norm_b, 1e-300)
        return max(residual / SOP_RESIDUAL_TOL, norm_gap / SOP_NORM_RTOL)

    def run_pass(self, tracer=None) -> tuple[float, list[OpResult]]:
        results = []
        start = time.perf_counter()
        for i, op in enumerate(self.ops):
            kind = f"{op['symbol']['family']}_n{op['n']}"
            if tracer is not None:
                tracer.operation(f"{i}:{kind}")
            results.append(_timed(kind, lambda op=op: self._op(op)))
        return time.perf_counter() - start, results

    def op_count(self) -> int:
        return len(self.ops)


def _timed(kind: str, func) -> OpResult:
    """Run one operation; an exception is a failed operation, not a crash."""
    start = time.perf_counter()
    try:
        margin = func()
    except Exception as exc:  # the closed loop must go on to the next operation
        return OpResult(kind, time.perf_counter() - start, False, math.inf,
                        f"{type(exc).__name__}: {exc}")
    return OpResult(kind, time.perf_counter() - start, margin <= 1.0, margin)


# --- cli_data -----------------------------------------------------------------

#: (kind, count) of the requests in a pass.
CLI_MIX = (
    ("frft_csv_n16", 16),
    ("frft_csv_n64", 16),
    ("frft_csv_n256", 12),
    ("frft_json_hermite", 12),
    ("frft_json_fock", 12),
    ("hilbert_classical_m801", 20),
    ("hilbert_classical_m4097", 16),
    ("hilbert_classical_m32769", 4),
    ("hilbert_fractional", 40),
    ("bargmann_json", 12),
    ("bargmann_csv", 8),
    ("bargmann_inverse_json", 12),
    ("bargmann_inverse_csv", 8),
    ("wavelet_m801", 4),
)
CLI_SPAN = 20.0  # every CSV grid covers [-10, 10]
CLI_EXACT_TOL = 1e-12  # same route, same input: only the CSV/JSON round trip differs
#: A CSV output's grid step is re-read as x[1] - x[0], a few ulps off the
#: writer's step, which moves the last of 1281 samples by up to ~1e-12.
CLI_REGRID_TOL = 1e-9
CLI_INVOLUTION_TOL = 1e-6
CLI_WAVELET_TOL = 1e-6  # cubic-spline interpolation of the samples against the exact functions
_FRACTIONAL_ORDERS = (24, 48, 72, 96)


class _Bump:
    """A seeded sum of modulated Gaussians, evaluated exactly anywhere."""

    def __init__(self, rng, terms: int = 3):
        self.amp = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
        self.center = rng.uniform(-2.0, 2.0, terms)
        self.width = rng.uniform(0.6, 1.5, terms)
        self.freq = rng.uniform(-2.0, 2.0, terms)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)[..., None]
        shape = np.exp(-0.5 * ((x - self.center) / self.width) ** 2 + 1j * self.freq * x)
        return (shape * self.amp).sum(axis=-1)


def _grid(m: int) -> np.ndarray:
    return -0.5 * CLI_SPAN + (CLI_SPAN / (m - 1)) * np.arange(m)


def _write_csv(path: Path, m: int, values: np.ndarray) -> None:
    rows = [f"{x!r},{v.real!r},{v.imag!r}" for x, v in zip(_grid(m).tolist(), values.tolist())]
    path.write_text("x,re,im\n" + "\n".join(rows) + "\n", encoding="utf-8")


def _write_json(path: Path, basis: str, coeffs: np.ndarray) -> None:
    pairs = ", ".join(f"[{c.real!r}, {c.imag!r}]" for c in coeffs.tolist())
    path.write_text(f'{{"basis": "{basis}", "n": {coeffs.size}, "coeffs": [{pairs}]}}\n',
                    encoding="utf-8")


def _max_gap(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return math.inf
    return float(np.abs(got - want).max())


class CliData:
    """In-process CLI requests on generated CSV signals and coefficient JSON."""

    name = "cli_data"
    warmup_pass = True  # fills the CLI's lazy caches; its outputs are validated

    def __init__(self, fb, seed: int, workdir: Path):
        self.fb = fb
        rng = np.random.default_rng([seed, 3])
        self.requests = []
        for kind, count in CLI_MIX:
            for i in range(count):
                self.requests.append(self._make(kind, i, rng, workdir))
        rng.shuffle(self.requests)
        self.spec = {"line": [200, 240, 512], "split": [[]]}
        self.digests: list[str | None] = []

    def _make(self, kind: str, i: int, rng, workdir: Path) -> dict:
        tag = f"{kind}_{i}"
        out_csv, out_json = workdir / f"{tag}.out.csv", workdir / f"{tag}.out.json"
        alpha = float(rng.uniform(-math.pi, math.pi))
        req = {"kind": kind, "alpha": alpha}
        if kind.startswith("frft_csv") or kind == "bargmann_csv":
            n = int(kind.rsplit("_n", 1)[1]) if kind.startswith("frft") else 64
            src = workdir / f"{tag}.csv"
            _write_csv(src, 801, _Bump(rng)(_grid(801)))
            out = out_csv if kind.startswith("frft") else out_json
            cmd = "frft" if kind.startswith("frft") else "bargmann"
            argv = [cmd, "--in", str(src), "--out", str(out), "--n", str(n)]
            if cmd == "frft":
                argv[1:1] = ["--alpha", repr(alpha)]
            req.update(n=n)
        elif kind.startswith("frft_json") or kind.startswith("bargmann") or kind == "hilbert_fractional":
            order = _FRACTIONAL_ORDERS[i % 4] if kind == "hilbert_fractional" else int(rng.integers(8, 97))
            basis = "fock" if kind in ("frft_json_fock", "bargmann_inverse_json", "bargmann_inverse_csv") else "hermite"
            coeffs = (rng.standard_normal(order) + 1j * rng.standard_normal(order)) / np.sqrt(
                1.0 + np.arange(order)
            )
            src = workdir / f"{tag}.json"
            _write_json(src, basis, coeffs)
            out = out_csv if kind == "bargmann_inverse_csv" else out_json
            if kind.startswith("frft"):
                argv = ["frft", "--alpha", repr(alpha), "--in", str(src), "--out", str(out)]
            elif kind == "hilbert_fractional":
                phi = float(rng.uniform(-math.pi, math.pi))
                argv = ["hilbert", "--alpha", repr(alpha), "--phi", repr(phi),
                        "--in", str(src), "--out", str(out)]
                req.update(phi=phi)
            else:
                argv = ["bargmann", "--in", str(src), "--out", str(out)]
                if "inverse" in kind:
                    argv.insert(1, "--inverse")
        elif kind.startswith("hilbert_classical"):
            m = int(kind.rsplit("_m", 1)[1])
            values = _Bump(rng)(_grid(m))
            src = workdir / f"{tag}.csv"
            _write_csv(src, m, values - values.mean())  # mean-free, so H(Hf) = -f
            out = out_csv
            argv = ["hilbert", "--classical", "--in", str(src), "--out", str(out)]
        else:  # wavelet
            f, s = _Bump(rng), float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
            src, gsrc = workdir / f"{tag}.csv", workdir / f"{tag}.g.csv"
            _write_csv(src, 801, f(_grid(801)))
            _write_csv(gsrc, 801, _mexican_hat(_grid(801)).astype(complex))
            out = out_csv
            argv = ["wavelet", "--s", repr(s), "--g", str(gsrc), "--in", str(src), "--out", str(out)]
            req.update(f=f, s=s)
        req.update(argv=argv, src=src, out=out)
        return req

    # validation: the same public-API route on the re-read input

    def _margin(self, req) -> float:
        fb, kind = self.fb, req["kind"]
        fio = fb.fileio
        alpha = req["alpha"]
        if kind.startswith("frft_csv") or kind == "bargmann_csv":
            sig = fio.read_signal_csv(req["src"])
            n = req["n"]
            h = fb.analyze(sig, n, fb.gauss_hermite_rule(max(2 * n, 200)))
            if kind == "bargmann_csv":
                return _coeff_gap(fio.read_coeffs_json(req["out"]), fb.bargmann_coeff(h), fb.FockCoeffs)
            want = fb.synthesize(fb.frft_coeffs(h, alpha), sig.x0, sig.dx, sig.values.size).values
            return _max_gap(fio.read_signal_csv(req["out"]).values, want) / _exact_tol(want)
        if kind.startswith("hilbert_classical"):
            sig = fio.read_signal_csv(req["src"])
            got = fio.read_signal_csv(req["out"])
            same = _max_gap(got.values, fb.hilbert_classical_grid(sig).values) / _exact_tol(sig.values)
            twice = fb.hilbert_classical_grid(got).values
            involution = _max_gap(twice, -sig.values) / CLI_INVOLUTION_TOL
            return max(same, involution)
        if kind == "wavelet_m801":
            got = fio.read_signal_csv(req["out"])
            spec = fb.WaveletSpec(_mexican_hat, req["s"])
            rule = fb.gauss_hermite_rule(240)
            want = [fb.wavelet_transform(req["f"], spec, float(x), rule) for x in got.grid]
            return _max_gap(got.values, want) / CLI_WAVELET_TOL
        data = fio.read_coeffs_json(req["src"])
        if kind == "frft_json_hermite":
            return _coeff_gap(fio.read_coeffs_json(req["out"]), fb.frft_coeffs(data, alpha), fb.HermiteCoeffs)
        if kind == "frft_json_fock":
            return _coeff_gap(fio.read_coeffs_json(req["out"]), fb.fock_rotation(data, alpha), fb.FockCoeffs)
        if kind == "hilbert_fractional":
            want = fb.fractional_hilbert(data, fb.HilbertParams(alpha, req["phi"]))
            return _coeff_gap(fio.read_coeffs_json(req["out"]), want, fb.HermiteCoeffs)
        if kind == "bargmann_json":
            return _coeff_gap(fio.read_coeffs_json(req["out"]), fb.bargmann_coeff(data), fb.FockCoeffs)
        if kind == "bargmann_inverse_json":
            return _coeff_gap(fio.read_coeffs_json(req["out"]), fb.inverse_bargmann_coeff(data), fb.HermiteCoeffs)
        got = fio.read_signal_csv(req["out"])  # bargmann_inverse_csv, on the output's own grid
        want = fb.synthesize(fb.inverse_bargmann_coeff(data), got.x0, got.dx, got.values.size).values
        return _max_gap(got.values, want) / (CLI_REGRID_TOL * max(1.0, float(np.abs(want).max())))

    def run_pass(self, tracer=None) -> tuple[float, list[OpResult]]:
        fb = self.fb
        codes, latencies = [], []
        start = time.perf_counter()
        for i, req in enumerate(self.requests):
            if tracer is not None:
                tracer.operation(f"{i}:{req['kind']}")
            t0 = time.perf_counter()
            try:
                code = fb.cli.run_command(req["argv"])
            except Exception as exc:  # a traceback out of the CLI is a failed request
                code = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            codes.append(code)
        wall = time.perf_counter() - start
        first = not self.digests
        results = []
        for i, (req, code, seconds) in enumerate(zip(self.requests, codes, latencies)):
            if code != 0:
                results.append(OpResult(req["kind"], seconds, False, math.inf, f"exit {code}"))
                if first:
                    self.digests.append(None)
                continue
            digest = hashlib.sha256(Path(req["out"]).read_bytes()).hexdigest()
            if first:
                self.digests.append(digest)
                try:
                    margin = self._margin(req)
                except Exception as exc:  # an unparsable output fails the request
                    results.append(OpResult(req["kind"], seconds, False, math.inf,
                                            f"{type(exc).__name__}: {exc}"))
                    continue
                req["margin"] = margin
                results.append(OpResult(req["kind"], seconds, margin <= 1.0, margin))
            else:
                same = digest == self.digests[i]
                results.append(OpResult(req["kind"], seconds, same and req.get("margin", math.inf) <= 1.0,
                                        req.get("margin", math.inf),
                                        "" if same else "output differs from the validated pass"))
        return wall, results

    def op_count(self) -> int:
        return len(self.requests)


def _mexican_hat(t):
    t = np.asarray(t, dtype=float)
    return (1.0 - 2.0 * t * t) * np.exp(-t * t)


def _exact_tol(reference) -> float:
    return CLI_EXACT_TOL * max(1.0, float(np.abs(np.asarray(reference)).max()))


def _coeff_gap(got, want, expected_type) -> float:
    if not isinstance(got, expected_type):
        return math.inf
    return _max_gap(got.coeffs, want.coeffs) / _exact_tol(want.coeffs)


WORKLOADS = {w.name: w for w in (VerifyAll, SopMatrices, CliData)}
