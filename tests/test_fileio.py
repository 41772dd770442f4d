import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from fockbridge.errors import ConfigurationError, EnvelopeError
from fockbridge import fileio
from fockbridge.quadrature import plane_gaussian_rule
from fockbridge.representation import FockCoeffs, HermiteCoeffs, SampledSignal
from fockbridge.singular import gaussian_symbol, hilbert_symbol, s_phi_apply


class TestSignalCsv:
    def test_round_trip_exact(self, tmp_path):
        sig = SampledSignal(-1.25, 0.25, np.array([1.5, -2.0 + 0.5j, 0.0, 3.0j]))
        path = tmp_path / "sig.csv"
        fileio.write_signal_csv(sig, path)
        back = fileio.read_signal_csv(path)
        assert back.x0 == sig.x0 and back.dx == sig.dx
        np.testing.assert_array_equal(back.values, sig.values)

    def test_format_details(self, tmp_path):
        sig = SampledSignal(0.0, 1.0, np.array([1.0, 2.0]))
        path = tmp_path / "sig.csv"
        fileio.write_signal_csv(sig, path)
        raw = path.read_bytes()
        assert raw.startswith(b"x,re,im\n")
        assert b"\r" not in raw

    def test_rejects_nonuniform_grid(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,re,im\n0.0,1,0\n0.1,1,0\n0.35,1,0\n")
        with pytest.raises(ConfigurationError):
            fileio.read_signal_csv(path)

    def test_rejects_decreasing_grid(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,re,im\n0.2,1,0\n0.1,1,0\n0.0,1,0\n")
        with pytest.raises(ConfigurationError):
            fileio.read_signal_csv(path)

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1,0\n0.1,1,0\n")
        with pytest.raises(ConfigurationError):
            fileio.read_signal_csv(path)

    @pytest.mark.parametrize("row", ["nan,1,0", "1,0,inf"])
    def test_rejects_nonfinite_before_numpy_warns(self, row, tmp_path):
        # outside the CLI's np.errstate a NaN grid point or an infinite
        # sample must still be a ConfigurationError, not a RuntimeWarning
        path = tmp_path / "bad.csv"
        path.write_text(f"x,re,im\n0,1,0\n{row}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="non-finite"):
                fileio.read_signal_csv(path)

    def test_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,re,im\n0.0,1,0\n0.1,one,0\n")
        with pytest.raises(ConfigurationError):
            fileio.read_signal_csv(path)


def _whole_file_read(path) -> SampledSignal:
    """The reader before streaming: the whole text, split into lines."""
    text = Path(path).read_text(encoding="utf-8")
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows or rows[0].strip().lower() != "x,re,im":
        raise ConfigurationError(f"{path}: expected header 'x,re,im'")
    try:
        data = np.array([[float(c) for c in row.split(",")] for row in rows[1:]], dtype=float)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: malformed row ({exc})") from exc
    if data.ndim != 2 or data.shape[1] != 3 or data.shape[0] < 2:
        raise ConfigurationError(f"{path}: need at least 2 rows of x,re,im")
    x = data[:, 0]
    steps = np.diff(x)
    dx = float(steps[0])
    if dx <= 0 or not np.allclose(steps, dx, rtol=1e-9, atol=abs(dx) * 1e-9):
        raise ConfigurationError(f"{path}: grid is not uniformly increasing")
    return SampledSignal(float(x[0]), dx, data[:, 1] + 1j * data[:, 2])


def _whole_file_write(signal: SampledSignal, path) -> None:
    """The writer before streaming: every line joined into one string."""
    lines = ["x,re,im"]
    for x, v in zip(signal.grid, signal.values):
        lines.append(f"{float(x)!r},{float(v.real)!r},{float(v.imag)!r}")
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _outcome(read, path):
    """What ``read`` makes of ``path`` under the CLI's ``np.errstate``: the
    signal's exact bits, or the exception class."""
    try:
        with np.errstate(all="ignore"):
            sig = read(path)
    except Exception as exc:
        return type(exc)
    return (sig.x0, sig.dx, sig.values.tobytes())


#: file text -> whether it holds a signal (else it is refused)
READER_CASES = {
    "crlf": ("x,re,im\r\n0.0,1.5,-2\r\n0.25,0.5,0\r\n0.5,-0.0,-0.0\r\n", True),
    "blank_lines": ("\n\nx,re,im\n\n0.0,1,0\n  \n\t\n0.5,2,1\n\n1.0,3,2\n\n\n", True),
    "header_upper_case": ("X,RE,IM\n0,1,0\n1,2,0\n", True),
    "header_padded": ("  x,re,im \t\n0,1,0\n1,2,0\n", True),
    "padded_fields": ("x,re,im\n 0 , 1 ,0\n1,\t2, 3 \n", True),
    "no_final_newline": ("x,re,im\n0,1,0\n1,2,0", True),
    "empty": ("", False),
    "blank_only": ("\n \n", False),
    "header_only": ("x,re,im\n", False),
    "one_row": ("x,re,im\n0,1,0\n", False),
    "two_fields": ("x,re,im\n0,1\n1,2\n2,3\n", False),
    "four_fields": ("x,re,im\n0,1,0,0\n1,2,0,0\n", False),
    "mixed_fields": ("x,re,im\n0,1,0\n1,2\n2,3,0\n", False),
    "non_numeric": ("x,re,im\n0,1,0\n1,two,0\n", False),
    "empty_field": ("x,re,im\n0,1,0\n1,,0\n", False),
    "nan_sample": ("x,re,im\n0,1,0\n1,nan,0\n", False),
    "inf_sample": ("x,re,im\n0,1,0\n1,0,inf\n", False),
    "nan_grid": ("x,re,im\n0,1,0\nnan,1,0\n", False),
    "wrong_header": ("x,y,z\n0,1,0\n1,2,0\n", False),
}


class TestStreamedReader:
    @pytest.mark.parametrize("name", sorted(READER_CASES))
    def test_matches_whole_file_reader(self, name, tmp_path):
        text, ok = READER_CASES[name]
        path = tmp_path / "sig.csv"
        path.write_bytes(text.encode("utf-8"))
        got = _outcome(fileio.read_signal_csv, path)
        assert got == _outcome(_whole_file_read, path)
        assert isinstance(got, tuple) if ok else got is ConfigurationError

    def test_form_feed_is_not_a_line_break(self, tmp_path):
        # str.splitlines split on \x0c (and \x0b, \x1c-\x1e, \x85, \u2028,
        # \u2029); the documented format breaks lines on \n only
        path = tmp_path / "sig.csv"
        path.write_bytes(b"x,re,im\n0,1,0\x0c1,2,0\n2,3,0\n")
        assert isinstance(_outcome(_whole_file_read, path), tuple)
        with pytest.raises(ConfigurationError):
            fileio.read_signal_csv(path)

    def test_memory_bounded(self, tmp_path, traced_peak):
        m = 2**15
        rng = np.random.default_rng(3)
        sig = SampledSignal(-8.0, 16.0 / m, rng.standard_normal(m) + 1j * rng.standard_normal(m))
        path = tmp_path / "sig.csv"
        fileio.write_signal_csv(sig, path)
        # the whole-file reader peaks at 12.3 MiB
        assert traced_peak(lambda: fileio.read_signal_csv(path)) <= 4 * 2**20


#: values whose repr is awkward: signed zero, subnormals, huge and tiny
#: exponents, integral floats
EDGE_VALUES = [-0.0, 0.0, 5e-324, -1e-310, 1e308, 1e-5, 1e16, 3.0, -7.0, 0.1, 1 / 3]


class TestChunkedWriter:
    @pytest.mark.parametrize(
        "m", [2, fileio._WRITE_CHUNK - 1, fileio._WRITE_CHUNK, fileio._WRITE_CHUNK + 1]
    )
    def test_bytes_match_whole_file_writer(self, m, tmp_path):
        re = np.resize(EDGE_VALUES, m)
        im = np.resize(EDGE_VALUES[::-1], m)
        values = np.empty(m, dtype=complex)
        values.real, values.imag = re, im
        # a grid whose points need all 17 significant digits
        sig = SampledSignal(-0.1, 0.2 / 3, values)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        fileio.write_signal_csv(sig, new)
        _whole_file_write(sig, old)
        assert new.read_bytes() == old.read_bytes()
        assert new.read_bytes().count(b"\n") == m + 1

    def test_memory_bounded(self, tmp_path, traced_peak):
        m = 2**15
        rng = np.random.default_rng(4)
        sig = SampledSignal(-8.0, 16.0 / m, rng.standard_normal(m) + 1j * rng.standard_normal(m))
        # the whole-file writer peaks at 7.1 MiB
        assert traced_peak(lambda: fileio.write_signal_csv(sig, tmp_path / "sig.csv")) <= 2 * 2**20


#: Pair lists that are not lists of [re, im] pairs of real JSON numbers, and
#: what the refusal names.
BAD_PAIRS = {
    "three_numbers": ([[1, 0, 3]], "entry 0"),
    "bools": ([[True, False]], "entry 0"),
    "one_number": ([[1, 0], [1]], "entry 1"),
    "string": ([[1, 0], ["1", 0]], "entry 1"),
    "null": ([[1, 0], [1, None]], "entry 1"),
    "bare_number": ([1, 0], "entry 0"),
    "object": ([{"re": 1, "im": 0}], "entry 0"),
    "int_past_float": ([[10**400, 0]], "entry 0"),
    "not_a_list": ({"0": [1, 0]}, "must be a list"),
}


class TestCoeffsJson:
    def test_hermite_round_trip(self, tmp_path):
        h = HermiteCoeffs(np.array([1.0, -0.5j, 0.25 + 0.25j]))
        path = tmp_path / "h.json"
        fileio.write_coeffs_json(h, path)
        back = fileio.read_coeffs_json(path)
        assert isinstance(back, HermiteCoeffs)
        np.testing.assert_array_equal(back.coeffs, h.coeffs)

    def test_fock_round_trip(self, tmp_path):
        F = FockCoeffs(np.array([0.0, 1.0 + 2.0j]))
        path = tmp_path / "F.json"
        fileio.write_coeffs_json(F, path)
        back = fileio.read_coeffs_json(path)
        assert isinstance(back, FockCoeffs)
        np.testing.assert_array_equal(back.coeffs, F.coeffs)

    def test_schema_fields(self, tmp_path):
        path = tmp_path / "h.json"
        fileio.write_coeffs_json(HermiteCoeffs(np.array([1.0 + 0j])), path)
        doc = json.loads(path.read_text())
        assert doc["basis"] == "hermite"
        assert doc["n"] == 1
        assert doc["coeffs"] == [[1.0, 0.0]]

    def test_rejects_bad_basis(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"basis": "fourier", "n": 1, "coeffs": [[1, 0]]}')
        with pytest.raises(ConfigurationError):
            fileio.read_coeffs_json(path)

    def test_rejects_inconsistent_count(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"basis": "fock", "n": 3, "coeffs": [[1, 0]]}')
        with pytest.raises(ConfigurationError):
            fileio.read_coeffs_json(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            fileio.read_coeffs_json(path)

    @pytest.mark.parametrize("pairs, entry", [*BAD_PAIRS.values()], ids=[*BAD_PAIRS])
    def test_rejects_malformed_pairs(self, pairs, entry, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"basis": "fock", "coeffs": pairs}))
        with pytest.raises(ConfigurationError, match=entry):
            fileio.read_coeffs_json(path)

    @pytest.mark.parametrize("n", [True, 1.0, "1", None])
    def test_rejects_non_integer_n(self, n, tmp_path):
        # true == 1 and 1.0 == 1 in Python, so a plain comparison let them pass
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"basis": "fock", "n": n, "coeffs": [[1, 0]]}))
        with pytest.raises(ConfigurationError, match="'n' must be an integer"):
            fileio.read_coeffs_json(path)


class TestSymbolJson:
    def test_gaussian_round_trip(self, tmp_path):
        sym = gaussian_symbol(0.25, 0.7)
        path = tmp_path / "sym.json"
        fileio.write_symbol_json(sym, path)
        back = fileio.read_symbol_json(path)
        assert back.kind == "gauss"
        for z in (0.4 + 0.2j, -1.0):
            assert complex(back.evaluate(z)) == pytest.approx(
                complex(sym.evaluate(z)), rel=1e-12
            )

    def test_pv_round_trip(self, tmp_path):
        path = tmp_path / "sym.json"
        fileio.write_symbol_json(hilbert_symbol(), path)
        back = fileio.read_symbol_json(path)
        assert back.kind == "hilbert" and back.growth_bound == 0.5

    def test_file_cannot_claim_the_pv_boundary(self, tmp_path):
        # a file relabelled into the principal-value family is the polynomial
        # of its stored series, at growth 0, which the plane rule refuses
        pv = hilbert_symbol()
        path = tmp_path / "sym.json"
        fileio.write_symbol_json(pv, path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "kind": "hilbert-phase"}))
        back = fileio.read_symbol_json(path)
        assert back.kind == "poly" and back.growth_bound == 0.0 and back.params == {"degree": 59}
        np.testing.assert_allclose(back.taylor.coeffs, pv.taylor.coeffs, rtol=1e-15, atol=0)
        with pytest.raises(EnvelopeError, match="degree 59"):
            s_phi_apply(back, FockCoeffs(np.array([1.0])), 0.3, plane_gaussian_rule(8, 8))

    @pytest.mark.parametrize("kind", ["from-g", "const", "taylor", None])
    def test_any_other_file_is_its_polynomial(self, kind, tmp_path):
        # the stored kind, growth and params are not trusted; a missing kind
        # reads the same
        path = tmp_path / "sym.json"
        doc = {"params": {"re": 5.0}, "growth_bound": 0.4, "taylor": [[2.0, -1.0], [0.5, 0.0]]}
        path.write_text(json.dumps({**doc, "kind": kind} if kind else doc))
        back = fileio.read_symbol_json(path)
        assert (back.kind, back.growth_bound, back.params) == ("poly", 0.0, {"degree": 1})
        np.testing.assert_array_equal(back.monomial(), [2.0 - 1.0j, 0.5])

    @pytest.mark.parametrize("kind", [1e308, 0, True, None, ["poly"], {"kind": "poly"}])
    def test_kind_must_be_a_string(self, kind, tmp_path):
        path = tmp_path / "sym.json"
        path.write_text(json.dumps({"kind": kind, "taylor": [[1.0, 0.0]]}))
        with pytest.raises(ConfigurationError, match="'kind' must be a string"):
            fileio.read_symbol_json(path)

    def test_series_past_sqrt_factorial_range_refused(self, tmp_path):
        # sqrt(k!) overflows past 301 terms: refused, with no RuntimeWarning
        path = tmp_path / "sym.json"
        path.write_text(json.dumps({"kind": "poly", "taylor": [[1e-300, 0.0]] * 400}))
        with pytest.raises(ConfigurationError, match="non-finite"):
            fileio.read_symbol_json(path)

    def test_generic_rebuilds_from_taylor(self, tmp_path):
        sym = gaussian_symbol(0.2, 0.0)
        path = tmp_path / "sym.json"
        doc = {
            "kind": "custom",
            "params": {},
            "growth_bound": 0.2,
            "taylor": [[c.real, c.imag] for c in sym.taylor.coeffs],
        }
        path.write_text(json.dumps(doc))
        back = fileio.read_symbol_json(path)
        assert complex(back.evaluate(1.0 + 0.5j)) == pytest.approx(
            complex(sym.evaluate(1.0 + 0.5j)), rel=1e-10
        )

    @pytest.mark.parametrize("pairs, entry", [*BAD_PAIRS.values()], ids=[*BAD_PAIRS])
    def test_rejects_malformed_taylor(self, pairs, entry, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "poly", "growth_bound": 0.0, "taylor": pairs}))
        with pytest.raises(ConfigurationError, match=f"'taylor' {entry}"):
            fileio.read_symbol_json(path)

    def test_overflowing_series_refused(self, tmp_path):
        # 1e308 z overflows on |z| <= 2: the symbol's own check refuses it at
        # read, with no RuntimeWarning first (tier-1 turns those into errors)
        path = tmp_path / "sym.json"
        doc = {"kind": "poly", "params": {}, "growth_bound": 0.0, "taylor": [[0, 0], [1e308, 0]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="disagree with the evaluator"):
            fileio.read_symbol_json(path)
