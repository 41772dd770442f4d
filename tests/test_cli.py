import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fockbridge

from fockbridge import fileio, verify
from fockbridge.cli import run_command
from fockbridge.errors import ConfigurationError
from fockbridge.frft import fock_rotation, frft_coeffs
from fockbridge.hilbert import HilbertParams, fractional_hilbert
from fockbridge.quadrature import gauss_hermite_rule, plane_gaussian_rule
from fockbridge.representation import (
    PLANE_RULE_SIZES,
    FockCoeffs,
    HermiteCoeffs,
    SampledSignal,
    fock_eval,
    inverse_bargmann_coeff,
    synthesize,
)
from fockbridge.singular import (
    GROWTH_CAP,
    WaveletSpec,
    hilbert_symbol,
    phi_from_g,
    phi_n_closed,
    poly_symbol,
    s_phi_alpha_apply,
    s_phi_apply_deriv,
    s_phi_matrix,
    wavelet_transform,
)
from fockbridge.special import NORM_CONSTANT
from fockbridge.verify import VerifyConfig


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    h = HermiteCoeffs(np.array([1.0, 0.5j, 0.0, 0.2], dtype=complex))
    fileio.write_coeffs_json(h, tmp_path / "h.json")
    fileio.write_coeffs_json(FockCoeffs(h.coeffs), tmp_path / "F.json")
    fileio.write_signal_csv(synthesize(h, -8.0, 0.02, 801), tmp_path / "sig.csv")
    fileio.write_signal_csv(
        synthesize(HermiteCoeffs(np.array([1.0 + 0j])), -6.0, 0.02, 601),
        tmp_path / "g.csv",
    )
    return tmp_path


class TestFrftCommand:
    def test_zero_angle_byte_identical(self, workdir):
        rc = run_command(["frft", "--alpha", "0", "--in", "h.json", "--out", "h0.json"])
        assert rc == 0
        assert (workdir / "h.json").read_bytes() == (workdir / "h0.json").read_bytes()

    def test_coefficient_phases(self, workdir):
        rc = run_command(["frft", "--alpha", "1.5707963267948966", "--in", "h.json", "--out", "q.json"])
        assert rc == 0
        out = fileio.read_coeffs_json(workdir / "q.json")
        src = fileio.read_coeffs_json(workdir / "h.json")
        ref = src.coeffs * np.exp(-1j * math.pi / 2 * np.arange(4))
        np.testing.assert_allclose(out.coeffs, ref, atol=1e-15)

    def test_signal_round_trip_identity(self, workdir):
        rc = run_command(["frft", "--alpha", "0", "--in", "sig.csv", "--out", "sig0.csv", "--n", "16"])
        assert rc == 0
        a = fileio.read_signal_csv(workdir / "sig.csv")
        b = fileio.read_signal_csv(workdir / "sig0.csv")
        assert float(np.abs(a.values - b.values).max()) < 1e-6

    def test_fock_input_rotates(self, workdir):
        rc = run_command(["frft", "--alpha", "0.7", "--in", "F.json", "--out", "Fr.json"])
        assert rc == 0
        out = fileio.read_coeffs_json(workdir / "Fr.json")
        assert isinstance(out, FockCoeffs)
        src = fileio.read_coeffs_json(workdir / "F.json")
        fileio.write_coeffs_json(fock_rotation(src, 0.7), workdir / "ref.json")
        assert (workdir / "Fr.json").read_bytes() == (workdir / "ref.json").read_bytes()

    def test_missing_required_flag_is_usage_error(self, workdir, capsys):
        rc = run_command(["frft", "--in", "h.json", "--out", "x.json"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("fockbridge: error=usage") and err.count("\n") == 1


class TestHilbertCommand:
    def test_classical_on_signal(self, workdir):
        rc = run_command(["hilbert", "--classical", "--in", "sig.csv", "--out", "hs.csv"])
        assert rc == 0
        out = fileio.read_signal_csv(workdir / "hs.csv")
        assert out.values.size == 801

    def test_classical_rejects_json(self, workdir):
        assert run_command(["hilbert", "--classical", "--in", "h.json", "--out", "x.json"]) == 2

    def test_classical_refuses_dump_grid(self, workdir, capsys):
        # no Hermite expansion to sample: refused before the input is read
        argv = ["hilbert", "--classical", "--in", "missing.csv", "--out", "hs.csv",
                "--dump-grid", "grid.csv"]
        assert run_command(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("fockbridge: error=usage") and "--dump-grid" in err
        assert err.count("\n") == 1
        assert not (workdir / "hs.csv").exists() and not (workdir / "grid.csv").exists()

    @pytest.mark.parametrize("flag", [["--alpha", "0.3"], ["--phi", "0.1"], ["--n", "5"]])
    def test_classical_refuses_fractional_flags(self, workdir, capsys, flag):
        # the grid path has no angle and no truncation order to honour; a
        # flag that equals the fractional default is refused all the same
        argv = ["hilbert", "--classical", "--in", "sig.csv", "--out", "hs.csv"] + flag
        assert run_command(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("fockbridge: error=usage") and flag[0] in err
        assert err.count("\n") == 1
        assert not (workdir / "hs.csv").exists()

    def test_fractional_defaults_are_quarter_turns(self, workdir):
        assert run_command(["hilbert", "--in", "h.json", "--out", "d.json"]) == 0
        explicit = ["--alpha", repr(math.pi / 2), "--phi", repr(math.pi / 2), "--n", "64"]
        assert run_command(["hilbert", *explicit, "--in", "h.json", "--out", "e.json"]) == 0
        assert (workdir / "d.json").read_bytes() == (workdir / "e.json").read_bytes()

    def test_fractional_coefficients(self, workdir):
        rc = run_command(
            ["hilbert", "--alpha", "1.1", "--phi", "0.6", "--in", "h.json", "--out", "hf.json"]
        )
        assert rc == 0
        out = fileio.read_coeffs_json(workdir / "hf.json")
        assert isinstance(out, HermiteCoeffs)

    def test_signal_at_order_200(self, workdir):
        rc = run_command(["hilbert", "--n", "200", "--in", "sig.csv", "--out", "hs.csv"])
        assert rc == 0
        assert fileio.read_signal_csv(workdir / "hs.csv").values.size == 801

    def test_order_above_cap_refused(self, workdir, capsys):
        fileio.write_coeffs_json(HermiteCoeffs(np.ones(257, dtype=complex)), workdir / "big.json")
        assert run_command(["hilbert", "--in", "big.json", "--out", "x.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fockbridge: error=") and err.count("\n") == 1
        assert not (workdir / "x.json").exists()


class TestBargmannCommand:
    def test_forward_then_inverse(self, workdir):
        assert run_command(["bargmann", "--in", "h.json", "--out", "F2.json"]) == 0
        doc = json.loads((workdir / "F2.json").read_text())
        assert doc["basis"] == "fock"
        assert run_command(["bargmann", "--inverse", "--in", "F2.json", "--out", "h2.json"]) == 0
        back = fileio.read_coeffs_json(workdir / "h2.json")
        src = fileio.read_coeffs_json(workdir / "h.json")
        np.testing.assert_array_equal(back.coeffs, src.coeffs)

    def test_inverse_needs_fock(self, workdir):
        assert run_command(["bargmann", "--inverse", "--in", "h.json", "--out", "x.json"]) == 2


#: Each command that writes the fixed grid: its input file and the API
#: result it samples there.
DUMP_GRID = {
    "frft": (["frft", "--alpha", "0.7", "--in", "h.json", "--out", "o.json",
              "--dump-grid", "grid.csv"], lambda h: frft_coeffs(h, 0.7)),
    "hilbert": (["hilbert", "--alpha", "1.1", "--phi", "0.6", "--in", "h.json", "--out", "o.json",
                 "--dump-grid", "grid.csv"], lambda h: fractional_hilbert(h, HilbertParams(1.1, 0.6))),
    "bargmann": (["bargmann", "--in", "h.json", "--out", "o.json", "--dump-grid", "grid.csv"],
                 lambda h: h),
    "bargmann_inverse": (["bargmann", "--inverse", "--in", "F.json", "--out", "grid.csv"],
                         inverse_bargmann_coeff),
    "bargmann_inverse_dump": (["bargmann", "--inverse", "--in", "F.json", "--out", "o.json",
                               "--dump-grid", "grid.csv"], inverse_bargmann_coeff),
    "frft_fock": (["frft", "--alpha", "0.7", "--in", "F.json", "--out", "o.json",
                   "--dump-grid", "grid.csv"], lambda F: frft_coeffs(inverse_bargmann_coeff(F), 0.7)),
}


@pytest.mark.parametrize("name", sorted(DUMP_GRID))
def test_grid_csv_is_the_api_result_on_the_grid(name, workdir):
    argv, api = DUMP_GRID[name]
    assert run_command(argv) == 0
    data = fileio.read_coeffs_json(workdir / argv[argv.index("--in") + 1])
    fileio.write_signal_csv(synthesize(api(data), -8.0, 0.0125, 1281), workdir / "ref.csv")
    assert (workdir / "grid.csv").read_bytes() == (workdir / "ref.csv").read_bytes()


class TestSopCommand:
    def test_apply_gaussian_symbol(self, workdir, capsys):
        rc = run_command(
            ["sop", "apply", "--symbol", "gauss", "--a", "0.25", "--in", "F.json",
             "--z", "0.5,0.5", "--z=-1,0.2"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "gauss" and len(doc["values"]) == 2

    def test_apply_rejects_overgrown_symbol(self, workdir, capsys):
        rc = run_command(
            ["sop", "apply", "--symbol", "gauss", "--a", "0.6", "--in", "F.json", "--z", "0,0"]
        )
        assert rc == 2

    def test_pv_symbol_behind_raised_cap(self, workdir, capsys):
        # the principal-value symbol is admitted at its growth 1/2 by kind;
        # the growth cap is no option
        rc = run_command(["sop", "apply", "--symbol", "hilbert", "--in", "F.json", "--z", "0.3,0.1"])
        assert rc == 0
        rc = run_command(
            ["sop", "apply", "--symbol", "hilbert", "--growth-cap", "0.5",
             "--in", "F.json", "--z", "0.3,0.1"]
        )
        assert rc == 2

    def test_matrix_with_norm(self, workdir):
        rc = run_command(
            ["sop", "matrix", "--symbol", "poly", "--coeffs", "0,0;1,0", "--n", "5",
             "--out", "mat.json"]
        )
        assert rc == 0
        doc = json.loads((workdir / "mat.json").read_text())
        assert doc["n"] == 5 and doc["norm_estimate"] > 0

    def test_matrix_outside_envelope_is_usage_error(self, workdir, capsys):
        rc = run_command(
            ["sop", "matrix", "--symbol", "gauss", "--a", "0.25", "--n", "200",
             "--out", "mat.json"]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("fockbridge: error=usage") and err.count("\n") == 1
        assert not (workdir / "mat.json").exists()

    @pytest.mark.parametrize(
        "symbol, code",
        [
            (["--symbol", "gauss", "--a", "0.3"], 0),
            (["--symbol", "hilbert"], 0),
            # g = h_0 at s = 4 induces growth about 4/9, past GROWTH_CAP
            (["--symbol", "from-g", "--g-file", "g.csv", "--s", "4"], 2),
            (["--symbol", "poly", "--coeffs", "0,0;1,0"], 0),
        ],
        ids=["gauss", "hilbert", "from-g", "poly"],
    )
    def test_apply_and_matrix_share_the_symbols_admission(self, symbol, code, workdir, capsys):
        for command, tail in (
            ("apply", ["--in", "F.json", "--z", "0.3,0.1"]),
            ("matrix", ["--n", "3", "--out", "mat.json"]),
        ):
            assert run_command(["sop", command, *symbol, *tail]) == code
            err = capsys.readouterr().err
            assert err.count("\n") == (code != 0)
            assert err.startswith("fockbridge: error=usage" if code else "")
        assert (workdir / "mat.json").exists() == (code == 0)

    @pytest.mark.parametrize(
        "symbol, cap, code",
        [
            # g = h_0 at s = 4 induces growth about 4/9: held to GROWTH_CAP
            pytest.param(["--symbol", "from-g", "--g-file", "g.csv", "--s", "4"], "0.4", 2,
                         id="symbol2-0.4-2"),
            # the principal-value family itself is admitted at its boundary 1/2
            pytest.param(["--symbol", "hilbert"], "0.5", 0, id="symbol3-0.5-0"),
        ],
    )
    def test_apply_and_matrix_share_the_growth_cap(self, symbol, cap, code, workdir, capsys):
        assert float(cap) == (0.5 if code == 0 else GROWTH_CAP)
        assert hilbert_symbol().growth_bound == 0.5
        for command, tail in (
            ("apply", ["--in", "F.json", "--z", "0.3,0.1"]),
            ("matrix", ["--n", "3", "--out", "mat.json"]),
        ):
            assert run_command(["sop", command, *symbol, *tail]) == code
            err = capsys.readouterr().err
            assert err.count("\n") == (code != 0)
            assert err.startswith("fockbridge: error=usage" if code else "")
            assert (f"(<= {cap})" in err) == (code != 0)
        assert (workdir / "mat.json").exists() == (code == 0)

    def test_symbol_file_cannot_claim_the_pv_boundary(self, workdir, capsys):
        # hilbert_symbol()'s own file relabelled "hilbert-phase" is the
        # polynomial of its 60 stored coefficients, at growth 0: too long for
        # the band route and past the plane rule's degree edge on apply, and
        # on the band route for a matrix
        fileio.write_symbol_json(hilbert_symbol(), workdir / "pv.json")
        doc = json.loads((workdir / "pv.json").read_text())
        (workdir / "pv.json").write_text(json.dumps({**doc, "kind": "hilbert-phase"}))
        argv = ["sop", "apply", "--symbol-file", "pv.json", "--in", "F.json", "--z", "0.3,0.1"]
        assert run_command([*argv, "--out", "o.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fockbridge: error=usage") and err.count("\n") == 1
        assert "degree 59" in err and not (workdir / "o.json").exists()
        argv = ["sop", "matrix", "--symbol-file", "pv.json", "--n", "3", "--out", "mat.json"]
        assert run_command(argv) == 0
        assert json.loads((workdir / "mat.json").read_text())["kind"] == "poly"

    def test_gauss_shift_outside_the_envelope(self, workdir, capsys):
        # the 40-term series misses exp(0.4 (z - 10)^2) by 2.3e9 on |z| = 2
        argv = ["sop", "apply", "--symbol", "gauss", "--a", "0.4", "--b", "10", "--in", "F.json",
                "--z", "0.5,0", "--out", "o.json"]
        assert run_command(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("fockbridge: error=usage") and err.count("\n") == 1
        assert "b=10.0" in err and "a=0.4" in err
        assert not (workdir / "o.json").exists()

    def test_polynomial_past_the_plane_edge(self, workdir, capsys):
        # 0.6^k-scaled degree 39, where plane quadrature was 44.9 off, takes
        # the band route; degree 40 is past it and past the plane edge
        rng = np.random.default_rng([39, 1])
        mono = (rng.standard_normal(41) + 1j * rng.standard_normal(41)) * 0.6 ** np.arange(41)
        F = fileio.read_coeffs_json(workdir / "F.json")
        for deg in (39, 40):
            poly = ["--symbol", "poly",
                    "--coeffs=" + ";".join(f"{c.real!r},{c.imag!r}" for c in mono[: deg + 1].tolist())]
            rc = run_command(["sop", "apply", *poly, "--in", "F.json", "--z", "0.5,0"])
            out, err = capsys.readouterr()
            if deg == 39:
                assert rc == 0
                got = complex(*json.loads(out)["values"][0]["value"])
                want = complex(fock_eval(s_phi_apply_deriv(mono[:40], F), 0.5))
                assert abs(got - want) <= 1e-12 * abs(want)
            else:
                assert rc == 2
                assert err.startswith("fockbridge: error=usage") and err.count("\n") == 1
                assert "degree 40" in err
            # the matrix takes the derivative route, exact at any degree
            assert run_command(["sop", "matrix", *poly, "--n", "3", "--out", "mat.json"]) == 0

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0])
    def test_from_g_symbol_file_applies(self, s, workdir, capsys):
        # g.csv samples h_0 = NORM_CONSTANT e^{-t^2}, whose symbol is
        # NORM_CONSTANT phi_0 in closed form
        z = ["--z", "0.5,0.2", "--z=-1.1,0.7"]
        built = ["sop", "apply", "--symbol", "from-g", "--g-file", "g.csv", "--s", repr(s)]
        assert run_command([*built, "--in", "F.json", *z, "--symbol-out", "phi.json"]) == 0
        assert run_command(["sop", "apply", "--symbol-file", "phi.json", "--in", "F.json", *z,
                            "--out", "o.json"]) == 0
        got = [complex(*v["value"]) for v in json.loads((workdir / "o.json").read_text())["values"]]
        F = fileio.read_coeffs_json(workdir / "F.json")
        plane = plane_gaussian_rule(*PLANE_RULE_SIZES)
        want = NORM_CONSTANT * s_phi_alpha_apply(
            phi_n_closed(0, s), 0.0, F, [0.5 + 0.2j, -1.1 + 0.7j], plane
        )
        assert float(np.abs(np.array(got) - want).max()) <= 1e-12

    def test_symbol_file_round_trip(self, workdir, capsys):
        rc = run_command(
            ["sop", "apply", "--symbol", "gauss", "--a", "0.25", "--b", "0.5",
             "--in", "F.json", "--z", "0,0", "--symbol-out", "sym.json"]
        )
        assert rc == 0
        capsys.readouterr()
        rc = run_command(
            ["sop", "apply", "--symbol-file", "sym.json", "--in", "F.json", "--z", "0,0"]
        )
        assert rc == 0

    @pytest.mark.parametrize("kind", ["from-g", None, "poly"], ids=["from-g", "no-kind", "poly"])
    def test_symbol_file_is_the_polynomial_it_stores(self, kind, workdir, capsys):
        # the degree-39 polynomial of test_polynomial_past_the_plane_edge,
        # whatever the file calls it: the plane rule was 9e-4 off relative
        # under "from-g" or no kind, and refused it under "poly"
        rng = np.random.default_rng([39, 1])
        mono = (rng.standard_normal(40) + 1j * rng.standard_normal(40)) * 0.6 ** np.arange(40)
        fileio.write_symbol_json(poly_symbol(mono), workdir / "sym.json")
        doc = {k: v for k, v in json.loads((workdir / "sym.json").read_text()).items() if k != "kind"}
        (workdir / "sym.json").write_text(json.dumps({**doc, "kind": kind} if kind else doc))
        zs = np.array([0.5 + 0.2j, -1.1 + 0.7j, 1.9j, -1.99])
        argv = ["sop", "apply", "--symbol-file", "sym.json", "--in", "F.json",
                *[f"--z={z.real!r},{z.imag!r}" for z in zs.tolist()]]
        assert run_command(argv) == 0
        out = json.loads(capsys.readouterr().out)
        got = np.array([complex(*v["value"]) for v in out["values"]])
        want = fock_eval(s_phi_apply_deriv(mono, fileio.read_coeffs_json(workdir / "F.json")), zs)
        assert out["kind"] == "poly"
        assert float(np.abs(got - want).max()) <= 1e-12 * float(np.abs(want).max())
        argv = ["sop", "matrix", "--symbol-file", "sym.json", "--n", "8", "--out", "mat.json"]
        assert run_command(argv) == 0
        mat = json.loads((workdir / "mat.json").read_text())
        plane = plane_gaussian_rule(*PLANE_RULE_SIZES)
        want = s_phi_matrix(fileio.read_symbol_json(workdir / "sym.json"), 8, plane, method="deriv")
        assert mat["kind"] == "poly"
        entries = np.array(mat["entries"])
        assert np.array_equal(entries[..., 0] + 1j * entries[..., 1], want.entries)

    def test_symbol_file_kind_must_be_a_string(self, workdir, capsys):
        fileio.write_symbol_json(poly_symbol([1.0, 0.5]), workdir / "sym.json")
        doc = json.loads((workdir / "sym.json").read_text())
        (workdir / "sym.json").write_text(json.dumps({**doc, "kind": 1e308}))
        for command, tail in (
            ("apply", ["--in", "F.json", "--z", "0.3,0.1", "--out", "o.json"]),
            ("matrix", ["--n", "3", "--out", "mat.json"]),
        ):
            argv = ["sop", command, "--symbol-file", "sym.json", *tail, "--symbol-out", "s.json"]
            assert run_command(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("fockbridge: error=usage") and err.count("\n") == 1
            assert "'kind' must be a string" in err
        assert not any((workdir / n).exists() for n in ("o.json", "mat.json", "s.json"))

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["sop", "apply", "--symbol", "gauss", "--a", "0.25", "--in", "missing.json",
              "--z", "0.5,0"], 2),
            (["sop", "apply", "--symbol", "gauss", "--a", "0.25", "--in", "F.json", "--z", "3,0"],
             2),
            (["sop", "matrix", "--symbol", "gauss", "--a", "0.25", "--n", "200", "--out", "m.json"],
             2),
            (["wavelet", "--s", "1.0", "--g", "g.csv", "--in", "sig.csv", "--out", "no/w.csv"], 2),
            (["wavelet", "--s", "1.0", "--g", "g.csv", "--in", "sig.csv", "--out", "w.csv"], 0),
        ],
        ids=["apply-missing-input", "apply-outside-envelope", "matrix-outside-envelope",
             "wavelet-unwritable-output", "wavelet-succeeds"],
    )
    def test_symbol_file_written_only_on_success(self, argv, code, workdir, capsys):
        assert run_command([*argv, "--symbol-out", "s.json"]) == code
        assert (workdir / "s.json").exists() == (code == 0)


class TestWaveletCommand:
    def test_transform_and_symbol(self, workdir):
        rc = run_command(
            ["wavelet", "--s", "1.0", "--g", "g.csv", "--in", "sig.csv", "--out", "w.csv",
             "--symbol-out", "phi.json"]
        )
        assert rc == 0
        assert fileio.read_signal_csv(workdir / "w.csv").values.size == 801
        assert json.loads((workdir / "phi.json").read_text())["kind"] == "from-g"


def _mexican_hat(t):
    t = np.asarray(t, dtype=float)
    return (1.0 - 2.0 * t * t) * np.exp(-t * t)


def _bump(seed, shift=0.0):
    """A seeded sum of three modulated Gaussians, exact anywhere.  Centres in
    [shift - 2, shift + 2] and widths up to 1 keep it below 1e-13 beyond
    |x - shift| = 10."""
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    center, width, freq = rng.uniform(-2, 2, 3), rng.uniform(0.5, 1.0, 3), rng.uniform(-2, 2, 3)
    center = center + shift

    def f(x):
        x = np.asarray(x, dtype=float)[..., None]
        return (np.exp(-0.5 * ((x - center) / width) ** 2 + 1j * freq * x) * amp).sum(axis=-1)

    return f


class TestSampledRoutesMatchExactFunctions:
    """Between its grid points a CSV signal is a local interpolant of its
    samples: the sampled routes agree with the same routes on the exact
    functions, wherever on the line the signal sits.  Outside its grid a
    sampled signal is 0, so the signals here have decayed at the grid's
    edges; otherwise the gap is the signal's size there."""

    def _write(self, path, func, x0=-10.0, m=801):
        grid = x0 + 0.025 * np.arange(m)
        fileio.write_signal_csv(SampledSignal(x0, 0.025, func(grid)), path)

    @pytest.mark.parametrize("seed, s", [(1, 1.3), (2, -0.7), (3, 2.0), (5, 0.5)])
    def test_wavelet(self, seed, s, workdir):
        f = _bump(seed)
        self._write(workdir / "f.csv", f)
        self._write(workdir / "hat.csv", _mexican_hat)
        argv = ["wavelet", "--s", repr(s), "--g", "hat.csv", "--in", "f.csv", "--out", "w.csv"]
        assert run_command(argv) == 0
        got = fileio.read_signal_csv(workdir / "w.csv")
        want = wavelet_transform(f, WaveletSpec(_mexican_hat, s), got.grid, gauss_hermite_rule(240))
        assert float(np.abs(got.values - want).max()) <= 1e-10

    def test_wavelet_off_centre(self, workdir):
        # a signal at x = 12 on -20...20, beyond the reach of any order-128
        # Hermite expansion
        f = _bump(6, shift=12.0)
        self._write(workdir / "f.csv", f, x0=-20.0, m=1601)
        self._write(workdir / "hat.csv", _mexican_hat, x0=-20.0, m=1601)
        argv = ["wavelet", "--s", "0.8", "--g", "hat.csv", "--in", "f.csv", "--out", "w.csv"]
        assert run_command(argv) == 0
        got = fileio.read_signal_csv(workdir / "w.csv")
        want = wavelet_transform(f, WaveletSpec(_mexican_hat, 0.8), got.grid, gauss_hermite_rule(240))
        assert float(np.abs(want).max()) > 0.1
        assert float(np.abs(got.values - want).max()) <= 1e-10

    @pytest.mark.parametrize("g, s", [("hat", 1.3), ("bump", -0.8), ("bump at 12", 0.15)])
    def test_symbol_from_g(self, g, s, workdir):
        exact = {"hat": _mexican_hat, "bump": _bump(4), "bump at 12": _bump(4, shift=12.0)}[g]
        self._write(workdir / "g.csv", exact, x0=-20.0, m=1601)
        argv = ["sop", "apply", "--symbol", "from-g", "--g-file", "g.csv", "--s", repr(s),
                "--in", "F.json", "--z=0.5,0.2", "--z=-0.3,-1.1", "--out", "o.json"]
        assert run_command(argv) == 0
        got = [complex(*v["value"]) for v in json.loads((workdir / "o.json").read_text())["values"]]
        sym = phi_from_g(WaveletSpec(exact, s), gauss_hermite_rule(200))
        F = fileio.read_coeffs_json(workdir / "F.json")
        points = [0.5 + 0.2j, -0.3 - 1.1j]
        want = s_phi_alpha_apply(sym, 0.0, F, points, plane_gaussian_rule(*PLANE_RULE_SIZES))
        assert float(np.abs(want).max()) > 0.01
        assert float(np.abs(np.array(got) - want).max()) <= 1e-10


class TestVerifyCommand:
    def test_small_suite_deterministic_bytes(self, workdir, capsys):
        assert run_command(["verify", "--suite", "basis", "--seed", "42"]) == 0
        first = capsys.readouterr().out
        assert run_command(["verify", "--suite", "basis", "--seed", "42"]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["passed"] is True and doc["n_checks"] == 2
        assert all(c["wall_time"] == 0.0 for c in doc["checks"])

    def test_report_file_and_schema(self, workdir):
        rc = run_command(
            ["verify", "--suite", "basis", "--seed", "7", "--out", "report.json", "--compact"]
        )
        assert rc == 0
        doc = json.loads((workdir / "report.json").read_text())
        for check in doc["checks"]:
            assert set(check) == {"name", "max_error", "tolerance", "passed", "wall_time"}
            assert check["passed"] == (check["max_error"] <= check["tolerance"])
        assert doc["config"] == {"seed": 7}

    def test_unknown_suite_usage_error(self, workdir):
        assert run_command(["verify", "--suite", "nonsense"]) == 2

    def test_config_file_with_flag_override(self, workdir, capsys):
        (workdir / "cfg.json").write_text('{"suite": "basis", "seed": 11, "compact": true}')
        assert run_command(["verify", "--config", "cfg.json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["seed"] == 11 and doc["n_checks"] == 2
        # an explicit flag beats the file
        assert run_command(["verify", "--config", "cfg.json", "--seed", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["seed"] == 5

    def test_config_file_rejects_unknown_keys(self, workdir):
        # the rule sizes, the coefficient order and the thread count are
        # pinned, not configurable
        for key in ("zeal", "order", "line_size", "plane_radial", "plane_angular", "threads"):
            (workdir / "cfg.json").write_text(json.dumps({"suite": "basis", key: 9}))
            assert run_command(["verify", "--config", "cfg.json"]) == 2

    @pytest.mark.parametrize(
        "doc",
        ['{"suite": "basis", "compact": 1}', '{"suite": "basis", "out": 5}',
         '{"suite": "basis", "seed": 1.5}', '{"suite": "basis", "seed": true}', "[5]"],
    )
    def test_config_file_refuses_ill_typed_values(self, doc, workdir, capsys):
        (workdir / "cfg.json").write_text(doc)
        assert run_command(["verify", "--config", "cfg.json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("fockbridge: error=usage") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--order", "64"), ("--line-size", "100"), ("--plane-radial", "32"),
         ("--plane-angular", "128"), ("--threads", "2")],
    )
    def test_rule_and_order_flags_are_gone(self, flag, value, workdir, capsys):
        assert run_command(["verify", "--suite", "basis", flag, value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("fockbridge: error=") and err.count("\n") == 1

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_refused_before_any_check(self, source, workdir, capsys, monkeypatch):
        ran = []
        for name, (_, suites) in verify.CHECKS.items():
            monkeypatch.setitem(verify.CHECKS, name, (lambda cfg, name=name: ran.append(name), suites))
        if source == "flag":
            argv = ["verify", "--suite", "all", "--seed", "-1"]
        else:
            (workdir / "cfg.json").write_text('{"suite": "all", "seed": -3}')
            argv = ["verify", "--config", "cfg.json"]
        assert run_command(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and ran == []
        assert err.startswith("fockbridge: error=usage") and err.count("\n") == 1
        assert "verify seed" in err and ("-1" if source == "flag" else "-3") in err

    def test_config_refusals(self):
        VerifyConfig(seed=1, threads=1, timings=True)
        for kwargs in ({"seed": -1}, {"seed": 2.0}, {"threads": 0}):
            with pytest.raises(ConfigurationError):
                VerifyConfig(**kwargs)


class TestUsageErrors:
    def test_unknown_command(self, workdir, capsys):
        assert run_command(["transmogrify"]) == 2
        assert capsys.readouterr().err.startswith("fockbridge: error=usage")

    def test_missing_file(self, workdir, capsys):
        assert run_command(["frft", "--alpha", "1", "--in", "nope.json", "--out", "x.json"]) == 2

    def test_bad_n(self, workdir):
        assert run_command(["frft", "--alpha", "1", "--in", "sig.csv", "--out", "x.csv", "--n", "400"]) == 2


#: Non-finite values where they enter: each must be refused, not written out.
NONFINITE = {
    "frft_alpha": ["frft", "--alpha", "nan", "--in", "h.json", "--out", "x.json"],
    "hilbert_phi": ["hilbert", "--phi", "nan", "--in", "h.json", "--out", "x.json"],
    "frft_coeffs": ["frft", "--alpha", "0.5", "--in", "nan.json", "--out", "x.json"],
    "sop_z": ["sop", "apply", "--symbol", "gauss", "--a", "0.25", "--in", "F.json", "--z", "nan,0"],
    "sop_alpha": ["sop", "apply", "--symbol", "gauss", "--a", "0.25", "--alpha", "nan",
                  "--in", "F.json", "--z", "0,0"],
    "const_kappa": ["sop", "apply", "--symbol", "const", "--kappa", "nan,0", "--in", "F.json",
                    "--z", "0,0"],
    "poly_coeffs": ["sop", "apply", "--symbol", "poly", "--coeffs", "nan,0", "--in", "F.json",
                    "--z", "0,0"],
    "gauss_b": ["sop", "apply", "--symbol", "gauss", "--a", "0.25", "--b", "nan", "--in", "F.json",
                "--z", "0,0"],
}

#: Malformed files that once escaped as tracebacks.
MALFORMED = {
    "gauss_without_params": (
        ["sop", "apply", "--symbol-file", "bad.json", "--in", "F.json", "--z", "0,0"],
        '{"kind": "gauss", "params": {}, "taylor": [[1, 0]]}',
    ),
    "top_level_list": (["frft", "--alpha", "1", "--in", "bad.json", "--out", "x.json"], "[1, 2]"),
    # a stored series that overflows on |z| <= 2 fails the symbol's own
    # evaluator-vs-Taylor check at read, before the plane sum can
    "overflowing_series": (
        ["sop", "apply", "--symbol-file", "bad.json", "--in", "F.json", "--z", "0,0"],
        '{"kind": "poly", "params": {}, "growth_bound": 0.0, "taylor": [[0, 0], [1e308, 0]]}',
    ),
    # entries that are not [re, im] pairs of real numbers, and a bool count,
    # once read as 1+0i and n = 1
    "pair_of_three": (
        ["frft", "--alpha", "1", "--in", "bad.json", "--out", "x.json"],
        '{"basis": "fock", "coeffs": [[1, 0, 3]]}',
    ),
    "bool_pair": (
        ["frft", "--alpha", "1", "--in", "bad.json", "--out", "x.json"],
        '{"basis": "fock", "coeffs": [[true, false]]}',
    ),
    "bool_n": (
        ["frft", "--alpha", "1", "--in", "bad.json", "--out", "x.json"],
        '{"basis": "fock", "n": true, "coeffs": [[1, 0]]}',
    ),
    # an integer past the float range once escaped as an OverflowError
    "int_past_float": (
        ["frft", "--alpha", "1", "--in", "bad.json", "--out", "x.json"],
        '{"basis": "fock", "coeffs": [[1' + "0" * 400 + ', 0]]}',
    ),
    "bool_taylor_pair": (
        ["sop", "apply", "--symbol-file", "bad.json", "--in", "F.json", "--z", "0,0"],
        '{"kind": "poly", "growth_bound": 0.0, "taylor": [[1, 0], [true, false]]}',
    ),
}


class TestContract:
    @pytest.mark.parametrize("name", sorted(NONFINITE))
    def test_nonfinite_input_refused(self, name, workdir, capsys):
        (workdir / "nan.json").write_text('{"basis": "hermite", "coeffs": [[1, 0], [NaN, 0]]}')
        assert run_command(NONFINITE[name]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("fockbridge: error=usage") and err.count("\n") == 1
        assert not (workdir / "x.json").exists()

    @pytest.mark.parametrize("row", ["nan,1,0", "1,0,inf"])
    def test_nonfinite_csv_refused(self, row, workdir, capsys):
        (workdir / "bad.csv").write_text(f"x,re,im\n0,1,0\n{row}\n")
        assert run_command(["frft", "--alpha", "1", "--in", "bad.csv", "--out", "x.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fockbridge: error=usage") and err.count("\n") == 1
        assert "non-finite" in err

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_file_refused(self, name, workdir, capsys):
        argv, text = MALFORMED[name]
        (workdir / "bad.json").write_text(text)
        assert run_command(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("fockbridge: error=usage") and err.count("\n") == 1

    def test_overflowing_rule_sum_is_a_numerical_failure(self, workdir, capsys):
        # finite terms whose running sum passes the largest double
        fileio.write_coeffs_json(FockCoeffs(np.array([0.0, 1e307])), workdir / "big.json")
        rc = run_command(
            ["sop", "apply", "--symbol", "const", "--kappa", "1e3,0", "--in", "big.json", "--z", "0,0"]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("fockbridge: error=numerical") and err.count("\n") == 1

    def test_overflowing_signal_projection_is_a_numerical_failure(self, workdir, capsys):
        fileio.write_signal_csv(SampledSignal(-10.0, 0.025, np.full(801, 1e308)), workdir / "huge.csv")
        assert run_command(["frft", "--alpha", "0.5", "--in", "huge.csv", "--out", "x.csv"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("fockbridge: error=numerical") and err.count("\n") == 1
        assert not (workdir / "x.csv").exists()

    def test_coarse_grid_refused(self, workdir, capsys):
        # 61 samples at dx 0.4 cannot resolve h_63 (dx*sqrt(4n+2)/pi = 2.04);
        # the projection used to exit 0 with a coefficient error of 0.265
        rng = np.random.default_rng(61)
        h = HermiteCoeffs(rng.standard_normal(24) + 1j * rng.standard_normal(24))
        fileio.write_signal_csv(synthesize(h, -12.0, 0.4, 61), workdir / "coarse.csv")
        assert run_command(["bargmann", "--n", "64", "--in", "coarse.csv", "--out", "c.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("fockbridge: error=usage") and err.count("\n") == 1
        assert "cannot resolve" in err and not (workdir / "c.json").exists()

    def test_overflowing_symbol_is_a_numerical_failure(self, workdir):
        # a separate process, so any numpy warning would reach its stderr.
        # The degree-12 symbol is finite on the |z| <= 8 its construction
        # checks, but a coefficient of S_phi F overflows on the band route; a
        # band route with finite coefficients overflows at z; the plane
        # route's rule sum overflows
        taylor = [[0.0, 0.0]] * 12 + [[1e3, 0.0]]
        (workdir / "sym.json").write_text(json.dumps({"kind": "poly", "taylor": taylor}))
        fileio.write_coeffs_json(FockCoeffs(np.array([1e308, 1e308])), workdir / "big.json")
        env = dict(os.environ, PYTHONPATH=str(Path(fockbridge.__file__).parents[1]))
        for argv in (
            ["--symbol-file", "sym.json", "--in", "big.json", "--z", "0.5,0"],
            ["--symbol", "const", "--in", "big.json", "--z", "1.9,0"],
            ["--symbol", "gauss", "--a", "0.25", "--in", "big.json", "--z", "0.5,0"],
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "fockbridge.cli", "sop", "apply", *argv],
                cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 3, argv
            assert proc.stderr.startswith("fockbridge: error=numerical")
            assert proc.stderr.count("\n") == 1


#: One command per route that takes a CSV signal, and whether it builds a
#: line rule: a signal is projected on its own grid, so only the wavelet
#: routes (whose integrals run on line rules) build one.
CSV_ROUTES = {
    "frft": (["frft", "--alpha", "0.7", "--in", "sig.csv", "--out", "o.csv", "--n", "256"], False),
    "bargmann": (["bargmann", "--in", "sig.csv", "--out", "o.json"], False),
    "hilbert": (["hilbert", "--alpha", "1.1", "--phi", "0.6", "--in", "sig.csv", "--out", "o.csv"],
                False),
    "wavelet": (["wavelet", "--s", "1.5", "--g", "g.csv", "--in", "sig.csv", "--out", "o.csv",
                 "--symbol-out", "phi.json"], True),
    "sop_from_g": (["sop", "apply", "--symbol", "from-g", "--g-file", "g.csv", "--s", "1.5",
                    "--in", "F.json", "--z", "0.5,0.2", "--out", "o.json"], True),
}


class TestImportHygiene:
    @pytest.mark.parametrize("route", sorted(CSV_ROUTES))
    def test_csv_routes_load_no_scipy(self, route, workdir):
        argv, builds_rule = CSV_ROUTES[route]
        env = dict(os.environ, PYTHONPATH=str(Path(fockbridge.__file__).parents[1]))
        code = (
            "import sys, fockbridge.cli\n"
            "from fockbridge.quadrature import gauss_hermite_rule\n"
            f"assert fockbridge.cli.run_command({argv!r}) == 0\n"
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')) or '-')\n"
            "print(gauss_hermite_rule.cache_info().currsize)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, cwd=workdir, capture_output=True, text=True, timeout=120, check=True,
        )
        scipy_modules, rules = proc.stdout.splitlines()
        assert scipy_modules == "-"
        assert (int(rules) > 0) == builds_rule

    def test_import_leaves_heavy_scipy_submodules_unloaded(self):
        # The grid Hilbert check projects on its own FFT grid, the PV check's
        # oracle is the split Gauss-Legendre rule and the erf-type kernels
        # are numpy, so the import and both checks load no scipy module.
        env = dict(os.environ, PYTHONPATH=str(Path(fockbridge.__file__).parents[1]))
        code = (
            "import sys, fockbridge, fockbridge.cli\n"
            "def scipy_modules():\n"
            "    print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')) or '-')\n"
            "scipy_modules()\n"
            "from fockbridge.verify import (VerifyConfig, _check_hilbert_grid_consistency,\n"
            "    _check_pv_symbol)\n"
            "_check_hilbert_grid_consistency(VerifyConfig())\n"
            "scipy_modules()\n"
            "_check_pv_symbol(VerifyConfig())\n"
            "scipy_modules()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert proc.stdout.splitlines() == ["-", "-", "-"]

    def test_rules_symbols_and_sop_matrices_load_no_scipy(self, workdir):
        # Rules come from the package's own Newton-Christoffel constructions and
        # the erf-type kernels are numpy, so the import, every rule the
        # package builds, symbol construction, the erf-type kernels and the PV
        # symbol, a derivative-route matrix and a CLI data command run without
        # any scipy module, and without numpy.polynomial.
        env = dict(os.environ, PYTHONPATH=str(Path(fockbridge.__file__).parents[1]))
        code = (
            "import sys\n"
            "import fockbridge, fockbridge.cli\n"
            "from fockbridge import (A_eval, A_phi_eval, gauss_hermite_rule, gaussian_symbol,\n"
            "    hilbert_symbol, phi_n_closed, plane_gaussian_rule, s_phi_matrix, split_line_rule)\n"
            "from fockbridge.representation import PLANE_RULE_SIZES\n"
            "from fockbridge.singular import poly_symbol\n"
            "for k in (64, 120, 160, 200, 240, 480, 512):\n"
            "    gauss_hermite_rule(k)\n"
            "plane = plane_gaussian_rule(*PLANE_RULE_SIZES)\n"
            "split_line_rule()\n"
            "gaussian_symbol(0.25, 0.3), phi_n_closed(3, 1.0)\n"
            "s_phi_matrix(poly_symbol([1.0, 0.5j, 0.2]), 8, plane, method='deriv')\n"
            "assert fockbridge.cli.run_command(['bargmann', '--in', 'h.json', '--out', 'F2.json']) == 0\n"
            "A_eval(0.3 + 0.2j), A_phi_eval(0.7, [0.3 + 0.2j, 1.5]), hilbert_symbol().evaluate(1.2)\n"
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')) or '-')\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('numpy.polynomial'))) or '-')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, cwd=workdir, capture_output=True, text=True, timeout=120, check=True,
        )
        assert proc.stdout.splitlines() == ["-", "-"]

    def test_verify_hilbert_suite_loads_no_scipy(self):
        # the suite that evaluates both erf-type kernels on the plane rule
        env = dict(os.environ, PYTHONPATH=str(Path(fockbridge.__file__).parents[1]))
        code = (
            "import contextlib, io, sys, fockbridge.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = fockbridge.cli.run_command(['verify', '--suite', 'hilbert'])\n"
            "print(code, ' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')) or '-')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        assert proc.stdout.split() == ["0", "-"]

    def test_hilbert_chain_builds_no_rule(self, workdir):
        # the chain's step multiplier is the closed-form Hermite matrix of
        # sgn, so the command on coefficients builds no quadrature rule
        env = dict(os.environ, PYTHONPATH=str(Path(fockbridge.__file__).parents[1]))
        code = (
            "import fockbridge.cli\n"
            "from fockbridge.quadrature import _split_line_rule, gauss_hermite_rule\n"
            "assert fockbridge.cli.run_command(['hilbert', '--alpha', '1.1', '--phi', '0.6',\n"
            "    '--in', 'h.json', '--out', 'hf.json']) == 0\n"
            "print(_split_line_rule.cache_info().currsize, gauss_hermite_rule.cache_info().currsize)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, cwd=workdir, capture_output=True, text=True, timeout=120, check=True,
        )
        assert proc.stdout.split() == ["0", "0"]

    def test_import_loads_no_thread_pool(self):
        # concurrent.futures pulls in logging, traceback and queue; neither
        # the import nor a run of the checks, one after another, loads them
        env = dict(os.environ, PYTHONPATH=str(Path(fockbridge.__file__).parents[1]))
        code = (
            "import sys, fockbridge, fockbridge.cli\n"
            "def loaded():\n"
            "    print(' '.join(sorted(m for m in sys.modules\n"
            "        if m.split('.')[0] in ('concurrent', 'logging'))) or '-')\n"
            "loaded()\n"
            "from fockbridge.verify import run_suite\n"
            "assert run_suite('basis').passed\n"
            "loaded()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert proc.stdout.splitlines() == ["-", "-"]
        with pytest.raises(ConfigurationError, match="threads=2"):
            VerifyConfig(threads=2)

    def test_checks_that_draw_load_no_numpy_random(self):
        # numpy.random brings mtrand, five bit generators and hashlib/OpenSSL;
        # the checks draw from the standard library's generator instead
        env = dict(os.environ, PYTHONPATH=str(Path(fockbridge.__file__).parents[1]))
        code = (
            "import sys, fockbridge, fockbridge.cli\n"
            "from fockbridge.verify import CHECKS, VerifyConfig\n"
            "for name in ('frft.group_law', 'frft.unitarity_inversion',\n"
            "             'hilbert.phase_decomposition', 'gaussian.shift_invariance',\n"
            "             'sop.deriv_oracle'):\n"
            "    err, tol = CHECKS[name][0](VerifyConfig())\n"
            "    assert err <= tol, name\n"
            "print('numpy.random' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert proc.stdout.split() == ["False"]


class TestReproducibility:
    """A verify report is a pure function of its seed on one numpy build and
    CPU dispatch; another dispatch may move its bytes, never its verdicts."""

    ARGV = ["verify", "--suite", "bargmann", "--seed", "42", "--compact"]
    #: the AVX-512 dispatch targets numpy can turn off, leaving AVX2 kernels
    AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")

    def _report(self, **env):
        env = dict(os.environ, PYTHONPATH=str(Path(fockbridge.__file__).parents[1]), **env)
        proc = subprocess.run(
            [sys.executable, "-m", "fockbridge.cli", *self.ARGV],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        return proc.stdout

    def test_same_bytes_twice(self):
        assert self._report() == self._report()

    def test_another_cpu_dispatch_keeps_every_verdict(self):
        from numpy._core._multiarray_umath import __cpu_features__

        if not all(__cpu_features__.get(f) for f in self.AVX512):
            pytest.skip("this CPU has no AVX-512 dispatch to turn off")
        first = json.loads(self._report())["checks"]
        avx2 = json.loads(self._report(NPY_DISABLE_CPU_FEATURES=" ".join(self.AVX512)))["checks"]
        assert [c["name"] for c in avx2] == [c["name"] for c in first]
        for a, b in zip(first, avx2):
            assert b["passed"], b
            assert a["max_error"] / 10 <= b["max_error"] <= 10 * a["max_error"], (a, b)
