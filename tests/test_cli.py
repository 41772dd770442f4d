import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fockbridge

from fockbridge import fileio
from fockbridge.cli import run_command
from fockbridge.representation import FockCoeffs, HermiteCoeffs, synthesize
from fockbridge.verify import default_threads


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
        # cubic interpolation at the projection nodes bounds the round trip
        assert float(np.abs(a.values - b.values).max()) < 1e-6

    def test_fock_input_rotates(self, workdir):
        rc = run_command(["frft", "--alpha", "0.7", "--in", "F.json", "--out", "Fr.json"])
        assert rc == 0
        out = fileio.read_coeffs_json(workdir / "Fr.json")
        assert isinstance(out, FockCoeffs)

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

    def test_fractional_coefficients(self, workdir):
        rc = run_command(
            ["hilbert", "--alpha", "1.1", "--phi", "0.6", "--in", "h.json", "--out", "hf.json"]
        )
        assert rc == 0
        out = fileio.read_coeffs_json(workdir / "hf.json")
        assert isinstance(out, HermiteCoeffs)


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
        rc = run_command(
            ["sop", "apply", "--symbol", "hilbert", "--growth-cap", "0.5",
             "--in", "F.json", "--z", "0.3,0.1"]
        )
        assert rc == 0

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


class TestWaveletCommand:
    def test_transform_and_symbol(self, workdir):
        rc = run_command(
            ["wavelet", "--s", "1.0", "--g", "g.csv", "--in", "sig.csv", "--out", "w.csv",
             "--symbol-out", "phi.json"]
        )
        assert rc == 0
        assert fileio.read_signal_csv(workdir / "w.csv").values.size == 801
        assert json.loads((workdir / "phi.json").read_text())["kind"] == "from-g"


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
        assert doc["config"]["seed"] == 7

    def test_unknown_suite_usage_error(self, workdir):
        assert run_command(["verify", "--suite", "nonsense"]) == 2

    def test_thread_env_cap(self, workdir, monkeypatch):
        monkeypatch.setenv("FOCKBRIDGE_THREADS", "2")
        assert run_command(["verify", "--suite", "basis", "--threads", "8"]) == 0

    @pytest.mark.parametrize(
        "raw, cap", [(None, None), ("2", 2), (" 2", 2), ("0", 1), ("many", None)]
    )
    def test_thread_env_reader(self, monkeypatch, raw, cap):
        if raw is None:
            monkeypatch.delenv("FOCKBRIDGE_THREADS", raising=False)
        else:
            monkeypatch.setenv("FOCKBRIDGE_THREADS", raw)
        assert default_threads() == cap

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
        (workdir / "cfg.json").write_text('{"suite": "basis", "zeal": 9}')
        assert run_command(["verify", "--config", "cfg.json"]) == 2


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

    def test_overflowing_symbol_is_a_numerical_failure(self, workdir):
        # a separate process, so any numpy warning would reach its stderr
        taylor = [[0.0, 0.0]] * 19 + [[1e300, 0.0]]
        (workdir / "big.json").write_text(
            json.dumps({"kind": "poly", "params": {}, "growth_bound": 0.0, "taylor": taylor})
        )
        env = dict(os.environ, PYTHONPATH=str(Path(fockbridge.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "fockbridge.cli", "sop", "apply", "--symbol-file", "big.json",
             "--in", "F.json", "--z", "0.5,0"],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("fockbridge: error=numerical") and proc.stderr.count("\n") == 1
