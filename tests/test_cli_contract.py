"""The CLI contract over generated command lines.

For any argv drawn from the flag grammar of the data and operator commands,
with non-finite and out-of-range numbers, malformed ``re,im`` strings and
malformed or missing files: ``run_command`` returns instead of raising, the
exit code is in {0, 1, 2, 3}, a failure leaves exactly one stderr line
starting ``fockbridge: error=``, and a success writes only finite numbers
and, when asked, the ``--dump-grid`` file (which ``hilbert --classical``
refuses with exit 2, as it refuses ``--alpha``, ``--phi`` and ``--n``).
``sop apply`` serves a polynomial symbol of at most DERIV_ORDER_CAP (40)
coefficients on the band route, and refuses a longer one, which is past the
plane rule's degree edge, with exit 2.  Symbol files are read as the
polynomial they store, whatever their ``kind`` says.
"""

import contextlib
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fockbridge import fileio
from fockbridge.cli import run_command
from fockbridge.representation import FockCoeffs, HermiteCoeffs, synthesize
from fockbridge.singular import DERIV_ORDER_CAP, PLANE_POLY_DEGREE_MAX, gaussian_symbol, poly_symbol

#: The degree-39 polynomial the plane rule resolved 9e-4 off relative, under
#: the label it once passed with, with no label, and with a numeric one.
_RNG = np.random.default_rng([39, 1])
_MONO = (_RNG.standard_normal(40) + 1j * _RNG.standard_normal(40)) * 0.6 ** np.arange(40)
_DEG39 = {"params": {}, "growth_bound": 0.0,
          "taylor": [[c.real, c.imag] for c in poly_symbol(_MONO).taylor.coeffs.tolist()]}

#: Malformed, non-finite or extreme files that an argv can name.
ODD = {
    "list.json": "[1, 2]",
    "garbage.json": "{not json",
    "nan.json": '{"basis": "fock", "coeffs": [[NaN, 0]]}',
    "huge.json": '{"basis": "fock", "coeffs": [[0, 0], [1e307, 0]]}',
    "null_n.json": '{"basis": "hermite", "n": null, "coeffs": [[1, 0]]}',
    "dict_pair.json": '{"basis": "fock", "coeffs": [{"re": 1}]}',
    "gauss_no_params.json": '{"kind": "gauss", "params": {}, "taylor": [[1, 0]]}',
    "params_list.json": '{"kind": "const", "params": [1], "taylor": [[1, 0]]}',
    "growth_text.json": '{"kind": "poly", "growth_bound": "big", "taylor": [[1, 0]]}',
    "overflow_symbol.json": json.dumps(
        {"kind": "poly", "params": {}, "growth_bound": 0.0,
         "taylor": [[0.0, 0.0]] * 12 + [[1e300, 0.0]]}
    ),
    "deg39_from_g.json": json.dumps({**_DEG39, "kind": "from-g"}),
    "deg39_no_kind.json": json.dumps(_DEG39),
    "kind_number.json": json.dumps({**_DEG39, "kind": 1e308}),
    "bad_row.csv": "x,re,im\n0,1,0\n0.1,one,0\n",
    "one_row.csv": "x,re,im\n0,1,0\n",
    "nan.csv": "x,re,im\n0,nan,0\n0.1,1,0\n0.2,1,0\n",
    "empty.csv": "",
}
VALID = ["h.json", "F.json", "sig.csv", "g.csv", "sym.json"]
INPUTS = [*VALID, "missing.json", *ODD]
OUTPUTS = ("out.json", "out.csv", "grid.csv", "sym_out.json")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    h = HermiteCoeffs(np.array([1.0, 0.5j, 0.0, 0.2]))
    fileio.write_coeffs_json(h, d / "h.json")
    fileio.write_coeffs_json(FockCoeffs(h.coeffs), d / "F.json")
    # 33 samples keep the wavelet command's per-sample sums cheap
    fileio.write_signal_csv(synthesize(h, -4.0, 0.25, 33), d / "sig.csv")
    fileio.write_signal_csv(synthesize(HermiteCoeffs(np.array([1.0 + 0j])), -4.0, 0.25, 33), d / "g.csv")
    fileio.write_symbol_json(gaussian_symbol(0.25, 0.3), d / "sym.json")
    for name, text in ODD.items():
        (d / name).write_text(text)
    cwd = os.getcwd()
    os.chdir(d)
    yield d
    os.chdir(cwd)


def mostly(good, bad):
    """Draw from ``good`` about three times in four, so that commands also
    get past their argument checks."""
    return st.one_of(good, good, good, bad)


REALS = mostly(
    st.floats(-1.4, 1.4),
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from(["nan", "inf", "-inf", "1e309", "x", ""]),
    ),
).map(str)
INTS = mostly(
    st.integers(1, 64), st.one_of(st.integers(-2, 300), st.sampled_from(["1e99", "4.5", "x"]))
).map(str)
COMPLEX = mostly(
    st.tuples(REALS, REALS).map(",".join), st.sampled_from(["1", "1,2,3", "a,b", ",", ""])
)
FILES = mostly(st.sampled_from(VALID), st.sampled_from(INPUTS))
#: Polynomial coefficient lists: short ones, and valid ones past the plane
#: rule's degree edge, on either side of the band route's length cap.
POLY_COEFFS = st.one_of(
    st.lists(COMPLEX, min_size=1, max_size=3),
    st.lists(st.sampled_from(["0.5,0", "0,-0.25", "1,1"]), min_size=PLANE_POLY_DEGREE_MAX + 2,
             max_size=DERIV_ORDER_CAP + 4),
).map(";".join)


def opt(flag, values):
    """An optional ``--flag=value`` argument (the ``=`` form lets values start with '-')."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


def flag(*args):
    """The arguments ``args``, or nothing."""
    return st.sampled_from([[], list(args)])


@st.composite
def argvs(draw):
    infile = ["--in", draw(FILES)]
    out = ["--out", draw(st.sampled_from(OUTPUTS))]
    data = (
        infile + out + draw(opt("--n", INTS))
        + draw(opt("--format", st.sampled_from(["json", "csv"])))
        + draw(flag("--dump-grid", "grid.csv"))
    )
    command = draw(st.sampled_from(["frft", "hilbert", "bargmann", "wavelet", "apply", "matrix"]))
    if command == "frft":
        return ["frft", f"--alpha={draw(REALS)}"] + data
    if command == "hilbert":
        angles = draw(opt("--alpha", REALS)) + draw(opt("--phi", REALS))
        return ["hilbert"] + angles + draw(flag("--classical")) + data
    if command == "bargmann":
        return ["bargmann"] + draw(flag("--inverse")) + data
    if command == "wavelet":
        return (
            ["wavelet", f"--s={draw(REALS)}", "--g", draw(FILES)] + infile + out
            + draw(flag("--symbol-out", "sym_out.json"))
        )
    # a from-g matrix builds a 16384 x 200 exp for each of its 32 x n
    # circle points (about 30 s at n = 4), so only apply draws that symbol
    kinds = ["file", "const", "poly", "gauss", "hilbert"] + (["from-g"] if command == "apply" else [])
    kind = draw(st.sampled_from(kinds))
    symbol = {
        "file": lambda: ["--symbol-file", draw(FILES)],
        "const": lambda: draw(opt("--kappa", COMPLEX)),
        "poly": lambda: draw(opt("--coeffs", POLY_COEFFS)),
        "gauss": lambda: draw(opt("--a", st.one_of(st.sampled_from(["0.25", "0.4"]), REALS)))
        + draw(opt("--b", REALS)),
        "hilbert": lambda: [],
        "from-g": lambda: draw(opt("--s", REALS)) + draw(opt("--g-file", FILES)),
    }[kind]()
    if kind != "file":
        symbol = ["--symbol", kind] + symbol
    symbol += draw(opt("--alpha", REALS)) + draw(flag("--symbol-out", "sym_out.json"))
    if command == "apply":
        zs = draw(st.lists(COMPLEX, min_size=1, max_size=3))
        return (
            ["sop", "apply"] + symbol + infile + [f"--z={z}" for z in zs]
            + draw(flag("--out", "out.json"))
        )
    n = draw(st.one_of(st.integers(-1, 4).map(str), st.sampled_from(["300", "x"])))
    return ["sop", "matrix"] + symbol + [f"--n={n}", "--out", "out.json"]


def numbers(text: str):
    """Every number in a JSON document or an ``x,re,im`` CSV."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return [float(c) for line in text.splitlines()[1:] for c in line.split(",")]
    found, stack = [], [doc]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, (int, float)) and not isinstance(item, bool):
            found.append(float(item))
    return found


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=argvs())
@example(argv=["hilbert", "--classical", "--in", "sig.csv", "--out", "out.csv", "--alpha=0.3"])
@example(argv=["hilbert", "--phi=0.0", "--classical", "--n=8", "--in", "sig.csv", "--out", "out.csv"])
@example(argv=["sop", "apply", "--symbol", "poly", "--coeffs=" + ";".join(["0.5,0"] * 14),
               "--in", "F.json", "--z=0.5,0"])
@example(argv=["sop", "apply", "--symbol", "poly", "--coeffs=" + ";".join(["0.5,0"] * 41),
               "--in", "F.json", "--z=0.5,0"])
@example(argv=["sop", "apply", "--symbol-file", "deg39_from_g.json", "--in", "F.json", "--z=1.9,0"])
def test_contract(files, argv):
    for name in OUTPUTS:
        (files / name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    assert code in (0, 1, 2, 3)
    if "--classical" in argv and "--dump-grid" in argv:
        assert code == 2  # no Hermite expansion to sample on the grid
    if "--classical" in argv and any(a.startswith(("--alpha=", "--phi=", "--n=")) for a in argv):
        assert code == 2  # the grid path has no angle and no truncation order
    coeffs = [a.count(";") for a in argv if a.startswith("--coeffs=")]
    if argv[:2] == ["sop", "apply"] and coeffs and coeffs[0] >= DERIV_ORDER_CAP:
        assert code == 2  # past the band route's length and the plane rule's degree
    if code:
        assert err.getvalue().startswith("fockbridge: error=")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        return
    assert err.getvalue() == ""
    if "--dump-grid" in argv:
        assert (files / "grid.csv").exists()  # the grid is written, not dropped
    texts = [out.getvalue()] + [(files / n).read_text() for n in OUTPUTS if (files / n).exists()]
    assert all(math.isfinite(v) for text in texts if text for v in numbers(text))
