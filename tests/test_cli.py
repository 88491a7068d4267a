"""Golden tests for the command-line interface: outputs, exit codes, schema."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import jsonschema
import pytest

from fockspec import banded, cli
from fockspec.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "cli_schema.json").read_text()
)


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def run_json(*argv):
    code, text = run_cli(*argv)
    payload = json.loads(text)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


# -- normal-order ----------------------------------------------------------------


def test_normal_order_reordering():
    code, payload = run_json("normal-order", "--expr", "a^2*b^2")
    assert code == 0
    assert payload["result"]["canonical"] == "b^2*a^2 + 4*b*a + 2"
    assert payload["result"]["terms"][0] == {"b": 2, "a": 2, "coeff": "1"}


def test_normal_order_commutator():
    code, payload = run_json("normal-order", "--expr", "a*b-b*a")
    assert code == 0
    assert payload["result"]["canonical"] == "1"


def test_normal_order_unbound_parameter_exits_2():
    code, payload = run_json("normal-order", "--expr", "k*a")
    assert code == 2
    assert "unbound parameter 'k'" in payload["diagnostics"][0]


def test_parse_error_exits_1():
    code, payload = run_json("normal-order", "--expr", "a +* b")
    assert code == 1


def test_missing_operator_exits_1():
    code, _ = run_json("normal-order")
    assert code == 1


# -- classify ----------------------------------------------------------------------


def test_classify_hermite():
    code, payload = run_json("classify", "--op", "hermite", "--nmax", "8")
    assert code == 0
    assert payload["result"]["exactly_solvable"] is True
    assert payload["result"]["invariant_degrees"] == list(range(9))


def test_classify_lame():
    code, payload = run_json(
        "classify", "--op", "lame",
        "--bind", "m=2", "--bind", "d=1", "--bind", "n=3",
        "--nmax", "8",
    )
    assert code == 0
    assert payload["result"]["invariant_degrees"] == [3]
    assert payload["result"]["constraint_residuals"] == ["0"]


def test_classify_creation_operator():
    code, payload = run_json("classify", "--expr", "b", "--nmax", "6")
    assert code == 0
    assert payload["result"]["exactly_solvable"] is False
    assert payload["result"]["invariant_degrees"] == []
    assert payload["result"]["leakage_witness"]["overflow"][-1] == "1"


def test_classify_missing_binding_exits_2():
    code, payload = run_json("classify", "--op", "lame", "--bind", "m=2")
    assert code == 2
    assert "missing binding" in payload["diagnostics"][0]


# -- spectrum ----------------------------------------------------------------------


def test_spectrum_hermite_differential():
    code, payload = run_json(
        "spectrum", "--op", "hermite", "--n", "5", "--realization", "differential"
    )
    assert code == 0
    result = payload["result"]
    assert result["char_poly"]["text"] == (
        "t^6 - 15*t^5 + 85*t^4 - 225*t^3 + 274*t^2 - 120*t"
    )
    exact = [pair["eigenvalue"]["exact"] for pair in result["eigenpairs"]]
    assert exact == ["0", "1", "2", "3", "4", "5"]


def test_spectrum_sextic_numeric():
    code, payload = run_json(
        "spectrum", "--op", "sextic",
        "--bind", "alpha=1", "--bind", "beta=0", "--bind", "n=1",
        "--n", "1",
    )
    assert code == 0
    result = payload["result"]
    assert result["char_poly"]["text"] == "t^2 - 8"
    res = [pair["eigenvalue"] for pair in result["eigenpairs"]]
    assert res[0]["re"] == pytest.approx(-2.8284271247461903, abs=1e-12)
    assert res[1]["re"] == pytest.approx(2.8284271247461903, abs=1e-12)
    assert all(r["residual"] <= 1e-12 for r in res)


def test_spectrum_delta_realization():
    code, payload = run_json(
        "spectrum", "--op", "hermite", "--n", "3",
        "--realization", "delta", "--delta", "1/3",
    )
    assert code == 0
    assert payload["result"]["realization"] == "delta=1/3"
    assert payload["result"]["char_poly"]["coeffs"] == ["0", "-6", "11", "-6", "1"]


@pytest.mark.parametrize(
    "argv, column, overflow",
    [
        pytest.param(["--expr", "b"], 2, ["0", "0", "0", "1"], id="differential"),
        # a complex-fiber leakage prints as the BiPoly repr
        pytest.param(
            ["--expr", "b*b*a", "--realization", "complex"], 2, "BiPoly(2*z^0*zbar^3)",
            id="complex",
        ),
        pytest.param(
            ["--expr", "1/3*b*b*a + b", "--realization", "complex", "--fiber-m", "2"], 2,
            "BiPoly(10*z^0*zbar^1 + -10*z^1*zbar^2 + 5/3*z^2*zbar^3)",
            id="complex-m2",
        ),
    ],
)
def test_spectrum_leakage_exits_3(argv, column, overflow):
    code, payload = run_json("spectrum", *argv, "--n", "2")
    assert code == 3
    assert payload["result"]["leakage"]["column"] == column
    assert payload["result"]["leakage"]["overflow"] == overflow


def test_spectrum_complex_fiber():
    code, payload = run_json(
        "spectrum", "--op", "number", "--n", "3",
        "--realization", "complex", "--fiber-m", "2",
    )
    assert code == 0
    exact = [p["eigenvalue"]["exact"] for p in payload["result"]["eigenpairs"]]
    assert exact == ["0", "1", "2", "3"]


# -- isospectral -------------------------------------------------------------------


def test_isospectral_hermite_defaults():
    code, payload = run_json("isospectral", "--op", "hermite", "--n", "5")
    assert code == 0
    result = payload["result"]
    assert result["equal"] is True
    labels = [entry["realization"] for entry in result["char_polys"]]
    assert labels == [
        "differential", "delta=1", "delta=1/3", "q=2", "q=1/2", "complex m=0",
    ]
    assert len({entry["text"] for entry in result["char_polys"]}) == 1


def test_isospectral_lame_with_fibers():
    code, payload = run_json(
        "isospectral", "--op", "lame",
        "--bind", "m=2", "--bind", "d=1", "--bind", "n=3",
        "--n", "3", "--fibers", "0,1,2,3,4",
    )
    assert code == 0
    assert payload["result"]["equal"] is True
    assert len(payload["result"]["char_polys"]) == 10


def test_isospectral_sextic():
    code, payload = run_json(
        "isospectral", "--op", "sextic",
        "--bind", "alpha=1", "--bind", "beta=1", "--bind", "n=2",
        "--n", "2",
    )
    assert code == 0
    assert payload["result"]["equal"] is True
    assert all(len(e["coeffs"]) == 4 for e in payload["result"]["char_polys"])


# -- catalog ------------------------------------------------------------------------


def test_catalog_listing():
    code, payload = run_json("catalog")
    assert code == 0
    names = [op["name"] for op in payload["result"]["operators"]]
    for required in (
        "hermite", "laguerre", "heun", "lame", "sextic",
        "number", "jplus", "jzero", "jminus",
    ):
        assert required in names
    lame_entry = next(op for op in payload["result"]["operators"] if op["name"] == "lame")
    assert lame_entry["params"] == ["m", "d", "n"]


# -- determinism and config -----------------------------------------------------------


def test_json_output_is_byte_stable():
    args = (
        "spectrum", "--op", "sextic",
        "--bind", "alpha=1", "--bind", "beta=0", "--bind", "n=1", "--n", "1",
    )
    _, first = run_cli(*args)
    _, second = run_cli(*args)
    assert first == second


def test_config_file_overridden_by_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol=1e-6\ndeltas=2,3\nformat=json\n")
    code, payload = run_json(
        "--config", str(cfg), "--tol", "1e-10", "isospectral",
        "--op", "hermite", "--n", "2",
    )
    assert code == 0
    assert payload["config"]["tol"] == 1e-10  # flag wins
    assert payload["config"]["deltas"] == ["2", "3"]  # file value survives
    labels = [e["realization"] for e in payload["result"]["char_polys"]]
    assert "delta=2" in labels and "delta=3" in labels


def test_text_format():
    code, text = run_cli(
        "--format", "text", "normal-order", "--expr", "a*b"
    )
    assert code == 0
    assert "canonical: b*a + 1" in text


def test_heun_entry_through_the_cli():
    # cubic-family coefficients matching sextic(alpha=1, beta=0) at n = 3
    code, payload = run_json(
        "spectrum", "--op", "heun",
        "--bind", "a1=-4", "--bind", "b2=4", "--bind", "b0=-2",
        "--bind", "d1=-12", "--bind", "n=3", "--n", "3",
    )
    assert code == 0
    assert len(payload["result"]["char_poly"]["coeffs"]) == 5  # degree 4
    assert len(payload["result"]["eigenpairs"]) == 4


def test_heun_nilpotent_top_block():
    # with only a3, b2, d1 set, the restriction is nilpotent: t^4, a single
    # eigenvector for the fourfold eigenvalue 0
    code, payload = run_json(
        "spectrum", "--op", "heun",
        "--bind", "a3=4", "--bind", "b2=6", "--bind", "d1=-42",
        "--bind", "n=3", "--n", "3",
    )
    assert code == 0
    assert payload["result"]["char_poly"]["text"] == "t^4"
    assert len(payload["result"]["eigenpairs"]) == 1


def test_heun_constraint_violation_exits_3():
    code, payload = run_json(
        "spectrum", "--op", "heun",
        "--bind", "a3=4", "--bind", "b2=6", "--bind", "d1=-41",
        "--bind", "n=3", "--n", "3",
    )
    assert code == 3
    assert "residual" in payload["diagnostics"][0]


def test_bad_tolerance_exits_1():
    for argv in (
        ["--tol", "-1", "normal-order", "--expr", "a"],
        ["--tol", "nan", "normal-order", "--expr", "b*a"],
        ["--tol", "inf", "spectrum", "--op", "hermite", "--n", "2"],
    ):
        code, payload = run_json(*argv)
        assert code == 1, argv
        assert "tolerance" in payload["diagnostics"][0]


def test_degree_overflow_exits_1():
    code, payload = run_json("normal-order", "--expr", "b^40*b^40")
    assert code == 1
    assert "degree cap" in payload["diagnostics"][0]


def test_bad_realization_parameter_exits_1():
    code, payload = run_json(
        "spectrum", "--op", "hermite", "--n", "2", "--realization", "q", "--q", "1"
    )
    assert code == 1
    assert "q must differ" in payload["diagnostics"][0]


def test_undefined_q_raising_action_exits_1():
    # at q = -1, {2}_q = 0, so b is undefined on x.  Acting term by term
    # applies b to b(a x) = x and raises; Horner in b, b*(b*a - 1), would
    # cancel x against -x first and never raise.
    code, payload = run_json(
        "spectrum", "--expr", "b^2*a-b", "--n", "1", "--realization", "q", "--q", "-1"
    )
    assert code == 1
    assert payload["diagnostics"] == ["raising action undefined: {2}_q = 0 for q = -1"]


@pytest.mark.parametrize("argv", [
    ["spectrum", "--op", "hermite", "--n", "3", "--realization", "q", "--q", "-1"],
    ["isospectral", "--op", "hermite", "--n", "3", "--qs", "-1"],
])
def test_q_lattice_span_with_a_vanishing_q_number_exits_1(argv):
    # {2}_q = 0 at q = -1, so a x^2 = 0 and [a, b] = 1 fails on every span
    # that holds x^2: the spectrum would read 0, 0, 1, 3 in place of 0..3
    code, payload = run_json(*argv)
    assert code == 1
    assert payload["diagnostics"] == [
        "q-lattice pair is not a Heisenberg pair on degrees 0..3: {2}_q = 0 for q = -1"
    ]


def test_numeric_non_convergence_exits_4():
    # complex pair with a one-step iteration budget cannot converge
    code, payload = run_json(
        "--iter-cap", "1",
        "spectrum", "--op", "sextic",
        "--bind", "alpha=-1", "--bind", "beta=0", "--bind", "n=1",
        "--n", "1",
    )
    assert code == 4
    assert "converge" in payload["diagnostics"][0]


def test_uncertified_eigenvector_exits_4():
    # a vector that never passes the exact backward-error test is not emitted
    with mock.patch.object(banded.Band, "certifies", return_value=False):
        code, payload = run_json(
            "spectrum", "--op", "lame", "--bind", "m=2", "--bind", "d=1", "--bind", "n=3",
            "--n", "3",
        )
    assert code == 4
    assert "failed to certify an eigenvector" in payload["diagnostics"][0]


@pytest.mark.parametrize(
    "op, binds, n",
    [
        ("sextic", ("alpha=1", "beta=1", "n=8"), 8),
        ("sextic", ("alpha=1", "beta=1", "n=10"), 10),
        ("lame", ("m=2", "d=1", "n=10"), 10),
        ("lame", ("m=10000", "d=1", "n=3"), 3),
    ],
)
def test_correct_numeric_spectra_are_certified(op, binds, n):
    # real roots are certified by their exact bracket (not a float residual)
    # and eigenvectors by a backward error relative to the matrix norm
    argv = ["spectrum", "--op", op, "--n", str(n)]
    for bind in binds:
        argv += ["--bind", bind]
    code, payload = run_json(*argv)
    assert code == 0
    pairs = payload["result"]["eigenpairs"]
    assert len(pairs) == n + 1
    assert all(p["eigenvalue"]["im"] == 0 for p in pairs)


def test_float_overflow_exits_4():
    # t^2 - 2*10^800: the irrational roots +-sqrt(2)*10^400 have no float
    code, payload = run_json("spectrum", "--expr", "2*10^800*a + b - b^2*a", "--n", "1")
    assert code == 4
    assert "too large" in payload["diagnostics"][0]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "m, n",
    [("1099511627777/3", 32), ("1099511627777/3", 64), ("1048577/3", 64)],
    ids=["2^40+1,32", "2^40+1,64", "2^20+1,64"],
)
def test_real_residuals_beyond_float_coefficients_exit_0(m, n):
    # Lame(p/3, 1, n), p = 2^h + 1: characteristic polynomial coefficients
    # beyond float range, every real root certified by its exact bracket; the
    # residual is then evaluated exactly at the float, so the output is
    # finite, valid JSON
    code, text = run_cli("spectrum", "--op", "lame", "--bind", f"m={m}", "--bind", "d=1",
                         "--bind", f"n={n}", "--n", str(n))
    assert code == 0, text[-300:]
    payload = json.loads(text, parse_constant=_refuse_constant)
    residuals = [p["eigenvalue"]["residual"] for p in payload["result"]["eigenpairs"]]
    assert len(residuals) == n + 1 and all(math.isfinite(r) for r in residuals)


@pytest.mark.parametrize(
    "expr, n",
    [("b*a - 10^400", 1), ("b*a*b*a - 10^400", 2), ("1" + "0" * 400 + "*b*a + a", 1)],
    ids=["shifted-number", "number-squared", "huge-coefficient"],
)
def test_exact_eigenvalues_beyond_float_range_exit_0(expr, n):
    # an exact eigenvalue prints as "p/q" and needs no float
    code, payload = run_json("spectrum", "--expr", expr, "--n", str(n))
    assert code == 0
    assert all("exact" in p["eigenvalue"] for p in payload["result"]["eigenpairs"])
    assert any(len(p["eigenvalue"]["exact"]) > 400 for p in payload["result"]["eigenpairs"])


@pytest.mark.parametrize("expr, canonical", [("1^100000000", "1"), ("(a - a)^100000000", "0")])
def test_huge_powers_of_one_and_zero_are_fast(expr, canonical):
    import time

    start = time.perf_counter()
    code, payload = run_json("normal-order", "--expr", expr)
    assert code == 0 and payload["result"]["canonical"] == canonical
    assert time.perf_counter() - start < 2.0


def test_huge_power_over_the_cap_exits_1():
    code, payload = run_json("normal-order", "--expr", "b^100000000")
    assert code == 1
    assert "degree cap" in payload["diagnostics"][0]


def test_bad_format_in_config_file_exits_1(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = yaml\n")
    code, payload = run_json("--config", str(cfg), "normal-order", "--expr", "a")
    assert code == 1
    assert "format" in payload["diagnostics"][0]
    # the flag beats the file before the file value is checked
    code, payload = run_json("--config", str(cfg), "--format", "json", "normal-order", "--expr", "a")
    assert code == 0 and payload["config"]["format"] == "json"


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--op", "hermite", "--n", "-1"],
        ["spectrum", "--op", "hermite", "--n", "-1", "--realization", "delta"],
        ["spectrum", "--op", "hermite", "--n", "-1", "--realization", "q"],
        ["spectrum", "--op", "hermite", "--n", "-1", "--realization", "complex"],
        ["isospectral", "--op", "hermite", "--n", "-1"],
        ["classify", "--expr", "b*a", "--nmax", "-1"],
    ],
)
def test_negative_degree_exits_1(argv):
    code, payload = run_json(*argv)
    assert code == 1
    assert "nonnegative" in payload["diagnostics"][0]


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--expr", "b*a", "--n", "2", "--realization", "complex", "--fiber-m", "-1"],
        ["isospectral", "--op", "hermite", "--n", "2", "--fibers=-1"],
    ],
    ids=["spectrum", "isospectral"],
)
def test_negative_vacuum_exits_1(argv):
    code, payload = run_json(*argv)
    assert code == 1
    assert payload["diagnostics"] == ["vacuum z-degree must be nonnegative"]


def test_negative_vacuum_after_a_leaking_space_exits_3():
    # the vacuum is checked when its matrix is assembled, after the
    # differential span has already leaked
    code, payload = run_json(
        "isospectral", "--op", "lame", "--bind", "m=2", "--bind", "d=1", "--bind", "n=4",
        "--n", "5", "--fibers=-1",
    )
    assert code == 3
    assert payload["diagnostics"] == ["column 5 leaks out of the requested span"]
    assert payload["result"]["leakage"]["column"] == 5


def test_unknown_config_key_exits_1(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("degree-cap = 3\ntol = 1e-10\n")
    code, payload = run_json("--config", str(cfg), "normal-order", "--expr", "b^5")
    assert code == 1
    assert "'degree-cap'" in payload["diagnostics"][0]
    # a file of known keys still loads
    cfg.write_text("degree_cap = 3\n")
    code, payload = run_json("--config", str(cfg), "normal-order", "--expr", "b^3")
    assert code == 0 and payload["config"]["degree_cap"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(
            ["--op", "lame", "--bind", "m=2", "--bind", "d=1", "--bind", "n=64", "--n", "64",
             "--fibers", "0"],
            id="lame",
        ),
        # reaches the complex fiber m = 1 at the envelope
        pytest.param(
            ["--op", "sextic", "--bind", "alpha=1", "--bind", "beta=1", "--bind", "n=64",
             "--n", "64", "--fibers", "0,1"],
            id="sextic",
        ),
    ],
)
def test_lame_64_isospectral_is_fast(argv):
    # the design envelope: degree 64 over the default lattices within seconds
    import time

    start = time.perf_counter()
    code, payload = run_json("isospectral", *argv)
    assert code == 0 and payload["result"]["equal"] is True
    assert time.perf_counter() - start < 8.0


#: one op of every command, real and complex numeric eigenvectors included
EVERY_COMMAND = (
    ["normal-order", "--expr", "(a+b)^3"],
    ["classify", "--op", "hermite", "--nmax", "8"],
    ["isospectral", "--op", "hermite", "--n", "5"],
    ["spectrum", "--op", "hermite", "--n", "6"],
    ["spectrum", "--op", "lame", "--bind", "m=2", "--bind", "d=1", "--bind", "n=8", "--n", "8"],
    ["spectrum", "--op", "sextic", "--bind", "alpha=-1", "--bind", "beta=0", "--bind", "n=5",
     "--n", "5"],
    ["catalog"],
)


def _fresh_process(setup):
    """Exit code and numeric eigenvalue kinds of each op of EVERY_COMMAND,
    run in a fresh interpreter after ``setup``, and whether numpy was
    loaded at the end."""
    script = (
        "import io, json, sys\n"
        f"{setup}\n"
        "from fockspec.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    code = main(argv, out=out)\n"
        "    pairs = json.loads(out.getvalue())['result'].get('eigenpairs', [])\n"
        "    kinds = sorted({'complex' if p['eigenvalue'].get('im') else 'real'\n"
        "                    for p in pairs if 're' in p['eigenvalue']})\n"
        "    print(json.dumps([code, kinds]))\n"
        "print(json.dumps('numpy' in sys.modules))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(EVERY_COMMAND)], capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    *ops, loaded = [json.loads(line) for line in done.stdout.splitlines()]
    return ops, loaded


def test_no_command_imports_numpy():
    # the package has no runtime dependency: a fresh process that runs every
    # command, numeric spectra included, never loads numpy
    ops, loaded = _fresh_process("")
    assert [code for code, _ in ops] == [0] * len(EVERY_COMMAND)
    assert loaded is False


def test_numeric_spectra_run_with_numpy_blocked():
    # a None entry in sys.modules makes every import of numpy raise; numeric
    # eigenvectors, real and complex, still exit 0 with an envelope
    ops, _ = _fresh_process("sys.modules['numpy'] = None")
    assert ops == [[0, []]] * 4 + [[0, ["real"]], [0, ["complex"]], [0, []]]


def test_numerators_beyond_the_digit_limit_are_written_out():
    # the exact eigenvector numerators have about 6100 digits, beyond the
    # int-to-text limit of Python 3.10.7 on; the limit is back after the call
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, payload = run_json(
        "spectrum", "--op", "hermite", "--n", "64", "--realization", "q", "--q", "1000/999"
    )
    assert code == 0, payload["diagnostics"]
    pairs = payload["result"]["eigenpairs"]
    assert len(pairs) == 65 and max(len(c) for ev in pairs for c in ev["eigenvector"]) > 4300
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


#: one process, calls in sequence: a target degree and then none, a lattice
#: realization and then the default, repeated --bind with other values, text
#: and then JSON, and a usage error in between
SEQUENCE = [
    ["classify", "--op", "hermite", "--n", "4"],
    ["classify", "--op", "hermite"],
    ["spectrum", "--op", "hermite", "--n", "3", "--realization", "q", "--q", "3"],
    ["spectrum", "--op", "hermite", "--n", "3"],
    ["classify", "--op", "lame", "--bind", "m=2", "--bind", "d=1", "--bind", "n=4"],
    ["classify", "--op", "lame", "--bind", "m=3", "--bind", "d=1", "--bind", "n=2"],
    ["normal-order", "--expr", "x*b"],
    ["--format", "text", "classify", "--op", "hermite", "--nmax", "3"],
    ["spectrum", "--op", "hermite"],
    ["classify", "--op", "hermite", "--nmax", "3"],
    ["normal-order", "--expr", "x*b", "--bind", "x=3"],
]


def test_shared_parser_carries_no_state_between_calls():
    assert cli._shared_parser() is cli._shared_parser()
    assert cli.build_arg_parser() is not cli.build_arg_parser()
    shared = [run_cli(*argv) for argv in SEQUENCE]
    with mock.patch.object(cli, "_shared_parser", cli.build_arg_parser):
        fresh = [run_cli(*argv) for argv in SEQUENCE]
    assert shared == fresh
    assert [code for code, _ in shared] == [0, 0, 0, 0, 0, 0, 2, 0, 1, 0, 0]
