"""Tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest -q bench/test_bench.py

Each oracle must reject a perturbed output, and the op lists must depend on
the seed alone.
"""

from __future__ import annotations

import copy
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402
from fockspec import cli  # noqa: E402


def _run(op):
    buf = io.StringIO()
    code = cli.main(op["argv"], out=buf)
    return {"exit": code, "stdout": buf.getvalue()}


def _edit(result, fn):
    """Copy of a CLI result with ``fn`` applied to its parsed envelope."""
    env = json.loads(result["stdout"])
    fn(env["result"])
    return {"exit": 0, "stdout": json.dumps(env)}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_list_depends_on_seed_alone(workload):
    assert workloads.build(workload, 7) == workloads.build(workload, 7)
    lengths = {len(workloads.build(workload, seed)) for seed in range(20)}
    assert len(lengths) == 1
    if workload != "isospectral-highdeg":  # its Hermite ops have no parameters
        assert workloads.build(workload, 1) != workloads.build(workload, 2)


def test_every_spectrum_point_a_seed_can_draw_passes():
    points = workloads.spectrum_points()
    argvs = {tuple(op["argv"]) for op in points}
    for seed in range(20):
        for op in workloads.build("spectrum-catalog", seed):
            assert _is_known_fault(op) or tuple(op["argv"]) in argvs
    bad = []
    for op in points:
        result = _run(op)
        reason = oracles.check(op, result) if result["exit"] == 0 else f"exit {result['exit']}"
        if reason:
            bad.append((" ".join(op["argv"]), reason))
    assert not bad


def _is_known_fault(op):
    return any(workloads._spectrum_op(name, dict(params), int(params["n"]))["argv"] == op["argv"]
               for name, params in workloads.KNOWN_FAULTS)


def test_known_faults_are_in_every_seed():
    for seed in range(20):
        argvs = [op["argv"] for op in workloads.build("spectrum-catalog", seed)]
        for name, params in workloads.KNOWN_FAULTS:
            assert workloads._spectrum_op(name, dict(params), int(params["n"]))["argv"] in argvs


def test_classify_strata_are_what_the_generator_says():
    for op in workloads.build("classify-expr", 3):
        c = op["check"]
        if c["type"] != "classify" or "tree" not in c:
            continue
        res = json.loads(_run(op)["stdout"])["result"]
        assert oracles.check(op, _run(op)) is None
        if c["stratum"] == "ES":
            assert res["exactly_solvable"]
        elif c["stratum"] == "QES":
            assert not res["exactly_solvable"] and len(res["invariant_degrees"]) == 1
        else:
            assert res["invariant_degrees"] == []


# --- spectrum: characteristic polynomial, roots, eigenvectors --------------

EXACT_OP = workloads._spectrum_op("laguerre", {"alpha": "1/2"}, 5)
REAL_OP = workloads._spectrum_op("lame", {"m": "2", "d": "1", "n": "3"}, 3)
COMPLEX_OP = workloads._spectrum_op("sextic", {"alpha": "-1", "beta": "0", "n": "3"}, 3)
Q_OP = workloads._spectrum_op("sextic", {"alpha": "2", "beta": "0", "n": "4"}, 4, ("q", "1/2"))


@pytest.mark.parametrize("op", [EXACT_OP, REAL_OP, COMPLEX_OP, Q_OP])
def test_spectrum_output_passes(op):
    assert oracles.check(op, _run(op)) is None


@pytest.mark.parametrize("op", [EXACT_OP, REAL_OP, Q_OP])
def test_char_poly_coefficient_off_by_one_is_rejected(op):
    def bump(res):
        res["char_poly"]["coeffs"][1] = str(Fraction(res["char_poly"]["coeffs"][1]) + 1)

    assert "characteristic polynomial" in oracles.check(op, _edit(_run(op), bump))


def test_wrong_exact_eigenvector_entry_is_rejected():
    def bump(res):
        vec = res["eigenpairs"][2]["eigenvector"]
        vec[0] = str(Fraction(vec[0]) + 1)

    assert "M v" in oracles.check(EXACT_OP, _edit(_run(EXACT_OP), bump))


@pytest.mark.parametrize("op", [REAL_OP, Q_OP, COMPLEX_OP])
def test_wrong_numeric_eigenvector_entry_is_rejected(op):
    def bump(res):
        pair = next(p for p in res["eigenpairs"] if "re" in p["eigenvalue"])
        # a 1e-4 change in one entry of a unit vector
        entry = pair["eigenvector"][0]
        if isinstance(entry, dict):
            entry["re"] += 1e-4
        else:
            pair["eigenvector"][0] = entry + 1e-4

    assert "residual" in oracles.check(op, _edit(_run(op), bump))


def test_shifted_real_root_is_rejected():
    def shift(res):
        ev = next(p["eigenvalue"] for p in res["eigenpairs"] if "re" in p["eigenvalue"])
        ev["re"] += 1e-6 * (1 + abs(ev["re"]))

    assert "sign change" in oracles.check(REAL_OP, _edit(_run(REAL_OP), shift))


def test_two_reported_roots_near_one_root_are_rejected():
    def pair_up(res):
        real = sorted((p["eigenvalue"] for p in res["eigenpairs"] if p["eigenvalue"].get("im") == 0.0),
                      key=lambda ev: ev["re"])
        # the second root is replaced by a float just above the first
        real[1]["re"] = real[0]["re"] + 1e-14 * (1 + abs(real[0]["re"]))

    assert "sign change" in oracles.check(REAL_OP, _edit(_run(REAL_OP), pair_up))


def test_shifted_complex_root_is_rejected():
    def shift(res):
        ev = next(p["eigenvalue"] for p in res["eigenpairs"] if p["eigenvalue"].get("im"))
        ev["im"] += 1e-6

    assert "complex eigenvalue" in oracles.check(COMPLEX_OP, _edit(_run(COMPLEX_OP), shift))


def test_shifted_exact_root_is_rejected():
    def shift(res):
        ev = res["eigenpairs"][1]["eigenvalue"]
        ev["exact"] = str(Fraction(ev["exact"]) + Fraction(1, 2))

    assert "not a root" in oracles.check(EXACT_OP, _edit(_run(EXACT_OP), shift))


def test_rational_root_reported_as_float_is_rejected():
    def floatify(res):
        ev = res["eigenpairs"][1]["eigenvalue"]
        value = float(Fraction(ev.pop("exact")))
        ev.update({"re": value, "im": 0.0, "residual": 0.0})

    assert "rational root" in oracles.check(EXACT_OP, _edit(_run(EXACT_OP), floatify))


def test_isospectral_coefficient_off_by_one_is_rejected():
    op = workloads._isospectral_op("lame", {"m": "2", "d": "1", "n": "4"}, 4)
    result = _run(op)
    assert oracles.check(op, result) is None

    def bump(res):
        entry = res["char_polys"][5]  # a complex fiber
        entry["coeffs"][0] = str(Fraction(entry["coeffs"][0]) + 1)

    assert "complex m=0" in oracles.check(op, _edit(result, bump))


# --- classify and normal-order ---------------------------------------------


def _classify_ops():
    ops = workloads.build("classify-expr", 5)
    by_stratum = {}
    for op in ops:
        c = op["check"]
        by_stratum.setdefault((c["type"], c["stratum"], "tree" in c), op)
    return by_stratum


def test_classify_wrong_degrees_or_flag_are_rejected():
    ops = _classify_ops()
    qes = ops[("classify", "QES", True)]
    result = _run(qes)
    assert oracles.check(qes, result) is None
    assert "invariant degrees" in oracles.check(
        qes, _edit(result, lambda res: res["invariant_degrees"].append(31)))
    es = ops[("classify", "ES", True)]
    assert "exactly_solvable" in oracles.check(
        es, _edit(_run(es), lambda res: res.update(exactly_solvable=False)))


def test_leakage_witness_is_checked():
    op = _classify_ops()[("classify", "leaking", True)]
    result = _run(op)
    assert oracles.check(op, result) is None

    def bump(res):
        over = res["leakage_witness"]["overflow"]
        over[-1] = str(Fraction(over[-1]) + 1)

    assert "leakage witness" in oracles.check(op, _edit(result, bump))


def test_normal_order_wrong_coefficient_is_rejected():
    op = _classify_ops()[("normal-order", "QES", True)]
    result = _run(op)
    assert oracles.check(op, result) is None

    def bump(res):
        res["terms"][0]["coeff"] = str(Fraction(res["terms"][0]["coeff"]) + 1)

    assert "acts differently" in oracles.check(op, _edit(result, bump))


# --- eigvec-es --------------------------------------------------------------


def _eigvec_result(name, params, n):
    from fockspec import catalog, realizations, spectra

    element = catalog.build_from_catalog(name, {k: Fraction(v) for k, v in params.items()}).element
    m = spectra.restrict(element, realizations.Differential(), n)
    evs = [spectra.Eigenvalue.from_exact(Fraction(k)) for k in range(n + 1)]
    return {"vectors": [[[str(c) for c in v] for v in spectra.eigenvector(m, ev)] for ev in evs]}


@pytest.mark.parametrize("name,params", [("hermite", {}), ("laguerre", {"alpha": "3/7"})])
def test_eigvec_wrong_entry_is_rejected(name, params):
    op = {"kind": "eigvec", "op": [name, params], "n": 6,
          "check": {"type": "eigvec", "op": [name, params], "n": 6}}
    result = _eigvec_result(name, params, 6)
    assert oracles.check(op, result) is None
    bad = copy.deepcopy(result)
    bad["vectors"][4][0][2] = str(Fraction(bad["vectors"][4][0][2]) + 1)
    assert "eigenvector 4" in oracles.check(op, bad)


# --- tracing ----------------------------------------------------------------


def test_self_times_add_up_to_the_batch_time():
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        for op in (EXACT_OP, REAL_OP):
            with tracer.op(0):
                _run(op)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    self_total = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(summary["batch_s"], rel=1e-9)
    assert summary["spectra.roots.calls"] == 2
    assert summary["spectra.roots.exact_found"] == 6  # all of Laguerre n=5, none of Lame(2,1,3)
    assert cli.main.__name__ == "main"  # uninstall restored the original


def test_trace_probe_reaches_every_traced_function():
    from tracing import TRACED, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        for op in workloads.TRACE_PROBE:
            with tracer.op(0):
                assert _run(op)["exit"] == 0
    finally:
        tracer.uninstall()
    assert tracer.unreached() == []
    summary = tracer.summary()
    assert all(summary[f"{m}.{f}.calls"] >= 1 for m, f in TRACED)


def test_unreached_traced_function_is_reported():
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.op(0):
            _run(workloads.TRACE_PROBE[2])  # classify only
    finally:
        tracer.uninstall()
    assert "spectra.roots" in tracer.unreached()


# --- deadlines ----------------------------------------------------------------


class _SleepRunner:
    deadline_s = 0.05

    def run(self, op, prepared, deadline_s):
        from worker import call_with_deadline

        return call_with_deadline(lambda: time.sleep(op["sleep"]) or {"exit": 0}, deadline_s)


def test_hung_ops_count_as_failed_and_stop_the_run():
    from worker import attempts, summarize

    ops = [{"sleep": 0}, {"sleep": 10}, {"sleep": 10}, {"sleep": 0}]
    start = time.perf_counter()
    records = list(attempts(_SleepRunner(), ops, [{}] * 4, 5, start + 0.08))
    assert time.perf_counter() - start < 1
    result = summarize(4, records)
    assert result[1]["status"] == "timeout" and result[1]["error"]
    assert result[0]["status"] == "ok"
    assert any(op["status"] == "unfinished" and op["median_s"] is None for op in result)


def test_a_later_timeout_outranks_a_first_ok():
    from worker import summarize

    records = [{"op": 0, "s": 0.1, "status": "ok", "result": {"exit": 0}},
               {"op": 0, "s": 30.0, "status": "timeout", "same": False, "error": "no result"}]
    (op,) = summarize(1, records)
    assert op["status"] == "timeout" and op["error"] == "no result" and not op["stable"]
