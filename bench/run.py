"""fockspec benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload spectrum-catalog --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Steps:

1. set-up: import ``fockspec`` in nine fresh interpreters, one at a time,
   and take the median in-process import time; the worker adds the time to
   build the op list and run one fixed warm-up op;
2. one worker process (``worker.py``, BLAS pinned to one thread) times the
   workload's fixed op list, each op ``reps`` times, and keeps per-op
   medians; ``reps`` follows from ``--seconds`` and a fixed nominal round
   length, never from a clock, so a run's work depends only on its
   arguments;
3. every op's output is checked by ``oracles.py`` after the worker exits.

Each attempt of an op has a deadline, and the worker starts no attempt
after its share of the run's time limit; an op it did not finish counts as
failed.  The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``: end-to-end metrics with ``--trace 0``, per-layer metrics
(from a separate traced pass over the same list) with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import summarize  # noqa: E402

FRESH_IMPORTS = 9
#: nominal seconds of one untraced round (one pass over the op list)
NOMINAL_ROUND_S = {
    "spectrum-catalog": 3.5,
    "isospectral-highdeg": 5.0,
    "classify-expr": 1.5,
    "eigvec-es": 3.0,
}
OP_DEADLINE_S = 30.0
#: the whole run ends within this many seconds
RUN_LIMIT_S = 170.0
#: kept back from the worker for the oracle checks
ORACLE_RESERVE_S = 30.0
#: between the worker's last attempt and killing it: a deadline signal is
#: handled only when the program next runs Python code
KILL_SLACK_S = 15.0

END_TO_END = {"setup_s": "s", "goodput_ops_per_s": "1/s", "op_geomean_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = (
    [f"{m}.{f}.self_s" for m, f in (
        ("cli", "main"), ("opdsl", "parse"), ("opdsl", "lower"), ("catalog", "build_from_catalog"),
        ("weyl", "multiply"), ("weyl", "flag_matrix"), ("realizations", "realize_matrix"),
        ("realizations", "complex_fiber_matrix"), ("solvability", "classify"),
        ("solvability", "invariant_degree_scan"), ("spectra", "spectrum"),
        ("spectra", "isospectral_check"), ("spectra", "restrict"), ("spectra", "char_poly"),
        ("spectra", "roots"), ("spectra", "eigenvector"),
    )]
    + ["bench.harness.self_s"]
    + ["weyl.multiply.calls", "weyl.flag_matrix.calls", "spectra.char_poly.calls",
       "spectra.roots.calls", "spectra.eigenvector.calls"]
    + ["spectra.roots.failed", "spectra.roots.exact_found", "spectra.eigenvector.failed"]
    + ["trace.batch_s", "trace.untraced_batch_s", "trace.overhead_s"]
)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def reps_for(workload: str, seconds: int) -> int:
    reps = max(3, int(seconds / NOMINAL_ROUND_S[workload]))
    return reps if reps % 2 else reps + 1


def fresh_import_s(env: dict) -> float:
    code = ("import time\nt = time.perf_counter()\nimport fockspec\n"
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode:
        raise SystemExit(f"import fockspec failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_worker(args, reps: int, env: dict, started: float) -> dict:
    """Run the worker and gather its records.  A worker that does not stop
    in time (a call that holds off the deadline signal) is killed, and what
    it printed so far is used: the ops it did not finish count as failed."""
    left = RUN_LIMIT_S - ORACLE_RESERVE_S - (time.perf_counter() - started)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--reps", str(reps), "--deadline", str(OP_DEADLINE_S),
           "--stop-after", str(left - KILL_SLACK_S), "--trace", str(args.trace)]
    if args.trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--trace-file", str(OUT / f"trace-{args.workload}-seed{args.seed}.json")]
    killed = False
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired as err:
        killed = True
        stdout = (err.stdout or b"").decode("utf-8", "replace")
        print(f"worker killed after {left:.0f} s; unfinished ops count as failed")
    else:
        if proc.returncode:
            raise SystemExit(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
        stdout = proc.stdout
    lines = []
    for line in stdout.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:  # the line the kill cut off
            break
    records = [line for line in lines[1:] if "op" in line or "start" in line]
    if killed and records and "start" in records[-1]:
        # the attempt that held off its deadline
        records.append({"op": records[-1]["start"], "s": records[-1]["deadline"], "status": "timeout",
                        "error": "killed after holding off its deadline"})
    if not any("op" in rec for rec in records):
        raise SystemExit("worker was killed before any op finished")
    data = dict(lines[0])
    data["ops"] = summarize(len(workloads.build(args.workload, args.seed)), records)
    if killed:
        if args.trace:
            raise SystemExit("worker was killed before the traced pass ended")
        data["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    else:
        data.update(lines[-1])
    return data


def judge(ops, data) -> dict:
    """Failed ops, oracle verdicts and the end-to-end figures."""
    import oracles

    failed, wrong = [], []
    for op, rec in zip(ops, data["ops"]):
        if rec["status"] != "ok":
            failed.append(op["id"])
            continue
        reason = None if rec["stable"] else "output differs between repetitions"
        reason = reason or oracles.check(op, rec["result"])
        if reason:
            wrong.append((op["id"], " ".join(op.get("argv", [op["kind"], str(op.get("n"))])), reason))
    medians = [rec["median_s"] for rec in data["ops"] if rec["median_s"] is not None]
    passed = len(ops) - len(failed) - len(wrong)
    return {
        "failed": failed,
        "wrong": wrong,
        "goodput_ops_per_s": passed / sum(medians),
        "op_geomean_s": math.exp(sum(math.log(m) for m in medians) / len(medians)),
        "batch_s": sum(medians),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fockspec benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fockspec" / "__init__.py").is_file():
        print(f"no fockspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    env = worker_env()
    import_s = statistics.median(fresh_import_s(env) for _ in range(FRESH_IMPORTS))
    reps = reps_for(args.workload, args.seconds)
    data = run_worker(args, reps, env, started)
    ops = workloads.build(args.workload, args.seed)
    verdict = judge(ops, data)
    for op_id, text, reason in verdict["wrong"]:
        print(f"WRONG op {op_id}: {text}: {reason}")
    failed = len(verdict["failed"])
    for op_id in verdict["failed"]:
        rec = data["ops"][op_id]
        if rec["error"] or rec["result"] is None:
            detail = rec["error"] or "not finished"
        else:
            detail = json.loads(rec["result"]["stdout"])["diagnostics"]
        print(f"failed op {op_id} ({rec['status']}): {' '.join(ops[op_id].get('argv', []))}: {detail}")

    if args.trace:
        trace = data["trace"]
        values = {name: trace[name] for name in PER_LAYER if not name.startswith("trace.")}
        values["trace.batch_s"] = trace["batch_s"]
        values["trace.untraced_batch_s"] = verdict["batch_s"] + data["probe_untraced_s"]
        values["trace.overhead_s"] = trace["batch_s"] - values["trace.untraced_batch_s"]
        metrics = {name: {"value": values[name], "unit": "s" if name.endswith("_s") else "count"}
                   for name in PER_LAYER}
    else:
        values = {
            "setup_s": import_s + data["build_s"] + data["warmup_s"],
            "goodput_ops_per_s": verdict["goodput_ops_per_s"],
            "op_geomean_s": verdict["op_geomean_s"],
            "peak_rss_mib": data["peak_rss_mib"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops x {reps} reps, "
          f"attempted {len(ops)}, failed {failed}, wrong {len(verdict['wrong'])}")
    summary = {"correct": not verdict["wrong"], "attempted": len(ops), "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
