"""Benchmark worker: runs one workload's op list against the program.

Started by ``run.py`` as one process with the BLAS thread pools pinned to
one thread.  It imports ``fockspec`` from the checkout's ``src``, builds the
op list, runs one warm-up op, then times every op ``--reps`` times in
rounds (op after op, round after round).  With ``--trace 1`` it also times
the trace probe (``workloads.TRACE_PROBE``) and then runs the list and the
probe once more under the tracer.

Output is one JSON object per line on stdout, flushed as it is made: the
set-up times, then one record per attempt, then the closing figures.  If
the worker has to be killed, what it printed so far still counts.  Every
attempt has a deadline; an op whose attempt times out or raises is not
attempted again, and no attempt runs past ``--stop-after`` seconds.
Oracle checks are not done here, so that sympy never shares the worker's
memory or time.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

#: attempt statuses after which an op is not attempted again
FATAL = ("timeout", "exception")


class OpDeadline(BaseException):
    """Raised inside an op when its deadline passes (not an Exception, so
    the program's own handlers cannot swallow it)."""


def _on_alarm(signum, frame):
    raise OpDeadline()


class Runner:
    def __init__(self, deadline_s: float):
        import fockspec
        from fockspec import catalog, cli, realizations, spectra

        where = Path(fockspec.__file__).resolve()
        if ROOT / "src" not in where.parents:
            raise SystemExit(f"fockspec imported from {where}, not from this checkout")
        self.cli, self.spectra, self.catalog = cli, spectra, catalog
        self.differential = realizations.Differential()
        self.deadline_s = deadline_s

    def prepare(self, op: dict) -> dict:
        """Inputs built outside the timed region (library ops only)."""
        if op["kind"] == "eigvec":
            name, params = op["op"]
            binds = {k: Fraction(v) for k, v in params.items()}
            element = self.catalog.build_from_catalog(name, binds).element
            evs = [self.spectra.Eigenvalue.from_exact(Fraction(k)) for k in range(op["n"] + 1)]
            return {"element": element, "evs": evs}
        return {}

    def _call(self, op: dict, prepared: dict) -> dict:
        if op["kind"] == "cli":
            buf = io.StringIO()
            code = self.cli.main(op["argv"], out=buf)
            return {"exit": code, "stdout": buf.getvalue()}
        matrix = self.spectra.restrict(prepared["element"], self.differential, op["n"])
        vectors = [self.spectra.eigenvector(matrix, ev) for ev in prepared["evs"]]
        return {"vectors": [[[str(c) for c in v] for v in basis] for basis in vectors]}

    def run(self, op: dict, prepared: dict, deadline_s: float):
        """One timed attempt: (result, seconds, status)."""
        result, elapsed, status = call_with_deadline(lambda: self._call(op, prepared), deadline_s)
        if status == "ok" and result.get("exit", 0) != 0:
            status = "exit"
        return result, elapsed, status


def call_with_deadline(fn, deadline_s: float):
    """Run ``fn()``; (result, seconds, status) with status ok, timeout or
    exception.  A failed call's result is {"error": text}."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    start = time.perf_counter()
    try:
        result, status = fn(), "ok"
    except OpDeadline:
        result, status = {"error": f"no result within {deadline_s:.3g} s"}, "timeout"
    except Exception as err:  # an exception escaping the program is a failed op
        result, status = {"error": f"{type(err).__name__}: {err}"}, "exception"
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return result, elapsed, status


def attempts(runner: Runner, ops, prepared, reps: int, stop_at: float):
    """Time every op ``reps`` times, round after round.  Before each attempt
    yield its start (op index and deadline), after it a record: op index,
    seconds, status, and the result (first attempt) or whether it equals the
    first result (later attempts)."""
    first = [None] * len(ops)
    done = set()
    for _ in range(reps):
        for i, (op, prep) in enumerate(zip(ops, prepared)):
            if i in done:
                continue
            remaining = stop_at - time.perf_counter()
            if remaining <= 0:
                return
            gc.collect()
            deadline_s = min(runner.deadline_s, remaining)
            yield {"start": i, "deadline": deadline_s}
            result, elapsed, status = runner.run(op, prep, deadline_s)
            if status in FATAL:
                done.add(i)
            record = {"op": i, "s": elapsed, "status": status}
            if first[i] is None:
                first[i] = record["result"] = result
            else:
                record["same"] = result == first[i]
                if status in FATAL:
                    record["error"] = result["error"]
            yield record


def summarize(n_ops: int, records) -> list:
    """Per op: the median time of its attempts, its worst status (an
    attempt that timed out or raised outranks a non-zero exit, which
    outranks ok; an op never attempted is "unfinished"), whether every
    attempt gave the first result, the first result and any error text."""
    rank = {"ok": 0, "exit": 1, "timeout": 2, "exception": 2}
    ops = [{"times": [], "status": "unfinished", "stable": True, "result": None, "error": None}
           for _ in range(n_ops)]
    for rec in records:
        if "op" not in rec:
            continue
        op = ops[rec["op"]]
        op["times"].append(rec["s"])
        if "result" in rec:
            op["result"] = rec["result"]
            op["error"] = rec["result"].get("error")
        op["stable"] = op["stable"] and rec.get("same", True)
        if op["status"] == "unfinished" or rank[rec["status"]] > rank[op["status"]]:
            op["status"] = rec["status"]
        op["error"] = rec.get("error", op["error"])
    for op in ops:
        times = op.pop("times")
        op["median_s"] = statistics.median(times) if times else None
    return ops


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--reps", type=int, required=True)
    ap.add_argument("--deadline", type=float, required=True)
    ap.add_argument("--stop-after", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    stop_at = time.perf_counter() + args.stop_after
    runner = Runner(args.deadline)
    t0 = time.perf_counter()
    ops = workloads.build(args.workload, args.seed)
    prepared = [runner.prepare(op) for op in ops]
    build_s = time.perf_counter() - t0
    warm = workloads.WARMUP[args.workload]
    _, warmup_s, warm_status = runner.run(warm, runner.prepare(warm), args.deadline)
    if warm_status != "ok":
        raise SystemExit(f"warm-up op failed: {warm_status}")
    emit({"build_s": build_s, "warmup_s": warmup_s})

    for record in attempts(runner, ops, prepared, args.reps, stop_at):
        emit(record)
    out = {}
    if args.trace:
        from tracing import Tracer

        probe = workloads.TRACE_PROBE
        probe_prep = [runner.prepare(op) for op in probe]
        probe_ops = summarize(len(probe), attempts(runner, probe, probe_prep, args.reps, stop_at))
        if any(op["status"] != "ok" for op in probe_ops):
            raise SystemExit(f"trace probe failed: {probe_ops}")
        tracer = Tracer()
        tracer.install()
        try:
            for op_id, (op, prep) in enumerate(zip(ops + probe, prepared + probe_prep)):
                gc.collect()
                with tracer.op(op_id):
                    runner.run(op, prep, max(0.001, min(runner.deadline_s, stop_at - time.perf_counter())))
        finally:
            tracer.uninstall()
        unreached = tracer.unreached()
        if unreached:
            raise SystemExit(f"traced functions missing or never called: {', '.join(unreached)}")
        out["trace"] = tracer.summary()
        out["probe_untraced_s"] = sum(op["median_s"] for op in probe_ops)
        if args.trace_file:
            tracer.write(args.trace_file)
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
