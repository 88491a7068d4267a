#!/usr/bin/env python3
"""Compare benchmark result lines: the change/parent ratio of every metric.

    python3 scripts/bench_compare.py PARENT.json CHANGE.json
    python3 scripts/bench_compare.py BENCH_7.json

With two arguments each file holds one result line of ``bench/run.py``
(its last line of stdout).  With one argument the file is a trajectory
record: ``{"runs": [{"workload", "trace", "parent", "change"}, ...]}``, one
pair of result lines per run, and every pair is compared in turn.

Every metric present in both lines is printed, end to end (``--trace 0``)
and per layer (``--trace 1``), with its parent value, its change value and
their ratio.  The direction a metric improves in is read from
``BENCHMARK.json``; a ratio in that direction is marked ``better``, the
other way ``worse``.
"""

import argparse
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def directions():
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def compare(parent, change, better):
    """Rows ``(metric, parent, change, ratio, verdict)``; the ratio is None
    unless the parent value is positive and the change value nonnegative
    (a ratio of signed noise, such as a negative trace overhead, means
    nothing)."""
    rows = []
    for name, p in parent["metrics"].items():
        if name not in change["metrics"]:
            continue
        pv, cv = p["value"], change["metrics"][name]["value"]
        ratio = cv / pv if pv > 0 and cv >= 0 else None
        verdict = ""
        if ratio is not None and ratio != 1 and name in better:
            lower_wins = better[name] == "lower"
            verdict = "better" if (ratio < 1) == lower_wins else "worse"
        rows.append((name, pv, cv, ratio, verdict))
    return rows


def report(title, parent, change, better):
    print(title)
    for key in ("correct", "attempted", "failed"):
        print(f"  {key}: {parent.get(key)} -> {change.get(key)}")
    print(f"  {'metric':<44} {'parent':>12} {'change':>12} {'ratio':>8}")
    for name, pv, cv, ratio, verdict in compare(parent, change, better):
        shown = f"{ratio:8.3f}" if ratio is not None else f"{'-':>8}"
        print(f"  {name:<44} {pv:>12.6g} {cv:>12.6g} {shown} {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", type=Path, help="PARENT CHANGE, or one trajectory file")
    args = ap.parse_args()
    better = directions()
    if len(args.files) == 2:
        parent, change = (json.loads(f.read_text()) for f in args.files)
        report(f"{args.files[0]} -> {args.files[1]}", parent, change, better)
    elif len(args.files) == 1:
        for run in json.loads(args.files[0].read_text())["runs"]:
            title = f"{run['workload']} (--trace {run['trace']})"
            report(title, run["parent"], run["change"], better)
    else:
        ap.error("give two result-line files, or one trajectory file")


if __name__ == "__main__":
    main()
