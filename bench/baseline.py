"""Re-measure the ROADMAP baseline rows, one call each, under the per-op
deadline the benchmark uses.

    python3 bench/baseline.py

Prints one markdown table row per case: time and outcome (ok, exit code,
exception or timeout).  Single runs, so the figures are indicative only.
"""

from __future__ import annotations

import io
import sys
from fractions import Fraction

from run import OP_DEADLINE_S
from worker import call_with_deadline

from fockspec import catalog, cli, solvability, spectra  # noqa: E402  (worker put src on the path)
from fockspec.realizations import Differential


def _cli(*argv):
    return lambda: {"exit": cli.main(list(argv), out=io.StringIO())}


def _lame_argv(m, d, n):
    return ["spectrum", "--op", "lame", "--bind", f"m={m}", "--bind", f"d={d}", "--bind", f"n={n}", "--n", str(n)]


def _char_poly(op, n):
    return lambda: spectra.char_poly(spectra.restrict(op.element, Differential(), n))


def _roots(op, n):
    cp = spectra.char_poly(spectra.restrict(op.element, Differential(), n))
    return lambda: spectra.roots(cp)


def _all_eigenvectors(op, n):
    def run():
        m = spectra.restrict(op.element, Differential(), n)
        return [spectra.eigenvector(m, spectra.Eigenvalue.from_exact(Fraction(k))) for k in range(n + 1)]
    return run


def cases():
    herm = catalog.hermite()
    yield "Hermite n=16", "roots", _roots(herm, 16)
    yield "Hermite n=24", "char_poly", _char_poly(herm, 24)
    yield "Hermite n=24", "roots", _roots(herm, 24)
    yield "Lame(2,1,8)", "CLI spectrum", _cli(*_lame_argv(2, 1, 8))
    yield "Lame(2,1,8)", "roots", _roots(catalog.lame(2, 1, 8), 8)
    yield "Lame(2,1,12)", "roots", _roots(catalog.lame(2, 1, 12), 12)
    yield "Lame(1/10^9,1,4)", "roots", _roots(catalog.lame(Fraction(1, 10**9), 1, 4), 4)
    yield "Lame(1/10^9,1,3)", "CLI spectrum", _cli(*_lame_argv("1/1000000000", 1, 3))
    yield "Lame(10^6,1,3)", "CLI spectrum", _cli(*_lame_argv(10**6, 1, 3))
    yield "Lame(10^4,1,3)", "CLI spectrum", _cli(*_lame_argv(10**4, 1, 3))
    yield "Lame(2,1,10)", "CLI spectrum", _cli(*_lame_argv(2, 1, 10))
    yield "sextic(1,1,10)", "CLI spectrum", _cli(
        "spectrum", "--op", "sextic", "--bind", "alpha=1", "--bind", "beta=1", "--bind", "n=10", "--n", "10")
    for n in (14, 20, 28):
        yield f"Lame(2,1,{n})", "roots", _roots(catalog.lame(2, 1, n), n)
    for n in (20, 30):
        yield f"sextic(1,1,{n})", "roots", _roots(catalog.sextic(1, 1, n), n)
    yield "CharPoly with a 10^400 coefficient", "roots", lambda: spectra.roots(spectra.CharPoly((10**400, 1)))
    yield "'1e400*b*a + a', n=1", "CLI spectrum", _cli("spectrum", "--expr", "1" + "0" * 400 + "*b*a + a", "--n", "1")
    yield "Lame(2,1,64)", "char_poly", _char_poly(catalog.lame(2, 1, 64), 64)
    yield "Hermite n=64, all 65 eigenvectors", "eigenvector", _all_eigenvectors(herm, 64)
    lame8 = catalog.lame(2, 1, 8).element
    yield "invariant scan of Lame(2,1,8), N=64", "invariant_degree_scan", \
        lambda: solvability.invariant_degree_scan(lame8, 64)


def main() -> int:
    print("| case | layer | time / outcome |\n|---|---|---|")
    for label, layer, fn in cases():
        result, elapsed, status = call_with_deadline(fn, OP_DEADLINE_S)
        if status == "ok" and isinstance(result, dict) and result.get("exit"):
            status = f"exit {result['exit']}"
        elif status != "ok":
            status = f"{status}: {result['error']}"
        print(f"| {label} | `{layer}` | {elapsed:.3g} s, {status} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
