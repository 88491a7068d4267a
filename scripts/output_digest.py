#!/usr/bin/env python3
"""One sha256 per op over the outputs that must not change byte for byte.

    python3 scripts/output_digest.py > change.txt
    python3 scripts/output_digest.py --src OTHER_CHECKOUT/src > parent.txt
    diff parent.txt change.txt

Each line is ``sha256  exit=<code>  <label>``, the digest taken over the
exit code and stdout of ``fockspec.cli.main`` for a CLI op, and over the
eigenvector coefficients (as the benchmark worker formats them) for a
library eigenvector op.  The ops are those of ``bench/workloads.py``:
seeds 0-2 of every workload and every spectrum-catalog point a seed can
draw (``spectrum_points``), plus the n=64 spectra of Lame(2,1), sextic(1,1),
Hermite and Laguerre(1/3), the sextic points that exit 4, two classify
cases of the invariance scan, the Hermite q=1000/999 spectrum, whose
eigenvector numerators have thousands of digits, and ops that reach the
integer flag matrices and ``char_poly`` at n=64, at a negative and a
large-height q, on a matrix that is not Hessenberg and on a refused
q-lattice span, and ``isospectral`` ops on a q-lattice refused above the
span, on a span that leaks and over three complex fibers at n=64.
``--src`` picks the package source to import, so that two checkouts can
be compared against the same op lists.  ``tests/test_output_digest.py``
recomputes every line against ``tests/output_digests.txt``.
"""

import argparse
import hashlib
import io
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

EXTRA = [
    ["spectrum", "--op", "lame", "--bind", "m=2", "--bind", "d=1", "--bind", "n=64", "--n", "64"],
    ["spectrum", "--op", "sextic", "--bind", "alpha=1", "--bind", "beta=1", "--bind", "n=64",
     "--n", "64"],
    ["spectrum", "--op", "hermite", "--n", "64"],
    ["spectrum", "--op", "laguerre", "--bind", "alpha=1/3", "--n", "64"],
    ["spectrum", "--op", "sextic", "--bind", "alpha=-1", "--bind", "beta=0", "--bind", "n=9",
     "--n", "9"],
    ["spectrum", "--op", "sextic", "--bind", "alpha=-1", "--bind", "beta=0", "--bind", "n=15",
     "--n", "15"],
    # the leakage witness at a target degree that is not invariant
    ["classify", "--op", "lame", "--bind", "m=2", "--bind", "d=1", "--bind", "n=4", "--n", "5"],
    # the top raising excess vanishes at k = 4 while a lower one does not
    ["classify", "--expr", "b^3*a - 4*b^2 + b^2*a", "--nmax", "64"],
    # eigenvector numerators of about 6100 digits
    ["spectrum", "--op", "hermite", "--n", "64", "--realization", "q", "--q", "1000/999"],
    # integer flag columns and char_poly at the degree cap, over every realization
    ["isospectral", "--op", "lame", "--bind", "m=2", "--bind", "d=1", "--bind", "n=64",
     "--n", "64", "--fibers", "0"],
    # negative and large-height q, a large-height delta ("--qs=": "-1/2" alone
    # would be read as an option)
    ["isospectral", "--op", "lame", "--bind", "m=2", "--bind", "d=1", "--bind", "n=16",
     "--n", "16", "--qs=-1/2,1000/999", "--deltas", "1000003/7"],
    # lower bandwidth 2: the similarity to Hessenberg form runs
    ["spectrum", "--expr", "b^2*(b*a-5)*(b*a-4) + b*a", "--n", "5"],
    # {2}_q = 0 at q = -1: the span is refused
    ["spectrum", "--op", "hermite", "--n", "3", "--realization", "q", "--q", "-1"],
    # {2}_q = 0 at q = -1 above the span, met by the raising term of degree n + 1
    ["isospectral", "--op", "sextic", "--bind", "alpha=1", "--bind", "beta=0", "--bind", "n=1",
     "--n", "1", "--qs=-1"],
    # a span that is not invariant: the leakage witness, exit 3
    ["isospectral", "--op", "lame", "--bind", "m=2", "--bind", "d=1", "--bind", "n=4",
     "--n", "5", "--deltas", "1", "--qs", "2", "--fibers", "0,1"],
    # three complex fibers at the degree cap
    ["isospectral", "--op", "lame", "--bind", "m=2", "--bind", "d=1", "--bind", "n=64",
     "--n", "64", "--fibers", "0,1,2"],
]


def op_output(op):
    """(exit code, output text) of one workload op."""
    from fockspec import catalog, cli, spectra
    from fockspec.realizations import Differential

    if op["kind"] == "cli":
        buf = io.StringIO()
        code = cli.main(op["argv"], out=buf)
        return code, buf.getvalue()
    name, params = op["op"]
    element = catalog.build_from_catalog(name, {k: Fraction(v) for k, v in params.items()}).element
    matrix = spectra.restrict(element, Differential(), op["n"])
    evs = [spectra.Eigenvalue.from_exact(Fraction(k)) for k in range(op["n"] + 1)]
    vectors = [spectra.eigenvector(matrix, ev) for ev in evs]
    return 0, repr([[[str(c) for c in v] for v in basis] for basis in vectors])


def labelled_ops():
    import workloads

    for name in workloads.WORKLOADS:
        for seed in (0, 1, 2):
            for op in workloads.build(name, seed):
                yield f"{name}:{seed}:{op['id']} {' '.join(op.get('argv', [op['kind']]))}", op
    for i, op in enumerate(workloads.spectrum_points()):
        yield f"spectrum_points:{i} {' '.join(op['argv'])}", op
    for argv in EXTRA:
        yield f"extra {' '.join(argv)}", {"kind": "cli", "argv": argv}


def digest_line(label, op):
    """The output line of one labelled op."""
    code, text = op_output(op)
    digest = hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()
    return f"{digest}  exit={code}  {label}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="package source to import")
    args = parser.parse_args()
    sys.path[:0] = [args.src, str(ROOT / "bench")]
    for label, op in labelled_ops():
        print(digest_line(label, op), flush=True)


if __name__ == "__main__":
    main()
