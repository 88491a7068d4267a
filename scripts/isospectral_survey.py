#!/usr/bin/env python3
"""Survey the catalog operators across every realization.

Prints, for each operator at its invariant degree, the exact characteristic
polynomial that ``isospectral_check`` reports for the differential, two
uniform-lattice, two exponential-lattice and five complex-plane spaces
(vacua z^0 .. z^4), plus the verdict that all of them coincide bit-exactly.
The report takes one polynomial and proves it for every space, so each
space's matrix is also assembled here with ``restrict`` and its own
polynomial taken; a space whose polynomial differs from the report prints
``DIFFER``.
"""

from fractions import Fraction as F

from fockspec.catalog import hermite, laguerre, lame, sextic
from fockspec.realizations import ComplexPlane, DeltaLattice, Differential, QLattice
from fockspec.spectra import char_poly, isospectral_check, restrict, roots

SPACES = [
    Differential(),
    DeltaLattice(1),
    DeltaLattice(F(1, 3)),
    QLattice(2),
    QLattice(F(1, 2)),
    *map(ComplexPlane, range(5)),
]

CASES = [
    (hermite(), 5),
    (laguerre(F(3, 2)), 5),
    (lame(2, 1, 1), 1),
    (lame(2, 1, 3), 3),
    (sextic(1, 0, 1), 1),
    (sextic(1, 1, 2), 2),
]


def describe(spec, n):
    report = isospectral_check(spec.element, n, SPACES)
    params = ", ".join(f"{k}={v}" for k, v in spec.params.items())
    label = f"{spec.name}({params})" if params else spec.name
    print(f"{label}  degree n = {n}")
    print(f"  char poly: {report.entries[0][1].text()}")
    for ev in roots(report.entries[0][1]):
        if ev.is_exact:
            print(f"    eigenvalue {ev.exact} (exact)")
        else:
            print(f"    eigenvalue {ev.re:+.12f}{ev.im:+.12f}j  residual {ev.residual:.2e}")
    for space, (label, cp) in zip(SPACES, report.entries):
        if space.label != label or char_poly(restrict(spec.element, space, n)) != cp:
            print(f"  {space.label}: assembled char poly DIFFER from the report's {label}")
    verdict = "identical" if report.all_equal else "DIFFER"
    print(f"  {len(report.entries)} realizations/fibers: {verdict}")
    print()


def main():
    for spec, n in CASES:
        describe(spec, n)


if __name__ == "__main__":
    main()
