"""Exact products of rational matrices and vectors, for checking results,
and lattice restrictions with large denominators to check them on."""

from fractions import Fraction

from fockspec.catalog import lame
from fockspec.realizations import DeltaLattice, QLattice
from fockspec.spectra import restrict

#: lattice restrictions whose entries carry large denominators: Lame(2, 1, 16)
#: at q = 1/2 and delta = 1/3, and a multi-digit Lame at n = 16
LATTICE_RESTRICTIONS = [
    restrict(lame(2, 1, 16).element, QLattice(Fraction(1, 2)), 16),
    restrict(lame(2, 1, 16).element, DeltaLattice(Fraction(1, 3)), 16),
    restrict(
        lame(Fraction(691245, 40257), Fraction(394857, 87109), 16).element,
        DeltaLattice(Fraction(1, 3)),
        16,
    ),
]


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0]) if b else 0
    out = [[Fraction(0)] * p for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for k in range(m):
            aik = ai[k]
            if not aik:
                continue
            bk = b[k]
            row = out[i]
            for j in range(p):
                row[j] += aik * bk[j]
    return out


def mat_vec(a, v):
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in a]
