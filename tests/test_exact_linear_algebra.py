"""The exact linear algebra of ``spectra`` against sympy: characteristic
polynomials on any square rational matrix (Hessenberg or not), and the
nullspace basis that reduced row echelon form defines."""

import time
from fractions import Fraction as F

import sympy
from hypothesis import example, given, settings
import hypothesis.strategies as st

from fockspec.catalog import hermite, lame
from fockspec.opdsl import lower, parse
from fockspec.realizations import DeltaLattice, Differential, QLattice
from fockspec.spectra import char_poly, nullspace, restrict, spectrum

from exact_matrix import mat_vec
from strategies import banded_matrices, low_rank_matrices

#: invariant at n = 5 with lower bandwidth 2: not upper Hessenberg, so the
#: similarity to Hessenberg form has work to do
BANDWIDTH_TWO = restrict(lower(parse("b^2*(b*a-5)*(b*a-4) + b*a"), {}), Differential(), 5)

#: lattice restrictions whose entries carry large denominators: Lame(2, 1, 16)
#: at q = 1/2 and delta = 1/3, and a multi-digit Lame at n = 16
LATTICE_RESTRICTIONS = [
    restrict(lame(2, 1, 16).element, QLattice(F(1, 2)), 16),
    restrict(lame(2, 1, 16).element, DeltaLattice(F(1, 3)), 16),
    restrict(lame(F(691245, 40257), F(394857, 87109), 16).element, DeltaLattice(F(1, 3)), 16),
]


def sympy_matrix(rows):
    entries = [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row]
    return sympy.Matrix(len(rows), len(rows[0]) if rows else 0, entries)


def test_bandwidth_two_example_is_not_hessenberg():
    assert any(BANDWIDTH_TWO[i][j] for i in range(6) for j in range(i - 1))


@given(banded_matrices())
@example(BANDWIDTH_TWO)
@example(LATTICE_RESTRICTIONS[0])
@example(LATTICE_RESTRICTIONS[1])
@example(LATTICE_RESTRICTIONS[2])
@settings(max_examples=200, deadline=None)
def test_char_poly_matches_sympy(m):
    t = sympy.Symbol("t")
    expected = sympy_matrix(m).charpoly(t).all_coeffs()
    assert char_poly(m).coeffs == tuple(F(int(c.p), int(c.q)) for c in reversed(expected))


@given(st.one_of(banded_matrices().filter(bool), low_rank_matrices()))
@settings(max_examples=200, deadline=None)
def test_nullspace_is_the_reduced_echelon_basis(m):
    _, pivots = sympy_matrix(m).rref()
    free = [c for c in range(len(m[0])) if c not in pivots]
    basis = nullspace(m)
    assert len(basis) == len(m[0]) - sympy_matrix(m).rank() == len(free)
    for own, v in zip(free, basis):
        assert all(x == 0 for x in mat_vec(m, v))
        assert [v[c] for c in free] == [int(c == own) for c in free]


def test_hermite_64_spectrum_is_fast():
    start = time.perf_counter()
    sp = spectrum(hermite().element, 64, Differential())
    assert time.perf_counter() - start < 8.0
    assert [ev.exact for ev, _ in sp.eigenpairs] == [F(k) for k in range(65)]
