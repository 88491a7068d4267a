"""The exact linear algebra of ``spectra`` against sympy: characteristic
polynomials on any square rational matrix (Hessenberg or not), and the
nullspace basis that reduced row echelon form defines; the work an exact
eigenvector of a banded flag matrix takes; and the absence of ``Fraction``
arithmetic from normal-ordered products."""

import sys
import time
from fractions import Fraction as F

import sympy
from hypothesis import example, given, settings
import hypothesis.strategies as st

from fockspec.catalog import hermite, laguerre, lame, sextic
from fockspec.opdsl import lower, parse
from fockspec.realizations import Differential
from fockspec.spectra import Eigenvalue, char_poly, eigenvector, nullspace, restrict, spectrum
from fockspec.weyl import multiply, power

from exact_matrix import LATTICE_RESTRICTIONS, mat_vec
from strategies import banded_matrices, low_rank_matrices

#: invariant at n = 5 with lower bandwidth 2: not upper Hessenberg, so the
#: similarity to Hessenberg form has work to do
BANDWIDTH_TWO = restrict(lower(parse("b^2*(b*a-5)*(b*a-4) + b*a"), {}), Differential(), 5)


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


def _fraction_operations(call):
    """How many Fraction additions, subtractions, multiplications and
    divisions ``call()`` performs."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        code = frame.f_code
        if event == "call" and code.co_name in ("_add", "_sub", "_mul", "_div") \
                and code.co_filename.endswith("fractions.py"):
            count += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


def test_exact_eigenvectors_of_banded_flag_matrices_walk_the_band():
    # M - kI is upper triangular with bandwidth 2 (Hermite) or 1 (Laguerre):
    # columns left of k are pivots at their diagonal, column k reaches zero
    # in at most k steps up the band, and columns right of k are stored as
    # read, so each eigenvector costs O(n) Fraction operations, not O(n^2)
    n = 64
    for element in (hermite().element, laguerre(F(1, 3)).element):
        m = restrict(element, Differential(), n)
        for k in (0, n // 2, n):
            ops = _fraction_operations(lambda: eigenvector(m, Eigenvalue.from_exact(F(k))))
            assert ops <= 10 * (n + 1), (k, ops)


def test_products_and_powers_do_no_fraction_arithmetic():
    # factors go to integer numerators over one denominator, and each
    # coefficient of the product is reduced once to a Fraction built on its
    # slots, so no Fraction operator runs
    qes = lame(2, F(1, 3), 4).element
    products = [
        (hermite().element, laguerre(F(1, 3)).element),
        (qes, sextic(F(7, 5), -2, 3).element),
        (qes, qes),
    ]
    for u, v in products:
        assert _fraction_operations(lambda: multiply(u, v)) == 0
    for text, n in (("a+b-1", 24), ("b*a*b - 2*a^2 + 7/5*b^3*a", 3), ("a+b-1/3", 9)):
        u = lower(parse(text), {})
        assert _fraction_operations(lambda: power(u, n)) == 0
