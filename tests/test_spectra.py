"""Spectra tests: restriction, exact characteristic polynomials, roots,
eigenvectors and cross-realization isospectrality."""

import io
import math
import time
from fractions import Fraction as F
from operator import mul
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from fockspec.banded import Band
from fockspec.catalog import hermite, laguerre, lame, number, sextic
from fockspec import spectra
from fockspec.cli import main as cli_main
from fockspec.opdsl import lower, parse
from fockspec.realizations import ComplexPlane, DeltaLattice, Differential, QLattice
from fockspec.solvability import es_diagonal
from fockspec.spectra import (
    CharPoly,
    Eigenvalue,
    LeakageError,
    NonConvergenceError,
    char_poly,
    eigenvector,
    isospectral_check,
    nullspace,
    restrict,
    roots,
    spectrum,
)
from fockspec.weyl import make

from exact_matrix import mat_vec
from strategies import rational_root_multisets, rationals, weyl_elements

HERMITE = hermite().element

ALL_UNIVARIATE = [
    Differential(),
    DeltaLattice(1),
    DeltaLattice(F(1, 3)),
    QLattice(2),
    QLattice(F(1, 2)),
]


def frac_matrix(rows):
    return [[F(x) for x in row] for row in rows]


# -- restrict -----------------------------------------------------------------


def test_restrict_hermite_differential():
    m = restrict(HERMITE, Differential(), 3)
    assert m == frac_matrix(
        [[0, 0, -2, 0], [0, 1, 0, -6], [0, 0, 2, 0], [0, 0, 0, 3]]
    )


def test_restrict_lame_two_by_two():
    mu, d = F(7, 2), F(-1, 3)
    m = restrict(lame(mu, d, 1).element, QLattice(F(5, 2)), 1)
    assert m == [[6 * mu, 6 * d], [F(-6), -6 * mu]]


def test_restrict_creation_operator_leaks():
    with pytest.raises(LeakageError) as err:
        restrict(make(1, 1, 0), Differential(), 2)
    assert err.value.column == 2
    assert err.value.overflow[3] == 1


# -- char_poly ----------------------------------------------------------------


def test_char_poly_of_diagonal():
    cp = char_poly(frac_matrix([[0, 0, 0], [0, 1, 0], [0, 0, 2]]))
    assert cp.coeffs == (F(0), F(2), F(-3), F(1))  # t(t-1)(t-2)
    assert cp.text() == "t^3 - 3*t^2 + 2*t"


def test_char_poly_sextic_two_by_two():
    cp = char_poly(frac_matrix([[0, -2], [-4, 0]]))
    assert cp.coeffs == (F(-8), F(0), F(1))
    assert cp.text() == "t^2 - 8"


def test_char_poly_lame_trace_determinant():
    mu, d = F(2), F(1)
    m = restrict(lame(mu, d, 1).element, Differential(), 1)
    cp = char_poly(m)
    assert cp.coeffs == (-36 * (mu * mu - d), F(0), F(1))


@given(weyl_elements(max_degree=3), st.integers(1, 6))
@settings(max_examples=40)
def test_char_poly_matches_trace_and_determinant(u, n):
    from fockspec.weyl import flag_matrix

    m = [list(row) for row in flag_matrix(u, n).entries]
    cp = char_poly(m)
    trace = sum(m[i][i] for i in range(n + 1))
    assert cp.coeffs[-2] == -trace  # sum of eigenvalues
    # determinant via elimination oracle
    det = _det_gauss([row[:] for row in m])
    assert cp.coeffs[0] == (-1) ** (n + 1) * det


def _det_gauss(m):
    n = len(m)
    det = F(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return F(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


# -- roots ---------------------------------------------------------------------


def test_rational_roots_extracted_exactly():
    cp = char_poly(frac_matrix([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]]))
    evs = roots(cp)
    assert [e.exact for e in evs] == [0, 1, 2, 3]
    assert all(e.residual == 0 for e in evs)


def test_irrational_pair():
    evs = roots(CharPoly((F(-8), F(0), F(1))))
    assert all(not e.is_exact for e in evs)
    assert evs[0].re == pytest.approx(-math.sqrt(8), abs=1e-13)
    assert evs[1].re == pytest.approx(math.sqrt(8), abs=1e-13)
    assert all(e.residual <= 1e-12 for e in evs)


def test_complex_pair():
    evs = roots(CharPoly((F(1), F(0), F(1))))  # t^2 + 1
    assert [(round(e.re, 12), round(e.im, 12)) for e in evs] == [(0, -1), (0, 1)]


def test_repeated_roots_counted_with_multiplicity():
    # (t - 1)^2 (t + 2)
    cp = CharPoly((F(2), F(-3), F(0), F(1)))
    evs = roots(cp)
    assert [e.exact for e in evs] == [-2, 1, 1]


def test_repeated_irrational_roots():
    # (t^2 - 2)^2 = t^4 - 4 t^2 + 4
    cp = CharPoly((F(4), F(0), F(-4), F(0), F(1)))
    evs = roots(cp)
    assert len(evs) == 4
    assert [round(e.re, 10) for e in evs] == pytest.approx(
        [-math.sqrt(2), -math.sqrt(2), math.sqrt(2), math.sqrt(2)]
    )


def test_mixed_rational_and_quadratic_surd():
    # (t - 1/2)(t^2 - 3)
    cp = CharPoly((F(3, 2), F(-3), F(-1, 2), F(1)))
    evs = roots(cp)
    exact = [e for e in evs if e.is_exact]
    assert [e.exact for e in exact] == [F(1, 2)]
    numeric = sorted(e.re for e in evs if not e.is_exact)
    assert numeric == pytest.approx([-math.sqrt(3), math.sqrt(3)], abs=1e-13)


def test_roots_bad_tolerance():
    with pytest.raises(ValueError):
        roots(CharPoly((F(-1), F(1))), tol=0)


@pytest.mark.parametrize("c3, c5", [(F(2682789769231061330, 17), 3066921713896612),
                                    (F(5365579538462154168, 17), 6133843427793260)])
def test_unpaired_complex_roots_are_non_convergence(c3, c5):
    # one real root near -c5 stops Durand-Kerner early, and the roots it picks
    # as complex are no conjugate pairs; pairing them raised a bare ValueError
    cp = CharPoly((F(0), F(-3499, 68), F(0), c3, F(3499, 68), F(c5), F(1)))
    with pytest.raises(NonConvergenceError, match="conjugate pairs") as err:
        roots(cp)
    assert err.value.partial == (Eigenvalue.from_exact(F(0)),)


def test_roots_ordering_exact_then_numeric():
    # (t + 5)(t^2 - 2)
    cp = CharPoly((F(-10), F(-2), F(5), F(1)))
    evs = roots(cp)
    assert evs[0].exact == -5
    assert not evs[1].is_exact and not evs[2].is_exact
    assert evs[1].re < evs[2].re


def test_sum_and_product_of_roots_match_trace_and_determinant():
    m = restrict(sextic(1, 1, 2).element, Differential(), 2)
    cp = char_poly(m)
    evs = roots(cp)
    trace = float(sum(m[i][i] for i in range(3)))
    det = float(_det_gauss([row[:] for row in frac_matrix(m)]))
    s = sum(complex(e.re, e.im) for e in evs)
    p = math.prod([complex(e.re, e.im) for e in evs])
    assert s.real == pytest.approx(trace, rel=1e-8)
    assert abs(s.imag) < 1e-8
    assert p.real == pytest.approx(det, rel=1e-8)


def _poly_from_roots(rational_roots, quadratic):
    """Monic coefficients (ascending) of prod (t - r)^m times ``quadratic``."""
    coeffs = list(quadratic)
    for r, mult in rational_roots:
        for _ in range(mult):
            coeffs = [F(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
    return CharPoly(tuple(coeffs))


# irreducible over Q: a complex pair or a pair of real surds, all |z| <= 2
QUADRATICS = {
    (F(1), F(0), F(1)): [complex(0, -1), complex(0, 1)],
    (F(1), F(1), F(1)): [complex(-0.5, -math.sqrt(3) / 2), complex(-0.5, math.sqrt(3) / 2)],
    (F(-2), F(0), F(1)): [-math.sqrt(2), math.sqrt(2)],
    (F(-1), F(-1), F(1)): [(1 - math.sqrt(5)) / 2, (1 + math.sqrt(5)) / 2],
}


@given(rational_root_multisets(), st.sampled_from(sorted(QUADRATICS)))
@example([(F(0), 2), (F(999999, 1000000), 1), (F(1), 2)], (F(-2), F(0), F(1)))
@settings(max_examples=60)
def test_rational_roots_are_extracted_exactly(rational_roots, quadratic):
    evs = roots(_poly_from_roots(rational_roots, quadratic))
    expected = sorted(r for r, mult in rational_roots for _ in range(mult))
    assert [e.exact for e in evs if e.is_exact] == expected
    numeric = [complex(e.re, e.im) for e in evs if not e.is_exact]
    assert len(numeric) == 2
    for z, want in zip(sorted(numeric, key=lambda z: (z.real, z.imag)), QUADRATICS[quadratic]):
        assert abs(z - want) <= 1e-9


def test_large_semiprime_roots_are_exact():
    # (t - 1000003)(t - 1000033): the constant term is a product of two
    # primes above 10^6
    evs = roots(CharPoly((F(1000003 * 1000033), F(-(1000003 + 1000033)), F(1))))
    assert [e.exact for e in evs] == [1000003, 1000033]


def test_hermite_24_roots_exact_and_fast():
    cp = char_poly(restrict(HERMITE, Differential(), 24))
    start = time.perf_counter()
    evs = roots(cp)
    assert time.perf_counter() - start < 3.0
    assert [e.exact for e in evs] == [F(k) for k in range(25)]


def test_lame_with_tiny_rational_parameter_is_fast():
    # a 10^-9 modulus gives constant and leading coefficients with tens of
    # thousands of divisors; the spectrum has no rational root at all
    start = time.perf_counter()
    code = cli_main(
        ["spectrum", "--op", "lame", "--bind", "m=1/1000000000",
         "--bind", "d=1", "--bind", "n=3", "--n", "3"],
        out=io.StringIO(),
    )
    assert code == 0
    assert time.perf_counter() - start < 3.0


def test_real_roots_certified_by_bracket_not_residual():
    # ill-conditioned characteristic polynomials whose correct real roots
    # have float residuals above the tolerance
    for element, n in ((sextic(1, 1, 8).element, 8), (lame(2, 1, 10).element, 10)):
        cp = char_poly(restrict(element, Differential(), n))
        evs = roots(cp)
        assert len(evs) == n + 1 and all(not e.is_exact and e.im == 0 for e in evs)
        for e in evs:  # a sign change within 1e-9 of every reported root
            lo, hi = F(e.re) - F(1, 10**9), F(e.re) + F(1, 10**9)
            assert cp(lo) * cp(hi) < 0


# -- eigenvectors ----------------------------------------------------------------


def test_hermite_eigenvector_degree_two():
    m = restrict(HERMITE, Differential(), 3)
    (vec,) = eigenvector(m, Eigenvalue.from_exact(F(2)))
    assert vec == (F(-1), F(0), F(1), F(0))  # x^2 - 1


def test_hermite_eigenvector_degree_three():
    m = restrict(HERMITE, Differential(), 3)
    (vec,) = eigenvector(m, Eigenvalue.from_exact(F(3)))
    assert vec == (F(0), F(-3), F(0), F(1))  # x^3 - 3x


def test_laguerre_eigenvector():
    alpha = F(3, 2)
    m = restrict(laguerre(alpha).element, Differential(), 1)
    assert m == [[F(0), -(alpha + 1)], [F(0), F(1)]]
    (vec,) = eigenvector(m, Eigenvalue.from_exact(F(1)))
    assert vec == (-(alpha + 1), F(1))  # x - (alpha + 1)


def test_number_operator_eigenvectors_are_monomials():
    m = restrict(number().element, Differential(), 5)
    for k in range(6):
        (vec,) = eigenvector(m, Eigenvalue.from_exact(F(k)))
        assert vec == tuple(F(1) if d == k else F(0) for d in range(6))


def test_exact_eigenpairs_have_zero_residue():
    m = restrict(HERMITE, Differential(), 6)
    for ev in roots(char_poly(m)):
        for vec in eigenvector(m, ev):
            assert mat_vec(m, list(vec)) == [ev.exact * c for c in vec]


def test_numeric_eigenvector_certified():
    m = restrict(lame(2, 1, 1).element, Differential(), 1)
    evs = roots(char_poly(m))
    for ev in evs:
        (vec,) = eigenvector(m, ev)
        residual = max(
            abs(sum(float(m[i][j]) * vec[j] for j in range(2)) - ev.re * vec[i])
            for i in range(2)
        )
        assert residual <= 1e-11


def test_numeric_eigenvector_bound_is_relative_to_the_matrix():
    # entries near 10^5: no float64 vector meets an absolute 1e-11 bound
    element = lame(10**4, 1, 3).element
    sp = spectrum(element, 3, Differential())
    m = np.array([[float(x) for x in row] for row in restrict(element, Differential(), 3)])
    bound = 10 * 1e-12 * (1 + np.linalg.norm(m))
    assert len(sp.eigenpairs) == 4
    for ev, vec in sp.eigenpairs:
        v = np.array(vec)
        assert np.linalg.norm(m @ v - complex(ev.re, ev.im) * v) <= bound


@st.composite
def lower_banded_matrices(draw):
    """Square rational matrices of size 2..6 with a drawn lower bandwidth of
    1 or 2 and upper bandwidth of 0..3; zero entries are drawn often."""
    n = draw(st.integers(2, 6))
    lower, upper = draw(st.integers(1, 2)), draw(st.integers(0, 3))
    entry = st.one_of(st.just(F(0)), rationals())
    return [[draw(entry) if -lower <= j - i <= upper else F(0) for j in range(n)] for i in range(n)]


def _residual_squared(m, vec, ev):
    """``||Mv - ev v||^2`` in Fraction arithmetic on the exact rows."""
    lr, li = F(ev.re), F(ev.im)
    x, y = [F(z.real) for z in vec], [F(z.imag) for z in vec]
    return sum(
        (sum(map(mul, row, x)) - lr * x[i] + li * y[i]) ** 2
        + (sum(map(mul, row, y)) - lr * y[i] - li * x[i]) ** 2
        for i, row in enumerate(m)
    )


def _within_bound(m, vec, ev, tol):
    """``||Mv - ev v|| <= 10 tol (1 + ||M||_F)`` with ``||M||_F`` kept
    exact: with ``e`` the squared residual over ``(10 tol)^2`` and ``s =
    ||M||_F^2``, it holds iff ``d = e - 1 - s <= 2 sqrt(s)``."""
    s = sum(c * c for row in m for c in row)
    d = _residual_squared(m, vec, ev) / (10 * F(tol)) ** 2 - 1 - s
    return d <= 0 or d * d <= 4 * s


@settings(max_examples=80, deadline=None)
@given(lower_banded_matrices())
def test_numeric_eigenvectors_pass_an_exact_recomputation_of_the_certificate(m):
    # each returned vector meets the bound on the exact rows; the same vector
    # with the entry that moves the residual most scaled by 1 + 1e-6 fails it;
    # the certificate's integer residual equals the Fraction one for both
    try:
        evs = roots(char_poly(m))
    except NonConvergenceError:
        evs = []
    numeric = {(ev.re, ev.im): ev for ev in evs if not ev.is_exact}
    assume(numeric)
    n, band = len(m), Band(m)
    for ev in numeric.values():
        (vec,) = eigenvector(m, ev)
        assert _within_bound(m, vec, ev, 1e-12)
        lam = complex(ev.re, ev.im)
        column = [math.hypot(*(abs(complex(row[j]) - lam * (i == j)) for i, row in enumerate(m)))
                  for j in range(n)]
        j = max(range(n), key=lambda j: abs(vec[j]) * column[j])
        bent = [*vec[:j], vec[j] * (1 + 1e-6), *vec[j + 1:]]
        assert not band.certifies(bent, ev, 1e-12)
        assert not _within_bound(m, bent, ev, 1e-12)
        # scaled so that the residual moves by 0.95 and 1.05 times the bound,
        # which puts it near the bound: the two decisions still agree
        bound = 1e-11 * (1 + math.hypot(*(float(c) for row in m for c in row)))
        for k in (0.95, 1.05):
            near = [*vec[:j], vec[j] * (1 + k * bound / abs(vec[j]) / column[j]), *vec[j + 1:]]
            assert band.certifies(near, ev, 1e-12) is _within_bound(m, near, ev, 1e-12)
        for v in (vec, bent):
            err, top = band.residual(v, ev)
            assert F(err, top**4 * band.den**2) == _residual_squared(m, v, ev)


def test_eigenvector_rejects_non_eigenvalue():
    m = restrict(HERMITE, Differential(), 2)
    with pytest.raises(ValueError):
        eigenvector(m, Eigenvalue.from_exact(F(7)))


def test_nullspace_basis_for_multiple_eigenvalue():
    m = frac_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    basis = eigenvector(m, Eigenvalue.from_exact(F(1)))
    assert len(basis) == 2


def test_eigenvector_rejects_a_non_square_matrix():
    # a 1x2 matrix has no eigenvectors; it must not be read as its 1x1 block
    for ev in (Eigenvalue.from_exact(F(1)), Eigenvalue.from_numeric(1.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match="square"):
            eigenvector(frac_matrix([[1, 2]]), ev)
    with pytest.raises(ValueError, match="square"):
        eigenvector(frac_matrix([[1, 2], [0]]), Eigenvalue.from_exact(F(1)))


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]], [[0, 0], [0, 0, 0]]])
def test_nullspace_rejects_ragged_rows(rows):
    with pytest.raises(ValueError, match="equal length"):
        nullspace(frac_matrix(rows))


def _outcome(call):
    try:
        return call()
    except (ValueError, NonConvergenceError) as err:
        return type(err), str(err)


def _increment_entry(m):
    m[1][1] += 1


def _replace_row(m):
    m[2] = [F(k + 1) for k in range(len(m))]


def _swap_rows(m):
    m[0], m[3] = m[3], m[0]


@pytest.mark.parametrize("mutate", [_increment_entry, _replace_row, _swap_rows])
@pytest.mark.parametrize("op, n", [(HERMITE, 5), (lame(2, 1, 4).element, 4)], ids=["hermite", "lame"])
def test_changed_restrict_rows_are_read_as_rows(op, n, mutate):
    # restrict's rows keep the columns and band read off their flag matrix;
    # once the rows change, every consumer must read the rows instead
    m = restrict(op, Differential(), n)
    before = roots(char_poly(m))
    for ev in dict.fromkeys(before):
        eigenvector(m, ev)  # fills the sparse columns (exact) or the band (numeric)
    mutate(m)
    plain = [row[:] for row in m]
    assert type(plain) is list and plain == m
    assert char_poly(m) == char_poly(plain)
    assert nullspace(m) == nullspace(plain)
    after = _outcome(lambda: roots(char_poly(plain)))
    evs = dict.fromkeys(before + (after if isinstance(after, list) else []))
    evs.update({Eigenvalue.from_exact(x): None for row in plain for x in row})
    for ev in evs:
        if ev.is_exact:
            assert nullspace(m, ev.exact) == nullspace(plain, ev.exact)
        assert _outcome(lambda: eigenvector(m, ev)) == _outcome(lambda: eigenvector(plain, ev))


# -- spectrum assembly --------------------------------------------------------


def test_spectrum_object_for_hermite():
    sp = spectrum(HERMITE, 5, Differential(), operator_label="hermite")
    assert sp.char_poly.degree == 6
    assert [ev.exact for ev, _ in sp.eigenpairs] == [F(k) for k in range(6)]
    assert len(sp.eigenpairs) <= 6
    assert sp.realization == "differential"


def test_spectrum_on_complex_fiber():
    sp = spectrum(number().element, 3, ComplexPlane(2))
    assert [ev.exact for ev, _ in sp.eigenpairs] == [0, 1, 2, 3]
    assert sp.realization == "complex m=2"


# -- isospectrality -------------------------------------------------------------


def test_hermite_isospectral_everywhere():
    report = isospectral_check(HERMITE, 5, [*ALL_UNIVARIATE, ComplexPlane()])
    assert report.all_equal
    expected = char_poly(restrict(HERMITE, Differential(), 5))
    assert all(cp == expected for _, cp in report.entries)
    # eigenvalues are 0..5, so the polynomial is prod (t - k)
    assert [e.exact for e in roots(expected)] == [F(k) for k in range(6)]


def test_lame_isospectral():
    element = lame(2, 1, 3).element
    report = isospectral_check(element, 3, ALL_UNIVARIATE + [ComplexPlane(m) for m in (0, 1, 2)])
    assert report.all_equal
    assert len(report.entries) == 8
    assert report.entries[0][1].degree == 4


def test_isospectral_check_takes_its_spaces_as_listed():
    # a listed complex plane is reported once, under its vacuum's label
    report = isospectral_check(HERMITE, 3, [Differential(), ComplexPlane()])
    assert [label for label, _ in report.entries] == ["differential", "complex m=0"]
    assert report.all_equal
    # and a list without one gets no complex entry
    report = isospectral_check(HERMITE, 3, [Differential(), QLattice(2)])
    assert [label for label, _ in report.entries] == ["differential", "q=2"]


def test_sextic_isospectral():
    element = sextic(1, 1, 2).element
    report = isospectral_check(element, 2, [*ALL_UNIVARIATE, ComplexPlane()])
    assert report.all_equal
    assert report.entries[0][1].degree == 3


def test_es_operators_have_diagonal_spectra():
    for spec in (hermite(), laguerre(F(3, 2)), number()):
        n = 7
        cp = char_poly(restrict(spec.element, Differential(), n))
        expected = sorted(es_diagonal(spec.element, k) for k in range(n + 1))
        assert [e.exact for e in roots(cp)] == expected


#: the exactly solvable rows of the n=64 envelope: a repeated root, and
#: roots of large height (ROADMAP item 3)
ES_ROWS = [
    "(b*a - 32)^2*(b*a - 1000003/7)",
    "(b*a - 32)^2*(b*a - 1000003/7) + 3/1000033*b*a",
    "b*a*b*a*b*a + 1/1000003*b*a",
]


@pytest.mark.parametrize("expr", ES_ROWS)
def test_es_rows_at_64_return_their_sorted_diagonal(expr):
    m = restrict(lower(parse(expr)), Differential(), 64)
    diagonal = m.flag.diagonal()
    expected = [Eigenvalue.from_exact(x) for x in sorted(diagonal)]
    assert roots(char_poly(m.flag), candidates=diagonal) == expected


def _evaluations(cp):
    """``roots(cp)`` and the number of exact polynomial evaluations it made."""
    with mock.patch.object(spectra, "_value_at", wraps=spectra._value_at) as spy:
        evs = roots(cp)
    return evs, spy.call_count


@pytest.mark.parametrize("d, measured", [(F(1), 894), (F(1, 2**20 + 1), 1322)], ids=["1", "1/p"])
def test_refinement_converges_in_a_pinned_number_of_evaluations(d, measured):
    # Lame(2, d, 64): 65 irrational roots.  Quadratic interval refinement
    # made 894 and 1322 exact evaluations here (13.8 and 20.3 a root), and
    # bisection 3395 (52 a root) at d = 1; a count repeats exactly, so 1.5x
    # the measured count pins the quadratic convergence without a timing
    evs, count = _evaluations(char_poly(restrict(lame(2, d, 64).element, Differential(), 64).flag))
    assert len(evs) == 65 and not any(ev.is_exact for ev in evs)
    assert count <= 1.5 * measured


def test_catalog_operators_isospectral_on_all_fibers():
    cases = [
        (hermite().element, 4),
        (laguerre(F(3, 2)).element, 4),
        (lame(2, 1, 3).element, 3),
        (sextic(1, 1, 2).element, 2),
    ]
    for element, n in cases:
        report = isospectral_check(element, n, ALL_UNIVARIATE + [ComplexPlane(m) for m in range(5)])
        assert report.all_equal
        assert len(report.entries) == 10


# -- complex spectra ------------------------------------------------------------


def test_complex_eigenvalue_pair_from_negative_coupling():
    # sextic with alpha < 0 at n = 1: char poly t^2 + 8, conjugate pair
    m = restrict(sextic(-1, 0, 1).element, Differential(), 1)
    cp = char_poly(m)
    assert cp.coeffs == (F(8), F(0), F(1))
    evs = roots(cp)
    assert [round(e.im, 12) for e in evs] == pytest.approx(
        [-math.sqrt(8), math.sqrt(8)]
    )
    assert all(e.residual <= 1e-12 for e in evs)
    for ev in evs:
        (vec,) = eigenvector(m, ev)
        residual = max(
            abs(sum(complex(m[i][j]) * vec[j] for j in range(2)) - complex(ev.re, ev.im) * vec[i])
            for i in range(2)
        )
        assert residual <= 1e-11


def test_close_distinct_roots_stay_distinct():
    # t^2 - 2t + 1 - 2/10^20 has the two roots 1 -+ sqrt(2)*10^-10
    evs = roots(CharPoly((1 - F(2, 10**20), F(-2), F(1))))
    assert len(evs) == 2 and not any(e.is_exact for e in evs)
    assert evs[0].re < 1 < evs[1].re


def test_restrict_rejects_negative_degree():
    with pytest.raises(ValueError, match="nonnegative"):
        restrict(HERMITE, Differential(), -1)
    with pytest.raises(ValueError, match="nonnegative"):
        isospectral_check(HERMITE, -1, [*ALL_UNIVARIATE, ComplexPlane()])
