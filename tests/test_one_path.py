"""Each shared path against the definition it replaced.

The invariant-degree scan and ``first_leakage`` read image degrees of the
Fock action in one pass; the per-degree flag matrices stay the reference.
The differential realization is the Fock action itself; the generic
monomial-basis assembly stays the reference.  Powers use square-and-multiply;
the repeated product stays the reference.  Horner keeps the float operation
order of the loop it replaced.  ``Realization.apply`` shares a-powers and
b-chains; the term-by-term action stays the reference.  ``shifted`` is an
integer Taylor shift; the binomial expansion stays the reference.
"""

from fractions import Fraction as F
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from fockspec.catalog import hermite, jplus, lame, sextic
from fockspec.realizations import (
    ComplexFiber,
    DeltaLattice,
    Differential,
    QLattice,
    Realization,
    realize_matrix,
)
from fockspec.solvability import (
    QESCoeffs,
    first_leakage,
    heun_constraint_residual,
    invariant_degree_scan,
    qes_coeffs_of,
    qes_constraint_residuals,
    qes_leakage_residuals,
)
from fockspec.spectra import char_poly, restrict
from fockspec.weyl import (
    DegreeOverflowError,
    FockVector,
    WeylElement,
    flag_matrix,
    make,
    multiply,
    power,
)

from strategies import nonzero_rationals, rationals, weyl_elements

HERMITE = hermite().element


def _es_part(u):
    return WeylElement({key: c for key, c in u.terms.items() if key[0] <= key[1]})


def scan_elements():
    # random elements leak almost everywhere; an ES part plus b^2*a - k*b is
    # invariant exactly up to degree k unless the ES part adds leakage
    qes_like = st.builds(
        lambda u, k: _es_part(u) + jplus(k).element,
        weyl_elements(max_degree=3), st.integers(0, 10),
    )
    return st.one_of(weyl_elements(max_degree=3), qes_like)


# -- invariance scan and leakage witness -------------------------------------------


@given(scan_elements(), st.integers(-1, 16))
@settings(max_examples=120)
def test_scan_equals_per_degree_flag_matrix_leakage(u, n_max):
    expected = tuple(n for n in range(n_max + 1) if not flag_matrix(u, n).has_leakage)
    assert invariant_degree_scan(u, n_max) == expected


@pytest.mark.parametrize("spec", [lame(2, 1, 3), sextic(1, 2, 4), jplus(5)])
def test_scan_of_catalog_qes_up_to_the_cap(spec):
    expected = tuple(n for n in range(65) if not flag_matrix(spec.element, n).has_leakage)
    assert invariant_degree_scan(spec.element, 64) == expected == (spec.invariant_degree,)


@given(scan_elements(), st.integers(0, 12))
@settings(max_examples=120)
def test_first_leakage_is_the_lowest_leaking_flag_column(u, n):
    m = flag_matrix(u, n)
    expected = (min(m.leakage), m.leakage[min(m.leakage)]) if m.has_leakage else None
    assert first_leakage(u, n) == expected


def test_first_leakage_keeps_the_flag_matrix_errors():
    with pytest.raises(DegreeOverflowError):
        first_leakage(HERMITE, 65)
    with pytest.raises(ValueError):
        first_leakage(HERMITE, -1)


def test_qes_closed_forms_are_shared():
    c = QESCoeffs(a4=2, a3=F(1, 3), b3=-5, b2=7, d2=F(3, 2), d1=-1)
    for n in range(6):
        r1, r2 = qes_constraint_residuals(c, n)
        assert r1 == c.c2(n) and r2 == c.c2(n - 1) + c.c1(n)
        assert qes_leakage_residuals(c, n) == (c.c2(n), c.c2(n - 1) if n else 0, c.c1(n))
        assert heun_constraint_residual(c.a3, c.b2, c.d1, n) == c.c1(n)
    assert qes_coeffs_of(c.element()) == c


# -- differential realization is the Fock action -----------------------------------


@given(weyl_elements(max_degree=3), st.integers(0, 10))
@settings(max_examples=60)
def test_differential_matrix_equals_generic_monomial_assembly(u, n):
    generic = Realization.matrix(Differential(), u, n)
    assert realize_matrix(u, Differential(), n) == generic == flag_matrix(u, n)


@pytest.mark.parametrize("u", [HERMITE, lame(2, 1, 3).element, make(1, 1, 0)])
def test_differential_matrix_beyond_the_degree_cap(u):
    # the flag basis is capped at 64, a polynomial space is not
    fm = realize_matrix(u, Differential(), 65)
    assert fm == flag_matrix(u, 65, cap=65)
    assert fm.size == 66
    with pytest.raises(DegreeOverflowError):
        flag_matrix(u, 65)


def test_differential_empty_span_matches_the_lattices():
    empty = realize_matrix(HERMITE, Differential(), -1)
    assert empty.size == 0 and empty == realize_matrix(HERMITE, DeltaLattice(1), -1)


# -- square-and-multiply powers ----------------------------------------------------


def _repeated(u, n, cap):
    out = WeylElement.identity()
    for _ in range(n):
        out = multiply(out, u, cap)
    return out


@given(weyl_elements(max_degree=2, max_terms=3), st.integers(0, 7))
@settings(max_examples=80)
def test_power_equals_repeated_product(u, n):
    assert power(u, n) == _repeated(u, n, 64) == u ** n


@given(weyl_elements(max_degree=3, max_terms=3), st.integers(0, 9))
@settings(max_examples=80)
def test_power_overflows_exactly_when_the_repeated_product_does(u, n):
    cap = 10
    try:
        expected = _repeated(u, n, cap)
    except DegreeOverflowError:
        with pytest.raises(DegreeOverflowError):
            power(u, n, cap)
    else:
        assert power(u, n, cap) == expected


def test_power_of_units_and_zero_is_logarithmic():
    assert power(WeylElement.identity(), 10**8) == WeylElement.identity()
    assert power(make(-1, 0, 0), 10**8 + 1) == make(-1, 0, 0)
    assert power(WeylElement.zero(), 10**8).is_zero
    assert power(make(3, 2, 0), 0) == WeylElement.identity()
    with pytest.raises(ValueError):
        power(HERMITE, -1)


# -- one Horner --------------------------------------------------------------------


def test_eval_complex_keeps_the_float_operation_order():
    cp = char_poly(restrict(sextic(-1, 0, 4).element, Differential(), 4))
    for k in range(-6, 7):
        z = complex(0.37 * k, -0.71 * k + 0.1)
        acc = 0j  # the loop eval_complex had before it shared Horner
        for c in reversed(cp.coeffs):
            acc = acc * z + complex(c)
        assert cp.eval_complex(z) == acc
        assert cp(F(k, 3)) == sum(c * F(k, 3) ** d for d, c in enumerate(cp.coeffs))


# -- shared a-powers in the realization action -------------------------------------


def _per_term_apply(r, u, p):
    """The term-by-term action ``Realization.apply`` replaced."""
    total = type(p)()
    for (i, j), c in u.terms.items():
        w = p
        for _ in range(j):
            w = r.act_a(w)
        for _ in range(i):
            w = r.act_b(w)
        total = total + w.scale(c)
    return total


def _matrix_or_error(u, r, n):
    try:
        m = realize_matrix(u, r, n)
    except ValueError as e:
        return str(e)
    return m.entries, dict(m.leakage)


realizations = st.one_of(
    st.builds(DeltaLattice, nonzero_rationals()),
    # q = -1 leaves the raising action undefined on odd degrees
    st.builds(QLattice, st.one_of(st.just(F(-1)), nonzero_rationals().filter(lambda q: q != 1))),
    st.builds(ComplexFiber, st.integers(0, 3)),
)


@given(weyl_elements(max_degree=4, max_terms=5), realizations, st.integers(0, 6))
# b^2*a - b at q = -1: per term, b acts on b(a x) = x and raises
@example(WeylElement({(2, 1): 1, (1, 0): -1}), QLattice(-1), 1)
@settings(max_examples=150, deadline=None)
def test_apply_equals_the_term_by_term_action(u, r, n):
    with mock.patch.object(Realization, "apply", _per_term_apply):
        expected = _matrix_or_error(u, r, n)
    assert _matrix_or_error(u, r, n) == expected


# -- integer Taylor shift ----------------------------------------------------------


def _binomial_shift(f, h):
    """The binomial expansion of ``f(x + h)`` that ``shifted`` replaced."""
    n = len(f.coeffs)
    out = [F(0)] * n
    for d, c in enumerate(f.coeffs):
        if not c:
            continue
        h_power = F(1)
        for r in range(d, -1, -1):
            out[r] += c * comb(d, d - r) * h_power
            h_power *= h
    return FockVector(tuple(out))


@given(
    st.lists(st.one_of(st.just(F(0)), rationals(10**6, 10**6)), max_size=12),
    st.one_of(st.just(F(0)), rationals(10**6, 10**6)),
)
@settings(max_examples=200, deadline=None)
def test_shifted_equals_the_binomial_expansion(coeffs, h):
    f = FockVector(tuple(coeffs))
    shifted = f.shifted(h)
    assert shifted == _binomial_shift(f, h)
    assert all(type(c) is F for c in shifted.coeffs)
    assert shifted.shifted(-h) == f


def test_shifted_edge_cases():
    assert FockVector().shifted(F(-7, 2)) == FockVector()
    f = FockVector((F(1, 3), 0, F(-5, 999999)))
    assert f.shifted(0) == f
    assert f.shifted(F(-1, 2)) == _binomial_shift(f, F(-1, 2))
    # (x - 1)^3 shifted by 1 is x^3
    assert FockVector((-1, 3, -3, 1)).shifted(1) == FockVector((0, 0, 0, 1))
