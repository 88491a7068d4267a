"""Tests for the four realizations and their matrix assembly."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fockspec.catalog import hermite, laguerre, lame, sextic
from fockspec.realizations import (
    BiPoly,
    ComplexPlane,
    DeltaLattice,
    Differential,
    QLattice,
    UniPoly,
    complex_act_a,
    complex_act_b,
    complex_fiber_matrix,
    q_number,
    quasi_monomial_change,
    realize_matrix,
)
from fockspec.spectra import char_poly, restrict
from fockspec.weyl import flag_matrix, make, multiply

from exact_matrix import mat_mul
from strategies import nonzero_rationals, weyl_elements

A = make(1, 0, 1)
B = make(1, 1, 0)
HERMITE = make(-1, 0, 2) + make(1, 1, 1)

UNIVARIATE = [
    Differential(),
    DeltaLattice(F(1, 2)),
    DeltaLattice(-2),
    QLattice(2),
    QLattice(F(1, 2)),
    QLattice(-3),
]


def x_power(n):
    return UniPoly.basis(n)


def test_realization_parameter_validation():
    with pytest.raises(ValueError):
        DeltaLattice(0)
    with pytest.raises(ValueError):
        QLattice(0)
    with pytest.raises(ValueError):
        QLattice(1)
    QLattice(-1)  # allowed; only some raising actions are undefined


def test_q_number_is_horner_sum():
    assert q_number(0, F(2)) == 0
    assert q_number(1, F(-7)) == 1
    assert q_number(3, F(2)) == 7
    assert q_number(4, F(1, 2)) == F(15, 8)
    assert q_number(2, F(-1)) == 0


def test_delta_lowering_on_x_squared():
    d = F(1, 3)
    out = DeltaLattice(d).act_a(x_power(2))
    assert out == UniPoly((d, F(2)))  # 2x + delta


def test_delta_raising_on_x():
    d = F(1, 3)
    out = DeltaLattice(d).act_b(x_power(1))
    assert out == UniPoly((F(0), -d, F(1)))  # x^2 - delta*x


def test_delta_raising_builds_quasi_monomials():
    # b^k applied to 1 gives x(x-d)(x-2d)...
    d = F(2, 5)
    p = UniPoly.one()
    for k in range(4):
        p = DeltaLattice(d).act_b(p)
    expected = UniPoly.one()
    for t in range(4):
        expected = expected.times_x() - expected.scale(t * d)
    assert p == expected


def test_q_lowering_on_x_cubed():
    q = F(3)
    assert QLattice(q).act_a(x_power(3)) == UniPoly((0, 0, 13))  # {3}_3 = 13


def test_q_raising_undefined_at_vanishing_q_number():
    with pytest.raises(ValueError):
        QLattice(-1).act_b(x_power(1))  # {2}_{-1} = 0


@pytest.mark.parametrize("r", UNIVARIATE)
def test_commutator_is_identity_on_monomials(r):
    for k in range(21):
        p = x_power(k)
        lhs = r.act_a(r.act_b(p)) - r.act_b(r.act_a(p))
        assert lhs == p, (r.label, k)


def test_number_operator_matrix_is_q_independent():
    fm = realize_matrix(multiply(B, A), QLattice(F(7, 3)), 4)
    assert not fm.has_leakage
    assert fm.entries == tuple(
        tuple(F(k) if r == k else F(0) for k in range(5)) for r in range(5)
    )


@pytest.mark.parametrize("r", UNIVARIATE)
def test_realized_commutator_is_identity_matrix(r):
    u = multiply(A, B) - multiply(B, A)
    fm = realize_matrix(u, r, 8)
    assert not fm.has_leakage
    assert all(
        fm.entries[i][j] == (1 if i == j else 0) for i in range(9) for j in range(9)
    )


def test_hermite_delta_half_char_poly():
    fm = realize_matrix(HERMITE, DeltaLattice(F(1, 2)), 3)
    assert not fm.has_leakage
    cp = char_poly([list(row) for row in fm.entries])
    # t(t-1)(t-2)(t-3), same as the differential realization
    assert cp.coeffs == (F(0), F(-6), F(11), F(-6), F(1))
    differential = realize_matrix(HERMITE, Differential(), 3)
    assert cp == char_poly([list(row) for row in differential.entries])


@given(weyl_elements(max_degree=3), st.integers(0, 12))
@settings(max_examples=60)
def test_differential_matrix_equals_flag_matrix(u, n):
    assert realize_matrix(u, Differential(), n) == flag_matrix(u, n)


@pytest.mark.parametrize(
    "u", [HERMITE, make(-1, 1, 2) + make(1, 1, 1) + make(F(-5, 2), 0, 1)]
)
def test_lattice_matrices_converge_to_differential(u):
    n = 6
    target = realize_matrix(u, Differential(), n).entries

    def max_diff(fm):
        return max(
            abs(fm.entries[r][c] - target[r][c])
            for r in range(n + 1)
            for c in range(n + 1)
        )

    d4 = max_diff(realize_matrix(u, DeltaLattice(F(1, 2**4)), n))
    d8 = max_diff(realize_matrix(u, DeltaLattice(F(1, 2**8)), n))
    assert d8 < d4
    q4 = max_diff(realize_matrix(u, QLattice(1 + F(1, 2**4)), n))
    q8 = max_diff(realize_matrix(u, QLattice(1 + F(1, 2**8)), n))
    assert q8 < q4


# -- complex plane -----------------------------------------------------------


def test_complex_lowering_is_zbar_derivative():
    assert complex_act_a(BiPoly.monomial(0, 2)) == BiPoly.monomial(0, 1, 2)


def test_complex_raising_on_analytic_monomial():
    m = 5
    out = complex_act_b(BiPoly.monomial(m, 0))
    assert out == BiPoly({(m - 1, 0): -m, (m, 1): 1})


def test_number_operator_fixes_first_raised_level():
    # L0 (b z^m) = 1 * (b z^m)
    f = complex_act_b(BiPoly.monomial(3, 0))
    image = complex_act_b(complex_act_a(f))
    assert image == f


@pytest.mark.parametrize("m", [0, 2, 7])
def test_number_operator_fiber_matrix(m):
    fm = complex_fiber_matrix(make(1, 1, 1), m, 3)
    assert not fm.has_leakage
    assert fm.diagonal() == (0, 1, 2, 3)
    assert all(
        fm.entries[r][c] == 0 for r in range(4) for c in range(4) if r != c
    )


def test_hermite_fiber_matrices_identical_across_vacua():
    reference = complex_fiber_matrix(HERMITE, 0, 3)
    assert not reference.has_leakage
    for m in range(1, 5):
        assert complex_fiber_matrix(HERMITE, m, 3) == reference


def test_lowering_fiber_is_nilpotent_shift():
    fm = complex_fiber_matrix(A, 0, 1)
    assert fm.entries == ((F(0), F(1)), (F(0), F(0)))
    assert not fm.has_leakage


def test_fiber_leakage_is_a_bipoly_witness():
    fm = complex_fiber_matrix(B, 0, 1)
    assert set(fm.leakage) == {1}
    assert isinstance(fm.leakage[1], BiPoly)


CATALOG_CASES = [
    (hermite(), 4), (laguerre(F(3, 2)), 4), (lame(2, 1, 3), 3), (sextic(1, 1, 2), 2),
]


@pytest.mark.parametrize("m", range(4))
def test_complex_plane_is_one_space_per_vacuum(m):
    plane = ComplexPlane(m)
    assert plane.label == f"complex m={m}"
    assert plane.vacuum == BiPoly.monomial(m, 0)
    for spec, n in CATALOG_CASES:
        assert realize_matrix(spec.element, plane, n) == complex_fiber_matrix(spec.element, m, n)
        assert restrict(spec.element, plane, n) == restrict(spec.element, Differential(), n)


# -- quasi-monomial change of basis -------------------------------------------


def test_quasi_monomial_column_for_delta_one():
    t = quasi_monomial_change(1, 3)
    # column 2 is x(x-1) = x^2 - x
    assert tuple(row[2] for row in t) == (F(0), F(-1), F(1), F(0))


def test_quasi_monomial_against_multiplication_oracle():
    # columns equal the iterated products, entries are signed delta-scaled
    # Stirling numbers of the first kind
    d = F(3, 2)
    n = 5
    t = quasi_monomial_change(d, n)
    coeffs = [F(1)]  # ascending coefficients of the running product
    for k in range(n + 1):
        for r in range(n + 1):
            expected = coeffs[r] if r < len(coeffs) else F(0)
            assert t[r][k] == expected
        nxt = [F(0)] + coeffs
        coeffs = [c - k * d * (coeffs[i] if i < len(coeffs) else F(0)) for i, c in enumerate(nxt)]


@given(st.integers(1, 6), nonzero_rationals())
@settings(max_examples=40)
def test_quasi_monomial_conjugation_recovers_flag(n, d):
    u = HERMITE
    t = [list(row) for row in quasi_monomial_change(d, n)]
    lattice = realize_matrix(u, DeltaLattice(d), n)
    assert not lattice.has_leakage
    lhs = mat_mul(lattice.entries, t)
    rhs = mat_mul(t, flag_matrix(u, n).entries)
    assert lhs == rhs
