"""Core algebra tests: normal ordering, the basis action and flag matrices.

Two independent oracles are used here: reordering by repeated rewriting of
``a*b`` into ``b*a + 1`` (letter by letter, no closed formula), and the
differential action a = d/dx, b = x on monomials.
"""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fockspec.weyl import (
    DegreeOverflowError,
    FockVector,
    WeylElement,
    add,
    commutator,
    canonical_text,
    eval_poly_in_L0,
    falling,
    flag_matrix,
    fock_apply,
    make,
    multiply,
    scale,
)

from strategies import rationals, weyl_elements

A = make(1, 0, 1)
B = make(1, 1, 0)
L0 = make(1, 1, 1)


# -- oracle 1: letter-level rewriting ---------------------------------------


def reorder_by_rewriting(i: int, j: int) -> dict:
    """Normal form of the word a^j b^i via the rewrite ab -> ba + 1."""
    result: dict = {}
    stack = [("a" * j + "b" * i, F(1))]
    while stack:
        word, coeff = stack.pop()
        idx = word.find("ab")
        if idx < 0:
            key = (word.count("b"), word.count("a"))
            result[key] = result.get(key, F(0)) + coeff
        else:
            stack.append((word[:idx] + "ba" + word[idx + 2 :], coeff))
            stack.append((word[:idx] + word[idx + 2 :], coeff))
    return {k: v for k, v in result.items() if v}


def test_reordering_closed_form_matches_rewriting():
    for i in range(7):
        for j in range(7):
            product = multiply(make(1, 0, j), make(1, i, 0))
            assert dict(product.terms) == reorder_by_rewriting(i, j), (i, j)


# -- oracle 2: differential action on monomials -----------------------------


def apply_differential(u: WeylElement, poly: dict) -> dict:
    """Apply u with a = d/dx, b = x to {degree: coeff}."""
    out: dict = {}
    for (i, j), c in u.terms.items():
        for deg, pc in poly.items():
            if j > deg:
                continue
            acc = pc * c * falling(deg, j)
            if acc:
                key = deg - j + i
                out[key] = out.get(key, F(0)) + acc
    return {k: v for k, v in out.items() if v}


def as_poly(v: FockVector) -> dict:
    return {d: c for d, c in enumerate(v.coeffs) if c}


# -- make / add / scale ------------------------------------------------------


def test_make_number_operator():
    assert dict(make(1, 1, 1).terms) == {(1, 1): F(1)}


def test_make_zero_coefficient_gives_zero_element():
    assert make(0, 5, 5).is_zero


def test_make_sextic_leading_term():
    assert dict(make(-4, 1, 2).terms) == {(1, 2): F(-4)}


def test_make_rejects_cap_overflow():
    with pytest.raises(DegreeOverflowError):
        make(1, 65, 0)
    make(1, 5, 5, cap=5)
    with pytest.raises(DegreeOverflowError):
        make(1, 6, 0, cap=5)


def test_make_keeps_the_constructor_checks():
    for i, j in ((-1, 0), (2, -3)):
        with pytest.raises(ValueError, match=re.escape(f"negative exponent ({i}, {j})")):
            make(1, i, j)
    with pytest.raises(TypeError):
        make(True, 1, 0)
    for c in (3, "-3/2", F(5, 7), 0):
        u = make(c, 2, 1)
        assert list(u.terms.items()) == list(WeylElement({(2, 1): c}).terms.items())
        assert all(type(x) is F for x in u.terms.values())


def test_add_cancels_to_zero():
    assert add(L0, scale(-1, L0)).is_zero


def test_scale():
    assert scale(2, L0) == make(2, 1, 1)


def test_jplus_shape():
    k = 3
    assert add(make(1, 2, 1), make(-k, 1, 0)) == B * B * A - k * B


# -- multiply ----------------------------------------------------------------


def test_commutation_relation():
    assert multiply(A, B) == add(make(1, 1, 1), make(1, 0, 0))


def test_a2_b2_against_differential_oracle():
    product = multiply(A**2, B**2)
    assert product == make(1, 2, 2) + make(4, 1, 1) + make(2, 0, 0)
    for k in range(5):
        lhs = as_poly(fock_apply(product, k))
        via_oracle = apply_differential(A**2, apply_differential(B**2, {k: F(1)}))
        assert lhs == via_oracle


def test_number_operator_squared():
    assert multiply(L0, L0) == make(1, 2, 2) + make(1, 1, 1)


def test_multiply_overflow():
    with pytest.raises(DegreeOverflowError):
        multiply(make(1, 40, 0), make(1, 40, 0))


@given(weyl_elements(), weyl_elements(), weyl_elements())
@settings(max_examples=100)
def test_multiply_associative(u, v, w):
    assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


@given(weyl_elements(), weyl_elements())
def test_multiply_matches_differential_oracle(u, v):
    product = multiply(u, v)
    for k in range(5):
        direct = as_poly(fock_apply(product, k))
        composed = apply_differential(u, apply_differential(v, {k: F(1)}))
        assert direct == composed


# -- commutator ----------------------------------------------------------------


def test_commutator_a_b():
    assert commutator(A, B) == 1


def test_commutator_a_b_cubed():
    assert commutator(A, B**3) == make(3, 2, 0)


def test_commutator_number_with_a():
    assert commutator(L0, A) == -A


# -- fock_apply ----------------------------------------------------------------


def test_number_operator_action():
    assert fock_apply(L0, 5) == FockVector.basis(5, 5)


def test_vacuum_annihilation():
    assert fock_apply(A, 0).is_zero


def test_falling_factorial_action():
    # b a^2 on degree 3: 3*2 = 6 at degree 2
    assert fock_apply(make(1, 1, 2), 3) == FockVector.basis(2, 6)


@given(weyl_elements(), weyl_elements(), st.integers(0, 10))
def test_action_is_a_homomorphism(u, v, k):
    lhs = fock_apply(multiply(u, v), k)
    inner = fock_apply(v, k)
    rhs = FockVector()
    for d, c in enumerate(inner.coeffs):
        if c:
            rhs = rhs + fock_apply(u, d).scale(c)
    assert lhs == rhs


# -- flag_matrix -----------------------------------------------------------------


@pytest.mark.parametrize("n", range(17))
def test_number_operator_flag_is_diagonal(n):
    fm = flag_matrix(L0, n)
    assert not fm.has_leakage
    assert fm.diagonal() == tuple(F(k) for k in range(n + 1))
    for r in range(n + 1):
        for c in range(n + 1):
            if r != c:
                assert not fm.entries[r][c]


def test_creation_operator_leaks():
    fm = flag_matrix(B, 2)
    assert fm.entries[1][0] == 1 and fm.entries[2][1] == 1
    assert set(fm.leakage) == {2}
    assert fm.leakage[2] == FockVector.basis(3, 1)


def test_hermite_flag_matrix_entries():
    h = make(-1, 0, 2) + make(1, 1, 1)
    fm = flag_matrix(h, 3)
    assert not fm.has_leakage
    assert fm.is_upper_triangular()
    assert fm.diagonal() == (0, 1, 2, 3)
    assert fm.entries[0][2] == -2
    assert fm.entries[1][3] == -6


# -- eval_poly_in_L0 ----------------------------------------------------------


def test_poly_identity():
    assert eval_poly_in_L0([0, 1]) == L0


def test_poly_square():
    assert eval_poly_in_L0([0, 0, 1]) == multiply(L0, L0)


@given(st.lists(rationals(), min_size=1, max_size=4), st.integers(1, 8))
def test_poly_diagonal_is_poly_of_degree(coeffs, n):
    element = eval_poly_in_L0(coeffs)
    fm = flag_matrix(element, n)
    for k in range(n + 1):
        expected = sum((c * F(k) ** e for e, c in enumerate(coeffs)), F(0))
        assert fm.entries[k][k] == expected
    assert not fm.has_leakage


# -- canonical text -----------------------------------------------------------


def test_canonical_text_examples():
    assert canonical_text(make(-1, 0, 2) + make(1, 1, 1)) == "-1*a^2 + b*a"
    assert canonical_text(WeylElement.zero()) == "0"
    assert canonical_text(multiply(A**2, B**2)) == "b^2*a^2 + 4*b*a + 2"
