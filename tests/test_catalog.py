"""Catalog constructors: named operators, sl(2) generator family, metadata."""

import random
from fractions import Fraction as F

import pytest

from fockspec.catalog import (
    CATALOG,
    ConstraintViolationError,
    Family,
    build_from_catalog,
    casimir,
    heun,
    hermite,
    jminus,
    jplus,
    jzero,
    laguerre,
    lame,
    lame_elliptic_invariants,
    number,
    sextic,
    sextic_hamiltonian_coeffs,
)
from fockspec.realizations import ComplexPlane, Differential, realize_matrix
from fockspec.solvability import QESCoeffs, invariant_degree_scan, is_exactly_solvable
from fockspec.spectra import char_poly, restrict, roots
from fockspec.weyl import WeylElement, commutator, flag_matrix, make, multiply


def random_rationals(count, seed=0):
    rng = random.Random(seed)
    return [F(rng.randint(-12, 12), rng.randint(1, 8)) for _ in range(count)]


# -- number -------------------------------------------------------------------


def test_number_flag_is_diagonal():
    fm = flag_matrix(number().element, 8)
    assert fm.diagonal() == tuple(range(9))
    assert not fm.has_leakage


def test_number_fiber_matches_landau_levels():
    for m in range(3):
        sp = restrict(number().element, ComplexPlane(m), 4)
        assert [sp[k][k] for k in range(5)] == list(range(5))


def test_harmonic_oscillator_shift():
    # spectrum of (number + 1/2) is 1/2, 3/2, 5/2, ...
    shifted = number().element + F(1, 2)
    fm = flag_matrix(shifted, 5)
    assert fm.diagonal() == tuple(F(2 * k + 1, 2) for k in range(6))


# -- hermite / laguerre ---------------------------------------------------------


def test_hermite_spectrum_and_eigenvector():
    spec = hermite()
    assert spec.family is Family.ES
    assert is_exactly_solvable(spec.element)
    m = restrict(spec.element, Differential(), 4)
    assert [e.exact for e in roots(char_poly(m))] == [0, 1, 2, 3, 4]


def test_laguerre_spectrum():
    spec = laguerre(F(3, 2))
    assert is_exactly_solvable(spec.element)
    assert spec.element.coefficient(1, 2) == -1  # normal form of -b a^2
    m = restrict(spec.element, Differential(), 6)
    assert [e.exact for e in roots(char_poly(m))] == list(range(7))


# -- heun ------------------------------------------------------------------------


def test_lame_and_sextic_factor_through_heun():
    n = 3
    lame_coeffs = QESCoeffs(a3=4, b2=6, d1=-2 * n * (2 * n + 1))
    assert heun(lame_coeffs, n).element == lame(0, 0, n).element
    alpha, beta = F(2), F(-1, 2)
    sextic_coeffs = QESCoeffs(
        a1=-4, b2=4 * alpha, b1=4 * beta, b0=-2, d1=-4 * alpha * n
    )
    assert heun(sextic_coeffs, n).element == sextic(alpha, beta, n).element


def test_heun_rejects_constraint_violation():
    with pytest.raises(ConstraintViolationError) as err:
        heun(QESCoeffs(a3=1, b2=0, d1=0), 3)
    assert err.value.residual == 6


def test_heun_rejects_quartic_top():
    with pytest.raises(ValueError):
        heun(QESCoeffs(a4=1), 2)


def test_heun_fuchs_index_is_one():
    # realized operator raises polynomial degree by at most one
    n = 4
    coeffs = QESCoeffs(a3=2, a2=1, b2=-3, b1=5, d1=-2 * n * (n - 1) + 3 * n)
    element = heun(coeffs, n).element
    fm = realize_matrix(element, Differential(), 9)
    for k in range(9):
        assert all(not fm.entries[r][k] for r in range(k + 2, 10)), k
    assert all(col >= 9 for col in fm.leakage)


# -- lame --------------------------------------------------------------------------


def test_lame_n1_spectrum_is_symmetric_surd():
    mu, d = F(2), F(1)
    evs = roots(char_poly(restrict(lame(mu, d, 1).element, Differential(), 1)))
    target = (36 * (mu * mu - d)) ** 0.5
    assert evs[0].re == pytest.approx(-target, abs=1e-12)
    assert evs[1].re == pytest.approx(target, abs=1e-12)


def test_lame_scan_matches_declared_degree():
    for n in (1, 2, 3):
        spec = lame(F(5, 2), F(-1, 3), n)
        assert invariant_degree_scan(spec.element, 8) == (n,)
        assert spec.invariant_degree == n
        assert spec.family is Family.QES


def test_lame_elliptic_invariants():
    assert lame_elliptic_invariants(2, 1) == (36, 40)
    mu, d = F(1, 2), F(-3)
    assert lame_elliptic_invariants(mu, d) == (
        12 * (mu * mu - d),
        4 * mu * (2 * mu * mu - 3 * d),
    )


# -- sextic -------------------------------------------------------------------------


def test_sextic_n1_eigenvalues():
    alpha, beta = F(3), F(1, 2)
    m = restrict(sextic(alpha, beta, 1).element, Differential(), 1)
    cp = char_poly(m)
    # eigenvalues 2 beta +/- sqrt(4 beta^2 + 8 alpha)
    assert cp.coeffs == (-8 * alpha, -4 * beta, F(1))
    evs = roots(cp)
    disc = float(4 * beta * beta + 8 * alpha) ** 0.5
    assert evs[0].re == pytest.approx(float(2 * beta) - disc, abs=1e-12)
    assert evs[1].re == pytest.approx(float(2 * beta) + disc, abs=1e-12)


def test_sextic_n0_ground_state_is_constant():
    m = restrict(sextic(1, 0, 0).element, Differential(), 0)
    assert m == [[F(0)]]


def test_sextic_hamiltonian_coeffs_table():
    assert sextic_hamiltonian_coeffs(1, 0, 1) == (1, 0, -7, 0)
    assert sextic_hamiltonian_coeffs(0, 1, 5) == (0, 0, 1, -1)
    assert sextic_hamiltonian_coeffs(1, 1, 0) == (1, 2, -2, -1)


# -- sl(2) family ----------------------------------------------------------------


def test_jplus_two_parametrizations_agree():
    for k in random_rationals(20, seed=3):
        via_number = multiply(make(1, 1, 0), number().element - k)
        assert jplus(k).element == via_number


def test_sl2_commutation_relations():
    for k in random_rationals(20, seed=5):
        jp, jz, jm = jplus(k).element, jzero(k).element, jminus().element
        assert commutator(jz, jp) == jp
        assert commutator(jz, jm) == -jm
        assert commutator(jp, jm) == -2 * jz


def test_casimir_is_scalar():
    assert casimir(0) == WeylElement.zero()
    assert casimir(2) == 2
    assert casimir(-1) == F(-1, 4)
    for k in random_rationals(20, seed=7):
        assert casimir(k) == (k / 2) * (k / 2 + 1)


def test_jplus_invariant_degree_for_integer_k():
    spec = jplus(4)
    assert spec.invariant_degree == 4
    assert invariant_degree_scan(spec.element, 8) == (4,)
    assert jplus(F(1, 2)).invariant_degree is None


# -- registry -----------------------------------------------------------------------


def test_catalog_names():
    assert set(CATALOG) == {
        "hermite", "laguerre", "heun", "lame", "sextic",
        "number", "jplus", "jzero", "jminus",
    }
    assert CATALOG["lame"].params == ("m", "d", "n")


def test_build_from_catalog():
    spec = build_from_catalog("lame", {"m": F(2), "d": F(1), "n": F(3)})
    assert spec.element == lame(2, 1, 3).element
    with pytest.raises(KeyError):
        build_from_catalog("laguerre", {})
    with pytest.raises(ValueError):
        build_from_catalog("nonsense", {})


def test_every_qes_entry_passes_the_scan_at_its_degree():
    specs = [
        lame(2, 1, 3),
        sextic(1, 1, 2),
        heun(QESCoeffs(a3=4, b2=6, d1=-2 * 3 * 7), 3),
        jplus(3),
    ]
    for spec in specs:
        assert spec.family is Family.QES
        assert spec.invariant_degree in invariant_degree_scan(spec.element, 8)


def test_qes_fiber_matrices_do_not_depend_on_the_vacuum():
    from fockspec.realizations import complex_fiber_matrix

    specs = [
        lame(2, 1, 3),
        sextic(1, 1, 2),
        heun(QESCoeffs(a3=4, b2=6, d1=-2 * 3 * 7), 3),
        jplus(3),
    ]
    for spec in specs:
        n = spec.invariant_degree
        reference = complex_fiber_matrix(spec.element, 0, n)
        assert not reference.has_leakage
        for m in range(1, 5):
            assert complex_fiber_matrix(spec.element, m, n) == reference


def test_es_entries_diagonal_matches_flag_matrix():
    from fockspec.solvability import es_diagonal

    for spec in (number(), hermite(), laguerre(F(3, 2)), jzero(F(5, 3)), jminus()):
        fm = flag_matrix(spec.element, 12)
        assert not fm.has_leakage
        for k in range(13):
            assert es_diagonal(spec.element, k) == fm.entries[k][k]
