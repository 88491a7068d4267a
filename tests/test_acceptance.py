"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Everything exact is asserted bit-exactly; numeric assertions carry
the stated tolerances.
"""

import io
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from fockspec.catalog import (
    hermite,
    jminus,
    jplus,
    jzero,
    casimir,
    laguerre,
    lame,
    lame_elliptic_invariants,
    number,
    sextic,
    sextic_hamiltonian_coeffs,
)
from fockspec.cli import main as cli_main
from fockspec.opdsl import lower, parse, print_canonical
from fockspec.realizations import (
    ComplexPlane,
    DeltaLattice,
    Differential,
    QLattice,
    complex_fiber_matrix,
)
from fockspec.solvability import (
    QESCoeffs,
    invariant_degree_scan,
    qes_constraint_residuals,
    qes_leakage_residuals,
)
from fockspec.spectra import char_poly, eigenvector, isospectral_check, restrict, roots
from fockspec.weyl import (
    WeylElement, commutator, eval_poly_in_L0, flag_matrix, horner, make, multiply,
)

from schrodinger_oracle import schrodinger_energies

UNIVARIATE = [
    Differential(),
    DeltaLattice(1),
    DeltaLattice(F(1, 3)),
    QLattice(2),
    QLattice(F(1, 2)),
]


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {description}")
        raise
    print(f"[PASS] criterion {num:2d}: {description}")


def test_criterion_01_number_operator():
    with criterion(1, "number operator: diagonal flag and identical fibers"):
        start = time.perf_counter()
        ba = number().element
        fm = flag_matrix(ba, 16)
        assert not fm.has_leakage
        assert fm.diagonal() == tuple(F(k) for k in range(17))
        assert all(
            fm.entries[r][c] == 0 for r in range(17) for c in range(17) if r != c
        )
        fibers = [complex_fiber_matrix(ba, m, 16) for m in range(5)]
        assert all(not f.has_leakage for f in fibers)
        assert all(f.entries == fibers[0].entries for f in fibers[1:])
        assert time.perf_counter() - start < 1.0


def test_criterion_02_hermite():
    with criterion(2, "Hermite: exact 0..12 spectrum, eigenvector, lattices"):
        start = time.perf_counter()
        h = hermite().element
        reference = char_poly(restrict(h, Differential(), 12))
        evs = roots(reference)
        assert [e.exact for e in evs] == [F(k) for k in range(13)]
        (vec,) = eigenvector(
            restrict(h, Differential(), 12), evs[3]
        )
        expected = tuple(
            {1: F(-3), 3: F(1)}.get(d, F(0)) for d in range(13)
        )
        assert vec == expected  # x^3 - 3x, leading coefficient 1
        for r in (DeltaLattice(1), DeltaLattice(F(1, 3)), QLattice(2), QLattice(F(1, 2))):
            assert char_poly(restrict(h, r, 12)) == reference
        assert time.perf_counter() - start < 5.0


def test_criterion_03_laguerre():
    with criterion(3, "Laguerre(3/2): exact 0..10 spectrum and eigenvector"):
        el = laguerre(F(3, 2)).element
        m = restrict(el, Differential(), 10)
        assert [e.exact for e in roots(char_poly(m))] == [F(k) for k in range(11)]
        (vec,) = eigenvector(m, roots(char_poly(m))[1])
        assert vec == (F(-5, 2), F(1)) + (F(0),) * 9  # x - 5/2


def test_criterion_04_polynomials_in_the_number_operator():
    with criterion(4, "P(L0) diagonal equals P(k) for P = 2t^2 - t + 1/3"):
        coeffs = [F(1, 3), F(-1), F(2)]
        element = eval_poly_in_L0(coeffs)
        fm = flag_matrix(element, 10)
        assert not fm.has_leakage
        for k in range(11):
            assert fm.entries[k][k] == 2 * F(k) ** 2 - k + F(1, 3)


def _solved_qes(rng, n):
    a4 = F(rng.randint(-6, 6), rng.randint(1, 4))
    a3 = F(rng.randint(-6, 6), rng.randint(1, 4))
    b2 = F(rng.randint(-6, 6), rng.randint(1, 4))
    b3 = -2 * a4 * (n - 1)
    d2 = -(a4 * n * (n - 1) + b3 * n)
    d1 = -(a3 * n * (n - 1) + b2 * n)
    extras = {
        name: F(rng.randint(-6, 6), rng.randint(1, 4))
        for name in ("a2", "a1", "b1", "b0")
    }
    return QESCoeffs(a4=a4, a3=a3, b3=b3, b2=b2, d2=d2, d1=d1, **extras)


def _random_qes(rng):
    values = {
        name: F(rng.randint(-6, 6), rng.randint(1, 4))
        for name in ("a4", "a3", "a2", "a1", "b3", "b2", "b1", "b0", "d2", "d1")
    }
    return QESCoeffs(**values)


def test_criterion_05_constraints_equal_invariance():
    with criterion(5, "QES overflow residuals decide invariance (50 + 50)"):
        rng = random.Random(20240901)
        satisfied = 0
        while satisfied < 50:
            n = rng.randint(0, 6)
            c = _solved_qes(rng, n)
            scan = invariant_degree_scan(c.element(), max(n + 2, 8))
            # the separated residuals are zero by construction and the
            # classical pair follows; any scan disagreement fails the build
            assert qes_leakage_residuals(c, n) == (0, 0, 0)
            assert qes_constraint_residuals(c, n) == (0, 0)
            assert n in scan
            satisfied += 1
        violated = 0
        while violated < 50:
            n = rng.randint(0, 6)
            c = _random_qes(rng)
            if qes_leakage_residuals(c, n) == (0, 0, 0):
                continue  # accidental satisfier; skip, counted only violators
            assert n not in invariant_degree_scan(c.element(), max(n + 2, 8))
            violated += 1
        # perturbing the linear coefficient of the Lame operator leaks
        n = 3
        good = QESCoeffs(a3=4, b2=6, d1=-2 * n * (2 * n + 1))
        bad = QESCoeffs(a3=4, b2=6, d1=good.d1 + 1)
        assert n in invariant_degree_scan(good.element(), 8)
        fm = flag_matrix(bad.element(), n)
        assert fm.has_leakage
        col = min(fm.leakage)
        assert col == n and fm.leakage[col][n + 1] == 1


def test_criterion_06_lame():
    with criterion(6, "Lame: t^2 - 108, +/-6*sqrt(3), invariants, isospectral"):
        m1 = restrict(lame(2, 1, 1).element, Differential(), 1)
        cp = char_poly(m1)
        assert cp.coeffs == (F(-108), F(0), F(1))
        evs = roots(cp)
        target = 6 * math.sqrt(3)
        assert abs(evs[0].re + target) <= 1e-12
        assert abs(evs[1].re - target) <= 1e-12
        assert lame_elliptic_invariants(2, 1) == (36, 40)
        report = isospectral_check(
            lame(2, 1, 3).element, 3, UNIVARIATE + [ComplexPlane(m) for m in range(5)]
        )
        assert report.all_equal
        assert len(report.entries) == 10
        assert report.entries[0][1].degree == 4


def _eval_complex(cp, z):
    return horner([complex(c) for c in cp.coeffs], z)


def test_criterion_07_sextic():
    with criterion(7, "sextic: t^2 - 8, +/-2*sqrt(2), n=2 isospectral"):
        m1 = restrict(sextic(1, 0, 1).element, Differential(), 1)
        cp = char_poly(m1)
        assert cp.coeffs == (F(-8), F(0), F(1))
        evs = roots(cp)
        target = 2 * math.sqrt(2)
        assert abs(evs[0].re + target) <= 1e-12
        assert abs(evs[1].re - target) <= 1e-12
        assert all(abs(_eval_complex(cp, complex(e.re, e.im))) <= 1e-10 for e in evs)
        report = isospectral_check(sextic(1, 0, 2).element, 2, [*UNIVARIATE, ComplexPlane()])
        assert report.all_equal
        assert report.entries[0][1].degree == 3
        n2 = roots(report.entries[0][1])
        assert all(
            abs(_eval_complex(report.entries[0][1], complex(e.re, e.im))) <= 1e-10
            for e in n2
        )


def _sextic_matrix_by_hand(alpha, beta, n, size):
    """Independent assembly of -4x f'' + 2(2 alpha x^2 + 2 beta x - 1) f' -
    4 alpha n x f on the monomial basis, straight from the calculus."""
    rows = [[F(0)] * (size + 1) for _ in range(size + 1)]
    for k in range(size + 1):
        contributions = {}
        if k >= 1:
            contributions[k - 1] = -4 * F(k) * (k - 1) - 2 * k
            contributions[k] = 4 * beta * k
        if k + 1 <= size:
            contributions[k + 1] = 4 * alpha * k - 4 * alpha * n
        elif 4 * alpha * k - 4 * alpha * n:
            raise AssertionError("hand-built matrix leaks; pick size >= n")
        for row, c in contributions.items():
            rows[row][k] += c
    return rows


def test_criterion_08_sextic_schrodinger_oracle():
    with criterion(8, "sextic vs finite-difference Schrodinger oracle"):
        # brute-force matrix oracle (must always hold, exact)
        for n in (1, 2):
            hand = _sextic_matrix_by_hand(F(1), F(0), n, n)
            assert restrict(sextic(1, 0, n).element, Differential(), n) == hand
        # calibrate the affine map E = s*lambda + t on n = 0: the single
        # algebraic eigenvalue 0 pins the offset, the scale stays 1
        c0 = sextic_hamiltonian_coeffs(1, 0, 0)
        ground = schrodinger_energies(*c0, count=1)[0]
        s, t = 1.0, float(ground)
        assert abs(t) < 1e-3  # the n = 0 bound state sits at zero exactly
        # with the map fixed, the n = 1 pair must match oracle energies
        c1 = sextic_hamiltonian_coeffs(1, 0, 1)
        oracle = schrodinger_energies(*c1, count=12)
        algebraic = roots(char_poly(restrict(sextic(1, 0, 1).element, Differential(), 1)))
        for ev in algebraic:
            predicted = s * ev.re + t
            nearest = min(oracle, key=lambda e: abs(e - predicted))
            assert abs(nearest - predicted) / max(1.0, abs(predicted)) <= 1e-3


def test_criterion_09_sl2_suite():
    with criterion(9, "sl(2): commutators, both raisings, Casimir, 20 random k"):
        start = time.perf_counter()
        rng = random.Random(11)
        ks = [F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(20)]
        b_gen = make(1, 1, 0)
        for k in ks:
            jp, jz, jm = jplus(k).element, jzero(k).element, jminus().element
            assert commutator(jz, jp) == jp
            assert commutator(jz, jm) == -jm
            assert commutator(jp, jm) == -2 * jz
            assert jp == multiply(b_gen, number().element - k)
            assert casimir(k) == (k / 2) * (k / 2 + 1)
        assert time.perf_counter() - start < 1.0


def test_criterion_10_parser_and_cli():
    with criterion(10, "parser round trips, Lame text, CLI byte-stability"):
        rng = random.Random(123)
        for _ in range(200):
            terms = {}
            for _ in range(rng.randint(0, 6)):
                key = (rng.randint(0, 5), rng.randint(0, 5))
                terms[key] = F(rng.randint(-30, 30), rng.randint(1, 12))
            u = WeylElement(terms)
            assert lower(parse(print_canonical(u))) == u
        lame_text = (
            "4*(b^3 - 3*m*b^2 + 3*d*b)*a^2 + 6*(b^2 - 2*m*b + d)*a"
            " - 2*n*(2*n+1)*(b - m)"
        )
        binds = {"m": F(2), "d": F(1), "n": F(3)}
        assert lower(parse(lame_text), binds) == lame(2, 1, 3).element
        for args in (
            ["normal-order", "--expr", "a^2*b^2"],
            ["classify", "--op", "lame", "--bind", "m=2", "--bind", "d=1",
             "--bind", "n=3", "--nmax", "8"],
            ["spectrum", "--op", "sextic", "--bind", "alpha=1",
             "--bind", "beta=0", "--bind", "n=1", "--n", "1"],
        ):
            out1, out2 = io.StringIO(), io.StringIO()
            assert cli_main(args, out=out1) == 0
            assert cli_main(args, out=out2) == 0
            assert out1.getvalue() == out2.getvalue()
            json.loads(out1.getvalue())  # well-formed JSON
