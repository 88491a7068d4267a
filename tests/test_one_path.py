"""Each shared path against the definition it replaced.

The invariant-degree scan and ``first_leakage`` read column degrees off
integer sums over the raising terms in one pass; the per-degree flag
matrices and the per-column ``fock_apply`` scan and witness stay the
reference.  ``add``, ``scale`` and ``multiply`` build their normal form
without re-validation; the public constructor stays the reference.
``multiply`` sums integer numerators over one common denominator; the
``Fraction`` loop stays the reference.
The differential realization is the Fock action itself; the generic
monomial-basis assembly stays the reference.  Powers use square-and-multiply;
the repeated product stays the reference.  Horner keeps the float operation
order of the loop it replaced.  ``Realization.apply`` shares a-powers and
b-chains; the term-by-term action stays the reference.  ``shifted`` is an
integer Taylor shift; the binomial expansion stays the reference.
``FockVector`` keeps integer numerators over one common denominator; the
per-coefficient ``Fraction`` implementation stays the reference.  The
q-lattice reads ``{k}_q`` from a table; ``q_number`` stays the reference.
Each image, fiber residual and leading minor is one linear combination;
the sequential fold stays the reference.  ``BiPoly`` keeps rows of
``FockVector``s; the map of ``Fraction``s, the term-by-term action and the
subtraction loop of the fiber assembly stay the reference.  Root isolation
reads a polynomial's integer numerators; the ``Fraction`` primitive part
stays the reference.  Real roots are isolated by Descartes' rule of signs
on integer Taylor shifts and the gcd is Euclid's on ``divmod``; the integer
Sturm chain, its isolation and its gcd stay the reference, and so does the
bisection that takes a Taylor shift of every part.  Nullspaces come from
sparse column reduction on the lowest nonzero row; row echelon elimination
with back-substitution, and the normalization that followed it in
``eigenvector``, stay the reference; the shift is taken off the diagonal as
a column is read, and the rows of ``restrict`` give their flag matrix's
sparse columns, so the reduction of a dense shifted copy and the rows of a
plain copy stay the reference; entries are reduced integer pairs, and the
``Fraction`` loop stays the reference.  Flag matrices keep integer columns,
the q-lattice acts on integer numerators and ``char_poly`` runs in
integers; the ``Fraction`` rows of the assembly, the ``Fraction`` table of
q-numbers and the ``Fraction`` similarity and recurrence stay the reference.
``isospectral_check`` takes one characteristic polynomial, of the Fock flag
matrix, and reports it for every space whose b-chain passes the Fock-module
check; every space assembled and its own polynomial taken stays the
reference, and mutant realizations must fall back to it or raise.  A real
irrational root prints the float nearest to it: the rounding cell of the
printed float holds exactly one root by the Sturm count.  Real roots are
refined by quadratic interval refinement, evaluating no point twice; the
bisection stays the reference.  Polynomials are evaluated at dyadic points
by shifts; the ``Fraction`` evaluation stays the reference.  A gcd mod
``2^61 - 1`` skips Yun's algorithm on square-free input; Yun's algorithm
stays the reference.  Candidate roots divide out first; ``roots`` without
candidates stays the reference.
"""

import io
import math
import re
from contextlib import ExitStack
from dataclasses import dataclass, fields
from fractions import Fraction as F
from math import comb, factorial, gcd, isqrt, lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from fockspec.catalog import hermite, jplus, laguerre, lame, sextic
from fockspec.realizations import (
    BiPoly,
    ComplexPlane,
    DeltaLattice,
    Differential,
    QLattice,
    Realization,
    SingularBasisError,
    complex_act_a,
    complex_act_b,
    complex_fiber_matrix,
    q_number,
    quasi_monomial_change,
    realize_matrix,
)
from fockspec import cli, solvability
from fockspec.opdsl import lower, parse
from fockspec.solvability import (
    QESCoeffs,
    first_leakage,
    heun_constraint_residual,
    invariant_degree_scan,
    qes_coeffs_of,
    qes_constraint_residuals,
    qes_leakage_residuals,
)
from fockspec import spectra
from fockspec.spectra import (
    CharPoly,
    Eigenvalue,
    LeakageError,
    NonConvergenceError,
    _isolate_real_roots,
    _primitive,
    _value_at,
    char_poly,
    eigenvector,
    isospectral_check,
    nullspace,
    restrict,
    roots,
)
from fockspec.weyl import (
    DegreeOverflowError,
    FlagMatrix,
    FockVector,
    WeylElement,
    add,
    falling,
    flag_matrix,
    fock_apply,
    horner,
    make,
    multiply,
    power,
    scale,
    taylor_shift_one,
)

from exact_matrix import LATTICE_RESTRICTIONS
from strategies import (
    banded_matrices,
    low_rank_matrices,
    nonzero_rationals,
    rationals,
    weyl_elements,
)

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
@example(HERMITE, -1)
@settings(max_examples=120)
def test_scan_equals_per_degree_flag_matrix_leakage(u, n_max):
    if n_max < 0:  # no span to scan, and no flag matrix either
        with pytest.raises(ValueError, match="nonnegative"):
            flag_matrix(u, n_max)
        with pytest.raises(ValueError, match="nonnegative"):
            invariant_degree_scan(u, n_max)
        return
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


def _image_scan(u, n_max):
    found, top = [], -1
    for n in range(n_max + 1):
        top = max(top, fock_apply(u, n).degree)
        if top <= n:
            found.append(n)
    return tuple(found)


def _image_witness(u, n):
    for k in range(n + 1):
        image = fock_apply(u, k)
        if image.degree > n:
            return (k, image.split(n)[1])
    return None


@st.composite
def vanishing_top_excess(draw):
    """A random element plus raising terms of one excess above all of its
    own, whose coefficient sum cancels at a drawn column."""
    e, k0 = draw(st.integers(4, 5)), draw(st.integers(0, 8))
    cs = draw(st.lists(nonzero_rationals(), min_size=1, max_size=3))
    top = {(j + e, j): c for j, c in enumerate(cs, start=1)}
    top[(e, 0)] = -sum(c * falling(k0, j) for j, c in enumerate(cs, start=1))
    return draw(scan_elements()) + WeylElement(top)


#: the top excess 2 vanishes at column 4 and excess 1 does not
VANISHING_TOP = lower(parse("b^3*a - 4*b^2 + b^2*a"), {})


@given(st.one_of(scan_elements(), vanishing_top_excess()), st.integers(0, 12))
@example(VANISHING_TOP, 5)
@example(jplus(4).element, 4)  # b^2*a - 4*b: invariant at 4 only where the excess cancels
@example(WeylElement({(2, 1): F(1, 2), (1, 0): -1}), 2)  # cancels at 2 over the lcm 2
@example(WeylElement({(3, 2): F(1, 3), (2, 1): F(1, 5), (1, 0): F(-16, 15)}), 2)  # lcm 15
@settings(max_examples=200, deadline=None)
def test_scan_and_witness_equal_the_per_column_images(u, n):
    assert invariant_degree_scan(u, n) == _image_scan(u, n)
    assert first_leakage(u, n) == _image_witness(u, n)


def test_scan_builds_no_image_and_a_witness_one():
    with mock.patch.object(solvability, "fock_apply", wraps=fock_apply) as spy:
        assert invariant_degree_scan(VANISHING_TOP, 64) == ()
        assert invariant_degree_scan(HERMITE, 64) == tuple(range(65))
        assert spy.call_count == 0
        assert first_leakage(VANISHING_TOP, 5) == _image_witness(VANISHING_TOP, 5)
        assert spy.call_count == 1
        assert first_leakage(HERMITE, 64) is None
        assert spy.call_count == 1


def _product_terms(u, v):
    for (i1, j1), c1 in u.terms.items():
        for (i2, j2), c2 in v.terms.items():
            for k in range(min(j1, i2) + 1):
                coeff = c1 * c2 * factorial(k) * comb(j1, k) * comb(i2, k)
                yield (i1 + i2 - k, j1 + j2 - k), coeff


@given(weyl_elements(), weyl_elements(), rationals())
@example(WeylElement({(1, 0): 1, (0, 1): 2}), WeylElement({(1, 0): -1}), F(0))
@example(WeylElement({(0, 1): 1}), WeylElement({(1, 0): 1, (0, 0): -1}), F(1))  # a*b - 1 = b*a
@settings(max_examples=200, deadline=None)
def test_normal_form_arithmetic_equals_the_public_constructor(u, v, c):
    for got, ref in (
        (add(u, v), WeylElement([*u.terms.items(), *v.terms.items()])),
        (scale(c, u), WeylElement({key: c * x for key, x in u.terms.items()})),
        (multiply(u, v), WeylElement(list(_product_terms(u, v)))),
    ):
        # the same terms in the same order, so actions still raise at the same term
        assert list(got.terms.items()) == list(ref.terms.items())
        assert all(got.terms.values())


def _fraction_multiply(u, v, cap):
    """The product loop in ``Fraction`` arithmetic that the integer one replaced."""
    acc = {}
    for (i1, j1), c1 in u.terms.items():
        for (i2, j2), c2 in v.terms.items():
            if i1 + i2 > cap:
                raise DegreeOverflowError(i1 + i2, cap)
            if j1 + j2 > cap:
                raise DegreeOverflowError(j1 + j2, cap)
            c12 = c1 * c2
            kfact = 1
            for k in range(min(j1, i2) + 1):
                if k:
                    kfact *= k
                coeff = c12 * (kfact * comb(j1, k) * comb(i2, k))
                key = (i1 + i2 - k, j1 + j2 - k)
                acc[key] = acc.get(key, F(0)) + coeff
    return WeylElement._of(acc)


def wide_weyl_elements(max_degree=5, max_terms=5):
    """Elements whose coefficients are small or have numerators and
    denominators of up to 30 digits."""
    coeff = st.one_of(rationals(), rationals(10**30, 10**30), st.builds(F, st.integers(-99, 99)))
    term = st.tuples(st.tuples(st.integers(0, max_degree), st.integers(0, max_degree)), coeff)
    return st.builds(WeylElement, st.lists(term, max_size=max_terms))


@given(wide_weyl_elements(), wide_weyl_elements(), st.sampled_from([3, 6, 64]))
@example(WeylElement({(0, 1): F(1, 3)}), WeylElement({(1, 0): F(3, 1)}), 64)  # a*b: 1/3 * 3
@example(WeylElement({(0, 1): 1, (1, 0): 1}), WeylElement({(0, 1): -1, (1, 0): 1}), 64)
@example(WeylElement({(2, 5): F(10**30 + 1, 7), (4, 1): F(-2, 10**29)}),
         WeylElement({(3, 2): F(7, 3), (1, 4): F(5, 10**30 + 1)}), 6)
@settings(max_examples=300, deadline=None)
def test_integer_product_equals_the_fraction_loop(u, v, cap):
    try:
        expected = _fraction_multiply(u, v, cap)
    except DegreeOverflowError as e:
        with pytest.raises(DegreeOverflowError) as got:
            multiply(u, v, cap)
        assert (got.value.exponent, got.value.cap) == (e.exponent, e.cap)
        return
    got = multiply(u, v, cap)
    # the same terms in the same order, reduced over positive denominators
    assert list(got._terms.items()) == list(expected._terms.items())
    assert all(type(c) is F and c.denominator > 0 for c in got._terms.values())
    assert all(gcd(c.numerator, c.denominator) == 1 for c in got._terms.values())


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
        acc = 0j  # the float operation order of the complex residual in ``roots``
        for c in reversed(cp.coeffs):
            acc = acc * z + complex(c)
        assert horner([complex(c) for c in cp.coeffs], z) == acc
        assert cp(F(k, 3)) == sum(c * F(k, 3) ** d for d, c in enumerate(cp.coeffs))
    # Horner starts from the integer 0; a rational value is still a Fraction
    assert all(type(FockVector(c)(F(1, 3))) is F for c in ([], [F(0)], [F(2)], [F(1, 2), F(3)]))


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
    st.builds(ComplexPlane, st.integers(0, 3)),
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


# -- integer numerators over one common denominator --------------------------------


@dataclass(frozen=True)
class _FractionVector:
    """The per-coefficient ``Fraction`` implementation of ``FockVector`` that
    the integer numerators over one denominator replaced."""

    coeffs: tuple = ()

    def __post_init__(self):
        cs = tuple(F(c) for c in self.coeffs)
        while cs and not cs[-1]:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else F(0)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return _FractionVector(tuple(self[k] + other[k] for k in range(n)))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = F(c)
        if not c:
            return _FractionVector()
        return _FractionVector(tuple(c * v for v in self.coeffs))

    def monic(self):
        lead = self.coeffs[-1]
        return _FractionVector(tuple(c / lead for c in self.coeffs))

    def __divmod__(self, den):
        num, d = list(self.coeffs), den.coeffs
        q = [F(0)] * max(len(num) - len(d) + 1, 0)
        inv = 1 / d[-1]
        for shift in range(len(num) - len(d), -1, -1):
            f = q[shift] = num[shift + len(d) - 1] * inv
            if f:
                for i, c in enumerate(d):
                    num[shift + i] -= f * c
        return _FractionVector(tuple(q)), _FractionVector(tuple(num))

    def times_x(self):
        if not self.coeffs:
            return self
        return _FractionVector((F(0),) + self.coeffs)

    def derivative(self):
        return _FractionVector(tuple(d * c for d, c in enumerate(self.coeffs))[1:])

    def shifted(self, h):
        h = F(h)
        if not h or not self.coeffs:
            return self
        s, t, n = h.numerator, h.denominator, len(self.coeffs) - 1
        den = lcm(*(c.denominator for c in self.coeffs))
        scales = [s**d * t ** (n - d) for d in range(n + 1)]
        q = [den // c.denominator * c.numerator * w for c, w in zip(self.coeffs, scales)]
        for i in range(n):
            for k in range(n - 1, i - 1, -1):
                q[k] += q[k + 1]
        return _FractionVector(tuple(F(v, den * w) for v, w in zip(q, scales)))

    def split(self, n):
        above = self.coeffs[n + 1:]
        leak = _FractionVector((F(0),) * (n + 1) + above) if above else _FractionVector()
        return self.coeffs[:n + 1], leak


def _same(v, ref):
    """``v`` holds the reference's coefficients, in normalized numerators
    over a positive denominator, and compares, hashes and prints like a
    vector built from those coefficients."""
    assert type(v) is FockVector and v.coeffs == ref.coeffs
    assert all(type(c) is F for c in v.coeffs)
    nums, den = v._nums, v._den
    assert den > 0 and gcd(den, *nums) == 1 and (not nums or nums[-1])
    assert tuple(F(x, den) for x in nums) == ref.coeffs
    built = FockVector(ref.coeffs)
    assert v == built and hash(v) == hash(built) and repr(v) == repr(built)
    assert v.degree == len(ref.coeffs) - 1 and v.is_zero == (not ref.coeffs)


def _vector(coeffs, integer_backed):
    """The vector of ``coeffs``, as built from rationals or as the result of
    integer arithmetic."""
    v = FockVector(coeffs)
    return v.scale(1) if integer_backed else v


big_rationals = st.one_of(st.just(F(0)), rationals(10**6, 10**6))
coefficient_lists = st.lists(big_rationals, max_size=8)


@given(coefficient_lists, coefficient_lists, big_rationals, st.booleans(), st.booleans())
@example([F(1, 3), F(-5, 999999)], [F(1, 3), F(-5, 999999)], F(0), True, False)  # p - p
@example([F(1, 6), F(1, 10)], [F(-1, 6), F(1, 15)], F(10**6), False, True)  # den 30 -> 15
@settings(max_examples=300, deadline=None)
def test_integer_vector_arithmetic_equals_fractions(a, b, c, int_a, int_b):
    p, q = _vector(a, int_a), _vector(b, int_b)
    rp, rq = _FractionVector(tuple(a)), _FractionVector(tuple(b))
    _same(p + q, rp + rq)
    _same(p - q, rp - rq)
    _same(p - p, rp - rp)
    _same(-p, -rp)
    _same(p.scale(c), rp.scale(c))
    _same(p.scale(0), rp.scale(0))
    _same(p.times_x(), rp.times_x())
    _same(p.derivative(), rp.derivative())
    assert (p == q) == (rp == rq)
    if rp.coeffs:
        _same(p.monic(), rp.monic())
    if rq.coeffs:
        for got, want in zip(divmod(p, q), divmod(rp, rq)):
            _same(got, want)
    for n in range(-1, len(a) + 1):
        coords, leak = p.split(n)
        want_coords, want_leak = rp.split(n)
        assert coords == want_coords
        _same(leak, want_leak)
    assert p(c) == sum(v * c**d for d, v in enumerate(rp.coeffs))
    assert [p[k] for k in range(-1, len(a) + 1)] == [rp[k] for k in range(-1, len(a) + 1)]


@given(coefficient_lists, big_rationals, st.booleans())
@example([], F(-7, 2), True)
@example([F(1, 3), F(0), F(-5, 999999)], F(-1, 10**6), True)
@settings(max_examples=200, deadline=None)
def test_integer_vector_shift_equals_fractions(a, h, integer_backed):
    p, ref = _vector(a, integer_backed), _FractionVector(tuple(a))
    _same(p.shifted(h), ref.shifted(h))
    _same(p.shifted(-h), ref.shifted(-h))
    _same(p.shifted(h).shifted(-h), ref)


def test_integer_vector_keeps_the_errors():
    with pytest.raises(IndexError):
        FockVector().monic()
    with pytest.raises(IndexError):
        divmod(FockVector((1, 2)), FockVector())
    # only vectors of one type compare equal, as before
    cp = char_poly([[F(1, 2)]])
    assert cp != FockVector(cp.coeffs) and FockVector(cp.coeffs) != cp
    assert cp.scale(1) == FockVector(cp.coeffs)


# -- q-numbers ---------------------------------------------------------------------


@given(st.one_of(st.just(F(-1)), nonzero_rationals().filter(lambda q: q != 1)), coefficient_lists)
@settings(max_examples=150, deadline=None)
def test_q_lattice_table_equals_the_horner_q_numbers(q, coeffs):
    """The lattice actions read ``{k}_q`` from a table; per coefficient,
    ``q_number`` stays the definition, and a vanishing ``{n+1}_q`` raises at
    the lowest nonzero coefficient it meets."""
    r, p = QLattice(q), FockVector(coeffs)
    lowered = [c * q_number(n, q) for n, c in enumerate(p.coeffs)][1:]
    assert r.act_a(p) == FockVector(lowered)
    undefined = [n for n, c in enumerate(p.coeffs) if c and not q_number(n + 1, q)]
    if undefined:
        with pytest.raises(ValueError, match=re.escape(f"{{{undefined[0] + 1}}}_q = 0")):
            r.act_b(p)
    else:
        raised = [F(0)] + [c and c * (n + 1) / q_number(n + 1, q) for n, c in enumerate(p.coeffs)]
        assert r.act_b(p) == FockVector(raised)


# -- one linear combination per image --------------------------------------------


def _fold(pairs):
    """The sequential ``total + v.scale(c)`` fold that ``combination`` replaced."""
    total = FockVector()
    for v, c in pairs:
        total = total + v.scale(c)
    return total


@st.composite
def combination_pairs(draw):
    """``(vector, coefficient)`` pairs, some repeated with the coefficient
    that cancels them."""
    pairs = [
        (_vector(draw(coefficient_lists), draw(st.booleans())), draw(big_rationals))
        for _ in range(draw(st.integers(0, 5)))
    ]
    for v, c in list(pairs):
        if draw(st.booleans()):
            pairs.append((v.scale(2), -c / 2))
    return draw(st.permutations(pairs))


@given(combination_pairs())
@example([])
@example([(FockVector((F(1, 3), F(-5, 999999))), F(0))])
@example([(FockVector((F(1, 6), F(1, 10))), 1), (FockVector((F(-1, 6), F(1, 15))), 1)])
@example([(FockVector((F(1, 3), 2)), F(7, 10**6)), (FockVector((F(1, 3), 2)).scale(F(7, 10**6)), -1)])
@settings(max_examples=300, deadline=None)
def test_combination_equals_the_sequential_fold(pairs):
    reference = _FractionVector()
    for v, c in pairs:
        reference = reference + _FractionVector(v.coeffs).scale(c)
    _same(FockVector.combination(pairs), reference)
    assert FockVector.combination(pairs) == _fold(pairs)


class _DictBiPoly:
    """The map from ``(z-exp, zbar-exp)`` to ``Fraction`` that the rows of
    ``BiPoly`` replaced."""

    def __init__(self, terms=None):
        acc = {}
        items = terms.items() if isinstance(terms, dict) else (terms or ())
        for (i, j), c in items:
            i, j = int(i), int(j)
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent ({i}, {j})")
            c = F(c)
            if c:
                acc[(i, j)] = acc.get((i, j), F(0)) + c
        self._terms = {k: v for k, v in acc.items() if v}

    @property
    def is_zero(self):
        return not self._terms

    def coeff(self, p, q):
        return self._terms.get((p, q), F(0))

    def __add__(self, other):
        return _DictBiPoly([*self._terms.items(), *other._terms.items()])

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = F(c)
        return _DictBiPoly({key: c * v for key, v in self._terms.items()})

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if self.is_zero:
            return "BiPoly(0)"
        body = " + ".join(f"{c}*z^{p}*zbar^{q}" for (p, q), c in sorted(self._terms.items()))
        return f"BiPoly({body})"

    def act_a(self):
        return _DictBiPoly({(p, q - 1): q * c for (p, q), c in self._terms.items() if q})

    def act_b(self):
        return _DictBiPoly(
            [((p - 1, q), -p * c) for (p, q), c in self._terms.items() if p]
            + [((p, q + 1), c) for (p, q), c in self._terms.items()]
        )


def _same_bipoly(f, ref):
    """``f`` holds the reference's terms and reads, hashes and prints like it."""
    assert type(f) is BiPoly
    assert dict(f.terms) == ref._terms and all(type(c) is F for c in f.terms.values())
    assert f.is_zero == ref.is_zero and hash(f) == hash(ref) and repr(f) == repr(ref)
    assert f == BiPoly(ref._terms) and hash(f) == hash(BiPoly(ref._terms))
    assert all(f.coeff(p, q) == ref.coeff(p, q) for p in range(-1, 7) for q in range(-1, 9))
    assert not f._rows or not f._rows[-1].is_zero


# rows 0..5 with gaps; a term and its negation leave a zero row
bipoly_terms = st.lists(
    st.tuples(st.tuples(st.integers(0, 5), st.integers(0, 6)), big_rationals), max_size=8
).flatmap(lambda ts: st.just(ts + [(k, -c) for k, c in ts[:2]]) | st.just(ts))


@given(bipoly_terms, bipoly_terms, big_rationals)
@example([((3, 1), F(1, 2)), ((1, 0), 4), ((3, 1), F(-1, 2))], [((0, 2), F(0))], F(-3, 7))
@settings(max_examples=300, deadline=None)
def test_row_bipoly_equals_the_dict_bipoly(a, b, c):
    f, g, rf, rg = BiPoly(a), BiPoly(dict(b)), _DictBiPoly(a), _DictBiPoly(dict(b))
    _same_bipoly(f, rf)
    _same_bipoly(g, rg)
    _same_bipoly(f + g, rf + rg)
    _same_bipoly(f - g, rf - rg)
    _same_bipoly(f - f, rf - rf)
    _same_bipoly(f.scale(c), rf.scale(c))
    _same_bipoly(complex_act_a(f), rf.act_a())
    _same_bipoly(complex_act_b(f), rf.act_b())
    _same_bipoly(complex_act_b(complex_act_b(g)), rg.act_b().act_b())
    _same_bipoly(BiPoly.combination([(f, c), (g, -1), (f, 1)]), rf.scale(c) - rg + rf)
    assert (f == g) == (rf._terms == rg._terms)
    assert BiPoly.monomial(2, 3, c) == BiPoly({(2, 3): c})


def test_row_bipoly_keeps_the_errors():
    for bad in ({(-1, 0): 1}, [((0, -2), 0)]):
        with pytest.raises(ValueError, match=re.escape("negative exponent")):
            BiPoly(bad)
    with pytest.raises(TypeError):
        BiPoly({(0, 0): 1.5})
    with pytest.raises(TypeError):
        BiPoly.monomial(0, 0).terms[(0, 0)] = 2
    assert BiPoly() == BiPoly([]) == BiPoly.combination([]) and repr(BiPoly()) == "BiPoly(0)"


def _subtraction_fiber_matrix(u, m, n_max):
    """The fiber assembly the row-backed one replaced: dict ``BiPoly``s, the
    term-by-term action and one subtraction per coordinate, highest first."""
    size = n_max + 1
    basis = [_DictBiPoly({(m, 0): 1})]
    for _ in range(n_max):
        basis.append(basis[-1].act_b())
    columns = []
    for k in range(size):
        w = _DictBiPoly()
        for (i, j), c in u.terms.items():
            v = basis[k]
            for _ in range(j):
                v = v.act_a()
            for _ in range(i):
                v = v.act_b()
            w = w + v.scale(c)
        coords = [F(0)] * size
        for r in range(n_max, -1, -1):
            coords[r] = w.coeff(m, r)
            if coords[r]:
                w = w - basis[r].scale(coords[r])
        columns.append((coords, w))
    return columns


@given(scan_elements(), st.integers(0, 3), st.integers(0, 6))
@example(WeylElement({(2, 1): F(1, 3), (1, 0): 1}), 2, 2)  # leaks in every row
@settings(max_examples=150, deadline=None)
def test_fiber_matrix_equals_the_subtraction_loop(u, m, n):
    fm = complex_fiber_matrix(u, m, n)
    expected = _subtraction_fiber_matrix(u, m, n)
    assert fm.entries == tuple(tuple(col[r] for col, _ in expected) for r in range(n + 1))
    leakage = {k: leak for k, (_, leak) in enumerate(expected) if not leak.is_zero}
    assert sorted(fm.leakage) == sorted(leakage)
    for k, leak in leakage.items():
        _same_bipoly(fm.leakage[k], leak)


def _sequential_char_poly(m):
    """The leading-minor recurrence with one subtraction per term, down to
    row 0, that ``char_poly`` replaced, on a matrix already in Hessenberg
    form (where ``char_poly``'s reduction changes nothing)."""
    n = len(m)
    minors = [FockVector.one()]
    for k in range(n):
        p = minors[k].times_x() - minors[k].scale(m[k][k])
        chain = F(1)
        for i in range(k - 1, -1, -1):
            chain *= m[i + 1][i]
            if not chain:
                break
            if m[i][k]:
                p = p - minors[i].scale(m[i][k] * chain)
        minors.append(p)
    return minors[n].coeffs


@given(banded_matrices(max_size=8, max_bandwidth=1))
@settings(max_examples=200, deadline=None)
def test_char_poly_minors_equal_the_sequential_recurrence(m):
    hessenberg = [[x if i - j <= 1 else F(0) for j, x in enumerate(row)] for i, row in enumerate(m)]
    assert char_poly(hessenberg).coeffs == _sequential_char_poly(hessenberg)


# -- integer flag matrices and characteristic polynomials --------------------------


def _fraction_char_poly(m):
    """The ``char_poly`` that the integer recurrence replaced: every entry
    copied to a ``Fraction``, a rational similarity to Hessenberg form and
    the leading-minor recurrence with ``Fraction`` chain products."""
    n = len(m)
    h = [[F(x) for x in row] for row in m]
    for s in range(1, n - 1):
        pivot = next((i for i in range(s, n) if h[i][s - 1]), None)
        if pivot is None:
            continue
        h[s], h[pivot] = h[pivot], h[s]
        for row in h:
            row[s], row[pivot] = row[pivot], row[s]
        for i in range(s + 1, n):
            if h[i][s - 1]:
                f = h[i][s - 1] / h[s][s - 1]
                h[i] = [x - f * y for x, y in zip(h[i], h[s])]
                for row in h:
                    row[s] += f * row[i]
    minors = [FockVector.one()]
    for k in range(n):
        parts = [(minors[k].times_x(), 1), (minors[k], -h[k][k])]
        top, chain = next((i for i in range(k) if h[i][k]), k), F(1)
        for i in range(k - 1, top - 1, -1):
            chain *= h[i + 1][i]
            if not chain:
                break
            if h[i][k]:
                parts.append((minors[i], -h[i][k] * chain))
        minors.append(FockVector.combination(parts))
    return minors[n].coeffs


#: numerators and denominators up to 2^64
huge_rationals = st.builds(F, st.integers(-(2**64), 2**64), st.integers(1, 2**64))


@st.composite
def char_poly_matrices(draw):
    """Hessenberg, triangular, split (a zero subdiagonal entry) or wider
    band matrices; in the last a column often has a zero subdiagonal entry
    over a nonzero one, which the similarity swaps up.  Entries are small
    or have numerators and denominators up to 2^64."""
    n = draw(st.integers(0, 7))
    entry = st.one_of(st.just(F(0)), rationals(), huge_rationals)
    shape = draw(st.sampled_from(["hessenberg", "triangular", "split", "band"]))
    band = {"triangular": 0, "band": draw(st.integers(2, max(n, 2)))}.get(shape, 1)
    m = [[draw(entry) if i - j <= band else F(0) for j in range(n)] for i in range(n)]
    if shape == "split" and n > 1:
        for i in draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=2)):
            m[i][i - 1] = F(0)
    if shape == "band" and n > 2:
        j = draw(st.integers(0, n - 3))
        m[j + 1][j] = F(0)
        below = st.one_of(nonzero_rationals(), huge_rationals)
        m[draw(st.integers(j + 2, n - 1))][j] = draw(below)
    return m


def _flag(m):
    """``m`` as a flag matrix of integer columns with no leakage."""
    return FlagMatrix.from_columns([(FockVector(col), FockVector()) for col in zip(*m)])


def _refuse_fraction_arithmetic(stack):
    """Patch ``Fraction`` on ``stack`` so that any arithmetic raises."""
    def refuse(*args):
        raise AssertionError("Fraction arithmetic")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__"):
        stack.enter_context(mock.patch.object(F, name, refuse))


@given(char_poly_matrices())
@example([[F(1), F(2), F(3)], [F(0), F(5), F(6)], [F(7), F(8), F(10)]])  # swap, then clear
@example([[F(2**64, 3), F(1, 2**64)], [F(-(2**64) + 1, 2**63), F(0)]])
@settings(max_examples=200, deadline=2000)
def test_integer_char_poly_equals_the_fraction_similarity(m):
    expected = _fraction_char_poly(m)
    cp = char_poly(m)
    assert type(cp) is CharPoly and cp == CharPoly(expected)
    fm = _flag(m)
    with ExitStack() as stack:
        # no Fraction arithmetic touches a matrix that is already Hessenberg
        if all(not x for i, row in enumerate(m) for x in row[:max(i - 1, 0)]):
            _refuse_fraction_arithmetic(stack)
        from_columns = char_poly(fm)
    assert from_columns == cp


class _TableQLattice:
    """The q-lattice actions that the integer ones replaced: ``{k}_q`` from
    a ``Fraction`` table, one ``Fraction`` per coefficient."""

    def __init__(self, q):
        self.q, self.table = q, [F(0)]

    def _q_table(self, n):
        while len(self.table) <= n:
            self.table.append(self.table[-1] * self.q + 1)
        return self.table

    def act_a(self, p):
        qn = self._q_table(p.degree)
        out = [F(0)] * max(len(p.coeffs) - 1, 0)
        for n, c in enumerate(p.coeffs):
            if n and c:
                out[n - 1] = c * qn[n]
        return FockVector(tuple(out))

    def act_b(self, p):
        qn = self._q_table(p.degree + 1)
        out = [F(0)] * (len(p.coeffs) + 1)
        for n, c in enumerate(p.coeffs):
            if not c:
                continue
            if not qn[n + 1]:
                raise ValueError(f"raising action undefined: {{{n + 1}}}_q = 0 for q = {self.q}")
            out[n + 1] = c * (n + 1) / qn[n + 1]
        return FockVector(tuple(out))


#: q below -1, equal to -1, or of large height
wide_qs = st.one_of(
    st.just(F(-1)),
    st.builds(F, st.integers(-(2**64), -2), st.integers(1, 9)),
    huge_rationals.filter(lambda q: q not in (0, 1)),
    nonzero_rationals().filter(lambda q: q != 1),
)


@given(wide_qs, st.lists(st.one_of(st.just(F(0)), huge_rationals), max_size=8))
@example(F(-1), [F(0), F(3, 2)])  # {2}_q = 0 met by x^1
@example(F(2**64 + 1, 2**64), [F(1, 3)] * 8)
@settings(max_examples=200, deadline=2000)
def test_integer_q_actions_equal_the_fraction_table(q, coeffs):
    r, ref, p = QLattice(q), _TableQLattice(q), FockVector(coeffs)
    _same(r.act_a(p), ref.act_a(p))
    try:
        expected = ref.act_b(p)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            r.act_b(p)
    else:
        _same(r.act_b(p), expected)


def _fraction_flag_matrix(u, r, n):
    """The assembly that the integer columns replaced: per column the
    term-by-term image (the ``Fraction`` table actions on a q-lattice, the
    subtraction loop on a complex fiber), written into rows of
    ``Fraction``s.  Returns the rows and the leakage map."""
    if isinstance(r, ComplexPlane):
        columns = _subtraction_fiber_matrix(u, r.m, n)
    else:
        acts = _TableQLattice(r.q) if isinstance(r, QLattice) else r
        columns = [_per_term_apply(acts, u, FockVector.basis(k)).split(n) for k in range(n + 1)]
    rows = [[F(0)] * (n + 1) for _ in range(n + 1)]
    for k, (coords, _) in enumerate(columns):
        for i, c in enumerate(coords):
            rows[i][k] = c
    leakage = {k: leak for k, (_, leak) in enumerate(columns) if not leak.is_zero}
    return tuple(map(tuple, rows)), leakage


all_realizations = st.one_of(
    st.just(Differential()),
    st.builds(DeltaLattice, st.one_of(nonzero_rationals(), huge_rationals.filter(bool))),
    st.builds(QLattice, wide_qs),
    st.builds(ComplexPlane, st.integers(0, 3)),
)


@given(weyl_elements(max_degree=3, max_terms=4), all_realizations, st.integers(0, 5))
@example(HERMITE, QLattice(-1), 1)
@example(HERMITE, QLattice(-1), 2)
@example(jplus(3).element, QLattice(F(2**64 + 1, 2**64)), 3)
@settings(max_examples=150, deadline=3000)
def test_integer_flag_matrix_equals_the_fraction_assembly(u, r, n):
    vanishing = [k for k in range(1, n + 1) if isinstance(r, QLattice) and not q_number(k, r.q)]
    if vanishing:  # the span is refused before any action
        with pytest.raises(ValueError, match=re.escape(f"{{{vanishing[0]}}}_q = 0")):
            realize_matrix(u, r, n)
        return
    try:
        rows, leakage = _fraction_flag_matrix(u, r, n)
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            realize_matrix(u, r, n)
        return
    fm = realize_matrix(u, r, n)
    assert fm.entries == rows and all(type(x) is F for row in fm.entries for x in row)
    assert sorted(fm.leakage) == sorted(leakage)
    for k, leak in leakage.items():
        if isinstance(r, ComplexPlane):
            _same_bipoly(fm.leakage[k], leak)
        else:
            _same(fm.leakage[k], _FractionVector(leak.coeffs))
    assert char_poly(fm).coeffs == _fraction_char_poly(rows)


def _fraction_primitive(coeffs):
    """The ``Fraction``-based primitive part that ``_primitive`` of the
    numerators replaced."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = gcd(*ints)
    return [c // g for c in ints]


@given(coefficient_lists, st.booleans())
@settings(max_examples=200, deadline=None)
def test_primitive_of_numerators_equals_the_fraction_primitive(coeffs, integer_backed):
    p = _vector(coeffs, integer_backed)
    assert _primitive(p.numerators) == _fraction_primitive(p.coeffs)


# -- real root isolation -----------------------------------------------------------


def _sturm_chain(a, b):
    """``a``, ``b`` and their negated remainders down to ``gcd(a, b)``: the
    Sturm chain of ``a`` when ``b = a'``, each remainder made primitive."""
    chain = [a, b]
    while len(chain[-1]) > 1:
        rem, div = list(chain[-2]), chain[-1]
        lead, steps = div[-1], len(rem) - len(div) + 1
        for shift in range(steps - 1, -1, -1):
            f = rem[shift + len(div) - 1]
            rem = [lead * c for c in rem]
            for i, d in enumerate(div):
                rem[shift + i] -= f * d
        del rem[len(div) - 1:]
        while rem and not rem[-1]:
            rem.pop()
        if not rem:
            break
        flip = -1 if lead < 0 and steps % 2 else 1
        chain.append(_primitive([-flip * c for c in rem]))
    return chain


def _sign_at(p, num, den):
    v = _value_at(p, num, den)
    return (v > 0) - (v < 0)


def _variations(chain, num, den):
    """Sign variations of the chain at ``num/den``, and whether that point
    is a root of ``chain[0]``."""
    signs = [_sign_at(p, num, den) for p in chain]
    nonzero = [s for s in signs if s]
    return sum(s1 != s2 for s1, s2 in zip(nonzero, nonzero[1:])), not signs[0]


def _sturm_isolate(p):
    """The Sturm bisection that Descartes bisection replaced: ``V(lo) -
    V(hi)`` counts the roots in ``(lo, hi]``; a bisection point that is a
    root is recorded and not counted again in its left half."""
    chain = _sturm_chain(p, _primitive([d * c for d, c in enumerate(p)][1:]))
    bound = 2 << max([0] + [
        -((p[-1].bit_length() - abs(c).bit_length() - 1) // (len(p) - 1 - i))
        for i, c in enumerate(p[:-1]) if c
    ])
    hits, intervals = [], []
    (vlo, _), (vhi, _) = _variations(chain, -bound, 1), _variations(chain, bound, 1)
    stack = [(-bound, bound, 0, vlo, vhi, False)]
    while stack:
        a, b, k, va, vb, b_is_root = stack.pop()
        count = va - vb - b_is_root
        if count <= 0:
            continue
        if count == 1:
            intervals.append((a, b, k))
            continue
        mid, k = a + b, k + 1
        vmid, mid_is_root = _variations(chain, mid, 1 << k)
        if mid_is_root:
            hits.append(F(mid, 1 << k))
        stack.append((2 * a, mid, k, va, vmid, mid_is_root))
        stack.append((mid, 2 * b, k, vmid, vb, b_is_root))
    return hits, intervals


def _sturm_gcd(a, b):
    """Monic gcd as the last member of the Sturm remainder sequence."""
    if b.is_zero:
        return a.monic()
    return FockVector(_sturm_chain(_primitive(a.numerators), _primitive(b.numerators))[-1]).monic()


def _roots_in(p, lo_num, hi_num, k):
    """Exact count of the roots of ``p`` in the open ``(lo/2^k, hi/2^k)``."""
    chain = _sturm_chain(p, _primitive([d * c for d, c in enumerate(p)][1:]))
    v_lo, _ = _variations(chain, lo_num, 1 << k)
    v_hi, hi_is_root = _variations(chain, hi_num, 1 << k)
    return v_lo - v_hi - hi_is_root


def _times(coeffs, factor):
    out = [F(0)] * (len(coeffs) + len(factor) - 1)
    for i, c in enumerate(coeffs):
        for j, f in enumerate(factor):
            out[i + j] += c * f
    return out


#: roots at bisection points: 0, +-1/2 and +-2^j are midpoints of the
#: dyadic parts of (-bound, bound) once bound exceeds them
dyadic_roots = st.sampled_from(
    [F(0), F(1, 2), F(-1, 2)] + [F(s * 2**j) for j in range(-3, 6) for s in (1, -1)]
)


def _irreducible(b, c):
    """Whether ``x^2 + b x + c`` has no rational root."""
    disc = b * b - 4 * c
    if disc < 0:
        return True
    n, d = disc.numerator, disc.denominator
    return isqrt(n) ** 2 != n or isqrt(d) ** 2 != d


@st.composite
def real_root_products(draw, max_mult=1):
    """Products of distinct rational linear factors and distinct irreducible
    quadratics (real surd pairs or complex pairs), each to a multiplicity up
    to ``max_mult``: square-free when that is 1."""
    linear = draw(st.lists(st.one_of(dyadic_roots, rationals(99, 16)), max_size=5, unique=True))
    quadratic = draw(st.lists(
        st.tuples(rationals(9, 4), rationals(9, 4)).filter(lambda bc: _irreducible(*bc)),
        max_size=3, unique=True,
    ))
    coeffs = [F(1)]
    for factor in [(-r, 1) for r in linear] + [(c, b, 1) for b, c in quadratic]:
        for _ in range(draw(st.integers(1, max_mult))):
            coeffs = _times(coeffs, factor)
    return coeffs


@given(real_root_products().filter(lambda c: len(c) > 1))
@example([F(0), F(1), F(0), F(1)])  # x^3 + x: 0 is a hit here, an interval for Sturm
@example(_times(_times([F(0), F(1)], [F(-1, 2), F(1)]), [F(1, 2), F(1)]))  # 0 and +-1/2
@example(_times([F(-2), F(0), F(1)], [F(-32), F(1)]))  # +-sqrt 2 and 32
@settings(max_examples=250, deadline=None)
def test_descartes_isolation_refines_the_sturm_isolation(coeffs):
    p = _primitive(FockVector(tuple(coeffs)).numerators)
    hits, intervals = _isolate_real_roots(p)
    ref_hits, ref_intervals = _sturm_isolate(p)
    # Descartes counts bound Sturm counts, so its bisection tree contains
    # Sturm's: every Sturm hit is a hit, and a Sturm interval may end in a
    # hit or a deeper dyadic interval, never in more than one root
    assert set(ref_hits) <= set(hits) and len(hits) == len(set(hits))
    assert len(hits) + len(intervals) == len(ref_hits) + len(ref_intervals)
    assert all(not _sign_at(p, h.numerator, h.denominator) for h in hits)
    for a, b, k in intervals:
        assert _roots_in(p, a, b, k) == 1
        assert any(ra << k <= a << rk and b << rk <= rb << k for ra, rb, rk in ref_intervals)
        assert not any(a < h * (1 << k) < b for h in hits)
    assert sorted(intervals) == sorted(set(intervals))


def _unpruned_isolate(p):
    """Descartes bisection as it was before parts whose ``q`` has no sign
    variation were dropped: every part pays the Taylor shift of its test."""
    bound = 2 << max([0] + [
        -((p[-1].bit_length() - abs(c).bit_length() - 1) // (len(p) - 1 - i))
        for i, c in enumerate(p[:-1]) if c
    ])
    hits, intervals = [], []
    shifted = taylor_shift_one([c * (-bound) ** i for i, c in enumerate(p)])
    stack = [([c * (-2) ** i for i, c in enumerate(shifted)], 0, 0)]
    while stack:
        q, c, k = stack.pop()
        signs = [x > 0 for x in taylor_shift_one(q[::-1]) if x]
        count = sum(s1 != s2 for s1, s2 in zip(signs, signs[1:]))
        if not count:
            continue
        a = bound * (2 * c - (1 << k))
        if count == 1:
            intervals.append((a, a + 2 * bound, k))
            continue
        d = len(q) - 1
        left = [x << (d - i) for i, x in enumerate(q)]
        right = taylor_shift_one(left)
        if not right[0]:
            hits.append(F(a + bound, 1 << k))
            del right[0]
        stack.append((left, 2 * c, k + 1))
        stack.append((right, 2 * c + 1, k + 1))
    return hits, intervals


@given(real_root_products().filter(lambda c: len(c) > 1))
@example([F(0), F(1), F(0), F(1)])
@example(_times([F(-2), F(0), F(1)], [F(-32), F(1)]))
@settings(max_examples=250, deadline=None)
def test_pruned_isolation_equals_the_unpruned_bisection(coeffs):
    p = _primitive(FockVector(tuple(coeffs)).numerators)
    assert _isolate_real_roots(p) == _unpruned_isolate(p)


def _outcome(p):
    try:
        return repr(roots(p))
    except NonConvergenceError as err:
        return f"NonConvergenceError({err}, {err.partial!r})"


@given(real_root_products(max_mult=2).filter(lambda c: len(c) > 1))
@example(_times(_times([F(0), F(1), F(0), F(1)], [F(0), F(1)]), [F(-1, 2), F(1)]))
@settings(max_examples=120, deadline=None)
def test_roots_equal_the_sturm_reference(coeffs):
    p = CharPoly(tuple(coeffs))
    with mock.patch.object(spectra, "_isolate_real_roots", _sturm_isolate), \
            mock.patch.object(spectra, "_poly_gcd", _sturm_gcd):
        expected = _outcome(p)
    assert _outcome(p) == expected


def _rounding_cell(x):
    """The open interval of the reals that round to the float ``x`` (ends
    halfway to its neighbours), as numerators over ``2^k``."""
    lo = (F(math.nextafter(x, -math.inf)) + F(x)) / 2
    hi = (F(x) + F(math.nextafter(x, math.inf))) / 2
    k = max(lo.denominator, hi.denominator).bit_length() - 1
    return int(lo * (1 << k)), int(hi * (1 << k)), k


def _assert_real_roots_correctly_rounded(p):
    """Every real irrational root of ``p`` prints a float whose rounding
    cell holds exactly one root of ``p`` (by the Sturm count)."""
    try:
        evs = roots(p)
    except NonConvergenceError:
        return  # no float is printed
    ints = _primitive(p.numerators)
    for ev in evs:
        if not ev.is_exact and not ev.im:
            assert _roots_in(ints, *_rounding_cell(ev.re)) == 1, ev.re


@st.composite
def qes_restrictions(draw):
    """Lame(m, d) or sextic(alpha, beta), whose real eigenvalues are mostly
    irrational, at n <= 16 on one of the four realizations."""
    op = draw(st.sampled_from([lame, sextic]))
    r = draw(st.sampled_from(
        [Differential(), DeltaLattice(F(1, 3)), QLattice(F(1, 2)), ComplexPlane()]
    ))
    n = draw(st.integers(1, 16))
    return restrict(op(draw(rationals()), draw(rationals()), n).element, r, n)


@given(real_root_products().filter(lambda c: len(c) > 1))
@example(_times([F(-2), F(0), F(1)], [F(-32), F(1)]))  # +-sqrt 2 and 32
@settings(max_examples=150, deadline=None)
def test_real_roots_print_the_nearest_float(coeffs):
    _assert_real_roots_correctly_rounded(CharPoly(tuple(coeffs)))


@given(qes_restrictions())
@example(restrict(lame(2, 1, 3).element, Differential(), 3))
@example(restrict(sextic(1, 1, 16).element, QLattice(F(1, 2)), 16))
@settings(max_examples=40, deadline=None)
def test_catalog_real_roots_print_the_nearest_float(m):
    _assert_real_roots_correctly_rounded(char_poly(m))


def _bisection_refine(p, dp, a, b, k, tol):
    """The bisection that quadratic interval refinement replaced, verbatim
    but for the sign reader."""
    lead = p[-1]
    # sign of p just right of lo: of p'(lo) when lo is a recorded root
    left = _sign_at(p, a, 1 << k) or _sign_at(dp, a, 1 << k)
    tol_num, tol_den = F(tol).as_integer_ratio()
    tested = False
    while not (tested and (b - a) * tol_den <= tol_num << k and a / (1 << k) == b / (1 << k)):
        if not tested and (b - a) * lead < 1 << k:
            tested = True
            m = (a * lead >> k) + 1  # the one grid point m/l that can lie inside
            if m << k < b * lead and not _sign_at(p, m, lead):
                return F(m, lead)
            continue
        mid, k = a + b, k + 1
        s = _sign_at(p, mid, 1 << k)
        if not s:
            return F(mid, 1 << k)
        a, b = (mid, 2 * b) if s == left else (2 * a, mid)
    return a, b, k


def _integer_product(factors):
    """The primitive integer polynomial of a product of rational factors."""
    coeffs = [F(1)]
    for factor in factors:
        coeffs = _times(coeffs, factor)
    return _primitive(FockVector(tuple(coeffs)).numerators)


#: rational roots up to height 2^64
high_roots = st.builds(F, st.integers(-(2**64), 2**64), st.integers(1, 2**64))


@st.composite
def planted_root_polynomials(draw):
    """Square-free primitive integer polynomials of degree at least 1:
    distinct rational roots up to height 2^64, with dyadic ones drawn often
    (isolation records those, often at the end of a neighbour's interval),
    times distinct irreducible quadratics (real surd pairs or complex)."""
    linear = draw(st.lists(st.one_of(dyadic_roots, high_roots, rationals(99, 16)),
                           max_size=4, unique=True))
    quadratic = draw(st.lists(
        st.tuples(rationals(9, 4), rationals(9, 4)).filter(lambda bc: _irreducible(*bc)),
        min_size=0 if linear else 1, max_size=2, unique=True,
    ))
    return _integer_product([(-r, 1) for r in linear] + [(c, b, 1) for b, c in quadratic])


#: 0 and 1/2 are recorded roots at both ends of the interval (0, 1/2) of 1/3
ENDS_ARE_ROOTS = _integer_product([(0, 1), (F(-1, 2), 1), (F(-1, 3), 1), (-2, 0, 1)])


@given(planted_root_polynomials(), st.sampled_from([1e-12, 2.0**-20, 1.0]))
@example(ENDS_ARE_ROOTS, 1e-12)
@example(_integer_product([(F(-(2**64 - 1), 2**64 - 59), 1), (-2, 0, 1)]), 1e-12)
@settings(max_examples=200, deadline=None)
def test_quadratic_refinement_equals_the_bisection(p, tol):
    # the same rational root or the same float, and no point evaluated twice
    dp = [d * c for d, c in enumerate(p)][1:]
    points = []

    def spy(coeffs, num, den):
        if coeffs is p:
            points.append(F(num, den))
        return _value_at(coeffs, num, den)

    for a, b, k in _isolate_real_roots(p)[1]:
        expected = _bisection_refine(p, dp, a, b, k, tol)
        points.clear()
        with mock.patch.object(spectra, "_value_at", spy):
            found = spectra._refine_real_root(p, dp, a, b, k, tol)
        if isinstance(expected, F):
            assert found == expected
        else:
            assert not isinstance(found, F)
            assert found[0] / (1 << found[2]) == expected[0] / (1 << expected[2])
        assert len(points) == len(set(points)), points


@given(st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=8),
       st.integers(-(2**70), 2**70),
       st.one_of(st.integers(0, 90).map(lambda k: 1 << k), st.integers(1, 2**70)))
@example([3, 0, -1], 7, 1 << 64)
@settings(max_examples=300, deadline=None)
def test_homogeneous_value_equals_the_fraction_evaluation(coeffs, num, den):
    # by shifts for a power of two, by products otherwise; so also its sign
    d = len(coeffs) - 1
    exact = sum(c * F(num, den) ** i for i, c in enumerate(coeffs))
    assert _value_at(coeffs, num, den) == exact * den**d


def _yun(p):
    """Yun's algorithm as it ran before the modular square-free certificate."""
    p = p.monic()
    if p.degree <= 0:
        return
    dp = p.derivative()
    g = spectra._poly_gcd(p, dp)
    c = divmod(p, g)[0]
    d = divmod(dp, g)[0] - c.derivative()
    mult = 1
    while c.degree > 0:
        f = spectra._poly_gcd(c, d)
        if f.degree > 0:
            yield (f, mult)
        c = divmod(c, f)[0]
        d = divmod(d, f)[0] - c.derivative()
        mult += 1


P61 = 2**61 - 1
#: leading coefficients of a planted square factor, multiples of 2^61 - 1 among them
square_leads = st.sampled_from([1, -1, 2, 3, P61, -P61, 2 * P61, P61 * P61])


@given(square_leads, st.lists(st.integers(-(2**64), 2**64), min_size=1, max_size=2),
       st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(any), st.booleans())
@example(P61, [1], [-2, 0, 1], True)  # (P t + 1)^2 (t^2 - 2): square-free mod P
@example(3, [1], [-2, 0, 1], True)
@settings(max_examples=300, deadline=None)
def test_square_free_certificate_passes_no_planted_square(lead, low, other, squared):
    # f = lead t^len(low) + low, times itself when squared, times another
    # factor: the decomposition is Yun's, so a planted square is never passed
    f = [F(c) for c in low] + [F(lead)]
    p = FockVector(tuple(_times(_times(f, f) if squared else f, [F(c) for c in other])))
    found = list(spectra._square_free_decomposition(p))
    assert found == list(_yun(p))
    if squared:
        assert max(mult for _, mult in found) >= 2


@st.composite
def candidate_cases(draw):
    """A polynomial with rational roots of multiplicity up to 3 (times an
    irreducible quadratic, maybe), and candidates: its roots, duplicates,
    0 and non-roots, in any order."""
    planted = draw(st.lists(st.one_of(st.just(F(0)), dyadic_roots, rationals(99, 16)),
                            min_size=1, max_size=4, unique=True))
    factors = [(-r, 1) for r in planted for _ in range(draw(st.integers(1, 3)))]
    factors += draw(st.lists(
        st.tuples(rationals(9, 4), rationals(9, 4)).filter(lambda bc: _irreducible(*bc))
        .map(lambda bc: (bc[1], bc[0], 1)), max_size=1))
    coeffs = [F(1)]
    for factor in factors:
        coeffs = _times(coeffs, factor)
    extra = draw(st.lists(st.one_of(st.sampled_from(planted), rationals(99, 16)), max_size=4))
    return CharPoly(tuple(coeffs)), draw(st.permutations(planted + extra + [F(0)]))


def _roots_or_error(p, candidates=()):
    try:
        return repr(roots(p, candidates=candidates))
    except NonConvergenceError as err:  # its partial list may hold the candidates found
        return f"NonConvergenceError({err})"


@given(candidate_cases())
@example((CharPoly(tuple(_times(_times([F(-2), F(1)], [F(-2), F(1)]), [F(-2), F(1)]))),
          [F(2), F(2), F(0), F(5)]))  # (t - 2)^3
@settings(max_examples=200, deadline=None)
def test_candidates_change_no_root(case):
    # roots(p, candidates=c) is roots(p), and every candidate root is divided
    # out with its multiplicity before the square-free decomposition
    p, candidates = case
    with mock.patch.object(spectra, "_square_free_decomposition",
                           wraps=spectra._square_free_decomposition) as spy:
        found = _roots_or_error(p, candidates)
    (rest,), _ = spy.call_args
    assert not any(rest(c) == 0 for c in candidates)
    assert found == _roots_or_error(p)


#: spaces where every {k}_q is nonzero, so that no span is refused
es_realizations = st.one_of(
    st.just(Differential()),
    st.builds(DeltaLattice, nonzero_rationals()),
    st.builds(QLattice, nonzero_rationals().filter(lambda q: abs(q) != 1)),
    st.builds(ComplexPlane, st.integers(0, 3)),
)


@given(weyl_elements(max_degree=4, max_terms=5).map(_es_part), es_realizations, st.integers(0, 8))
@example(WeylElement({(1, 1): 1, (2, 2): F(-1, 3)}), QLattice(F(1, 2)), 6)
@settings(max_examples=100, deadline=None)
def test_es_roots_are_the_sorted_diagonal(u, r, n):
    # an exactly solvable restriction is upper triangular in every space:
    # its diagonal, given as candidates, is the spectrum roots(p) finds
    m = restrict(u, r, n)
    diagonal = m.flag.diagonal()
    cp = char_poly(m.flag)
    expected = [Eigenvalue.from_exact(x) for x in sorted(diagonal)]
    assert roots(cp, candidates=diagonal) == expected == roots(cp)


# -- exact nullspaces ----------------------------------------------------------------


def _row_echelon_nullspace(a):
    """The row echelon elimination and back-substitution that column
    reduction replaced."""
    if not a:
        return []
    rows = [[x if isinstance(x, F) else F(x) for x in row] for row in a]
    n_rows, n_cols = len(rows), len(rows[0])
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        pivot = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        for i in range(r + 1, n_rows):
            if rows[i][c]:
                f = rows[i][c] / top[c]
                rows[i][c:] = [x - f * y for x, y in zip(rows[i][c:], top[c:])]
        pivots.append(c)
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        v = [F(0)] * n_cols
        v[fc] = F(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc, row = pivots[r], rows[r]
            terms = (row[j] * v[j] for j in range(pc + 1, n_cols) if row[j] and v[j])
            v[pc] = -sum(terms, F(0)) / row[pc]
        basis.append(tuple(v))
    return basis


def _shifted(m, k):
    return [[x - k if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m)]


def _normalized_eigenvectors(m, k):
    """Each reference basis vector divided by its highest-index nonzero
    entry, as ``eigenvector`` did before that entry was known to be 1."""
    out = []
    for v in _row_echelon_nullspace(_shifted(m, k)):
        lead = next(c for c in reversed(v) if c)
        out.append(tuple(c / lead for c in v))
    return out


def _same_basis(basis, ref):
    assert basis == ref
    assert all(type(x) is F for v in basis for x in v)


@given(st.one_of(banded_matrices(), low_rank_matrices()))
@settings(max_examples=300, deadline=None)
def test_column_reduction_equals_the_row_echelon_nullspace(m):
    _same_basis(nullspace(m), _row_echelon_nullspace(m))


@st.composite
def catalog_restrictions(draw):
    """An ES or QES catalog operator with rational eigenvalues on one of
    three realizations: Hermite or Laguerre(alpha) at n <= 24, or Lame(m, 0)
    at n <= 12."""
    kind = draw(st.sampled_from(["hermite", "laguerre", "lame"]))
    r = draw(st.sampled_from([Differential(), DeltaLattice(F(1, 3)), QLattice(F(1, 2))]))
    if kind == "lame":
        n = draw(st.integers(0, 12))
        return restrict(lame(draw(rationals()), 0, n).element, r, n)
    n = draw(st.integers(0, 24))
    element = HERMITE if kind == "hermite" else laguerre(draw(rationals())).element
    return restrict(element, r, n)


#: a repeated eigenvalue: (k-3)^2 (k-7) is 0 at k = 3 and k = 7, and the
#: lowering term joins the two into one Jordan block
REPEATED = lower(parse("(b*a-3)^2*(b*a-7) + 2*a"), {})


@given(catalog_restrictions())
@example(restrict(HERMITE, Differential(), 24))
@example(restrict(laguerre(F(1, 3)).element, Differential(), 24))
@example(restrict(lame(F(5, 2), 0, 12).element, Differential(), 12))
@example(restrict(REPEATED, Differential(), 12))
@settings(max_examples=40, deadline=None)
def test_catalog_eigenvectors_equal_the_normalized_row_echelon_basis(m):
    evs = roots(char_poly(m))
    assert all(ev.is_exact for ev in evs)
    for k in sorted({ev.exact for ev in evs}):
        _same_basis(nullspace(_shifted(m, k)), _row_echelon_nullspace(_shifted(m, k)))
        assert eigenvector(m, Eigenvalue.from_exact(k)) == _normalized_eigenvectors(m, k)


@given(catalog_restrictions())
@example(restrict(REPEATED, Differential(), 12))
@example(restrict(REPEATED, DeltaLattice(F(1, 3)), 12))
@example(restrict(REPEATED, QLattice(F(1, 2)), 12))
@settings(max_examples=40, deadline=None)
def test_restrict_rows_give_the_eigenvectors_of_a_plain_copy(m):
    plain = [row[:] for row in m]
    for ev in dict.fromkeys(roots(char_poly(m))):
        assert eigenvector(m, ev) == eigenvector(plain, ev)


def _dense_nullspace(a):
    """The column reduction as it read a dense matrix: every entry scanned
    into a sparse column of ``Fraction``s, and each pivot subtracted at its
    own row too."""
    n_cols = len(a[0]) if a else 0
    pivots, basis = {}, []
    for c, entries in enumerate(zip(*a)):
        col = {i: x if isinstance(x, F) else F(x) for i, x in enumerate(entries) if x}
        comb = {c: F(1)}
        while col:
            low = max(col)
            if low not in pivots:
                pivots[low] = (col, comb)
                break
            p_col, p_comb = pivots[low]
            f = col[low] / p_col[low]
            for target, source in ((col, p_col), (comb, p_comb)):
                for i, x in source.items():
                    y = target.pop(i, 0) - f * x
                    if y:
                        target[i] = y
        else:
            basis.append(tuple(comb.get(j, F(0)) for j in range(n_cols)))
    return basis


@given(char_poly_matrices(), st.integers(0, 15))
@example([[F(3), F(1), F(0)], [F(0), F(3), F(0)], [F(0), F(0), F(3)]], 0)  # 3, twice free
@settings(max_examples=200, deadline=None)
def test_shifted_nullspace_equals_the_dense_reference(m, pick):
    # the shift is an exact eigenvalue or a diagonal entry (on a triangular
    # matrix, the same), so the nullspace is often nontrivial
    try:
        evs = roots(char_poly(m))
    except NonConvergenceError as err:
        evs = err.partial
    except OverflowError:  # float() of a huge coefficient, for a numeric root
        evs = []
    candidates = [ev.exact for ev in evs if ev.is_exact] + [row[i] for i, row in enumerate(m)]
    shift = candidates[pick % len(candidates)] if candidates else F(0)
    _same_basis(nullspace(m, shift), _dense_nullspace(_shifted(m, shift)))


@pytest.mark.parametrize("index", range(len(LATTICE_RESTRICTIONS)))
@given(st.integers(0, 16), st.lists(rationals(), min_size=17, max_size=17))
@settings(max_examples=15, deadline=None)
def test_lattice_nullspace_equals_the_row_echelon_basis(index, j, coeffs):
    # column j replaced by a combination of the others: a nullspace of
    # dimension one or more over entries with large denominators
    m = LATTICE_RESTRICTIONS[index]
    _same_basis(nullspace(m), _row_echelon_nullspace(m))
    combined = [sum((c * x for i, (c, x) in enumerate(zip(coeffs, row)) if i != j), F(0))
                for row in m]
    singular = [[combined[r] if i == j else x for i, x in enumerate(row)]
                for r, row in enumerate(m)]
    basis = nullspace(singular)
    assert basis
    _same_basis(basis, _row_echelon_nullspace(singular))


def _fraction_nullspace(a, shift=0):
    """The column reduction in ``Fraction`` arithmetic that reduced integer
    pairs replaced, as it read plain rows."""
    n_cols = len(a[0]) if a else 0
    if any(len(row) != n_cols for row in a):
        raise ValueError("nullspace needs rows of equal length")
    columns = [
        {i: x if isinstance(x, F) else F(x) for i, x in enumerate(col) if x}
        for col in zip(*a)]
    shift, zero, one = F(shift), F(0), F(1)
    pivots = {}
    basis = []
    for c, col in enumerate(map(dict, columns)):
        if c < len(a) and (diagonal := col.pop(c, 0) - shift):
            col[c] = diagonal
        comb = {c: one}
        while col:
            low = max(col)
            if low not in pivots:
                pivots[low] = (col.pop(low), col, comb)
                break
            pivot, p_col, p_comb = pivots[low]
            f = col.pop(low) / pivot
            for target, source in ((col, p_col), (comb, p_comb)):
                for i, x in source.items():
                    y = target.pop(i, 0) - f * x
                    if y:
                        target[i] = y
        else:
            basis.append(tuple(comb.get(j, zero) for j in range(n_cols)))
    return basis


@st.composite
def repeated_diagonal_matrices(draw):
    """Triangular, Hessenberg, banded or dense matrices whose diagonal takes
    at most three values, or a triangular one mixed into a dense one by
    elementary integer similarities (row i += k row j, then column j -= k
    column i), which keep its repeated eigenvalues.  Entries are small or
    have numerators and denominators up to 2^64."""
    n = draw(st.integers(1, 8))
    entry = st.one_of(st.just(F(0)), rationals(), huge_rationals)
    values = draw(st.lists(st.one_of(rationals(), huge_rationals), min_size=1, max_size=3))
    shape = draw(st.sampled_from(["triangular", "hessenberg", "banded", "dense", "similar"]))
    below = {"hessenberg": 1, "banded": draw(st.integers(2, 3)), "dense": n}.get(shape, 0)
    m = [[draw(st.sampled_from(values)) if i == j else draw(entry) if i - j <= below else F(0)
          for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(1, 3)) if shape == "similar" else 0):
        i, j, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), draw(st.integers(-3, 3))
        if i != j:
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
            for row in m:
                row[j] -= k * row[i]
    return m


def _reduced_fractions(basis):
    return all(type(x) is F and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1
               for v in basis for x in v)


@given(st.one_of(repeated_diagonal_matrices(), low_rank_matrices()), st.data())
@example([[F(3), F(1), F(0)], [F(0), F(3), F(0)], [F(0), F(0), F(3)]], None)  # 3, twice free
@example([[F(2**64, 3), F(1, 2**64 - 1)], [F(0), F(2**64, 3)]], None)
@settings(max_examples=300, deadline=None)
def test_pair_nullspace_equals_the_fraction_loop(m, data):
    # the shift is a diagonal entry (on a triangular matrix, an eigenvalue)
    # or any rational; rows of restrict and plain rows, integers as ints
    if data is None:
        shift = m[0][0]
    elif data.draw(st.booleans(), label="on the diagonal"):
        k = data.draw(st.integers(0, min(len(m), len(m[0])) - 1), label="diagonal entry")
        shift = m[k][k]
    else:
        shift = data.draw(st.one_of(rationals(), huge_rationals), label="shift")
    expected = _fraction_nullspace(m, shift)
    plain = [[x.numerator if x.denominator == 1 else x for x in row] for row in m]
    inputs = [plain] + ([spectra._Rows(_flag(m))] if len(m) == len(m[0]) else [])
    for a in inputs:
        basis = nullspace(a, shift)
        assert basis == expected
        assert _reduced_fractions(basis)


def test_shapes_are_checked_once_and_still_refused():
    ev = Eigenvalue.from_exact(F(1))
    for rows in ([[1, 2], [3]], [[1], [2, 3]], [[0, 0], [0, 0, 0]]):
        with pytest.raises(ValueError, match="equal length"):
            nullspace(rows)
    for rows in ([[1, 2]], [[1, 2], [0]]):
        with pytest.raises(ValueError, match="square"):
            eigenvector(rows, ev)
    m = restrict(HERMITE, Differential(), 3)
    m.columns  # filled before the rows change shape
    m[1].append(F(1))
    with pytest.raises(ValueError, match="square"):
        eigenvector(m, ev)
    with pytest.raises(ValueError, match="equal length"):
        nullspace(m)


# -- isospectrality by the Fock-module certificate ---------------------------------


def _assembled_isospectral(u, n, realizations):
    """The comparison the certificate replaced: every space assembled (a
    univariate one by ``realize_matrix``, a fiber by the subtraction loop)
    and its own characteristic polynomial taken, the first leakage raised."""
    entries = []
    for r in realizations:
        if isinstance(r, ComplexPlane):
            rows, leakage = _fraction_flag_matrix(u, r, n)
        else:
            fm = realize_matrix(u, r, n)
            rows, leakage = fm.entries, fm.leakage
        if leakage:
            raise LeakageError(min(leakage), leakage[min(leakage)])
        entries.append((r.label, char_poly([list(row) for row in rows])))
    return tuple(entries)


def _same_isospectral_outcome(u, n, realizations):
    """``isospectral_check`` gives the reference's report, or raises its
    error with the same message (and the same leakage witness)."""
    try:
        expected = _assembled_isospectral(u, n, realizations)
    except LeakageError as e:
        with pytest.raises(LeakageError) as got:
            isospectral_check(u, n, realizations)
        assert got.value.column == e.column
        if isinstance(e.overflow, FockVector):
            _same(got.value.overflow, _FractionVector(e.overflow.coeffs))
        else:
            _same_bipoly(got.value.overflow, e.overflow)
        return
    except ValueError as e:
        with pytest.raises(ValueError, match=re.escape(str(e))):
            isospectral_check(u, n, realizations)
        return
    report = isospectral_check(u, n, realizations)
    assert report.degree == n and report.entries == expected
    assert all(type(cp) is CharPoly for _, cp in report.entries)
    assert report.all_equal == all(cp == expected[0][1] for _, cp in expected)


@st.composite
def isospectral_cases(draw):
    """An element and a degree n: a random element (it leaks almost
    everywhere), its ES part (never leaks), or that plus ``b^2*a - n*b``
    (invariant at n, raising one degree above it)."""
    u, n = draw(weyl_elements(max_degree=3)), draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["random", "es", "qes"]))
    if kind == "random":
        return u, n
    return _es_part(u) + (jplus(n).element if kind == "qes" else WeylElement()), n


SEXTIC_Q_MINUS_ONE = (sextic(1, 0, 1).element, 1, [Differential(), QLattice(-1)])


@given(isospectral_cases(), st.lists(all_realizations, min_size=1, max_size=4),
       st.lists(st.integers(0, 3), max_size=2))
@example((HERMITE, 5), [Differential(), DeltaLattice(F(2**64 - 1, 2**63)),
                        QLattice(F(-(2**64), 3))], [0, 2])
@example((HERMITE, 2), [QLattice(-1)], [])  # the span is refused
@example((HERMITE, 1), [QLattice(-1), Differential()], [0])
@example(SEXTIC_Q_MINUS_ONE[:2], SEXTIC_Q_MINUS_ONE[2], [])  # {2}_q = 0 above n
@example((lame(2, 1, 4).element, 4), [QLattice(F(2**64 + 1, 2**64)), DeltaLattice(F(1, 3))], [1])
@example((lame(2, 1, 4).element, 5), [ComplexPlane(1), Differential()], [])  # a fiber leaks
@settings(max_examples=150, deadline=3000)
def test_certified_isospectral_report_equals_every_space_assembled(case, realizations, fiber_ms):
    u, n = case
    _same_isospectral_outcome(u, n, [*realizations, *map(ComplexPlane, fiber_ms)])


def _fock_chain_change(r, n):
    """Columns ``e_0 .. e_n`` of the b-chain in monomials, by definition:
    ``x (x - d) ... (x - (k-1) d)`` for a uniform lattice, and
    ``k! / ({1}_q ... {k}_q) x^k`` for an exponential one."""
    if isinstance(r, DeltaLattice):
        return quasi_monomial_change(r.delta, n)
    diag, c = [], F(1)
    for k in range(n + 1):
        c = c * k / q_number(k, r.q) if k else c
        diag.append(c)
    return tuple(tuple(diag[i] if i == k else F(0) for k in range(n + 1)) for i in range(n + 1))


def _matmul(a, b):
    return [[sum((x * b[t][j] for t, x in enumerate(row)), F(0)) for j in range(len(b[0]))]
            for row in a]


@given(isospectral_cases(),
       st.one_of(st.builds(DeltaLattice, st.one_of(nonzero_rationals(), huge_rationals.filter(bool))),
                 st.builds(QLattice, wide_qs.filter(lambda q: q != -1))))
@example((lame(2, 1, 4).element, 4), DeltaLattice(F(2**64 - 1, 2**63)))
@example((lame(2, 1, 4).element, 4), QLattice(F(-(2**64), 3)))
@settings(max_examples=100, deadline=3000)
def test_lattice_matrix_intertwines_the_fock_flag_matrix(case, r):
    u, n = case
    fock = flag_matrix(u, n, cap=n)
    if fock.has_leakage:
        return
    t = _fock_chain_change(r, n)
    m = restrict(u, r, n)
    assert _matmul(m, t) == _matmul(t, fock.entries)
    chain = r.fock_chain(u, n)
    assert [list(e.coeffs) + [F(0)] * (n - e.degree) for e in chain[:n + 1]] == [
        list(col) for col in zip(*t)
    ]


def _mutant(r, kind):
    """``r`` with a wrong ``act_a`` factor at degree 3, an ``act_a`` that does
    not kill the vacuum, or an ``act_b`` that drops a chain step (two raises)
    at degree 2.  (The differential matrix is
    the Fock action itself, which reads neither generator.)"""
    base = type(r)

    class Mutant(base):
        def act_a(self, p):
            out = base.act_a(self, p)
            if kind == "vacuum":
                return out + FockVector.basis(0, p[0])
            return out.scale(2) if kind == "factor" and p.degree == 3 else out

        def act_b(self, p):
            out = base.act_b(self, p)
            return base.act_b(self, out) if kind == "step" and p.degree == 2 else out

    return Mutant(**{f.name: getattr(r, f.name) for f in fields(r)})


@pytest.mark.parametrize("kind", ["factor", "vacuum", "step"])
@pytest.mark.parametrize("r", [DeltaLattice(F(1, 3)), QLattice(F(-1, 2))], ids=["delta", "q"])
@pytest.mark.parametrize("u, n", [(HERMITE, 4), (lame(2, 1, 4).element, 4)], ids=["es", "qes"])
def test_a_mutant_realization_falls_back_or_raises(kind, r, u, n):
    mutant = _mutant(r, kind)
    assert mutant.fock_chain(u, n) is None
    _same_isospectral_outcome(u, n, [Differential(), mutant])
    try:
        report = isospectral_check(u, n, [Differential(), mutant, ComplexPlane()])
    except LeakageError:
        return
    assert not report.all_equal  # the mutant's own polynomial, not F's


@dataclass(frozen=True)
class _SquareChain(Realization):
    """``b = x^2`` and ``a x^n = (n/2) x^(n-2)``: the chain ``x^(2k)`` passes
    the Fock-module check but leaves the degree flag."""

    label = "square"

    def act_a(self, p):
        return FockVector([c * F(n, 2) for n, c in enumerate(p.coeffs)][2:])

    def act_b(self, p):
        return p.times_x().times_x()


def test_a_chain_outside_the_degree_flag_falls_back():
    r = _SquareChain()
    assert [e.degree for e in r.fock_chain(HERMITE, 4)] == [0, 2, 4, 6, 8]
    _same_isospectral_outcome(HERMITE, 4, [Differential(), r])
    assert not isospectral_check(HERMITE, 4, [Differential(), r, ComplexPlane()]).all_equal


def test_a_fiber_chain_that_drops_a_step_raises():
    def dropping_act_b(f):
        out = complex_act_b(f)
        return complex_act_b(out) if f._row(0).degree == 2 else out

    with mock.patch.object(ComplexPlane, "act_b", staticmethod(dropping_act_b)):
        with pytest.raises(SingularBasisError, match=re.escape("fiber chain b^k(z^0)")):
            complex_fiber_matrix(HERMITE, 0, 4)
        # isospectral_check raises it too
        with pytest.raises(SingularBasisError, match=re.escape("fiber chain b^k(z^0)")):
            isospectral_check(HERMITE, 4, [Differential(), ComplexPlane()])


SEXTIC_Q_MINUS_ONE_ARGV = ["isospectral", "--op", "sextic", "--bind", "alpha=1", "--bind", "beta=0",
                           "--bind", "n=1", "--n", "1", "--qs=-1"]


def test_the_chain_reaches_every_degree_a_raising_term_reaches():
    # b^3 takes x^0 past the span at n = 1, to x^2, where {2}_q = 0 for q = -1
    out = io.StringIO()
    assert cli.main(SEXTIC_Q_MINUS_ONE_ARGV, out=out) == 1
    assert "raising action undefined: {2}_q = 0 for q = -1" in out.getvalue()
    # a chain checked only up to n would certify the span and exit 0
    chain = Realization.fock_chain
    with mock.patch.object(Realization, "fock_chain", lambda r, u, n: chain(r, WeylElement(), n)):
        assert cli.main(SEXTIC_Q_MINUS_ONE_ARGV, out=io.StringIO()) == 0


def test_a_leaking_span_raises_the_first_space_own_witness():
    u = lame(2, 1, 4).element
    expected = realize_matrix(u, QLattice(2), 5)
    with pytest.raises(LeakageError) as got:
        isospectral_check(u, 5, [QLattice(2), Differential(), ComplexPlane()])
    col = min(expected.leakage)
    assert got.value.column == col == 5
    _same(got.value.overflow, _FractionVector(expected.leakage[col].coeffs))
    assert got.value.overflow != flag_matrix(u, 5).leakage[col]  # not the Fock overflow
    _same_isospectral_outcome(u, 5, [QLattice(2), Differential()])
