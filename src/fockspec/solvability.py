"""Classification of normal-ordered elements by invariant subspaces.

An element is *exactly solvable* when it preserves the whole degree
filtration ``span{b^0|0>, ..., b^n|0>}`` for every n; in normal form this is
the termwise condition ``b-exponent <= a-exponent``.  A *quasi-exactly
solvable* element preserves one such span of a fixed degree n.  Invariance
is always decided here by the direct leakage test: column k of the degree-n
flag matrix leaks iff ``fock_apply(u, k)`` has degree above n, so the span
is invariant iff the running maximum of those degrees over k <= n is at
most n, and one pass over the columns decides every n at once.  A column's
degree is read off the raising terms ``c b^i a^j``, ``e = i - j > 0``: the
image of ``b^k|0>`` has ``sum c * falling(k, j)`` at degree ``k + e``, and
only a leakage witness builds an image.  The closed-form constraints are
provided alongside and checked against the scan rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from math import lcm, perm
from typing import Iterator, Optional, Tuple

from .weyl import (
    DEFAULT_DEGREE_CAP,
    DegreeOverflowError,
    FockVector,
    Rational,
    RationalLike,
    WeylElement,
    as_rational,
    fock_apply,
)

#: Default bound for the invariant-degree scan; QES degrees in practice are
#: small, so the scan stays cheap.
DEFAULT_SCAN_BOUND = 32


class NotExactlySolvableError(ValueError):
    """A diagonal eigenvalue was requested for a non-flag-preserving element."""


#: The ``(b-exponent, a-exponent)`` term behind each QESCoeffs field.
QES_TERMS = {
    "a4": (4, 2), "a3": (3, 2), "a2": (2, 2), "a1": (1, 2), "a0": (0, 2),
    "b3": (3, 1), "b2": (2, 1), "b1": (1, 1), "b0": (0, 1),
    "d2": (2, 0), "d1": (1, 0), "d0": (0, 0),
}


@dataclass(frozen=True)
class QESCoeffs:
    """Coefficients of ``Q4(b) a^2 + Q3(b) a + Q2(b)`` with

    Q4 = a4 b^4 + a3 b^3 + a2 b^2 + a1 b + a0,
    Q3 = b3 b^3 + b2 b^2 + b1 b + b0,
    Q2 = d2 b^2 + d1 b + d0.
    """

    a4: Rational = Fraction(0)
    a3: Rational = Fraction(0)
    a2: Rational = Fraction(0)
    a1: Rational = Fraction(0)
    a0: Rational = Fraction(0)
    b3: Rational = Fraction(0)
    b2: Rational = Fraction(0)
    b1: Rational = Fraction(0)
    b0: Rational = Fraction(0)
    d2: Rational = Fraction(0)
    d1: Rational = Fraction(0)
    d0: Rational = Fraction(0)

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, as_rational(getattr(self, f.name)))

    def element(self) -> WeylElement:
        """The normal-ordered element with these coefficients."""
        return WeylElement({key: getattr(self, name) for name, key in QES_TERMS.items()})

    def c2(self, k: int) -> Rational:
        """Coefficient of degree k+2 in the image of ``b^k|0>``."""
        return self.a4 * k * (k - 1) + self.b3 * k + self.d2

    def c1(self, k: int) -> Rational:
        """Coefficient of degree k+1 in the image of ``b^k|0>``."""
        return self.a3 * k * (k - 1) + self.b2 * k + self.d1


def qes_coeffs_of(u: WeylElement) -> Optional[QESCoeffs]:
    """Read coefficients back off a normal form, or None if it does not fit
    the ``Q4 a^2 + Q3 a + Q2`` shape."""
    names = {key: name for name, key in QES_TERMS.items()}
    values = {}
    for key, c in u.terms.items():
        name = names.get(key)
        if name is None:
            return None
        values[name] = c
    return QESCoeffs(**values)


@dataclass(frozen=True)
class SolvabilityReport:
    """Outcome of classifying one element."""

    exactly_solvable: bool
    invariant_degrees: Tuple[int, ...]
    scan_bound: int
    constraint_residuals: Optional[Tuple[Rational, ...]] = None
    leakage_witness: Optional[Tuple[int, FockVector]] = None

    def __post_init__(self):
        if self.exactly_solvable:
            assert self.invariant_degrees == tuple(range(self.scan_bound + 1))


def is_exactly_solvable(u: WeylElement) -> bool:
    """True iff every term has b-exponent <= a-exponent.

    Such elements are exactly the polynomials in the number operator ``b*a``
    and ``a``, and they preserve every degree span.
    """
    return all(i <= j for (i, j) in u.terms)


def es_diagonal(u: WeylElement, k: int) -> Rational:
    """Eigenvalue of an exactly-solvable element on the degree-k sector.

    This is the degree-k coefficient of the image of ``b^k|0>`` (the
    flag-matrix diagonal entry), to which only the balanced terms ``(j, j)``
    contribute: ``sum_j A[j,j] * k(k-1)...(k-j+1)``.
    """
    if not is_exactly_solvable(u):
        raise NotExactlySolvableError(
            "diagonal eigenvalues require a flag-preserving element"
        )
    return fock_apply(u, k)[k]


def qes_constraint_residuals(c: QESCoeffs, n: int) -> Tuple[Rational, Rational]:
    """Left sides of the two classical coefficient constraints at degree n.

    The first is the degree-overflow coefficient of column n; the second is
    a *combined* form, the sum of the overflow coefficients of columns n-1
    (quartic top) and n (cubic sub-leading).  See
    :func:`qes_leakage_residuals` for the separated conditions.
    """
    return (c.c2(n), c.c2(n - 1) + c.c1(n))


def heun_constraint_residual(
    a3: RationalLike, b2: RationalLike, d1: RationalLike, n: int
) -> Rational:
    """Residual ``a3 n(n-1) + b2 n + d1`` of the cubic-family constraint."""
    return QESCoeffs(a3=a3, b2=b2, d1=d1).c1(n)


def qes_leakage_residuals(c: QESCoeffs, n: int) -> Tuple[Rational, Rational, Rational]:
    """The exact overflow coefficients that decide invariance of degree n.

    Acting on ``b^k|0>``, the element ``Q4(b) a^2 + Q3(b) a + Q2(b)`` raises
    the degree by at most two, with

        degree k+2 coefficient  C2(k) = a4 k(k-1) + b3 k + d2,
        degree k+1 coefficient  C1(k) = a3 k(k-1) + b2 k + d1.

    The span of degrees 0..n is invariant iff C2(n) = 0, C2(n-1) = 0 (for
    n >= 1) and C1(n) = 0.  Returned in that order; the middle residual is 0
    when n = 0.  Note the classical *pair* of constraints adds C2(n-1) and
    C1(n) into one equation, so it is implied by, but does not imply, these
    three conditions.
    """
    return (c.c2(n), c.c2(n - 1) if n >= 1 else Fraction(0), c.c1(n))


def _column_degrees(u: WeylElement, n: int) -> Iterator[int]:
    """For k = 0..n, the degree of ``fock_apply(u, k)`` where it exceeds k,
    else k (which never changes whether a running maximum is at most n)."""
    raising = [(i - j, j, c) for (i, j), c in u.terms.items() if i > j]
    den = lcm(*(c.denominator for _, _, c in raising))
    groups: dict = {}  # excess -> [(a-exponent, integer numerator)], highest first
    for e, j, c in sorted(raising, reverse=True):
        groups.setdefault(e, []).append((j, c.numerator * (den // c.denominator)))
    for k in range(n + 1):
        nonzero = (e for e, terms in groups.items() if sum(c * perm(k, j) for j, c in terms))
        yield k + next(nonzero, 0)


def invariant_degree_scan(
    u: WeylElement, n_max: int = DEFAULT_SCAN_BOUND, cap: int = DEFAULT_DEGREE_CAP
) -> Tuple[int, ...]:
    """All n <= n_max whose degree span is invariant, by direct leakage test:
    the running maximum of the image degrees of ``b^k|0>`` is at most n."""
    if n_max < 0:
        raise ValueError("matrix size bound must be nonnegative")
    if n_max > cap:
        raise ValueError("scan bound exceeds the degree cap")
    found, top = [], -1
    for n, degree in enumerate(_column_degrees(u, n_max)):
        top = max(top, degree)
        if top <= n:
            found.append(n)
    return tuple(found)


def first_leakage(
    u: WeylElement, n: int, cap: int = DEFAULT_DEGREE_CAP
) -> Optional[Tuple[int, FockVector]]:
    """Lowest leaking column of the degree-n flag matrix, with its overflow."""
    if n < 0:
        raise ValueError("matrix size bound must be nonnegative")
    if n > cap:
        raise DegreeOverflowError(n, cap)
    for k, degree in enumerate(_column_degrees(u, n)):
        if degree > n:
            return (k, fock_apply(u, k).split(n)[1])
    return None


def classify(
    u: WeylElement,
    n_max: int = DEFAULT_SCAN_BOUND,
    target_degree: Optional[int] = None,
    cap: int = DEFAULT_DEGREE_CAP,
) -> SolvabilityReport:
    """Full classification: ES flag, invariant degrees, residuals, witness.

    Constraint residuals are included when the element fits the
    ``Q4 a^2 + Q3 a + Q2`` shape and a degree is available to evaluate them
    at (``target_degree`` if given, else the largest scanned invariant
    degree).  The leakage witness is taken at ``target_degree`` when that
    degree is not invariant, else at the scan bound for elements with no
    invariant degree at all.
    """
    es = is_exactly_solvable(u)
    degrees = invariant_degree_scan(u, n_max, cap)
    residuals: Optional[Tuple[Rational, ...]] = None
    coeffs = qes_coeffs_of(u)
    n_res = target_degree if target_degree is not None else (degrees[-1] if degrees else None)
    if coeffs is not None and n_res is not None:
        if coeffs.a4 == coeffs.b3 == coeffs.d2 == 0:
            residuals = (coeffs.c1(n_res),)
        else:
            residuals = qes_constraint_residuals(coeffs, n_res)
    witness = None
    if target_degree is not None and target_degree not in degrees:
        witness = first_leakage(u, target_degree, cap)
    elif not es and not degrees:
        witness = first_leakage(u, n_max, cap)
    return SolvabilityReport(
        exactly_solvable=es,
        invariant_degrees=degrees,
        scan_bound=n_max,
        constraint_residuals=residuals,
        leakage_witness=witness,
    )
