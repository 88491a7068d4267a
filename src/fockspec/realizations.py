"""Concrete actions of the generators (a, b) on polynomial spaces.

Four realizations of ``[a, b] = 1`` are provided:

* ``Differential``:   a = d/dx,                 b = multiplication by x
* ``DeltaLattice``:   a f = (f(x+d) - f(x))/d,  b f = x f(x-d)
* ``QLattice``:       a x^n = {n}_q x^(n-1),    b x^n = (n+1)/{n+1}_q x^(n+1)
* ``ComplexPlane``:   a = d/dzbar,              b = -d/dz + zbar (on BiPoly)

with ``{n}_q = 1 + q + ... + q^(n-1)``.  Each realization carries its own
generator actions, label and matrix assembly.  The univariate realizations
act on :class:`UniPoly` in the monomial basis; a polynomial is the Fock
vector of its coefficients (``x^k`` for ``b^k|0>``), so ``UniPoly`` is
:class:`~fockspec.weyl.FockVector`.  The complex plane acts on
:class:`BiPoly` and is exposed only through fiber matrices over a vacuum
``z^m``.  Everything is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .weyl import (
    FlagMatrix,
    FockVector,
    Rational,
    RationalLike,
    SparseTerms,
    WeylElement,
    as_rational,
    flag_matrix,
)

#: A polynomial in x, ascending coefficients: the Fock vector type itself.
UniPoly = FockVector


class SingularBasisError(Exception):
    """Fiber basis failed its independence check (an implementation bug)."""


class BiPoly(SparseTerms):
    """Polynomial in (z, zbar): a map from ``(z-exp, zbar-exp)`` to coefficient."""

    __slots__ = ()

    @classmethod
    def monomial(cls, p: int, q: int, coeff: RationalLike = 1) -> "BiPoly":
        return cls({(p, q): coeff})

    def coeff(self, p: int, q: int) -> Rational:
        return self.coefficient(p, q)

    def __add__(self, other: "BiPoly") -> "BiPoly":
        return BiPoly([*self._terms.items(), *other._terms.items()])

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + other.scale(-1)

    def scale(self, c: RationalLike) -> "BiPoly":
        c = as_rational(c)
        return BiPoly({key: c * v for key, v in self._terms.items()})

    def __repr__(self) -> str:
        if self.is_zero:
            return "BiPoly(0)"
        body = " + ".join(
            f"{c}*z^{p}*zbar^{q}" for (p, q), c in sorted(self._terms.items())
        )
        return f"BiPoly({body})"


def complex_act_a(f: BiPoly) -> BiPoly:
    """d/dzbar: z^p zbar^q -> q z^p zbar^(q-1)."""
    return BiPoly(
        {(p, q - 1): q * c for (p, q), c in f.terms.items() if q}
    )


def complex_act_b(f: BiPoly) -> BiPoly:
    """-d/dz + zbar: z^p zbar^q -> -p z^(p-1) zbar^q + z^p zbar^(q+1)."""
    return BiPoly(
        [((p - 1, q), -p * c) for (p, q), c in f.terms.items() if p]
        + [((p, q + 1), c) for (p, q), c in f.terms.items()]
    )


def q_number(n: int, q: Rational) -> Rational:
    """{n}_q = 1 + q + ... + q^(n-1), by Horner sum (never via division)."""
    acc = Fraction(0)
    for _ in range(n):
        acc = acc * q + 1
    return acc


# ---------------------------------------------------------------------------
# Realizations
# ---------------------------------------------------------------------------


class Realization:
    """A pair (a, b) with ``[a, b] = 1`` acting on a polynomial space.

    Subclasses define ``act_a``, ``act_b`` and ``label``.
    """

    def apply(self, u: WeylElement, p):
        """Image of ``p`` under ``u``: per term ``c*b^i*a^j`` the a-factors
        act first (rightmost in the normal form), then the b-factors.

        Each ``a^j p`` is computed once and each b-chain ``b^i(a^j p)`` once
        per ``j``, both extended only as far as the terms met so far need, in
        term order.  So the actions computed are exactly those of acting term
        by term, and an action that raises does so at the same term.
        """
        a_powers, b_chains, total = [p], {}, type(p)()
        for (i, j), c in u.terms.items():
            while len(a_powers) <= j:
                a_powers.append(self.act_a(a_powers[-1]))
            chain = b_chains.setdefault(j, [a_powers[j]])
            while len(chain) <= i:
                chain.append(self.act_b(chain[-1]))
            total = total + chain[i].scale(c)
        return total

    def matrix(self, u: WeylElement, n_max: int) -> FlagMatrix:
        """Matrix of ``u`` in the monomial basis ``{x^0 .. x^n_max}``, with
        image coefficients above ``n_max`` recorded as leakage."""
        return FlagMatrix.from_columns(
            [self.apply(u, UniPoly.basis(k)).split(n_max) for k in range(n_max + 1)]
        )

    def fiber(self, m: int) -> "Realization":
        """The space a spectrum is taken on; only the complex plane has one
        per vacuum ``z^m``."""
        return self


@dataclass(frozen=True)
class Differential(Realization):
    """a = d/dx, b = x."""

    label = "differential"

    def act_a(self, p: UniPoly) -> UniPoly:
        return p.derivative()

    def act_b(self, p: UniPoly) -> UniPoly:
        return p.times_x()

    def matrix(self, u: WeylElement, n_max: int) -> FlagMatrix:
        # x^k under (d/dx, x) is b^k|0>, so this is the Fock action; as in
        # the other realizations the span is not bounded by the degree cap
        return flag_matrix(u, n_max, cap=n_max) if n_max >= 0 else FlagMatrix((), {})


@dataclass(frozen=True)
class DeltaLattice(Realization):
    """Uniform-lattice pair: forward difference with step delta, b f = x f(x - delta)."""

    delta: Rational

    def __post_init__(self):
        object.__setattr__(self, "delta", as_rational(self.delta))
        if not self.delta:
            raise ValueError("lattice spacing delta must be nonzero")

    @property
    def label(self) -> str:
        return f"delta={self.delta}"

    def act_a(self, p: UniPoly) -> UniPoly:
        return (p.shifted(self.delta) - p).scale(1 / self.delta)

    def act_b(self, p: UniPoly) -> UniPoly:
        return p.shifted(-self.delta).times_x()


@dataclass(frozen=True)
class QLattice(Realization):
    """Exponential-lattice pair built from the dilation x -> q x."""

    q: Rational

    def __post_init__(self):
        object.__setattr__(self, "q", as_rational(self.q))
        if self.q in (0, 1):
            raise ValueError("q must differ from 0 and 1")
        object.__setattr__(self, "_q_numbers", (Fraction(0),))

    @property
    def label(self) -> str:
        return f"q={self.q}"

    def _q_table(self, n: int) -> Tuple[Rational, ...]:
        """``{0}_q .. {n}_q`` (at least), from ``{k+1}_q = q {k}_q + 1``.

        The table is kept; a longer one replaces it whole, so the instance
        can be shared between threads."""
        table = self._q_numbers
        if len(table) <= n:
            while len(table) <= n:
                table += (table[-1] * self.q + 1,)
            object.__setattr__(self, "_q_numbers", table)
        return table

    def act_a(self, p: UniPoly) -> UniPoly:
        qn = self._q_table(p.degree)
        out = [Fraction(0)] * max(len(p.coeffs) - 1, 0)
        for n, c in enumerate(p.coeffs):
            if n and c:
                out[n - 1] = c * qn[n]
        return UniPoly(tuple(out))

    def act_b(self, p: UniPoly) -> UniPoly:
        qn = self._q_table(p.degree + 1)
        out = [Fraction(0)] * (len(p.coeffs) + 1)
        for n, c in enumerate(p.coeffs):
            if not c:
                continue
            if not qn[n + 1]:
                raise ValueError(
                    f"raising action undefined: {{{n + 1}}}_q = 0 for q = {self.q}"
                )
            out[n + 1] = c * (n + 1) / qn[n + 1]
        return UniPoly(tuple(out))


@dataclass(frozen=True)
class ComplexPlane(Realization):
    """a = d/dzbar, b = -d/dz + zbar, acting on BiPoly."""

    label = "complex"
    act_a = staticmethod(complex_act_a)
    act_b = staticmethod(complex_act_b)

    def matrix(self, u: WeylElement, n_max: int) -> FlagMatrix:
        raise TypeError("use complex_fiber_matrix for the complex-plane realization")

    def fiber(self, m: int) -> "ComplexFiber":
        return ComplexFiber(m)


@dataclass(frozen=True)
class ComplexFiber(ComplexPlane):
    """The complex plane on the fiber basis ``{b^k(z^m)}`` over one vacuum."""

    m: int

    @property
    def label(self) -> str:
        return f"complex m={self.m}"

    def matrix(self, u: WeylElement, n_max: int) -> FlagMatrix:
        return complex_fiber_matrix(u, self.m, n_max)

    def fiber(self, m: int) -> "ComplexFiber":
        return self


def realization_label(r: Realization) -> str:
    return r.label


def act_a(r: Realization, p: UniPoly) -> UniPoly:
    """Apply the lowering generator of realization ``r`` to a polynomial."""
    return r.act_a(p)


def act_b(r: Realization, p: UniPoly) -> UniPoly:
    """Apply the raising generator of realization ``r`` to a polynomial."""
    return r.act_b(p)


# ---------------------------------------------------------------------------
# Matrix assembly
# ---------------------------------------------------------------------------


def realize_matrix(u: WeylElement, r: Realization, n_max: int) -> FlagMatrix:
    """Matrix of ``u`` on the degree-``n_max`` span of ``r`` (the monomial
    basis ``{x^0 .. x^n_max}`` for a univariate realization).

    Image parts beyond the span are recorded as leakage, column by column.
    """
    return r.matrix(u, n_max)


def complex_fiber_matrix(u: WeylElement, m: int, n_max: int) -> FlagMatrix:
    """Matrix of ``u`` on the fiber basis ``{b^k(z^m), k = 0..n_max}``.

    Expanding ``b^k = (zbar - d/dz)^k`` shows the only monomial of ``b^k(z^m)``
    with z-exponent ``m`` is ``z^m zbar^k``, with coefficient 1; coordinates
    are read off those marker monomials and the residual left after
    subtracting the span is the leakage (a BiPoly).
    """
    if m < 0:
        raise ValueError("vacuum z-degree must be nonnegative")
    size = n_max + 1
    basis = [BiPoly.monomial(m, 0)]
    for _ in range(n_max):
        basis.append(complex_act_b(basis[-1]))
    for k, e in enumerate(basis):
        if e.coeff(m, k) != 1 or any(e.coeff(m, r) for r in range(size) if r != k):
            raise SingularBasisError(
                f"fiber basis element {k} lost its marker monomial z^{m} zbar^{k}"
            )
    columns = []
    for k in range(size):
        w, coords = ComplexPlane().apply(u, basis[k]), [Fraction(0)] * size
        for r in range(n_max, -1, -1):
            coords[r] = w.coeff(m, r)
            if coords[r]:
                w = w - basis[r].scale(coords[r])
        columns.append((coords, w))
    return FlagMatrix.from_columns(columns)


def quasi_monomial_change(delta: RationalLike, n_max: int) -> Tuple[Tuple[Rational, ...], ...]:
    """Basis-change matrix from products ``x (x-d) ... (x-(k-1)d)`` to monomials.

    Column ``k`` holds the monomial coefficients of the k-th product (the
    empty product for k = 0), so the matrix is lower-triangular with unit
    diagonal.  Its entries are signed, delta-scaled Stirling numbers of the
    first kind.
    """
    delta = as_rational(delta)
    if not delta:
        raise ValueError("delta must be nonzero")
    size = n_max + 1
    cols = [UniPoly.one()]
    for k in range(n_max):
        p = cols[-1]
        cols.append(p.times_x() - p.scale(k * delta))
    return tuple(
        tuple(cols[k].coeff(r) for k in range(size)) for r in range(size)
    )
