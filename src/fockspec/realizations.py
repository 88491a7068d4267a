"""Concrete actions of the generators (a, b) on polynomial spaces.

Four realizations of ``[a, b] = 1`` are provided:

* ``Differential``:   a = d/dx,                 b = multiplication by x
* ``DeltaLattice``:   a f = (f(x+d) - f(x))/d,  b f = x f(x-d)
* ``QLattice``:       a x^n = {n}_q x^(n-1),    b x^n = (n+1)/{n+1}_q x^(n+1)
* ``ComplexPlane``:   a = d/dzbar,              b = -d/dz + zbar (on BiPoly)

with ``{n}_q = 1 + q + ... + q^(n-1)``.  Each realization carries its own
actions, label, matrix and Fock-module check of its b-chain.  The univariate realizations
act on :class:`UniPoly` in the monomial basis; a polynomial is the Fock
vector of its coefficients (``x^k`` for ``b^k|0>``), so ``UniPoly`` is
:class:`~fockspec.weyl.FockVector`.  The complex plane acts on
:class:`BiPoly`, whose rows (one zbar-polynomial per power of z) are that
same type; ``ComplexPlane(m)`` is the space spanned by ``b^k(z^m)`` over
the vacuum ``z^m``, one per ``m``.  Every image is one linear combination
of the actions it needs.  Everything is exact: each action maps integer
numerators over a common denominator to the same form, in which matrix
columns stay.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Tuple, Union

from .weyl import (
    FlagMatrix,
    FockVector,
    Rational,
    RationalLike,
    WeylElement,
    as_rational,
    flag_matrix,
)

#: A polynomial in x, ascending coefficients: the Fock vector type itself.
UniPoly = FockVector


class SingularBasisError(Exception):
    """A complex space's b-chain failed the Fock-module check (an implementation bug)."""


class BiPoly:
    """Polynomial in (z, zbar), stored as rows of the one polynomial type:
    row ``p`` is the :class:`UniPoly` in zbar that multiplies ``z^p``, and
    trailing zero rows are trimmed.

    It is built from a map or pairs ``(z-exp, zbar-exp) -> coefficient``,
    with repeated keys summed and zeros dropped, and reads back the same
    way through ``terms``.  Instances are immutable and hashable.
    """

    __slots__ = ("_rows",)

    def __init__(self, terms: Union[Mapping, Iterable, None] = None):
        rows: list = []
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        for (p, q), c in items:
            p, q = int(p), int(q)
            if p < 0 or q < 0:
                raise ValueError(f"negative exponent ({p}, {q})")
            c = as_rational(c)
            if c:
                rows += [[] for _ in range(p + 1 - len(rows))]
                rows[p].append((UniPoly.basis(q, c), 1))
        self._rows = BiPoly._of([UniPoly.combination(row) for row in rows])._rows

    @staticmethod
    def _of(rows: list) -> "BiPoly":
        """BiPoly of the rows, trailing zero rows trimmed."""
        while rows and rows[-1].is_zero:
            rows.pop()
        f = object.__new__(BiPoly)
        f._rows = tuple(rows)
        return f

    def _row(self, p: int) -> UniPoly:
        return self._rows[p] if 0 <= p < len(self._rows) else UniPoly()

    @staticmethod
    def combination(pairs: Iterable[Tuple["BiPoly", RationalLike]]) -> "BiPoly":
        """``sum c * f`` over the ``(f, c)`` pairs, row by row."""
        pairs = [(f._rows, c) for f, c in pairs]
        size = max((len(rows) for rows, _ in pairs), default=0)
        return BiPoly._of([
            UniPoly.combination([(rows[p], c) for rows, c in pairs if p < len(rows)])
            for p in range(size)
        ])

    @classmethod
    def monomial(cls, p: int, q: int, coeff: RationalLike = 1) -> "BiPoly":
        return cls({(p, q): coeff})

    def coeff(self, p: int, q: int) -> Rational:
        return self._row(p)[q]

    @property
    def terms(self) -> Mapping[Tuple[int, int], Rational]:
        """Read-only map from ``(z-exp, zbar-exp)`` to nonzero coefficient."""
        return MappingProxyType({
            (p, q): c
            for p, row in enumerate(self._rows) for q, c in enumerate(row.coeffs) if c
        })

    @property
    def is_zero(self) -> bool:
        return not self._rows

    def __add__(self, other: "BiPoly") -> "BiPoly":
        return BiPoly.combination([(self, 1), (other, 1)])

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return BiPoly.combination([(self, 1), (other, -1)])

    def scale(self, c: RationalLike) -> "BiPoly":
        return BiPoly.combination([(self, c)])

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if self.is_zero:
            return "BiPoly(0)"
        body = " + ".join(f"{c}*z^{p}*zbar^{q}" for (p, q), c in self.terms.items())
        return f"BiPoly({body})"


def complex_act_a(f: BiPoly) -> BiPoly:
    """d/dzbar: z^p zbar^q -> q z^p zbar^(q-1), the derivative of each row."""
    return BiPoly._of([row.derivative() for row in f._rows])


def complex_act_b(f: BiPoly) -> BiPoly:
    """-d/dz + zbar: z^p zbar^q -> -p z^(p-1) zbar^q + z^p zbar^(q+1), so
    row p becomes zbar * (row p) - (p+1) * (row p+1)."""
    return BiPoly._of([
        UniPoly.combination([(row.times_x(), 1), (f._row(p + 1), -(p + 1))])
        for p, row in enumerate(f._rows)
    ])


def q_number(n: int, q: Rational) -> Rational:
    """{n}_q = 1 + q + ... + q^(n-1), by Horner sum (never via division)."""
    acc = Fraction(0)
    for _ in range(n):
        acc = acc * q + 1
    return acc


# ---------------------------------------------------------------------------
# Realizations
# ---------------------------------------------------------------------------


def _is_k_times(v, w, k: int) -> bool:
    """Whether ``v == k * w``, row by row on normalized numerators: ``k * w``
    is ``w``'s numerators times ``k / g`` over ``den / g``, ``g = gcd(k, den)``."""
    if isinstance(w, BiPoly):
        pairs = zip(v._rows, w._rows)
        return len(v._rows) == len(w._rows) and all(_is_k_times(x, y, k) for x, y in pairs)
    g = gcd(k, w._den)
    return v._den * g == w._den and v._nums == tuple(x * (k // g) for x in w._nums)


class Realization:
    """A pair (a, b) with ``[a, b] = 1`` acting on a polynomial space.

    Subclasses define ``act_a``, ``act_b`` and ``label``.
    """

    vacuum = UniPoly.one()  # the b-chain b^k|0> starts here

    def fock_chain(self, u: WeylElement, n_max: int):
        """``e_k = b^k vacuum`` by this realization's ``act_b``, up to ``n_max``
        plus the largest raise ``i - j`` of ``u``; None unless ``a vacuum = 0``
        and ``a e_k = k e_(k-1)`` for each ``k``, which make ``u``'s matrix on
        the ``e_k`` (independent) the Fock flag matrix: the Fock module is unique."""
        chain, top = [self.vacuum], n_max + max([0] + [i - j for i, j in u.terms])
        try:  # a chain that cannot be formed, as at {k}_q = 0, fails too
            ok = self.act_a(self.vacuum).is_zero
            while ok and len(chain) <= top:
                chain.append(self.act_b(chain[-1]))
                ok = _is_k_times(self.act_a(chain[-1]), chain[-2], len(chain) - 1)
        except ValueError:
            ok = False
        return chain if ok else None

    def apply(self, u: WeylElement, p):
        """Image of ``p`` under ``u``: per term ``c*b^i*a^j`` the a-factors
        act first (rightmost in the normal form), then the b-factors.

        Each ``a^j p`` is computed once and each b-chain ``b^i(a^j p)`` once
        per ``j``, both extended only as far as the terms met so far need, in
        term order.  So the actions computed are exactly those of acting term
        by term, and an action that raises does so at the same term.  The
        image is their one linear combination.
        """
        a_powers, b_chains, parts = [p], {}, []
        for (i, j), c in u.terms.items():
            while len(a_powers) <= j:
                a_powers.append(self.act_a(a_powers[-1]))
            chain = b_chains.setdefault(j, [a_powers[j]])
            while len(chain) <= i:
                chain.append(self.act_b(chain[-1]))
            parts.append((chain[i], c))
        return type(p).combination(parts)

    def matrix(self, u: WeylElement, n_max: int) -> FlagMatrix:
        """Matrix of ``u`` in the monomial basis ``{x^0 .. x^n_max}``, with
        image coefficients above ``n_max`` recorded as leakage."""
        return FlagMatrix.from_columns(
            [self.apply(u, UniPoly.basis(k))._cut(n_max) for k in range(n_max + 1)]
        )


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
        object.__setattr__(self, "_back", -self.delta)  # once, not per action
        object.__setattr__(self, "_inverse", 1 / self.delta)

    @property
    def label(self) -> str:
        return f"delta={self.delta}"

    def act_a(self, p: UniPoly) -> UniPoly:
        return (p.shifted(self.delta) - p).scale(self._inverse)

    def act_b(self, p: UniPoly) -> UniPoly:
        return p.shifted(self._back).times_x()


@dataclass(frozen=True)
class QLattice(Realization):
    """Exponential-lattice pair built from the dilation x -> q x.  With
    ``q = s/t``, ``{k}_q = N_k / t^(k-1)`` for the integer ``N_k = (s^k -
    t^k) / (s - t)``, so the actions keep integer numerators."""

    q: Rational

    def __post_init__(self):
        object.__setattr__(self, "q", as_rational(self.q))
        if self.q in (0, 1):
            raise ValueError("q must differ from 0 and 1")

    @property
    def label(self) -> str:
        return f"q={self.q}"

    def _n(self, k: int) -> int:
        """``N_k``; zero exactly when ``{k}_q`` is."""
        s, t = self.q.numerator, self.q.denominator
        return (s**k - t**k) // (s - t)

    def matrix(self, u: WeylElement, n_max: int) -> FlagMatrix:
        # a x^k = 0 where {k}_q = 0, so [a, b] = 1 fails on a span holding x^k
        for k in (k for k in range(1, n_max + 1) if not self._n(k)):
            raise ValueError(f"q-lattice pair is not a Heisenberg pair on degrees "
                             f"0..{n_max}: {{{k}}}_q = 0 for q = {self.q}")
        return super().matrix(u, n_max)

    def act_a(self, p: UniPoly) -> UniPoly:
        """``c x^n -> {n}_q c x^(n-1) = N_n t^(d-n) c / t^(d-1) x^(n-1)``,
        ``d`` the degree of ``p``."""
        t, d = self.q.denominator, p.degree
        out = [c * self._n(n) * t ** (d - n) if c else 0 for n, c in enumerate(p._nums) if n]
        return UniPoly._normalized(out, p._den * t ** max(d - 1, 0))

    def act_b(self, p: UniPoly) -> UniPoly:
        """``c x^n -> (n+1) t^n / N_(n+1) c x^(n+1)``, over the lcm of the
        ``N_(n+1)``; a vanishing one raises at the lowest term meeting it."""
        t, ns = self.q.denominator, {n: self._n(n + 1) for n, c in enumerate(p._nums) if c}
        for n in (n for n, x in ns.items() if not x):
            raise ValueError(f"raising action undefined: {{{n + 1}}}_q = 0 for q = {self.q}")
        big = lcm(*ns.values())
        out = [0] + [c * (n + 1) * t**n * (big // ns[n]) if c else 0 for n, c in enumerate(p._nums)]
        return UniPoly._normalized(out, p._den * big)


@dataclass(frozen=True)
class ComplexPlane(Realization):
    """a = d/dzbar, b = -d/dz + zbar, acting on BiPoly, with the vacuum ``z^m``."""

    m: int = 0
    act_a = staticmethod(complex_act_a)
    act_b = staticmethod(complex_act_b)
    vacuum = property(lambda self: BiPoly._of([UniPoly()] * self.m + [UniPoly.one()]))  # z^m

    @property
    def label(self) -> str:
        return f"complex m={self.m}"

    def matrix(self, u: WeylElement, n_max: int) -> FlagMatrix:
        return complex_fiber_matrix(u, self.m, n_max)


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
    """Matrix of ``u`` on the fiber basis ``{e_k = b^k(z^m), k = 0..n_max}``.  Once
    the chain passes :meth:`Realization.fock_chain` (else :class:`SingularBasisError`),
    its columns are the Fock flag matrix F's and column k leaks ``sum_{l>n_max} F_lk e_l``."""
    if m < 0:
        raise ValueError("vacuum z-degree must be nonnegative")
    fock, chain = flag_matrix(u, n_max, cap=n_max), ComplexPlane(m).fock_chain(u, n_max)
    if chain is None:
        raise SingularBasisError(f"fiber chain b^k(z^{m}) fails a e_k = k e_(k-1)")
    return FlagMatrix(fock.columns, {
        k: BiPoly.combination([(chain[l], c) for l, c in enumerate(leak.coeffs) if c])
        for k, leak in fock.leakage.items()
    })


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
        tuple(cols[k][r] for k in range(size)) for r in range(size)
    )
