"""Exact normal-ordered calculus for the Heisenberg enveloping algebra.

An element is a finite sum ``sum A[i,j] * b^i * a^j`` with exact rational
coefficients, where the generators satisfy ``a*b - b*a = 1``.  The normal
form keeps every ``b`` to the left of every ``a``; products are reordered
with the closed formula

    a^j * b^i = sum_k  k! * C(i,k) * C(j,k) * b^(i-k) * a^(j-k),

which the test suite validates against iterated rewriting of ``a*b`` into
``b*a + 1``.  A product sums these terms as integer numerators over one
common denominator and reduces each coefficient once, to a ``Fraction``.

The abstract state space is spanned by vectors ``b^k|0>`` with ``a|0> = 0``,
so a monomial acts through the falling factorial:

    b^i a^j : b^k|0>  ->  k(k-1)...(k-j+1) * b^(k-j+i)|0>.

All values are immutable after construction and every operation is a pure
function, so elements can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm
import operator
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Tuple, Union

Rational = Fraction
RationalLike = Union[Fraction, int, str]
_ZERO = Fraction(0)  # shared by every zero coefficient read off integer numerators

#: Default bound on each generator exponent.  Exceeding it is a hard error,
#: never a silent truncation.
DEFAULT_DEGREE_CAP = 64


class DegreeOverflowError(Exception):
    """Raised when a generator exponent exceeds the configured cap."""

    def __init__(self, exponent: int, cap: int):
        super().__init__(f"generator exponent {exponent} exceeds degree cap {cap}")
        self.exponent = exponent
        self.cap = cap


def as_rational(value: RationalLike) -> Rational:
    """Coerce an int, Fraction or ``"p/q"`` string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _fraction(num: int, den: int) -> Fraction:
    """``Fraction(num, den)`` of a reduced pair (``den > 0``) without a second
    gcd; it relies on ``Fraction``'s private slots, unchanged in 3.10-3.13."""
    x = object.__new__(Fraction)
    x._numerator, x._denominator = num, den
    return x


def falling(k: int, j: int) -> int:
    """Falling factorial ``k (k-1) ... (k-j+1)``; zero when ``j > k >= 0``."""
    out = 1
    for t in range(j):
        out *= k - t
    return out


TermKey = Tuple[int, int]
TermMap = Mapping[TermKey, Rational]


class WeylElement:
    """Normal-ordered element: a map from ``(b-exp, a-exp)`` to coefficient.

    Repeated keys are summed and zero coefficients dropped on construction,
    so the stored map is the unique normal form.  Instances are immutable
    and hashable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[TermMap, Iterable[Tuple[TermKey, RationalLike]], None] = None):
        acc: dict[TermKey, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else (terms or ())
        for (i, j), c in items:
            i, j = int(i), int(j)
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent ({i}, {j})")
            c = as_rational(c)
            if c:
                key = (i, j)
                acc[key] = acc.get(key, Fraction(0)) + c
        object.__setattr__(self, "_terms", {k: v for k, v in acc.items() if v})

    @staticmethod
    def _of(acc: dict) -> "WeylElement":
        """Element of an already summed map of ``Fraction``s; zeros are dropped."""
        u = object.__new__(WeylElement)
        u._terms = {k: v for k, v in acc.items() if v}
        return u

    @property
    def terms(self) -> TermMap:
        """Read-only view of the coefficient map."""
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, i: int, j: int) -> Rational:
        return self._terms.get((i, j), Fraction(0))

    # -- basic structure ---------------------------------------------------

    @classmethod
    def zero(cls) -> "WeylElement":
        return cls._of({})

    @classmethod
    def identity(cls) -> "WeylElement":
        return cls._of({(0, 0): Fraction(1)})

    # -- equality / hashing ------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self == WeylElement({(0, 0): other})
        if type(other) is type(self):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- arithmetic sugar (delegates to the module-level operations) --------

    def __add__(self, other: Union["WeylElement", RationalLike]) -> "WeylElement":
        if isinstance(other, WeylElement):
            return add(self, other)
        return add(self, WeylElement({(0, 0): other}))

    __radd__ = __add__

    def __neg__(self) -> "WeylElement":
        return scale(Fraction(-1), self)

    def __sub__(self, other: Union["WeylElement", RationalLike]) -> "WeylElement":
        return self + (-other if isinstance(other, WeylElement) else -as_rational(other))

    def __rsub__(self, other: RationalLike) -> "WeylElement":
        return (-self) + other

    def __mul__(self, other: Union["WeylElement", RationalLike]) -> "WeylElement":
        if isinstance(other, WeylElement):
            return multiply(self, other)
        return scale(as_rational(other), self)

    def __rmul__(self, other: RationalLike) -> "WeylElement":
        return scale(as_rational(other), self)

    def __truediv__(self, other: RationalLike) -> "WeylElement":
        return scale(1 / as_rational(other), self)

    def __pow__(self, n: int) -> "WeylElement":
        return power(self, n)

    # -- canonical text form -------------------------------------------------

    def __str__(self) -> str:
        return canonical_text(self)

    def __repr__(self) -> str:
        return f"WeylElement({canonical_text(self)!r})"


def canonical_order(key: TermKey) -> Tuple[int, int]:
    """Sort key: descending total degree, then descending a-exponent."""
    i, j = key
    return (-(i + j), -j)


def canonical_text(u: WeylElement) -> str:
    """Deterministic text form, e.g. ``-1*a^2 + b*a``.

    Terms are joined by ``" + "``; each term prints as ``c*b^i*a^j`` with
    unit coefficients and zero exponents omitted.  The zero element prints
    as ``"0"``.  Parsing the output reproduces the element exactly.
    """
    if u.is_zero:
        return "0"
    parts = []
    for (i, j) in sorted(u._terms, key=canonical_order):
        c = u._terms[(i, j)]
        gens = []
        if i:
            gens.append("b" if i == 1 else f"b^{i}")
        if j:
            gens.append("a" if j == 1 else f"a^{j}")
        if not gens:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(gens))
        else:
            parts.append("*".join([str(c)] + gens))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def make(coeff: RationalLike, i: int, j: int, cap: int = DEFAULT_DEGREE_CAP) -> WeylElement:
    """Single-term element ``coeff * b^i * a^j`` (zero element if coeff is 0)."""
    for e in (i, j):
        if e > cap:
            raise DegreeOverflowError(e, cap)
    if i < 0 or j < 0:
        raise ValueError(f"negative exponent ({i}, {j})")
    return WeylElement._of({(i, j): as_rational(coeff)})


def add(u: WeylElement, v: WeylElement) -> WeylElement:
    acc = dict(u._terms)
    for key, c in v._terms.items():
        acc[key] = acc[key] + c if key in acc else c
    return WeylElement._of(acc)


def scale(c: RationalLike, u: WeylElement) -> WeylElement:
    c = as_rational(c)
    return WeylElement._of({key: c * v for key, v in u._terms.items()})


def multiply(u: WeylElement, v: WeylElement, cap: int = DEFAULT_DEGREE_CAP) -> WeylElement:
    """Exact normal form of the noncommutative product ``u * v``.

    Crossing the a-block of one term past the b-block of the next uses the
    closed reordering formula; exponents beyond ``cap`` raise.  The terms
    are summed in integers over one common denominator, each sum reduced once.
    """
    du = lcm(*[c.denominator for c in u._terms.values()])
    dv = lcm(*[c.denominator for c in v._terms.values()])
    vs = [(i2, j2, c.numerator * (dv // c.denominator)) for (i2, j2), c in v._terms.items()]
    acc: dict[TermKey, int] = {}
    for (i1, j1), c1 in u._terms.items():
        n1 = c1.numerator * (du // c1.denominator)
        for i2, j2, n2 in vs:
            if i1 + i2 > cap:
                raise DegreeOverflowError(i1 + i2, cap)
            if j1 + j2 > cap:
                raise DegreeOverflowError(j1 + j2, cap)
            n12, t = n1 * n2, 1  # t = k! * C(j1, k) * C(i2, k)
            for k in range(min(j1, i2) + 1):
                if k:
                    t = t * (j1 - k + 1) * (i2 - k + 1) // k
                key = (i1 + i2 - k, j1 + j2 - k)
                acc[key] = acc.get(key, 0) + n12 * t
    d = du * dv
    return WeylElement._of({
        key: _fraction(x // (g := gcd(x, d)), d // g) for key, x in acc.items() if x
    })


def commutator(u: WeylElement, v: WeylElement, cap: int = DEFAULT_DEGREE_CAP) -> WeylElement:
    return add(multiply(u, v, cap), scale(-1, multiply(v, u, cap)))


def power(u: WeylElement, n: int, cap: int = DEFAULT_DEGREE_CAP) -> WeylElement:
    """``u^n`` by square-and-multiply, in O(log n) products.

    The base is squared only while a higher bit of ``n`` is left, so every
    product is a factor of ``u^n`` and exceeds the cap only if ``u^n``
    does (the exponent named in that error is the first product's that
    exceeds it).
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a nonnegative integer")
    out = WeylElement.identity()
    while n:
        if n & 1:
            out = multiply(out, u, cap)
        n >>= 1
        if n:
            u = multiply(u, u, cap)
    return out


def horner(coeffs: Sequence, x):
    """``sum coeffs[k] x^k`` by Horner's rule from the top coefficient down:
    exact over rationals, and in one fixed operation order over floats and
    complex numbers."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def taylor_shift_one(ints: Sequence[int]) -> list:
    """Integer coefficients of ``f(x + 1)`` for ``f = sum ints[d] x^d``:
    reversed, the shift is ``n`` passes of prefix sums (``n`` the degree)."""
    r = list(ints)[::-1]
    for m in range(len(r), 1, -1):
        r[:m] = accumulate(r[:m])
    return r[::-1]


class FockVector:
    """Vector ``sum coeffs[k] * b^k|0>``; trailing zeros trimmed, () is zero.

    Under the differential realization ``b^k|0>`` is ``x^k``, so the same
    type is the polynomial ``sum coeffs[k] x^k`` (``realizations.UniPoly``).

    The coefficients are integer numerators over one positive common
    denominator, normalized so that trailing zero numerators are trimmed
    and numerators and denominator have gcd 1.  Arithmetic is integer
    arithmetic with one normalization per operation, the fraction-free idea
    of Bareiss (Math. Comp. 22, 1968); ``coeffs``, the tuple of
    ``Fraction``s, is divided out only when it is read (the lcm of reduced
    denominators is coprime to the numerators it gives).  Instances are
    immutable.
    """

    __slots__ = ("_coeffs", "_nums", "_den")

    def __init__(self, coeffs: Sequence[RationalLike] = ()):
        cs = [as_rational(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self._den = lcm(*(c.denominator for c in cs))
        self._nums = tuple(c.numerator * (self._den // c.denominator) for c in cs)
        self._coeffs = tuple(cs)

    @classmethod
    def _of(cls, nums: Tuple[int, ...], den: int) -> "FockVector":
        """Vector of already normalized numerators over ``den``."""
        v = object.__new__(cls)
        v._coeffs, v._den, v._nums = None, den, nums
        return v

    @classmethod
    def _normalized(cls, nums: list, den: int) -> "FockVector":
        """Vector of ``nums / den`` (``den > 0``), trimmed and reduced."""
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(den, *nums)
        if g != 1:
            nums, den = [x // g for x in nums], den // g
        return cls._of(tuple(nums), den)

    @property
    def numerators(self) -> Tuple[int, ...]:
        """Integer numerators over the common denominator; they and the
        denominator have gcd 1, so they are the coefficients scaled by the
        lcm of their denominators."""
        return self._nums

    @property
    def coeffs(self) -> Tuple[Rational, ...]:
        if self._coeffs is None:
            self._coeffs = tuple(Fraction(x, self._den) if x else _ZERO for x in self._nums)
        return self._coeffs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # numerators and denominator are normalized, so unique
        return self._nums == other._nums and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(coeffs={self.coeffs!r})"

    @classmethod
    def basis(cls, k: int, coeff: RationalLike = 1) -> "FockVector":
        c = as_rational(coeff)
        return cls._normalized([0] * k + [c.numerator], c.denominator)

    @classmethod
    def one(cls) -> "FockVector":
        return cls._of((1,), 1)

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def degree(self) -> int:
        """Top degree with nonzero coefficient, or -1 for the zero vector."""
        return len(self._nums) - 1

    def __getitem__(self, k: int) -> Rational:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "FockVector") -> "FockVector":
        return FockVector.combination([(self, 1), (other, 1)])

    def __neg__(self) -> "FockVector":
        return self.scale(-1)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return FockVector.combination([(self, 1), (other, -1)])

    @staticmethod
    def combination(pairs: Iterable[Tuple["FockVector", RationalLike]]) -> "FockVector":
        """``sum c * v`` over the ``(v, c)`` pairs, accumulated in integers
        over the lcm of the denominators of the terms and normalized once;
        an empty sum is the zero vector."""
        terms = []
        for v, c in pairs:
            if type(c) is not int:
                c = as_rational(c)
            if c:
                nums, den = v._nums, v._den
                if nums:
                    terms.append((len(nums), nums, c.numerator, c.denominator * den))
        if not terms:
            return FockVector()
        terms.sort(key=operator.itemgetter(0), reverse=True)  # the longest first
        den = lcm(*[d for _, _, _, d in terms])
        acc = None
        for size, nums, s, d in terms:
            f = den // d * s
            scaled = nums if f == 1 else map(f.__mul__, nums)
            if acc is None:
                acc = list(scaled)
            else:
                acc[:size] = map(operator.add, acc, scaled)
        return FockVector._normalized(acc, den)

    def scale(self, c: RationalLike) -> "FockVector":
        """``c`` times the vector.  The pair is reduced and so is ``c = s/t``,
        so the gcd of ``s * nums`` and ``t * den`` is ``gcd(s, den) *
        gcd(t, nums)``, found without a pass over products."""
        c = as_rational(c)
        if not c:
            return FockVector()
        nums, den = self._nums, self._den
        g1, g2 = gcd(c.numerator, den), gcd(c.denominator, *nums)
        s = c.numerator // g1
        nums = [x // g2 * s for x in nums] if g2 != 1 else [x * s for x in nums]
        return FockVector._of(tuple(nums), den // g1 * (c.denominator // g2))

    def monic(self) -> "FockVector":
        nums, den = self._nums, self._den
        return self.scale(Fraction(den, nums[-1]))

    def __divmod__(self, den: "FockVector") -> Tuple["FockVector", "FockVector"]:
        """Polynomial long division: quotient and remainder.

        Fraction-free: with ``lead`` the divisor's top numerator, each step
        scales the remainder by ``lead / gcd(lead, top)`` so that the top
        cancels in integers; the product ``s`` of those factors divides out
        once at the end."""
        num, dn, d, dd = self._nums, self._den, den._nums, den._den
        lead, top, s = d[-1], len(d) - 1, 1
        rem, q = list(num), [0] * max(len(num) - top, 0)
        for shift in range(len(q) - 1, -1, -1):
            f = rem[shift + top]
            if not f:
                continue
            g = gcd(lead, f)
            m, f = lead // g, f // g
            if m != 1:
                rem, q, s = [m * x for x in rem], [m * x for x in q], s * m
            q[shift] = f
            for i, c in enumerate(d):
                rem[shift + i] -= f * c
        if s < 0:
            rem, q, s = [-x for x in rem], [-x for x in q], -s
        return (
            FockVector._normalized([x * dd for x in q], s * dn),
            FockVector._normalized(rem[:top], s * dn),
        )

    def times_x(self) -> "FockVector":
        if self.is_zero:
            return self
        nums, den = self._nums, self._den
        return FockVector._of((0,) + nums, den)

    def derivative(self) -> "FockVector":
        nums, den = self._nums, self._den
        return FockVector._normalized([d * c for d, c in enumerate(nums)][1:], den)

    def shifted(self, h: RationalLike) -> "FockVector":
        """Exact ``f(x + h)`` by an integer Taylor shift (von zur Gathen and
        Gerhard, ISSAC 1997).

        With ``h = s/t``, ``n`` the degree and ``f = sum c_d x^d / D``,
        ``q_d = c_d s^d t^(n-d)`` are the integer coefficients of
        ``D t^n f(h y)``.  Shifting them by one (``taylor_shift_one``) gives
        ``q'``, and ``f(x + h)`` is ``sum (q'_r / s^r) t^r x^r / (D t^n)``,
        the division by ``s^r`` exact.
        """
        h = as_rational(h)
        if not h or self.is_zero:
            return self
        nums, den = self._nums, self._den
        s, t, n = h.numerator, h.denominator, len(nums) - 1
        q = taylor_shift_one([c * s**d * t ** (n - d) for d, c in enumerate(nums)])
        out = [v // s**d * t**d for d, v in enumerate(q)]
        return FockVector._normalized(out, den * t**n)

    def __call__(self, x: RationalLike) -> Rational:
        return horner(self.coeffs or (_ZERO,), as_rational(x))

    def _cut(self, n: int) -> Tuple["FockVector", "FockVector"]:
        """The part of degrees ``0..n`` and the part above ``n``."""
        low, high = list(self._nums[:n + 1]), [0] * (n + 1) + list(self._nums[n + 1:])
        return FockVector._normalized(low, self._den), FockVector._normalized(high, self._den)

    def split(self, n: int) -> Tuple[Tuple[Rational, ...], "FockVector"]:
        """Coefficients of degrees ``0..n``, and the part above ``n`` (zero
        below): a flag-matrix column and its leakage out of that span."""
        return self.coeffs[:n + 1], self._cut(n)[1]


def fock_apply(u: WeylElement, k: int) -> FockVector:
    """Exact image of ``b^k|0>`` under ``u`` via the falling-factorial action."""
    if k < 0:
        raise ValueError("basis degree must be nonnegative")
    terms = [(k - j + i, c, falling(k, j)) for (i, j), c in u._terms.items() if j <= k]
    den = lcm(*[c.denominator for _, c, _ in terms])
    acc = [0] * (max([d for d, _, _ in terms], default=-1) + 1)
    for d, c, f in terms:
        acc[d] += c.numerator * (den // c.denominator) * f
    return FockVector._normalized(acc, den)


@dataclass(frozen=True)
class FlagMatrix:
    """Matrix of an operator on a degree-filtered basis, plus overflow records.

    ``columns[c]``, integer numerators over a denominator, is the in-span
    image of basis vector ``c``; ``entries[r][c]`` is its coefficient of
    basis vector ``r``, a ``Fraction`` built only when read.  ``leakage``
    maps a column to the part of its image that escapes the truncated basis:
    a :class:`FockVector` of degrees beyond the cut for Fock and univariate
    bases, a bivariate remainder for complex-plane fiber bases.  Empty
    leakage for every column means the truncated span is invariant.
    """

    columns: Tuple[FockVector, ...]
    leakage: Mapping[int, object]

    def __post_init__(self):
        object.__setattr__(self, "leakage", MappingProxyType(dict(self.leakage)))

    @classmethod
    def from_columns(cls, columns: Sequence[Tuple[FockVector, object]]) -> "FlagMatrix":
        """Matrix from one ``(in-span column, leakage)`` pair per column; a
        zero leakage is not recorded."""
        leakage = {k: leak for k, (_, leak) in enumerate(columns) if not leak.is_zero}
        return cls(tuple(col for col, _ in columns), leakage)

    @cached_property
    def entries(self) -> Tuple[Tuple[Rational, ...], ...]:
        size = len(self.columns)
        return tuple(zip(*[c.coeffs + (_ZERO,) * (size - len(c.coeffs)) for c in self.columns]))

    @property
    def size(self) -> int:
        return len(self.columns)

    @property
    def has_leakage(self) -> bool:
        return bool(self.leakage)

    def diagonal(self) -> Tuple[Rational, ...]:
        return tuple(col[k] for k, col in enumerate(self.columns))

    def is_upper_triangular(self) -> bool:
        return all(col.degree <= k for k, col in enumerate(self.columns))


def flag_matrix(u: WeylElement, n_max: int, cap: int = DEFAULT_DEGREE_CAP) -> FlagMatrix:
    """Matrix of ``u`` on the basis ``{b^k|0>, k = 0..n_max}``.

    Column ``k`` is ``fock_apply(u, k)`` cut into its in-range part and an
    overflow record for degrees above ``n_max``.
    """
    if n_max < 0:
        raise ValueError("matrix size bound must be nonnegative")
    if n_max > cap:
        raise DegreeOverflowError(n_max, cap)
    return FlagMatrix.from_columns([fock_apply(u, k)._cut(n_max) for k in range(n_max + 1)])


def eval_poly_in_L0(coeffs: Sequence[RationalLike], cap: int = DEFAULT_DEGREE_CAP) -> WeylElement:
    """Normal form of ``P(b*a)`` for ``P(t) = sum coeffs[k] t^k`` (Horner)."""
    number_op = make(1, 1, 1, cap)
    out = WeylElement.zero()
    for c in reversed([as_rational(c) for c in coeffs]):
        out = add(multiply(out, number_op, cap), WeylElement({(0, 0): c}))
    return out
