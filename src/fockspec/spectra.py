"""Exact characteristic polynomials, eigenvalues and eigenvectors.

The pipeline is exact-first: restrictions to invariant degree spans are
rational matrices kept as integer columns (``FlagMatrix``), and an integer
similarity to upper Hessenberg form (which they already have, since they
raise the degree of ``b^k|0>`` by at most one) gives the characteristic
polynomial by the leading-minor recurrence, in integers; its coefficients
are divided out to Fractions only when they are read.  Roots: the diagonal
entries that are roots divide out first, and the rest splits into
square-free factors (Yun's, unless a gcd mod a prime proves it square-free),
each a primitive integer polynomial.  Descartes' rule of signs on integer
Taylor shifts isolates the real roots, quadratic interval refinement on
dyadic points narrows them, rational ones are read off their exact
intervals, and every other real root is certified by an exact bracket of
width at most ``tol`` and reported as the float that both ends of the
bracket round to, the one nearest to the root.  Durand-Kerner iteration
finds complex pairs, certified by ``|p(z)| / (1 + max|coeff|)``.  Exact
eigenvectors reduce the sparse columns of ``M - t I``, ``t`` taken off each
diagonal entry as it is read (the rows of :func:`restrict` remember their
flag matrix, so its columns are read once), with each entry a reduced
integer pair combined by ``Fraction``'s own gcd-saving formulas; numeric
ones come from banded inverse iteration in floats, each accepted by its
backward error for the exact matrix, evaluated in integers.

Cross-realization isospectrality is proved, not recomputed: a realization
whose b-chain passes the Fock-module check has the Fock flag matrix's polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .realizations import ComplexPlane, Realization, UniPoly, realize_matrix
from .weyl import FlagMatrix, Rational, WeylElement, as_rational, flag_matrix
from .weyl import _fraction, horner, taylor_shift_one

Matrix = List[List[Rational]]

DEFAULT_ROOT_TOL = 1e-12
DEFAULT_ITER_CAP = 500
_P = (1 << 61) - 1  # the prime of the square-free certificate


class LeakageError(Exception):
    """A restriction was requested on a non-invariant degree span."""

    def __init__(self, column: int, overflow: object):
        super().__init__(f"column {column} leaks out of the requested span")
        self.column, self.overflow = column, overflow


class NonConvergenceError(Exception):
    """Numeric refinement failed; carries whatever roots were found."""

    def __init__(self, message: str, partial: Sequence["Eigenvalue"] = ()):
        super().__init__(message)
        self.partial = tuple(partial)


# ---------------------------------------------------------------------------
# Restriction to an invariant span
# ---------------------------------------------------------------------------


def _invariant_matrix(u: WeylElement, r: Realization, n: int) -> FlagMatrix:
    """:func:`restrict` as a :class:`FlagMatrix`."""
    if n < 0:
        raise ValueError("matrix size bound must be nonnegative")
    fm = realize_matrix(u, r, n)
    if fm.has_leakage:  # the lowest leaking column and its overflow
        raise LeakageError(*min(fm.leakage.items()))
    return fm


def restrict(u: WeylElement, r: Realization, n: int) -> Matrix:
    """The (n+1)x(n+1) matrix of ``u`` on the degree-n span of ``r`` (for
    ``ComplexPlane(m)``, the span of ``b^k(z^m)``, k <= n).

    The rows remember the :class:`FlagMatrix` they were read from (see
    :class:`_Rows`).  Raises :class:`LeakageError` (with the witness column
    and overflow) if the span is not invariant.
    """
    return _Rows(_invariant_matrix(u, r, n))


# ---------------------------------------------------------------------------
# Exact linear algebra over Fraction: sparse column reduction for nullspaces
# ---------------------------------------------------------------------------


def nullspace(a: Matrix, shift: Rational = 0) -> List[Tuple[Rational, ...]]:
    """Basis of the exact nullspace of ``a - shift I`` that reduced row
    echelon form gives: per free column, the vector that is 1 there, 0 at
    the other free columns and supported on the pivot columns to its left.
    Sparse columns, the shift taken off their diagonal entry as they are read,
    are reduced left to right on their lowest nonzero row (Zomorodian and
    Carlsson, Discrete Comput. Geom. 33 (2005) 249): a column and its
    combination of the columns of ``a`` have the pivot stored at that row
    subtracted, until the row has no pivot (the column becomes it) or the
    column is zero (it is free, and its combination is its basis vector).
    Entries are reduced integer pairs ``(numerator, denominator)``, combined
    inline by ``Fraction``'s own gcd-saving formulas (Knuth, TAOCP Vol. 2,
    4.5.1): each is the reduced fraction that ``Fraction`` would give."""
    n_cols = len(a[0]) if a else 0
    if isinstance(a, _Rows) and a == a.as_read:
        columns = a.columns
    elif any(len(row) != n_cols for row in a):
        raise ValueError("nullspace needs rows of equal length")
    else:
        columns = [{i: Fraction(x).as_integer_ratio() for i, x in enumerate(col) if x}
                   for col in zip(*a)]
    shift, zero = Fraction(shift).as_integer_ratio(), Fraction(0)
    pivots: Dict[int, tuple] = {}  # row: (pivot, its column, its combination)
    basis = []
    for c, col in enumerate(map(dict, columns)):
        if c < len(a) and (diagonal := _sub(*col.pop(c, (0, 1)), *shift))[0]:
            col[c] = diagonal
        comb = {c: (1, 1)}
        while col:
            low = max(col)
            if low not in pivots:
                pivots[low] = (col.pop(low), col, comb)
                break
            (pn, pd), p_col, p_comb = pivots[low]
            xn, xd = col.pop(low)
            g1, g2 = math.gcd(xn, pn) * (1 if pn > 0 else -1), math.gcd(xd, pd)  # f = x / pivot
            fn, fd = xn // g1 * (pd // g2), pn // g1 * (xd // g2)
            for target, source in ((col, p_col), (comb, p_comb)):
                for i, (yn, yd) in source.items():
                    g1, g2 = math.gcd(fn, yd), math.gcd(yn, fd)  # f * y
                    yn, yd = fn // g1 * (yn // g2), fd // g2 * (yd // g1)
                    if (y := _sub(*target.pop(i, (0, 1)), yn, yd))[0]:
                        target[i] = y
        else:
            basis.append(tuple(_fraction(*comb[j]) if j in comb else zero for j in range(n_cols)))
    return basis


def _sub(an: int, ad: int, bn: int, bd: int) -> Tuple[int, int]:
    """``an/ad - bn/bd`` of reduced pairs, reduced as ``Fraction`` does it."""
    g = math.gcd(ad, bd)
    if g == 1:
        return an * bd - ad * bn, ad * bd
    s = ad // g
    t = an * (bd // g) - bn * s
    g2 = math.gcd(t, g)
    return t // g2, s * (bd // g2)


# ---------------------------------------------------------------------------
# Characteristic polynomial
# ---------------------------------------------------------------------------


class CharPoly(UniPoly):
    """Monic polynomial with exact rational coefficients, ascending order."""

    __slots__ = ()

    def __init__(self, coeffs: Sequence[Rational]):
        if not coeffs or as_rational(coeffs[-1]) != 1:
            raise ValueError("characteristic polynomial must be monic")
        super().__init__(coeffs)

    def text(self, var: str = "t") -> str:
        """Readable form such as ``t^2 - 8`` (highest degree first)."""
        parts: List[str] = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if not c:
                continue
            if d == 0:
                body = str(abs(c))
            else:
                power = var if d == 1 else f"{var}^{d}"
                body = power if abs(c) == 1 else f"{abs(c)}*{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"


def _term(p: UniPoly, num: int, den: int) -> Tuple[UniPoly, int]:
    """``num/den`` times ``p``, reduced, as an integer ``combination`` pair."""
    g = math.gcd(num, den)
    return UniPoly._of(p._nums, p._den * (den // g)), num // g


def char_poly(m: Union[Matrix, FlagMatrix]) -> CharPoly:
    """Exact monic characteristic polynomial, in integers, on columns of
    integer numerators over a denominator (those of a :class:`FlagMatrix`;
    rows of rationals are converted once).  A matrix that is not upper
    Hessenberg is scaled to an integer ``A = c M``, and column ``s - 1`` is
    cleared below row ``s`` (a nonzero entry swapped up first) by ``F A G =
    p^2 E A E^-1``, ``F = p I - sum f_i e_i e_s^T``, ``G = p I + sum f_i e_i
    e_s^T`` for the pivot ``p`` and entries ``f_i`` below it; the content
    divides out of ``A`` and ``c``.  The leading principal minors follow from
    ``p_k = (t - h_kk) p_{k-1} - sum_{i<k} h_ik h_{i+1,i}...h_{k,k-1}
    p_{i-1}``, a sum that ends at a zero subdiagonal or at the top nonzero
    entry of column k, and is formed as one linear combination."""
    if isinstance(m, FlagMatrix):
        columns = m.columns
    elif any(len(row) != len(m) for row in m):
        raise ValueError("characteristic polynomial needs a square matrix")
    else:
        columns = [UniPoly(col) for col in zip(*m)]
    n, dens = len(columns), [c._den for c in columns]
    a = [list(c._nums) + [0] * (n - len(c._nums)) for c in columns]
    if any(any(col[k + 2:]) for k, col in enumerate(a)):
        num, den = math.lcm(*dens), 1
        a = [[x * (num // d) for x in col] for col, d in zip(a, dens)]
        for s in range(1, n - 1):  # a[c][r]; clear column s - 1 below row s
            if not any(a[s - 1][s + 1:]):
                continue
            pivot = next(i for i in range(s, n) if a[s - 1][i])
            a[s], a[pivot] = a[pivot], a[s]
            for col in a:
                col[s], col[pivot] = col[pivot], col[s]
            p, f = a[s - 1][s], [x if i > s else 0 for i, x in enumerate(a[s - 1])]
            fa = [[p * x - fi * col[s] for x, fi in zip(col, f)] for col in a]
            a = [[p * x for x in col] for col in fa]
            a[s] = [x + sum(fi * col[r] for fi, col in zip(f, fa)) for r, x in enumerate(a[s])]
            g = math.gcd(*(x for col in a for x in col))
            a, num, den = [[x // g for x in col] for col in a], num * p * p, den * g
        a, dens = [[x * den for x in col] for col in a], [num] * n
    minors = [UniPoly.one()]
    for k, col in enumerate(a):
        parts = [(minors[k].times_x(), 1), _term(minors[k], -col[k], dens[k])]
        top, chain, chain_den = next((i for i in range(k) if col[i]), k), 1, 1
        for i in range(k - 1, top - 1, -1):
            chain, chain_den = chain * a[i][i + 1], chain_den * dens[i]
            if not chain:
                break
            if col[i]:
                parts.append(_term(minors[i], -col[i] * chain, dens[k] * chain_den))
        minors.append(UniPoly.combination(parts))
    return CharPoly._of(minors[n]._nums, minors[n]._den)


# ---------------------------------------------------------------------------
# Roots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Eigenvalue:
    """A root: exact rational, or a float approximation with its residual
    ``|p(x)| / (1 + max|coeff|)`` (the certificate of a complex root).  For
    a real root ``re`` is the float nearest to it (infinite for an exact one
    beyond float range)."""

    exact: Optional[Rational]
    re: float
    im: float
    residual: float

    @classmethod
    def from_exact(cls, r: Rational) -> "Eigenvalue":
        try:
            re = float(r)
        except OverflowError:  # beyond the largest float, which rounds to infinity
            re = math.inf if r > 0 else -math.inf
        return cls(exact=r, re=re, im=0.0, residual=0.0)

    @classmethod
    def from_numeric(cls, re: float, im: float, residual: float) -> "Eigenvalue":
        return cls(exact=None, re=re, im=im, residual=residual)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None


def _poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by Euclid's algorithm, each remainder scaled to a primitive
    integer polynomial (numerators over 1) so that the coefficients do not
    grow."""
    while not b.is_zero:
        a, b = b, UniPoly._of(tuple(_primitive(divmod(a, b)[1].numerators)), 1)
    return a.monic()


def _square_free_decomposition(p: UniPoly):
    """Yun's algorithm: yields (factor, multiplicity), factors monic; just
    ``(p, 1)`` if ``gcd(p, p') = 1`` over GF(_P) and _P does not divide the
    leading coefficient of the primitive ``p``: a square factor would divide
    both mod _P with its degree (W. S. Brown, J. ACM 18 (1971) 478)."""
    p = p.monic()
    if p.degree <= 0:
        return
    ints = _primitive(p.numerators)
    f, g = [c % _P for c in ints], [i * c % _P for i, c in enumerate(ints)][1:]
    while any(g):
        while not g[-1]:
            g.pop()
        inv = pow(g[-1], -1, _P)
        while len(f) >= len(g):  # f mod g: cancel the top term, then drop it
            q = f.pop() * inv % _P
            for t in range(1, len(g)):
                f[-t] = (f[-t] - q * g[-1 - t]) % _P
        f, g = g, f
    if ints[-1] % _P and len(f) == 1:
        yield p, 1
        return
    dp = p.derivative()
    g = _poly_gcd(p, dp)
    c = divmod(p, g)[0]
    d = divmod(dp, g)[0] - c.derivative()
    mult = 1
    while c.degree > 0:
        f = _poly_gcd(c, d)
        if f.degree > 0:
            yield (f, mult)
        c = divmod(c, f)[0]
        d = divmod(d, f)[0] - c.derivative()
        mult += 1


def _primitive(ints: Sequence[int]) -> List[int]:
    """``ints`` divided by their content, so coprime (signs are kept).  The
    numerators of a ``UniPoly`` are its coefficients scaled to integers, so
    this makes its primitive integer polynomial."""
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _value_at(coeffs: Sequence[int], num: int, den: int) -> int:
    """``den^d`` times an integer polynomial at ``num/den`` (``den > 0``), of
    its sign there: ``sum c_i num^i den^(d-i)`` by Horner, by shifts when
    ``den`` is a power of two."""
    acc = 0
    if den & (den - 1):
        scale = 1
        for c in reversed(coeffs):
            acc = acc * num + c * scale
            scale *= den
    else:
        k = den.bit_length() - 1
        for i, c in enumerate(reversed(coeffs)):
            acc = acc * num + (c << k * i)
    return acc


def _isolate_real_roots(
    p: Sequence[int],
) -> Tuple[List[Fraction], List[Tuple[int, int, int]]]:
    """Real roots of the square-free integer polynomial ``p``: the bisection
    points that are roots, and open intervals ``(a/2^k, b/2^k)`` holding one
    root each.

    Vincent-Collins-Akritas bisection (Collins and Akritas, SYMSAC 1976):
    ``q`` is ``p`` on the ``c``-th of ``2^k`` equal parts of ``(-bound,
    bound)``, moved onto ``(0, 1)``.  It has no root there if it has no
    sign variation; else the sign variations of ``(x+1)^d q(1/(x+1))``
    bound its roots there and equal their number when 0 or 1 (Descartes'
    rule of signs).  A part with more is split into ``2^d q(x/2)`` and
    that shifted by one; a bisection point that is a root is recorded,
    divided out of the right half and not counted again in its left half."""
    # Fujiwara: every root has |z| <= 2 max |c_i / lead|^(1/(d-i)) < bound
    bound = 2 << max([0] + [
        -((p[-1].bit_length() - abs(c).bit_length() - 1) // (len(p) - 1 - i))
        for i, c in enumerate(p[:-1]) if c
    ])
    hits: List[Fraction] = []
    intervals: List[Tuple[int, int, int]] = []
    # q(x) = p(bound (2x - 1)), by a shift of p(-bound y) by one
    shifted = taylor_shift_one([c * (-bound) ** i for i, c in enumerate(p)])
    stack = [([c * (-2) ** i for i, c in enumerate(shifted)], 0, 0)]
    while stack:
        q, c, k = stack.pop()
        if min(q) >= 0 or max(q) <= 0:
            continue
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
            hits.append(Fraction(a + bound, 1 << k))
            del right[0]
        stack.append((left, 2 * c, k + 1))
        stack.append((right, 2 * c + 1, k + 1))
    return hits, intervals


def _refine_real_root(
    p: Sequence[int], dp: Sequence[int], a: int, b: int, k: int, tol: float
) -> Union[Fraction, Tuple[int, int, int]]:
    """Refine the isolating interval ``(a/2^k, b/2^k)`` of a root of ``p``
    (``dp`` its derivative) to the root if it is rational, else to an exact
    bracket ``(a, b, k)`` at most ``tol`` wide whose ends round to one float,
    the float nearest to the root.  Quadratic interval refinement (J.
    Abbott, ACM Commun. Comput. Algebra 48 (2014)): a step splits the
    interval into ``N = 2^e`` parts and tests ``p`` at the point ``j``
    (clamped to ``1..N-1``) where the secant through the values at the ends
    meets zero, then at the next point on the root's side.  If the root is
    in that one part it is the new interval and ``e`` doubles; else the side
    learned is kept and ``e`` halves, to 1 (a bisection).  An end where
    ``p`` is zero is a recorded root, never this one, and takes no secant.
    A rational root of the primitive ``p`` is ``m/l``, ``l`` its leading
    coefficient, so once the interval is narrower than ``1/l`` one exact
    sign test decides it.  An irrational root lies on no (dyadic) rounding
    boundary, so the refinement ends; one beyond float range raises
    ``OverflowError``."""
    lead, d, e = p[-1], len(p) - 1, 1
    va, vb = _value_at(p, a, 1 << k), _value_at(p, b, 1 << k)
    # whether p is positive just right of a: p'(a) is when a is a recorded root
    up = va > 0 if va else _value_at(dp, a, 1 << k) > 0
    tol_num, tol_den = Fraction(tol).as_integer_ratio()
    tested = False
    while not (tested and (b - a) * tol_den <= tol_num << k and a / (1 << k) == b / (1 << k)):
        if not tested and (b - a) * lead < 1 << k:
            tested = True
            m = (a * lead >> k) + 1  # the one grid point m/l that can lie inside
            if m << k < b * lead and not _value_at(p, m, lead):
                return Fraction(m, lead)
            continue
        e = e if va and vb else 1  # j = round(N va / (va - vb)) in 1..N-1; at e = 1, a bisection
        j = 1 if e == 1 else min(max((((2 << e) + 1) * va - vb) // (2 * (va - vb)), 1),
                                 (1 << e) - 1)
        w, k = b - a, k + e
        a, b, va, vb = a << e, b << e, va << e * d, vb << e * d
        x = a + j * w
        for _ in range(2):  # x, then its neighbour on the root's side unless that is an end
            if not (v := _value_at(p, x, 1 << k)):
                return Fraction(x, 1 << k)
            if (v > 0) == up:  # the root is right of x
                a, va, x = x, v, x + w
            else:
                b, vb, x = x, v, x - w
            if b - a == w:
                break
        e = 2 * e if b - a == w else max(e // 2, 1)
    return a, b, k


def _durand_kerner(p: UniPoly, tol: float, iter_cap: int) -> List[complex]:
    """Simultaneous iteration for all roots of a square-free polynomial."""
    monic = [complex(c) for c in p.monic().coeffs]
    deg = len(monic) - 1
    radius = 1 + max(abs(c) for c in monic[:-1]) if deg else 1.0
    seed = complex(0.4, 0.9)
    zs = [radius * seed ** (k + 1) for k in range(deg)]
    for _ in range(iter_cap):
        max_step = 0.0
        for i in range(deg):
            num = horner(monic, zs[i])
            den = 1 + 0j
            for j in range(deg):
                if j != i:
                    den *= zs[i] - zs[j]
            if den == 0:
                zs[i] += 1e-8 * (1 + abs(zs[i]))
                max_step = math.inf
                continue
            step = num / den
            zs[i] -= step
            max_step = max(max_step, abs(step))
        if max_step < 1e-15 * (1 + max(abs(z) for z in zs)):
            return zs
    raise NonConvergenceError(f"simultaneous root iteration did not converge in {iter_cap} steps")


def roots(
    p: CharPoly, tol: float = DEFAULT_ROOT_TOL, iter_cap: int = DEFAULT_ITER_CAP,
    candidates: Sequence[Rational] = (),
) -> List[Eigenvalue]:
    """All roots of ``p`` as a multiset (list length equals the degree).

    Each distinct candidate, such as a diagonal entry of the matrix, is
    divided out of the primitive integer ``p`` while it is a root.  Per
    square-free factor of the rest: rational roots are exact, read off the
    factor's exact isolating intervals; other real roots are certified by an
    exact bracket of width at most ``tol`` and given as the float nearest to
    the root; complex pairs come from Durand-Kerner iteration and are
    certified by the normalized residual ``|p(z)| / (1 + max|coeff|)``, which
    every numeric root reports (a real root's exact one, rounded, if the
    float one overflows)."""
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    if p.degree == 0:
        return []
    exact_roots: List[Rational] = []
    numeric: List[Tuple[float, float, int]] = []  # (re, im, multiplicity)
    ints = _primitive(p.numerators)
    for r in dict.fromkeys(map(as_rational, candidates)):
        m, q = r.numerator, r.denominator
        while len(ints) > 1 and not _value_at(ints, m, q):  # divide by q t - m, from the top
            ints = [*accumulate(ints[:0:-1], lambda s, c: (c + m * s) // q, initial=0)][:0:-1]
            exact_roots.append(r)
    for factor, mult in _square_free_decomposition(UniPoly._of(tuple(ints), 1)):
        ints = _primitive(factor.numerators)
        dp = [d * c for d, c in enumerate(ints)][1:]
        rational, intervals = _isolate_real_roots(ints)
        n_complex = factor.degree - len(rational) - len(intervals)
        for a, b, k in intervals:
            found = _refine_real_root(ints, dp, a, b, k, tol)
            if isinstance(found, Fraction):
                rational.append(found)
            else:
                numeric.append((found[0] / (1 << found[2]), 0.0, mult))
        exact_roots.extend(r for r in rational for _ in range(mult))
        if n_complex:
            rest = factor
            for r in rational:
                rest = divmod(rest, UniPoly((-r, 1)))[0]
            try:
                approx = _durand_kerner(rest, tol, iter_cap)
                complex_ones = sorted(approx, key=lambda z: abs(z.imag), reverse=True)[:n_complex]
                paired = [z for z in complex_ones if z.imag > 0]
                if 2 * len(paired) != n_complex or not all(z.imag for z in complex_ones):
                    raise NonConvergenceError("simultaneous root iteration gave no conjugate pairs")
            except NonConvergenceError as err:
                raise NonConvergenceError(
                    str(err),
                    partial=[Eigenvalue.from_exact(r) for r in sorted(exact_roots)],
                ) from None
            for z in paired:
                partner = min(
                    (w for w in complex_ones if w.imag < 0),
                    key=lambda w: abs(w - z.conjugate()),
                )
                re = (z.real + partner.real) / 2
                im = (z.imag - partner.imag) / 2
                numeric.append((re, im, mult))
                numeric.append((re, -im, mult))
    out = [Eigenvalue.from_exact(r) for r in sorted(exact_roots)]
    try:  # complex() of a coefficient beyond float range overflows
        coeffs = [complex(c) for c in p.coeffs] if numeric else []
    except OverflowError:  # then a complex root fails its certificate
        coeffs = []
    scale = 1 + max((abs(c.real) for c in coeffs), default=0.0)
    for re, im, mult in sorted(numeric, key=lambda t: (t[0], t[1])):
        residual = abs(horner(coeffs, complex(re, im))) / scale if coeffs else math.inf
        if not (im or math.isfinite(residual)):  # exactly, at the dyadic float re
            num, den = re.as_integer_ratio()
            top = p._den + max(map(abs, p.numerators))
            residual = abs(_value_at(p.numerators, num, den)) / (den ** p.degree * top)
        if im and residual > tol:
            raise NonConvergenceError(
                f"root {re}+{im}j failed residual certification "
                f"({residual:.3e} > {tol:.3e})",
                partial=out,
            )
        out.extend([Eigenvalue.from_numeric(re, im, residual)] * mult)
    assert len(out) == p.degree
    return out


# ---------------------------------------------------------------------------
# Eigenvectors
# ---------------------------------------------------------------------------


def eigenvector(m: Matrix, ev: Eigenvalue, tol: float = DEFAULT_ROOT_TOL) -> List[Tuple]:
    """Nullspace basis of ``M - ev`` (usually one vector).

    Exact eigenvalues give the exact basis of :func:`nullspace`, whose
    vectors have 1 as their highest-index nonzero entry (leading polynomial
    coefficient).  A numeric eigenvalue gives the first unit iterate of
    inverse iteration from ``ones / sqrt(n)`` (floats, complex for a complex
    pair) that passes :meth:`fockspec.banded.Band.certifies`, ``||Mv - ev
    v|| <= 10 * tol * (1 + ||M||_F)`` for the exact ``M``; a shift that
    makes a pivot zero is nudged, and 50 steps without one raise
    :class:`NonConvergenceError`.
    """
    n, unchanged = len(m), isinstance(m, _Rows) and m == m.as_read  # then square
    if not unchanged and any(len(row) != n for row in m):
        raise ValueError("eigenvector needs a square matrix")
    if ev.is_exact:
        basis = nullspace(m, ev.exact)
        if not basis:
            raise ValueError(f"{ev.exact} is not an eigenvalue of the matrix")
        return basis
    if not n:
        raise ValueError(f"{complex(ev.re, ev.im)} is not an eigenvalue of the matrix")
    from .banded import Band  # imported here, so that exact work never compiles it
    band = m.band if unchanged else Band(m)
    lam = complex(ev.re, ev.im) if ev.im else ev.re
    shift, v = lam, [1 / math.sqrt(n)] * n
    for _ in range(50):
        w = band.solve(shift, v)
        parts = [x for z in w for x in (z.real, z.imag)] if ev.im and w else w or ()
        norm = math.hypot(*parts)
        if not math.isfinite(norm) or norm == 0:
            shift = shift * (1 + 1e-13) + 1e-300
            continue
        v = [z / norm for z in w]
        if band.certifies(v, ev, tol):
            return [tuple(v)]
    raise NonConvergenceError(f"inverse iteration failed to certify an eigenvector at {complex(lam)}")


class _Rows(list):
    """Rows of a :class:`FlagMatrix` that remember it, and what is read off it
    once: each column's nonzero entries by row, as reduced integer pairs
    ``(numerator, denominator)``, and the band.  Rows can change, so these
    are read only while the rows equal ``as_read``, a copy of the entries
    (on unchanged rows, a comparison of pointers)."""

    def __init__(self, flag: FlagMatrix):
        self.flag, self.as_read = flag, [*map(list, flag.entries)]
        super().__init__(map(list.copy, self.as_read))

    @cached_property
    def columns(self) -> List[Dict[int, Tuple[int, int]]]:
        return [{i: (x // g, c._den // g) for i, x in enumerate(c._nums)
                 if x and (g := math.gcd(x, c._den))} for c in self.flag.columns]

    @cached_property
    def band(self):
        from .banded import Band

        return Band(self.as_read)


# ---------------------------------------------------------------------------
# Assembled spectra and isospectrality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spectrum:
    """Characteristic polynomial plus eigenpairs of one restriction."""

    operator: str
    realization: str
    degree: int
    char_poly: CharPoly
    eigenpairs: Tuple[Tuple[Eigenvalue, Tuple], ...]


def spectrum(
    u: WeylElement,
    n: int,
    r: Realization,
    operator_label: str = "",
    tol: float = DEFAULT_ROOT_TOL,
    iter_cap: int = DEFAULT_ITER_CAP,
) -> Spectrum:
    """Restrict to the degree-n span of ``r`` (see :func:`restrict`), solve and
    pair eigenvalues with eigenvector coefficients."""
    matrix = restrict(u, r, n)
    cp = char_poly(matrix.flag)
    evs = dict.fromkeys(roots(cp, tol, iter_cap, matrix.flag.diagonal()))  # one set per eigenvalue
    pairs = tuple((ev, vec) for ev in evs for vec in eigenvector(matrix, ev, tol=tol))
    return Spectrum(operator=operator_label, realization=r.label, degree=n, char_poly=cp,
                    eigenpairs=pairs)


@dataclass(frozen=True)
class IsospectralReport:
    """Characteristic polynomials of one operator across realizations."""

    degree: int
    entries: Tuple[Tuple[str, CharPoly], ...]
    all_equal: bool


def isospectral_check(
    u: WeylElement,
    n: int,
    realizations: Sequence[Realization],
) -> IsospectralReport:
    """Compare characteristic polynomials across the listed spaces, in their
    order: the Fock flag matrix's, for each space whose b-chain passes
    :meth:`Realization.fock_chain`, else the space's own."""
    fock = flag_matrix(u, n, cap=n)
    cp = None if fock.has_leakage else char_poly(fock)  # if F leaks, so does every space
    entries = []
    for s in realizations:
        if isinstance(s, ComplexPlane):  # its columns are F's once its chain passes
            same = _invariant_matrix(u, s, n).columns == fock.columns
        else:  # the chain must also span the degree flag: e_k of degree k
            chain = s.fock_chain(u, n) if cp is not None else None
            same = chain is not None and [e.degree for e in chain] == list(range(len(chain)))
        entries.append((s.label, cp if same else char_poly(_invariant_matrix(u, s, n))))
    all_equal = all(p == entries[0][1] for _, p in entries)
    return IsospectralReport(degree=n, entries=tuple(entries), all_equal=all_equal)
