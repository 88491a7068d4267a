"""Exact characteristic polynomials, eigenvalues and eigenvectors.

The pipeline is exact-first: restrictions to invariant degree spans are
rational matrices, and an exact similarity to upper Hessenberg form (which
they already have, since they raise the degree of ``b^k|0>`` by at most one)
gives the characteristic polynomial by the leading-minor recurrence.  The
recurrence runs on polynomials that keep integer numerators over one common
denominator (``UniPoly``), so it is integer arithmetic, and the coefficients
are divided out to Fractions only when they are read.  Roots are found per
square-free factor, scaled to a primitive integer polynomial: an integer
Sturm chain isolates the real roots, rational ones are read off their exact
intervals, and every other real root is certified by an exact bracket of
width at most ``tol`` (then Newton-polished in floats).  Durand-Kerner iteration finds complex pairs, certified by
``|p(z)| / (1 + max|coeff|)``.

Cross-realization isospectrality is therefore a decidable, bit-exact
equality of characteristic polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .realizations import ComplexPlane, Realization, UniPoly, realize_matrix
from .weyl import Rational, WeylElement, as_rational, horner

Matrix = List[List[Rational]]

DEFAULT_ROOT_TOL = 1e-12
DEFAULT_ITER_CAP = 500


class LeakageError(Exception):
    """A restriction was requested on a non-invariant degree span."""

    def __init__(self, column: int, overflow: object):
        super().__init__(f"column {column} leaks out of the requested span")
        self.column = column
        self.overflow = overflow


class NonConvergenceError(Exception):
    """Numeric refinement failed; carries whatever roots were found."""

    def __init__(self, message: str, partial: Sequence["Eigenvalue"] = ()):
        super().__init__(message)
        self.partial = tuple(partial)


# ---------------------------------------------------------------------------
# Restriction to an invariant span
# ---------------------------------------------------------------------------


def restrict(
    u: WeylElement, r: Realization, n: int, fiber_m: int = 0
) -> Matrix:
    """The (n+1)x(n+1) matrix of ``u`` on the degree-n span of ``r``.

    Raises :class:`LeakageError` (with the witness column and overflow) if
    the span is not invariant.
    """
    if n < 0:
        raise ValueError("matrix size bound must be nonnegative")
    fm = realize_matrix(u, r.fiber(fiber_m), n)
    if fm.has_leakage:
        col = min(fm.leakage)
        raise LeakageError(col, fm.leakage[col])
    return fm.to_rows()


# ---------------------------------------------------------------------------
# Exact linear algebra over Fraction
# ---------------------------------------------------------------------------


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m, p = len(a), len(b), len(b[0]) if b else 0
    out = [[Fraction(0)] * p for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for k in range(m):
            aik = ai[k]
            if not aik:
                continue
            bk = b[k]
            row = out[i]
            for j in range(p):
                row[j] += aik * bk[j]
    return out


def mat_vec(a: Matrix, v: Sequence[Rational]) -> List[Rational]:
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in a]


def nullspace(a: Matrix) -> List[Tuple[Rational, ...]]:
    """Basis of the exact nullspace: the vector with 1 in one free column
    and 0 in the others, for each free column of a row echelon form (the
    basis that reduced row echelon form gives), by back-substitution."""
    if not a:
        return []
    rows = [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in a]
    n_rows, n_cols = len(rows), len(rows[0])
    pivots: List[int] = []
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
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc, row = pivots[r], rows[r]
            terms = (row[j] * v[j] for j in range(pc + 1, n_cols) if row[j] and v[j])
            v[pc] = -sum(terms, Fraction(0)) / row[pc]
        basis.append(tuple(v))
    return basis


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

    def eval_complex(self, z: complex) -> complex:
        return horner(self.coeffs, z)

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


def char_poly(m: Matrix) -> CharPoly:
    """Exact monic characteristic polynomial: an exact similarity clears
    each column below its subdiagonal (a nonzero entry is swapped onto the
    subdiagonal first), and the leading principal minors of the Hessenberg
    form follow from ``p_k = (t - h_kk) p_{k-1} - sum_{i<k} h_ik
    h_{i+1,i}...h_{k,k-1} p_{i-1}``, a sum that ends at a zero subdiagonal
    or at the top nonzero entry of column k, and is formed as one linear
    combination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("characteristic polynomial needs a square matrix")
    h = [[as_rational(x) for x in row] for row in m]
    for s in range(1, n - 1):  # clear column s - 1 below row s
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
    minors = [UniPoly.one()]
    for k in range(n):
        parts = [(minors[k].times_x(), 1), (minors[k], -h[k][k])]
        top, chain = next((i for i in range(k) if h[i][k]), k), Fraction(1)
        for i in range(k - 1, top - 1, -1):
            chain *= h[i + 1][i]
            if not chain:
                break
            if h[i][k]:
                parts.append((minors[i], -h[i][k] * chain))
        minors.append(UniPoly.combination(parts))
    return CharPoly(minors[n].coeffs)


# ---------------------------------------------------------------------------
# Roots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Eigenvalue:
    """A root: exact rational, or a float approximation with its residual
    ``|p(x)| / (1 + max|coeff|)`` (the certificate of a complex root)."""

    exact: Optional[Rational]
    re: float
    im: float
    residual: float

    @classmethod
    def from_exact(cls, r: Rational) -> "Eigenvalue":
        return cls(exact=r, re=float(r), im=0.0, residual=0.0)

    @classmethod
    def from_numeric(cls, re: float, im: float, residual: float) -> "Eigenvalue":
        return cls(exact=None, re=re, im=im, residual=residual)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None


def _poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd: the last member of the integer remainder sequence."""
    if b.is_zero:
        return a.monic()
    return UniPoly(_sturm_chain(_primitive(a.numerators), _primitive(b.numerators))[-1]).monic()


def _square_free_decomposition(p: UniPoly):
    """Yun's algorithm: yields (factor, multiplicity), factors monic."""
    p = p.monic()
    if p.degree <= 0:
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


def _sign_at(coeffs: Sequence[int], num: int, den: int) -> int:
    """Sign of an integer polynomial at ``num/den`` (``den > 0``): the sign
    of the homogeneous form ``sum c_i num^i den^(d-i)``, by Horner."""
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def _sturm_chain(a: List[int], b: List[int]) -> List[List[int]]:
    """``a``, ``b`` and their negated remainders down to ``gcd(a, b)``: the
    Sturm chain of ``a`` when ``b = a'``.

    Each remainder, from pseudo-division by ``lead^steps``, is scaled by a
    positive factor to a primitive integer polynomial, so signs are kept."""
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


def _variations(chain: Sequence[Sequence[int]], num: int, den: int) -> Tuple[int, bool]:
    """Sign variations of the chain at ``num/den``, and whether that point
    is a root of ``chain[0]``."""
    signs = [_sign_at(p, num, den) for p in chain]
    nonzero = [s for s in signs if s]
    return sum(s1 != s2 for s1, s2 in zip(nonzero, nonzero[1:])), not signs[0]


def _isolate_real_roots(
    chain: Sequence[Sequence[int]],
) -> Tuple[List[Fraction], List[Tuple[int, int, int]]]:
    """Real roots of the square-free ``chain[0]``: the bisection points that
    are roots, and open intervals ``(a/2^k, b/2^k)`` holding one root each.

    ``V(lo) - V(hi)`` counts the roots in ``(lo, hi]``; a bisection point
    that is a root is recorded and not counted again in its left half."""
    p = chain[0]
    # Fujiwara: every root has |z| <= 2 max |c_i / lead|^(1/(d-i)) < bound
    bound = 2 << max([0] + [
        -((p[-1].bit_length() - abs(c).bit_length() - 1) // (len(p) - 1 - i))
        for i, c in enumerate(p[:-1]) if c
    ])
    hits: List[Fraction] = []
    intervals: List[Tuple[int, int, int]] = []
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
            hits.append(Fraction(mid, 1 << k))
        stack.append((2 * a, mid, k, va, vmid, mid_is_root))
        stack.append((mid, 2 * b, k, vmid, vb, b_is_root))
    return hits, intervals


def _refine_real_root(
    chain: Sequence[Sequence[int]], a: int, b: int, k: int, tol: float
) -> Union[Fraction, Tuple[int, int, int]]:
    """Bisect the isolating interval ``(a/2^k, b/2^k)`` of a root of
    ``chain[0]``: the root itself if it is rational, else an exact bracket
    ``(a, b, k)`` of width at most ``tol``.

    A rational root of the primitive ``chain[0]`` with leading coefficient
    ``l`` is ``m/l`` for an integer ``m``, so once the interval is narrower
    than ``1/l`` it holds at most one such point and one exact sign test
    decides it."""
    p, lead = chain[0], chain[0][-1]
    # sign of p just right of lo: of p'(lo) when lo is a recorded root
    left = _sign_at(p, a, 1 << k) or _sign_at(chain[1], a, 1 << k)
    tol_num, tol_den = Fraction(tol).as_integer_ratio()
    tested = False
    while not (tested and (b - a) * tol_den <= tol_num << k):
        if not tested and (b - a) * lead < 1 << k:
            tested = True
            m = (a * lead >> k) + 1  # the one grid point m/l that can lie inside
            if m << k < b * lead and not _sign_at(p, m, lead):
                return Fraction(m, lead)
            continue
        mid, k = a + b, k + 1
        s = _sign_at(p, mid, 1 << k)
        if not s:
            return Fraction(mid, 1 << k)
        a, b = (mid, 2 * b) if s == left else (2 * a, mid)
    return a, b, k


def _newton_polish(p: UniPoly, a: int, b: int, k: int) -> float:
    """Float Newton polish of a root bracketed by ``(a/2^k, b/2^k)``; falls
    back to the bracket midpoint if it leaves the bracket."""
    fc = [float(c) for c in p.coeffs]
    dc = [float(c) for c in p.derivative().coeffs]
    x = mid = (a + b) / (1 << (k + 1))
    for _ in range(8):
        fx = horner(fc, x)
        dfx = horner(dc, x)
        if not dfx:
            break
        step = fx / dfx
        if not math.isfinite(step):
            break
        x -= step
        if abs(step) < 1e-17 * (1 + abs(x)):
            break
    return x if a / (1 << k) <= x <= b / (1 << k) else mid


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
    raise NonConvergenceError(
        f"simultaneous root iteration did not converge in {iter_cap} steps"
    )


def roots(
    p: CharPoly, tol: float = DEFAULT_ROOT_TOL, iter_cap: int = DEFAULT_ITER_CAP
) -> List[Eigenvalue]:
    """All roots of ``p`` as a multiset (list length equals the degree).

    Per square-free factor (Yun): rational roots are exact, read off the
    factor's exact Sturm intervals; other real roots are certified by an
    exact bracket of width at most ``tol``; complex pairs come from
    Durand-Kerner iteration and are certified by the normalized residual
    ``|p(z)| / (1 + max|coeff|)``, which every numeric root reports.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if p.degree == 0:
        return []
    exact_roots: List[Rational] = []
    numeric: List[Tuple[float, float, int]] = []  # (re, im, multiplicity)
    for factor, mult in _square_free_decomposition(p):
        ints = _primitive(factor.numerators)
        chain = _sturm_chain(ints, _primitive([d * c for d, c in enumerate(ints)][1:]))
        rational, intervals = _isolate_real_roots(chain)
        n_complex = factor.degree - len(rational) - len(intervals)
        for a, b, k in intervals:
            found = _refine_real_root(chain, a, b, k, tol)
            if isinstance(found, Fraction):
                rational.append(found)
            else:
                numeric.append((_newton_polish(factor, *found), 0.0, mult))
        exact_roots.extend(r for r in rational for _ in range(mult))
        if n_complex:
            rest = factor
            for r in rational:
                rest = divmod(rest, UniPoly((-r, 1)))[0]
            try:
                approx = _durand_kerner(rest, tol, iter_cap)
            except NonConvergenceError as err:
                raise NonConvergenceError(
                    str(err),
                    partial=[Eigenvalue.from_exact(r) for r in sorted(exact_roots)],
                ) from None
            complex_ones = sorted(approx, key=lambda z: abs(z.imag), reverse=True)[:n_complex]
            paired = [z for z in complex_ones if z.imag > 0]
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
    # float() of a large coefficient overflows; only numeric roots need it
    scale = 1 + max(abs(float(c)) for c in p.coeffs) if numeric else 1.0
    for re, im, mult in sorted(numeric, key=lambda t: (t[0], t[1])):
        residual = abs(p.eval_complex(complex(re, im))) / scale
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


def eigenvector(
    m: Matrix, ev: Eigenvalue, tol: float = DEFAULT_ROOT_TOL
) -> List[Tuple]:
    """Nullspace basis of ``M - ev`` (usually one vector).

    Exact eigenvalues give the exact rational nullspace, each basis vector
    normalized so its highest-index nonzero entry is 1 (leading polynomial
    coefficient).  Numeric eigenvalues use inverse iteration and the unit
    result is checked by its backward error,
    ``||Mv - ev v|| <= 10 * tol * (1 + ||M||_F)``.
    """
    n = len(m)
    if ev.is_exact:
        shifted = [[x - ev.exact if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(m)]
        basis = nullspace(shifted)
        if not basis:
            raise ValueError(f"{ev.exact} is not an eigenvalue of the matrix")
        normalized = []
        for v in basis:
            lead = next(c for c in reversed(v) if c)
            normalized.append(tuple(c / lead for c in v))
        return normalized

    a = np.array([[float(x) for x in row] for row in m])
    lam = complex(ev.re, ev.im)
    eye = np.eye(n)
    if ev.im:
        a = a.astype(complex)
        eye = eye.astype(complex)
    v = np.ones(n, dtype=a.dtype) / math.sqrt(n)
    shift = lam if ev.im else ev.re
    bound = 10 * tol * (1 + np.linalg.norm(a))
    for _ in range(50):
        try:
            w = np.linalg.solve(a - shift * eye, v)
            norm = np.linalg.norm(w)
        except np.linalg.LinAlgError:
            norm = 0.0
        if not np.isfinite(norm) or norm == 0:
            shift = shift * (1 + 1e-13) + 1e-300
            continue
        v = w / norm
        if np.linalg.norm(a @ v - lam * v) <= bound:
            return [tuple(v.tolist())]
    raise NonConvergenceError(
        f"inverse iteration failed to certify an eigenvector at {lam}"
    )


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
    fiber_m: int = 0,
) -> Spectrum:
    """Restrict, solve and pair eigenvalues with eigenvector coefficients."""
    matrix = restrict(u, r, n, fiber_m=fiber_m)
    cp = char_poly(matrix)
    evs = roots(cp, tol=tol, iter_cap=iter_cap)
    pairs = []
    seen: set = set()
    for ev in evs:
        key = ev.exact if ev.is_exact else (ev.re, ev.im)
        if key in seen:
            continue  # one eigenvector set per distinct eigenvalue
        seen.add(key)
        for vec in eigenvector(matrix, ev, tol=tol):
            pairs.append((ev, vec))
    return Spectrum(
        operator=operator_label,
        realization=r.fiber(fiber_m).label,
        degree=n,
        char_poly=cp,
        eigenpairs=tuple(pairs),
    )


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
    fiber_ms: Sequence[int] = (0,),
) -> IsospectralReport:
    """Compare characteristic polynomials bit-exactly across realizations,
    always including the complex-plane fibers listed in ``fiber_ms``."""
    # the complex plane enters once per vacuum listed in fiber_ms
    spaces = [r for r in realizations if r != ComplexPlane()]
    spaces += [ComplexPlane().fiber(m) for m in fiber_ms]
    entries = [(s.label, char_poly(restrict(u, s, n))) for s in spaces]
    first = entries[0][1] if entries else None
    all_equal = all(cp == first for _, cp in entries)
    return IsospectralReport(degree=n, entries=tuple(entries), all_equal=all_equal)
