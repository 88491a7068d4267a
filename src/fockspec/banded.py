"""Numeric eigenvectors of rational matrices, on their band: inverse
iteration solves in floats, and an exact backward-error certificate in
integers.

:func:`fockspec.spectra.eigenvector` imports this module on its first
numeric eigenvalue.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import mul
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from .spectra import Eigenvalue, Matrix


class Band:
    """What inverse iteration reads of a square rational matrix ``M``: per
    row, its first nonzero column ``lo`` and its entries from there to its
    last nonzero one, as correctly rounded floats and as integer numerators
    ``N`` over the lcm ``den`` of all denominators; the lower and upper
    bandwidth; and ``||M||_F = sqrt(S) / den``, ``S = sum N_ij^2``, rounded
    down to ``frobenius / (2^32 den)``."""

    def __init__(self, m: Matrix):
        n, ratios = len(m), []
        for i, row in enumerate(m):
            cols = list(compress(range(n), row)) or [i]
            ratios.append((cols[0], [x.as_integer_ratio() for x in row[cols[0]:cols[-1] + 1]]))
        self.lower = max(i - lo for i, (lo, _) in enumerate(ratios))
        self.upper = max(lo + len(r) - 1 - i for i, (lo, r) in enumerate(ratios))
        self.floats = [(lo, [a / d for a, d in r]) for lo, r in ratios]
        self.den = math.lcm(*(d for _, r in ratios for _, d in r))
        self.nums = [(lo, lo + len(r), [a * (self.den // d) for a, d in r]) for lo, r in ratios]
        self.frobenius = math.isqrt(sum(x * x for *_, r in self.nums for x in r) << 64)

    def solve(self, shift, v) -> Optional[list]:
        """``w`` with ``(M - shift I) w = v`` in floats, or ``None`` if a
        pivot is zero.  Gaussian elimination of column ``k`` takes the
        largest of the ``lower + 1`` entries that can be nonzero there as
        its pivot (by ``|re| + |im|`` for complex entries, as LAPACK does),
        so the rows of ``U`` reach ``lower + upper`` places right of the
        diagonal."""
        n, lower, reach = len(v), self.lower, self.lower + self.upper + 1
        size = abs if isinstance(shift, float) else lambda z: abs(z.real) + abs(z.imag)
        a, b = [], list(v)
        for i, (lo, entries) in enumerate(self.floats):
            dense = [0.0] * n
            dense[lo:lo + len(entries)] = entries
            dense[i] -= shift
            a.append(dense)
        for k in range(n):
            last, end = min(n, k + lower + 1), min(n, k + reach)
            p, best = k, size(a[k][k])
            for i in range(k + 1, last):
                if size(a[i][k]) > best:
                    p, best = i, size(a[i][k])
            if not best:
                return None
            top = a[p]
            a[k], a[p], b[k], b[p] = top, a[k], b[p], b[k]
            pivot, bk = top[k], b[k]
            for i in range(k + 1, last):
                row = a[i]
                f = row[k] / pivot
                if f:
                    for j in range(k + 1, end):
                        row[j] -= f * top[j]
                    b[i] -= f * bk
        w = [0.0] * n
        for k in range(n - 1, -1, -1):
            row, acc = a[k], b[k]
            for j in range(k + 1, min(n, k + reach)):
                acc -= row[j] * w[j]
            w[k] = acc / row[k]
        return w

    def residual(self, v: Sequence, ev: Eigenvalue) -> Tuple[int, int]:
        """``(e, T)`` with ``||Mv - ev v||^2 = e / (T^4 den^2)`` exactly, for
        ``v`` (complex when ``ev`` is) and ``ev`` read as the dyadic
        rationals they are: over their largest denominator ``T``, ``v = (x +
        iy) / T`` and ``ev = (l + il') / T``, and the residual times ``T^2
        den`` has the integer real part ``T N x - den (l x - l' y)`` and
        imaginary part ``T N y - den (l y + l' x)``."""
        parts = [*(z.real for z in v), *(z.imag for z in v)] if ev.im else v
        dyadic = [x.as_integer_ratio() for x in (ev.re, ev.im, *parts)]
        top = max(d for _, d in dyadic)
        l, l_, *ints = [a * (top // d) for a, d in dyadic]
        x, y = ints[:len(v)], ints[len(v):] or [0] * len(v)
        dl, dl_ = self.den * l, self.den * l_
        err = sum(
            (top * sum(map(mul, r, p[lo:hi])) - dl * pi + s * qi) ** 2
            for p, q, s in ([(x, y, dl_), (y, x, -dl_)] if l_ else [(x, y, 0)])
            for (lo, hi, r), pi, qi in zip(self.nums, p, q)
        )
        return err, top

    def certifies(self, v: Sequence, ev: Eigenvalue, tol: float) -> bool:
        """``||Mv - ev v||^2 <= (10 tol (1 + ||M||_F))^2``, decided in
        integers on :meth:`residual`, with ``tol`` read as the rational it is
        and ``||M||_F`` rounded down."""
        err, top = self.residual(v, ev)
        tn, td = tol.as_integer_ratio()
        return err * td * td << 64 <= (10 * tn * ((self.den << 32) + self.frobenius)) ** 2 * top**4
