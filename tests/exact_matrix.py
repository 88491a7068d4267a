"""Exact products of rational matrices and vectors, for checking results."""

from fractions import Fraction


def mat_mul(a, b):
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


def mat_vec(a, v):
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in a]
