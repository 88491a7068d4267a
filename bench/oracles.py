"""Oracles for the benchmark, computed apart from the program.

Nothing here imports ``fockspec``.  Operators are rebuilt from their
documented formulas (or from the generator's own expression tree), matrices
from the documented actions of ``a`` and ``b`` in each realization, and
characteristic polynomials, roots and orthogonal polynomials come from
sympy and mpmath.  ``check(op, result)`` returns ``None`` when the output
is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import comb, perm
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath
from sympy import QQ, Rational, symbols
from sympy import Poly as SympyPoly
from sympy.polys.matrices import DomainMatrix
from sympy.polys.orthopolys import hermite_prob_poly, laguerre_poly

Terms = Dict[Tuple[int, int], Fraction]
Poly = Dict[int, Fraction]  # degree -> coefficient, zeros dropped

#: the CLI's default root tolerance, used for the root-location checks
TOL = 1e-12
#: relative bound on ||Mv - lam v|| / (||M||_F ||v||) for numeric eigenvectors
EIGVEC_REL = 1e-9
ISOSPECTRAL_LABELS = ["differential", "delta=1", "delta=1/3", "q=2", "q=1/2", "complex m=0", "complex m=1"]


# ---------------------------------------------------------------------------
# Operators from their documented formulas: {(b-exponent, a-exponent): c}
# ---------------------------------------------------------------------------


def operator_terms(name: str, params: Dict[str, str]) -> Terms:
    p = {k: Fraction(v) for k, v in params.items()}
    if name == "hermite":  # -a^2 + b*a
        terms = {(0, 2): -1, (1, 1): 1}
    elif name == "laguerre":  # -b*a^2 + (b - alpha - 1)*a
        terms = {(1, 2): -1, (1, 1): 1, (0, 1): -(p["alpha"] + 1)}
    elif name == "lame":  # 4(b^3 - 3m b^2 + 3d b) a^2 + 6(b^2 - 2m b + d) a - 2n(2n+1)(b - m)
        m, d, n = p["m"], p["d"], p["n"]
        w = 2 * n * (2 * n + 1)
        terms = {(3, 2): 4, (2, 2): -12 * m, (1, 2): 12 * d, (2, 1): 6,
                 (1, 1): -12 * m, (0, 1): 6 * d, (1, 0): -w, (0, 0): w * m}
    elif name == "sextic":  # -4 b a^2 + 2(2 alpha b^2 + 2 beta b - 1) a - 4 alpha n b
        al, be, n = p["alpha"], p["beta"], p["n"]
        terms = {(1, 2): -4, (2, 1): 4 * al, (1, 1): 4 * be, (0, 1): -2, (1, 0): -4 * al * n}
    else:
        raise ValueError(f"no oracle for operator {name!r}")
    return {k: Fraction(v) for k, v in terms.items() if v}


# ---------------------------------------------------------------------------
# Polynomials as {degree: Fraction} and the generator actions
# ---------------------------------------------------------------------------


def _clean(p: Poly) -> Poly:
    return {d: c for d, c in p.items() if c}


def _add_into(acc: Poly, p: Poly, scale: Fraction = Fraction(1)) -> None:
    for d, c in p.items():
        acc[d] = acc.get(d, Fraction(0)) + scale * c


def _shift(p: Poly, h: Fraction) -> Poly:
    """f(x + h) by the binomial theorem."""
    out: Poly = {}
    for d, c in p.items():
        for r in range(d + 1):
            out[r] = out.get(r, Fraction(0)) + c * comb(d, r) * h ** (d - r)
    return _clean(out)


def _q_number(n: int, q: Fraction) -> Fraction:
    return sum((q ** t for t in range(n)), Fraction(0))


def _act(realization: Tuple[str, Optional[str]], gen: str, p: Poly) -> Poly:
    """One generator on a univariate polynomial, from the documented actions."""
    kind, value = realization
    if kind == "differential":
        if gen == "a":
            return {d - 1: d * c for d, c in p.items() if d}
        return {d + 1: c for d, c in p.items()}
    if kind == "delta":
        h = Fraction(value)
        if gen == "a":  # (f(x+h) - f(x)) / h
            out = _shift(p, h)
            _add_into(out, p, Fraction(-1))
            return {d: c / h for d, c in _clean(out).items()}
        return {d + 1: c for d, c in _shift(p, -h).items()}  # x f(x - h)
    if kind == "q":
        q = Fraction(value)
        if gen == "a":  # x^n -> {n}_q x^(n-1)
            return _clean({d - 1: c * _q_number(d, q) for d, c in p.items() if d})
        return {d + 1: c * (d + 1) / _q_number(d + 1, q) for d, c in p.items()}
    raise ValueError(f"unknown realization {kind!r}")


def _apply_terms_uni(terms: Terms, realization, p: Poly) -> Poly:
    out: Poly = {}
    for (i, j), c in terms.items():
        w = p
        for _ in range(j):
            w = _act(realization, "a", w)
        for _ in range(i):
            w = _act(realization, "b", w)
        _add_into(out, w, c)
    return _clean(out)


def _act_complex(gen: str, f: Dict[Tuple[int, int], Fraction]):
    """a = d/dzbar, b = -d/dz + zbar on polynomials in (z, zbar)."""
    out: Dict[Tuple[int, int], Fraction] = {}
    for (p, q), c in f.items():
        if gen == "a":
            if q:
                out[(p, q - 1)] = out.get((p, q - 1), Fraction(0)) + q * c
        else:
            if p:
                out[(p - 1, q)] = out.get((p - 1, q), Fraction(0)) - p * c
            out[(p, q + 1)] = out.get((p, q + 1), Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def differential_matrix(terms: Terms, n: int) -> List[List[Fraction]]:
    """Matrix of sum c_ij x^i d^j on x^0..x^n: x^k -> c k!/(k-j)! x^(k-j+i)."""
    m = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        for (i, j), c in terms.items():
            if j <= k and k - j + i <= n:
                m[k - j + i][k] += c * perm(k, j)
    return m


def realization_matrix(terms: Terms, n: int, realization) -> List[List[Fraction]]:
    """Matrix on the degree-n span in ``realization``; raises if it leaks."""
    kind, value = realization
    m = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    if kind == "complex":
        fiber = int(value)
        basis = [{(fiber, 0): Fraction(1)}]
        for _ in range(n):
            basis.append(_act_complex("b", basis[-1]))
        for k in range(n + 1):
            image: Dict[Tuple[int, int], Fraction] = {}
            for (i, j), c in terms.items():
                w = basis[k]
                for _ in range(j):
                    w = _act_complex("a", w)
                for _ in range(i):
                    w = _act_complex("b", w)
                for key, v in w.items():
                    image[key] = image.get(key, Fraction(0)) + c * v
            # b^r(z^m) holds z^m zbar^r with coefficient 1 and no other z^m
            # zbar^s, s <= n, so coordinates are read off those monomials.
            for r in range(n, -1, -1):
                coeff = image.get((fiber, r), Fraction(0))
                if coeff:
                    m[r][k] = coeff
                    for key, v in basis[r].items():
                        image[key] = image.get(key, Fraction(0)) - coeff * v
            if any(image.values()):
                raise ValueError(f"complex fiber column {k} leaks")
        return m
    for k in range(n + 1):
        image = _apply_terms_uni(terms, realization, {k: Fraction(1)})
        for d, c in image.items():
            if d > n:
                raise ValueError(f"column {k} leaks to degree {d}")
            m[d][k] = c
    return m


def charpoly(matrix: Sequence[Sequence[Fraction]]) -> List[Fraction]:
    """Ascending coefficients of det(t I - M), by sympy."""
    size = len(matrix)
    dm = DomainMatrix(
        [[QQ(c.numerator, c.denominator) for c in row] for row in matrix], (size, size), QQ
    )
    return [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(dm.charpoly())]


# ---------------------------------------------------------------------------
# Exact polynomial helpers for the root checks (ascending Fraction lists)
# ---------------------------------------------------------------------------


def _eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _divide_linear(coeffs: List[Fraction], r: Fraction) -> List[Fraction]:
    """Quotient of p by (t - r), assuming p(r) = 0."""
    out = [Fraction(0)] * (len(coeffs) - 1)
    carry = Fraction(0)
    for d in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[d] + carry * r
        out[d - 1] = carry
    return out


def _sympy_poly(coeffs: Sequence[Fraction]):
    t = symbols("t")
    return SympyPoly([QQ(c.numerator, c.denominator) for c in reversed(coeffs)], t, domain=QQ)


def _num(entry) -> complex:
    if isinstance(entry, dict):
        return complex(entry["re"], entry["im"])
    return complex(entry)


def check_roots(p: List[Fraction], evs: List[dict]) -> Optional[str]:
    """The distinct eigenvalues reported must be exactly the distinct roots
    of ``p``: rational ones exactly, real irrational ones one to one by an
    exact sign change within TOL(1+|x|), complex ones within that distance of
    mpmath.polyroots at 50 digits."""
    exact = sorted({Fraction(ev["exact"]) for ev in evs if "exact" in ev})
    numeric = sorted({(ev["re"], ev["im"]) for ev in evs if "exact" not in ev})
    rest = list(p)
    for r in exact:
        if _eval(rest, r) != 0:
            return f"reported exact eigenvalue {r} is not a root"
        while len(rest) > 1 and _eval(rest, r) == 0:
            rest = _divide_linear(rest, r)
    sp = _sympy_poly(rest)
    sqf = sp.sqf_part()
    if any(f.degree() == 1 for f, _ in sqf.factor_list()[1]):
        return "a rational root was missed or reported as a float"
    real = [x for x, im in numeric if im == 0.0]
    cplx = [complex(x, im) for x, im in numeric if im != 0.0]
    n_real = sqf.count_roots() if sqf.degree() > 0 else 0
    if n_real != len(real):
        return f"{len(real)} distinct real numeric eigenvalues, polynomial has {n_real}"
    sq = [Fraction(int(c.numerator), int(c.denominator)) for c in reversed(sqf.all_coeffs())]
    # Windows cut at the midpoints between neighbouring reported roots are
    # disjoint, so a sign change in each pairs the roots one to one.
    xs = [Fraction(x) for x in real]
    for i, fx in enumerate(xs):
        w = Fraction(TOL) * (1 + abs(fx))
        lo = fx - w if i == 0 else max(fx - w, (xs[i - 1] + fx) / 2)
        hi = fx + w if i == len(xs) - 1 else min(fx + w, (fx + xs[i + 1]) / 2)
        if _eval(sq, lo) * _eval(sq, hi) >= 0:
            return f"no sign change of the characteristic polynomial around {real[i]}"
    n_complex = sqf.degree() - n_real
    if n_complex != len(cplx):
        return f"{len(cplx)} distinct complex eigenvalues, polynomial has {n_complex}"
    if cplx:
        with mpmath.workdps(50):
            ref = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator for c in reversed(sq)],
                                   maxsteps=400, extraprec=400)
            ref = [complex(z) for z in ref if abs(mpmath.im(z)) > 0]
        for z in cplx:
            best = min(ref, key=lambda w_: abs(w_ - z), default=None)
            if best is None or abs(best - z) > TOL * (1 + abs(z)):
                return f"complex eigenvalue {z} is not within tolerance of a root"
            ref.remove(best)
    return None


def check_eigenpair(matrix, ev: dict, vec: list) -> Optional[str]:
    """Exact pairs: M v = lam v exactly.  Numeric pairs: a residual relative
    to ||M||_F ||v||, never an absolute one (entries can be ~1e5)."""
    n = len(matrix)
    if len(vec) != n:
        return f"eigenvector has {len(vec)} entries, expected {n}"
    if "exact" in ev:
        lam = Fraction(ev["exact"])
        v = [Fraction(c) for c in vec]
        if not any(v):
            return "zero eigenvector"
        for row, vi in zip(matrix, v):
            if sum((a * b for a, b in zip(row, v)), Fraction(0)) != lam * vi:
                return f"M v != {lam} v"
        return None
    lam = complex(ev["re"], ev["im"])
    v = [_num(c) for c in vec]
    vnorm = math.sqrt(sum(abs(c) ** 2 for c in v))
    if not math.isfinite(vnorm) or vnorm == 0:
        return "numeric eigenvector is zero or not finite"
    mnorm = math.sqrt(sum(float(a) ** 2 for row in matrix for a in row))
    resid = math.sqrt(sum(
        abs(sum(float(a) * b for a, b in zip(row, v)) - lam * vi) ** 2
        for row, vi in zip(matrix, v)
    ))
    if resid > EIGVEC_REL * (1 + mnorm) * vnorm:
        return f"numeric eigenvector residual {resid:.3e} too large at {lam}"
    return None


# ---------------------------------------------------------------------------
# Expression trees: direct action on x^k (a = d/dx, b = x, L0 = x d/dx)
# ---------------------------------------------------------------------------


def apply_tree(tree: list, p: Poly) -> Poly:
    tag = tree[0]
    if tag == "gen":
        if tree[1] == "a":
            return {d - 1: d * c for d, c in p.items() if d}
        if tree[1] == "b":
            return {d + 1: c for d, c in p.items()}
        return _clean({d: d * c for d, c in p.items()})  # L0 x^d = d x^d
    if tag == "lit":
        v = Fraction(tree[1])
        return _clean({d: v * c for d, c in p.items()})
    if tag == "neg":
        return {d: -c for d, c in apply_tree(tree[1], p).items()}
    if tag == "sum":
        out: Poly = {}
        for part in tree[1]:
            _add_into(out, apply_tree(part, p))
        return _clean(out)
    if tag == "prod":  # rightmost factor acts first
        for part in reversed(tree[1]):
            p = apply_tree(part, p)
        return p
    if tag == "pow":
        for _ in range(tree[2]):
            p = apply_tree(tree[1], p)
        return p
    raise ValueError(f"unknown tree node {tag!r}")


def tree_order(tree: list) -> int:
    """Upper bound on the total degree of the normal form in (a, b)."""
    tag = tree[0]
    if tag == "gen":
        return 2 if tree[1] == "L0" else 1
    if tag == "lit":
        return 0
    if tag == "neg":
        return tree_order(tree[1])
    if tag == "sum":
        return max(tree_order(t) for t in tree[1])
    if tag == "prod":
        return sum(tree_order(t) for t in tree[1])
    return tree[2] * tree_order(tree[1])


def _image_degree(image: Poly) -> int:
    return max(image, default=-1)


def check_classify(op_check: dict, result: dict) -> Optional[str]:
    nmax = op_check["nmax"]
    if "tree" in op_check:
        tree = op_check["tree"]
        order = tree_order(tree)
        apply = lambda k: apply_tree(tree, {k: Fraction(1)})
    else:
        terms = operator_terms(*op_check["op"])
        order = max(i + j for i, j in terms)
        apply = lambda k: _apply_terms_uni(terms, ("differential", None), {k: Fraction(1)})
    # The top coefficient of each raising excess is a polynomial in k of
    # degree <= order, so order + 1 consecutive k decide the ES flag.
    images = [apply(k) for k in range(nmax + order + 2)]
    degrees = [_image_degree(im) for im in images]
    es = all(deg <= k for k, deg in enumerate(degrees))
    invariant, running = [], -1
    for n in range(nmax + 1):
        running = max(running, degrees[n])
        if running <= n:
            invariant.append(n)
    if result.get("exactly_solvable") is not es:
        return f"exactly_solvable {result.get('exactly_solvable')} != {es}"
    if result.get("invariant_degrees") != invariant:
        return f"invariant degrees {result.get('invariant_degrees')} != {invariant}"
    if result.get("scan_bound") != nmax:
        return "wrong scan bound"
    if "op" in op_check and any(Fraction(r) for r in result.get("constraint_residuals", [])):
        return "nonzero constraint residual at an invariant catalog degree"
    if not es and not invariant:
        col = next(k for k in range(nmax + 1) if degrees[k] > nmax)
        over = images[col]
        expected = [str(over.get(d, Fraction(0)) if d > nmax else Fraction(0))
                    for d in range(max(over) + 1)]
        witness = result.get("leakage_witness") or {}
        if witness.get("column") != col or witness.get("overflow") != expected:
            return f"leakage witness {witness} != column {col}"
    return None


def check_normal_order(op_check: dict, result: dict) -> Optional[str]:
    tree = op_check["tree"]
    terms = {(t["b"], t["a"]): Fraction(t["coeff"]) for t in result["terms"]}
    if any(not c for c in terms.values()):
        return "normal form keeps a zero coefficient"
    top = max([tree_order(tree)] + [j for _, j in terms])
    # an operator sum p_j(x) d^j is fixed by its action on x^0 .. x^top
    for k in range(top + 2):
        want = apply_tree(tree, {k: Fraction(1)})
        got = _apply_terms_uni(terms, ("differential", None), {k: Fraction(1)})
        if want != got:
            return f"normal form acts differently from the expression on x^{k}"
    return None


# ---------------------------------------------------------------------------
# Per-op checks
# ---------------------------------------------------------------------------


def _check_spectrum(c: dict, res: dict) -> Optional[str]:
    terms = operator_terms(*c["op"])
    n = c["n"]
    want = charpoly(differential_matrix(terms, n))
    got = [Fraction(x) for x in res["char_poly"]["coeffs"]]
    if got != want:
        return "characteristic polynomial differs from sympy charpoly"
    if res["degree"] != n:
        return "wrong degree"
    pairs = res["eigenpairs"]
    reason = check_roots(want, [pair["eigenvalue"] for pair in pairs])
    if reason:
        return reason
    matrix = realization_matrix(terms, n, tuple(c["realization"]))
    for pair in pairs:
        reason = check_eigenpair(matrix, pair["eigenvalue"], pair["eigenvector"])
        if reason:
            return reason
    return None


def _check_isospectral(c: dict, res: dict) -> Optional[str]:
    want = charpoly(differential_matrix(operator_terms(*c["op"]), c["n"]))
    labels = [e["realization"] for e in res["char_polys"]]
    if labels != ISOSPECTRAL_LABELS:
        return f"realizations {labels}"
    for entry in res["char_polys"]:
        if [Fraction(x) for x in entry["coeffs"]] != want:
            return f"characteristic polynomial in {entry['realization']} differs from sympy"
    if res["equal"] is not True or res["degree"] != c["n"]:
        return "isospectral flag or degree wrong"
    return None


def monic_eigenpolynomial(name: str, params: Dict[str, str], k: int, n: int) -> List[Fraction]:
    """Coefficients x^0..x^n of monic He_k or monic L_k^(alpha), by sympy."""
    x = symbols("x")
    if name == "hermite":
        poly = hermite_prob_poly(k, x, polys=True)
    else:
        alpha = Fraction(params["alpha"])
        poly = laguerre_poly(k, x, Rational(alpha.numerator, alpha.denominator), polys=True)
    coeffs = [Fraction(str(c)) for c in reversed(poly.all_coeffs())]
    lead = coeffs[-1]
    coeffs = [c / lead for c in coeffs]
    return coeffs + [Fraction(0)] * (n + 1 - len(coeffs))


def _check_eigvec(c: dict, res: dict) -> Optional[str]:
    name, params = c["op"]
    n = c["n"]
    if len(res["vectors"]) != n + 1:
        return "missing eigenvalues"
    for k, basis in enumerate(res["vectors"]):
        if len(basis) != 1:
            return f"eigenvalue {k} has {len(basis)} basis vectors"
        if [Fraction(x) for x in basis[0]] != monic_eigenpolynomial(name, params, k, n):
            return f"eigenvector {k} differs from the monic orthogonal polynomial"
    return None


def check(op: dict, result: dict) -> Optional[str]:
    """``result`` is {"exit": code, "stdout": text} for CLI ops and
    {"vectors": [[[p/q, ...]], ...]} for eigvec ops."""
    c = op["check"]
    if c is None:
        return None
    if op["kind"] == "eigvec":
        return _check_eigvec(c, result)
    if result["exit"] != 0:
        return f"exit {result['exit']}"
    res = json.loads(result["stdout"])["result"]
    if c["type"] == "spectrum":
        return _check_spectrum(c, res)
    if c["type"] == "isospectral":
        return _check_isospectral(c, res)
    if c["type"] == "classify":
        return check_classify(c, res)
    if c["type"] == "normal-order":
        return check_normal_order(c, res)
    raise ValueError(f"unknown check {c['type']!r}")
