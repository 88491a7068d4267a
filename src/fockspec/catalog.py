"""Constructors for the named operators, with parameter metadata.

Two symbol renames are fixed throughout the interfaces to avoid collisions:
the cubic-family (Lame) parameters are ``m, d`` (not lambda/delta, which name
eigenvalues and the lattice spacing), and the sextic parameters are
``alpha, beta`` (not a/b, which name the generators).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Tuple

from .solvability import QES_TERMS, QESCoeffs
from .weyl import Rational, RationalLike, WeylElement, as_rational, make, multiply, scale


#: QESCoeffs fields of the cubic family: all but the quartic top a4, b3, d2.
HEUN_COEFFS = tuple(name for name in QES_TERMS if name not in ("a4", "b3", "d2"))


class Family(enum.Enum):
    ES = "ES"
    QES = "QES"
    OTHER = "other"


class ConstraintViolationError(ValueError):
    """A QES constructor was called with coefficients that leak; carries the
    offending residual."""

    def __init__(self, residual: Rational):
        super().__init__(
            f"coefficients violate the invariance constraint (residual {residual})"
        )
        self.residual = residual


@dataclass(frozen=True)
class OpSpec:
    """A catalog entry: element plus parameters and expected invariant degree."""

    name: str
    element: WeylElement
    params: Mapping[str, Rational]
    invariant_degree: Optional[int]
    family: Family

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))


def number() -> OpSpec:
    """The number operator b*a: degree k sector has eigenvalue k."""
    return OpSpec("number", make(1, 1, 1), {}, None, Family.ES)


def hermite() -> OpSpec:
    """-a^2 + b*a, with equidistant spectrum 0, 1, 2, ..."""
    element = make(-1, 0, 2) + make(1, 1, 1)
    return OpSpec("hermite", element, {}, None, Family.ES)


def laguerre(alpha: RationalLike) -> OpSpec:
    """-b*a^2 + (b - alpha - 1)*a, spectrum 0, 1, 2, ..."""
    alpha = as_rational(alpha)
    element = make(-1, 1, 2) + make(1, 1, 1) + make(-(alpha + 1), 0, 1)
    return OpSpec("laguerre", element, {"alpha": alpha}, None, Family.ES)


def heun(coeffs: QESCoeffs, n: int) -> OpSpec:
    """General cubic-family operator ``Q3(b) a^2 + Q2(b) a + Q1(b)``.

    Requires the quartic-top coefficients a4, b3, d2 to vanish, and the
    residual ``a3 n(n-1) + b2 n + d1`` to be zero at the requested degree.
    """
    if coeffs.a4 or coeffs.b3 or coeffs.d2:
        raise ValueError("cubic-family constructor requires a4 = b3 = d2 = 0")
    residual = coeffs.c1(n)
    if residual:
        raise ConstraintViolationError(residual)
    params = {name: getattr(coeffs, name) for name in HEUN_COEFFS}
    return OpSpec("heun", coeffs.element(), {**params, "n": Fraction(n)}, n, Family.QES)


def lame(m: RationalLike, d: RationalLike, n: int) -> OpSpec:
    """4(b^3 - 3m b^2 + 3d b) a^2 + 6(b^2 - 2m b + d) a - 2n(2n+1)(b - m)."""
    m, d = as_rational(m), as_rational(d)
    w = 2 * n * (2 * n + 1)
    element = (
        make(4, 3, 2) + make(-12 * m, 2, 2) + make(12 * d, 1, 2)
        + make(6, 2, 1) + make(-12 * m, 1, 1) + make(6 * d, 0, 1)
        + make(-w, 1, 0) + make(w * m, 0, 0)
    )
    return OpSpec("lame", element, {"m": m, "d": d, "n": Fraction(n)}, n, Family.QES)


def lame_elliptic_invariants(m: RationalLike, d: RationalLike) -> Tuple[Rational, Rational]:
    """(g2, g3) = (12(m^2 - d), 4m(2m^2 - 3d)) for the Weierstrass form."""
    m, d = as_rational(m), as_rational(d)
    return (12 * (m * m - d), 4 * m * (2 * m * m - 3 * d))


def sextic(alpha: RationalLike, beta: RationalLike, n: int) -> OpSpec:
    """-4 b a^2 + 2(2 alpha b^2 + 2 beta b - 1) a - 4 alpha n b."""
    alpha, beta = as_rational(alpha), as_rational(beta)
    element = (
        make(-4, 1, 2)
        + make(4 * alpha, 2, 1) + make(4 * beta, 1, 1) + make(-2, 0, 1)
        + make(-4 * alpha * n, 1, 0)
    )
    params = {"alpha": alpha, "beta": beta, "n": Fraction(n)}
    return OpSpec("sextic", element, params, n, Family.QES)


def sextic_hamiltonian_coeffs(
    alpha: RationalLike, beta: RationalLike, n: int
) -> Tuple[Rational, Rational, Rational, Rational]:
    """Potential coefficients (c6, c4, c2, c0) of the gauge-equivalent
    Schrodinger operator ``-psi'' + (c6 t^6 + c4 t^4 + c2 t^2 + c0) psi``."""
    alpha, beta = as_rational(alpha), as_rational(beta)
    return (
        alpha * alpha,
        2 * alpha * beta,
        beta * beta - (4 * n + 3) * alpha,
        -beta,
    )


def jplus(k: RationalLike) -> OpSpec:
    """Raising generator b^2 a - k b.

    For nonnegative integer k it kills the top of the degree-k span, so the
    element on its own is quasi-exactly solvable at degree k.
    """
    k = as_rational(k)
    element = make(1, 2, 1) + make(-k, 1, 0)
    qes = k.denominator == 1 and k >= 0
    return OpSpec(
        "jplus",
        element,
        {"k": k},
        int(k) if qes else None,
        Family.QES if qes else Family.OTHER,
    )


def jzero(k: RationalLike) -> OpSpec:
    """Cartan generator b*a - k/2."""
    k = as_rational(k)
    element = make(1, 1, 1) + make(-k / 2, 0, 0)
    return OpSpec("jzero", element, {"k": k}, None, Family.ES)


def jminus() -> OpSpec:
    """Lowering generator a."""
    return OpSpec("jminus", make(1, 0, 1), {}, None, Family.ES)


def casimir(k: RationalLike) -> WeylElement:
    """jzero^2 - (jplus*jminus + jminus*jplus)/2; collapses to the scalar
    (k/2)(k/2 + 1) in normal form."""
    jp, jz, jm = jplus(k).element, jzero(k).element, jminus().element
    anti = multiply(jp, jm) + multiply(jm, jp)
    return multiply(jz, jz) - scale(Fraction(1, 2), anti)


@dataclass(frozen=True)
class CatalogEntry:
    """Schema and builder for one named operator, keyed by bound parameters."""

    name: str
    params: Tuple[str, ...]
    summary: str
    build: Callable[..., OpSpec]


def _build_heun(**binds: Rational) -> OpSpec:
    n = _int_degree(binds.pop("n"))
    return heun(QESCoeffs(**binds), n)


def _int_degree(value: Rational, name: str = "n") -> int:
    if value.denominator != 1 or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer")
    return int(value)


CATALOG: Mapping[str, CatalogEntry] = MappingProxyType({
    "number": CatalogEntry("number", (), "number operator b*a", lambda: number()),
    "hermite": CatalogEntry("hermite", (), "-a^2 + b*a", lambda: hermite()),
    "laguerre": CatalogEntry(
        "laguerre", ("alpha",), "-b*a^2 + (b - alpha - 1)*a",
        lambda alpha: laguerre(alpha),
    ),
    "heun": CatalogEntry(
        "heun",
        HEUN_COEFFS + ("n",),
        "cubic-family operator Q3(b)*a^2 + Q2(b)*a + Q1(b)",
        _build_heun,
    ),
    "lame": CatalogEntry(
        "lame", ("m", "d", "n"),
        "4(b^3 - 3m*b^2 + 3d*b)*a^2 + 6(b^2 - 2m*b + d)*a - 2n(2n+1)(b - m)",
        lambda m, d, n: lame(m, d, _int_degree(n)),
    ),
    "sextic": CatalogEntry(
        "sextic", ("alpha", "beta", "n"),
        "-4b*a^2 + 2(2*alpha*b^2 + 2*beta*b - 1)*a - 4*alpha*n*b",
        lambda alpha, beta, n: sextic(alpha, beta, _int_degree(n)),
    ),
    "jplus": CatalogEntry("jplus", ("k",), "b^2*a - k*b", lambda k: jplus(k)),
    "jzero": CatalogEntry("jzero", ("k",), "b*a - k/2", lambda k: jzero(k)),
    "jminus": CatalogEntry("jminus", (), "a", lambda: jminus()),
})


def build_from_catalog(name: str, bindings: Mapping[str, Rational]) -> OpSpec:
    """Instantiate a catalog operator; missing parameters raise KeyError with
    the parameter name (a binding error at the CLI boundary)."""
    entry = CATALOG.get(name)
    if entry is None:
        raise ValueError(f"unknown catalog operator {name!r}")
    kwargs = {}
    for p in entry.params:
        if p in bindings:
            kwargs[p] = bindings[p]
        elif name == "heun" and p != "n":
            kwargs[p] = Fraction(0)  # unbound cubic-family coefficients default to 0
        else:
            raise KeyError(p)
    return entry.build(**kwargs)
