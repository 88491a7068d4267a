"""Seeded, fixed op lists for the four benchmark workloads.

Every op is a plain dict so that the worker (which times the program) and
the oracle checks (which never import the program) read the same
description.  An op has:

* ``id``      position in the list, also the span id in traces;
* ``kind``    ``"cli"`` (argv for ``fockspec.cli.main``) or ``"eigvec"``
              (library ``restrict`` + ``eigenvector`` over exact eigenvalues);
* ``argv``    for CLI ops;
* ``check``   what the oracle needs: the operator's documented formula
              (``op``: name and parameters, or ``tree``: an expression tree),
              the degree and the realization.

The seed only picks parameters from fixed sets and the order of the ops,
never the number or the degrees of the ops, so every seed does the same
amount of work to within a few percent.  ``bench/test_bench.py`` runs every
spectrum-catalog op a seed can draw (``spectrum_points``): none fails, only
the fixed known-fault ops do.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Dict, List

WORKLOADS = ("spectrum-catalog", "isospectral-highdeg", "classify-expr", "eigvec-es")

# Parameter sets a seed draws from.  Sextic spectra are certified by the
# program only at n <= 5 for every point of this set: at n >= 6 the float
# residual check rejects correct roots (see KNOWN_FAULTS).
LAGUERRE_ALPHAS = tuple(
    Fraction(p, q) for q in range(1, 10) for p in range(1, 10) if Fraction(p, q).denominator == q
)
SEXTIC_ALPHAS = (1, 2, 3)
SEXTIC_BETAS = (-1, 0, 1, 2, 3)
# Non-self-adjoint points with complex-conjugate eigenvalue pairs.
NEG_SEXTIC_ALPHAS = (-1, -2)
NEG_SEXTIC_BETAS = (-1, 0)
COMPLEX_LAME_DS = (1, 2, 5)
LAME_MS = (2, 3, 4, 5)
LAME_DS = (1, 2, 3)
DELTAS = ("1", "1/3", "1/2", "2")
QS = ("2", "1/2", "3")
FIBERS = (0, 1, 2)

#: Ops that fail on every run because of a fault in the program; they stay
#: in ``spectrum-catalog`` and count as failed until the fault is mended.
KNOWN_FAULTS = (
    # float64 residual check in roots rejects a correct, Sturm-bracketed root
    ("sextic", {"alpha": "1", "beta": "1", "n": "8"}),
    ("sextic", {"alpha": "1", "beta": "1", "n": "10"}),
    # absolute tolerance in the numeric eigenvector check
    ("lame", {"m": "10000", "d": "1", "n": "3"}),
)


def _op_argv(command: str, name: str, params: Dict[str, str]) -> List[str]:
    argv = [command, "--op", name]
    for key, value in params.items():
        argv += ["--bind", f"{key}={value}"]
    return argv


def _spectrum_op(name: str, params: Dict[str, str], n: int, realization=("differential", None)):
    kind, value = realization
    argv = _op_argv("spectrum", name, params) + ["--n", str(n)]
    if kind == "delta":
        argv += ["--realization", "delta", "--delta", value]
    elif kind == "q":
        argv += ["--realization", "q", "--q", value]
    elif kind == "complex":
        argv += ["--realization", "complex", "--fiber-m", str(value)]
    return {
        "kind": "cli",
        "argv": argv,
        "check": {"type": "spectrum", "op": [name, params], "n": n, "realization": [kind, value]},
    }


#: The seeded ops of spectrum-catalog, one per slot: (operator, parameter
#: choices, n, realization kind, realization choices).  The seed draws one
#: value from each tuple of choices; a 1-tuple is a fixed value.
SPECTRUM_SLOTS = (
    [("hermite", {}, n, "differential", (None,)) for n in (6, 10, 14, 16)]
    + [("laguerre", {"alpha": LAGUERRE_ALPHAS}, n, "differential", (None,)) for n in (8, 12, 16)]
    + [("lame", {"m": (2,), "d": (1,), "n": (n,)}, n, "differential", (None,)) for n in range(3, 9)]
    + [("sextic", {"alpha": SEXTIC_ALPHAS, "beta": SEXTIC_BETAS, "n": (n,)}, n, "differential", (None,))
       for n in (2, 3, 4, 5)]
    + [("sextic", {"alpha": NEG_SEXTIC_ALPHAS, "beta": NEG_SEXTIC_BETAS, "n": (n,)}, n, "differential", (None,))
       for n in (3, 5)]
    + [("lame", {"m": ("1/2",), "d": COMPLEX_LAME_DS, "n": (n,)}, n, "differential", (None,)) for n in (4, 5)]
    + [
        ("lame", {"m": (2,), "d": (1,), "n": (4,)}, 4, "delta", DELTAS),
        ("sextic", {"alpha": SEXTIC_ALPHAS, "beta": SEXTIC_BETAS, "n": (4,)}, 4, "q", QS),
        ("lame", {"m": (2,), "d": (1,), "n": (5,)}, 5, "complex", FIBERS),
        ("lame", {"m": (1000,), "d": (1,), "n": (3,)}, 3, "differential", (None,)),
        ("lame", {"m": ("1000/7",), "d": (1,), "n": (3,)}, 3, "differential", (None,)),
    ]
)


def spectrum_catalog(rng: random.Random) -> List[dict]:
    ops = []
    for name, choices, n, kind, values in SPECTRUM_SLOTS:
        params = {key: str(rng.choice(options)) for key, options in choices.items()}
        ops.append(_spectrum_op(name, params, n, (kind, rng.choice(values))))
    for name, params in KNOWN_FAULTS:
        ops.append(_spectrum_op(name, dict(params), int(params["n"])))
    return ops


def spectrum_points() -> List[dict]:
    """Every seeded spectrum-catalog op any seed can draw, once each."""
    ops = []
    for name, choices, n, kind, values in SPECTRUM_SLOTS:
        keys = list(choices)
        for combo in itertools.product(*(choices[k] for k in keys), values):
            params = {k: str(v) for k, v in zip(keys, combo)}
            ops.append(_spectrum_op(name, params, n, (kind, combo[-1])))
    return ops


def _isospectral_op(name: str, params: Dict[str, str], n: int) -> dict:
    return {
        "kind": "cli",
        "argv": _op_argv("isospectral", name, params) + ["--n", str(n), "--fibers", "0,1"],
        "check": {"type": "isospectral", "op": [name, params], "n": n},
    }


def _multi_digit(rng: random.Random) -> str:
    return f"{rng.randrange(100001, 999999, 2)}/{rng.randrange(10001, 99999, 2)}"


def isospectral_highdeg(rng: random.Random) -> List[dict]:
    ops = [_isospectral_op("hermite", {}, 16)]
    for n in (16, 20):
        params = {"m": str(rng.choice(LAME_MS)), "d": str(rng.choice(LAME_DS)), "n": str(n)}
        ops.append(_isospectral_op("lame", params, n))
    for n in (16, 24):
        params = {"alpha": str(rng.choice(SEXTIC_ALPHAS)), "beta": str(rng.choice(SEXTIC_BETAS)), "n": str(n)}
        ops.append(_isospectral_op("sextic", params, n))
    params = {"m": _multi_digit(rng), "d": _multi_digit(rng), "n": "16"}
    ops.append(_isospectral_op("lame", params, 16))
    return ops


# ---------------------------------------------------------------------------
# Random expressions for classify-expr
# ---------------------------------------------------------------------------
#
# Trees are nested lists so that they survive JSON:
#   ["gen", "a"|"b"|"L0"], ["lit", "p/q"], ["neg", t], ["sum", [t...]],
#   ["prod", [t...]] (written order), ["pow", t, e].
# Every expression has the same shape per slot; the seed picks the leaves.
# Three strata of equal size: ES (every factor lowers or keeps degree),
# QES (a factor b*(L0 - k) makes exactly the span 0..k invariant) and
# leaking (a factor b*(L0 + c), c > 0, raises every degree).

N_PER_STRATUM = 10
CLASSIFY_NMAX = 32
CATALOG_NMAX = 64


def _lit(rng: random.Random) -> list:
    return ["lit", str(Fraction(rng.randint(1, 9), rng.randint(1, 4)))]


def _es_factor(rng: random.Random) -> list:
    choice = rng.randrange(4)
    if choice == 0:
        return ["gen", "a"]
    if choice == 1:
        return ["sum", [["gen", "L0"], _lit(rng)]]
    if choice == 2:
        return ["prod", [["gen", "a"], ["gen", "b"]]]
    return ["pow", ["gen", "L0"], 2]


def _es_expr(rng: random.Random) -> list:
    return ["sum", [
        ["prod", [_es_factor(rng), _es_factor(rng)]],
        ["neg", ["pow", _es_factor(rng), 2]],
        ["prod", [_lit(rng), ["gen", "b"], ["pow", ["gen", "a"], 2]]],
    ]]


def _qes_expr(rng: random.Random, k: int) -> list:
    raise_k = ["prod", [["gen", "b"], ["sum", [["gen", "L0"], ["neg", ["lit", str(k)]]]]]]
    body = ["prod", [raise_k, ["sum", [["gen", "L0"], _lit(rng)]]]] if rng.random() < 0.5 else \
        ["prod", [["sum", [["gen", "L0"], _lit(rng)]], raise_k]]
    return ["sum", [body, ["prod", [_es_factor(rng), _es_factor(rng)]], ["neg", _lit(rng)]]]


def _leaking_expr(rng: random.Random) -> list:
    raise_all = ["prod", [["gen", "b"], ["sum", [["gen", "L0"], _lit(rng)]]]]
    return ["sum", [
        ["pow", raise_all, 2],
        ["prod", [_es_factor(rng), _es_factor(rng)]],
        ["neg", ["pow", _es_factor(rng), 2]],
    ]]


def render(tree: list) -> str:
    """Text of a tree in the documented grammar (fully parenthesised)."""
    tag = tree[0]
    if tag == "gen":
        return tree[1]
    if tag == "lit":
        return tree[1]
    if tag == "neg":
        return f"-({render(tree[1])})"
    if tag == "sum":
        return "(" + " + ".join(render(t) for t in tree[1]) + ")"
    if tag == "prod":
        return "*".join(f"({render(t)})" for t in tree[1])
    if tag == "pow":
        return f"({render(tree[1])})^{tree[2]}"
    raise ValueError(f"unknown tree node {tag!r}")


def classify_expr(rng: random.Random) -> List[dict]:
    strata = (
        [("ES", _es_expr(rng)) for _ in range(N_PER_STRATUM)]
        + [("QES", _qes_expr(rng, rng.randint(2, 12))) for _ in range(N_PER_STRATUM)]
        + [("leaking", _leaking_expr(rng)) for _ in range(N_PER_STRATUM)]
    )
    ops = []
    for stratum, tree in strata:
        text = render(tree)
        ops.append({
            "kind": "cli",
            "argv": ["normal-order", "--expr", text],
            "check": {"type": "normal-order", "tree": tree, "stratum": stratum},
        })
        ops.append({
            "kind": "cli",
            "argv": ["classify", "--expr", text, "--nmax", str(CLASSIFY_NMAX)],
            "check": {"type": "classify", "tree": tree, "nmax": CLASSIFY_NMAX, "stratum": stratum},
        })
    for n in (4, 8):
        params = {"m": str(rng.choice(LAME_MS)), "d": str(rng.choice(LAME_DS)), "n": str(n)}
        sparams = {"alpha": str(rng.choice(SEXTIC_ALPHAS)), "beta": str(rng.choice(SEXTIC_BETAS)), "n": str(n)}
        for name, p in (("lame", params), ("sextic", sparams)):
            ops.append({
                "kind": "cli",
                "argv": _op_argv("classify", name, p) + ["--nmax", str(CATALOG_NMAX)],
                "check": {"type": "classify", "op": [name, p], "nmax": CATALOG_NMAX, "stratum": "QES"},
            })
    return ops


def eigvec_es(rng: random.Random) -> List[dict]:
    ops = []
    specs = [("hermite", {}), ("laguerre", {"alpha": str(rng.choice(LAGUERRE_ALPHAS))})]
    for name, params in specs:
        for n in (24, 40):
            ops.append({
                "kind": "eigvec",
                "op": [name, params],
                "n": n,
                "check": {"type": "eigvec", "op": [name, params], "n": n},
            })
    return ops


_GENERATORS = {
    "spectrum-catalog": spectrum_catalog,
    "isospectral-highdeg": isospectral_highdeg,
    "classify-expr": classify_expr,
    "eigvec-es": eigvec_es,
}

#: One small op per workload, independent of the seed, run once in set-up.
WARMUP = {
    "spectrum-catalog": _spectrum_op("hermite", {}, 4),
    "isospectral-highdeg": _isospectral_op("hermite", {}, 4),
    "classify-expr": {
        "kind": "cli",
        "argv": ["classify", "--expr", "b*(L0 - 2) + a", "--nmax", "8"],
        "check": None,
    },
    "eigvec-es": {"kind": "eigvec", "op": ["hermite", {}], "n": 4, "check": None},
}


#: Three tiny CLI ops that between them reach every traced function.  A
#: traced run times them after the op list, untraced and traced, so that
#: every per-layer figure is measured on every workload; they are not
#: counted in ``attempted``.
TRACE_PROBE = [
    {"kind": "cli", "argv": ["spectrum", "--expr", "b*a - a", "--n", "2"], "check": None},
    {"kind": "cli", "argv": ["isospectral", "--op", "hermite", "--n", "2"], "check": None},
    {"kind": "cli", "argv": ["classify", "--expr", "b*a", "--nmax", "2"], "check": None},
]


def build(workload: str, seed: int) -> List[dict]:
    """The op list of ``workload`` for ``seed``: same seed, same list."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _GENERATORS[workload](rng)
    rng.shuffle(ops)
    for idx, op in enumerate(ops):
        op["id"] = idx
    return ops
