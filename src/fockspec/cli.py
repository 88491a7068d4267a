"""Command-line front end: normal ordering, classification, spectra and
isospectrality as batch commands with deterministic JSON or plain output.

Exit codes: 0 success, 1 usage or expression parse error, 2 binding error,
3 leakage / non-invariant degree, 4 numeric non-convergence or float
overflow.

Every command emits one envelope::

    {"command": ..., "config": {...}, "operator": {...}, "result": {...},
     "diagnostics": [...]}

Rationals cross the boundary as "p/q" strings, never as floats.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import catalog as cat
from . import opdsl
from .realizations import (
    ComplexPlane,
    DeltaLattice,
    Differential,
    QLattice,
    Realization,
)
from .solvability import DEFAULT_SCAN_BOUND, classify
from .spectra import (
    DEFAULT_ITER_CAP,
    DEFAULT_ROOT_TOL,
    Eigenvalue,
    LeakageError,
    NonConvergenceError,
    isospectral_check,
    spectrum,
)
from .weyl import (
    DEFAULT_DEGREE_CAP,
    DegreeOverflowError,
    Rational,
    WeylElement,
    as_rational,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BINDING = 2
EXIT_LEAKAGE = 3
EXIT_NUMERIC = 4

FORMATS = ("json", "text")


@dataclass
class RunConfig:
    degree_cap: int = DEFAULT_DEGREE_CAP
    tol: float = DEFAULT_ROOT_TOL
    iter_cap: int = DEFAULT_ITER_CAP
    fmt: str = "json"
    deltas: Tuple[Fraction, ...] = (Fraction(1), Fraction(1, 3))
    qs: Tuple[Fraction, ...] = (Fraction(2), Fraction(1, 2))
    fibers: Tuple[int, ...] = (0,)

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.degree_cap < 1 or self.iter_cap < 1:
            raise ValueError("caps must be at least 1")
        if self.fmt not in FORMATS:
            raise ValueError(f"format must be one of {', '.join(FORMATS)}, got {self.fmt!r}")

    def as_json(self) -> Dict:
        return {key: dump(getattr(self, field)) for key, field, _, dump in _CONFIG_KEYS}


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are exit code 1, not argparse's 2
        raise CliError(message, EXIT_USAGE)


def _rat(text: str) -> Fraction:
    try:
        return as_rational(text.strip())
    except (ValueError, ZeroDivisionError, TypeError) as err:
        raise CliError(f"bad rational {text!r}: {err}", EXIT_USAGE) from None


def _rat_list(text: str) -> Tuple[Fraction, ...]:
    return tuple(_rat(part) for part in text.split(",") if part.strip())


def _int_list(text: str) -> Tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _str_list(values: Sequence) -> List[str]:
    return [str(v) for v in values]


#: Config-file key (also the flag dest and the JSON key), RunConfig field,
#: parser of the text, and JSON form of the value.
_CONFIG_KEYS = (
    ("degree_cap", "degree_cap", int, int),
    ("tol", "tol", float, float),
    ("iter_cap", "iter_cap", int, int),
    ("format", "fmt", str, str),
    ("deltas", "deltas", _rat_list, _str_list),
    ("qs", "qs", _rat_list, _str_list),
    ("fibers", "fibers", _int_list, list),
)


def _parse_bindings(pairs: Sequence[str]) -> Dict[str, Rational]:
    binds: Dict[str, Rational] = {}
    for pair in pairs:
        name, eq, value = pair.partition("=")
        if not eq or not name.strip():
            raise CliError(f"bindings look like name=value, got {pair!r}", EXIT_USAGE)
        binds[name.strip()] = _rat(value)
    return binds


def _resolve_operator(args, config: RunConfig) -> Tuple[WeylElement, Dict, Optional[cat.OpSpec]]:
    """Build the element from --expr or --op; returns (element, operator
    envelope, optional catalog spec)."""
    binds = _parse_bindings(args.bind or [])
    binds_json = {k: str(v) for k, v in sorted(binds.items())}
    if getattr(args, "expr", None):
        try:
            ast = opdsl.parse(args.expr)
            element = opdsl.lower(ast, binds, cap=config.degree_cap)
        except opdsl.ParseError as err:
            raise CliError(str(err), EXIT_USAGE) from None
        except opdsl.UnboundParameterError as err:
            raise CliError(str(err), EXIT_BINDING) from None
        return element, {"expr": args.expr, "bindings": binds_json}, None
    if getattr(args, "op", None):
        try:
            spec = cat.build_from_catalog(args.op, binds)
        except KeyError as err:
            raise CliError(
                f"missing binding for parameter {err.args[0]!r}", EXIT_BINDING
            ) from None
        except cat.ConstraintViolationError as err:
            raise CliError(str(err), EXIT_LEAKAGE) from None
        except ValueError as err:
            raise CliError(str(err), EXIT_USAGE) from None
        return spec.element, {"name": args.op, "bindings": binds_json}, spec
    raise CliError("one of --expr or --op is required", EXIT_USAGE)


def _realization_from_args(args, config: RunConfig) -> Realization:
    kind = args.realization
    if kind == "differential":
        return Differential()
    if kind == "delta":
        return DeltaLattice(_rat(args.delta))
    if kind == "q":
        return QLattice(_rat(args.q))
    if kind == "complex":
        return ComplexPlane(args.fiber_m)
    raise CliError(f"unknown realization {kind!r}", EXIT_USAGE)


def _eigenvalue_json(ev: Eigenvalue) -> Dict:
    if ev.is_exact:
        return {"exact": str(ev.exact)}
    return {"re": ev.re, "im": ev.im, "residual": ev.residual}


def _vector_json(vec: Tuple) -> List:
    out = []
    for c in vec:
        if isinstance(c, Fraction):
            out.append(str(c))
        elif isinstance(c, complex):
            out.append({"re": c.real, "im": c.imag})
        else:
            out.append(float(c))
    return out


def _term_table(element: WeylElement) -> List[Dict]:
    from .weyl import canonical_order

    return [
        {"b": i, "a": j, "coeff": str(element.terms[(i, j)])}
        for (i, j) in sorted(element.terms, key=canonical_order)
    ]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_normal_order(args, config: RunConfig) -> Tuple[Dict, Dict]:
    element, op_json, _ = _resolve_operator(args, config)
    result = {
        "canonical": opdsl.print_canonical(element),
        "terms": _term_table(element),
    }
    return op_json, result


def _cmd_classify(args, config: RunConfig) -> Tuple[Dict, Dict]:
    element, op_json, spec = _resolve_operator(args, config)
    target = args.n if args.n is not None else (spec.invariant_degree if spec else None)
    report = classify(
        element, n_max=args.nmax, target_degree=target, cap=config.degree_cap
    )
    result: Dict = {
        "exactly_solvable": report.exactly_solvable,
        "invariant_degrees": list(report.invariant_degrees),
        "scan_bound": report.scan_bound,
    }
    if report.constraint_residuals is not None:
        result["constraint_residuals"] = [str(r) for r in report.constraint_residuals]
    if report.leakage_witness is not None:
        col, overflow = report.leakage_witness
        result["leakage_witness"] = {
            "column": col,
            "overflow": [str(c) for c in overflow.coeffs],
        }
    return op_json, result


def _char_poly_json(cp) -> Dict:
    return {"text": cp.text(), "coeffs": [str(c) for c in cp.coeffs]}


def _spectrum_json(spec) -> Dict:
    return {
        "operator": spec.operator,
        "realization": spec.realization,
        "degree": spec.degree,
        "char_poly": _char_poly_json(spec.char_poly),
        "eigenpairs": [
            {"eigenvalue": _eigenvalue_json(ev), "eigenvector": _vector_json(vec)}
            for ev, vec in spec.eigenpairs
        ],
    }


def _cmd_spectrum(args, config: RunConfig) -> Tuple[Dict, Dict]:
    element, op_json, spec = _resolve_operator(args, config)
    realization = _realization_from_args(args, config)
    label = op_json.get("name") or op_json.get("expr") or ""
    sp = spectrum(
        element,
        args.n,
        realization,
        operator_label=label,
        tol=config.tol,
        iter_cap=config.iter_cap,
    )
    return op_json, _spectrum_json(sp)


def _cmd_isospectral(args, config: RunConfig) -> Tuple[Dict, Dict]:
    element, op_json, spec = _resolve_operator(args, config)
    realizations: List[Realization] = [Differential()]
    realizations += [DeltaLattice(d) for d in config.deltas]
    realizations += [QLattice(q) for q in config.qs]
    realizations += [ComplexPlane(m) for m in config.fibers]
    report = isospectral_check(element, args.n, realizations)
    char_poly_json = functools.cache(_char_poly_json)  # once per distinct polynomial
    result = {
        "degree": report.degree,
        "char_polys": [{"realization": label, **char_poly_json(cp)} for label, cp in report.entries],
        "equal": report.all_equal,
    }
    return op_json, result


def _cmd_catalog(args, config: RunConfig) -> Tuple[Optional[Dict], Dict]:
    entries = [
        {
            "name": entry.name,
            "params": list(entry.params),
            "summary": entry.summary,
        }
        for entry in (cat.CATALOG[k] for k in sorted(cat.CATALOG))
    ]
    return None, {"operators": entries}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _load_config_file(path: str) -> Dict[str, str]:
    values: Dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, eq, value = line.partition("=")
                if not eq:
                    raise CliError(f"config lines look like key=value, got {line!r}", EXIT_USAGE)
                values[key.strip()] = value.strip()
    except OSError as err:
        raise CliError(f"cannot read config file: {err}", EXIT_USAGE) from None
    return values


def _build_config(args) -> RunConfig:
    """Defaults, overridden by the config file, overridden by flags."""
    file_values = _load_config_file(args.config) if args.config else {}
    known = [key for key, *_ in _CONFIG_KEYS]
    for key in file_values:
        if key not in known:
            raise CliError(f"unknown config key {key!r} (known: {', '.join(known)})", EXIT_USAGE)
    values = {}
    for key, field, parse, _ in _CONFIG_KEYS:
        text = getattr(args, key, None)
        if text is None:
            text = file_values.get(key)
        if text is not None:
            values[field] = parse(text)
    return RunConfig(**values)


def _emit_text(command: str, result: Dict, out) -> None:
    def walk(value, indent=0):
        pad = "  " * indent
        if isinstance(value, dict):
            for k, v in value.items():
                if isinstance(v, (dict, list)):
                    print(f"{pad}{k}:", file=out)
                    walk(v, indent + 1)
                else:
                    print(f"{pad}{k}: {v}", file=out)
        elif isinstance(value, list):
            for v in value:
                if isinstance(v, (dict, list)):
                    walk(v, indent)
                    print(file=out)
                else:
                    print(f"{pad}- {v}", file=out)
        else:
            print(f"{pad}{value}", file=out)

    print(f"# {command}", file=out)
    walk(result)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="fockspec", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="optional key=value config file")
    parser.add_argument("--degree-cap", dest="degree_cap", type=int)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--iter-cap", dest="iter_cap", type=int)
    parser.add_argument("--format", choices=FORMATS)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_operator_args(p, with_op=True):
        p.add_argument("--expr", help="operator expression over a, b, L0")
        if with_op:
            p.add_argument("--op", help="catalog operator name")
        p.add_argument("--bind", action="append", metavar="NAME=VALUE")

    p = sub.add_parser("normal-order", help="canonical normal form of an expression")
    add_operator_args(p)
    p.set_defaults(handler=_cmd_normal_order)

    p = sub.add_parser("classify", help="exactly-solvable flag and invariant degrees")
    add_operator_args(p)
    p.add_argument("--nmax", type=int, default=DEFAULT_SCAN_BOUND)
    p.add_argument("--n", type=int, help="degree for residuals and witnesses")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("spectrum", help="characteristic polynomial and eigenpairs")
    add_operator_args(p)
    p.add_argument("--n", type=int, required=True, help="invariant degree")
    p.add_argument(
        "--realization",
        choices=("differential", "delta", "q", "complex"),
        default="differential",
    )
    p.add_argument("--delta", default="1", help="lattice spacing for --realization delta")
    p.add_argument("--q", default="2", help="dilation factor for --realization q")
    p.add_argument("--fiber-m", dest="fiber_m", type=int, default=0)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("isospectral", help="compare spectra across realizations")
    add_operator_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--deltas", help="comma-separated lattice spacings")
    p.add_argument("--qs", help="comma-separated dilation factors")
    p.add_argument("--fibers", help="comma-separated vacuum z-degrees")
    p.set_defaults(handler=_cmd_isospectral)

    p = sub.add_parser("catalog", help="list the named operators")
    p.set_defaults(handler=_cmd_catalog)

    return parser


#: built on the first ``main`` call; each parse fills a fresh namespace
_shared_parser = functools.cache(build_arg_parser)
#: exact numerators outgrow the int-to-text digit limit (Python 3.10.7 on)
_get_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    limit = _get_digit_limit()
    _set_digit_limit(0)
    try:
        return _run(argv, out)
    finally:
        _set_digit_limit(limit)


def _run(argv: Optional[Sequence[str]], out) -> int:
    command, detail = "?", {}
    try:
        args = _shared_parser().parse_args(argv)
        command = args.command
        config = _build_config(args)
        op_json, result = args.handler(args, config)
        if config.fmt == "text":
            _emit_text(command, result, out)
        else:
            _emit_json(command, config.as_json(), op_json, result, [], out)
        return EXIT_OK
    except CliError as err:
        code, failure = err.code, err
    except (ValueError, DegreeOverflowError) as err:
        # bad user input reaching a library precondition (tolerances,
        # realization parameters, exponent caps)
        code, failure = EXIT_USAGE, err
    except LeakageError as err:
        overflow = getattr(err.overflow, "coeffs", None)
        detail = {
            "leakage": {
                "column": err.column,
                "overflow": [str(c) for c in overflow] if overflow is not None else str(err.overflow),
            }
        }
        code, failure = EXIT_LEAKAGE, err
    except (NonConvergenceError, OverflowError) as err:
        # OverflowError: a number too large for a float (a root or a
        # coefficient) reached the numeric stage
        code, failure = EXIT_NUMERIC, err
    _emit_json(command, {}, None, detail, [str(failure)], out)
    return code


def _emit_json(command: str, config: Dict, operator: Optional[Dict], result: Dict,
               diagnostics: List[str], out) -> None:
    envelope = {
        "command": command,
        "config": config,
        "operator": operator,
        "result": result,
        "diagnostics": diagnostics,
    }
    print(json.dumps(envelope, indent=2), file=out)


if __name__ == "__main__":
    sys.exit(main())
