"""Text grammar for noncommutative operator expressions.

    expr     := ['-'] term (('+' | '-') term)*
    term     := ['-'] factor ('*' factor)*
    factor   := atom ('^' uint)?
    atom     := rational | ident | '(' expr ')'
    rational := uint ('/' uint)?

Identifiers ``a``, ``b`` and ``L0`` are the generators (``L0`` lowers to
``b*a``); any other identifier is a scalar parameter that must be bound to a
rational when lowering.  Multiplication is explicit (``*``), products keep
their written order, unary minus binds looser than ``^``, and ``/`` is legal
only inside a rational literal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Tuple, Union

from .weyl import (
    DEFAULT_DEGREE_CAP,
    Rational,
    WeylElement,
    as_rational,
    canonical_text,
    make,
    multiply,
    power,
    scale,
)

Bindings = Mapping[str, Rational]


class ParseError(ValueError):
    """Syntax error with the offending source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnboundParameterError(KeyError):
    def __init__(self, name: str, span: Tuple[int, int]):
        super().__init__(name)
        self.name = name
        self.span = span

    def __str__(self) -> str:
        return f"unbound parameter {self.name!r} (at position {self.span[0]})"


Span = Tuple[int, int]


@dataclass(frozen=True)
class Sum:
    parts: Tuple["OpAst", ...]
    span: Span


@dataclass(frozen=True)
class Product:
    parts: Tuple["OpAst", ...]  # written order
    span: Span


@dataclass(frozen=True)
class Power:
    base: "OpAst"
    exponent: int
    span: Span


@dataclass(frozen=True)
class Neg:
    part: "OpAst"
    span: Span


@dataclass(frozen=True)
class RationalLit:
    value: Rational
    span: Span


@dataclass(frozen=True)
class Param:
    name: str
    span: Span


@dataclass(frozen=True)
class Gen:
    which: str  # "a" | "b" | "L0"
    span: Span


OpAst = Union[Sum, Product, Power, Neg, RationalLit, Param, Gen]

_SYMBOLS = "+-*^()/"

#: ``(b-exponent, a-exponent)`` of each generator name; ``L0`` is ``b*a``.
_GENERATORS = {"a": (0, 1), "b": (1, 0), "L0": (1, 1)}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            tokens.append(("int", text[start:pos], start))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < len(text) and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(("ident", text[start:pos], start))
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.idx]

    def advance(self) -> Tuple[str, str, int]:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str) -> Tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return self.advance()

    def parse_expr(self) -> OpAst:
        start = self.peek()[2]
        negate = False
        if self.peek()[0] == "-":
            self.advance()
            negate = True
        first = self.parse_term()
        if negate:
            first = Neg(first, (start, first.span[1]))
        parts = [first]
        while self.peek()[0] in ("+", "-"):
            op, _, op_pos = self.advance()
            term = self.parse_term()
            if op == "-":
                term = Neg(term, (op_pos, term.span[1]))
            parts.append(term)
        if len(parts) == 1:
            return parts[0]
        return Sum(tuple(parts), (start, parts[-1].span[1]))

    def parse_term(self) -> OpAst:
        start = self.peek()[2]
        negate = False
        if self.peek()[0] == "-":
            self.advance()
            negate = True
        parts = [self.parse_factor()]
        while True:
            kind, _, pos = self.peek()
            if kind == "*":
                self.advance()
                parts.append(self.parse_factor())
            elif kind == "/":
                raise ParseError("division is only allowed inside rational literals", pos)
            else:
                break
        node: OpAst = parts[0] if len(parts) == 1 else Product(
            tuple(parts), (parts[0].span[0], parts[-1].span[1])
        )
        if negate:
            node = Neg(node, (start, node.span[1]))
        return node

    def parse_factor(self) -> OpAst:
        atom = self.parse_atom()
        if self.peek()[0] == "^":
            self.advance()
            tok = self.peek()
            if tok[0] != "int":
                raise ParseError("exponent must be a nonnegative integer", tok[2])
            self.advance()
            return Power(atom, int(tok[1]), (atom.span[0], tok[2] + len(tok[1])))
        return atom

    def parse_atom(self) -> OpAst:
        kind, text, pos = self.peek()
        if kind == "int":
            self.advance()
            value = Fraction(int(text))
            end = pos + len(text)
            if self.peek()[0] == "/":
                self.advance()
                dtok = self.peek()
                if dtok[0] != "int":
                    raise ParseError("expected a denominator", dtok[2])
                self.advance()
                if int(dtok[1]) == 0:
                    raise ParseError("zero denominator", dtok[2])
                value = Fraction(int(text), int(dtok[1]))
                end = dtok[2] + len(dtok[1])
            return RationalLit(value, (pos, end))
        if kind == "ident":
            self.advance()
            span = (pos, pos + len(text))
            if text in _GENERATORS:
                return Gen(text, span)
            return Param(text, span)
        if kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError(f"expected a value, found {text!r}" if text else "unexpected end of input", pos)


def parse(text: str) -> OpAst:
    """Parse to an AST with source spans; raises ParseError on bad syntax."""
    parser = _Parser(text)
    ast = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return ast


def lower(
    ast: OpAst, bindings: Optional[Bindings] = None, cap: int = DEFAULT_DEGREE_CAP
) -> WeylElement:
    """Evaluate an AST to a normal-ordered element, binding parameters."""
    binds = {k: as_rational(v) for k, v in (bindings or {}).items()}

    def go(node: OpAst) -> WeylElement:
        if isinstance(node, Sum):
            out = WeylElement.zero()
            for part in node.parts:
                out = out + go(part)
            return out
        if isinstance(node, Product):
            out = go(node.parts[0])
            for part in node.parts[1:]:
                out = multiply(out, go(part), cap)
            return out
        if isinstance(node, Power):
            return power(go(node.base), node.exponent, cap)
        if isinstance(node, Neg):
            return scale(-1, go(node.part))
        if isinstance(node, RationalLit):
            return WeylElement._of({(0, 0): node.value})
        if isinstance(node, Param):
            if node.name not in binds:
                raise UnboundParameterError(node.name, node.span)
            return WeylElement._of({(0, 0): binds[node.name]})
        if isinstance(node, Gen):
            return make(1, *_GENERATORS[node.which], cap)
        raise TypeError(f"unexpected AST node {node!r}")

    return go(ast)


def print_canonical(u: WeylElement) -> str:
    """Canonical text; ``lower(parse(print_canonical(u)))`` reproduces u."""
    return canonical_text(u)
