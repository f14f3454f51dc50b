"""Text syntax for polynomials, points, and map definition files.

Polynomial expressions use declared variable names, ``+ - * / ^`` and
parentheses, e.g. ``3/2*x^2*y - z`` or ``z - (y - x^2)^2``.  Whitespace is
insignificant.  Division is restricted to nonzero constant divisors (it
exists so that rational coefficients can be written naturally); unknown
identifiers are rejected.

A map definition file declares its variables once and gives the forward
and inverse coordinates separated by ``|``::

    vars x y z
    forward: y | z + y^2 | x + z^2
    inverse: z - (y - x^2)^2 | x | y - x^2

Lines starting with ``#`` are comments.  Both blocks are required: a file
without one is a ``MapSyntaxError``.  The pair is verified symbolically
when an ``AffineAutomorphism`` is built from it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from . import kernel
from .polyring import Polynomial


class MapSyntaxError(ValueError):
    """Syntax error in a polynomial expression or map file, with location."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()|])"
)


def _tokenize(text: str, line: int | None = None) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise MapSyntaxError(f"unexpected character {text[pos]!r}", line, pos + 1)
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group(), pos + 1))
        pos = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser producing exact ``Polynomial`` values."""

    def __init__(self, tokens, names: Sequence[str], line: int | None = None):
        self.tokens = tokens
        self.index = 0
        self.names = list(names)
        self.line = line

    def error(self, message: str) -> MapSyntaxError:
        column = self.tokens[self.index][2] if self.index < len(self.tokens) else None
        return MapSyntaxError(message, self.line, column)

    def peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else (None, None, None)

    def take(self):
        token = self.peek()
        self.index += 1
        return token

    def expect_op(self, op: str):
        kind, value, _ = self.peek()
        if kind != "op" or value != op:
            raise self.error(f"expected {op!r}")
        self.take()

    def parse(self) -> Polynomial:
        poly = self.expr()
        if self.index != len(self.tokens):
            raise self.error("trailing input after polynomial")
        return poly

    def expr(self) -> Polynomial:
        poly = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs = self.term()
                poly = poly + rhs if value == "+" else poly - rhs
            else:
                return poly

    def term(self) -> Polynomial:
        poly = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                rhs = self.factor()
                if value == "*":
                    poly = poly * rhs
                else:
                    if rhs.is_zero:
                        raise self.error("division by zero")
                    if not all(sum(e) == 0 for e in rhs.terms):
                        raise self.error("division is only allowed by nonzero constants")
                    poly = poly * _invert_constant(rhs)
            else:
                return poly

    def factor(self) -> Polynomial:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.take()
            return -self.factor()
        if kind == "op" and value == "+":
            self.take()
            return self.factor()
        return self.power()

    def take_int(self) -> int:
        """The value of the integer token at hand, taken."""
        text = self.peek()[1]
        try:
            value = int(text)
        except ValueError:  # past the interpreter's int-from-str digit limit
            raise self.error(f"integer of {len(text)} digits is too long") from None
        self.take()
        return value

    def power(self) -> Polynomial:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.take()
            if self.peek()[0] != "int":
                raise self.error("exponent must be a non-negative integer")
            return base ** self.take_int()
        return base

    def atom(self) -> Polynomial:
        kind, value, _ = self.peek()
        if kind == "int":
            return Polynomial.constant(len(self.names), self.take_int())
        if kind == "name":
            self.take()
            if value not in self.names:
                raise self.error(f"unknown identifier {value!r}")
            return Polynomial.variable(len(self.names), self.names.index(value))
        if kind == "op" and value == "(":
            self.take()
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise self.error("expected a number, variable, or parenthesized expression")


def _invert_constant(p: Polynomial) -> Polynomial:
    value = p.terms[(0,) * p.nvars]
    return Polynomial.constant(p.nvars, Fraction(1) / value)


def parse_polynomial(text: str, names: Sequence[str], line: int | None = None) -> Polynomial:
    """Parse an expression over the declared variable ``names``."""
    tokens = _tokenize(text, line)
    if not tokens:
        raise MapSyntaxError("empty polynomial expression", line)
    try:
        return _Parser(tokens, names, line).parse()
    except RecursionError:  # parentheses or signs nested past the stack
        raise MapSyntaxError("expression nested too deeply", line) from None


def format_polynomial(p: Polynomial, names: Sequence[str] | None = None) -> str:
    """Canonical text form: descending graded-lexicographic term order."""
    if names is None:
        names = [f"x{i}" for i in range(p.nvars)]
    if len(names) != p.nvars:
        raise ValueError(f"expected {p.nvars} names, got {len(names)}")
    if p.is_zero:
        return "0"
    pieces: list[str] = []
    for exps, coeff in p.sorted_terms():
        vars_part = "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(names, exps)
            if e
        )
        mag = abs(coeff)
        if not vars_part:
            body = str(mag)
        elif mag == 1:
            body = vars_part
        else:
            body = f"{mag}*{vars_part}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def parse_point(text: str, nvars: int | None = None) -> tuple[Fraction, ...]:
    """Parse a point like ``1,1/2,-3`` (surrounding parentheses allowed)."""
    cleaned = text.strip()
    if cleaned.startswith("(") and cleaned.endswith(")"):
        cleaned = cleaned[1:-1]
    parts = [part.strip() for part in cleaned.split(",")]
    if parts == [""]:
        raise MapSyntaxError("empty point")
    try:
        coords = tuple(Fraction(part) for part in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise MapSyntaxError(f"bad coordinate in point {text!r}: {exc}") from None
    if nvars is not None and len(coords) != nvars:
        raise MapSyntaxError(f"point has {len(coords)} coordinates, expected {nvars}")
    return coords


# Reports write an integer of more than 4,300 decimal digits as exact hex:
# CPython refuses longer decimal text by default, and its decimal
# conversion takes quadratic time.  The threshold is fixed here rather than
# read from ``sys.get_int_max_str_digits()``, so that a report does not
# depend on the environment; ``cli.main`` raises a lower limit to it.
DECIMAL_DIGITS = 4300
DECIMAL_LIMIT = 10**DECIMAL_DIGITS


def report_int(n: int) -> int | str:
    """How a report writes the integer ``n``: ``n`` itself, in decimal, when
    it has at most 4,300 digits, else its exact hex text ``"0x..."`` or
    ``"-0x..."`` (``int(text, 16)`` reads it back)."""
    return n if -DECIMAL_LIMIT < n < DECIMAL_LIMIT else hex(n)


def _int_text(n: int) -> str:
    return str(report_int(n))


def format_raw_point(nums: Sequence[int], den: int, decimal: bool = False) -> str:
    """Text of the point ``nums / den`` (``den > 0``), each coordinate in
    lowest terms, e.g. ``1,1/2,-3``, without building ``Fraction``s.

    Each integer is written by the ``report_int`` rule.  A caller that
    knows every integer of the point is below ``DECIMAL_LIMIT`` may say so
    with ``decimal=True``, which skips the check."""
    digits = str if decimal else _int_text
    if den == 1:
        return ",".join(map(digits, nums))
    parts = []
    for n in nums:
        g = gcd(n, den)
        parts.append(digits(n // g) if g == den else f"{digits(n // g)}/{digits(den // g)}")
    return ",".join(parts)


def format_point(point: Sequence[Fraction | int]) -> str:
    return format_raw_point(*kernel.to_common_denominator(point))


# -- map definition files ----------------------------------------------


@dataclass(frozen=True)
class MapFile:
    """Parsed map definition: variable names and coordinate polynomials."""

    names: tuple[str, ...]
    forward: tuple[Polynomial, ...]
    inverse: tuple[Polynomial, ...]


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


def parse_map_file(text: str) -> MapFile:
    names: list[str] | None = None
    blocks: dict[str, tuple[tuple[Polynomial, ...], int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.split(maxsplit=1)[0] == "vars":
            if names is not None:
                raise MapSyntaxError("variables declared twice", lineno)
            declared = line[len("vars"):].replace(",", " ").split()
            if not declared:
                raise MapSyntaxError("no variables declared", lineno)
            for name in declared:
                if not _NAME_RE.match(name):
                    raise MapSyntaxError(f"bad variable name {name!r}", lineno)
            if len(set(declared)) != len(declared):
                raise MapSyntaxError("duplicate variable name", lineno)
            names = declared
            continue
        if ":" in line:
            keyword, _, rest = line.partition(":")
            keyword = keyword.strip()
            if keyword in ("forward", "inverse"):
                if names is None:
                    raise MapSyntaxError("vars must be declared before coordinates", lineno)
                if keyword in blocks:
                    raise MapSyntaxError(f"{keyword} block given twice", lineno)
                coords = tuple(
                    parse_polynomial(chunk, names, lineno)
                    for chunk in rest.split("|")
                )
                if len(coords) != len(names):
                    raise MapSyntaxError(
                        f"{keyword} has {len(coords)} coordinates, expected {len(names)}",
                        lineno,
                    )
                blocks[keyword] = (coords, lineno)
                continue
        raise MapSyntaxError(f"unrecognized line {line!r}", lineno)
    if names is None:
        raise MapSyntaxError("missing vars declaration")
    for keyword in ("forward", "inverse"):
        if keyword not in blocks:
            raise MapSyntaxError(f"missing {keyword} block")
    return MapFile(tuple(names), blocks["forward"][0], blocks["inverse"][0])


def load_map_file(path) -> MapFile:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise MapSyntaxError(f"{path}: {exc}") from None
    return parse_map_file(text)
