"""Text syntax for polynomials, points, and map definition files.

Polynomial expressions use declared variable names, ``+ - * / ^`` and
parentheses, e.g. ``3/2*x^2*y - z`` or ``z - (y - x^2)^2``.  Whitespace is
insignificant, and ASCII: the characters of ``string.whitespace``.
Division is restricted to nonzero constant divisors (it exists so that
rational coefficients can be written naturally); unknown identifiers are
rejected.  Digits are ASCII ``0-9``.  Every coefficient that a
``+ - * / ^`` builds must stay within ``DEFAULT_BIT_BUDGET`` (2^20) bits
in numerator and denominator: ``2^1048575`` reads, ``2^1048576``,
``(3*x)^1000000000`` and ``2^1048575*2^1048575`` are ``MapSyntaxError``s,
a power of one term raised before it is built.

A power ``p^k`` of a polynomial of ``t >= 2`` terms is bounded before it
is built, by the work of building it.  Write ``p = P/Q``, with ``Q`` the
lcm of the denominators of ``p``'s coefficients, and let ``L`` be the bit
length of the larger of ``Q`` and the sum of the absolute values of
``P``'s coefficients.

- For ``j <= k``, each coefficient of ``p^j`` is a coefficient of
  ``P^j``, at most ``(sum |P|)^j`` in absolute value, over ``Q^j``.  So
  its numerator and denominator have at most ``j*L <= k*L`` bits.
- ``p^j`` has at most ``T = min(C(k+t-1, k), prod_v (k*deg_v(p) + 1))``
  terms: each of its monomials is the product of a multiset of ``j`` of
  ``p``'s ``t`` monomials, and its exponent of a variable ``v`` lies in
  ``[0, j*deg_v(p)]``.
- ``Polynomial.__pow__`` builds ``p^k`` by repeated squaring: fewer than
  ``2*bits(k)`` products ``p^i * p^j`` with ``i, j <= k``, each of at
  most ``T^2`` products of coefficients of at most ``k*L`` bits.

So ``W = T^2 * k * L`` bounds the work of each product, and a power with
``W > POWER_WORK = 2^28`` is a ``MapSyntaxError`` at the column of its
base, raised before any product.  ``T >= k + 1``, because ``p`` has a
variable of positive degree and ``C(k+t-1, k) >= k + 1``, and ``L >= 1``;
so ``W >= k^3``, and an exponent with ``k^3 > 2^28`` is refused without
counting.  ``(y+1)^500`` reads (``W`` about ``2.5e8``; 0.6 to 0.9 s on a
2-vCPU x86_64 VM), ``(y+1)^515`` and ``(y+1)^3000`` do not.

A point is a comma-separated list of constants of this syntax, e.g.
``1,1/2,-3`` or ``(1/2, -3, 2^2)``; an integer of the command line (a
sampler-spec field, ``--depth``, ``--bit-budget``, ``--seed``) is an
integer constant of it (``parse_integer``), e.g. ``7``, ``-7``, ``2^24``
or ``6/2``.

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
from math import comb, gcd, lcm, prod
from typing import Sequence

from . import kernel
from .dynamics import DEFAULT_BIT_BUDGET
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


# Whitespace is ASCII, the characters of ``string.whitespace``: ``\s``
# without ``re.ASCII``, and ``str.strip`` or ``str.split`` without an
# argument, also take Unicode spaces such as U+3000.
_SPACE = " \t\n\r\v\f"
_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<int>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()|])",
    re.ASCII,
)


def _tokenize(text: str, line: int | None, pos: int) -> list[tuple[str, str, int]]:
    """The tokens of ``text`` from index ``pos`` on, each with its column in
    ``text``, and last an ``end`` token at the column past the text."""
    tokens = []
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise MapSyntaxError(f"unexpected character {text[pos]!r}", line, pos + 1)
        if match.lastgroup != "ws":
            tokens.append((match.lastgroup, match.group(), pos + 1))
        pos = match.end()
    tokens.append(("end", "", pos + 1))
    return tokens


class _Parser:
    """Recursive-descent parser producing exact ``Polynomial`` values."""

    def __init__(self, tokens, names: Sequence[str], line: int | None = None):
        self.tokens = tokens
        self.index = 0
        self.names = list(names)
        self.line = line

    def error(self, message: str) -> MapSyntaxError:
        return MapSyntaxError(message, self.line, self.peek()[2])

    def peek(self):
        return self.tokens[self.index]

    def take(self):
        self.index += 1

    def check_cap(self, terms, exponents, column: int) -> None:
        """Refuse, at ``column``, a coefficient of ``terms`` at one of
        ``exponents`` (those the last operation built) whose numerator or
        denominator has more than ``DEFAULT_BIT_BUDGET`` bits."""
        for exps in exponents:
            coeff = terms.get(exps)
            if coeff is not None and _bits(coeff) > DEFAULT_BIT_BUDGET:
                raise MapSyntaxError(
                    f"coefficient of more than {DEFAULT_BIT_BUDGET} bits", self.line, column
                )

    def parse(self, separator: str | None) -> list[Polynomial]:
        """``expr (separator expr)*``, up to the end of the tokens."""
        polys = [self.expr()]
        while self.peek()[:2] == ("op", separator):
            self.take()
            polys.append(self.expr())
        kind, value, _ = self.peek()
        if kind != "end":
            raise self.error(f"unexpected {excerpt(value)}")
        return polys

    def expr(self) -> Polynomial:
        # The terms of a sum go into one dict, so that a sum of n terms
        # costs O(n) and not the O(n^2) of one ``Polynomial`` per ``+``.
        first = self.term()
        terms = dict(first.terms)
        while True:
            kind, value, column = self.peek()
            if kind != "op" or value not in "+-":
                return Polynomial(first.nvars, terms)
            self.take()
            rhs = self.term()
            for exps, coeff in rhs.terms.items():
                coeff = terms.get(exps, 0) + (coeff if value == "+" else -coeff)
                if coeff:
                    terms[exps] = coeff
                else:
                    terms.pop(exps, None)
            self.check_cap(terms, rhs.terms, column)

    def term(self) -> Polynomial:
        poly = self.factor()
        while True:
            kind, value, column = self.peek()
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
                    poly = poly * Polynomial.constant(rhs.nvars, 1 / rhs.terms[(0,) * rhs.nvars])
                self.check_cap(poly.terms, poly.terms, column)
            else:
                return poly

    def factor(self) -> Polynomial:
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            return -self.factor() if value == "-" else self.factor()
        return self.power()

    def take_int(self) -> int:
        """The value of the integer token at hand, taken."""
        try:
            value = parse_int(self.peek()[1])
        except ValueError as exc:
            raise self.error(str(exc)) from None
        self.take()
        return value

    def power(self) -> Polynomial:
        column = self.peek()[2]
        base = self.atom()
        kind, value, _ = self.peek()
        if kind != "op" or value != "^":
            return base
        self.take()
        if self.peek()[0] != "int":
            raise self.error("exponent must be a non-negative integer")
        exponent = self.take_int()
        if len(base.terms) != 1:
            if len(base.terms) > 1 and _power_work(base, exponent) > POWER_WORK:
                raise MapSyntaxError("power too large to expand", self.line, column)
            poly = base**exponent
            self.check_cap(poly.terms, poly.terms, column)
            return poly
        # The power of a monomial c*x^e is the one term c^k*x^(k*e).
        # |c|^k has at least (bits(c) - 1) * k + 1 bits, so that bound
        # refuses a power past the cap before it is built; a power it lets
        # through has at most twice the cap, and is measured once built.
        (exps, coeff), = base.terms.items()
        if (_bits(coeff) - 1) * exponent < DEFAULT_BIT_BUDGET:
            poly = base**exponent
            if _bits(*poly.terms.values()) <= DEFAULT_BIT_BUDGET:
                return poly
        what = "coefficient" if any(exps) else "constant power"
        raise MapSyntaxError(f"{what} of more than {DEFAULT_BIT_BUDGET} bits", self.line, column)

    def atom(self) -> Polynomial:
        kind, value, _ = self.peek()
        if kind == "int":
            return Polynomial.constant(len(self.names), self.take_int())
        if kind == "name":
            self.take()
            if value not in self.names:
                raise self.error(f"unknown identifier {excerpt(value)}")
            return Polynomial.variable(len(self.names), self.names.index(value))
        if kind == "op" and value == "(":
            self.take()
            inner = self.expr()
            if self.peek()[:2] != ("op", ")"):
                raise self.error("expected ')'")
            self.take()
            return inner
        raise self.error("expected a number, variable, or parenthesized expression")


# The bound on ``_power_work`` past which a power of a polynomial of two
# or more terms is refused before it is built (module docstring).
POWER_WORK = 2**28


def _power_work(base: Polynomial, k: int) -> int:
    """``W = T^2 * k * L`` of the module docstring for ``base^k``, where
    ``base`` has two or more terms; ``k^3``, a lower bound of ``W``, when
    that alone exceeds ``POWER_WORK``."""
    if k**3 > POWER_WORK:
        return k**3
    coeffs = base.terms.values()
    den = lcm(*(c.denominator for c in coeffs))
    total = sum(abs(c.numerator) * (den // c.denominator) for c in coeffs)
    degrees = map(max, zip(*base.terms))
    terms = min(comb(k + len(coeffs) - 1, k), prod(k * d + 1 for d in degrees))
    return terms * terms * k * max(total, den).bit_length()


def _bits(value: Fraction) -> int:
    """The bit length of the longer of ``value``'s numerator and denominator."""
    return max(abs(value.numerator), value.denominator).bit_length()


def excerpt(text: str) -> str:
    """``text`` quoted for an error message, cut after 20 characters."""
    return repr(text if len(text) <= 20 else text[:20] + "...")


def parse_int(digits: str) -> int:
    """``int(digits)`` for a string of ASCII digits, with a ``-`` in front
    when JSON's number grammar gave one; past the interpreter's
    int-from-str digit limit a ``ValueError``: "integer of N digits is too
    long"."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"integer of {len(digits.lstrip('-'))} digits is too long") from None


def _parse(
    text: str, names: Sequence[str], separator: str | None, line: int | None = None, pos: int = 0
) -> list[Polynomial]:
    """The expressions ``expr (separator expr)*`` of ``text[pos:]`` over
    ``names``; error columns count from the start of ``text``."""
    tokens = _tokenize(text, line, pos)
    if len(tokens) == 1:
        raise MapSyntaxError("empty expression", line)
    try:
        return _Parser(tokens, names, line).parse(separator)
    except RecursionError:  # parentheses or signs nested past the stack
        raise MapSyntaxError("expression nested too deeply", line) from None


def parse_polynomial(text: str, names: Sequence[str]) -> Polynomial:
    """Parse an expression over the declared variable ``names``."""
    return _parse(text, names, None)[0]


def _constant(text: str) -> Fraction:
    """The value of the constant expression ``text``."""
    return parse_polynomial(text, ()).terms.get((), Fraction(0))


def parse_integer(text: str) -> int:
    """The integer constant ``text`` of the map syntax, e.g. ``7``, ``-7``,
    ``(7)``, ``2^3`` or ``6/2``; ``1/2`` is "not an integer"."""
    value = _constant(text)
    if value.denominator != 1:
        raise MapSyntaxError(f"not an integer: {excerpt(text)}")
    return value.numerator


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


def _unwrapped(text: str) -> str:
    """``text`` without a pair of parentheses that encloses all of it."""
    depth = 0
    for index, char in enumerate(text):
        depth += (char == "(") - (char == ")")
        if depth == 0:
            return text[1:-1] if 0 < index == len(text) - 1 else text
    return text


def parse_point(text: str, nvars: int | None = None) -> tuple[Fraction, ...]:
    """Parse a point like ``1,1/2,-3``, or ``(1,1/2,-3)`` in parentheses
    that enclose all of it.  Each coordinate is a constant of the map
    syntax: ``(1/3)`` and ``2^5`` read as in a map file, ``0.5`` and ``1e5``
    do not."""
    cleaned = _unwrapped(text.strip(_SPACE))
    coords = []
    for index, part in enumerate(cleaned.split(","), start=1):
        try:
            coords.append(_constant(part))
        except MapSyntaxError as exc:
            raise MapSyntaxError(f"coordinate {index} of the point: {exc}") from None
    if nvars is not None and len(coords) != nvars:
        raise MapSyntaxError(f"point has {len(coords)} coordinates, expected {nvars}")
    return tuple(coords)


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
_VARS_RE = re.compile(r"vars(\s|$)", re.ASCII)
# The variable names of a ``vars`` line: separated by commas or whitespace.
_WORD_RE = re.compile(r"[^\s,]+", re.ASCII)
# The line breaks of ``open``'s universal newlines, so that a text read
# from a file and the same text given here count lines alike.
_LINE_BREAK_RE = re.compile(r"\r\n?|\n")


def parse_map_file(text: str) -> MapFile:
    names: list[str] | None = None
    blocks: dict[str, tuple[Polynomial, ...]] = {}
    for lineno, raw in enumerate(_LINE_BREAK_RE.split(text), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip(_SPACE)
        if not line:
            continue
        if _VARS_RE.match(line):
            if names is not None:
                raise MapSyntaxError("variables declared twice", lineno)
            declared = _WORD_RE.findall(line, len("vars"))
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
            keyword = line.partition(":")[0].strip(_SPACE)
            if keyword in ("forward", "inverse"):
                if names is None:
                    raise MapSyntaxError("vars must be declared before coordinates", lineno)
                if keyword in blocks:
                    raise MapSyntaxError(f"{keyword} block given twice", lineno)
                coords = tuple(_parse(code, names, "|", lineno, code.index(":") + 1))
                if len(coords) != len(names):
                    raise MapSyntaxError(
                        f"{keyword} has {len(coords)} coordinates, expected {len(names)}",
                        lineno,
                    )
                blocks[keyword] = coords
                continue
        raise MapSyntaxError(f"unrecognized line {line!r}", lineno)
    if names is None:
        raise MapSyntaxError("missing vars declaration")
    for keyword in ("forward", "inverse"):
        if keyword not in blocks:
            raise MapSyntaxError(f"missing {keyword} block")
    return MapFile(tuple(names), blocks["forward"], blocks["inverse"])


def load_map_file(path) -> MapFile:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise MapSyntaxError(f"{path}: {exc}") from None
    return parse_map_file(text)
