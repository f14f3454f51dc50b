import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affdyn import kernel
from affdyn.parsing import (
    MapSyntaxError,
    format_point,
    format_raw_point,
    format_polynomial,
    parse_int,
    parse_integer,
    parse_map_file,
    parse_point,
    parse_polynomial,
    report_int,
)
from affdyn.polyring import Polynomial

from conftest import bundled_map_text, small_points

XYZ = ("x", "y", "z")


def test_basic_terms():
    p = parse_polynomial("3/2*x^2*y - z", XYZ)
    assert p.terms == {(2, 1, 0): Fraction(3, 2), (0, 0, 1): Fraction(-1)}


def test_whitespace_insensitive():
    assert parse_polynomial("3/2*x^2*y-z", XYZ) == parse_polynomial(
        "  3/2 * x^2 * y  -  z ", XYZ
    )


def test_parenthesized_powers():
    p = parse_polynomial("z - (y - x^2)^2", XYZ)
    assert p == parse_polynomial("z - y^2 + 2*x^2*y - x^4", XYZ)


def test_unary_minus_binds_below_power():
    assert parse_polynomial("-x^2", XYZ) == -parse_polynomial("x^2", XYZ)


def test_unknown_identifier_rejected():
    with pytest.raises(MapSyntaxError):
        parse_polynomial("x + q", XYZ)


def test_nonconstant_divisor_rejected():
    with pytest.raises(MapSyntaxError):
        parse_polynomial("x / y", XYZ)
    assert parse_polynomial("x / 2", XYZ) == parse_polynomial("1/2 * x", XYZ)


@pytest.mark.parametrize("bad", ["", "x +", "(x", "x ^ y", "2 ** 3", "x!", "3//2"])
def test_syntax_errors(bad):
    with pytest.raises(MapSyntaxError):
        parse_polynomial(bad, XYZ)


def test_format_roundtrip():
    texts = ["3/2*x^2*y - z", "x^4 - 2*x^2*y + y^2", "-x - 1/3", "0 + x - x"]
    for text in texts:
        p = parse_polynomial(text, XYZ)
        assert parse_polynomial(format_polynomial(p, XYZ), XYZ) == p
    assert format_polynomial(Polynomial.zero(3), XYZ) == "0"


def test_format_is_graded_lex():
    p = parse_polynomial("x + y^2 + x*y", XYZ)
    assert format_polynomial(p, XYZ) == "x*y + y^2 + x"


@given(small_points)
def test_format_raw_point_matches_fraction_text(point):
    raw = kernel.to_common_denominator(point)
    assert format_raw_point(*raw) == ",".join(str(Fraction(c)) for c in point)


def test_report_int_writes_hex_past_4300_digits():
    widest = 10**4300 - 1  # 4,300 digits: the widest decimal a report writes
    for n in (0, 7, -7, widest, -widest):
        assert report_int(n) == n
    for n in (widest + 1, -widest - 1, 3**20_000):
        text = report_int(n)
        assert text == hex(n) and text.lstrip("-").startswith("0x")
        assert int(text, 16) == n


def test_format_raw_point_writes_hex_past_4300_digits():
    big = 3**20_000
    assert format_raw_point((big, -1), 1) == f"{hex(big)},-1"
    assert format_raw_point((2 * big, 1), 2 * big) == f"1,1/{hex(2 * big)}"
    assert format_raw_point((6, 1), 4) == format_raw_point((6, 1), 4, decimal=True) == "3/2,1/4"


def test_parse_point():
    assert parse_point("1,1/2,-3") == (Fraction(1), Fraction(1, 2), Fraction(-3))
    assert parse_point("(0, 0, 0)") == (Fraction(0),) * 3
    assert parse_point("(1/2, -3, 2^2)") == (Fraction(1, 2), Fraction(-3), Fraction(4))
    assert parse_point(format_point((Fraction(2, 7), Fraction(-1)))) == (
        Fraction(2, 7),
        Fraction(-1),
    )
    # Only parentheses that enclose the whole point are dropped.
    for text in ("(1),(2)", "(1,2)", "((1),(2))", " (1) , 2 "):
        assert parse_point(text) == (Fraction(1), Fraction(2)), text
    with pytest.raises(MapSyntaxError):
        parse_point("1,2", 3)
    with pytest.raises(MapSyntaxError):
        parse_point("1,a")


@pytest.mark.parametrize("text", ["\u0663", "1\uff12", "\u0661/2", "x^\u0662"])
def test_digits_are_ascii(text):
    # Every Unicode decimal digit matches \d; only 0-9 are digits here.
    with pytest.raises(MapSyntaxError, match="unexpected character"):
        parse_polynomial(text, XYZ)
    with pytest.raises(MapSyntaxError, match="coordinate 2 of the point: unexpected character"):
        parse_point(f"1,{text}")


@pytest.mark.parametrize("space", ["\u00a0", "\u3000", "\u2028", "\x85"])
def test_whitespace_is_ascii(space):
    # str.strip, str.split, str.splitlines and \s take these Unicode
    # spaces and line breaks; the syntax does not.
    with pytest.raises(MapSyntaxError, match="^unexpected character"):
        parse_integer(f"{space}7")
    with pytest.raises(MapSyntaxError, match="^coordinate 2 of the point: unexpected character"):
        parse_point(f"1,{space}2")
    with pytest.raises(MapSyntaxError, match="^coordinate 1 of the point: unexpected character"):
        parse_point(f"{space}(1,2)")
    for text, message in [
        (f"vars{space}x y\nforward: y | x\n", "unrecognized line"),
        (f"vars x{space}y\nforward: y | x\n", "bad variable name"),
        (f"vars x y\nforward{space}: y | x\n", "unrecognized line"),
        (f"vars x y\nforward: y | x{space}\n", "unexpected character"),
        (f"vars x y{space}forward: y | x\n", "bad variable name"),
    ]:
        with pytest.raises(MapSyntaxError, match=f"^{message}"):
            parse_map_file(text + "inverse: y | x\n")
    # The ASCII ones read, and \r\n and \r end a line as \n does.
    assert parse_integer("\t\v7\f\r\n") == 7
    assert parse_point("\t(1,\f2)\n") == (Fraction(1), Fraction(2))
    for newline in ("\n", "\r\n", "\r"):
        text = newline.join(["vars\tx,\fy", "forward:\vy | x\t", "inverse: y | x", ""])
        assert parse_map_file(text) == parse_map_file("vars x y\nforward: y | x\ninverse: y | x\n")


def test_parse_integer():
    for text, value in [("7", 7), ("-7", -7), (" +7 ", 7), ("(7)", 7), ("2^3", 8), ("6/2", 3),
                        ("-(2^64)", -(2**64)), ("0^0", 1)]:
        assert parse_integer(text) == value
    for text, message in [("1/2", "not an integer: '1/2'"), ("", "empty expression"),
                          ("1_0", "unexpected '_0'"), ("x", "unknown identifier 'x'"),
                          ("0x10", "unexpected 'x10'"), ("1e3", "unexpected 'e3'")]:
        with pytest.raises(MapSyntaxError) as error:
            parse_integer(text)
        assert str(error.value) == message


def test_parse_int_reads_digit_strings():
    # What the tokenizer's [0-9]+ and JSON's number grammar hand it.
    assert parse_int("0042") == 42 and parse_int("-5") == -5
    for digits in ("9" * 5000, "-" + "9" * 5000):
        with pytest.raises(ValueError, match="^integer of 5000 digits is too long$"):
            parse_int(digits)


@pytest.mark.parametrize(
    "text, bits",
    [("2^1048575", 1048576), ("(-2)^1048575", 1048576), ("(1/2)^1048575", 1048576),
     ("3^661577", 1048575), ("1^99999999999", 1)],
)
def test_constant_power_within_the_cap_reads(text, bits):
    value = parse_polynomial(text, ()).terms[()]
    assert max(abs(value.numerator), value.denominator).bit_length() == bits


@pytest.mark.parametrize(
    "text", ["2^1048576", "(-2)^1048576", "(1/2)^1048576", "3^661578", "(2^1048575)^2",
             "10^30000000", "(3/2)^700000"],
)
def test_constant_power_past_the_cap_is_refused(text):
    # A power of a constant past DEFAULT_BIT_BUDGET bits is refused, most
    # before they are built; a power of a variable still expands.
    with pytest.raises(MapSyntaxError, match="^constant power of more than 1048576 bits$"):
        parse_polynomial(text, ())
    assert parse_polynomial("x^2000000", XYZ).total_degree() == 2000000
    with pytest.raises(MapSyntaxError, match=r"bits \(line 2, column 14\)$"):
        parse_map_file(f"vars x y\nforward: x + {text} | y\ninverse: x | y\n")


@pytest.mark.parametrize(
    "text, offset",
    [("2^1048575 * 2^1048575", 10), ("1/(2^1048575-1)+1/(2^1048575+1)", 15),
     ("2^1048575-(-2^1048575)", 9), ("1/2^1048575/2", 11), ("(2^1048575*x)^2", 0),
     ("x*2^1048575 + x*2^1048575", 12)],
)
def test_every_result_past_the_cap_is_refused(text, offset):
    # A sum, difference, product, quotient or power of capped constants
    # can pass the cap; each is refused at the operator that built it (at
    # the base for a power).
    with pytest.raises(MapSyntaxError, match="^coefficient of more than 1048576 bits$"):
        parse_polynomial(text, XYZ)
    with pytest.raises(MapSyntaxError) as error:
        parse_map_file(f"vars x y\nforward: x + {text} | y\ninverse: x | y\n")
    assert (error.value.line, error.value.column) == (2, 14 + offset)
    assert str(error.value).startswith("coefficient of more than 1048576 bits")


def test_long_sum_parses_equal_to_the_fold():
    # The parser adds the terms of a sum into one dict; the result must be
    # the left fold of the terms by Polynomial + and -, with its
    # cancellations, over 6,000 terms on 64 monomials.
    rng = random.Random(6000)
    pieces = [(rng.choice("+-"), rng.randrange(1, 10), rng.randrange(8), rng.randrange(8))
              for _ in range(6000)]
    fold = Polynomial.zero(3)
    for op, c, a, b in pieces:
        term = Polynomial(3, {(a, b, 0): c})
        fold = fold + term if op == "+" else fold - term
    text = " ".join(f"{op} {c}*x^{a}*y^{b}" for op, c, a, b in pieces)
    assert parse_polynomial(text, XYZ) == fold


def test_powers_of_monomials_take_no_product(monkeypatch):
    # x^i is a one-term power: one coefficient power and one exponent
    # scaling, with no Polynomial product; the 6,000 products left are
    # those of the * signs.
    text = " + ".join(f"{i}*x^{i}" for i in range(1, 6001))
    products = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    assert parse_polynomial(text, XYZ) == Polynomial(3, {(i, 0, 0): i for i in range(1, 6001)})
    assert len(products) == 6000


@pytest.mark.parametrize("text", ["(3*x)^1000000000", "(-3/2*x*y)^1000000000"])
def test_monomial_power_past_the_cap_is_refused_before_it_is_built(text, monkeypatch):
    # The bound (bits(c) - 1) * k + 1 refuses c^k, of about 1.6e9 bits,
    # before it is built: building it would take minutes.
    monkeypatch.setattr(Polynomial, "__pow__", lambda *args: pytest.fail("power was built"))
    with pytest.raises(MapSyntaxError, match="^coefficient of more than 1048576 bits$"):
        parse_polynomial(text, XYZ)


def test_multi_term_power_past_the_work_bound_is_refused_before_it_is_built(monkeypatch):
    # (y+1)^3000 has W = 3001^2 * 3000 * 2, about 200 times POWER_WORK;
    # expanding it took about a minute.
    monkeypatch.setattr(Polynomial, "__pow__", lambda *args: pytest.fail("power was built"))
    with pytest.raises(MapSyntaxError, match="^power too large to expand$"):
        parse_polynomial("(y+1)^3000", XYZ)
    with pytest.raises(MapSyntaxError) as error:
        parse_map_file("vars x y\nforward: x + (y+1)^3000 | y\ninverse: x - (y+1)^3000 | y\n")
    assert (error.value.line, error.value.column) == (2, 14)
    assert str(error.value) == "power too large to expand (line 2, column 14)"


@pytest.mark.parametrize(
    "base, last",
    [
        # T = k + 1 and L = 2: (k + 1)^2 * k * 2 <= 2^28 up to k = 511.
        ("(y+1)", 511),
        # Q = 6 and 3 + 2 = 5, so L = 3: (k + 1)^2 * k * 3 <= 2^28 up to 446.
        ("(x/2 + y/3)", 446),
        # T = C(k+3, 3) and L = 3: C(24, 3)^2 * 21 * 3 <= 2^28 < C(25, 3)^2 * 22 * 3.
        ("(x + y + z + 1)", 21),
    ],
)
def test_multi_term_power_bound_refuses_past_its_last_exponent(monkeypatch, base, last):
    # W = T^2 * k * L of the parsing docstring decides, before any product.
    built = []
    monkeypatch.setattr(Polynomial, "__pow__", lambda poly, k: built.append(k) or poly)
    parse_polynomial(f"{base}^{last}", XYZ)
    with pytest.raises(MapSyntaxError, match="^power too large to expand$"):
        parse_polynomial(f"{base}^{last + 1}", XYZ)
    assert built == [last]


def test_multi_term_power_within_the_work_bound_reads():
    assert parse_polynomial("(y+1)^250", XYZ) == Polynomial(
        3, {(0, j, 0): math.comb(250, j) for j in range(251)}
    )
    assert parse_polynomial("(x - y)^0 + (x - y)^1", XYZ) == parse_polynomial("1 + x - y", XYZ)


def test_bundled_map_file():
    mf = parse_map_file(bundled_map_text())
    assert mf.names == ("x", "y", "z")
    assert mf.forward[0] == parse_polynomial("y", mf.names)
    assert mf.inverse is not None


def test_map_file_without_inverse():
    with pytest.raises(MapSyntaxError, match="missing inverse block"):
        parse_map_file("vars x y\nforward: y | x\n")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("forward: x | y\n", "vars"),
        ("vars x y\n", "missing forward"),
        ("vars x y\nforward: x\n", "coordinates"),
        ("vars x x\nforward: x | x\n", "duplicate"),
        ("vars x y\nforward: x | y\nforward: y | x\n", "twice"),
        ("vars x y\nnonsense\n", "unrecognized"),
        ("vars x y\nforward: x | w\n", "unknown identifier"),
    ],
)
def test_map_file_errors_carry_location(text, fragment):
    with pytest.raises(MapSyntaxError) as err:
        parse_map_file(text)
    assert fragment in str(err.value)


@given(
    st.integers(0, 4),
    st.lists(st.sampled_from(["x", "y", "2*x - y^2", "(x + 1/3)"]), min_size=2, max_size=5),
    st.data(),
)
def test_map_line_error_column_counts_from_line_start(indent, coords, data):
    # A stray '.' anywhere after the colon, whatever the leading spaces and
    # however many '|' come before it, is reported at its column in the line.
    line = " " * indent + "forward: " + " | ".join(coords)
    cut = data.draw(st.integers(line.index(":") + 1, len(line)))
    text = f"vars x y\n{line[:cut]}.{line[cut:]}\ninverse: x | y\n"
    with pytest.raises(MapSyntaxError) as err:
        parse_map_file(text)
    assert (err.value.line, err.value.column) == (2, cut + 1)
