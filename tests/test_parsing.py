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
    with pytest.raises(MapSyntaxError):
        parse_point("1,2", 3)
    with pytest.raises(MapSyntaxError):
        parse_point("1,a")


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
