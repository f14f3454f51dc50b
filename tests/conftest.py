import importlib.resources
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from affdyn import kernel
from affdyn.dynamics import AffineAutomorphism
from affdyn.parsing import parse_map_file, parse_polynomial
from affdyn.polyring import Polynomial


def bundled_map_text() -> str:
    return (importlib.resources.files("affdyn") / "data" / "henon3.map").read_text()


@pytest.fixture(scope="session")
def henon() -> AffineAutomorphism:
    mf = parse_map_file(bundled_map_text())
    return AffineAutomorphism(mf.forward, mf.inverse, mf.names)


@pytest.fixture(scope="session")
def triangular() -> AffineAutomorphism:
    names = ("x", "y")
    forward = tuple(parse_polynomial(s, names) for s in ("x + y^2", "y"))
    inverse = tuple(parse_polynomial(s, names) for s in ("x - y^2", "y"))
    return AffineAutomorphism(forward, inverse, names)


def count_evaluations(monkeypatch) -> list:
    """Record the arguments of every ``kernel.eval_point`` call."""
    calls = []
    evaluate = kernel.eval_point
    monkeypatch.setattr(
        kernel, "eval_point", lambda *args: calls.append(args) or evaluate(*args)
    )
    return calls


# -- hypothesis strategies ------------------------------------------------

small_fractions = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=3
)

small_points = st.tuples(small_fractions, small_fractions, small_fractions)


def polynomials(nvars: int = 3, max_exp: int = 2, max_terms: int = 4):
    exponents = st.tuples(*([st.integers(0, max_exp)] * nvars))
    coeffs = st.fractions(
        min_value=Fraction(-4), max_value=Fraction(4), max_denominator=2
    )
    return st.dictionaries(exponents, coeffs, max_size=max_terms).map(
        lambda terms: Polynomial(nvars, terms)
    )


def nonzero_polynomials(nvars: int = 3, max_exp: int = 2, max_terms: int = 4):
    return polynomials(nvars, max_exp, max_terms).filter(lambda p: not p.is_zero)
