
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affdyn.parsing import parse_polynomial
from affdyn.polyring import Polynomial, ZeroPolynomialError

from conftest import nonzero_polynomials, polynomials, small_points
from oracles import dense_add, dense_mul, horner_eval

XYZ = ("x", "y", "z")


def P(text: str, names=XYZ) -> Polynomial:
    return parse_polynomial(text, names)


@pytest.mark.parametrize("exponent", [None, "a", 1.0, -1])
def test_exponents_must_be_non_negative_integers(exponent):
    # The type is checked before the sign, so no exponent reaches ``<``.
    with pytest.raises(ValueError, match="exponents must be non-negative integers"):
        Polynomial(2, {(exponent, 0): 1})


class TestAdd:
    def test_cancellation(self):
        assert P("x + y") + P("-x") == P("y")

    def test_identity(self):
        p = P("3/2*x^2*y - z")
        assert p + Polynomial.zero(3) == p

    def test_merge_against_dense_oracle(self):
        p, q = P("y^2"), P("z")
        assert p + q == dense_add(p, q) == P("z + y^2")

    def test_mismatched_variable_count(self):
        with pytest.raises(ValueError):
            P("x + y") + parse_polynomial("x", ("x",))


class TestMul:
    def test_square_against_dense_oracle(self):
        p = P("y - x^2")
        expected = P("y^2 - 2*x^2*y + x^4")
        assert p * p == expected
        assert dense_mul(p, p) == expected

    def test_identity_and_annihilation(self):
        p = P("x + 2*y*z")
        assert p * Polynomial.constant(3, 1) == p
        assert (p * Polynomial.zero(3)).is_zero

    @given(polynomials(max_terms=1) | polynomials(), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_power_against_dense_oracle(self, p, exponent):
        # A one-term base takes its own path: one coefficient power and
        # one scaling of the exponents.
        expected = Polynomial.constant(3, 1)
        for _ in range(exponent):
            expected = dense_mul(expected, p)
        assert p**exponent == expected


class TestEvaluate:
    def test_hand_substitution(self):
        assert P("z + y^2").evaluate((1, 1, 1)) == 2
        assert P("x + z^2").evaluate((1, 2, 2)) == 5

    def test_constant_term_at_origin(self):
        p = P("7 - 3*x*y + z^2")
        assert p.evaluate((0, 0, 0)) == 7

    @given(polynomials(), small_points)
    @settings(max_examples=60)
    def test_matches_horner_oracle(self, p, point):
        assert p.evaluate(point) == horner_eval(p, point)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            P("x").evaluate((1, 2))


class TestCompose:
    def test_projection(self):
        subs = [P("y"), P("z + y^2"), P("x + z^2")]
        assert Polynomial.variable(3, 0).compose(subs) == P("y")

    def test_against_dense_oracle(self):
        subs = [P("y"), P("z + y^2"), P("x + z^2")]
        lhs = P("y^2").compose(subs)
        rhs = dense_mul(P("z + y^2"), P("z + y^2"))
        assert lhs == rhs

    def test_henon_inverse_composition_is_identity(self, henon):
        for j in range(3):
            assert henon.inverse[j].compose(henon.forward) == Polynomial.variable(3, j)
            assert henon.forward[j].compose(henon.inverse) == Polynomial.variable(3, j)

    def test_wrong_substituent_count(self):
        with pytest.raises(ValueError):
            P("x").compose([P("y")])


class TestDegrees:
    def test_total_degree(self):
        assert P("z + y^2").total_degree() == 2
        assert P("z - (y - x^2)^2").total_degree() == 4
        assert P("5").total_degree() == 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            Polynomial.zero(3).total_degree()
        with pytest.raises(ZeroPolynomialError):
            Polynomial.zero(3).leading_form()

    def test_leading_form(self):
        assert P("z + y^2").leading_form() == P("y^2")
        assert P("x + z^2").leading_form() == P("z^2")
        # expand and keep only the degree-4 terms
        assert P("z - (y - x^2)^2").leading_form() == P("-x^4")


class TestRingProperties:
    @given(polynomials(), polynomials())
    @settings(max_examples=60)
    def test_mul_commutative(self, p, q):
        assert p * q == q * p

    @given(
        polynomials(max_terms=3),
        polynomials(max_terms=3),
        polynomials(max_terms=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_mul_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(nonzero_polynomials(), nonzero_polynomials())
    @settings(max_examples=60)
    def test_degree_additive_and_leading_form_multiplicative(self, p, q):
        product = p * q
        assert product.total_degree() == p.total_degree() + q.total_degree()
        assert product.leading_form() == p.leading_form() * q.leading_form()

    @given(polynomials(nvars=2, max_exp=2, max_terms=3))
    @settings(max_examples=30, deadline=None)
    def test_compose_associative(self, p):
        g = [parse_polynomial("x + y", ("x", "y")), parse_polynomial("x*y", ("x", "y"))]
        h = [parse_polynomial("y", ("x", "y")), parse_polynomial("x - 1", ("x", "y"))]
        gh = [gi.compose(h) for gi in g]
        assert p.compose(g).compose(h) == p.compose(gh)

    def test_zero_polynomial_is_representable(self):
        z = Polynomial(3, {(0, 0, 0): 0})
        assert z.is_zero and z == Polynomial.zero(3)

