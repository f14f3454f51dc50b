import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affdyn.dynamics import (
    AffineAutomorphism,
    InputError,
    InverseVerificationError,
    _constraint_forms,
    _monomials,
    _primitive_vectors,
    is_regular,
)
from affdyn.heights import canonical_estimate, weil_height_integer
from affdyn.inequality import OrbitSampler, batch_verify
from affdyn.parsing import parse_map_file, parse_polynomial
from affdyn.polyring import Polynomial

from conftest import assert_sparse_rank_matches_dense, bundled_map_text, small_points
from oracles import (
    apply,
    grid_common_zeros,
    identity,
    normalize_projective,
    orbit_points,
    undefined_at_infinity,
)

XYZ = ("x", "y", "z")


def P(text: str, names=XYZ) -> Polynomial:
    return parse_polynomial(text, names)


class TestBuild:
    def test_henon_pair_verifies(self, henon):
        assert henon.degrees == (2, 4)
        assert henon.n == 3

    def test_identity(self):
        assert identity(3).degrees == (1, 1)

    def test_printed_unsquared_inverse_fails(self, henon):
        bad = tuple(P(s) for s in ("z - (y - x^2)", "x", "y - x^2"))
        with pytest.raises(InverseVerificationError) as err:
            AffineAutomorphism(henon.forward, bad, XYZ)
        # forward o bad agrees with the identity up to its last coordinate.
        assert err.value.coordinate == 2
        assert str(err.value) == (
            "forward o inverse is not the identity: coordinate 2 "
            "has residual x^4 - 2*x^2*y + x^2 + y^2 - y"
        )
        assert err.value.residual == P("(y - x^2)^2 - (y - x^2)")

    @pytest.mark.parametrize("names", [("a",), ("x", "y", "z", "w")], ids=["one", "four"])
    def test_name_count_must_match_the_dimension(self, henon, names):
        message = f"expected 3 variable names, got {len(names)}"
        with pytest.raises(InputError, match=message):
            AffineAutomorphism(henon.forward, henon.inverse, names)
        # The names are checked before the composition that would use them.
        bad = tuple(P(s) for s in ("z - (y - x^2)", "x", "y - x^2"))
        with pytest.raises(InputError, match=message):
            AffineAutomorphism(henon.forward, bad, names)

    def test_zero_coordinate_rejected(self):
        with pytest.raises(ValueError):
            AffineAutomorphism((P("x"), Polynomial.zero(3), P("z")), (P("x"), P("y"), P("z")))

    def test_map_id_is_stable(self, henon):
        assert henon.map_id == AffineAutomorphism(henon.forward, henon.inverse, XYZ).map_id
        assert len(henon.map_id) == 12

    @settings(max_examples=12, deadline=None)
    @given(
        st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
        st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
        st.lists(st.integers(-2, 2), min_size=6, max_size=6),
        st.sampled_from([None, 0, 1]),
        st.data(),
    )
    def test_one_order_decides_the_pair(self, c1, c2, upper, triangular_slot, data):
        """F o G = id exactly when G o F = id, on the pairs of
        ``test_conjugated_henon_products`` and on wrong versions of them:
        one monomial added to one inverse coordinate, once of the top degree
        d*d' and once of a lower degree.  The constructor, which composes
        F o G only, rejects exactly the wrong pairs."""
        forward, inverse = _henon_product_pair(c1, c2, upper, triangular_slot)
        n = len(forward)
        top = max(p.total_degree() for p in forward) * max(p.total_degree() for p in inverse)
        pairs = [(inverse, True)]
        for degree in (top, data.draw(st.integers(0, top - 1))):
            exps = data.draw(st.sampled_from(_monomials(degree, n)))
            coeff = data.draw(st.fractions(-3, 3, max_denominator=3).filter(bool))
            slot = data.draw(st.integers(0, n - 1))
            wrong = list(inverse)
            wrong[slot] += Polynomial(n, {exps: coeff})
            assume(not wrong[slot].is_zero)
            pairs.append((tuple(wrong), False))
        for candidate, valid in pairs:
            assert _is_identity(forward, candidate) == _is_identity(candidate, forward) == valid
            if valid:
                AffineAutomorphism(forward, candidate)
            else:
                with pytest.raises(InverseVerificationError):
                    AffineAutomorphism(forward, candidate)

    def test_dense_conjugated_henon4(self):
        """henon4 conjugated by a unit upper-triangular L: a sparse forward
        map whose inverse is dense.  The constructor composes the sparse
        side outermost, so this builds in well under a second."""
        mf = parse_map_file(bundled_map_text("henon4"))
        upper = (-1, -2, 1, -2, 2, 2)
        automorphism = AffineAutomorphism(
            _conjugate(mf.forward, upper), _conjugate(mf.inverse, upper)
        )
        assert automorphism.degrees == (2, 8)
        assert [len(p.terms) for p in automorphism.inverse] == [485, 67, 67, 62]
        result = is_regular(automorphism)
        assert result.verdict == "regular"
        assert (result.details["saturation_degree"], result.details["bound"]) == (11, 29)
        for point in ((1, 1, 1, 1), (0, -1, 2, 0), (Fraction(1, 2), 0, -1, Fraction(1, 3))):
            image = orbit_points(automorphism.orbit(point, 1))[1]
            assert image == apply(automorphism, point)
            back = orbit_points(automorphism.orbit(image, 1, "inverse"))[1]
            assert back == tuple(Fraction(c) for c in point)


class TestApply:
    """One orbit step, the kernel's image, against the Fraction oracle."""

    def test_forward_image(self, henon):
        image = orbit_points(henon.orbit((1, 1, 1), 1))[1]
        assert image == apply(henon, (1, 1, 1)) == (1, 2, 2)

    def test_inverse_image(self, henon):
        image = orbit_points(henon.orbit((1, 1, 1), 1, "inverse"))[1]
        assert image == apply(henon, (1, 1, 1), "inverse") == (1, 1, 0)

    @given(small_points)
    @settings(max_examples=60)
    def test_roundtrip(self, henon, point):
        image = orbit_points(henon.orbit(point, 1))[1]
        assert image == apply(henon, point)
        back = orbit_points(henon.orbit(image, 1, "inverse"))[1]
        assert back == tuple(Fraction(c) for c in point)


class TestOrbit:
    def test_frozen_sequence(self, henon):
        orbit = henon.orbit((1, 1, 1), 4)
        assert [tuple(map(int, p)) for p in orbit_points(orbit)] == [
            (1, 1, 1),
            (1, 2, 2),
            (2, 6, 5),
            (6, 41, 27),
            (41, 1708, 735),
        ]
        assert not orbit.truncated

    def test_backward_segment(self, henon):
        orbit = henon.orbit((1, 1, 1), 5, "inverse")
        assert [tuple(map(int, p)) for p in orbit_points(orbit)[1:]] == [
            (1, 1, 0),
            (0, 1, 0),
            (-1, 0, 1),
            (0, -1, -1),
            (-2, 0, -1),
        ]

    def test_depth_zero(self, henon):
        orbit = henon.orbit((Fraction(1, 2), 0, 3), 0)
        assert orbit_points(orbit) == ((Fraction(1, 2), 0, 3),)

    def test_fixed_point(self, henon):
        orbit = henon.orbit((0, 0, 0), 6)
        assert orbit_points(orbit) == ((0, 0, 0),) * 7

    def test_semigroup_law(self, henon):
        whole = henon.orbit((1, 1, 1), 5)
        first = henon.orbit((1, 1, 1), 2)
        rest = henon.orbit(orbit_points(first)[-1], 3)
        assert orbit_points(whole) == orbit_points(first) + orbit_points(rest)[1:]

    def test_budget_truncation_reports_last_completed(self, henon):
        orbit = henon.orbit((1, 1, 1), 50, bit_budget=64)
        assert orbit.truncated
        assert orbit.completed_depth < 50
        # everything reported was computed exactly
        check = henon.orbit((1, 1, 1), orbit.completed_depth)
        assert orbit_points(check) == orbit_points(orbit)

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    @pytest.mark.parametrize("budget", [2**20, 64], ids=["full", "truncated"])
    def test_heights_match_the_fraction_oracle(self, henon, direction, budget):
        orbit = henon.orbit((1, 1, 1), 12, direction, budget)
        assert orbit.truncated == (budget == 64)
        points = orbit_points(orbit)
        assert len(orbit.heights) == len(points) == orbit.completed_depth + 1
        for height, point in zip(orbit.heights, points):
            assert height == weil_height_integer(point)

    @pytest.mark.parametrize(
        "call",
        [
            lambda f: f.orbit((1, 1), 0),
            lambda f: f.orbit((1, 1), 2),
            lambda f: canonical_estimate(f, (1, 1), 2),
            lambda f: batch_verify(f, OrbitSampler(((1, 1),), 3)),
        ],
        ids=["orbit-depth-0", "orbit-depth-2", "canonical_estimate", "orbit-sampler"],
    )
    def test_point_of_wrong_length_is_an_input_error(self, henon, call):
        with pytest.raises(InputError, match="point has 2 coordinates, expected 3"):
            call(henon)

    @pytest.mark.parametrize("depth", [0, 2])
    def test_unknown_direction_is_an_input_error(self, henon, depth):
        with pytest.raises(InputError, match="direction must be 'forward' or 'inverse'"):
            henon.orbit((1, 1, 1), depth, "backward")

    def test_double_composition_degree(self, henon):
        twice = [p.compose(henon.forward) for p in henon.forward]
        assert max(p.total_degree() for p in twice) == henon.d**2


class TestIndeterminacyLocus:
    def test_henon_forward_forms(self, henon):
        # coordinates y | z + y^2 | x + z^2: only the two of degree 2 constrain
        constraints = _constraint_forms(henon.forward, henon.d)
        assert constraints == (P("y^2"), P("z^2"))
        # the common zero at infinity is the single point x=1, y=z=0
        assert all(f.evaluate((1, 0, 0)) == 0 for f in constraints)
        assert undefined_at_infinity(henon.forward, (1, 0, 0))
        assert not undefined_at_infinity(henon.forward, (0, 1, 0))
        others = [
            pt
            for pt in grid_common_zeros(list(constraints), range(-2, 3))
            if any(pt)
        ]
        assert all(pt[1] == pt[2] == 0 for pt in others)

    def test_identity_locus_empty(self):
        ident = identity(3)
        constraints = _constraint_forms(ident.forward, ident.d)
        assert constraints == tuple(Polynomial.variable(3, i) for i in range(3))
        assert not grid_common_zeros(list(constraints), range(-2, 3))[1:]

    def test_henon_inverse_locus_is_a_line(self, henon):
        constraints = _constraint_forms(henon.inverse, henon.d_inv)
        # only the degree-4 coordinate constrains the zero set at infinity
        assert constraints == (P("-x^4"),)
        # grid oracle: the common zeros at infinity are exactly {x = 0}
        zeros = grid_common_zeros(list(constraints), range(-2, 3))
        assert all(pt[0] == 0 for pt in zeros)
        assert (0, 1, -2) in zeros
        assert all(undefined_at_infinity(henon.inverse, pt) for pt in zeros if any(pt))


class TestRegularity:
    def test_henon_is_regular(self, henon):
        result = is_regular(henon)
        assert result.verdict == "regular"
        assert result.details["saturation_degree"] <= result.details["bound"]

    def test_identity_plane_is_regular(self):
        assert is_regular(identity(2)).verdict == "regular"

    def test_triangular_map_not_regular_with_witness(self, triangular):
        result = is_regular(triangular)
        assert result.verdict == "not_regular"
        assert result.witness == (0, 1, 0)
        # both extensions are undefined at the witness
        for coords in (triangular.forward, triangular.inverse):
            assert undefined_at_infinity(coords, result.witness[1:])

    def test_shear_in_three_space_not_regular(self):
        # (x, y, z + x^2): its locus at infinity is the whole line x = w = 0
        forward = tuple(P(s) for s in ("x", "y", "z + x^2"))
        inverse = tuple(P(s) for s in ("x", "y", "z - x^2"))
        result = is_regular(AffineAutomorphism(forward, inverse, XYZ))
        assert result.verdict == "not_regular"
        assert result.witness is not None and result.witness[0] == 0
        for coords in (forward, inverse):
            assert undefined_at_infinity(coords, result.witness[1:])

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError):
            is_regular(identity(1))

    def test_high_dimension_exact(self):
        names = ("x1", "x2", "x3", "x4")
        forward = tuple(parse_polynomial(s, names) for s in ("x1", "x2", "x3", "x4 + x1^2"))
        inverse = tuple(parse_polynomial(s, names) for s in ("x1", "x2", "x3", "x4 - x1^2"))
        result = is_regular(AffineAutomorphism(forward, inverse, names))
        # shared zeros at infinity exist (x1 = 0); the exact test says so
        assert result.verdict == "not_regular"
        assert result.method == "irrelevant-power-elimination"
        for coords in (forward, inverse):
            assert undefined_at_infinity(coords, result.witness[1:])

        result = is_regular(identity(4))
        assert (result.verdict, result.method) == ("regular", "irrelevant-power-elimination")

    @settings(max_examples=12, deadline=None)
    @given(
        st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
        st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
        st.lists(st.integers(-2, 2), min_size=6, max_size=6),
        st.sampled_from([None, 0, 1]),
    )
    def test_conjugated_henon_products(self, c1, c2, upper, triangular_slot):
        """``L o (H_c1 x H_c2) o L^-1`` on A^4, with ``H_c = (y, x + c*y^2)``
        and L unit upper-triangular, is regular; with one factor replaced
        by the triangular ``(x + c*y^2, y)`` it is not, and the witness is
        checked by the oracle.  The dense rank agrees with the sparse one
        on every map."""
        forward, inverse = _henon_product_pair(c1, c2, upper, triangular_slot)
        automorphism = AffineAutomorphism(forward, inverse)
        result = is_regular(automorphism)
        assert_sparse_rank_matches_dense(automorphism)
        if triangular_slot is None:
            assert result.verdict == "regular"
            assert result.details["saturation_degree"] <= result.details["bound"] == 5
        else:
            assert result.verdict == "not_regular"
            assert result.witness[0] == 0
            for coords in (forward, inverse):
                assert undefined_at_infinity(coords, result.witness[1:])


class TestWitnessSearch:
    def test_normalize_projective(self):
        assert normalize_projective((2, 4, -6)) == (1, 2, -3)
        assert normalize_projective((0, -2, 4)) == (0, 1, -2)
        with pytest.raises(ValueError):
            normalize_projective((0, 0, 0))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_candidates_are_the_normalized_vectors_in_order(self, n):
        # The search visits exactly the vectors that are their own
        # normalized form, in lexicographic order, so the first witness
        # found is the same as over the whole box.
        for bound in range(1, 7):
            box = itertools.product(range(-bound, bound + 1), repeat=n)
            expected = [c for c in box if any(c) and normalize_projective(c) == c]
            assert list(_primitive_vectors(n, bound)) == expected


def _henon_product_pair(c1, c2, upper, triangular_slot):
    """``L o (H_c1 x H_c2) o L^-1`` on A^4 and its inverse, with
    ``H_c = (y, x + c*y^2)``; the factor at ``triangular_slot`` is the
    triangular ``(x + c*y^2, y)`` instead."""
    x, y = (Polynomial.variable(2, i) for i in range(2))
    factors = []
    for slot, c in enumerate((c1, c2)):
        c = Polynomial.constant(2, c)
        if slot == triangular_slot:
            factors.append(((x + c * y**2, y), (x - c * y**2, y)))
        else:
            factors.append(((y, x + c * y**2), (y - c * x**2, x)))
    forward, inverse = (
        _conjugate(_product(factors[0][k], factors[1][k]), upper) for k in (0, 1)
    )
    return forward, inverse


def _is_identity(outer, inner) -> bool:
    """Whether ``outer o inner`` is the identity, by ``Polynomial.compose``."""
    n = len(inner)
    return all(p.compose(inner) == Polynomial.variable(n, j) for j, p in enumerate(outer))


def _product(first, second):
    """The map ``first x second`` of A^2 x A^2 as four coordinates on A^4."""
    a, b, c, e = (Polynomial.variable(4, i) for i in range(4))
    return (*(p.compose((a, b)) for p in first), *(p.compose((c, e)) for p in second))


def _conjugate(coords, upper):
    """``L o coords o L^-1`` for the unit upper-triangular 4x4 matrix L
    whose entries above the diagonal are ``upper``, row by row."""
    entries = iter(upper)
    L = [[1 if i == j else next(entries) if j > i else 0 for j in range(4)] for i in range(4)]
    # L^-1 by back substitution: it is again unit upper-triangular.
    inv = [[int(i == j) for j in range(4)] for i in range(4)]
    for i in range(3, -1, -1):
        for j in range(i + 1, 4):
            inv[i] = [a - L[i][j] * b for a, b in zip(inv[i], inv[j])]
    variables = [Polynomial.variable(4, i) for i in range(4)]

    def linear(matrix, polys):
        return tuple(
            sum((Polynomial.constant(4, m) * p for m, p in zip(row, polys)), Polynomial.zero(4))
            for row in matrix
        )

    return linear(L, [p.compose(linear(inv, variables)) for p in coords])
