from fractions import Fraction

import pytest
from hypothesis import given, settings

from affdyn.dynamics import (
    AffineAutomorphism,
    InverseVerificationError,
    indeterminacy_locus,
    is_regular,
)
from affdyn.parsing import parse_polynomial
from affdyn.polyring import Polynomial

from conftest import small_points
from oracles import grid_common_zeros

XYZ = ("x", "y", "z")


def P(text: str, names=XYZ) -> Polynomial:
    return parse_polynomial(text, names)


class TestBuild:
    def test_henon_pair_verifies(self, henon):
        assert henon.degrees == (2, 4)
        assert henon.n == 3

    def test_identity(self):
        ident = AffineAutomorphism.identity(3)
        assert ident.degrees == (1, 1)

    def test_printed_unsquared_inverse_fails(self, henon):
        bad = tuple(P(s) for s in ("z - (y - x^2)", "x", "y - x^2"))
        with pytest.raises(InverseVerificationError) as err:
            AffineAutomorphism(henon.forward, bad, XYZ)
        assert err.value.coordinate == 0
        assert not err.value.residual.is_zero

    def test_zero_coordinate_rejected(self):
        with pytest.raises(ValueError):
            AffineAutomorphism((P("x"), Polynomial.zero(3), P("z")), (P("x"), P("y"), P("z")))

    def test_map_id_is_stable(self, henon):
        assert henon.map_id == AffineAutomorphism(henon.forward, henon.inverse, XYZ).map_id
        assert len(henon.map_id) == 12


class TestApply:
    def test_forward_image(self, henon):
        assert henon.apply((1, 1, 1)) == (1, 2, 2)

    def test_inverse_image(self, henon):
        assert henon.apply((1, 1, 1), "inverse") == (1, 1, 0)

    @given(small_points)
    @settings(max_examples=60)
    def test_roundtrip(self, henon, point):
        image = henon.apply(point, "forward")
        assert henon.apply(image, "inverse") == tuple(Fraction(c) for c in point)

    def test_length_mismatch(self, henon):
        with pytest.raises(ValueError):
            henon.apply((1, 2))


class TestOrbit:
    def test_frozen_sequence(self, henon):
        orbit = henon.orbit((1, 1, 1), 4)
        assert [tuple(map(int, p)) for p in orbit] == [
            (1, 1, 1),
            (1, 2, 2),
            (2, 6, 5),
            (6, 41, 27),
            (41, 1708, 735),
        ]
        assert not orbit.truncated

    def test_backward_segment(self, henon):
        orbit = henon.orbit((1, 1, 1), 5, "inverse")
        assert [tuple(map(int, p)) for p in orbit[1:]] == [
            (1, 1, 0),
            (0, 1, 0),
            (-1, 0, 1),
            (0, -1, -1),
            (-2, 0, -1),
        ]

    def test_depth_zero(self, henon):
        orbit = henon.orbit((Fraction(1, 2), 0, 3), 0)
        assert len(orbit) == 1 and orbit[0] == (Fraction(1, 2), 0, 3)

    def test_fixed_point(self, henon):
        orbit = henon.orbit((0, 0, 0), 6)
        assert all(p == (0, 0, 0) for p in orbit)

    def test_semigroup_law(self, henon):
        whole = henon.orbit((1, 1, 1), 5)
        first = henon.orbit((1, 1, 1), 2)
        rest = henon.orbit(first[-1], 3)
        assert whole.points == first.points + rest.points[1:]

    def test_budget_truncation_reports_last_completed(self, henon):
        orbit = henon.orbit((1, 1, 1), 50, bit_budget=64)
        assert orbit.truncated
        assert orbit.completed_depth < 50
        # everything reported was computed exactly
        check = henon.orbit((1, 1, 1), orbit.completed_depth)
        assert check.points == orbit.points

    def test_double_composition_degree(self, henon):
        twice = [p.compose(henon.forward) for p in henon.forward]
        assert max(p.total_degree() for p in twice) == henon.d**2


class TestCycles:
    def test_fixed_point_period_one(self, henon):
        result = henon.detect_cycle((0, 0, 0), 10)
        assert result.periodic and result.period == 1

    def test_wandering_point(self, henon):
        result = henon.detect_cycle((1, 1, 1), 10)
        assert not result.periodic and result.period is None

    def test_identity_everything_periodic(self):
        ident = AffineAutomorphism.identity(3)
        result = ident.detect_cycle((Fraction(3, 7), 1, -2), 5)
        assert result.periodic and result.period == 1


class TestHomogenizedPair:
    def test_henon_extension_coordinates(self, henon):
        phi, psi = henon.homogenized_pair()
        names = ("w", "x", "y", "z")
        assert [str_of(c, names) for c in phi.coords] == [
            "w^2",
            "w*y",
            "w*z + y^2",
            "w*x + z^2",
        ]
        assert phi.degree == 2 and psi.degree == 4
        assert psi.coords[0] == parse_polynomial("w^4", names)

    def test_identity_extension(self):
        ident = AffineAutomorphism.identity(2)
        phi, psi = ident.homogenized_pair()
        assert [c for c in phi.coords] == [
            Polynomial.variable(3, i) for i in range(3)
        ]

    def test_psi_matches_homogenized_corrected_inverse(self, henon):
        _, psi = henon.homogenized_pair()
        for slot, poly in enumerate(henon.inverse, start=1):
            assert psi.coords[slot] == poly.homogenize(4)

    def test_projective_evaluation(self, henon):
        phi, psi = henon.homogenized_pair()
        # affine embedding of (1,1,1) maps forward to (1,1,2,2) and back
        assert tuple(p.evaluate((1, 1, 1, 1)) for p in phi.coords) == (1, 1, 2, 2)
        assert tuple(p.evaluate((1, 1, 1, 1)) for p in psi.coords) == (1, 1, 1, 0)

    def test_evaluation_on_the_locus_is_rejected(self, henon):
        # every homogeneous coordinate vanishes on a locus point, so the
        # extension is undefined there
        phi, psi = henon.homogenized_pair()
        # the forward locus point
        assert all(p.evaluate((0, 1, 0, 0)) == 0 for p in phi.coords)
        # on the inverse locus line
        assert all(p.evaluate((0, 0, 1, 1)) == 0 for p in psi.coords)


def str_of(p, names):
    from affdyn.parsing import format_polynomial

    return format_polynomial(p, names)


class TestIndeterminacyLocus:
    def test_henon_forward_forms(self, henon):
        phi, _ = henon.homogenized_pair()
        locus = indeterminacy_locus(phi)
        assert locus.forms == (P("y"), P("y^2"), P("z^2"))
        assert locus.coord_degrees == (1, 2, 2)
        # the common zero at infinity is the single point x=1, y=z=0
        constraints = locus.constraint_forms()
        assert constraints == (P("y^2"), P("z^2"))
        assert all(f.evaluate((1, 0, 0)) == 0 for f in constraints)
        others = [
            pt
            for pt in grid_common_zeros(list(constraints), range(-2, 3))
            if any(pt)
        ]
        assert all(pt[1] == pt[2] == 0 for pt in others)

    def test_identity_locus_empty(self):
        ident = AffineAutomorphism.identity(3)
        phi, _ = ident.homogenized_pair()
        locus = indeterminacy_locus(phi)
        assert locus.forms == tuple(Polynomial.variable(3, i) for i in range(3))
        assert not grid_common_zeros(list(locus.constraint_forms()), range(-2, 3))[1:]

    def test_henon_inverse_locus_is_a_line(self, henon):
        _, psi = henon.homogenized_pair()
        locus = indeterminacy_locus(psi)
        # only the degree-4 coordinate constrains the zero set at infinity
        assert locus.constraint_forms() == (P("-x^4"),)
        # grid oracle: the common zeros at infinity are exactly {x = 0}
        zeros = grid_common_zeros(list(locus.constraint_forms()), range(-2, 3))
        assert all(pt[0] == 0 for pt in zeros)
        assert (0, 1, -2) in zeros


class TestRegularity:
    def test_henon_is_regular(self, henon):
        result = is_regular(henon)
        assert result.verdict == "regular"
        assert result.details["saturation_degree"] <= result.details["bound"]

    def test_identity_plane_is_regular(self):
        assert is_regular(AffineAutomorphism.identity(2)).verdict == "regular"

    def test_triangular_map_not_regular_with_witness(self, triangular):
        result = is_regular(triangular)
        assert result.verdict == "not_regular"
        assert result.witness == (0, 1, 0)
        # verify the witness kills every constraint form of both extensions
        for ext in triangular.homogenized_pair():
            for form in indeterminacy_locus(ext).constraint_forms():
                assert form.evaluate(result.witness[1:]) == 0

    def test_shear_in_three_space_not_regular(self):
        # (x, y, z + x^2): its locus at infinity is the whole line x = w = 0
        forward = tuple(P(s) for s in ("x", "y", "z + x^2"))
        inverse = tuple(P(s) for s in ("x", "y", "z - x^2"))
        result = is_regular(AffineAutomorphism(forward, inverse, XYZ))
        assert result.verdict == "not_regular"
        assert result.witness is not None and result.witness[0] == 0

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError):
            is_regular(AffineAutomorphism.identity(1))

    def test_high_dimension_monte_carlo(self):
        names = ("x1", "x2", "x3", "x4")
        forward = tuple(parse_polynomial(s, names) for s in ("x1", "x2", "x3", "x4 + x1^2"))
        inverse = tuple(parse_polynomial(s, names) for s in ("x1", "x2", "x3", "x4 - x1^2"))
        result = is_regular(AffineAutomorphism(forward, inverse, names))
        # shared zeros at infinity exist (x1 = 0); the search should find one
        assert result.verdict == "not_regular"
        assert result.method == "monte-carlo"

        ident = AffineAutomorphism.identity(4)
        assert is_regular(ident).verdict == "undetermined"
