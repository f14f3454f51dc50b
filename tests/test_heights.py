import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affdyn import kernel
from affdyn.dynamics import AffineAutomorphism
from affdyn.heights import (
    ProjectivePoint,
    canonical,
    canonical_minus,
    canonical_plus,
    functional_equation_residual,
    height_growth_constant,
    is_periodic_by_height,
    weil_height,
    weil_height_integer,
)
from affdyn.parsing import parse_polynomial

from conftest import count_evaluations, small_points

LOG2 = math.log(2)


class TestWeilHeight:
    def test_origin(self):
        assert weil_height((0, 0, 0)) == 0.0
        assert weil_height_integer((0, 0, 0)) == 1
        assert ProjectivePoint.from_affine((0, 0, 0)).coords == (1, 0, 0, 0)

    def test_integer_point(self):
        assert weil_height((1, 2, 2)) == LOG2
        assert ProjectivePoint.from_affine((1, 2, 2)).coords == (1, 1, 2, 2)

    def test_denominator_cleared(self):
        assert weil_height((Fraction(1, 2), 3)) == math.log(6)
        assert ProjectivePoint.from_affine((Fraction(1, 2), 3)).coords == (2, 1, 6)

    @given(
        st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)),
        st.integers(-7, 7).filter(bool),
    )
    @settings(max_examples=60)
    def test_scaling_invariance(self, vec, scale):
        if not any(vec):
            return
        base = kernel.normalize_projective(vec)
        scaled = kernel.normalize_projective(tuple(scale * c for c in vec))
        assert scaled == base

    def test_sign_normalization(self):
        assert kernel.normalize_projective((-2, 4, 0)) == (1, -2, 0)


class TestCanonicalPlus:
    def test_henon_sequence(self, henon):
        est = canonical_plus(henon, (1, 1, 1), depth=4)
        assert est.step_integers == (1, 2, 6, 41, 1708)
        assert est.values[0] == 0.0
        assert est.values[1] == LOG2 / 2
        assert est.values[2] == math.log(6) / 4
        assert est.values[3] == math.log(41) / 8
        assert est.values[4] == math.log(1708) / 16
        # stabilizes near 0.46
        deep = canonical_plus(henon, (1, 1, 1), depth=10)
        assert abs(deep.estimate - 0.4652) < 1e-3
        assert deep.certified

    def test_fixed_point(self, henon):
        est = canonical_plus(henon, (0, 0, 0), depth=5)
        assert est.values == (0.0,) * 6
        assert est.estimate == 0.0 and est.tail_bound == 0.0

    def test_identity_map(self):
        ident = AffineAutomorphism.identity(3)
        est = canonical_plus(ident, (Fraction(1, 2), 3, 0), depth=4)
        h = weil_height((Fraction(1, 2), 3, 0))
        assert est.values == (h,) * 5
        assert est.tail_bound == 0.0 and est.certified

    def test_tolerance_stopping(self, henon):
        est = canonical_plus(henon, (1, 1, 1), tolerance=1e-4)
        assert est.certified and est.tail_bound <= 1e-4

    def test_budget_truncation_uncertified(self, henon):
        est = canonical_plus(henon, (1, 1, 1), depth=40, bit_budget=64)
        assert est.truncated and not est.certified

    def test_telescoping(self, henon):
        at_p = canonical_plus(henon, (1, 1, 1), depth=10)
        at_fp = canonical_plus(henon, henon.apply((1, 1, 1)), depth=10)
        gap = abs(at_fp.estimate - henon.d * at_p.estimate)
        assert gap <= at_fp.tail_bound + henon.d * at_p.tail_bound + 1e-12

    def test_geometric_difference_decay(self, henon):
        est = canonical_plus(henon, (1, 1, 1), depth=10)
        diffs = [
            abs(b - a) for a, b in zip(est.values, est.values[1:])
        ]
        rates = [d * 2 ** (k + 1) for k, d in enumerate(diffs)]
        assert max(rates) == pytest.approx(max(rates[:3]))  # early terms dominate
        assert diffs[-1] < 1e-4

    def test_tail_bound_nonincreasing_in_depth(self, henon):
        tails = [
            canonical_plus(henon, (1, 1, 1), depth=n).tail_bound for n in range(2, 11)
        ]
        assert all(b <= a for a, b in zip(tails, tails[1:]))


class TestCanonicalMinus:
    def test_henon_backward_terms_stay_small(self, henon):
        est = canonical_minus(henon, (1, 1, 1), depth=5)
        # the five listed backward points all have height <= log 2
        assert est.step_integers == (1, 1, 1, 1, 1, 2)
        assert all(v <= LOG2 / 4**k for k, v in enumerate(est.values))
        assert est.estimate < 1e-3  # numerically zero at this scale

    def test_fixed_point(self, henon):
        assert canonical_minus(henon, (0, 0, 0), depth=4).estimate == 0.0

    def test_identity_map(self):
        ident = AffineAutomorphism.identity(2)
        est = canonical_minus(ident, (5, Fraction(1, 3)), depth=3)
        assert est.estimate == weil_height((5, Fraction(1, 3)))


class TestCanonical:
    def test_no_step_past_the_budget_is_evaluated(self, henon, monkeypatch):
        calls = count_evaluations(monkeypatch)
        result = canonical(henon, (1, 1, 1), depth=64, bit_budget=2**16)
        assert result.plus.truncated and result.minus.truncated
        assert len(calls) == result.plus.depth + result.minus.depth

    def test_depths_past_the_float_range(self, henon):
        # 2.0**1024 and 4.0**512 overflow a float; the terms do not.
        result = canonical(henon, (0, 0, 0), depth=1100)
        assert result.plus.depth == result.minus.depth == 1100
        assert result.value == 0.0 and result.tail_bound == 0.0 and result.certified
        # (y, x, z + x^2 - y^2) is an involution of degree 2: every point has
        # period 2, its terms shrink like 2^-k and so does the tail bound.
        names = ("x", "y", "z")
        coords = [parse_polynomial(c, names) for c in ("y", "x", "z + x^2 - y^2")]
        involution = AffineAutomorphism(coords, coords, names)
        shallow = canonical_plus(involution, (2, 1, 0), depth=40)
        deep = canonical_plus(involution, (2, 1, 0), depth=1100)
        assert deep.step_integers[:41] == shallow.step_integers
        assert deep.values[:41] == shallow.values
        assert deep.certified and 0.0 <= deep.tail_bound <= shallow.tail_bound
        assert all(0.0 <= v <= math.log(3) / 2**1000 for v in deep.values[1000:])

    def test_degree_one_runs_to_the_step_cap(self):
        # A shear never meets a tolerance: its tail bound is infinite from
        # the first nonzero difference on, so the tolerance-only rule stops
        # there instead of running to the 10,000-step cap.
        names = ("x", "y", "z")
        shear = AffineAutomorphism(
            [parse_polynomial(c, names) for c in ("x + y", "y", "z")],
            [parse_polynomial(c, names) for c in ("x - y", "y", "z")],
            names,
        )
        est = canonical_plus(shear, (1, 1, 1), tolerance=1e-9)
        assert est.depth == 1 and est.tail_bound == math.inf
        assert est.step_integers == (1, 2) and not est.certified
        # a given depth is still run in full
        est = canonical_plus(shear, (1, 1, 1), depth=50, tolerance=1e-9)
        assert est.depth == 50 and est.tail_bound == math.inf
        assert est.step_integers[-1] == 51 and not est.certified

    def test_fixed_point_zero(self, henon):
        result = canonical(henon, (0, 0, 0), depth=5)
        assert result.value == 0.0 and result.tail_bound == 0.0

    def test_mostly_the_plus_part(self, henon):
        result = canonical(henon, (1, 1, 1), depth=10)
        assert abs(result.value - result.plus.estimate) < 1e-3

    def test_identity_sum_convention(self):
        ident = AffineAutomorphism.identity(3)
        h = weil_height((2, 3, 4))
        result = canonical(ident, (2, 3, 4), depth=3)
        assert result.value == 2 * h
        flipped = canonical(ident, (2, 3, 4), depth=3, convention="difference")
        assert flipped.value == 0.0

    def test_bad_convention(self, henon):
        with pytest.raises(ValueError):
            canonical(henon, (1, 1, 1), depth=3, convention="other")


class TestFunctionalEquation:
    def test_fixed_point_residual_zero(self, henon):
        check = functional_equation_residual(henon, (0, 0, 0), depth=4)
        assert check.residual == 0.0

    def test_henon_inside_certified_interval(self, henon):
        check = functional_equation_residual(henon, (1, 1, 1), depth=8)
        assert check.certified
        assert check.within_interval
        assert check.residual < 1e-6

    def test_identity_exact(self):
        ident = AffineAutomorphism.identity(2)
        check = functional_equation_residual(ident, (Fraction(2, 3), 5), depth=2)
        assert check.residual == 0.0 and check.interval_width == 0.0

    def test_interval_shrinks_with_depth(self, henon):
        widths = [
            functional_equation_residual(henon, (1, 1, 1), depth=d).interval_width
            for d in (4, 6, 8, 10)
        ]
        assert all(b < a for a, b in zip(widths, widths[1:]))


class TestPeriodicity:
    def test_fixed_point(self, henon):
        verdict = is_periodic_by_height(henon, (0, 0, 0), 1e-9)
        assert verdict.verdict == "periodic"
        assert verdict.canonical_height.value == 0.0
        assert verdict.cycle.period == 1

    def test_wandering(self, henon):
        verdict = is_periodic_by_height(henon, (1, 1, 1), 1e-6)
        assert verdict.verdict == "wandering"

    def test_identity(self):
        ident = AffineAutomorphism.identity(3)
        verdict = is_periodic_by_height(ident, (4, Fraction(5, 2), -1), 1e-9)
        assert verdict.verdict == "periodic"

    def test_bad_tolerance(self, henon):
        with pytest.raises(ValueError):
            is_periodic_by_height(henon, (0, 0, 0), 0.0)


class TestGrowthBound:
    def test_henon_constant(self, henon):
        assert height_growth_constant(henon) == pytest.approx(LOG2)

    @given(small_points)
    @settings(max_examples=80)
    def test_single_step_growth(self, henon, point):
        bound = henon.d * weil_height(point) + height_growth_constant(henon)
        assert weil_height(henon.apply(point)) <= bound + 1e-12

    def test_many_random_points_both_directions(self, henon):
        rng = random.Random(7)
        c_fwd = height_growth_constant(henon, "forward")
        c_inv = height_growth_constant(henon, "inverse")
        for _ in range(300):
            point = tuple(
                Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(3)
            )
            h = weil_height(point)
            assert weil_height(henon.apply(point)) <= henon.d * h + c_fwd + 1e-12
            assert (
                weil_height(henon.apply(point, "inverse"))
                <= henon.d_inv * h + c_inv + 1e-12
            )
