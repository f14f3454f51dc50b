import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affdyn import heights, kernel
from affdyn.dynamics import AffineAutomorphism, InputError
from affdyn.heights import (
    CanonicalHeightEstimate,
    canonical,
    canonical_estimate,
    height_growth_constant,
    weil_height_integer,
)
from affdyn.parsing import parse_map_file, parse_polynomial

from conftest import (
    assert_no_child_left,
    bundled_map_text,
    count_calls,
    deadline,
    small_points,
    started_workers,
)
from oracles import apply, identity, normalize_projective

LOG2 = math.log(2)

# Degree-2 and degree-3 involutions: every point has period 2, so the
# heights stay bounded and an orbit runs to any depth.
INVOLUTION = "vars x y z\nforward: y | x | z + x^2 - y^2\ninverse: y | x | z + x^2 - y^2\n"
CUBIC_INVOLUTION = "vars x y z\nforward: y | x | z + x^3 - y^3\ninverse: y | x | z + x^3 - y^3\n"


def _load(text: str) -> AffineAutomorphism:
    mf = parse_map_file(text)
    return AffineAutomorphism(mf.forward, mf.inverse, mf.names)


def weil_height(point) -> float:
    return math.log(weil_height_integer(point))


def _homogeneous(point):
    nums, den = kernel.to_common_denominator(point)
    return normalize_projective((den, *nums))


class TestWeilHeight:
    def test_origin(self):
        assert weil_height((0, 0, 0)) == 0.0
        assert weil_height_integer((0, 0, 0)) == 1
        assert _homogeneous((0, 0, 0)) == (1, 0, 0, 0)

    def test_integer_point(self):
        assert weil_height((1, 2, 2)) == LOG2
        assert _homogeneous((1, 2, 2)) == (1, 1, 2, 2)

    def test_denominator_cleared(self):
        assert weil_height((Fraction(1, 2), 3)) == math.log(6)
        assert _homogeneous((Fraction(1, 2), 3)) == (2, 1, 6)

    @given(
        st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)),
        st.integers(-7, 7).filter(bool),
    )
    @settings(max_examples=60)
    def test_scaling_invariance(self, vec, scale):
        if not any(vec):
            return
        base = normalize_projective(vec)
        scaled = normalize_projective(tuple(scale * c for c in vec))
        assert scaled == base

    def test_sign_normalization(self):
        assert normalize_projective((-2, 4, 0)) == (1, -2, 0)


class TestCanonicalPlus:
    def test_henon_sequence(self, henon):
        est = canonical_estimate(henon, (1, 1, 1), depth=4)
        assert est.step_integers == (1, 2, 6, 41, 1708)
        assert est.values[0] == 0.0
        assert est.values[1] == LOG2 / 2
        assert est.values[2] == math.log(6) / 4
        assert est.values[3] == math.log(41) / 8
        assert est.values[4] == math.log(1708) / 16
        # stabilizes near 0.46
        deep = canonical_estimate(henon, (1, 1, 1), depth=10)
        assert abs(deep.estimate - 0.4652) < 1e-3
        assert deep.certified

    def test_fixed_point(self, henon):
        est = canonical_estimate(henon, (0, 0, 0), depth=5)
        assert est.values == (0.0,) * 6
        assert est.estimate == 0.0 and est.tail_bound == 0.0

    def test_identity_map(self):
        ident = identity(3)
        est = canonical_estimate(ident, (Fraction(1, 2), 3, 0), depth=4)
        h = weil_height((Fraction(1, 2), 3, 0))
        assert est.values == (h,) * 5
        assert est.tail_bound == 0.0 and est.certified

    def test_budget_truncation_uncertified(self, henon):
        est = canonical_estimate(henon, (1, 1, 1), depth=40, bit_budget=64)
        assert est.truncated and not est.certified

    def test_telescoping(self, henon):
        at_p = canonical_estimate(henon, (1, 1, 1), depth=10)
        at_fp = canonical_estimate(henon, apply(henon, (1, 1, 1)), depth=10)
        gap = abs(at_fp.estimate - henon.d * at_p.estimate)
        assert gap <= at_fp.tail_bound + henon.d * at_p.tail_bound + 1e-12

    def test_geometric_difference_decay(self, henon):
        est = canonical_estimate(henon, (1, 1, 1), depth=10)
        diffs = [
            abs(b - a) for a, b in zip(est.values, est.values[1:])
        ]
        rates = [d * 2 ** (k + 1) for k, d in enumerate(diffs)]
        assert max(rates) == pytest.approx(max(rates[:3]))  # early terms dominate
        assert diffs[-1] < 1e-4

    def test_tail_bound_nonincreasing_in_depth(self, henon):
        tails = [
            canonical_estimate(henon, (1, 1, 1), depth=n).tail_bound for n in range(2, 11)
        ]
        assert all(b <= a for a, b in zip(tails, tails[1:]))


class TestCanonicalMinus:
    def test_henon_backward_terms_stay_small(self, henon):
        est = canonical_estimate(henon, (1, 1, 1), 5, "inverse")
        # the five listed backward points all have height <= log 2
        assert est.step_integers == (1, 1, 1, 1, 1, 2)
        assert all(v <= LOG2 / 4**k for k, v in enumerate(est.values))
        assert est.estimate < 1e-3  # numerically zero at this scale

    def test_fixed_point(self, henon):
        assert canonical_estimate(henon, (0, 0, 0), 4, "inverse").estimate == 0.0

    def test_certified_is_not_a_proof(self, henon):
        # Four backward steps of height 1 extrapolate to a zero tail, and the
        # estimate is certified; the fifth step moves the heights and the
        # tail, and ten steps give an estimate seven times 1e-4.
        shallow = canonical_estimate(henon, (1, 1, 1), 4, "inverse")
        assert shallow.certified and shallow.estimate == shallow.tail_bound == 0.0
        deeper = canonical_estimate(henon, (1, 1, 1), 5, "inverse")
        assert deeper.certified and deeper.tail_bound > 2e-4
        assert canonical_estimate(henon, (1, 1, 1), 10, "inverse").estimate > 6.9e-4

    def test_identity_map(self):
        ident = identity(2)
        est = canonical_estimate(ident, (5, Fraction(1, 3)), 3, "inverse")
        assert est.estimate == weil_height((5, Fraction(1, 3)))


class TestCanonical:
    def test_no_step_past_the_budget_is_evaluated(self, henon, monkeypatch):
        # One process: the worker's inverse steps would not be counted here.
        monkeypatch.setattr(kernel, "_fork_allowed", lambda: False)
        calls = count_calls(monkeypatch, "eval_point")
        result = canonical(henon, (1, 1, 1), depth=64, bit_budget=2**16)
        assert result.plus.truncated and result.minus.truncated
        assert len(calls) == result.plus.depth + result.minus.depth

    # At 2^22 bits the forward orbit squares operands past SPLIT_CUTOFF,
    # in this process and, for the inverse orbit, in the worker.
    @pytest.mark.parametrize(
        "start, depth, budget",
        [((1, 1, 1), 64, 2**16), ((1, Fraction(1, 2), -3), 6, 2**20), ((0, 0, 0), 3, 2**20),
         ((1, 1, 1), 64, 2**22)],
        ids=["truncated", "rational", "fixed", "split-squares"],
    )
    def test_two_processes_give_the_one_process_result(
        self, henon, monkeypatch, start, depth, budget
    ):
        results = {}
        for fork in (False, True):
            started = started_workers(monkeypatch, fork)
            with deadline():
                results[fork] = canonical(henon, start, depth, budget)
            assert len(started) >= fork
            assert_no_child_left()
        one, two = results[False], results[True]
        for side in ("plus", "minus"):
            for field in dataclasses.fields(CanonicalHeightEstimate):
                name = field.name
                assert getattr(getattr(two, side), name) == getattr(getattr(one, side), name)
        assert two.to_report("henon3") == one.to_report("henon3")

    @pytest.mark.parametrize("fork", [False, True], ids=["one-process", "two-processes"])
    @pytest.mark.parametrize("failing", [("forward", "inverse"), ("forward",), ("inverse",)])
    def test_first_error_comes_in_direction_order(self, henon, monkeypatch, fork, failing):
        original = heights.canonical_estimate

        def estimate(automorphism, point, depth, direction, bit_budget):
            if direction in failing:
                raise ValueError(f"{direction} failed")
            return original(automorphism, point, depth, direction, bit_budget)

        monkeypatch.setattr(heights, "canonical_estimate", estimate)
        started = started_workers(monkeypatch, fork)
        with deadline(), pytest.raises(ValueError, match=f"^{failing[0]} failed$"):
            canonical(henon, (1, 1, 1), 8)
        assert len(started) == fork
        assert_no_child_left()

    @pytest.mark.parametrize("fork", [False, True], ids=["one-process", "two-processes"])
    def test_input_errors_are_raised_on_two_processes_too(self, henon, monkeypatch, fork):
        started_workers(monkeypatch, fork)
        with deadline():
            with pytest.raises(InputError, match="depth must be >= 1"):
                canonical(henon, (1, 1, 1), 0)
            with pytest.raises(InputError):
                canonical(henon, (1, 1), 4)
        assert_no_child_left()

    def test_each_kept_step_measures_its_image_once(self, henon, monkeypatch):
        scans = count_calls(monkeypatch, "height_integer")
        estimate = canonical_estimate(henon, (1, 1, 1), depth=6)
        assert not estimate.truncated
        assert len(scans) == 1 + estimate.depth  # the start, then one per step
        scanned = list(scans)
        assert tuple(kernel.height_integer(*raw) for raw in scanned) == estimate.step_integers

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
        shallow = canonical_estimate(involution, (2, 1, 0), depth=40)
        deep = canonical_estimate(involution, (2, 1, 0), depth=1100)
        assert deep.step_integers[:41] == shallow.step_integers
        assert deep.values[:41] == shallow.values
        assert deep.certified and 0.0 <= deep.tail_bound <= shallow.tail_bound
        assert all(0.0 <= v <= math.log(3) / 2**1000 for v in deep.values[1000:])

    def test_terms_past_the_float_range_are_correctly_rounded(self):
        # 2^k is no float from k = 1024 on; each term is still log H_k
        # divided by 2^k and rounded once.
        est = canonical_estimate(_load(INVOLUTION), (2, 1, 0), depth=1100)
        assert est.depth == 1100
        for k in range(1024, 1101):
            exact = Fraction(math.log(est.step_integers[k])) / 2**k
            assert est.values[k] == float(exact), k

    @pytest.mark.parametrize(
        "text, start",
        [("vars x y\nforward: y | x + y^3\ninverse: y - x^3 | x\n", (1, 1)),
         (CUBIC_INVOLUTION, (2, 1, 0))],
    )
    def test_degree_three_terms_while_the_power_is_exact(self, text, start):
        # While 3^k < 2^53 the float 3.0**k is exact, and each term is
        # log H_k / 3.0**k, rounded once.
        automorphism = _load(text)
        for direction in ("forward", "inverse"):
            est = canonical_estimate(automorphism, start, 40, direction)
            for k, (height, value) in enumerate(zip(est.step_integers, est.values)):
                if 3**k < 2**53:
                    assert value == math.log(height) / 3.0**k, (direction, k)

    def test_tail_where_the_scale_times_d_minus_one_is_no_float(self):
        # 3.0**646 is a float, 2 * 3.0**646 is not; the tail there is
        # still positive, as at the depths around it.
        involution = _load(CUBIC_INVOLUTION)
        tails = [canonical_estimate(involution, (2, 1, 0), n).tail_bound for n in (645, 646, 647)]
        assert tails[0] > tails[1] > tails[2] > 0.0

    def test_estimates_match_pinned_digest(self):
        # sha256 of the values and tail bounds below, recorded while d^k
        # was a float power and, past the float range, scaled in logs.  All
        # these degrees are powers of two and every d^k is below 2^1024.
        maps = [
            "vars x y\nforward: y | x + y^2\ninverse: y - x^2 | x\n",
            bundled_map_text("henon3"),
            bundled_map_text("henon4"),
            bundled_map_text("henon5"),
            INVOLUTION,
        ]
        rows = []
        for text in maps:
            automorphism = _load(text)
            n = automorphism.n
            starts = [(1,) * n, tuple(range(2, 2 - n, -1)), (Fraction(1, 2),) + (-3,) * (n - 1)]
            for start in starts:
                for depth in (1, 8, 40):
                    for direction in ("forward", "inverse"):
                        est = canonical_estimate(automorphism, start, depth, direction, 2**16)
                        rows.append((est.values, est.tail_bound))
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "c9ba1557cf5f97ba9c9fb41d4f3d9b415023f5db966ac910c30c2063367cfb27"

    def test_degree_one_runs_the_full_depth(self):
        # A shear's tail bound is infinite from the first nonzero difference
        # on; the orbit still runs to the given depth, uncertified.
        names = ("x", "y", "z")
        shear = AffineAutomorphism(
            [parse_polynomial(c, names) for c in ("x + y", "y", "z")],
            [parse_polynomial(c, names) for c in ("x - y", "y", "z")],
            names,
        )
        est = canonical_estimate(shear, (1, 1, 1), depth=50)
        assert est.depth == 50 and est.tail_bound == math.inf
        assert est.step_integers[-1] == 51 and not est.certified

    def test_fixed_point_zero(self, henon):
        result = canonical(henon, (0, 0, 0), depth=5)
        assert result.value == 0.0 and result.tail_bound == 0.0

    def test_mostly_the_plus_part(self, henon):
        result = canonical(henon, (1, 1, 1), depth=10)
        assert abs(result.value - result.plus.estimate) < 1e-3

    def test_identity_sum_convention(self):
        ident = identity(3)
        h = weil_height((2, 3, 4))
        result = canonical(ident, (2, 3, 4), depth=3)
        assert result.value == 2 * h


class TestGrowthBound:
    def test_henon_constant(self, henon):
        assert height_growth_constant(henon) == pytest.approx(LOG2)

    def test_constants_are_pinned(self, henon):
        # Exact floats, recorded before the constant read the compiled map.
        names = ("x", "y")
        rational = AffineAutomorphism(
            [parse_polynomial(c, names) for c in ("y + 1/5", "3/2*x + 5/7*y^2 - 1/3")],
            [parse_polynomial(c, names) for c in ("2/3*y - 10/21*(x - 1/5)^2 + 2/9", "x - 1/5")],
        )
        pins = {
            (henon, "forward"): 0.6931471805599453,
            (henon, "inverse"): 2.0794415416798357,
            (rational, "forward"): 6.851184927493743,
            (rational, "inverse"): 7.138866999945524,
        }
        for (automorphism, direction), value in pins.items():
            assert height_growth_constant(automorphism, direction) == value

    @given(small_points)
    @settings(max_examples=80)
    def test_single_step_growth(self, henon, point):
        bound = henon.d * weil_height(point) + height_growth_constant(henon)
        assert weil_height(apply(henon, point)) <= bound + 1e-12

    def test_many_random_points_both_directions(self, henon):
        rng = random.Random(7)
        c_fwd = height_growth_constant(henon, "forward")
        c_inv = height_growth_constant(henon, "inverse")
        for _ in range(300):
            point = tuple(
                Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(3)
            )
            h = weil_height(point)
            assert weil_height(apply(henon, point)) <= henon.d * h + c_fwd + 1e-12
            assert (
                weil_height(apply(henon, point, "inverse"))
                <= henon.d_inv * h + c_inv + 1e-12
            )
