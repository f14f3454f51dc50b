"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance and time budget is pinned here.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from affdyn.divisors import (
    check_effective,
    check_pushpull_identity,
    combine_resolutions,
    compute_D,
    find_essential,
    validate_resolution,
)
from affdyn.dynamics import AffineAutomorphism, InverseVerificationError, is_regular
from affdyn.heights import canonical_estimate, height_growth_constant, weil_height_integer
from affdyn.inequality import BoxSampler, CompositeSampler, OrbitSampler, batch_verify
from affdyn.parsing import parse_polynomial

from conftest import bundled_ledger
from oracles import apply, normalize_projective, undefined_at_infinity
from test_divisors import EXPECTED_D, random_valid_pair, violate_one_law

F = Fraction


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )
    print(f"[criterion {number}] PASS in {elapsed:.2f}s: {description}")


def test_criterion_1_exact_divisor_reproduction():
    with criterion(1, "exact divisor coefficients from the bundled tables", 1.0):
        divisor = compute_D(combine_resolutions(*bundled_ledger()))
        assert divisor.coeffs == EXPECTED_D  # exact rationals, zero tolerance


def test_criterion_2_essential_divisors_and_validation():
    with criterion(2, "essential divisor identification and ledger laws", 1.0):
        forward, inverse = bundled_ledger()
        assert validate_resolution(forward).ok
        assert validate_resolution(inverse).ok
        t_forward = find_essential(forward.b, forward.pushforward)
        t_inverse = find_essential(inverse.b, inverse.pushforward)
        assert forward.basis.labels[t_forward] == "E5"
        assert inverse.basis.labels[t_inverse] == "F4"


def test_criterion_3_ledger_fuzz_equivalence():
    with criterion(3, "effectivity equivalence over randomized ledgers", 30.0):
        rng = random.Random(411)
        for _ in range(10_000):
            forward, inverse = random_valid_pair(rng)
            divisor = compute_D(combine_resolutions(forward, inverse))
            assert check_effective(divisor).effective
        violations = 0
        while violations < 1_000:
            forward, inverse = random_valid_pair(rng)
            mutate_forward = rng.random() < 0.5
            outcome = violate_one_law(rng, forward if mutate_forward else inverse)
            if outcome is None:
                continue
            law, mutated = outcome
            violations += 1
            pair = (mutated, inverse) if mutate_forward else (forward, mutated)
            effective = check_effective(compute_D(combine_resolutions(*pair))).effective
            assert effective == (law != "effectivity-inequality")


def test_criterion_4_inverse_verification(henon):
    with criterion(4, "symbolic inverse verification both ways", 1.0):
        # construction is the verification; rebuilding exercises it
        rebuilt = AffineAutomorphism(henon.forward, henon.inverse)
        assert rebuilt.degrees == (2, 4)
        unsquared = tuple(
            parse_polynomial(s, ("x", "y", "z"))
            for s in ("z - (y - x^2)", "x", "y - x^2")
        )
        try:
            AffineAutomorphism(henon.forward, unsquared)
        except InverseVerificationError as err:
            assert not err.residual.is_zero
        else:
            raise AssertionError("unsquared inverse must be rejected")


def test_criterion_5_regularity(henon, triangular):
    with criterion(5, "exact regularity decisions in dimensions 3 and 2", 5.0):
        result = is_regular(henon)
        assert result.verdict == "regular"
        tri = is_regular(triangular)
        assert tri.verdict == "not_regular"
        assert tri.witness is not None
        for coords in (triangular.forward, triangular.inverse):
            assert undefined_at_infinity(coords, tri.witness[1:])


def test_criterion_6_inequality_at_desk_scale(henon):
    with criterion(6, "height-inequality minimum stable from box 5 to box 7", 120.0):
        seeds = tuple(
            tuple(map(Fraction, seed))
            for seed in ((1, 1, 1), (1, 0, 0), (0, 1, 2), (-1, 2, 1), (2, -1, 0))
        )
        orbits = OrbitSampler(seeds, 8)
        small = batch_verify(henon, CompositeSampler((BoxSampler(5), orbits)))
        assert sum(1 for r in small.records) >= 11**3
        assert math.isfinite(small.min_delta)
        large = batch_verify(henon, CompositeSampler((BoxSampler(7), orbits)))
        assert math.isfinite(large.min_delta)
        assert abs(large.min_delta - small.min_delta) < 0.05
        assert small.stabilized and large.stabilized


def test_criterion_7_canonical_height_convergence(henon):
    with criterion(7, "canonical height converges with certified tail", 120.0):
        estimate = canonical_estimate(henon, (1, 1, 1), depth=10)
        assert abs(estimate.values[6] - estimate.values[10]) < 1e-2
        assert estimate.certified and estimate.tail_bound <= 1e-2


def test_criterion_9_height_machinery_properties(henon):
    with criterion(9, "height invariances, growth bound, push-pull identity", 30.0):
        rng = random.Random(1009)
        # scaling invariance of the Weil height
        for _ in range(300):
            vec = tuple(rng.randint(-40, 40) for _ in range(4))
            if not any(vec):
                continue
            scale = rng.choice([-6, -3, -2, -1, 1, 2, 3, 6])
            assert normalize_projective(
                tuple(scale * c for c in vec)
            ) == normalize_projective(vec)
        # single-step growth bound on 10^3 random points
        growth = height_growth_constant(henon)
        for _ in range(1_000):
            point = tuple(
                Fraction(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(3)
            )
            image_height = math.log(weil_height_integer(apply(henon, point)))
            bound = henon.d * math.log(weil_height_integer(point)) + growth
            assert image_height <= bound + 1e-12
        # push-pull identity on every bundled datum
        for datum in bundled_ledger():
            assert check_pushpull_identity(datum)
