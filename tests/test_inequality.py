import csv
import io
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from affdyn import kernel
from affdyn.dynamics import DEFAULT_BIT_BUDGET, AffineAutomorphism
from affdyn.heights import weil_height_integer
from affdyn.inequality import (
    BoxSampler,
    CHUNK_RECORDS,
    CompositeSampler,
    DeltaRecord,
    DeltaReport,
    OrbitSampler,
    RandomRationalSampler,
    RationalBoxSampler,
    WARMUP,
    _rational_values,
    batch_verify,
)
from affdyn.parsing import parse_polynomial

from conftest import count_calls
from oracles import horner_eval

LOG2 = math.log(2)


def sorted_set_values(num_bound, den_bound):
    """The sampler value table as it was first written: every quotient
    in a set, sorted by denominator, absolute value, then sign."""
    return sorted(
        {
            Fraction(p, q)
            for q in range(1, den_bound + 1)
            for p in range(-num_bound, num_bound + 1)
        },
        key=lambda v: (v.denominator, abs(v), v < 0),
    )


def assert_random_sampler_matches_oracle(seed, bounds, n):
    """200 draws of the random sampler in dimension ``n`` equal Fraction
    draws from the sorted set, brought to common-denominator form."""
    num_bound, den_bound = bounds
    values = sorted_set_values(num_bound, den_bound)
    rng = random.Random(seed)
    oracle = [
        kernel.to_common_denominator([rng.choice(values) for _ in range(n)])
        for _ in range(200)
    ]
    sampler = RandomRationalSampler(200, num_bound, den_bound, seed)
    space = AffineAutomorphism.identity(n)
    assert list(sampler.points(space, DEFAULT_BIT_BUDGET)) == oracle


class FixedSampler:
    def __init__(self, raw):
        self.raw = raw

    def describe(self):
        return {"kind": "fixed"}

    def points(self, automorphism, bit_budget):
        yield self.raw


def delta_at(automorphism, point) -> float:
    """The statistic ``batch_verify`` records at one point."""
    sampler = OrbitSampler((tuple(Fraction(c) for c in point),), 0)
    (record,) = batch_verify(automorphism, sampler).records
    return record.delta


class TestDeltaStatistic:
    def test_origin(self, henon):
        assert delta_at(henon, (0, 0, 0)) == 0.0

    def test_unit_point(self, henon):
        # images (1,2,2) and (1,1,0): heights log 2 and 0; h(P) = 0
        assert delta_at(henon, (1, 1, 1)) == pytest.approx(LOG2 / 2, abs=0)

    def test_orbit_point_against_direct_formula(self, henon):
        # f(2,6,5) = (6,41,27), f^{-1}(2,6,5) = (1,2,2)
        expected = math.log(41) / 2 + LOG2 / 4 - (1 + Fraction(1, 8)) * math.log(6)
        delta = delta_at(henon, (2, 6, 5))
        assert delta == pytest.approx(expected, rel=1e-15)

    def test_identity_family(self):
        # on the pair (id, id) the statistic is h(P) + h(P) - 2 h(P) = 0
        ident = AffineAutomorphism.identity(3)
        assert delta_at(ident, (3, Fraction(1, 2), -4)) == 0.0

    @pytest.mark.parametrize(
        "sampler",
        [
            BoxSampler(2),
            OrbitSampler(((Fraction(1),) * 3, (Fraction(2), Fraction(-1), Fraction(1, 3))), 4),
        ],
        ids=["box", "orbit"],
    )
    def test_records_match_fraction_oracle(self, henon, sampler):
        # Recompute every kernel record through Polynomial.evaluate.
        report = batch_verify(henon, sampler)
        d, d_inv = henon.degrees
        assert report.records
        for record in report.records:
            point = kernel.to_fractions(*record.point)
            image = tuple(p.evaluate(point) for p in henon.forward)
            preimage = tuple(p.evaluate(point) for p in henon.inverse)
            ints = tuple(weil_height_integer(q) for q in (point, image, preimage))
            assert record.height_integers == ints
            h_p, h_f, h_i = (math.log(h) for h in ints)
            assert record.delta == h_f / d + h_i / d_inv - (1 + 1 / (d * d_inv)) * h_p


class TestSamplers:
    def test_box_enumeration_is_nested_and_exhaustive(self):
        plane = AffineAutomorphism.identity(2)
        small = list(BoxSampler(1).points(plane, DEFAULT_BIT_BUDGET))
        bigger = list(BoxSampler(2).points(plane, DEFAULT_BIT_BUDGET))
        assert bigger[: len(small)] == small
        assert len(small) == 9 and len(bigger) == 25

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_box_order_matches_the_cube_filter(self, n):
        # Reference: each shell as the filter over the full cube.
        expected = [((0,) * n, 1)]
        for shell in range(1, 5):
            for cand in itertools.product(range(-shell, shell + 1), repeat=n):
                if max(abs(c) for c in cand) == shell:
                    expected.append((cand, 1))
        space = AffineAutomorphism.identity(n)
        assert list(BoxSampler(4).points(space, DEFAULT_BIT_BUDGET)) == expected

    def test_rational_box_counts(self):
        line = AffineAutomorphism.identity(1)
        values = {p for p in RationalBoxSampler(2, 2).points(line, DEFAULT_BIT_BUDGET)}
        # q=1: -2..2 (5 values); q=2: +-1/2 and +-3/2... |num|<=2 -> +-1/2 only
        assert len(values) == 7

    @pytest.mark.parametrize(
        "bounds", [(5, 3), (50, 20), (1, 7), (0, 4), (13, 13), (-1, 3), (3, 0)]
    )
    def test_value_table_matches_the_sorted_set(self, bounds):
        num_bound, den_bound = bounds
        table = _rational_values(num_bound, den_bound)
        assert [Fraction(a, q) for a, q in table] == sorted_set_values(num_bound, den_bound)
        assert all(q == Fraction(a, q).denominator for a, q in table)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("bounds", [(50, 20), (5, 3)])
    def test_random_sampler_draws_from_the_sorted_set(self, seed, bounds):
        assert_random_sampler_matches_oracle(seed, bounds, 3)

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("bounds", [(50, 20), (5, 3)])
    def test_random_sampler_draws_in_every_dimension(self, seed, bounds, n):
        assert_random_sampler_matches_oracle(seed, bounds, n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("bounds", [(5, 3), (3, 4), (0, 2), (2, 0)])
    def test_rational_box_matches_the_fraction_product(self, bounds, n):
        num_bound, den_bound = bounds
        values = sorted_set_values(num_bound, den_bound)
        oracle = [
            kernel.to_common_denominator(point)
            for point in itertools.product(values, repeat=n)
        ]
        sampler = RationalBoxSampler(num_bound, den_bound)
        space = AffineAutomorphism.identity(n)
        assert list(sampler.points(space, DEFAULT_BIT_BUDGET)) == oracle

    def test_random_sampler_deterministic(self):
        space = AffineAutomorphism.identity(3)
        a = list(RandomRationalSampler(20, seed=5).points(space, DEFAULT_BIT_BUDGET))
        b = list(RandomRationalSampler(20, seed=5).points(space, DEFAULT_BIT_BUDGET))
        assert a == b


class TestBatchVerify:
    def test_single_fixed_point(self, henon):
        report = batch_verify(henon, OrbitSampler(((Fraction(0),) * 3,), 0))
        assert report.min_delta == 0.0
        assert report.argmin == ((0, 0, 0), 1)
        # Below warmup the rule is never evaluated, so the verdict FAILS.
        assert not report.stabilized
        assert "below warmup" in report.stabilization_note

    def test_small_box(self, henon):
        report = batch_verify(henon, BoxSampler(3))
        assert len(report.records) == 7**3
        assert math.isfinite(report.min_delta)
        assert report.argmin is not None
        # the reported minimum is recomputable from the stored heights
        worst = min(report.records, key=lambda r: r.delta)
        d, d_inv = henon.degrees
        recomputed = (
            worst.h_forward / d
            + worst.h_inverse / d_inv
            - (1 + 1 / (d * d_inv)) * worst.h_point
        )
        assert recomputed == report.min_delta

    def test_orbit_points_stay_above_box_minimum(self, henon):
        box = batch_verify(henon, BoxSampler(3))
        seeds = (tuple(map(Fraction, (1, 1, 1))),)
        orbit = batch_verify(henon, OrbitSampler(seeds, 8))
        assert all(r.delta >= box.min_delta for r in orbit.records)

    def test_composite_sampler_and_regularity_recorded(self, henon):
        sampler = CompositeSampler((BoxSampler(1), OrbitSampler(((Fraction(1),) * 3,), 3)))
        report = batch_verify(henon, sampler)
        assert report.regularity == "regular"
        assert len(report.records) == 27 + 4

    @pytest.mark.parametrize("raw", [((2, 4), 2), ((1, 2), -1)], ids=["gcd", "sign"])
    def test_non_canonical_sampler_point_is_rejected(self, raw):
        with pytest.raises(ValueError, match="canonical"):
            batch_verify(AffineAutomorphism.identity(2), FixedSampler(raw))

    @pytest.mark.parametrize("raw", [((1, 1), 1), ((1, 1, 1, 1), 1)], ids=["short", "long"])
    def test_wrong_length_sampler_point_is_rejected(self, henon, raw):
        with pytest.raises(ValueError, match=r"has \d coordinates, expected 3"):
            batch_verify(henon, FixedSampler(raw))

    def test_forward_overflow_skips_without_inverse(self, henon, monkeypatch):
        # f(0, 0, 16) = (0, 16, 256) exceeds 8 bits; the point does not.  The
        # bit-length bound cannot prove it (256 is 2^8), so the forward image
        # is evaluated, and the inverse is not.
        calls = count_calls(monkeypatch, "eval_point")
        sampler = OrbitSampler(((Fraction(0), Fraction(0), Fraction(16)),), 0)
        report = batch_verify(henon, sampler, bit_budget=8)
        assert len(calls) == 1
        assert report.skipped == 1 and not report.records

    def test_certified_forward_overflow_evaluates_nothing(self, henon, monkeypatch):
        # f(0, 0, 200) = (0, 200, 40000): z^2 alone proves 40000 > 2^8.
        calls = count_calls(monkeypatch, "eval_point")
        sampler = OrbitSampler(((Fraction(0), Fraction(0), Fraction(200)),), 0)
        report = batch_verify(henon, sampler, bit_budget=8)
        assert calls == []
        assert report.skipped == 1 and not report.records
        # A sample that keeps no point cannot pass.
        assert not report.stabilized
        assert report.stabilization_note == "the sample kept no point; nothing to verify"
        assert math.isnan(report.min_delta) and report.checkpoints == ()

    def test_each_record_measures_three_points_once(self, henon, monkeypatch):
        # H(P) for the budget test and the record; each step hands back the
        # height integer of its image.
        scans = count_calls(monkeypatch, "height_integer")
        report = batch_verify(henon, BoxSampler(1))
        assert len(report.records) == 27 and report.skipped == 0
        assert len(scans) == 3 * len(report.records)

    def test_bit_budget_skips_are_counted(self, henon):
        seeds = (tuple(map(Fraction, (1, 1, 1))),)
        report = batch_verify(
            henon, OrbitSampler(seeds, 12), bit_budget=48
        )
        assert report.skipped > 0

    # kernel.eval_point and kernel.exceeds_budget calls over the sweep below;
    # exceeds_budget only saves work, so only these counts show a gate that
    # asks it one bit too early or too late.
    GATE_SWEEP_CALLS = (4391, 405)

    def test_budget_gate_sweep_matches_fraction_oracle(self, henon, monkeypatch):
        # A point is kept exactly when P, f(P) and f^-1(P) all fit the
        # budget, with their Weil height integers, at every budget.
        start = (Fraction(1),) * 3
        cases = []
        for budget in range(1, 65):
            for sampler in (BoxSampler(1), OrbitSampler((start,), 8)):
                kept, skipped = [], 0
                for raw in sampler.points(henon, budget):
                    point = kernel.to_fractions(*raw)
                    heights = tuple(weil_height_integer(q) for q in (
                        point,
                        tuple(horner_eval(c, point) for c in henon.forward),
                        tuple(horner_eval(c, point) for c in henon.inverse),
                    ))
                    if max(heights).bit_length() <= budget:
                        kept.append((raw, heights))
                    else:
                        skipped += 1
                cases.append((sampler, budget, kept, skipped))
        evals = count_calls(monkeypatch, "eval_point")
        bounds = count_calls(monkeypatch, "exceeds_budget")
        for sampler, budget, kept, skipped in cases:
            report = batch_verify(henon, sampler, budget)
            assert [(r.point, r.height_integers) for r in report.records] == kept, budget
            assert report.skipped == skipped, budget
        assert (len(evals), len(bounds)) == self.GATE_SWEEP_CALLS

    def test_json_report_is_deterministic(self, henon):
        sampler = BoxSampler(2)
        a = json.dumps(batch_verify(henon, sampler).to_json_dict(), sort_keys=True)
        b = json.dumps(batch_verify(henon, sampler).to_json_dict(), sort_keys=True)
        assert a == b

    def test_stabilization_checkpoints(self, henon):
        report = batch_verify(henon, BoxSampler(5))
        assert [c for c, _ in report.checkpoints] == [WARMUP, 4 * WARMUP, 16 * WARMUP, 11**3]
        mins = [m for _, m in report.checkpoints]
        assert all(b <= a for a, b in zip(mins, mins[1:]))  # running minima
        assert report.stabilized

    @pytest.mark.parametrize(
        "count, checkpoints, note",
        [
            (63, 1, "sample below warmup; stabilization not evaluated"),
            (64, 1, "one checkpoint, at warmup; stabilization not evaluated"),
            (65, 2, "min moved 0 between the last two checkpoints"),
        ],
    )
    def test_note_at_warmup(self, henon, count, checkpoints, note):
        report = batch_verify(henon, RandomRationalSampler(count))
        assert len(report.records) == count and len(report.checkpoints) == checkpoints
        # With fewer than two checkpoints the rule was not evaluated: no PASS.
        assert report.stabilized is (checkpoints == 2)
        assert report.stabilization_note == note

    def test_unstable_minimum_fails_verdict(self, henon):
        # The verdict compares the drift of the minimum between the last two
        # checkpoints with SLACK: random draws with large heights, then small
        # boxes, move it by various amounts.
        cases = [
            (64, BoxSampler(1), False, "1.55186"),
            (214, BoxSampler(2), False, "0.127706"),
            (200, BoxSampler(2), True, "0.0263401"),
        ]
        for count, box, stabilized, drift in cases:
            sampler = CompositeSampler((RandomRationalSampler(count, 50, 20), box))
            report = batch_verify(henon, sampler)
            assert report.stabilized is stabilized, count
            assert report.stabilization_note == (
                f"min moved {drift} between the last two checkpoints"
            )


def one_variable_report() -> DeltaReport:
    """A report on a map of A^1 by hand: ``batch_verify`` refuses
    dimension 1, but a report of it has points without a comma."""
    names = ("x",)
    forward = (parse_polynomial("2*x + 1", names),)
    inverse = (parse_polynomial("x/2 - 1/2", names),)
    line = AffineAutomorphism(forward, inverse, names)
    points = [((a,), q) for a in range(-3, 4) for q in (1, 2, 3) if math.gcd(a, q) == 1]
    d, d_inv = line.degrees
    records = []
    for nums, den in points:
        point = kernel.to_fractions(nums, den)
        heights = tuple(
            weil_height_integer(p)
            for p in (point, line.apply(point, "forward"), line.apply(point, "inverse"))
        )
        h_p, h_f, h_i = map(math.log, heights)
        delta = h_f / d + h_i / d_inv - (1.0 + 1.0 / (d * d_inv)) * h_p
        records.append(DeltaRecord(nums, den, *heights, delta))
    records = tuple(records)
    low = min(records, key=lambda r: r.delta)
    return DeltaReport(
        map_id=line.map_id,
        degrees=line.degrees,
        sample={"kind": "by hand"},
        regularity="not decided",
        records=records,
        min_delta=low.delta,
        argmin=low.point,
        skipped=0,
        checkpoints=((len(records), low.delta),),
        stabilized=False,
        stabilization_note="by hand",
    )


class TestReportWriters:
    """``write_json`` and ``write_csv`` fill fixed templates record by
    record; their bytes must equal the generic encoders over the reference
    layouts ``to_json_dict`` and ``to_csv_rows``."""

    @staticmethod
    def assert_writers_match_reference(report: DeltaReport, seed: int = 7):
        written = io.StringIO()
        report.write_json(written, seed)
        reference = json.dumps(
            report.to_json_dict() | {"seed": seed}, sort_keys=True, separators=(",", ":")
        )
        assert written.getvalue() == reference + "\n"

        written = io.StringIO()
        report.write_csv(written)
        reference = io.StringIO()
        csv.writer(reference, lineterminator="\n").writerows(report.to_csv_rows())
        assert written.getvalue() == reference.getvalue()

    @pytest.mark.parametrize(
        "sampler, bit_budget",
        [
            (BoxSampler(3), DEFAULT_BIT_BUDGET),
            (RationalBoxSampler(2, 2), DEFAULT_BIT_BUDGET),
            (RandomRationalSampler(300, 50, 20, seed=3), DEFAULT_BIT_BUDGET),
            (OrbitSampler(((Fraction(1), Fraction(1), Fraction(1)),), 12), 48),
            (CompositeSampler((BoxSampler(1), RationalBoxSampler(1, 2))), DEFAULT_BIT_BUDGET),
            (RationalBoxSampler(5, 0), DEFAULT_BIT_BUDGET),
        ],
        ids=["box", "rationals", "random", "orbit-with-skips", "composite", "empty"],
    )
    def test_writers_match_reference(self, henon, sampler, bit_budget):
        report = batch_verify(henon, sampler, bit_budget)
        if isinstance(sampler, OrbitSampler):
            assert report.skipped > 0
        if not report.records:
            assert report.to_json_dict()["min_delta"] is None
        self.assert_writers_match_reference(report)

    def test_writers_match_reference_past_4300_digits(self, henon):
        # Deep orbit points: some height integers are written in hex.
        seed = (Fraction(1), Fraction(1), Fraction(1))
        report = batch_verify(henon, OrbitSampler((seed,), 14))
        assert max(max(r.height_integers) for r in report.records).bit_length() > 14_300
        self.assert_writers_match_reference(report)

    def test_writers_match_reference_in_one_variable(self):
        report = one_variable_report()
        assert "," not in report.to_json_dict()["argmin"]
        self.assert_writers_match_reference(report)

    def test_writers_write_in_bounded_chunks(self, henon):
        # The report text is never held whole: no write carries more than
        # CHUNK_RECORDS records.
        class Writes(list):
            write = list.append

        report = batch_verify(henon, BoxSampler(9))  # 6,859 records
        json_writes, csv_writes = Writes(), Writes()
        report.write_json(json_writes, 0)
        report.write_csv(csv_writes)
        assert max(text.count('{"delta"') for text in json_writes) == CHUNK_RECORDS
        assert max(text.count("\n") for text in csv_writes) == CHUNK_RECORDS
