import csv
import io
import itertools
import json
import math
import random
from array import array
from fractions import Fraction

import pytest

from affdyn import inequality, kernel
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
from affdyn.parsing import DECIMAL_LIMIT, parse_map_file

from conftest import count_calls, count_eval_height
from oracles import horner_eval, identity, to_fractions

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


def fraction_sweep(automorphism, samplers):
    """For each budget from 1 to 64 and each sampler: the points kept, with
    their Weil height integers, and the number skipped, computed with
    ``Fraction`` arithmetic by ``horner_eval``."""
    cases = []
    for budget in range(1, 65):
        for sampler in samplers:
            kept, skipped = [], 0
            for raw in sampler.points(automorphism, budget):
                point = to_fractions(*raw)
                heights = tuple(weil_height_integer(q) for q in (
                    point,
                    tuple(horner_eval(c, point) for c in automorphism.forward),
                    tuple(horner_eval(c, point) for c in automorphism.inverse),
                ))
                if max(heights).bit_length() <= budget:
                    kept.append((raw, heights))
                else:
                    skipped += 1
            cases.append((sampler, budget, kept, skipped))
    return cases


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
    space = identity(n)
    assert list(sampler.points(space, DEFAULT_BIT_BUDGET)) == oracle


# henon3 maps ``(0, 0, z)`` to ``(0, z, z^2)``: each of these 14 orbits of
# depth 0 is its 11-bit seed, which a 16-bit budget skips, since z^2 has
# 21 bits.
SKIPPED_ORBIT = OrbitSampler(tuple((0, 0, 1024 + k) for k in range(14)), 0)


class FixedSampler:
    """The given ``(nums, den)`` points, in order."""

    def __init__(self, *raws):
        self.raws = raws

    def describe(self):
        return {"kind": "fixed"}

    def points(self, automorphism, bit_budget):
        yield from self.raws


def assert_records_match_fraction_oracle(automorphism, report):
    """Every record of ``report``, recomputed through
    ``Polynomial.evaluate``: the three height integers and delta."""
    d, d_inv = automorphism.degrees
    assert report.records
    for record in report.records:
        point = to_fractions(*record.point)
        image = tuple(p.evaluate(point) for p in automorphism.forward)
        preimage = tuple(p.evaluate(point) for p in automorphism.inverse)
        ints = tuple(weil_height_integer(q) for q in (point, image, preimage))
        assert record.height_integers == ints
        h_p, h_f, h_i = (math.log(h) for h in ints)
        assert record.delta == h_f / d + h_i / d_inv - (1 + 1 / (d * d_inv)) * h_p


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
        ident = identity(3)
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
        assert_records_match_fraction_oracle(henon, batch_verify(henon, sampler))


class TestSamplers:
    def test_box_enumeration_is_nested_and_exhaustive(self):
        plane = identity(2)
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
        space = identity(n)
        assert list(BoxSampler(4).points(space, DEFAULT_BIT_BUDGET)) == expected

    def test_rational_box_counts(self):
        line = identity(1)
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

    # The sampler draws its indices from getrandbits as random.choice does.
    # (0, 2) has one value, so every draw of getrandbits(1) that reads 1 is
    # drawn again; (5, 2) has 17, so about half of the 5-bit draws are.
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("bounds", [(50, 20), (5, 3), (0, 2), (5, 2)])
    def test_random_sampler_draws_from_the_sorted_set(self, seed, bounds):
        assert_random_sampler_matches_oracle(seed, bounds, 3)

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("bounds", [(50, 20), (5, 3), (0, 2), (5, 2)])
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
        space = identity(n)
        assert list(sampler.points(space, DEFAULT_BIT_BUDGET)) == oracle

    def test_random_sampler_deterministic(self):
        space = identity(3)
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
            math.log(worst.H_forward) / d
            + math.log(worst.H_inverse) / d_inv
            - (1 + 1 / (d * d_inv)) * math.log(worst.H_point)
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
            batch_verify(identity(2), FixedSampler(raw))

    @pytest.mark.parametrize("raw", [((1, 1), 1), ((1, 1, 1, 1), 1)], ids=["short", "long"])
    def test_wrong_length_sampler_point_is_rejected(self, henon, raw):
        with pytest.raises(ValueError, match=r"has \d coordinates, expected 3"):
            batch_verify(henon, FixedSampler(raw))

    def test_forward_overflow_skips_without_inverse(self, henon, monkeypatch):
        # f(0, 0, 16) = (0, 16, 256) exceeds 8 bits; the point does not.  The
        # bit-length bound cannot prove it (256 is 2^8), so the forward image
        # is evaluated, and the inverse is not.
        calls = count_eval_height(monkeypatch, count_calls(monkeypatch, "eval_point"), henon)
        sampler = OrbitSampler(((Fraction(0), Fraction(0), Fraction(16)),), 0)
        report = batch_verify(henon, sampler, bit_budget=8)
        assert len(calls) == 1
        assert report.skipped == 1 and not report.records

    def test_certified_forward_overflow_evaluates_nothing(self, henon, monkeypatch):
        # f(0, 0, 200) = (0, 200, 40000): z^2 alone proves 40000 > 2^8.
        calls = count_eval_height(monkeypatch, count_calls(monkeypatch, "eval_point"), henon)
        sampler = OrbitSampler(((Fraction(0), Fraction(0), Fraction(200)),), 0)
        report = batch_verify(henon, sampler, bit_budget=8)
        assert calls == []
        assert report.skipped == 1 and not report.records
        # A sample that keeps no point cannot pass.
        assert not report.stabilized
        assert report.stabilization_note == "the sample kept no point; nothing to verify"
        assert math.isnan(report.min_delta) and report.checkpoints == ()

    def test_each_record_measures_three_points_once(self, henon, monkeypatch):
        # H(P) for the budget test and the record; each evaluation hands
        # back the height integer of its image: eval_height measures it, or
        # kernel.step scans it.
        scans = count_eval_height(monkeypatch, count_calls(monkeypatch, "height_integer"), henon)
        report = batch_verify(henon, BoxSampler(1))
        assert len(report.records) == 27 and report.skipped == 0
        assert len(scans) == 3 * len(report.records)

    def test_bit_budget_skips_are_counted(self, henon):
        seeds = (tuple(map(Fraction, (1, 1, 1))),)
        report = batch_verify(
            henon, OrbitSampler(seeds, 12), bit_budget=48
        )
        assert report.skipped > 0

    # Evaluations (kernel.eval_point or a map's eval_height) and
    # kernel.exceeds_budget calls over the sweep below, on henon3 and on
    # RATIONAL_SWEEP_MAP; exceeds_budget only saves work, so only these
    # counts show a gate that asks it one bit too early or too late.
    GATE_SWEEP_CALLS = (4391, 405)
    RATIONAL_GATE_SWEEP_CALLS = (15020, 866)
    # A map with coeff_bits == 2 (x + y^2/2 clears to (2x + y^2)/2), swept
    # at points with den > 1.
    RATIONAL_SWEEP_MAP = "vars x y\nforward: y | x + y^2/2\ninverse: y - x^2/2 | x\n"

    def test_budget_gate_sweep_matches_fraction_oracle(self, henon, monkeypatch):
        # A point is kept exactly when P, f(P) and f^-1(P) all fit the
        # budget, with their Weil height integers, at every budget.
        mf = parse_map_file(self.RATIONAL_SWEEP_MAP)
        rational = AffineAutomorphism(mf.forward, mf.inverse, mf.names)
        assert rational.compiled("forward").coeff_bits == 2
        start = (Fraction(1),) * 3
        sweeps = [
            (henon, (BoxSampler(1), OrbitSampler((start,), 8)), self.GATE_SWEEP_CALLS),
            (rational, (RationalBoxSampler(2, 3),), self.RATIONAL_GATE_SWEEP_CALLS),
        ]
        cases = [
            (automorphism, fraction_sweep(automorphism, samplers), pinned)
            for automorphism, samplers, pinned in sweeps
        ]
        evals = count_calls(monkeypatch, "eval_point")
        count_eval_height(monkeypatch, evals, henon, rational)
        bounds = count_calls(monkeypatch, "exceeds_budget")
        for automorphism, sweep, pinned in cases:
            evals.clear()
            bounds.clear()
            for sampler, budget, kept, skipped in sweep:
                report = batch_verify(automorphism, sampler, budget)
                assert [(r.point, r.height_integers) for r in report.records] == kept, budget
                assert report.skipped == skipped, budget
            assert (len(evals), len(bounds)) == pinned

    def test_json_report_is_deterministic(self, henon):
        sampler = BoxSampler(2)
        a = json.dumps(batch_verify(henon, sampler).to_json_dict(), sort_keys=True)
        b = json.dumps(batch_verify(henon, sampler).to_json_dict(), sort_keys=True)
        assert a == b

    @pytest.mark.parametrize(
        "sampler, bit_budget",
        [
            (BoxSampler(2), DEFAULT_BIT_BUDGET),
            (RationalBoxSampler(1, 2), DEFAULT_BIT_BUDGET),
            (CompositeSampler((BoxSampler(1), SKIPPED_ORBIT, RationalBoxSampler(1, 2))), 16),
        ],
        ids=["box", "rationals", "composite-with-a-skipped-block"],
    )
    def test_records_are_a_read_only_sequence_of_records(
        self, henon, monkeypatch, sampler, bit_budget
    ):
        # The blocks give back, by iteration and by index, the records
        # that batch_verify measured, in sample order.  Blocks of 7 put
        # the records in many blocks, and the composite's skipped orbit
        # fills sample points 28 to 34, one whole block that keeps none.
        points = list(sampler.points(henon, bit_budget))
        skipped = set(SKIPPED_ORBIT.points(henon, 16))
        kept = [p for p in points if p not in skipped]
        for chunk in (CHUNK_RECORDS, 7):
            monkeypatch.setattr(inequality, "CHUNK_RECORDS", chunk)
            report = batch_verify(henon, sampler, bit_budget)
            records = report.records
            listed = tuple(records)
            count = len(listed)
            assert len(records) == count == len(kept) and records
            assert report.skipped == len(points) - count
            assert all(type(r) is DeltaRecord and len(r.nums) == henon.n for r in listed)
            assert [r.point for r in listed] == kept

            # One stored block per block of sample points that kept a
            # record, and none for a block that kept none.
            per_block = [
                sum(p not in skipped for p in points[start : start + chunk])
                for start in range(0, len(points), chunk)
            ]
            assert [len(block.dens) for block in records._blocks] == [k for k in per_block if k]
            assert (0 in per_block) == (chunk == 7 and len(kept) < len(points))
            assert len(records._blocks) > 1 or chunk == CHUNK_RECORDS

            # Every index, negative too, across the block starts.
            assert [records[i] for i in range(-count, count)] == list(listed) * 2
            assert records[True] == listed[1]
            for index in (count, -count - 1, 10**30):
                with pytest.raises(IndexError):
                    records[index]
            for index in ("0", slice(None), 1.0):
                with pytest.raises(TypeError):
                    records[index]

            # Records compare record by record, whatever blocks hold them.
            again = batch_verify(henon, sampler, bit_budget)
            assert again.records == records and again == report
            monkeypatch.setattr(inequality, "CHUNK_RECORDS", 5)
            regrouped = batch_verify(henon, sampler, bit_budget).records
            assert regrouped == records and len(regrouped._blocks) != len(records._blocks)
            reordered = batch_verify(henon, FixedSampler(*kept[1:], kept[0]), bit_budget)
            assert reordered.records != records and records != listed

        empty = batch_verify(henon, RationalBoxSampler(5, 0)).records
        assert len(empty) == 0 and not empty and tuple(empty) == () and empty._blocks == []
        assert empty == batch_verify(henon, SKIPPED_ORBIT, 16).records != records
        for index in (0, -1):
            with pytest.raises(IndexError):
                empty[index]

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


class TestWordColumns:
    """A block's integer columns are machine words unless one of its
    records' largest height integer passes 63 bits, and lists of ints
    then.

    henon3 maps ``(0, 0, z)`` to ``(0, z, z^2)`` and back to ``(z, 0, 0)``,
    so the largest height of that record is ``z^2``."""

    BELOW = ((0, 0, 3_037_000_499), 1)  # z^2 has 63 bits
    ABOVE = ((0, 0, 3_037_000_500), 1)  # z^2 has 64 bits
    SMALL = ((1, 2, 3), 1)

    @staticmethod
    def column_types(report) -> list[set]:
        """The types of each stored block's three integer columns."""
        return [
            {type(block.coords), type(block.dens), type(block.heights)}
            for block in report.records._blocks
        ]

    # Blocks of 1 and 2 records put the 64-bit record in a block of its own
    # and in one with the 63-bit record; a block of 2048 holds all three.
    @pytest.mark.parametrize("chunk", [1, 2, CHUNK_RECORDS])
    def test_columns_widen_once_past_63_bits(self, henon, monkeypatch, chunk):
        monkeypatch.setattr(inequality, "CHUNK_RECORDS", chunk)
        words = batch_verify(henon, FixedSampler(self.BELOW, self.SMALL))
        wide = batch_verify(henon, FixedSampler(self.BELOW, self.ABOVE, self.SMALL))
        assert max(wide.records[0].height_integers) == 3_037_000_499**2 < 2**63
        assert max(wide.records[1].height_integers) == 3_037_000_500**2 >= 2**63
        # Only the block that holds the 64-bit record has list columns.
        assert self.column_types(words) == [{array}] * (1 if chunk > 1 else 2)
        assert self.column_types(wide) == {
            1: [{array}, {list}, {array}],
            2: [{list}, {array}],
            CHUNK_RECORDS: [{list}],
        }[chunk]
        assert self.column_types(batch_verify(henon, FixedSampler(self.BELOW))) == [{array}]
        assert self.column_types(batch_verify(henon, FixedSampler(self.ABOVE))) == [{list}]

        for report in (words, wide):
            assert_records_match_fraction_oracle(henon, report)
            TestReportWriters.assert_writers_match_reference(report)
            for record in report.records:
                assert {type(v) for v in (*record.nums, record.den, *record.height_integers)} == {int}

        # Records compare by content, whatever the column types: blocks of
        # 1 keep the 63-bit record in machine words, which a block of 2 or
        # 2048 holds in lists.
        monkeypatch.setattr(inequality, "CHUNK_RECORDS", 1)
        split = batch_verify(henon, FixedSampler(self.BELOW, self.ABOVE, self.SMALL))
        assert split.records == wide.records != words.records
        assert tuple(wide.records)[0::2] == tuple(words.records)


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

    @pytest.mark.parametrize(
        "sampler, bit_budget",
        [
            (BoxSampler(4), DEFAULT_BIT_BUDGET),
            (RandomRationalSampler(300, 50, 20, seed=3), DEFAULT_BIT_BUDGET),
            (OrbitSampler(((Fraction(1), Fraction(1), Fraction(1)),), 14), DEFAULT_BIT_BUDGET),
            (
                CompositeSampler(
                    (OrbitSampler(((Fraction(1), Fraction(1), Fraction(1)),), 14), BoxSampler(1))
                ),
                DEFAULT_BIT_BUDGET,
            ),
        ],
        ids=["box", "random", "orbit-past-4300-digits", "hex-and-decimal-in-one-chunk"],
    )
    def test_writers_match_reference_across_small_chunks(
        self, henon, monkeypatch, sampler, bit_budget
    ):
        # Blocks of 7 records put equal heights in different chunks, each
        # with its own memo of log texts.
        monkeypatch.setattr(inequality, "CHUNK_RECORDS", 7)
        report = batch_verify(henon, sampler, bit_budget)
        assert max(len(block.dens) for block in report.records._blocks) == 7
        heights = [h for r in report.records for h in r.height_integers]
        assert len(set(heights)) < len(heights)
        if isinstance(sampler, CompositeSampler):
            # The orbit's last record, written in hex, shares its chunk
            # with records written in decimal.
            decimal = [max(r.height_integers) < DECIMAL_LIMIT for r in report.records]
            assert decimal[14:21] == [False] + [True] * 6
        self.assert_writers_match_reference(report)

    def test_writers_pick_the_point_rule_per_chunk(self, henon, monkeypatch):
        # Blocks of 11 records over box:1 (27 integer points) then
        # rationals:2:2, whose sixth point (0, 0, 1/2) is record 32: two
        # blocks of integer points, one whose denominators are all 1 but
        # the last, then blocks with rational points.  Only a block whose
        # every denominator is 1 takes the joined coordinate texts.
        monkeypatch.setattr(inequality, "CHUNK_RECORDS", 11)
        sampler = CompositeSampler((BoxSampler(1), RationalBoxSampler(2, 2)))
        report = batch_verify(henon, sampler)
        blocks = report.records._blocks
        chunks = [list(block.dens) for block in blocks]
        assert chunks[0] == chunks[1] == [1] * 11
        assert chunks[2] == [1] * 10 + [2]
        assert len(chunks) == 34 and all(max(chunk) > 1 for chunk in chunks[3:])
        assert all(type(block.dens) is array for block in blocks)
        self.assert_writers_match_reference(report)

    def test_writers_format_each_height_log_once_per_chunk(self, henon, monkeypatch):
        # One process: a forked worker's calls would not be counted here.
        monkeypatch.setattr(kernel, "_fork_allowed", lambda: False)
        report = batch_verify(henon, BoxSampler(9))  # 6,859 records, 4 blocks
        blocks = report.records._blocks
        assert len(blocks) == 4
        per_chunk = sum(len(set(block.heights)) for block in blocks)
        distinct = len({h for r in report.records for h in r.height_integers})
        # A repeated height is formatted once per block, and a height in two
        # blocks is formatted in both: the memo does not outlive its block.
        assert distinct < per_chunk < 3 * len(report.records)

        calls = []
        original = inequality.log
        monkeypatch.setattr(inequality, "log", lambda x: calls.append(x) or original(x))
        report.write_json(io.StringIO(), 0)
        assert len(calls) == per_chunk
        calls.clear()
        report.write_csv(io.StringIO())
        assert len(calls) == per_chunk
