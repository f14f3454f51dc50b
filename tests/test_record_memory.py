"""A δ record keeps exact data only: the point's ``(nums, den)`` form, its
three height integers and δ.  The logs of the heights are derived from the
integers when a report is written, so a report holds no float per record
but δ, and it keeps its records column-wise, in machine words while they
fit.  Writing a report holds one
chunk of records at a time, so the writers' memory does not grow with the
report."""

import csv
import gc
import io
import json
import math
import tracemalloc
from fractions import Fraction

import pytest

from affdyn.inequality import (
    BoxSampler,
    DeltaRecord,
    DeltaReport,
    OrbitSampler,
    RandomRationalSampler,
    RationalBoxSampler,
    batch_verify,
)

# Bytes that the report of batch_verify retains per record, as tracemalloc
# counts them on 64-bit CPython 3.11.  The records are kept column-wise,
# and while every height fits in 63 bits the coordinates, denominators and
# height integers are machine words in arrays, beside delta in an array of
# doubles: 8 bytes per integer and per delta, plus the arrays' spare
# capacity.  That is about 75 bytes for a box:6 record and 70 for a
# rationals:4:3 one, against about 85 and 101 with lists of int objects.
RETAINED_BYTES_PER_RECORD = 90
# A random:3000:50:20 record, about 96 bytes, against about 269 with lists
# of int objects.  About 23 of the 96 are pairs of the sampler's value
# table that CPython's tuple free list keeps and tracemalloc counts.
RANDOM_RETAINED_BYTES_PER_RECORD = 120


@pytest.mark.parametrize(
    "sampler, count, bound",
    [
        (BoxSampler(6), 13**3, RETAINED_BYTES_PER_RECORD),
        (RationalBoxSampler(4, 3), 19**3, RETAINED_BYTES_PER_RECORD),
        (RandomRationalSampler(3000, 50, 20, 1), 3000, RANDOM_RETAINED_BYTES_PER_RECORD),
    ],
    ids=["box", "rationals", "random"],
)
def test_records_retain_few_bytes(henon, sampler, count, bound):
    batch_verify(henon, sampler)  # warm-up: regularity and compiled maps
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = batch_verify(henon, sampler)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(report.records) == count
    assert retained / len(report.records) < bound


def test_record_fields_are_exact_integers_and_delta(henon):
    assert DeltaRecord._fields == ("nums", "den", "H_point", "H_forward", "H_inverse", "delta")
    report = batch_verify(henon, RationalBoxSampler(2, 2))
    for record in report.records:
        nums, den, *heights, delta = record
        assert {type(v) for v in (*nums, den, *heights)} == {int}
        assert type(delta) is float
        assert record.point == (nums, den)
        assert record.height_integers == tuple(heights)


def report_integer(value) -> int:
    """A height integer as a report writes it: decimal, or hex text."""
    return value if isinstance(value, int) else int(value, 0)


@pytest.mark.parametrize(
    "sampler",
    [RationalBoxSampler(2, 2), OrbitSampler(((Fraction(1),) * 3,), 14)],
    ids=["rationals", "orbit-past-4300-digits"],
)
def test_written_logs_are_logs_of_the_height_integers(henon, sampler):
    report = batch_verify(henon, sampler)
    written = io.StringIO()
    report.write_json(written, 0)
    for record in json.loads(written.getvalue())["records"]:
        heights = map(report_integer, record["height_integers"])
        logs = [record[key] for key in ("h_point", "h_forward", "h_inverse")]
        assert logs == list(map(math.log, heights))

    written = io.StringIO()
    report.write_csv(written)
    limit = csv.field_size_limit(1 << 30)  # a deep point is one long field
    try:
        rows = list(csv.reader(io.StringIO(written.getvalue())))
    finally:
        csv.field_size_limit(limit)
    assert len(rows) == len(report.records) + 1
    for row in rows[1:]:
        heights = (int(text, 0) for text in row[1:4])
        assert list(map(float, row[4:7])) == list(map(math.log, heights))


class Discard:
    def write(self, text):
        pass


def writer_peak(writer, report, *args) -> int:
    """Bytes that ``writer(report, sink, *args)`` allocates at its peak,
    for a sink that discards what it is given."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        writer(report, Discard(), *args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "writer, args",
    [(DeltaReport.write_csv, ()), (DeltaReport.write_json, (0,))],
    ids=["csv", "json"],
)
def test_writer_memory_does_not_grow_with_the_report(henon, writer, args):
    # The writers hold one chunk of record texts and its memo of log texts
    # at a time, so a report four times larger takes no more memory to
    # write; a memo that outlived its chunk would grow with the report.
    small = batch_verify(henon, RandomRationalSampler(6_000, 50, 20))
    large = batch_verify(henon, RandomRationalSampler(24_000, 50, 20))
    growth = writer_peak(writer, large, *args) - writer_peak(writer, small, *args)
    assert growth <= 64 * 1024
