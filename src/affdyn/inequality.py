"""Empirical verification of height inequalities over point samples.

For an automorphism pair of degrees ``(d, d')`` the pointwise statistic is

    delta(P) = (1/d) h(f P) + (1/d') h(f^{-1} P) - (1 + 1/(d d')) h(P),

whose lower envelope over growing samples estimates the uniform constant
in the two-sided height inequality.  It is the one statistic computed: it
is an exact rational combination of logs of integers, and the stored
per-point height integers make every record recomputable (so they also
give any other combination of the three heights).

A sampler is any object with ``describe()``, a JSON-ready description of
the sample, and ``points(automorphism, bit_budget)``, an iterator over
affine rational points in a fixed order.  Each point is a ``RawPoint``, the
kernel's canonical ``(nums, den)`` form: integers with ``den > 0`` and
``gcd(*nums, den) == 1``.  ``batch_verify`` rejects any other form.  Most
samplers use only the dimension ``automorphism.n``; orbit samplers iterate
the map under the budget.  The rational samplers draw coordinates as
reduced integer pairs ``(a, q)`` and build each point from them directly
(``kernel.from_pairs``: ``den = lcm(q_i)``), with no ``Fraction``.
Records and reports keep that form; a point becomes text only when a
report is encoded.  A record is flat exact data, the point's ``nums``
and ``den``, its three height integers and delta; the logs of the
heights (the Weil heights) are taken from the integers when a report is
written, not stored.  A report keeps its records column-wise
(``DeltaRecords``): the coordinates of every record in one flat column,
the denominators in another, the three height integers of every record
in a third and delta in an ``array('d')``.  The three integer columns
start as machine words, ``array('q')``.  ``batch_verify`` stages the
integers of each record in lists and moves them into the columns every
``CHUNK_RECORDS`` records and at the end.  Before a move it compares the
largest staged height integer with ``WORD_BITS`` = 63 bits; a record's
largest height bounds every integer of the record, since a canonical
point's coordinates and denominator never exceed its height.  So the
first record past 63 bits turns the three columns into lists of Python
ints, once, before it is moved, and every later record goes there too;
the columns never narrow again.  Box and rational samples stay in
machine words, and a deep orbit widens them.  A ``DeltaRecord`` is
built only when a record is read, and it holds plain ints either way.  A
box:20 report retains about 65 bytes per record and a random:60000:50:20
one about 67, against about 110 and 240 with lists of Python ints.

Verification PASSES when the running minimum stabilizes across nested
samples.  The rule is fixed: checkpoints fall at ``WARMUP`` = 64 kept
points and at every 4x growth past it, plus one at the end of the sample,
and the minimum must move by less than ``SLACK`` = 0.05 between the last
two.  A sample with fewer than two checkpoints (at most ``WARMUP`` kept
points) FAILS with a note that the rule was not evaluated, and so does a
sample that keeps no point: a verdict that was never evaluated is no
PASS.

Per-point evaluations are independent (parallelizable); report assembly
is a single sequential reduction, which keeps record order deterministic.

``DeltaReport.write_json`` and ``write_csv`` write a report record by
record, each record filled into one fixed template per format, in bounded
chunks of ``CHUNK_RECORDS`` records.  Their bytes equal ``json.dumps``
(compact, key-sorted) over ``to_json_dict`` and ``csv.writer`` over
``to_csv_rows``, the readable reference layouts; the tests hold them to
that.  Both take a record's fields from one generator, ``_record_fields``.
Within a chunk it formats the log text of each distinct height integer
once, into a memo dropped with the chunk: box samples repeat heights (of
box:20's 206,763 height integers about 55,000 are distinct within their
chunks), and the memo stays as small as a chunk whatever the size of the
report.  No ``DeltaRecord`` is built while a report is written: the
writers read each chunk's columns.  The CSV template quotes the point,
as ``csv.writer`` does for text with a comma: every point of a report
has at least two coordinates, since ``batch_verify`` decides
regularity, which refuses dimension 1.  An integer of more than 4,300
digits is written as exact hex text (``parsing.report_int``); each
record decides from its three height integers whether it needs that
rule at all.
"""

from __future__ import annotations

import itertools
import json
import random
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log
from operator import index as as_index
from operator import itemgetter
from struct import pack
from typing import Iterator, NamedTuple

from . import kernel
from .dynamics import DEFAULT_BIT_BUDGET, AffineAutomorphism, InputError, RawPoint, is_regular
from .parsing import DECIMAL_LIMIT, format_point, format_raw_point, report_int

Point = tuple[Fraction, ...]

# The stabilization rule of the module docstring.
SLACK = 0.05
WARMUP = 64

# Bits of the largest magnitude that a record's integer columns hold as
# machine words (``array('q')``); see the module docstring.
WORD_BITS = 63


# -- samplers ------------------------------------------------------------


@dataclass(frozen=True)
class BoxSampler:
    """Integer points with ``|coords| <= bound``, enumerated by growing
    max-norm shells so that prefixes are nested boxes."""

    bound: int

    def __post_init__(self):
        if self.bound < 0:
            raise InputError(f"box bound must be non-negative, got {self.bound}")

    def describe(self) -> dict:
        return {"kind": "box", "bound": self.bound}

    def points(self, automorphism: AffineAutomorphism, bit_budget: int) -> Iterator[RawPoint]:
        n = automorphism.n
        yield (0,) * n, 1
        for shell in range(1, self.bound + 1):
            # Lexicographic order: the last coordinate is free once the
            # prefix touches the shell, else it must lie on the shell.
            full = range(-shell, shell + 1)
            ends = (-shell, shell)
            for prefix in itertools.product(full, repeat=n - 1):
                last = full if shell in prefix or -shell in prefix else ends
                for c in last:
                    yield prefix + (c,), 1


def _rational_values(num_bound: int, den_bound: int) -> list[tuple[int, int]]:
    """The reduced rationals ``a/q`` with ``|a| <= num_bound`` and
    ``1 <= q <= den_bound``, as ``(a, q)`` pairs ordered by denominator,
    then by absolute value, positive before negative.  Empty when no
    denominator or no numerator is allowed."""
    if num_bound < 0 or den_bound < 1:
        return []
    signed = [(a, -a) for a in range(1, num_bound + 1)]  # one int object each
    values = [(0, 1)]
    for q in range(1, den_bound + 1):
        for a, minus_a in signed:
            if gcd(a, q) == 1:
                values += ((a, q), (minus_a, q))
    return values


@dataclass(frozen=True)
class RationalBoxSampler:
    """Exhaustive reduced rationals with ``|numerator| <= num_bound`` and
    ``denominator <= den_bound`` in every coordinate."""

    num_bound: int = 5
    den_bound: int = 3

    def describe(self) -> dict:
        return {
            "kind": "rationals",
            "num_bound": self.num_bound,
            "den_bound": self.den_bound,
        }

    def points(self, automorphism: AffineAutomorphism, bit_budget: int) -> Iterator[RawPoint]:
        values = _rational_values(self.num_bound, self.den_bound)
        for pairs in itertools.product(values, repeat=automorphism.n):
            yield kernel.from_pairs(pairs)


@dataclass(frozen=True)
class RandomRationalSampler:
    """``count`` points whose coordinates are drawn uniformly, with a seeded
    ``random.Random``, from the values of ``RationalBoxSampler``.  Bounds
    that allow no value give no point.

    Each index into the ``N`` values is ``getrandbits(k)`` with ``k =
    N.bit_length()``, drawn again while it is ``N`` or more: the stream of
    ``random.choice``, which calls ``getrandbits`` the same way, without
    the Python-level calls of ``choice`` and ``_randbelow`` per coordinate."""

    count: int
    num_bound: int = 5
    den_bound: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.count < 0:
            raise InputError(f"random sampler count must be non-negative, got {self.count}")

    def describe(self) -> dict:
        return {
            "kind": "random",
            "count": self.count,
            "num_bound": self.num_bound,
            "den_bound": self.den_bound,
            "seed": report_int(self.seed),
        }

    def points(self, automorphism: AffineAutomorphism, bit_budget: int) -> Iterator[RawPoint]:
        n = automorphism.n
        getrandbits = random.Random(self.seed).getrandbits
        values = _rational_values(self.num_bound, self.den_bound)
        if not values:
            return
        size = len(values)
        bits = size.bit_length()
        for _ in range(self.count):
            pairs = []
            for _ in range(n):
                index = getrandbits(bits)
                while index >= size:
                    index = getrandbits(bits)
                pairs.append(values[index])
            yield kernel.from_pairs(pairs)


@dataclass(frozen=True)
class OrbitSampler:
    """Forward orbit segments of the given seed points."""

    seeds: tuple[Point, ...]
    depth: int

    def __post_init__(self):
        if self.depth < 0:
            raise InputError(f"orbit depth must be non-negative, got {self.depth}")

    def describe(self) -> dict:
        return {
            "kind": "orbit",
            "seeds": [format_point(p) for p in self.seeds],
            "depth": report_int(self.depth),
        }

    def points(self, automorphism: AffineAutomorphism, bit_budget: int) -> Iterator[RawPoint]:
        for seed in self.seeds:
            yield from automorphism.orbit(seed, self.depth, "forward", bit_budget).raw


@dataclass(frozen=True)
class CompositeSampler:
    """The points of each part in turn."""

    parts: tuple

    def describe(self) -> dict:
        return {"kind": "composite", "parts": [p.describe() for p in self.parts]}

    def points(self, automorphism: AffineAutomorphism, bit_budget: int) -> Iterator[RawPoint]:
        for part in self.parts:
            yield from part.points(automorphism, bit_budget)


# -- statistics ----------------------------------------------------------


class DeltaRecord(NamedTuple):
    """One sampled point: its ``(nums, den)`` form, its height integers
    H(P), H(fP) and H(f^{-1}P), and the statistic.

    A record holds exact data and ``delta`` only.  The logs of the three
    height integers, the Weil heights, are not stored: the report writers
    and reference layouts take them when they write.  A report holds one
    record per kept point, and a flat tuple of integers and one float is
    the least it can keep.
    """

    nums: tuple[int, ...]
    den: int
    H_point: int
    H_forward: int
    H_inverse: int
    delta: float

    @property
    def point(self) -> RawPoint:
        return self.nums, self.den

    @property
    def height_integers(self) -> tuple[int, int, int]:
        return self.H_point, self.H_forward, self.H_inverse


class DeltaRecords(Sequence):
    """The records of a report: a read-only sequence of ``DeltaRecord``,
    stored column-wise.

    The columns are the coordinates of every record in one flat column,
    ``n`` per record; the denominators; the height integers H(P), H(fP)
    and H(f^{-1}P) of every record in one flat column, three per record;
    and delta in an ``array('d')``.  A ``DeltaRecord`` is built only when
    a record is indexed or iterated; the report writers read the columns.

    The three integer columns are machine words (``array('q')``) while
    every record's largest height has at most ``WORD_BITS`` bits, and
    lists of Python ints from the first record that has more: the
    widening is one-way, and the module docstring gives the rule.  A
    box:20 record retains about 65 bytes and a random:60000:50:20 one
    about 67, against about 110 and 240 with list columns.

    Slices are ``DeltaRecords`` too: a contiguous slice keeps the column
    types, a stepped one has list columns.  Two sequences compare equal
    when their records do, whatever their column types.  Only
    ``batch_verify`` fills the columns.
    """

    __slots__ = ("_n", "_coords", "_dens", "_heights", "_deltas")

    def __init__(self, n: int, coords, dens, heights, deltas: array):
        # coords, dens and heights: all array('q') or all lists.
        self._n = n
        self._coords = coords
        self._dens = dens
        self._heights = heights
        self._deltas = deltas

    def __len__(self) -> int:
        return len(self._dens)

    def _rows(self) -> Iterator[tuple]:
        """Each record's fields as a plain tuple, in ``DeltaRecord`` order."""
        coords = iter(self._coords)
        heights = iter(self._heights)
        # zip draws from each iterator in argument order: n coordinates
        # make one nums tuple, and three heights fill the three fields.
        nums = zip(*[coords] * self._n)
        return zip(nums, self._dens, heights, heights, heights, self._deltas)

    def __iter__(self) -> Iterator[DeltaRecord]:
        return itertools.starmap(DeltaRecord, self._rows())

    def __getitem__(self, index):
        n = self._n
        if isinstance(index, slice):
            rows = range(len(self._dens))[index]
            if rows.step == 1:
                a, b = rows.start, rows.stop
                return DeltaRecords(
                    n,
                    self._coords[a * n : b * n],
                    self._dens[a:b],
                    self._heights[3 * a : 3 * b],
                    self._deltas[a:b],
                )
            coords, heights = self._coords, self._heights
            return DeltaRecords(
                n,
                [c for i in rows for c in coords[i * n : i * n + n]],
                [self._dens[i] for i in rows],
                [h for i in rows for h in heights[3 * i : 3 * i + 3]],
                array("d", [self._deltas[i] for i in rows]),
            )
        i = as_index(index)
        if i < 0:
            i += len(self._dens)
        if not 0 <= i < len(self._dens):
            raise IndexError("record index out of range")
        return DeltaRecord(
            tuple(self._coords[i * n : i * n + n]),
            self._dens[i],
            *self._heights[3 * i : 3 * i + 3],
            self._deltas[i],
        )

    def __eq__(self, other):
        if not isinstance(other, DeltaRecords):
            return NotImplemented
        # Row by row: an array column never equals a list column.
        return list(self._rows()) == list(other._rows())


# -- reports ---------------------------------------------------------------


# One record of each report format.  Both are filled from the fields of
# ``_record_fields``, the CSV template as they come and the JSON template
# in its key-sorted order (``_JSON_FIELDS``).  The three logs arrive as
# ``repr(log(H))`` and are filled in with ``%s``; delta is filled in with
# ``%r``.  ``repr`` of a float is ``float.__repr__``, which the json C
# encoder and csv.writer both use.
#
# Each record picks decimal or hex itself.  A record whose three height
# integers are below ``DECIMAL_LIMIT`` is written in decimal as it stands:
# a point's integers never exceed its height.  Any other record takes the
# ``report_int`` rule integer by integer.  The three comparisons per
# record keep the texts of box:20's CSV records at about 0.18 s, against
# 0.24 s with a ``report_int`` call per integer (in process, median of 15
# interleaved runs).
_JSON_RECORD = (
    '{"delta":%r,"h_forward":%s,"h_inverse":%s,"h_point":%s,'
    '"height_integers":[%s,%s,%s],"point":"%s"}'
)
_JSON_FIELDS = itemgetter(7, 5, 6, 4, 1, 2, 3, 0)
_CSV_RECORD = '"%s",%s,%s,%s,%s,%s,%s,%r\n'

# Records per write call: bounded chunks keep the whole report text out of
# memory, and the handle needs only ``write``.  ``batch_verify`` moves its
# staged integers into the record columns in chunks of the same size.
CHUNK_RECORDS = 2048


def _chunks(records: DeltaRecords) -> Iterator[DeltaRecords]:
    for start in range(0, len(records), CHUNK_RECORDS):
        yield records[start : start + CHUNK_RECORDS]


def _record_fields(chunk: DeltaRecords, int_text) -> Iterator[tuple]:
    """The fields of each record of ``chunk`` in CSV column order: point
    text, the three height integers (through ``int_text`` in a record
    that is not all decimal), their three log texts and delta.  They are
    read from the chunk's columns; no ``DeltaRecord`` is built.

    The log text of each distinct height integer is formatted once, into a
    dict dropped with the chunk.  The lookups are inline: a call per lookup
    costs as much as the memo saves.
    """
    texts = {}
    get = texts.get
    for nums, den, H_p, H_f, H_i, delta in chunk._rows():
        if (h_p := get(H_p)) is None:
            h_p = texts[H_p] = repr(log(H_p))
        if (h_f := get(H_f)) is None:
            h_f = texts[H_f] = repr(log(H_f))
        if (h_i := get(H_i)) is None:
            h_i = texts[H_i] = repr(log(H_i))
        if H_p < DECIMAL_LIMIT and H_f < DECIMAL_LIMIT and H_i < DECIMAL_LIMIT:
            yield format_raw_point(nums, den, True), H_p, H_f, H_i, h_p, h_f, h_i, delta
        else:
            point = format_raw_point(nums, den, False)
            yield point, int_text(H_p), int_text(H_f), int_text(H_i), h_p, h_f, h_i, delta


@dataclass(frozen=True)
class DeltaReport:
    """Sample-wide report: records, lower envelope, stabilization verdict.

    ``records`` is a ``DeltaRecords``, a read-only sequence that keeps the
    records column-wise, in machine words until a record needs more than
    63 bits (about 65 bytes per box:20 record), and builds each
    ``DeltaRecord`` when it is read.  ``argmin`` is the sampled
    point's ``(nums, den)`` form."""

    map_id: str
    degrees: tuple[int, int]
    sample: dict
    regularity: str
    records: DeltaRecords
    min_delta: float
    argmin: RawPoint | None
    skipped: int
    checkpoints: tuple[tuple[int, float], ...]
    stabilized: bool
    stabilization_note: str

    CSV_HEADER = [
        "point",
        "H_point",
        "H_forward",
        "H_inverse",
        "h_point",
        "h_forward",
        "h_inverse",
        "delta",
    ]

    def _summary(self) -> dict:
        """Every field of the JSON payload but ``records``."""
        return {
            "map_id": self.map_id,
            "degrees": list(self.degrees),
            "mode": "delta",
            "sample": self.sample,
            "regularity": self.regularity,
            "count": len(self.records),
            "skipped": self.skipped,
            "min_delta": self.min_delta if self.records else None,
            "argmin": format_raw_point(*self.argmin) if self.argmin is not None else None,
            "checkpoints": [[c, m] for c, m in self.checkpoints],
            "stabilized": self.stabilized,
            "stabilization_note": self.stabilization_note,
            "slack": SLACK,
            "warmup": WARMUP,
        }

    def to_json_dict(self) -> dict:
        """The JSON payload, the reference layout of ``write_json``;
        ``min_delta`` is None when no point was kept.  ``mode``, ``slack``
        and ``warmup`` record the fixed rule, so that the report layout
        stays the same."""
        return self._summary() | {
            "records": [
                {
                    "point": format_raw_point(*r.point),
                    "height_integers": [report_int(h) for h in r.height_integers],
                    "h_point": log(r.H_point),
                    "h_forward": log(r.H_forward),
                    "h_inverse": log(r.H_inverse),
                    "delta": r.delta,
                }
                for r in self.records
            ],
        }

    def to_csv_rows(self) -> Iterator[list]:
        """The CSV table, the reference layout of ``write_csv``."""
        yield self.CSV_HEADER
        for r in self.records:
            yield [
                format_raw_point(*r.point),
                *map(report_int, r.height_integers),
                *map(log, r.height_integers),
                r.delta,
            ]

    def write_json(self, handle, seed: int) -> None:
        """Write the report to ``handle`` as ``json.dumps`` would write
        ``to_json_dict() | {"seed": report_int(seed)}``, compact and
        key-sorted, plus a newline.

        The other fields are encoded once and split at ``"records":[]``:
        keys are sorted, and the fields before it hold no such key and
        escape every quote of their strings.  Each record is then filled
        into a fixed template.
        """
        summary = self._summary() | {"records": [], "seed": report_int(seed)}
        text = json.dumps(summary, sort_keys=True, separators=(",", ":"), allow_nan=False)
        before, _, after = text.partition('"records":[]')
        handle.write(before + '"records":[')
        separator = ""
        for chunk in _chunks(self.records):
            fields = _record_fields(chunk, lambda h: json.dumps(report_int(h)))
            handle.write(separator + ",".join([_JSON_RECORD % _JSON_FIELDS(f) for f in fields]))
            separator = ","
        handle.write("]" + after + "\n")

    def write_csv(self, handle) -> None:
        """Write ``to_csv_rows()`` to ``handle`` as ``csv.writer`` would,
        with ``"\n"`` line ends, each record filled into a fixed template."""
        handle.write(",".join(self.CSV_HEADER) + "\n")
        for chunk in _chunks(self.records):
            handle.write("".join([_CSV_RECORD % f for f in _record_fields(chunk, report_int)]))


# -- batch verification ----------------------------------------------------


def _move_staged(columns: tuple, staged: tuple) -> tuple:
    """Move the staged coordinates, denominators and height integers into
    the three integer columns, empty the stage, and return the columns.

    If a staged height has more than ``WORD_BITS`` bits, machine-word
    columns become lists first, for good: a record's largest height
    bounds all its integers.  A machine-word column takes the whole stage
    as one ``struct.pack``, which reads each int in C, where
    ``array.extend`` parses each item as a call argument.  Appending
    record by record to ``array('q')`` columns took about 600 ns per
    3-dimensional record, against 170 ns to lists (CPython 3.11, 2-vCPU
    x86_64 VM).
    """
    heights = staged[2]
    if type(columns[0]) is array and heights and max(heights).bit_length() > WORD_BITS:
        columns = tuple(column.tolist() for column in columns)
    for column, stage in zip(columns, staged):
        if type(column) is array:
            column.frombytes(pack(f"{len(stage)}q", *stage))
        else:
            column += stage
        stage.clear()
    return columns


def batch_verify(
    automorphism: AffineAutomorphism,
    sampler,
    bit_budget: int = DEFAULT_BIT_BUDGET,
) -> DeltaReport:
    """Evaluate delta over a deterministic sample and test whether its
    minimum has stabilized, by the rule of the module docstring.

    ``sampler`` follows the sampler protocol of the module docstring; a
    point that is not in canonical ``(nums, den)`` form, or that has the
    wrong number of coordinates, raises ``InputError`` (a ``ValueError``).

    Points whose exact evaluation exceeds the bit budget are skipped and
    counted.  The regularity verdict is decided and recorded in the report.

    Each point is stepped forward, then (if its image fits) backward, by
    ``kernel.step`` over the two compiled maps fetched once.  The kernel
    functions are called through the module, so that a wrapped one sees
    every call.
    """
    regularity = is_regular(automorphism).verdict
    n = automorphism.n
    forward_map = automorphism.compiled("forward")
    inverse_map = automorphism.compiled("inverse")
    d, d_inv = automorphism.degrees
    weight = 1.0 + 1.0 / (d * d_inv)

    # The integer columns, and each record's integers staged in lists
    # until CHUNK_RECORDS of them move into the columns (module docstring).
    columns = (array("q"), array("q"), array("q"))
    staged = staged_coords, staged_dens, staged_heights = [], [], []
    deltas = array("d")
    skipped = 0
    running_min = float("inf")
    argmin: RawPoint | None = None
    checkpoints: list[tuple[int, float]] = []
    next_checkpoint = WARMUP
    for raw in sampler.points(automorphism, bit_budget):
        nums, den = raw
        if len(nums) != n:
            raise InputError(
                f"sampler point {raw!r} has {len(nums)} coordinates, expected {n}"
            )
        if den <= 0 or gcd(den, *nums) != 1:
            raise InputError(f"sampler point {raw!r} is not in canonical (nums, den) form")
        height = kernel.height_integer(nums, den)
        bits = height.bit_length()
        if bits > bit_budget:
            skipped += 1
            continue
        _, h_forward = kernel.step(forward_map, nums, den, bits, bit_budget)
        if h_forward is None:
            skipped += 1
            continue
        _, h_inverse = kernel.step(inverse_map, nums, den, bits, bit_budget)
        if h_inverse is None:
            skipped += 1
            continue
        delta = log(h_forward) / d + log(h_inverse) / d_inv - weight * log(height)
        staged_coords += nums
        staged_dens.append(den)
        staged_heights += height, h_forward, h_inverse
        deltas.append(delta)
        if len(staged_dens) == CHUNK_RECORDS:
            columns = _move_staged(columns, staged)
        if delta < running_min:
            running_min = delta
            argmin = raw
        if len(deltas) == next_checkpoint:
            checkpoints.append((next_checkpoint, running_min))
            next_checkpoint *= 4
    columns = _move_staged(columns, staged)
    kept = len(deltas)
    if kept and (not checkpoints or checkpoints[-1][0] != kept):
        checkpoints.append((kept, running_min))

    stabilized = False
    if not kept:
        note = "the sample kept no point; nothing to verify"
    elif kept < WARMUP:
        note = "sample below warmup; stabilization not evaluated"
    elif len(checkpoints) == 1:
        note = "one checkpoint, at warmup; stabilization not evaluated"
    else:
        drift = abs(checkpoints[-1][1] - checkpoints[-2][1])
        stabilized = drift < SLACK
        note = f"min moved {drift:.6g} between the last two checkpoints"

    return DeltaReport(
        map_id=automorphism.map_id,
        degrees=automorphism.degrees,
        sample=sampler.describe(),
        regularity=regularity,
        records=DeltaRecords(n, *columns, deltas),
        min_delta=running_min if kept else float("nan"),
        argmin=argmin,
        skipped=skipped,
        checkpoints=tuple(checkpoints),
        stabilized=stabilized,
        stabilization_note=note,
    )
