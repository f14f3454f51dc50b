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
written, not stored.  A report keeps its records as the blocks that
``batch_verify`` evaluated (``DeltaRecords``): each block of
``CHUNK_RECORDS`` sample points that keeps a record gives one
``_Block``, with the coordinates of its records in one flat column, the
denominators in another, the three height integers of every record in a
third and delta in an ``array('d')``.  A block that keeps no record is
not stored.

The word rule: a block's three integer columns are machine words,
``array('q')``, when its largest height integer has at most
``WORD_BITS`` = 63 bits, and lists of Python ints otherwise.  The rule is
applied where a block is built, in the process that evaluates it.  A
record's largest height bounds every integer of the record, since a
canonical point's coordinates and denominator never exceed its height,
so one comparison per block decides its three columns.  Box and rational
samples stay in machine words, and a deep orbit widens only the blocks
that hold its deep points.  A ``DeltaRecord`` is built only when a record
is read, and it holds plain ints either way.  A box:20 report retains
about 65 bytes per record and a random:60000:50:20 one about 66, against
about 110 and 240 with lists of Python ints.

Verification PASSES when the running minimum stabilizes across nested
samples.  The rule is fixed: checkpoints fall at ``WARMUP`` = 64 kept
points and at every 4x growth past it, plus one at the end of the sample,
and the minimum must move by less than ``SLACK`` = 0.05 between the last
two.  A sample with fewer than two checkpoints (at most ``WARMUP`` kept
points) FAILS with a note that the rule was not evaluated, and so does a
sample that keeps no point: a verdict that was never evaluated is no
PASS.

``batch_verify`` works in blocks of ``CHUNK_RECORDS`` sample points, and
the two report writers over the blocks that it kept.  ``_in_order`` runs
the blocks.  This process runs block 0; if a second block exists, the
platform has ``os.fork`` and ``os.sched_getaffinity``, the process may
run on at least two CPUs and no other Python thread runs
(``_fork_allowed``), it forks exactly one worker.  The worker runs blocks
1, 3, 5, ... and sends each result back pickled over a pipe, and this
process runs blocks 2, 4, ... and takes the results in block order.
Otherwise every block runs here, one after the other.  Both processes
walk the same block stream, which the fork copies with the sampler's
state (its RNG too), so a block's points are the same in both.  Each
process packs the blocks that it evaluates: a block of ``batch_verify``
gives its finished ``_Block`` (None when it kept no record) and its skip
count, so the worker sends finished blocks.  This process keeps each
block as it arrives and folds the running minimum, the first point that
reaches it and the checkpoints over the deltas in sample order.  So the
records, verdicts and notes are those of one process, and so is the
first error: a worker's exception is raised here in its block's turn.
A writer's result is one block's text, and only this process writes to
the handle.  The worker always ends by ``os._exit``: it never flushes
the buffered ``stdout`` or ``--out`` handle that it inherited, and never
runs exit handlers.  On a 2-vCPU x86_64 VM (CPython 3.11) this took the
wide-rational benchmark's ``wall_ref`` from 10.1 to 7.7, the median of
ten pairs.  Kernel calls and spans counted in this process (a wrapped
``kernel`` function, a tracer) see only the blocks that it ran.

``DeltaReport.write_json`` and ``write_csv`` write a report a block at a
time, at most ``CHUNK_RECORDS`` records, each record filled into one
fixed template per format.  Their bytes equal ``json.dumps`` (compact,
key-sorted) over ``to_json_dict`` and ``csv.writer`` over
``to_csv_rows``, the readable reference layouts; the tests hold them to
that.  Both take a block's fields from one builder, ``_text_columns``,
which turns the block's record columns into eight field columns (point
texts, the three height integers, their three log texts, delta) that
each writer zips in its own field order.  No ``DeltaRecord`` is built
while a report is written.  An integer of more than 4,300 digits is
written as exact hex text (``parsing.report_int``).  The column type
decides once per block whether that rule is needed: machine-word columns
hold integers below 2^63, always decimal, so only a block with list
columns applies the rule integer by integer.  A machine-word block whose
denominators are all 1 gets its point texts from one ``str`` map over
its coordinates, joined ``n`` at a time; every other block formats each
point in lowest terms (``parsing.format_raw_point``).  The builder
formats the log text of each distinct height integer of the block once,
into a memo dropped with the block: box samples repeat heights (of
box:20's 206,763 height integers about 55,000 are distinct within their
blocks), and the memo stays as small as a block whatever the size of
the report.  The CSV template quotes the point, as ``csv.writer`` does
for text with a comma: every point of a report has at least two
coordinates, since ``batch_verify`` decides regularity, which refuses
dimension 1.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import threading
from array import array
from bisect import bisect_right
from collections import deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log
from operator import eq, index as as_index
from typing import Iterator, NamedTuple, NoReturn

from . import kernel
from .dynamics import DEFAULT_BIT_BUDGET, AffineAutomorphism, InputError, RawPoint, is_regular
from .parsing import format_point, format_raw_point, report_int

Point = tuple[Fraction, ...]

# The stabilization rule of the module docstring.
SLACK = 0.05
WARMUP = 64

# The word rule of the module docstring.
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


class _Block(NamedTuple):
    """The records that one block of ``batch_verify`` kept, column-wise:
    the coordinates, ``n`` per record; the denominators; the height
    integers H(P), H(fP) and H(f^{-1}P), three per record; and delta.  The
    three integer columns are all ``array('q')`` or all lists, by the word
    rule of the module docstring."""

    n: int
    coords: array | list
    dens: array | list
    heights: array | list
    deltas: array

    def records(self) -> Iterator[DeltaRecord]:
        """The block's records, each built as it is read."""
        coords = iter(self.coords)
        heights = iter(self.heights)
        # zip draws from each iterator in argument order: n coordinates
        # make one nums tuple, and three heights fill the three fields.
        nums = zip(*[coords] * self.n)
        rows = zip(nums, self.dens, heights, heights, heights, self.deltas)
        return itertools.starmap(DeltaRecord, rows)


class DeltaRecords:
    """The records of a report, in sample order: the non-empty blocks that
    ``batch_verify`` kept (module docstring).  A ``DeltaRecord`` is built
    only when a record is read, by iteration or by an integer index; the
    report writers read the blocks.  Two record sequences compare equal
    when their records do, whatever their blocks."""

    __slots__ = ("_blocks", "_starts")

    def __init__(self, blocks: list[_Block]):
        self._blocks = blocks
        # The index of each block's first record, then the record count.
        self._starts = list(itertools.accumulate((len(b.dens) for b in blocks), initial=0))

    def __len__(self) -> int:
        return self._starts[-1]

    def __iter__(self) -> Iterator[DeltaRecord]:
        return itertools.chain.from_iterable(block.records() for block in self._blocks)

    def __getitem__(self, index) -> DeltaRecord:
        i = as_index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("record index out of range")
        b = bisect_right(self._starts, i) - 1
        n, coords, dens, heights, deltas = self._blocks[b]
        i -= self._starts[b]
        return DeltaRecord(
            tuple(coords[i * n : i * n + n]), dens[i], *heights[3 * i : 3 * i + 3], deltas[i]
        )

    def __eq__(self, other):
        if not isinstance(other, DeltaRecords):
            return NotImplemented
        # Record by record: an array column never equals a list column.
        return len(self) == len(other) and all(map(eq, self, other))


# -- blocks on two processes -------------------------------------------------


def _fork_allowed() -> bool:
    """Whether ``_in_order`` may fork its worker: the platform has
    ``os.fork`` and ``os.sched_getaffinity``, this process may run on two
    CPUs or more, and no other Python thread runs (a fork copies only the
    calling thread)."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def _in_order(blocks: Iterable, work: Callable) -> Iterator:
    """Yield ``work(block)`` for each of ``blocks``, in order.

    This process runs block 0.  If a second block exists and
    ``_fork_allowed()``, one forked ``_Worker`` runs blocks 1, 3, 5, ...
    while this process runs blocks 2, 4, ..., and every result is yielded
    in block order.  Both processes draw every block from ``blocks``, whose
    state the fork copies, so the stream must give the same blocks in
    both.  The first error in block order is raised, as one process would
    raise it.  However the generator ends (exhausted, failed or closed by
    its consumer), the worker is closed and reaped.  No result is held
    here once it is yielded.
    """
    blocks = iter(blocks)
    worker = None
    try:
        for index, block in enumerate(blocks):
            if index == 1 and _fork_allowed():
                worker = _Worker(itertools.chain((block,), blocks), work)
            yield work(block) if worker is None or index % 2 == 0 else worker.receive()
    finally:
        if worker is not None:
            worker.close()


class _Worker:
    """The one forked process of ``_in_order``.  It runs every other block
    of its stream, from the first, and sends each result back pickled over
    a pipe; an exception is pickled and sent in place of its block's
    result, and ends the worker.  The worker always ends by ``os._exit``,
    so it never flushes a buffer or runs an exit handler inherited from
    this process."""

    def __init__(self, blocks: Iterator, work: Callable):
        read_end, write_end = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            raise
        if self.pid == 0:
            os.close(read_end)
            _work_odd_blocks(blocks, work, write_end)
        os.close(write_end)
        self.results = os.fdopen(read_end, "rb")
        self.status: int | None = None

    def receive(self):
        """The result of the worker's next block; its exception is raised
        here, and a worker that ended without sending one raises
        ``RuntimeError`` with its exit status."""
        import pickle  # on this path only: the import adds ~3 ms to every start

        try:
            done, value = pickle.load(self.results)
        except (EOFError, pickle.UnpicklingError):
            self.close()
            raise RuntimeError(
                f"the inequality worker ended before sending a block, exit status {self.status}"
            ) from None
        if not done:
            raise value
        return value

    def close(self) -> None:
        """Close the read end, so that a worker blocked on a write gets
        ``EPIPE``, then reap the worker.  A second call does nothing."""
        if self.status is None:
            self.results.close()
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


def _work_odd_blocks(blocks: Iterator, work: Callable, fd: int) -> NoReturn:
    """The body of a ``_Worker``: run every other block of ``blocks``,
    from the first, and write each result to ``fd`` as a pickled pair
    ``(True, result)``; on an exception, write ``(False, exception)`` and
    stop.  Never returns: the process ends by ``os._exit``."""
    import pickle

    status = 1
    try:
        with os.fdopen(fd, "wb") as results:
            try:
                for own, block in zip(itertools.cycle((True, False)), blocks):
                    if own:
                        pickle.dump((True, work(block)), results)
                        results.flush()
            except Exception as error:  # the parent raises it in its turn
                pickle.dump((False, error), results)
        status = 0
    finally:
        os._exit(status)


# -- reports ---------------------------------------------------------------


# One record of each report format.  Each writer zips the columns of
# ``_text_columns`` in its own field order: the CSV template in CSV column
# order, the JSON template in its key-sorted order.  The three logs arrive
# as ``repr(log(H))`` and are filled in with ``%s``; delta is filled in
# with ``%r``.  ``repr`` of a float is ``float.__repr__``, which the json C
# encoder and csv.writer both use.  A block is filled by one ``%`` over the
# template repeated once per record, with the records' fields in one flat
# tuple: on box:20 that formatted the blocks 7-10% faster than one ``%``
# per record (in process, 15 interleaved runs).
_JSON_RECORD = (
    '{"delta":%r,"h_forward":%s,"h_inverse":%s,"h_point":%s,'
    '"height_integers":[%s,%s,%s],"point":"%s"}'
)
_CSV_RECORD = '"%s",%s,%s,%s,%s,%s,%s,%r\n'

# Sample points per block: bounded blocks keep the whole report text out
# of memory, and the handle needs only ``write``.
CHUNK_RECORDS = 2048


def _csv_text(block: _Block) -> str:
    """The CSV text of a block of records."""
    fields = itertools.chain.from_iterable(zip(*_text_columns(block, report_int)))
    return _CSV_RECORD * len(block.dens) % tuple(fields)


def _json_text(block: _Block) -> str:
    """The JSON text of a block of records, comma-separated."""
    point, H_p, H_f, H_i, h_p, h_f, h_i, delta = _text_columns(
        block, lambda h: json.dumps(report_int(h))
    )
    fields = itertools.chain.from_iterable(zip(delta, h_f, h_i, h_p, H_p, H_f, H_i, point))
    return ",".join([_JSON_RECORD] * len(block.dens)) % tuple(fields)


def _text_columns(block: _Block, int_text) -> tuple:
    """The eight field columns of ``block`` in CSV column order, as
    iterables: point texts, the height integers H(P), H(fP) and
    H(f^{-1}P), their log texts and delta.

    Machine-word columns hold integers below
    2^63 < ``parsing.DECIMAL_LIMIT``, so their integers are written in
    decimal as they stand.  In list columns every height integer goes
    through ``int_text`` and every point through the ``report_int`` rule
    of ``format_raw_point``.  The module docstring gives the rules.
    """
    n, coords, dens, heights, deltas = block
    words = type(heights) is array
    if words and dens.count(1) == len(dens):
        # One iterator n times over: zip takes n coordinates per point.
        points = map(",".join, zip(*[map(str, coords)] * n))
    else:
        nums = zip(*[iter(coords)] * n)
        points = map(format_raw_point, nums, dens, itertools.repeat(words))
    # The memo of log texts is filled in place: a set of the heights and
    # then a dict built from it would hold both at once.
    texts = dict.fromkeys(heights)
    for h in texts:
        texts[h] = repr(log(h))
    integers = [heights[0::3], heights[1::3], heights[2::3]]
    logs = [map(texts.__getitem__, column) for column in integers]
    if not words:
        integers = [map(int_text, column) for column in integers]
    return (points, *integers, *logs, deltas)


@dataclass(frozen=True)
class DeltaReport:
    """Sample-wide report: records, lower envelope, stabilization verdict.

    ``records`` is a ``DeltaRecords``, which keeps the blocks that
    ``batch_verify`` evaluated and builds each ``DeltaRecord`` when it is
    read.  ``argmin`` is the sampled point's ``(nums, den)`` form."""

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
        for text in _in_order(self.records._blocks, _json_text):
            handle.write(separator + text)
            separator = ","
            del text  # not held while the next block is formatted
        handle.write("]" + after + "\n")

    def write_csv(self, handle) -> None:
        """Write ``to_csv_rows()`` to ``handle`` as ``csv.writer`` would,
        with ``"\n"`` line ends, each record filled into a fixed template."""
        handle.write(",".join(self.CSV_HEADER) + "\n")
        for text in _in_order(self.records._blocks, _csv_text):
            handle.write(text)
            del text  # not held while the next block is formatted


# -- batch verification ----------------------------------------------------


def _point_blocks(points: Iterable[RawPoint]) -> Iterator[Iterator[RawPoint]]:
    """``points`` in blocks of ``CHUNK_RECORDS``, each an iterator over the
    one stream.  Drawing a block first drains what is left of the one
    before, so a process that skips a block still moves the stream past
    it, and no block is held whole."""
    points = iter(points)
    for first in points:
        block = itertools.chain((first,), itertools.islice(points, CHUNK_RECORDS - 1))
        yield block
        deque(block, maxlen=0)


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
    ``kernel.step`` over the two compiled maps fetched once.  The points
    run in blocks, on two processes when ``_fork_allowed()`` (module
    docstring).  The kernel functions are called through the module, so
    that a wrapped one sees every call of the blocks that its process
    runs: every call when the fork is not allowed.
    """
    regularity = is_regular(automorphism).verdict
    n = automorphism.n
    forward_map = automorphism.compiled("forward")
    inverse_map = automorphism.compiled("inverse")
    d, d_inv = automorphism.degrees
    weight = 1.0 + 1.0 / (d * d_inv)

    def evaluate(block: Iterator[RawPoint]) -> tuple[_Block | None, int]:
        """The ``_Block`` of the records that ``block`` keeps, its integer
        columns by the word rule, or None when it keeps none; and the
        number of points skipped."""
        coords, dens, heights = [], [], []
        deltas = array("d")
        skipped = 0
        for raw in block:
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
            coords += nums
            dens.append(den)
            heights += height, h_forward, h_inverse
            deltas.append(log(h_forward) / d + log(h_inverse) / d_inv - weight * log(height))
        if not deltas:
            return None, skipped
        if max(heights).bit_length() <= WORD_BITS:
            coords, dens, heights = array("q", coords), array("q", dens), array("q", heights)
        return _Block(n, coords, dens, heights, deltas), skipped

    # The blocks fold in sample order, each kept as it arrives, finished
    # by the process that evaluated it: the running minimum, its first
    # index and the checkpoints are read off its deltas (module docstring).
    points = _point_blocks(sampler.points(automorphism, bit_budget))
    blocks: list[_Block] = []
    kept = skipped = 0
    running_min = float("inf")
    first_min = -1
    checkpoints: list[tuple[int, float]] = []
    next_checkpoint = WARMUP
    for block, block_skipped in _in_order(points, evaluate):
        skipped += block_skipped
        if block is None:
            continue
        blocks.append(block)
        block_deltas = block.deltas
        start = kept
        kept += len(block_deltas)
        while next_checkpoint <= kept:
            prefix = block_deltas[: next_checkpoint - start]
            checkpoints.append((next_checkpoint, min(running_min, min(prefix))))
            next_checkpoint *= 4
        if min(block_deltas) < running_min:
            running_min = min(block_deltas)
            first_min = start + block_deltas.index(running_min)
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

    records = DeltaRecords(blocks)
    return DeltaReport(
        map_id=automorphism.map_id,
        degrees=automorphism.degrees,
        sample=sampler.describe(),
        regularity=regularity,
        records=records,
        min_delta=running_min if kept else float("nan"),
        argmin=records[first_min].point if kept else None,
        skipped=skipped,
        checkpoints=tuple(checkpoints),
        stabilized=stabilized,
        stabilization_note=note,
    )
