"""Empirical verification of height inequalities over point samples.

For an automorphism pair of degrees ``(d, d')`` the pointwise statistic is

    delta(P) = (1/d) h(f P) + (1/d') h(f^{-1} P) - (1 + 1/(d d')) h(P),

whose lower envelope over growing samples estimates the uniform constant
in the two-sided height inequality.  The Silverman statistic
``(1/d) h(f P) + (1/d') h(f^{-1} P) - h(P)`` drops the mixed term, so it
exceeds delta by exactly ``h(P) / (d d')``.  Both are exact rational
combinations of logs of integers; the stored per-point height integers make
every record recomputable.

A sampler is any object with ``describe()``, a JSON-ready description of
the sample, and ``points(automorphism, bit_budget)``, an iterator over
affine rational points in a fixed order.  Each point is a ``RawPoint``, the
kernel's canonical ``(nums, den)`` form: integers with ``den > 0`` and
``gcd(*nums, den) == 1``.  ``batch_verify`` rejects any other form.  Most
samplers use only the dimension ``automorphism.n``; orbit samplers iterate
the map under the budget.  Records and reports keep that form; a point
becomes text only when a report is encoded.

Verification PASSES when the running minimum stabilizes across nested
samples: past a warmup size, growing the sample by 4x must move the
minimum by less than the configured slack.  A sample that keeps no point
FAILS.

Per-point evaluations are independent (parallelizable); report assembly
is a single sequential reduction, which keeps record order deterministic.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, log
from typing import Iterator, Sequence

from . import kernel
from .dynamics import DEFAULT_BIT_BUDGET, AffineAutomorphism, RawPoint, is_regular
from .parsing import format_point, format_raw_point

Point = tuple[Fraction, ...]


# -- samplers ------------------------------------------------------------


@dataclass(frozen=True)
class BoxSampler:
    """Integer points with ``|coords| <= bound``, enumerated by growing
    max-norm shells so that prefixes are nested boxes."""

    bound: int

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
    then by absolute value, positive before negative."""
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
        values = [Fraction(*v) for v in _rational_values(self.num_bound, self.den_bound)]
        for point in itertools.product(values, repeat=automorphism.n):
            yield kernel.to_common_denominator(point)


@dataclass(frozen=True)
class RandomRationalSampler:
    count: int
    num_bound: int = 5
    den_bound: int = 3
    seed: int = 0

    def describe(self) -> dict:
        return {
            "kind": "random",
            "count": self.count,
            "num_bound": self.num_bound,
            "den_bound": self.den_bound,
            "seed": self.seed,
        }

    def points(self, automorphism: AffineAutomorphism, bit_budget: int) -> Iterator[RawPoint]:
        n = automorphism.n
        rng = random.Random(self.seed)
        values = [Fraction(*v) for v in _rational_values(self.num_bound, self.den_bound)]
        for _ in range(self.count):
            yield kernel.to_common_denominator([rng.choice(values) for _ in range(n)])


@dataclass(frozen=True)
class OrbitSampler:
    """Forward orbit segments of the given seed points."""

    seeds: tuple[Point, ...]
    depth: int

    def describe(self) -> dict:
        return {
            "kind": "orbit",
            "seeds": [format_point(p) for p in self.seeds],
            "depth": self.depth,
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


@dataclass(frozen=True)
class DeltaRecord:
    """One sampled point with its exact height integers and statistic."""

    point: RawPoint
    height_integers: tuple[int, int, int]  # H(P), H(fP), H(f^{-1}P)
    h_point: float
    h_forward: float
    h_inverse: float
    delta: float

    def to_row(self) -> list:
        return [
            format_raw_point(*self.point),
            *self.height_integers,
            self.h_point,
            self.h_forward,
            self.h_inverse,
            self.delta,
        ]


def _statistic(d: int, d_inv: int, h_p: float, h_f: float, h_i: float, mode: str) -> float:
    if mode == "delta":
        return h_f / d + h_i / d_inv - (1.0 + 1.0 / (d * d_inv)) * h_p
    return h_f / d + h_i / d_inv - h_p


def _record(
    automorphism: AffineAutomorphism,
    raw: RawPoint,
    bit_budget: int,
    mode: str,
) -> DeltaRecord | None:
    height = kernel.height_integer(*raw)
    if height.bit_length() > bit_budget:
        return None
    forward, h_forward = automorphism.step(raw, height, "forward", bit_budget)
    if forward is None:
        return None
    inverse, h_inverse = automorphism.step(raw, height, "inverse", bit_budget)
    if inverse is None:
        return None
    h_ints = (height, h_forward, h_inverse)
    h_p, h_f, h_i = (log(h) for h in h_ints)
    d, d_inv = automorphism.degrees
    return DeltaRecord(
        point=raw,
        height_integers=h_ints,
        h_point=h_p,
        h_forward=h_f,
        h_inverse=h_i,
        delta=_statistic(d, d_inv, h_p, h_f, h_i, mode),
    )


def delta_statistic(
    automorphism: AffineAutomorphism,
    point: Sequence[Fraction | int],
    bit_budget: int | None = None,
) -> float:
    """The two-sided height statistic at one affine rational point."""
    budget = DEFAULT_BIT_BUDGET if bit_budget is None else bit_budget
    record = _record(automorphism, kernel.to_common_denominator(point), budget, "delta")
    if record is None:
        raise ValueError("point exceeds the bit budget")
    return record.delta


# -- batch verification ----------------------------------------------------


@dataclass(frozen=True)
class DeltaReport:
    """Sample-wide report: records, lower envelope, stabilization verdict."""

    map_id: str
    degrees: tuple[int, int]
    mode: str
    sample: dict
    regularity: str
    records: tuple[DeltaRecord, ...]
    min_delta: float
    argmin: RawPoint | None
    skipped: int
    checkpoints: tuple[tuple[int, float], ...]
    stabilized: bool
    stabilization_note: str
    slack: float
    warmup: int

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

    def to_json_dict(self) -> dict:
        return {
            "map_id": self.map_id,
            "degrees": list(self.degrees),
            "mode": self.mode,
            "sample": self.sample,
            "regularity": self.regularity,
            "count": len(self.records),
            "skipped": self.skipped,
            "min_delta": self.min_delta,
            "argmin": format_raw_point(*self.argmin) if self.argmin is not None else None,
            "checkpoints": [[c, m] for c, m in self.checkpoints],
            "stabilized": self.stabilized,
            "stabilization_note": self.stabilization_note,
            "slack": self.slack,
            "warmup": self.warmup,
            "records": [
                {
                    "point": format_raw_point(*r.point),
                    "height_integers": list(r.height_integers),
                    "h_point": r.h_point,
                    "h_forward": r.h_forward,
                    "h_inverse": r.h_inverse,
                    "delta": r.delta,
                }
                for r in self.records
            ],
        }

    def to_csv_rows(self) -> Iterator[list]:
        yield self.CSV_HEADER
        for record in self.records:
            yield record.to_row()


def batch_verify(
    automorphism: AffineAutomorphism,
    sampler,
    slack: float = 0.05,
    warmup: int = 64,
    bit_budget: int | None = None,
    assume_regular: bool = False,
    mode: str = "delta",
) -> DeltaReport:
    """Evaluate the statistic over a deterministic sample and test whether
    its minimum has stabilized.

    ``sampler`` follows the sampler protocol of the module docstring; a
    point that is not in canonical ``(nums, den)`` form, or that has the
    wrong number of coordinates, raises ``ValueError``.

    Points whose exact evaluation exceeds the bit budget are skipped and
    counted.  When ``assume_regular`` is not set, the regularity verdict is
    computed and recorded in the report.
    """
    if mode not in ("delta", "silverman"):
        raise ValueError("mode must be 'delta' or 'silverman'")
    budget = DEFAULT_BIT_BUDGET if bit_budget is None else bit_budget
    regularity = "asserted" if assume_regular else is_regular(automorphism).verdict

    records: list[DeltaRecord] = []
    skipped = 0
    running_min = float("inf")
    argmin: RawPoint | None = None
    checkpoints: list[tuple[int, float]] = []
    next_checkpoint = max(warmup, 1)
    for raw in sampler.points(automorphism, budget):
        nums, den = raw
        if len(nums) != automorphism.n:
            raise ValueError(
                f"sampler point {raw!r} has {len(nums)} coordinates, expected {automorphism.n}"
            )
        if den <= 0 or gcd(den, *nums) != 1:
            raise ValueError(f"sampler point {raw!r} is not in canonical (nums, den) form")
        record = _record(automorphism, raw, budget, mode)
        if record is None:
            skipped += 1
            continue
        records.append(record)
        if record.delta < running_min:
            running_min = record.delta
            argmin = record.point
        if len(records) == next_checkpoint:
            checkpoints.append((len(records), running_min))
            next_checkpoint *= 4
    if records and (not checkpoints or checkpoints[-1][0] != len(records)):
        checkpoints.append((len(records), running_min))

    past_warmup = [c for c in checkpoints if c[0] >= warmup]
    if not records:
        stabilized = False
        note = "the sample kept no point; nothing to verify"
    elif len(past_warmup) >= 2:
        drift = abs(past_warmup[-1][1] - past_warmup[-2][1])
        stabilized = drift < slack
        note = f"min moved {drift:.6g} between the last two checkpoints"
    else:
        stabilized = True
        note = "sample below warmup; stabilization not evaluated"

    return DeltaReport(
        map_id=automorphism.map_id,
        degrees=automorphism.degrees,
        mode=mode,
        sample=sampler.describe(),
        regularity=regularity,
        records=tuple(records),
        min_delta=running_min if records else float("nan"),
        argmin=argmin,
        skipped=skipped,
        checkpoints=tuple(checkpoints),
        stabilized=stabilized,
        stabilization_note=note,
        slack=slack,
        warmup=warmup,
    )
