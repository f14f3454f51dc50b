"""Weil heights of rational points and canonical heights along orbits.

The height of an affine rational point is ``h(P) = log H(P)``, where the
height integer ``H(P)`` is the largest absolute coordinate of its primitive
integer homogeneous vector.  ``H(P)`` is exact (``weil_height_integer``);
its log is a natural log at 64-bit float precision, for reporting only.
A canonical estimate keeps its start point in the kernel's ``(nums, den)``
form and writes it without building a ``Fraction``.

Canonical heights are limits of ``h(f^k P) / d^k`` along forward orbits
(and of ``h(f^{-k} P) / d'^k`` backward).  ``canonical_estimate`` reads
the height integers that ``AffineAutomorphism.orbit``, the one orbit loop,
measured along the orbit to a given depth, so a start over the bit budget
is an ``InputError`` here too.  It reports the last computed term
together with a tail bound obtained by extrapolating the observed
successive differences geometrically with ratio ``1/d``: with
``K = max_k |v_{k+1} - v_k| * d^(k+1) = max_k |log H_{k+1} - d log H_k|``
over the observed range, the tail beyond depth ``N`` is taken as
``K / (d^N (d - 1))``.  This extrapolates from observed decay; it is not
a proven bound, and a deeper orbit can raise it (a run of equal heights
gives a tail of 0 until the heights move).  ``K`` is kept as a running
maximum, so each step costs the same.  ``d^k`` is carried as a float
mantissa and a binary exponent, so it never leaves the float range, and
each term and the tail are one division by the mantissa and a scaling by
a power of two.  While ``d^k`` fits in 53 bits, as it always does for a
power-of-two ``d``, the mantissa is exact and each term is ``log H_k``
divided by ``d^k``, correctly rounded.  For ``d = 1`` the tail is
infinite once ``K > 0``; reports write an infinite tail as null.

The combined invariant ``h_plus + h_minus`` is nonnegative and vanishes
exactly on periodic points.

Everything here is a pure function of immutable inputs; batch evaluation
over point sets is embarrassingly parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from . import kernel
from .dynamics import DEFAULT_BIT_BUDGET, AffineAutomorphism, Direction, InputError, RawPoint
from .parsing import format_raw_point, report_int


def weil_height_integer(point: Sequence[Fraction | int]) -> int:
    """The exact integer whose log is the Weil height."""
    return kernel.height_integer(*kernel.to_common_denominator(point))


@dataclass(frozen=True)
class CanonicalHeightEstimate:
    """Terms ``h(f^k P) / d^k`` with an extrapolated geometric tail.

    ``point`` is the start P in the kernel's ``(nums, den)`` form;
    ``step_integers`` are the exact per-step height integers; ``values``
    their normalized logs.  ``certified`` means that the bit budget did not
    truncate the orbit before the requested depth and that the
    extrapolated tail is finite.  It is not a proof: the tail rests on the
    observed differences only.
    """

    direction: Direction
    ratio: int
    point: RawPoint
    step_integers: tuple[int, ...]
    values: tuple[float, ...]
    tail_bound: float
    truncated: bool

    @property
    def depth(self) -> int:
        return len(self.values) - 1

    @property
    def certified(self) -> bool:
        return not self.truncated and math.isfinite(self.tail_bound)

    @property
    def estimate(self) -> float:
        return self.values[-1]

    def to_side_report(self) -> dict:
        """The report of one side, the ``plus`` or ``minus`` field of
        ``CanonicalHeight.to_report``."""
        return {
            "direction": self.direction,
            "ratio": self.ratio,
            "point": format_raw_point(*self.point).split(","),
            "step_height_integers": [report_int(h) for h in self.step_integers],
            "values": list(self.values),
            "estimate": self.estimate,
            "tail_bound": self.tail_bound if math.isfinite(self.tail_bound) else None,
            "depth": self.depth,
            "certified": self.certified,
            "truncated": self.truncated,
        }


def canonical_estimate(
    automorphism: AffineAutomorphism,
    point: Sequence[Fraction | int],
    depth: int,
    direction: Direction = "forward",
    bit_budget: int = DEFAULT_BIT_BUDGET,
) -> CanonicalHeightEstimate:
    """Canonical height estimate along ``automorphism.orbit``: the terms
    ``h(f^k P)/d^k`` forward, ``h(f^{-k} P)/d'^k`` inverse.

    Raises ``InputError`` where ``orbit`` does (a point of the wrong length,
    a start over the bit budget) and for ``depth < 1``.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    orbit = automorphism.orbit(point, depth, direction, bit_budget)
    ratio = automorphism.degree(direction)
    integers = orbit.heights
    log_prev = math.log(integers[0])
    values = [log_prev]
    # d^k = mant * 2^exp, with mant in [1/2, 1) from k = 1 on.
    mant, exp = 1.0, 0
    peak = 0.0
    for height in integers[1:]:
        log_k = math.log(height)
        mant, shift = math.frexp(mant * ratio)
        exp += shift
        values.append(math.ldexp(log_k / mant, -exp))
        peak = max(peak, abs(log_k - ratio * log_prev))
        log_prev = log_k
    if len(values) == 1 or (peak and ratio == 1):
        tail_bound = math.inf
    elif peak:
        tail_bound = math.ldexp(peak / ((ratio - 1) * mant), -exp)
    else:
        tail_bound = 0.0
    return CanonicalHeightEstimate(
        direction=direction,
        ratio=ratio,
        point=orbit.raw[0],
        step_integers=integers,
        values=tuple(values),
        tail_bound=tail_bound,
        truncated=orbit.truncated,
    )


@dataclass(frozen=True)
class CanonicalHeight:
    """Combined canonical height with both addends and a joint tail bound."""

    plus: CanonicalHeightEstimate
    minus: CanonicalHeightEstimate

    @property
    def value(self) -> float:
        return self.plus.estimate + self.minus.estimate

    @property
    def tail_bound(self) -> float:
        return self.plus.tail_bound + self.minus.tail_bound

    @property
    def certified(self) -> bool:
        return self.plus.certified and self.minus.certified

    def to_report(self, map_id: str) -> dict:
        return {
            "map_id": map_id,
            "value": self.value,
            "tail_bound": self.tail_bound if math.isfinite(self.tail_bound) else None,
            "certified": self.certified,
            "point": format_raw_point(*self.plus.point),
            "plus": self.plus.to_side_report(),
            "minus": self.minus.to_side_report(),
        }


def canonical(
    automorphism: AffineAutomorphism,
    point: Sequence[Fraction | int],
    depth: int,
    bit_budget: int = DEFAULT_BIT_BUDGET,
) -> CanonicalHeight:
    """Combined canonical height ``h_plus + h_minus``.

    The sum of the two one-sided estimates is nonnegative and vanishes
    exactly on periodic points.
    """
    return CanonicalHeight(
        plus=canonical_estimate(automorphism, point, depth, "forward", bit_budget),
        minus=canonical_estimate(automorphism, point, depth, "inverse", bit_budget),
    )


def height_growth_constant(
    automorphism: AffineAutomorphism, direction: Direction = "forward"
) -> float:
    """A constant ``C`` with ``h(f(P)) <= d h(P) + C`` for all rational P.

    Derived from the coefficients, as the kernel clears them
    (``AffineAutomorphism.compiled``): with ``L`` the common denominator of
    all coordinate coefficients (the lcm of the per-coordinate ``denoms``),
    ``M`` the largest numerator once every coordinate is brought to ``L``
    and ``T`` the largest term count, the primitive image vector is bounded
    by ``max(L, T * M) * H^d``, so ``C = log(T * max(L, M))`` works.
    """
    cm = automorphism.compiled(direction)
    common_den = lcm(*cm.denoms)
    top = max(
        abs(coeff) * (common_den // denom)
        for terms, denom in zip(cm.terms, cm.denoms)
        for coeff, _ in terms
    )
    count = max(len(terms) for terms in cm.terms)
    return math.log(count * max(common_den, top))
