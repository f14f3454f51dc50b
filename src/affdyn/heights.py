"""Weil heights of rational points and canonical heights along orbits.

The height of an affine rational point is computed from its primitive
integer homogeneous vector: ``h(P) = log max|coordinate|``.  The integer
maximum is exact and exposed for bit-exact regression tests; logs are
natural logs at 64-bit float precision, for reporting only.

Canonical heights are limits of ``h(f^k P) / d^k`` along forward orbits
(and of ``h(f^{-k} P) / d'^k`` backward).  ``canonical_estimate`` reads
the height integers that ``AffineAutomorphism.orbit``, the one orbit loop,
measured along the orbit to a given depth, so a start over the bit budget
is an ``InputError`` here too.  It reports the last computed term
together with a tail bound obtained by extrapolating the observed
successive differences geometrically with ratio ``1/d``: with
``K = max_k |v_{k+1} - v_k| * d^(k+1)`` over the observed range, the tail
beyond depth ``N`` is taken as ``K / (d^N (d - 1))``.  This extrapolates
from observed decay; it is not a proven bound, and a deeper orbit can
raise it (a run of equal heights gives a tail of 0 until the heights
move).  ``K`` is kept as a running maximum, so each step costs the same;
where ``d^k`` leaves the float range the terms are scaled in logs
instead.  For ``d = 1`` the tail is infinite once ``K > 0``; reports
write an infinite tail as null.

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
from .dynamics import DEFAULT_BIT_BUDGET, AffineAutomorphism, Direction, InputError
from .parsing import format_point, report_int


def weil_height(point: Sequence[Fraction | int]) -> float:
    """``log max|coordinate|`` of the primitive homogeneous vector."""
    return math.log(weil_height_integer(point))


def weil_height_integer(point: Sequence[Fraction | int]) -> int:
    """The exact integer whose log is the Weil height."""
    return kernel.height_integer(*kernel.to_common_denominator(point))


@dataclass(frozen=True)
class CanonicalHeightEstimate:
    """Terms ``h(f^k P) / d^k`` with an extrapolated geometric tail.

    ``step_integers`` are the exact per-step height integers; ``values``
    their normalized logs.  ``certified`` means that the bit budget did not
    truncate the orbit before the requested depth and that the
    extrapolated tail is finite.  It is not a proof: the tail rests on the
    observed differences only.
    """

    direction: Direction
    ratio: int
    point: tuple[Fraction, ...]
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

    def to_report(self) -> dict:
        return {
            "direction": self.direction,
            "ratio": self.ratio,
            "point": format_point(self.point).split(","),
            "step_height_integers": [report_int(h) for h in self.step_integers],
            "values": list(self.values),
            "estimate": self.estimate,
            "tail_bound": self.tail_bound if math.isfinite(self.tail_bound) else None,
            "depth": self.depth,
            "certified": self.certified,
            "truncated": self.truncated,
        }


def _float_power(ratio: int, k: int) -> float | None:
    """``float(ratio) ** k``, or None past the float range."""
    try:
        return float(ratio) ** k
    except OverflowError:
        return None


def _scaled_down(x: float, ratio: int, k: int) -> float:
    """``x / ratio**k`` for ``x >= 0`` when ``ratio**k`` is no float."""
    return math.exp(math.log(x) - k * math.log(ratio)) if x else 0.0


def _tail_bound(peak: float, ratio: int, depth: int) -> float:
    """``peak / (d^depth (d - 1))``; ``peak`` is the running maximum of
    ``|v_{k+1} - v_k| * d^(k+1)`` over the first ``depth`` differences."""
    if depth < 1:
        return math.inf
    if peak == 0.0:
        return 0.0
    if ratio < 2:
        return math.inf
    scale = _float_power(ratio, depth)
    if scale is None:
        return _scaled_down(peak, ratio, depth) / (ratio - 1.0)
    return peak / (scale * (ratio - 1.0))


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
    values = [math.log(integers[0])]
    peak = 0.0
    for k in range(1, len(integers)):
        log_k = math.log(integers[k])
        scale = _float_power(ratio, k)
        if scale is not None:
            values.append(log_k / scale)
            rate = abs(values[-1] - values[-2]) * scale
        else:
            # Past the float range: v_k is scaled in logs, and
            # |v_k - v_{k-1}| * d^k is exactly |log H_k - d log H_{k-1}|.
            values.append(_scaled_down(log_k, ratio, k))
            rate = abs(log_k - ratio * math.log(integers[k - 1]))
        if rate > peak:
            peak = rate
    return CanonicalHeightEstimate(
        direction=direction,
        ratio=ratio,
        point=kernel.to_fractions(*orbit.raw[0]),
        step_integers=integers,
        values=tuple(values),
        tail_bound=_tail_bound(peak, ratio, len(values) - 1),
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

    def to_report(self, map_id: str | None = None) -> dict:
        report = {
            "value": self.value,
            "tail_bound": self.tail_bound if math.isfinite(self.tail_bound) else None,
            "certified": self.certified,
            "point": format_point(self.plus.point),
            "plus": self.plus.to_report(),
            "minus": self.minus.to_report(),
        }
        if map_id is not None:
            report["map_id"] = map_id
        return report


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
