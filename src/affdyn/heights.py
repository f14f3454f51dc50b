"""Weil heights of rational points and canonical heights along orbits.

The height of an affine rational point is computed from its primitive
integer homogeneous vector: ``h(P) = log max|coordinate|``.  The integer
maximum is exact and exposed for bit-exact regression tests; logs are
natural logs at 64-bit float precision, for reporting only.

Canonical heights are limits of ``h(f^k P) / d^k`` along forward orbits
(and of ``h(f^{-k} P) / d'^k`` backward).  An estimate runs the orbit to a
given depth and reports the last computed term together with a tail bound
obtained by extrapolating the observed successive differences
geometrically with ratio ``1/d``: with
``K = max_k |v_{k+1} - v_k| * d^(k+1)`` over the observed range, the tail
beyond depth ``N`` is taken as ``K / (d^N (d - 1))``.  This extrapolates
from observed decay; it is not a proven bound, and a deeper orbit can
raise it (a run of equal heights gives a tail of 0 until the heights
move).  ``K`` is kept as a running maximum, so each step costs the same;
where ``d^k`` leaves the float range the terms are scaled in logs
instead.  For ``d = 1`` the tail is infinite once ``K > 0``.

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
    depth: int
    certified: bool
    truncated: bool

    @property
    def estimate(self) -> float:
        return self.values[-1]

    def to_report(self, map_id: str | None = None) -> dict:
        report = {
            "direction": self.direction,
            "ratio": self.ratio,
            "point": [str(c) for c in self.point],
            "step_height_integers": list(self.step_integers),
            "values": list(self.values),
            "estimate": self.estimate,
            "tail_bound": self.tail_bound,
            "depth": self.depth,
            "certified": self.certified,
            "truncated": self.truncated,
        }
        if map_id is not None:
            report["map_id"] = map_id
        return report


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


def _canonical_estimate(
    automorphism: AffineAutomorphism,
    point: Sequence[Fraction | int],
    direction: Direction,
    depth: int,
    bit_budget: int,
) -> CanonicalHeightEstimate:
    if depth < 1:
        raise InputError("depth must be >= 1")
    ratio = automorphism.degree(direction)

    raw = kernel.to_common_denominator(point)
    integers = [kernel.height_integer(*raw)]
    values = [math.log(integers[0])]
    truncated = False
    peak = 0.0
    for k in range(1, depth + 1):
        raw, height = automorphism.step(raw, integers[-1], direction, bit_budget)
        truncated = raw is None
        if truncated:
            break
        integers.append(height)
        log_k = math.log(integers[-1])
        scale = _float_power(ratio, k)
        if scale is not None:
            values.append(log_k / scale)
            rate = abs(values[-1] - values[-2]) * scale
        else:
            # Past the float range: v_k is scaled in logs, and
            # |v_k - v_{k-1}| * d^k is exactly |log H_k - d log H_{k-1}|.
            values.append(_scaled_down(log_k, ratio, k))
            rate = abs(log_k - ratio * math.log(integers[-2]))
        if rate > peak:
            peak = rate
    tail = _tail_bound(peak, ratio, len(values) - 1)
    start = tuple(Fraction(c) for c in point)
    return CanonicalHeightEstimate(
        direction=direction,
        ratio=ratio,
        point=start,
        step_integers=tuple(integers),
        values=tuple(values),
        tail_bound=tail,
        depth=len(values) - 1,
        certified=not truncated and math.isfinite(tail),
        truncated=truncated,
    )


def canonical_plus(
    automorphism: AffineAutomorphism,
    point: Sequence[Fraction | int],
    depth: int,
    bit_budget: int = DEFAULT_BIT_BUDGET,
) -> CanonicalHeightEstimate:
    """Forward canonical height estimate (terms ``h(f^k P)/d^k``)."""
    return _canonical_estimate(automorphism, point, "forward", depth, bit_budget)


def canonical_minus(
    automorphism: AffineAutomorphism,
    point: Sequence[Fraction | int],
    depth: int,
    bit_budget: int = DEFAULT_BIT_BUDGET,
) -> CanonicalHeightEstimate:
    """Backward canonical height estimate (terms ``h(f^{-k} P)/d'^k``)."""
    return _canonical_estimate(automorphism, point, "inverse", depth, bit_budget)


@dataclass(frozen=True)
class CanonicalHeight:
    """Combined canonical height with both addends and a joint tail bound."""

    plus: CanonicalHeightEstimate
    minus: CanonicalHeightEstimate
    value: float
    tail_bound: float
    certified: bool

    def to_report(self, map_id: str | None = None) -> dict:
        report = {
            "value": self.value,
            "tail_bound": self.tail_bound,
            "certified": self.certified,
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
    plus = canonical_plus(automorphism, point, depth, bit_budget)
    minus = canonical_minus(automorphism, point, depth, bit_budget)
    return CanonicalHeight(
        plus=plus,
        minus=minus,
        value=plus.estimate + minus.estimate,
        tail_bound=plus.tail_bound + minus.tail_bound,
        certified=plus.certified and minus.certified,
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
