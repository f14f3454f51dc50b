"""Weil heights of rational points and canonical heights along orbits.

The height of an affine rational point is computed from its primitive
integer homogeneous vector: ``h(P) = log max|coordinate|``.  The integer
maximum is exact and exposed for bit-exact regression tests; logs are
natural logs at 64-bit float precision, for reporting only.

Canonical heights are limits of ``h(f^k P) / d^k`` along forward orbits
(and of ``h(f^{-k} P) / d'^k`` backward).  The limit is reported as the
last computed term together with a tail bound obtained by extrapolating
the observed successive differences geometrically with ratio ``1/d``:
with ``K = max_k |v_{k+1} - v_k| * d^(k+1)`` over the observed range, the
tail beyond depth ``N`` is at most ``K / (d^N (d - 1))``.  This is an
a-posteriori certificate from observed decay, not an a-priori constant.
``K`` is kept as a running maximum, so each step costs the same; where
``d^k`` leaves the float range the terms are scaled in logs instead.  For
``d = 1`` the bound is infinite once ``K > 0`` and stays so, and a
tolerance-only estimate stops at that step.

The combined invariant ``h_plus + h_minus`` is nonnegative and vanishes
exactly on periodic points, which is what the periodicity filter uses;
the difference convention ``h_plus - h_minus`` is available behind a
flag for comparison.

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
from .dynamics import DEFAULT_BIT_BUDGET, AffineAutomorphism, CycleResult, Direction

PERIODIC = "periodic"
WANDERING = "wandering"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class ProjectivePoint:
    """Primitive integer homogeneous coordinates (first nonzero positive)."""

    coords: tuple[int, ...]

    def __post_init__(self):
        if kernel.normalize_projective(self.coords) != self.coords:
            raise ValueError("coordinates are not in primitive normalized form")

    @classmethod
    def from_affine(cls, point: Sequence[Fraction | int]) -> "ProjectivePoint":
        """Homogenize with 1 in slot 0 and clear denominators."""
        nums, den = kernel.to_common_denominator(point)
        return cls(kernel.normalize_projective((den, *nums)))

    @property
    def height_integer(self) -> int:
        return max(abs(c) for c in self.coords)

    @property
    def log_height(self) -> float:
        return math.log(self.height_integer)


def weil_height(point: Sequence[Fraction | int]) -> float:
    """``log max|coordinate|`` of the primitive homogeneous vector."""
    return ProjectivePoint.from_affine(point).log_height


def weil_height_integer(point: Sequence[Fraction | int]) -> int:
    """The exact integer whose log is the Weil height."""
    return ProjectivePoint.from_affine(point).height_integer


@dataclass(frozen=True)
class CanonicalHeightEstimate:
    """Terms ``h(f^k P) / d^k`` with a geometric-decay tail certificate.

    ``step_integers`` are the exact per-step height integers; ``values``
    their normalized logs.  ``certified`` is cleared when the bit budget
    truncated the orbit before the requested stopping rule was met.
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
    depth: int | None,
    tolerance: float | None,
    bit_budget: int | None,
) -> CanonicalHeightEstimate:
    if depth is None and tolerance is None:
        raise ValueError("give a depth, a tolerance, or both")
    if tolerance is not None and tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if depth is not None and depth < 1:
        raise ValueError("depth must be >= 1")
    budget = DEFAULT_BIT_BUDGET if bit_budget is None else bit_budget
    ratio = automorphism.degree(direction)
    max_depth = depth if depth is not None else 10_000

    raw = kernel.to_common_denominator(point)
    integers = [kernel.height_integer(*raw)]
    values = [math.log(integers[0])]
    truncated = False
    peak = 0.0
    for k in range(1, max_depth + 1):
        raw, truncated = automorphism.step(raw, direction, budget)
        if truncated:
            break
        integers.append(kernel.height_integer(*raw))
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
        if tolerance is not None:
            tail = _tail_bound(peak, ratio, k)
            # An infinite tail (d < 2 and a nonzero difference) never falls,
            # as the peak only grows: without a depth, stop here.
            if tail <= tolerance or (depth is None and tail == math.inf):
                break
    tail = _tail_bound(peak, ratio, len(values) - 1)
    certified = not truncated and math.isfinite(tail)
    if tolerance is not None and not truncated and depth is None:
        certified = certified and tail <= tolerance
    start = tuple(Fraction(c) for c in point)
    return CanonicalHeightEstimate(
        direction=direction,
        ratio=ratio,
        point=start,
        step_integers=tuple(integers),
        values=tuple(values),
        tail_bound=tail,
        depth=len(values) - 1,
        certified=certified,
        truncated=truncated,
    )


def canonical_plus(
    automorphism: AffineAutomorphism,
    point: Sequence[Fraction | int],
    depth: int | None = None,
    tolerance: float | None = None,
    bit_budget: int | None = None,
) -> CanonicalHeightEstimate:
    """Forward canonical height estimate (terms ``h(f^k P)/d^k``)."""
    return _canonical_estimate(automorphism, point, "forward", depth, tolerance, bit_budget)


def canonical_minus(
    automorphism: AffineAutomorphism,
    point: Sequence[Fraction | int],
    depth: int | None = None,
    tolerance: float | None = None,
    bit_budget: int | None = None,
) -> CanonicalHeightEstimate:
    """Backward canonical height estimate (terms ``h(f^{-k} P)/d'^k``)."""
    return _canonical_estimate(automorphism, point, "inverse", depth, tolerance, bit_budget)


@dataclass(frozen=True)
class CanonicalHeight:
    """Combined canonical height with both addends and a joint tail bound."""

    plus: CanonicalHeightEstimate
    minus: CanonicalHeightEstimate
    value: float
    tail_bound: float
    convention: str
    certified: bool

    def to_report(self, map_id: str | None = None) -> dict:
        report = {
            "value": self.value,
            "tail_bound": self.tail_bound,
            "convention": self.convention,
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
    depth: int | None = None,
    tolerance: float | None = None,
    bit_budget: int | None = None,
    convention: str = "sum",
) -> CanonicalHeight:
    """Combined canonical height.

    ``convention="sum"`` (the default) adds the two one-sided estimates,
    which keeps the invariant nonnegative and makes it vanish exactly on
    periodic points; ``convention="difference"`` subtracts instead.
    """
    if convention not in ("sum", "difference"):
        raise ValueError("convention must be 'sum' or 'difference'")
    half = None if tolerance is None else tolerance / 2.0
    plus = canonical_plus(automorphism, point, depth, half, bit_budget)
    minus = canonical_minus(automorphism, point, depth, half, bit_budget)
    if convention == "sum":
        value = plus.estimate + minus.estimate
    else:
        value = plus.estimate - minus.estimate
    return CanonicalHeight(
        plus=plus,
        minus=minus,
        value=value,
        tail_bound=plus.tail_bound + minus.tail_bound,
        convention=convention,
        certified=plus.certified and minus.certified,
    )


@dataclass(frozen=True)
class ResidualCheck:
    """Functional-equation residual with its certified interval width."""

    residual: float
    interval_width: float
    certified: bool
    lhs: float
    rhs: float

    @property
    def within_interval(self) -> bool:
        return self.residual <= self.interval_width


def functional_equation_residual(
    automorphism: AffineAutomorphism,
    point: Sequence[Fraction | int],
    depth: int,
    bit_budget: int | None = None,
) -> ResidualCheck:
    """Check ``(1/d) h^(f P) + (1/d') h^(f^{-1} P) = (1 + 1/(d d')) h^(P)``.

    The three canonical heights are estimated at the given depth and their
    tail bounds are folded into the width of the certified interval.
    """
    d, d_inv = automorphism.degrees
    forward_image = automorphism.apply(point, "forward")
    inverse_image = automorphism.apply(point, "inverse")
    at_point = canonical(automorphism, point, depth=depth, bit_budget=bit_budget)
    at_forward = canonical(automorphism, forward_image, depth=depth, bit_budget=bit_budget)
    at_inverse = canonical(automorphism, inverse_image, depth=depth, bit_budget=bit_budget)
    weight = 1.0 + 1.0 / (d * d_inv)
    lhs = at_forward.value / d + at_inverse.value / d_inv
    rhs = weight * at_point.value
    width = (
        at_forward.tail_bound / d
        + at_inverse.tail_bound / d_inv
        + weight * at_point.tail_bound
    )
    return ResidualCheck(
        residual=abs(lhs - rhs),
        interval_width=width,
        certified=at_point.certified and at_forward.certified and at_inverse.certified,
        lhs=lhs,
        rhs=rhs,
    )


@dataclass(frozen=True)
class PeriodicityVerdict:
    verdict: str
    canonical_height: CanonicalHeight
    cycle: CycleResult | None


def is_periodic_by_height(
    automorphism: AffineAutomorphism,
    point: Sequence[Fraction | int],
    tolerance: float,
    depth: int = 12,
    cycle_depth: int = 64,
    bit_budget: int | None = None,
) -> PeriodicityVerdict:
    """Classify a point as periodic / wandering / undetermined.

    The canonical-height interval is the filter, the exact cycle check the
    authority: "periodic" requires the interval to sit below ``tolerance``
    *and* an exact cycle within ``cycle_depth``; "wandering" requires the
    interval to exclude zero.

    When both degrees are 1 the invariant cannot separate periodic from
    wandering points (it equals twice the ordinary height on the identity),
    so the exact cycle check is consulted directly.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    height = canonical(automorphism, point, depth=depth, bit_budget=bit_budget)
    if automorphism.d == 1 and automorphism.d_inv == 1:
        cycle = automorphism.detect_cycle(point, cycle_depth, bit_budget)
        if cycle.periodic:
            return PeriodicityVerdict(PERIODIC, height, cycle)
        return PeriodicityVerdict(UNDETERMINED, height, cycle)
    upper = height.value + height.tail_bound
    lower = height.value - height.tail_bound
    if height.certified and upper < tolerance:
        cycle = automorphism.detect_cycle(point, cycle_depth, bit_budget)
        if cycle.periodic:
            return PeriodicityVerdict(PERIODIC, height, cycle)
        return PeriodicityVerdict(UNDETERMINED, height, cycle)
    if height.certified and lower > 0:
        return PeriodicityVerdict(WANDERING, height, None)
    return PeriodicityVerdict(UNDETERMINED, height, None)


def height_growth_constant(
    automorphism: AffineAutomorphism, direction: Direction = "forward"
) -> float:
    """A constant ``C`` with ``h(f(P)) <= d h(P) + C`` for all rational P.

    Derived from the coefficients: with ``L`` the common denominator of all
    coordinate coefficients, ``M`` the largest cleared numerator and ``T``
    the largest term count, the primitive image vector is bounded by
    ``max(L, T * M) * H^d``, so ``C = log(T * max(L, M))`` works.
    """
    coords = automorphism.coordinates(direction)
    common_den = 1
    for poly in coords:
        for coeff in poly.terms.values():
            common_den = lcm(common_den, coeff.denominator)
    top = 1
    terms = 1
    for poly in coords:
        if len(poly.terms) > terms:
            terms = len(poly.terms)
        for coeff in poly.terms.values():
            cleared = abs(int(coeff * common_den))
            if cleared > top:
                top = cleared
    return math.log(terms * max(common_den, top))
