"""Divisor-coefficient ledger for blowup resolutions of automorphism pairs.

The divisor class group of a blowup obtained by a chain of monoidal
transformations is the free abelian group on the proper transform of the
hyperplane at infinity together with the exceptional divisors.  A
``ResolutionDatum`` records, for one side of an automorphism pair, the
coefficient vectors of the two relevant pullbacks of the hyperplane class
over that basis:

    blowdown pullback:  a = (1; a_1 ... a_k)    with a_t = degree_other,
    map pullback:       b = (degree_own; b_1 ... b_k)  with b_t = 1,

where ``t`` marks the essential exceptional divisor (the unique one whose
pushforward is the hyperplane class).  The validator checks each law
independently and reports violations as data:

    blowdown-normalization        a_0 == 1
    map-degree                    b_0 == degree_own
    essential-map-coefficient     b_t == 1
    essential-blowdown-coefficient a_t == degree_other
    map-positivity                b_i >= 1 for every exceptional index
    blowdown-nonnegativity        a_i >= 0 for i != t
    effectivity-inequality        degree_other * b_i >= a_i for i != t

Coefficient tables are ledger inputs (computing them from blowup geometry
is out of scope); ``affdyn/data`` holds the datum files of the degree-2
three-variable Henon automorphism.  Combining the two sides produces the
three pullbacks on a common blowup, and the rational divisor class

    D = (1/d) phi*H + (1/d') psi*H - (1 + 1/(d d')) pi*H

is effective exactly when the effectivity inequalities hold; its closed
forms (hyperplane coefficient ``1 - 1/(d d')``, exceptional coefficients
``(d' b_i - a_i)/(d d')`` and mirrored) serve as an independent oracle in
the tests.  The pullbacks keep integer coefficients, so each coefficient
of D is one exact division of an integer by ``d d'``, and equal
coefficients share one ``Fraction``.

Other repeated results are shared too: one combined ``PicBasis`` per pair
of label tuples, one empty ``ValidationReport`` for every datum without a
violation, and one ``EffectivityResult`` for every effective D.  Every law
is still checked on every datum.  The classes are frozen, so a shared
instance equals the fresh one it replaces, and an error is raised on every
call, as the caches keep no exception.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .parsing import parse_int


class DatumError(ValueError):
    """Structurally unusable ledger input (not a mere law violation)."""


@dataclass(frozen=True, slots=True)
class PicBasis:
    """Ordered divisor labels: hyperplane transform first, then exceptionals."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise DatumError("empty basis")
        if len(set(self.labels)) != len(self.labels):
            raise DatumError("duplicate divisor label")

    @property
    def rank(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, slots=True)
class DivisorClass:
    """Coefficient vector over a basis; coefficients are ints or Fractions."""

    basis: PicBasis
    coeffs: tuple[int | Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.basis.rank:
            raise DatumError(
                f"{len(self.coeffs)} coefficients over a rank-{self.basis.rank} basis"
            )

    def scale(self, factor) -> "DivisorClass":
        factor = Fraction(factor)
        return DivisorClass(self.basis, tuple(factor * c for c in self.coeffs))

    def as_text(self) -> str:
        pieces = [f"{c}*{label}" for label, c in zip(self.basis.labels, self.coeffs)]
        return " + ".join(pieces)


@dataclass(frozen=True, slots=True)
class PushforwardMap:
    """Pushforward to the rank-1 group of projective space.

    ``multiples[i]`` is the multiple of the hyperplane class that basis
    element ``i`` maps to; the hyperplane-transform slot must map to 0.
    """

    multiples: tuple[int, ...]

    def __post_init__(self):
        if not self.multiples:
            raise DatumError("empty pushforward")
        if self.multiples[0] != 0:
            raise DatumError("the hyperplane transform must push forward to 0")
        if any(s < 0 for s in self.multiples):
            raise DatumError("pushforward multiples must be non-negative")


@dataclass(frozen=True, slots=True)
class ResolutionDatum:
    """Coefficient tables for one side of the pair (see module docstring)."""

    side: str  # "forward" or "inverse"
    degree_own: int
    degree_other: int
    basis: PicBasis
    a: tuple[int, ...]  # blowdown pullback of H
    b: tuple[int, ...]  # map pullback of H
    t: int  # essential index, 1-based over the exceptionals
    pushforward: PushforwardMap | None = None
    name: str | None = None

    def __post_init__(self):
        if self.side not in ("forward", "inverse"):
            raise DatumError(f"side must be 'forward' or 'inverse', got {self.side!r}")
        rank = self.basis.rank
        if len(self.a) != rank or len(self.b) != rank:
            raise DatumError("coefficient vectors must match the basis rank")
        if not 1 <= self.t < rank:
            raise DatumError(f"essential index {self.t} out of range")
        if self.degree_own < 1 or self.degree_other < 1:
            raise DatumError("degrees must be >= 1")
        if self.pushforward is not None and len(self.pushforward.multiples) != rank:
            raise DatumError("pushforward rank mismatch")


@dataclass(frozen=True, slots=True)
class Violation:
    law: str
    message: str


@dataclass(frozen=True, slots=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


_NO_VIOLATIONS = ValidationReport(())


def validate_resolution(datum: ResolutionDatum) -> ValidationReport:
    """Check every ledger law independently; violations are data."""
    labels = datum.basis.labels
    out: list[Violation] = []
    if datum.a[0] != 1:
        out.append(
            Violation(
                "blowdown-normalization",
                f"{labels[0]} coefficient of the blowdown pullback is {datum.a[0]}, expected 1",
            )
        )
    if datum.b[0] != datum.degree_own:
        out.append(
            Violation(
                "map-degree",
                f"{labels[0]} coefficient of the map pullback is {datum.b[0]}, "
                f"expected the map degree {datum.degree_own}",
            )
        )
    if datum.b[datum.t] != 1:
        out.append(
            Violation(
                "essential-map-coefficient",
                f"essential divisor {labels[datum.t]} has map-pullback coefficient "
                f"{datum.b[datum.t]}, expected 1",
            )
        )
    if datum.a[datum.t] != datum.degree_other:
        out.append(
            Violation(
                "essential-blowdown-coefficient",
                f"essential divisor {labels[datum.t]} has blowdown-pullback coefficient "
                f"{datum.a[datum.t]}, expected the other degree {datum.degree_other}",
            )
        )
    for i in range(1, datum.basis.rank):
        if datum.b[i] < 1:
            out.append(
                Violation(
                    "map-positivity",
                    f"map-pullback coefficient of {labels[i]} is {datum.b[i]}, expected >= 1",
                )
            )
    for i in range(1, datum.basis.rank):
        if i == datum.t:
            continue
        if datum.a[i] < 0:
            out.append(
                Violation(
                    "blowdown-nonnegativity",
                    f"blowdown-pullback coefficient of {labels[i]} is {datum.a[i]}, expected >= 0",
                )
            )
        if datum.degree_other * datum.b[i] < datum.a[i]:
            out.append(
                Violation(
                    "effectivity-inequality",
                    f"{labels[i]}: {datum.degree_other}*{datum.b[i]} < {datum.a[i]} "
                    f"(need degree_other * b >= a off the essential index)",
                )
            )
    return ValidationReport(tuple(out)) if out else _NO_VIOLATIONS


def find_essential(b: Sequence[int], pushforward: PushforwardMap) -> int:
    """The unique exceptional index with ``s_t * b_t == 1``.

    Raises ``DatumError`` when there is no candidate (the push-pull
    identity could not hold) or more than one (inconsistent input).
    """
    s = pushforward.multiples
    if len(s) != len(b):
        raise DatumError("pushforward and coefficient vector lengths differ")
    candidates = [i for i in range(1, len(b)) if s[i] * b[i] == 1]
    if len(candidates) != 1:
        raise DatumError(
            f"expected exactly one essential index, found {len(candidates)} "
            f"(pushforward of the map pullback must be the hyperplane class)"
        )
    return candidates[0]


def check_pushpull_identity(datum: ResolutionDatum) -> bool:
    """Push the map pullback forward: the result must be exactly 1 * H."""
    if datum.pushforward is None:
        raise DatumError("no pushforward data supplied")
    total = sum(s * c for s, c in zip(datum.pushforward.multiples, datum.b))
    return total == 1


# -- combination and the effective divisor ------------------------------


@dataclass(frozen=True, slots=True)
class CombinedResolution:
    """Both sides on one blowup: basis and the three hyperplane pullbacks."""

    basis: PicBasis
    d: int
    d_inv: int
    blowdown_pullback: DivisorClass  # pi*H
    forward_pullback: DivisorClass  # phi*H
    inverse_pullback: DivisorClass  # psi*H


# How many combined bases ``_combined_basis`` keeps, one per pair of label
# tuples.  Ledgers repeat few: the 11,000 pairs of perfbench's ledger-fuzz
# (seed 1) use 36.
COMBINED_BASIS_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=COMBINED_BASIS_CACHE_SIZE)
def _combined_basis(
    forward_labels: tuple[str, ...], inverse_labels: tuple[str, ...]
) -> PicBasis:
    """The common blowup's basis: H, then each side's exceptionals.  Sides
    whose labels collide raise ``DatumError`` on every call, as the cache
    keeps no exception."""
    return PicBasis(("H",) + forward_labels[1:] + inverse_labels[1:])


def combine_resolutions(
    forward: ResolutionDatum, inverse: ResolutionDatum
) -> CombinedResolution:
    """Assemble the common-blowup pullbacks from the two sides.

    The exceptional blocks are taken from the data; the hyperplane
    coefficients (1, d, d') are structural.  The degree conventions of the
    two sides must mirror each other.
    """
    if (
        forward.degree_own != inverse.degree_other
        or forward.degree_other != inverse.degree_own
    ):
        raise DatumError(
            f"degree mismatch: forward ({forward.degree_own}, {forward.degree_other}) "
            f"vs inverse ({inverse.degree_own}, {inverse.degree_other})"
        )
    d = forward.degree_own
    d_inv = inverse.degree_own
    basis = _combined_basis(forward.basis.labels, inverse.basis.labels)
    e_block_a = forward.a[1:]
    f_block_a = inverse.a[1:]

    pi = DivisorClass(basis, (1,) + e_block_a + f_block_a)
    phi = DivisorClass(basis, (d,) + forward.b[1:] + tuple([d * c for c in f_block_a]))
    psi = DivisorClass(basis, (d_inv,) + tuple([d_inv * c for c in e_block_a]) + inverse.b[1:])
    return CombinedResolution(
        basis=basis,
        d=d,
        d_inv=d_inv,
        blowdown_pullback=pi,
        forward_pullback=phi,
        inverse_pullback=psi,
    )


# How many (numerator, d d') pairs ``_coefficient`` keeps.  Ledgers repeat
# few values: the 87,884 coefficients of perfbench's ledger-fuzz (seed 1)
# come from 342 pairs.
COEFFICIENT_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=COEFFICIENT_CACHE_SIZE)
def _coefficient(numerator: int, denominator: int) -> Fraction:
    """The exact quotient, one shared ``Fraction`` per value: ledger
    coefficients repeat, and a ``Fraction`` is immutable."""
    return Fraction(numerator, denominator)


def compute_D(combined: CombinedResolution) -> DivisorClass:
    """The rational divisor class whose effectivity carries the inequality:

        D = (1/d) phi*H + (1/d') psi*H - (1 + 1/(d d')) pi*H
          = (d' phi*H + d psi*H - (d d' + 1) pi*H) / (d d'),

    the integer numerator taken per coefficient, then one exact division.
    """
    d, d_inv = combined.d, combined.d_inv
    dd = d * d_inv
    coeffs = zip(
        combined.forward_pullback.coeffs,
        combined.inverse_pullback.coeffs,
        combined.blowdown_pullback.coeffs,
    )
    return DivisorClass(
        combined.basis,
        tuple([_coefficient(d_inv * f + d * g - (dd + 1) * p, dd) for f, g, p in coeffs]),
    )


@dataclass(frozen=True, slots=True)
class EffectivityResult:
    effective: bool
    first_negative: str | None = None


_EFFECTIVE = EffectivityResult(True)


def check_effective(divisor: DivisorClass) -> EffectivityResult:
    """Effective iff every coefficient is >= 0; reports the first failure."""
    for label, coeff in zip(divisor.basis.labels, divisor.coeffs):
        if coeff.numerator < 0:
            return EffectivityResult(False, label)
    return _EFFECTIVE


# -- datum files ---------------------------------------------------------

_REQUIRED_KEYS = {
    "side",
    "labels",
    "degree_own",
    "degree_other",
    "blowdown_pullback",
    "map_pullback",
    "essential_index",
}
_OPTIONAL_KEYS = {"pushforward", "name"}


def _integer(value, key: str) -> int:
    # Exactly int: bool is a subclass, and int() would truncate 1.7 and read "3".
    if type(value) is not int:
        raise DatumError(f"{key} must be a JSON integer, not {type(value).__name__}")
    return value


def _integers(values, key: str) -> tuple[int, ...]:
    if not isinstance(values, list):
        raise DatumError(f"{key} must be a list of integers, not {type(values).__name__}")
    return tuple(_integer(x, key) for x in values)


def datum_from_dict(data: dict) -> ResolutionDatum:
    if not isinstance(data, dict):
        raise DatumError(f"a datum must be a JSON object, not {type(data).__name__}")
    keys = set(data)
    missing = _REQUIRED_KEYS - keys
    unknown = keys - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if missing:
        raise DatumError(f"missing keys: {sorted(missing)}")
    if unknown:
        raise DatumError(f"unknown keys: {sorted(unknown)}")
    labels = data["labels"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise DatumError("labels must be a list of strings")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise DatumError("name must be a string or null")
    pushforward = None
    if data.get("pushforward") is not None:
        pushforward = PushforwardMap(_integers(data["pushforward"], "pushforward"))
    return ResolutionDatum(
        side=data["side"],
        degree_own=_integer(data["degree_own"], "degree_own"),
        degree_other=_integer(data["degree_other"], "degree_other"),
        basis=PicBasis(tuple(labels)),
        a=_integers(data["blowdown_pullback"], "blowdown_pullback"),
        b=_integers(data["map_pullback"], "map_pullback"),
        t=_integer(data["essential_index"], "essential_index"),
        pushforward=pushforward,
        name=name,
    )


def load_datum(path) -> ResolutionDatum:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle, parse_int=parse_int)
        except (ValueError, RecursionError) as exc:
            # Bad JSON or UTF-8, an integer past the digit limit, deep nesting.
            raise DatumError(f"{path}: {exc}") from None
    return datum_from_dict(data)

