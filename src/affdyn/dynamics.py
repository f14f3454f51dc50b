"""Affine automorphism pairs: verification, iteration, and regularity.

An automorphism is a pair of polynomial maps ``(f, f_inv)`` of affine
n-space, verified symbolically at construction; the verification *is* the
constructor.  It composes one order, ``f o f_inv``, and the other order
follows from it (the proof is in ``AffineAutomorphism``).

The regularity decision asks whether the indeterminacy loci of ``f`` and
``f_inv``, both of which live inside the hyperplane at infinity, are
disjoint.  On that hyperplane the projective extension of a map of degree
``d`` is ``(0 : F_1 : ... : F_n)``, where ``F_i`` is the degree-``d`` part
of coordinate ``i`` (zero when the coordinate has lower degree), so its
locus is the common zero set of the top-degree forms of the coordinates
of full degree.  ``is_regular`` reads these forms straight from the affine
coordinates of both maps.  In every dimension n >= 2 joint emptiness in
P^(n-1) is decided exactly by checking whether some power of the
irrelevant ideal lies in the span of monomial shifts of the constraint
forms, up to the Macaulay degree bound n*(max_degree - 1) + 1, which is a
complete criterion over the algebraic closure.  A "not regular" verdict
comes with a witness when the locus has a point with small integer
coordinates; the search visits each projective point of the box once.
Both steps read the forms as one ``kernel.CompiledMap``.  Each monomial
shift of a form is a sparse row built from its integer terms, and one
exact elimination over those rows gives the rank; each witness candidate
is evaluated by its ``eval_map``.

``AffineAutomorphism.orbit`` is the one loop over ``kernel.step``, the
budgeted map application; its ``OrbitResult`` keeps the height integer
``kernel.step`` measured for each point, which canonical heights and
reports read without a ``Fraction``.

Automorphisms and their derived objects are immutable; orbits of distinct
points may be computed in parallel with no coordination.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd
from typing import Literal, Sequence

from . import kernel
from .polyring import Polynomial

Direction = Literal["forward", "inverse"]
#: A point of Q^n in the kernel's common-denominator form ``(nums, den)``.
RawPoint = tuple[tuple[int, ...], int]

#: Per-integer bit-size cap for orbit coordinates (overridable everywhere).
DEFAULT_BIT_BUDGET = 2**20

REGULAR = "regular"
NOT_REGULAR = "not_regular"

#: Coordinate bound of the integer witness search at infinity.
WITNESS_BOUND = 6


class InputError(ValueError):
    """An input the library refuses: a malformed map, point, depth, sampler
    or start over the bit budget.  A ``ValueError``, so that callers who
    catch that see no change; the CLI reports it as an input error."""


class InverseVerificationError(ValueError):
    """``forward o inverse`` is not the identity.

    Carries the first offending coordinate index and its symbolic residual
    (composition coordinate minus the matching variable).
    """

    def __init__(self, coordinate: int, residual: Polynomial):
        self.coordinate = coordinate
        self.residual = residual
        super().__init__(
            f"forward o inverse is not the identity: coordinate {coordinate} "
            f"has residual {residual}"
        )


@dataclass(frozen=True)
class OrbitResult:
    """Orbit segment ``[P, f(P), ..., f^k(P)]`` with truncation metadata.

    ``raw`` holds the points in the kernel's canonical ``(nums, den)`` form;
    ``heights`` holds the height integer of each, as ``kernel.step``
    measured it.  ``truncated``
    is set when the bit budget stopped iteration before the requested
    depth; ``completed_depth`` then reports the last index that was
    actually computed.
    """

    raw: tuple[RawPoint, ...]
    heights: tuple[int, ...]
    truncated: bool = False

    @property
    def completed_depth(self) -> int:
        return len(self.raw) - 1


class AffineAutomorphism:
    """A verified polynomial automorphism pair of affine n-space.

    Construction composes ``F o G`` symbolically, F the forward and G the
    inverse map, and refuses anything that is not exactly the identity,
    reporting the first offending coordinate and its residual.  ``d`` and
    ``d_inv`` are the maximal coordinate degrees of the forward and
    inverse maps.

    ``G o F = id`` then follows, as F and G are maps of the same n-space
    (checked above the composition).  Write ``G*(p) = p o G`` for the ring endomorphism of Q[x_1..x_n].
    ``F o G = id`` gives ``G* o F* = id``, so G* is onto.  The kernels of
    the powers ``G*^k`` rise, and since Q[x_1..x_n] is Noetherian they
    stop growing at some k.  If ``G*(a) = 0``, write ``a = G*^k(b)``; then
    b lies in ``ker G*^(k+1) = ker G*^k``, so ``a = 0``.  So G* is
    bijective, ``F* o G* = id`` and ``G o F = id``.  The cost of a
    composition follows the terms of its outer map, and the forward map
    is the sparse one of every bundled pair.
    """

    def __init__(
        self,
        forward: Sequence[Polynomial],
        inverse: Sequence[Polynomial],
        names: Sequence[str] | None = None,
    ):
        forward = tuple(forward)
        inverse = tuple(inverse)
        if not forward or len(forward) != len(inverse):
            raise InputError("forward and inverse must list the same number of coordinates")
        n = len(forward)
        for poly in (*forward, *inverse):
            if poly.nvars != n:
                raise InputError("coordinate count and variable count must agree")
            if poly.is_zero:
                raise InputError("automorphism coordinates cannot be zero")
        for j in range(n):
            residual = forward[j].compose(inverse) - Polynomial.variable(n, j)
            if not residual.is_zero:
                raise InverseVerificationError(j, residual)
        self.n = n
        self.forward = forward
        self.inverse = inverse
        self.d = max(p.total_degree() for p in forward)
        self.d_inv = max(p.total_degree() for p in inverse)
        self.names = tuple(names) if names is not None else tuple(
            f"x{i}" for i in range(n)
        )
        self._compiled: dict[str, kernel.CompiledMap] = {}

    @property
    def degrees(self) -> tuple[int, int]:
        return (self.d, self.d_inv)

    def coordinates(self, direction: Direction) -> tuple[Polynomial, ...]:
        if direction == "forward":
            return self.forward
        if direction == "inverse":
            return self.inverse
        raise InputError(f"direction must be 'forward' or 'inverse', got {direction!r}")

    def degree(self, direction: Direction) -> int:
        return self.d if direction == "forward" else self.d_inv

    def compiled(self, direction: Direction) -> kernel.CompiledMap:
        if direction not in self._compiled:
            self._compiled[direction] = kernel.compile_map(self.coordinates(direction))
        return self._compiled[direction]

    @property
    def map_id(self) -> str:
        """Stable 12-hex digest of the canonical coordinate serialization."""
        from .parsing import format_polynomial

        text = ";".join(
            format_polynomial(p, self.names) for p in (*self.forward, *self.inverse)
        )
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    # -- evaluation ----------------------------------------------------

    def orbit(
        self,
        point: Sequence[Fraction | int],
        depth: int,
        direction: Direction = "forward",
        bit_budget: int = DEFAULT_BIT_BUDGET,
    ) -> OrbitResult:
        """``[P, f(P), ..., f^depth(P)]`` with exact arithmetic.

        The one loop over ``kernel.step``.  Stops early (``truncated``) as
        soon as any coordinate integer would exceed the bit budget; a start
        already over the budget, a point of the wrong length or an unknown
        direction is an ``InputError``, at any depth.
        """
        if depth < 0:
            raise InputError("depth must be >= 0")
        cm = self.compiled(direction)
        if len(point) != self.n:
            raise InputError(f"point has {len(point)} coordinates, expected {self.n}")
        raw = [kernel.to_common_denominator(point)]
        heights = [kernel.height_integer(*raw[0])]
        if heights[0].bit_length() > bit_budget:
            raise InputError("starting point already exceeds the bit budget")
        truncated = False
        for _ in range(depth):
            image, height = kernel.step(cm, *raw[-1], heights[-1].bit_length(), bit_budget)
            truncated = image is None
            if truncated:
                break
            raw.append(image)
            heights.append(height)
        return OrbitResult(tuple(raw), tuple(heights), truncated)


# -- regularity ---------------------------------------------------------


@dataclass(frozen=True)
class RegularityResult:
    """Verdict plus certificate for the joint-indeterminacy decision.

    ``witness`` (when present) is a projective point on the hyperplane at
    infinity, written with the leading 0 slot: ``(0, w1, ..., wn)``.
    """

    verdict: str
    method: str
    witness: tuple[int, ...] | None = None
    details: dict = field(default_factory=dict)


def is_regular(automorphism: AffineAutomorphism) -> RegularityResult:
    """Decide whether the two indeterminacy loci are disjoint.

    Exact in every dimension n >= 2: the verdict is "regular" or
    "not_regular", never a guess.  A "not_regular" verdict carries a
    witness on the hyperplane at infinity when one has integer
    coordinates of absolute value at most ``WITNESS_BOUND``.
    """
    n = automorphism.n
    if n < 2:
        raise InputError("regularity is defined for dimension >= 2")
    constraints = _constraint_forms(automorphism.forward, automorphism.d)
    constraints += _constraint_forms(automorphism.inverse, automorphism.d_inv)
    cm = kernel.compile_map(constraints)
    method = "irrelevant-power-elimination"
    empty, details = _projective_system_empty(cm, n)
    if empty:
        return RegularityResult(REGULAR, method, details=details)
    candidates = _primitive_vectors(n, WITNESS_BOUND)
    witness = next((w for w in candidates if not any(cm.eval_map(w, 1, None)[0])), None)
    if witness is not None:
        details = dict(details, witness_verified=True)
        return RegularityResult(NOT_REGULAR, method, witness=(0, *witness), details=details)
    details = dict(details, witness_search_bound=WITNESS_BOUND)
    return RegularityResult(NOT_REGULAR, method, details=details)


def _constraint_forms(coords: Sequence[Polynomial], degree: int) -> tuple[Polynomial, ...]:
    """Top-degree parts of the coordinates of full degree, in coordinate
    order: their common zeros at infinity are the indeterminacy locus."""
    return tuple(p.leading_form() for p in coords if p.total_degree() == degree)


def _monomials(degree: int, nvars: int) -> list[tuple[int, ...]]:
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in _monomials(degree - first, nvars - 1):
            out.append((first, *rest))
    return out


def _projective_system_empty(cm: kernel.CompiledMap, n: int) -> tuple[bool, dict]:
    """Emptiness in P^(n-1) over the algebraic closure of the common zeros
    of the forms compiled in ``cm``.

    The system is empty iff every monomial of some degree N lies in the
    span of the monomial shifts of the forms; if the variety is empty this
    happens by N = n*(max_degree - 1) + 1 (Macaulay bound applied to n
    generic members of the degree-capped system), so scanning up to that
    bound is a complete decision.
    """
    if len(cm.terms) < n:
        # Fewer than n hypersurfaces in P^(n-1) always intersect.
        return False, {"reason": f"fewer than {n} constraints"}
    bound = n * (cm.deg - 1) + 1
    for target in range(cm.deg, bound + 1):
        if _spans_all_monomials(cm, n, target):
            return True, {"saturation_degree": target, "bound": bound}
    return False, {"reason": "no saturation up to the degree bound", "bound": bound}


def _spans_all_monomials(cm: kernel.CompiledMap, n: int, target: int) -> bool:
    """Whether the degree-``target`` shifts of the integer-cleared forms
    span every monomial of that degree.

    Each shift is a sparse row, monomial to coefficient, reduced against
    the pivots found so far (keyed by their largest monomial) by
    fraction-free steps with content reduction; what is left becomes a new
    pivot.  The pivots are independent, so their count is the rank.
    """
    pivots: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for terms, deg in zip(cm.terms, cm.degs):
        for shift in _monomials(target - deg, n):
            row = {tuple(a + b for a, b in zip(exps, shift)): coeff for coeff, exps in terms}
            while row:
                lead = max(row)
                pivot = pivots.get(lead)
                if pivot is None:
                    pivots[lead] = row
                    break
                g = gcd(pivot[lead], row[lead])
                a, b = pivot[lead] // g, row[lead] // g
                row = {mono: a * coeff for mono, coeff in row.items()}
                for mono, coeff in pivot.items():
                    value = row.get(mono, 0) - b * coeff
                    if value:
                        row[mono] = value
                    else:
                        del row[mono]
                content = gcd(*row.values())
                if content > 1:
                    row = {mono: coeff // content for mono, coeff in row.items()}
    return len(pivots) == comb(target + n - 1, n - 1)


def _primitive_vectors(n: int, bound: int):
    """Every projective point with integer coordinates in ``[-bound, bound]``
    once: the primitive vectors whose first nonzero entry is positive, in
    lexicographic order."""
    for lead in range(n - 1, -1, -1):
        zeros = (0,) * lead
        for value in range(1, bound + 1):
            for tail in itertools.product(range(-bound, bound + 1), repeat=n - 1 - lead):
                if gcd(value, *tail) == 1:
                    yield (*zeros, value, *tail)
