"""Independent oracles the tests check the library against.

These deliberately take different computational routes from the package:
dense-array polynomial arithmetic, Horner-style evaluation, a table
interpreter for compiled maps, brute-force grid searches, the extension
at infinity read off a line through the origin, and a dense exact rank of
the Macaulay rows that the regularity decision eliminates sparsely.
The package keeps points in ``(nums, den)`` form only; ``to_fractions``
and ``orbit_points`` give them the ``Fraction`` coordinates that
``Polynomial.evaluate`` and the exact comparisons here take.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from affdyn.dynamics import AffineAutomorphism, Direction
from affdyn.polyring import Polynomial


def identity(n: int) -> AffineAutomorphism:
    """The pair ``(id, id)`` of affine n-space."""
    coords = tuple(Polynomial.variable(n, i) for i in range(n))
    return AffineAutomorphism(coords, coords)


def apply(
    automorphism: AffineAutomorphism, point, direction: Direction = "forward"
) -> tuple[Fraction, ...]:
    """Exact image of a rational point by ``Polynomial.evaluate`` on each
    coordinate: ``Fraction`` arithmetic, not the kernel."""
    return tuple(p.evaluate(point) for p in automorphism.coordinates(direction))


def to_fractions(nums, den) -> tuple[Fraction, ...]:
    """A point's canonical ``(nums, den)`` form as ``Fraction`` coordinates,
    the form that ``Polynomial.evaluate`` takes."""
    return tuple(Fraction(a, den) for a in nums)


def orbit_points(orbit) -> tuple[tuple[Fraction, ...], ...]:
    """The points of an ``OrbitResult`` as ``Fraction`` tuples."""
    return tuple(to_fractions(nums, den) for nums, den in orbit.raw)


def to_dense(p: Polynomial) -> np.ndarray:
    shape = tuple(
        max((exps[i] for exps in p.terms), default=0) + 1 for i in range(p.nvars)
    )
    arr = np.zeros(shape, dtype=object)
    for exps, coeff in p.terms.items():
        arr[exps] = coeff
    return arr


def from_dense(arr: np.ndarray, nvars: int) -> Polynomial:
    terms = {}
    for idx in np.ndindex(arr.shape):
        if arr[idx]:
            terms[idx] = Fraction(arr[idx])
    return Polynomial(nvars, terms)


def _pad(arr: np.ndarray, shape) -> np.ndarray:
    out = np.zeros(shape, dtype=object)
    out[tuple(slice(0, s) for s in arr.shape)] += arr
    return out


def dense_add(p: Polynomial, q: Polynomial) -> Polynomial:
    a, b = to_dense(p), to_dense(q)
    shape = tuple(max(x, y) for x, y in zip(a.shape, b.shape))
    return from_dense(_pad(a, shape) + _pad(b, shape), p.nvars)


def dense_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    a, b = to_dense(p), to_dense(q)
    shape = tuple(x + y - 1 for x, y in zip(a.shape, b.shape))
    out = np.zeros(shape, dtype=object)
    for ia in np.ndindex(a.shape):
        if not a[ia]:
            continue
        for ib in np.ndindex(b.shape):
            if b[ib]:
                out[tuple(x + y for x, y in zip(ia, ib))] += a[ia] * b[ib]
    return from_dense(out, p.nvars)


def horner_eval(p: Polynomial, point) -> Fraction:
    """Evaluate via nested Horner schemes, one variable at a time."""
    values = [Fraction(v) for v in point]

    def recurse(terms: dict, var: int) -> Fraction:
        if var < 0:
            return sum(terms.values(), Fraction(0))
        # Split by the power of ``var``; each layer keeps the lower variables.
        layers: dict[int, dict] = {}
        for exps, coeff in terms.items():
            layers.setdefault(exps[var], {})[exps[:var]] = coeff
        acc = Fraction(0)
        for power in range(max(layers, default=0), -1, -1):
            acc = acc * values[var] + recurse(layers.get(power, {}), var - 1)
        return acc

    return recurse(dict(p.terms), p.nvars - 1)


def interpret_map(cm, nums, den):
    """Evaluate a ``kernel.CompiledMap`` at ``nums / den`` by walking its
    monomial tables, with per-variable power tables; returns the canonical
    common-denominator image, as the generated ``cm.eval_map`` must."""
    nvars = len(nums)
    max_exps = [max((exps[i] for terms in cm.terms for _, exps in terms), default=0)
                for i in range(nvars)]
    pows = []
    for i in range(nvars):
        row = [1] * (max_exps[i] + 1)
        for k in range(1, max_exps[i] + 1):
            row[k] = row[k - 1] * nums[i]
        pows.append(row)
    denp = [1] * (max(cm.degs) + 1)
    for k in range(1, len(denp)):
        denp[k] = denp[k - 1] * den

    red_nums = []
    red_dens = []
    for terms, denom, deg in zip(cm.terms, cm.denoms, cm.degs):
        acc = 0
        for coeff, exps in terms:
            t = coeff
            for i in range(nvars):
                t *= pows[i][exps[i]]
            acc += t * denp[deg - sum(exps)]
        raw_den = denom * denp[deg]
        g = gcd(acc, raw_den)
        red_nums.append(acc // g)
        red_dens.append(raw_den // g)

    new_den = lcm(*red_dens)
    return tuple(n * (new_den // d) for n, d in zip(red_nums, red_dens)), new_den


def normalize_projective(coords) -> tuple[int, ...]:
    """Primitive form of an integer homogeneous vector: divide by the gcd
    and make the first nonzero coordinate positive."""
    g = 0
    for c in coords:
        g = gcd(g, c)
    if g == 0:
        raise ValueError("all homogeneous coordinates are zero")
    out = [c // g for c in coords]
    for c in out:
        if c:
            if c < 0:
                out = [-x for x in out]
            break
    return tuple(out)


def grid_common_zeros(forms, grid) -> list[tuple]:
    """All points of the finite grid killing every form."""
    out = []
    for cand in itertools.product(grid, repeat=forms[0].nvars):
        if all(f.evaluate(cand) == 0 for f in forms):
            out.append(cand)
    return out


def undefined_at_infinity(coords, direction) -> bool:
    """Whether the projective extension of the map ``coords`` is undefined
    at the point ``(0 : w)`` of the hyperplane at infinity.

    Along the line ``x = w*s`` a coordinate of the degree-``d`` map grows
    like ``F(w) * s^d``, where ``F`` is its degree-``d`` part, so the
    extension at ``(0 : w)`` is ``(0 : F_1(w) : ... : F_n(w))``.  It is
    undefined exactly when every ``s^d`` coefficient vanishes (a
    coordinate of lower degree has none).
    """
    degree = max(p.total_degree() for p in coords)
    s = Polynomial.variable(1, 0)
    line = [Polynomial.constant(1, w) * s for w in direction]
    return all(p.compose(line).terms.get((degree,), 0) == 0 for p in coords)


def _monomials(degree: int, nvars: int) -> list[tuple[int, ...]]:
    """Exponent vectors of the monomials of one degree, in any order."""
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def dense_spans_all_monomials(cm, n: int, target: int) -> bool:
    """Whether the degree-``target`` monomial shifts of the forms compiled
    in ``cm`` span every monomial of that degree, by the dense rank of one
    list row per shift over one column per monomial."""
    basis = {mono: i for i, mono in enumerate(_monomials(target, n))}
    rows: list[list[int]] = []
    for terms, deg in zip(cm.terms, cm.degs):
        for shift in _monomials(target - deg, n):
            row = [0] * len(basis)
            for coeff, exps in terms:
                row[basis[tuple(a + b for a, b in zip(exps, shift))]] = coeff
            rows.append(row)
    return integer_rank(rows) == len(basis)


def integer_rank(rows: list[list[int]]) -> int:
    """Row rank over Q by fraction-free elimination with content reduction,
    sweeping the columns in order."""
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while col < ncols and rank < len(rows):
        pivot_row = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            col += 1
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            entry = rows[r][col]
            if not entry:
                continue
            new_row = [pivot * a - entry * b for a, b in zip(rows[r], rows[rank])]
            content = 0
            for value in new_row:
                content = gcd(content, value)
                if content == 1:
                    break
            if content > 1:
                new_row = [value // content for value in new_row]
            rows[r] = new_row
        rank += 1
        col += 1
    return rank
