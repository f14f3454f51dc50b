"""Independent oracles the tests check the library against.

These deliberately take different computational routes from the package:
dense-array polynomial arithmetic, Horner-style evaluation, brute-force
grid searches, and the extension at infinity read off a line through the
origin.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from affdyn.polyring import Polynomial


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
