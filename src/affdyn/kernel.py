"""Hot-path evaluation of polynomial maps at exact rational points.

The kernel works in common-denominator form: a point of Q^n is a pair
``(nums, den)`` of integers with ``den > 0`` and ``gcd(*nums, den) == 1``.
This form is unique, maps directly onto the primitive homogeneous vector
``(den, *nums)`` used by heights, and keeps the inner loop free of
``Fraction`` overhead.  It is the one point form inside the package: the
samplers yield it, orbits and inequality records keep it, and
``to_common_denominator``/``to_fractions`` convert at the API edges.  The
raw-point helpers live here: ``max_bits`` for the bit budget and
``height_integer`` for the Weil height integer.

Two interchangeable backends implement ``eval_map``: a Cython extension
(``affdyn._speedups``, cythonized from ``_speedups.pyx`` when the package
is built) and a pure-Python twin (``affdyn._kernel_py``).  The compiled one
is preferred when importable; set ``AFFDYN_PURE_PYTHON=1`` to force the
fallback.  ``benchmarks/bench_backends.py`` compares them.

Within the package ``eval_point`` has two callers:
``AffineAutomorphism.apply`` and ``AffineAutomorphism.step``.  ``step`` is
the single orbit step that orbits, cycle detection, canonical heights and
the inequality records all share; it pairs each image with the bit-budget
test ``max_bits(...) > budget``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from . import _kernel_py

if os.environ.get("AFFDYN_PURE_PYTHON") == "1":
    _backend = _kernel_py
    BACKEND = "python"
else:
    try:
        from . import _speedups as _backend  # type: ignore[no-redef]

        BACKEND = "cython"
    except ImportError:
        _backend = _kernel_py
        BACKEND = "python"


@dataclass(frozen=True)
class CompiledMap:
    """A polynomial map flattened for the kernel.

    Per coordinate: integer-cleared terms, the cleared denominator, and the
    total degree.  ``max_exps`` caps the per-variable power tables.
    """

    nvars: int
    terms: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    denoms: tuple[int, ...]
    degs: tuple[int, ...]
    max_exps: tuple[int, ...]


def compile_map(coords) -> CompiledMap:
    """Flatten a sequence of ``Polynomial`` coordinates for the kernel."""
    if not coords:
        raise ValueError("cannot compile an empty map")
    nvars = coords[0].nvars
    all_terms = []
    denoms = []
    degs = []
    max_exps = [0] * nvars
    for poly in coords:
        if poly.nvars != nvars:
            raise ValueError("coordinates must share a variable count")
        denom = 1
        for coeff in poly.terms.values():
            denom = lcm(denom, coeff.denominator)
        terms = []
        deg = 0
        for exps, coeff in sorted(poly.terms.items()):
            terms.append((int(coeff * denom), exps))
            total = sum(exps)
            if total > deg:
                deg = total
            for i, e in enumerate(exps):
                if e > max_exps[i]:
                    max_exps[i] = e
        all_terms.append(tuple(terms))
        denoms.append(denom)
        degs.append(deg)
    return CompiledMap(nvars, tuple(all_terms), tuple(denoms), tuple(degs), tuple(max_exps))


def eval_point(cm: CompiledMap, nums: tuple[int, ...], den: int):
    """One map application in common-denominator form (exact)."""
    return _backend.eval_map(cm.terms, cm.denoms, cm.degs, cm.max_exps, nums, den)


def to_common_denominator(point: Sequence[Fraction | int]) -> tuple[tuple[int, ...], int]:
    """Canonical ``(nums, den)`` form of a rational point."""
    # ints and Fractions already carry reduced numerator and denominator.
    fracs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in point]
    den = lcm(*(f.denominator for f in fracs))
    nums = tuple(f.numerator * (den // f.denominator) for f in fracs)
    return nums, den


def to_fractions(nums: Sequence[int], den: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(n, den) for n in nums)


def max_bits(nums: Sequence[int], den: int) -> int:
    """Largest bit length among the integers of a raw point."""
    worst = den.bit_length()
    for n in nums:
        b = n.bit_length()
        if b > worst:
            worst = b
    return worst


def height_integer(nums: Sequence[int], den: int) -> int:
    """The Weil height integer ``max(den, |nums|)`` of a canonical raw point."""
    # (den, *nums) is already primitive in canonical common-denominator form.
    worst = den
    for n in nums:
        if n < 0:
            n = -n
        if n > worst:
            worst = n
    return worst


def normalize_projective(coords: Sequence[int]) -> tuple[int, ...]:
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
