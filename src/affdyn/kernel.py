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
is used whenever it imports; ``BACKEND`` names the active one.  To run the
pure-Python kernel, install without the extension (``AFFDYN_NO_EXT=1``).
``benchmarks/bench_backends.py`` compares them.

Within the package ``eval_point`` has two callers:
``AffineAutomorphism.apply`` and ``AffineAutomorphism.step``.  ``step`` is
the single orbit step that orbits, cycle detection, canonical heights and
the inequality records all share; it pairs each image with the bit-budget
test ``max_bits(...) > budget``.

Before it evaluates, ``step`` asks ``exceeds_budget`` whether the image is
certain to break the budget; if so the image is never computed.  The bound
reads only bit lengths.  A nonzero integer of bit length ``b`` lies in
``[2^(b-1), 2^b)``, so every term ``t = c * prod x_i^e_i * den^(deg-s)`` of
coordinate ``j`` satisfies ``2^lo <= |t| < 2^hi``, with ``lo`` and ``hi``
the sums of the factors' ``b - 1`` and ``b``.  If the term with the largest
``lo`` has ``lo >= hi' + bitlen(m) + 1``, where ``hi'`` is the largest
``hi`` of the ``m`` other nonzero terms, those terms sum to less than
``2^(lo-1)`` and the numerator ``acc`` has ``|acc| > 2^(lo-1)``.  The
gcd reduction divides ``acc`` by a divisor of ``denoms[j] * den^deg``, which
is below ``2^B`` with ``B = bitlen(denoms[j]) + deg * bitlen(den)``, so
the reduced numerator exceeds ``2^(lo-1-B)``; the common-denominator
rescale only multiplies it.  Hence ``lo - B > budget`` proves an image
integer of more than ``budget`` bits.  The test is one-sided: cancellation
between terms of similar size makes it answer False, never wrongly True.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from . import _kernel_py

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
    ``deg`` and ``coeff_bits`` (the largest degree and cleared-coefficient
    bit length) feed the cheap test that decides whether ``exceeds_budget``
    can fire at all.
    """

    nvars: int
    terms: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    denoms: tuple[int, ...]
    degs: tuple[int, ...]
    max_exps: tuple[int, ...]
    deg: int
    coeff_bits: int


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
    coeff_bits = max((c.bit_length() for terms in all_terms for c, _ in terms), default=0)
    return CompiledMap(
        nvars, tuple(all_terms), tuple(denoms), tuple(degs), tuple(max_exps),
        max(degs), coeff_bits,
    )


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


def exceeds_budget(cm: CompiledMap, nums: Sequence[int], den: int, budget: int) -> bool:
    """True only if the canonical image of ``nums / den`` under ``cm`` is
    certain to hold an integer of more than ``budget`` bits.

    Uses bit lengths alone (see the module docstring for the bound); False
    means "not proven", not "fits".
    """
    bits = [n.bit_length() for n in nums]
    den_bits = den.bit_length()
    for terms, denom, deg in zip(cm.terms, cm.denoms, cm.degs):
        top_lo = top_hi = rest_hi = -1
        others = -1
        for coeff, exps in terms:
            lo = hi = coeff.bit_length()
            if not hi:
                continue
            lo -= 1
            s = 0
            for b, e in zip(bits, exps):
                if e:
                    if not b:
                        break  # a zero coordinate kills the term
                    lo += e * (b - 1)
                    hi += e * b
                    s += e
            else:
                lo += (deg - s) * (den_bits - 1)
                hi += (deg - s) * den_bits
                others += 1
                if lo > top_lo:  # a new top term; the old one joins the others
                    top_lo, top_hi, hi = lo, hi, top_hi
                if hi > rest_hi:
                    rest_hi = hi
        if others < 0:
            continue  # the coordinate vanishes
        if others and top_lo < rest_hi + others.bit_length() + 1:
            continue  # no dominant term: the terms may cancel
        if top_lo - denom.bit_length() - deg * den_bits > budget:
            return True
    return False


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
