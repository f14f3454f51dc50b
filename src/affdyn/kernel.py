"""Hot-path evaluation of polynomial maps at exact rational points.

The kernel works in common-denominator form: a point of Q^n is a pair
``(nums, den)`` of integers with ``den > 0`` and ``gcd(*nums, den) == 1``.
This form is unique, maps directly onto the primitive homogeneous vector
``(den, *nums)`` used by heights, and keeps the inner loop free of
``Fraction`` overhead.  It is the one point form inside the package: the
samplers yield it (the rational ones build it from reduced integer pairs
with ``from_pairs``, which ``to_common_denominator`` calls too),
orbits and inequality records keep it, and ``to_common_denominator``
converts only at the API edges: the start point of ``orbit``,
``weil_height_integer`` and ``format_point`` (which the ``height``
subcommand calls).  No function of the package turns a point back into
``Fraction`` coordinates.
``to_common_denominator`` takes ``int`` and ``Fraction`` coordinates only,
which carry exact reduced parts; anything else is a ``TypeError``.
The raw-point statistic lives here too: ``height_integer``, the Weil
height integer, whose bit length is the point's size for the bit budget.

``compile_map`` is the one place where polynomial denominators are
cleared: each coordinate becomes integer terms over one cleared
denominator, kept on the ``CompiledMap``.  Three code paths read these
tables: map evaluation (the source builder below, which reads them once
when the map is compiled, and ``exceeds_budget``), ``dynamics.is_regular``
(the sparse rows of its exact elimination and the witness search, over
its compiled constraint forms) and ``heights.height_growth_constant``.

``compile_map`` also writes each map as straight-line Python, one source
(``_evaluator_source``) with two functions, compiled once and kept on the
``CompiledMap``: ``eval_map(nums, d1, sq)``, the canonical image, and
``eval_height(nums, d1)``, the height integer of that image, which builds
no image tuple.  Both come from the same cleared terms, power chain and
numerators.  ``eval_map`` first computes each power ``x_i^e`` that any
term needs exactly once,
as a local ``x<i>_<e>``, by the binary chain: an even power squares
``x<i>_<e/2>``, an odd one multiplies ``x<i>_<e-1>`` by ``x<i>``
(``x0_2 = x0*x0``, ``x0_4 = x0_2*x0_2``).  This power block squares with
``sq(...)`` when the caller passes a squaring function and with ``*``
otherwise.  The evaluator then spells out every monomial (``x2 + x1_2``)
over one denominator for all coordinates, the least common multiple ``L``
of the cleared ones times ``d1^m`` for the largest degree ``m``, and
computes the powers ``d2, d3, ...`` of ``d1`` once.  One gcd of that
denominator and every numerator reduces the image, and the division is
skipped when the gcd is 1.  On integer points (``d1 == 1``) the
denominator is ``L``, and when ``L`` is 1 the numerators are returned
with no gcd at all; this branch and the scaled one share the power
locals.  ``eval_height`` runs the same statements with the power block
in plain ``*`` (its one caller stays below ``square_bits``), then takes
``h``, the largest of the denominator and every ``|a<j>|`` by an
unrolled scan, and divides it by the one gcd when that is not 1: the
largest entry of the vector divided by ``g`` is the largest entry
divided by ``g``.  The source is built from integer literals and fixed
names only (``eval_map`` and ``eval_height``, ``x0, x1, ...`` for the
numerators, ``x<i>_<e>`` for their powers, ``d1, d2, ...`` for the
denominator powers, ``a<j>`` for the image numerators, ``b0`` for their
denominator, ``g``, ``h``, ``gcd`` and ``sq``): no text from a map file
reaches ``exec``.  This is the one kernel; ``tests/oracles.py`` keeps a
table interpreter, which reduces each coordinate by its own gcd and
multiplies with plain ``*``, that checks it.

Deep orbits spend almost all their time squaring integers of up to
millions of bits, and CPython 3.11 squares an ``int`` by Karatsuba.
``square`` squares exactly by one Schönhage–Strassen transform
(Schönhage and Strassen, *Computing* 7, 1971) from ``SQUARE_CUTOFF`` bits
on; below the cutoff it is ``a*a``.  For an operand of ``n`` bits it takes
``k = (n.bit_length() - 1) // 2`` and ``K = 2^k``, and cuts ``|a|`` into
``K/2`` pieces ``a_i`` of ``M`` bits, ``M`` the least multiple of 8 with
``M*K/2 >= n``, by slicing its bytes.  Then ``a^2 = sum c_j 2^(jM)`` with
``c_j = sum_(i+i'=j) a_i a_i'`` for ``j < K - 1``: the convolution of the
pieces, which the cyclic one of length ``K`` of the pieces padded with
``K/2`` zeros equals, since no index wraps.  Each ``c_j`` sums at most
``K/2`` products of at most ``(2^M - 1)^2``, so
``0 <= c_j <= (K/2)(2^M - 1)^2 < 2^(2M+k-1)``.

The convolution is taken in the ring ``Z/(2^L + 1)``, with ``L`` the least
multiple of ``K/2`` from ``2M + k - 1`` on.  There ``2^L = -1``, so
``w = 2^(2L/K)`` has ``w^(K/2) = -1`` and is a principal ``K``-th root of
unity, and ``K``, a power of 2, is a unit of the odd modulus with
``1/K = -2^(L-k)``.  The transform by ``w``, pointwise squaring, and the
transform by ``1/w`` divided by ``K`` give each ``c_j`` modulo
``2^L + 1``; because ``0 <= c_j < 2^(2M+k-1) <= 2^L``, its least residue
is ``c_j`` itself, and the result is exact.  Every twiddle factor is a
power of 2, applied as a shift (``w^(-e) = -2^(L - 2Le/K)``), and every
reduction is ``(v & mask) - (v >> L)`` with ``mask = 2^L - 1``, which is
congruent to ``v`` for every integer ``v`` (``v = (v >> L)*2^L + (v &
mask)``) and keeps each entry within a few bits of ``L``: no division
runs, as CPython's is quadratic.  The forward transform decimates in
frequency and leaves its output in bit-reversed order; the inverse
decimates in time and restores the natural order, so no permutation runs.
The ``K`` pointwise squares go through ``square`` itself, so an operand
whose ``L`` reaches the cutoff (about 2^31 bits) recurses.  The
coefficients are carried into one integer by adding adjacent pairs, level
by level, in ``O(n log K)``.

The cutoff and the rule for ``k`` were measured on random integers with
the top bit set (2-vCPU x86_64, Python 3.11.7, a shared and noisy host).
``square`` won 0 of 21 interleaved pairs against ``a*a`` at 150 kbit, 8 at
175 kbit, 17 at 200 kbit and 19 or 20 from 250 to 400 kbit.  Best of 5
interleaved, in ms, for ``a*a`` and the transform with the rule's ``k`` and
its neighbours:

    ======  ==  =====  =====  =====  =====
    bits    k   a*a    k - 1  k      k + 1
    ======  ==  =====  =====  =====  =====
    200k     8    8.8    7.3    7.1    9.6
    400k     9   24.2   15.8   16.5   23.3
    700k     9   39.4   22.1   22.1   21.2
    1.4M    10  122.1   47.1   44.4   50.0
    2.8M    10  385.9  119.6  108.3  103.7
    5.6M    11   1195  241.9  216.9  215.8
    ======  ==  =====  =====  =====  =====

``step`` passes ``square`` only when some squaring in the power block can
reach the cutoff (see ``step``), so small points pay nothing for it.

From ``SPLIT_CUTOFF`` bits on, ``square`` runs the two halves of its
transform on two processes (``_in_order``, below).  The top forward level
adds the padding ``v[j + K/2] = 0`` to ``v[j]``, so the lower half is the
pieces as they are and the upper half the pieces twisted by ``2^(t*j)``.
Every forward level below the top, the pointwise squares and every
inverse level but the top stay within one half (``_square_half``): this
process runs the lower half and the worker the upper one.  This process
then runs the top inverse level, the scaling by ``1/K`` and the carry.
Each half runs the operations of the one-process transform on the same
values, so the result is the same integer.  The cutoff was measured as
above, medians of interleaved runs in ms, one process against two
(``split`` counts the runs that the split won):

    ======  =====  =====  =====
    bits    one    two    split
    ======  =====  =====  =====
    352k     14.7   15.1  10/31
    440k     12.1   15.8  18/41
    470k     22.1   17.0  41/41
    500k     24.7   20.3  31/31
    704k     36.9   24.9  31/31
    1.4M     66.9   43.2  21/21
    2.8M     99.0   87.0  20/21
    ======  =====  =====  =====

Below about 450 kbit the fork and the pickled half that comes back cost
about what the second CPU saves.

The orbit stays in ``int``.  libmpdec's ``Decimal`` multiplies faster
still, but converting a coordinate between ``int`` and ``Decimal`` is
quadratic (``int(Decimal)`` takes about 12 s at 1.7 Mbit), and every
consumer of an orbit, from the height integers to the hex in reports,
reads ``int``.

Within the package ``eval_point`` has one caller, ``step``, the one
budgeted map application, and ``step`` has two callers.
``AffineAutomorphism.orbit`` is the one loop over it, which canonical
heights read; it reuses the height integer of each image for the next
step, so each integer is measured once.  ``inequality.batch_verify``
evaluates each sampled point at most once each way, over the two
compiled maps it fetches once per run, and so measures each of the three
height integers of a record once.  It steps only points above the
largest height bit length at which ``step`` of either map would neither
ask ``exceeds_budget`` nor pass ``square``; every point at or under it
goes through the maps' ``eval_height`` with ``step``'s own final budget
test, which is what ``step`` does at that size.  ``eval_height`` has no
other caller.

Before it evaluates, ``step`` asks ``exceeds_budget`` whether the image is
certain to break the budget; if so the image is never computed.  It asks
only when the point's height bit length lets the question get a True
answer at all (see ``step``).  The bound reads only bit lengths.  A
nonzero integer of bit length ``b`` lies in
``[2^(b-1), 2^b)``, so every term ``t = c * prod x_i^e_i * den^(deg-s)`` of
coordinate ``j`` satisfies ``2^lo <= |t| < 2^hi``, with ``lo`` and ``hi``
the sums of the factors' ``b - 1`` and ``b``.  If the term with the largest
``lo`` has ``lo >= hi' + bitlen(m) + 1``, where ``hi'`` is the largest
``hi`` of the ``m`` other nonzero terms, those terms sum to less than
``2^(lo-1)`` and the numerator ``acc`` has ``|acc| > 2^(lo-1)``.  In the
evaluator's terms, coordinate ``j`` is ``N_j / D`` with ``|N_j| / D =
|acc| / (denoms[j] * den^deg)``, and the canonical image divides ``N_j``
and ``D`` by their common gcd ``g <= D``.  So its numerator is at least
``|N_j| / D``, which exceeds ``2^(lo-1-B)`` with ``B = bitlen(denoms[j]) +
deg * bitlen(den)``, as ``denoms[j] * den^deg < 2^B``.  Hence ``lo - B >
budget`` proves an image integer of more than ``budget`` bits.  The test
is one-sided: cancellation between terms of similar size makes it answer
False, never wrongly True.

Work on two processes.  ``_in_order(blocks, work)`` yields
``work(block)`` for each block in order, and it is the one place where the
package forks: ``inequality`` runs its sample blocks and its report
blocks through it, ``heights.canonical`` its two directions, and
``square`` the two halves of a large transform.  When the platform has
``os.fork`` and ``os.sched_getaffinity``, the process may run on at least
two CPUs and no other Python thread runs (``_fork_allowed``), it forks
exactly one worker (``_Worker``).  The worker runs blocks 1, 3, 5, ...
and sends each result back pickled over a pipe; this process runs blocks
0, 2, 4, ... and takes the results in block order.  Otherwise every block
runs here, one after the other.  The fork-first rule decides when the
worker starts.  A sized sequence of two blocks or more, such as the report
writers' block lists, ``canonical``'s two directions or ``square``'s two
halves, forks before this process runs block 0, so that blocks 0 and 1
run at once.  Any other iterable forks when its second block is drawn, so
a stream of one block forks nothing; a stream is not peeked, since
holding its first block whole to learn whether a second exists retained
about 390 kB of freed point tuples in CPython's free lists after a box:6
report (``tests/test_record_memory.py``).  Both processes draw every
block from the same stream, which the fork copies with its state.  A
worker's exception is raised here in its block's turn, so the results and
the first error are those of one process.  The worker always ends by
``os._exit``: it never flushes a buffered ``stdout`` or ``--out`` handle
that it inherited, and never runs exit handlers.  A worker may start a
worker of its own: a split ``square`` in ``canonical``'s inverse orbit
does.  Kernel calls and spans counted in this process (a wrapped
``kernel`` function, a tracer) see only the blocks that it ran; the
traced ``kernel.eval_point.*`` and ``heights.canonical.*`` counts cover
this process's half only.  Of ``batch_verify``'s sample points,
``kernel.eval_point`` sees only those that it steps, above the size
given above.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections.abc import Callable, Iterable, Iterator, Sequence, Sized
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import NoReturn

#: The kernel's implementation, recorded with benchmark results so that
#: results from different kernels are never compared.
BACKEND = "python"

#: Bit length from which ``square`` squares by a Schönhage–Strassen
#: transform; below it CPython's own product is faster (see the module
#: docstring).
SQUARE_CUTOFF = 200_000

#: Bit length from which ``square`` runs the two halves of its transform on
#: two processes when ``_fork_allowed()`` (see the module docstring).
SPLIT_CUTOFF = 450_000


@dataclass(frozen=True)
class CompiledMap:
    """A polynomial map flattened for the kernel.

    Per coordinate: integer-cleared terms, the cleared denominator, and the
    total degree; ``exceeds_budget``, ``dynamics.is_regular`` and
    ``heights.height_growth_constant`` read these.  ``deg`` and
    ``coeff_bits`` (the largest degree, and the largest bit length of a
    coefficient in ``terms``, before the evaluator scales coordinate ``j``
    by ``lcm(denoms) // denoms[j]``) feed the cheap test that decides
    whether ``exceeds_budget`` can fire at all (see ``step``).
    ``square_bits`` is the height bit length from which a squaring in the
    power block can reach ``SQUARE_CUTOFF`` (see ``step``).  ``source`` is
    the generated straight-line source, and ``eval_map`` and
    ``eval_height`` the two functions compiled from it.
    """

    terms: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    denoms: tuple[int, ...]
    degs: tuple[int, ...]
    deg: int
    coeff_bits: int
    square_bits: int
    source: str = field(repr=False, compare=False)
    eval_map: Callable = field(repr=False, compare=False)
    eval_height: Callable = field(repr=False, compare=False)


def compile_map(coords) -> CompiledMap:
    """Flatten a sequence of ``Polynomial`` coordinates for the kernel and
    generate its evaluator."""
    if not coords:
        raise ValueError("cannot compile an empty map")
    nvars = coords[0].nvars
    all_terms = []
    denoms = []
    degs = []
    for poly in coords:
        if poly.nvars != nvars:
            raise ValueError("coordinates must share a variable count")
        denom = 1
        for coeff in poly.terms.values():
            denom = lcm(denom, coeff.denominator)
        terms = tuple((int(coeff * denom), exps) for exps, coeff in sorted(poly.terms.items()))
        all_terms.append(terms)
        denoms.append(denom)
        degs.append(max((sum(exps) for _, exps in terms), default=0))
    coeff_bits = max((c.bit_length() for terms in all_terms for c, _ in terms), default=0)
    # The largest squaring operand is x_i^(deg // 2): see ``step``.
    square_bits = -(-SQUARE_CUTOFF // max(1, max(degs) // 2))
    source = _evaluator_source(nvars, all_terms, denoms, degs)
    namespace = {"__builtins__": {}, "gcd": gcd}
    exec(compile(source, "<affdyn.kernel.compile_map>", "exec"), namespace)
    return CompiledMap(
        tuple(all_terms), tuple(denoms), tuple(degs), max(degs), coeff_bits,
        square_bits, source, namespace["eval_map"], namespace["eval_height"],
    )


def _evaluator_source(nvars, terms, denoms, degs) -> str:
    """Python source of ``eval_map(nums, d1, sq)`` and ``eval_height(nums,
    d1)`` for the cleared map.

    With ``L = lcm(denoms)`` and ``m = max(degs)``, the image is
    ``(N_0, ...) / D`` with ``D = L * d1^m`` and ``N_j`` the sum of
    ``c * (L // denoms[j]) * x^e * d1^(m - |e|)`` over the terms of
    coordinate ``j``.  One gcd of ``D`` and every ``N_j`` divides the vector
    down to the canonical form, the unique primitive integer vector with a
    positive last entry on its line.  ``eval_map`` returns that form and
    ``eval_height`` its height integer, the largest of ``D`` and every
    ``|N_j|`` divided by the same gcd.  Only integers and fixed names are
    written.
    """
    common = lcm(*denoms)
    terms = [[(c * (common // denom), exps) for c, exps in coordinate]
             for coordinate, denom in zip(terms, denoms)]
    unpack = f"    {', '.join(f'x{i}' for i in range(nvars))}{',' if nvars == 1 else ''} = nums"
    powers = _power_chain(terms)
    dmax = max(degs)
    lines = []
    for height in (False, True):
        lines.append("def eval_height(nums, d1):" if height else "def eval_map(nums, d1, sq):")
        if nvars:
            lines.append(unpack)
        if height:  # called only below square_bits: no sq
            lines += [f"    {_power(i, e)} = {_power_product(i, e, False)}" for i, e in powers]
        elif powers:
            lines.append("    if sq:")
            lines += [f"        {_power(i, e)} = {_power_product(i, e, True)}" for i, e in powers]
            lines.append("    else:")
            lines += [f"        {_power(i, e)} = {_power_product(i, e, False)}" for i, e in powers]
        lines.append("    if d1 == 1:")
        lines += _reduction(terms, common, 0, "        ", height)
        lines += [f"    d{k} = d{k - 1}*d1" for k in range(2, dmax + 1)]
        lines += _reduction(terms, common, dmax, "    ", height)
    return "\n".join(lines) + "\n"


def _power_chain(terms) -> list[tuple[int, int]]:
    """Every ``(i, e)`` with ``e > 1`` whose power ``x_i^e`` a term needs
    or the binary chain passes through, each after those it is built from."""
    powers = set()
    for coordinate in terms:
        for _, exps in coordinate:
            for i, e in enumerate(exps):
                while e > 1 and (i, e) not in powers:
                    powers.add((i, e))
                    e = e // 2 if e % 2 == 0 else e - 1
    return sorted(powers)


def _power(i: int, e: int) -> str:
    return f"x{i}_{e}" if e > 1 else f"x{i}"


def _power_product(i: int, e: int, squared: bool) -> str:
    if e % 2:
        return f"{_power(i, e - 1)}*x{i}"
    half = _power(i, e // 2)
    return f"sq({half})" if squared else f"{half}*{half}"


def _reduction(terms, common: int, deg: int, indent: str, height: bool) -> list[str]:
    """Statements returning the image ``(N_0, ...) / D``, with ``D = common
    * d1^deg``, in canonical form: the vector divided by its gcd, when that
    is not 1.  With ``height``, they return its height integer instead:
    the largest of ``D`` and every ``|N_j|``, divided by the same gcd."""
    nums = [_numerator(t, deg) for t in terms]
    factors = ([str(common)] if common != 1 else []) + ([f"d{deg}"] if deg else [])
    names = [f"a{j}" for j in range(len(nums))]
    if not height and not factors:  # the denominator is 1: the numerators are the image
        return [f"{indent}return {_tuple(nums)}, 1"]
    lines = [f"{indent}{a} = {num}" for a, num in zip(names, nums)]
    if factors:
        lines += [f"{indent}b0 = {'*'.join(factors)}", f"{indent}g = gcd(b0, {', '.join(names)})"]
    if not height:
        return [
            *lines,
            f"{indent}if g == 1:",
            f"{indent}    return {_tuple(names)}, b0",
            f"{indent}return {_tuple([f'{a} // g' for a in names])}, b0 // g",
        ]
    lines.append(f"{indent}h = {'b0' if factors else '1'}")
    for a in names:
        lines += [
            f"{indent}if {a} < 0:",
            f"{indent}    {a} = -{a}",
            f"{indent}if {a} > h:",
            f"{indent}    h = {a}",
        ]
    if not factors:  # the denominator is 1: no gcd to divide by
        return [*lines, f"{indent}return h"]
    return [*lines, f"{indent}if g == 1:", f"{indent}    return h", f"{indent}return h // g"]


def _tuple(items: list[str]) -> str:
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _numerator(terms, deg: int) -> str:
    """Sum of the terms ``c * x^e * d^(deg - |e|)`` as an expression."""
    parts = []
    for coeff, exps in terms:
        factors = [_power(i, e) for i, e in enumerate(exps) if e]
        if deg > sum(exps):
            factors.append(f"d{deg - sum(exps)}")
        if abs(coeff) != 1 or not factors:
            factors.insert(0, str(abs(coeff)))
        parts.append(("- " if coeff < 0 else "+ ") + "*".join(factors))
    return " ".join(parts).removeprefix("+ ") or "0"


def eval_point(cm: CompiledMap, nums: tuple[int, ...], den: int, sq=None):
    """One map application in common-denominator form (exact).

    ``sq``, when given, squares the powers of the coordinates; ``square``
    is the one the package passes.
    """
    return cm.eval_map(nums, den, sq)


def square(a: int) -> int:
    """``a*a``, by a Schönhage–Strassen transform from ``SQUARE_CUTOFF``
    bits, its two halves on two processes from ``SPLIT_CUTOFF`` bits (see
    the module docstring for the sizes and why they are exact)."""
    n = a.bit_length()
    if n < SQUARE_CUTOFF:
        return a * a
    k = (n.bit_length() - 1) // 2
    size = 1 << k  # K
    half = size >> 1
    piece = -(-n // (8 * half))  # bytes per piece
    width = 8 * piece
    bits = -(-(2 * width + k - 1) // half) * half  # L: the ring is Z/(2^L + 1)
    mask = (1 << bits) - 1
    data = abs(a).to_bytes(piece * half, "little")
    del a
    pieces = [int.from_bytes(data[i:i + piece], "little") for i in range(0, len(data), piece)]
    del data

    def transform(upper: bool) -> list[int]:
        return _square_half(pieces, upper, bits, mask)

    if n >= SPLIT_CUTOFF:
        lower, upper = _in_order((False, True), transform)
    else:
        lower, upper = transform(False), transform(True)
    del pieces
    # The top inverse level, decimation in time, joins the halves: the
    # twiddle 2^(-t*j) is -2^(L - t*j), so y below is minus the twiddled value.
    t = bits // half
    for j in range(half):
        x = lower[j]
        w = upper[j] << bits - t * j
        y = (w & mask) - (w >> bits)
        w = x - y
        lower[j] = (w & mask) - (w >> bits)
        w = x + y
        upper[j] = (w & mask) - (w >> bits)
    v = lower + upper
    del lower, upper
    # v[j] is K*c_j mod 2^L + 1, and 1/K = -2^(L - k) there; c_j is the
    # residue in [0, 2^L).
    modulus = mask + 2
    for j in range(size):
        w = v[j] << bits - k
        w = (w >> bits) - (w & mask)
        while w < 0:
            w += modulus
        while w > mask:
            w -= modulus
        v[j] = w
    # Carry the coefficients into one integer, adjacent pairs at a time.
    while len(v) > 1:
        v = [lo + (hi << width) for lo, hi in zip(v[::2], v[1::2])]
        width *= 2
    return v[0]


def _square_half(pieces: list[int], upper: bool, bits: int, mask: int) -> list[int]:
    """One half of ``square``'s transform of ``pieces`` padded with as many
    zeros: the lower or the upper ``K/2`` entries after the forward
    transform, the pointwise squares and every inverse level but the top.

    The top forward level adds ``v[j + K/2] = 0`` to ``v[j]``, so the lower
    half is the pieces as they are and the upper half is the pieces twisted
    by ``2^(t*j)``, ``t = 2L/K``.  Every level below it and every inverse
    level but the top one stays within a half, and is the same in both.
    """
    half = len(pieces)
    if upper:
        t = bits // half
        v = []
        for j, x in enumerate(pieces):
            w = x << t * j
            v.append((w & mask) - (w >> bits))
    else:
        v = list(pieces)
    # Forward transform, decimation in frequency: v[j + h] takes the twiddle
    # 2^(t*e) with t = L/h, and the output is in bit-reversed order.
    h = half >> 1
    while h:
        t = bits // h
        for start in range(0, half, 2 * h):
            for j in range(start, start + h):
                x = v[j]
                y = v[j + h]
                w = x + y
                v[j] = (w & mask) - (w >> bits)
                w = (x - y) << t * (j - start)
                v[j + h] = (w & mask) - (w >> bits)
        h >>= 1
    for j in range(half):
        w = square(v[j])
        v[j] = (w & mask) - (w >> bits)
    # Inverse transform, decimation in time, back to natural order: the
    # twiddle 2^(-t*e) is -2^(L - t*e), so y below is minus the twiddled value.
    h = 1
    while h < half:
        t = bits // h
        for start in range(0, half, 2 * h):
            for j in range(start, start + h):
                x = v[j]
                w = v[j + h] << bits - t * (j - start)
                y = (w & mask) - (w >> bits)
                w = x - y
                v[j] = (w & mask) - (w >> bits)
                w = x + y
                v[j + h] = (w & mask) - (w >> bits)
        h <<= 1
    return v


def to_common_denominator(point: Sequence[Fraction | int]) -> tuple[tuple[int, ...], int]:
    """Canonical ``(nums, den)`` form of a rational point.

    Raises ``TypeError`` for a coordinate that is not an ``int`` or a
    ``Fraction``: a float holds a binary value (``0.1`` is
    ``3602879701896397/2**55``), and a string is text, not a number.
    """
    for i, c in enumerate(point):
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coordinate {i} is {type(c).__name__} {c!r}, not int or Fraction")
    return from_pairs([(c.numerator, c.denominator) for c in point])


def from_pairs(pairs: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """The canonical ``(nums, den)`` form of the point ``(a_1/q_1, ...)``.

    Each ``a_i/q_i`` is in lowest terms with ``q_i > 0``, so ``den =
    lcm(q_i)`` and ``nums = a_i * (den // q_i)`` share no factor: every
    prime power of ``den`` divides some ``q_i`` whole, and that ``a_i`` is
    prime to it.
    """
    den = lcm(*[q for _, q in pairs])
    return tuple([a * (den // q) for a, q in pairs]), den


def max_bits(nums: Sequence[int], den: int) -> int:
    """Largest bit length among the integers of a raw point.

    The package itself reads ``height_integer(...).bit_length()``, which is
    the same number; this name is kept for ``perfbench/tracer.py``.
    """
    return height_integer(nums, den).bit_length()


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


def step(cm: CompiledMap, nums: Sequence[int], den: int, bits: int, budget: int):
    """The one budgeted map application: the image of ``nums / den`` under
    ``cm`` with its height integer, or ``(None, None)`` when an integer of
    the image exceeds ``budget`` bits.

    ``bits`` is the bit length of the point's height integer, at most
    ``budget``.  Every integer of the point has at most ``bits`` bits, so
    the largest ``lo`` that ``exceeds_budget`` forms is at most
    ``cm.coeff_bits + cm.deg * bits - 1``, and as it subtracts at least
    one bit for the cleared denominator it cannot answer True unless
    ``cm.deg * bits + cm.coeff_bits`` exceeds ``budget``.  Only then is
    it asked; when it proves the image too large, the image is not
    computed.  (That sum does not bound the generated numerators: the
    evaluator scales coordinate ``j`` by ``lcm(denoms) // denoms[j]``,
    which ``coeff_bits`` leaves out.)  The power block squares
    ``x<i>_<e/2>``, of at most ``(cm.deg // 2) * bits`` bits, so
    ``square`` is passed only when that can reach ``SQUARE_CUTOFF``, from
    ``cm.square_bits`` on.  Below both sizes ``step`` is ``eval_map``
    with no ``sq`` and a height scan, which ``cm.eval_height`` gives in
    one call; ``inequality.batch_verify`` calls it there directly.
    """
    if bits * cm.deg + cm.coeff_bits > budget and exceeds_budget(cm, nums, den, budget):
        return None, None
    image = eval_point(cm, nums, den, square if bits >= cm.square_bits else None)
    height = height_integer(*image)
    if height.bit_length() > budget:
        return None, None
    return image, height


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



# -- work on two processes ---------------------------------------------------


def _fork_allowed() -> bool:
    """Whether ``_in_order`` may fork its worker: the platform has
    ``os.fork`` and ``os.sched_getaffinity``, this process may run on two
    CPUs or more, and no other Python thread runs (a fork copies only the
    calling thread)."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def _in_order(blocks: Iterable, work: Callable) -> Iterator:
    """Yield ``work(block)`` for each of ``blocks``, in order.

    When ``_fork_allowed()``, one forked ``_Worker`` runs blocks 1, 3, 5,
    ... while this process runs blocks 0, 2, 4, ..., and every result is
    yielded in block order.  A sized sequence of two blocks or more forks
    before this process runs block 0; any other iterable forks at its
    second block, so one block never starts a worker.  Both processes draw
    every block from ``blocks``, whose state the fork copies, so the stream
    must give the same blocks in both.  The first error in block order is
    raised, as one process would raise it.  However the generator ends
    (exhausted, failed or closed by its consumer), the worker is closed
    and reaped.  No result is held here once it is yielded.
    """
    fork_at = 0 if isinstance(blocks, Sized) and len(blocks) >= 2 else 1
    blocks = iter(blocks)
    worker = None
    try:
        for index, block in enumerate(blocks):
            if index == fork_at and _fork_allowed():
                # The worker's stream starts at block 1.
                rest = itertools.chain((block,), blocks) if index else blocks
                worker = _Worker(rest, work)
            yield work(block) if worker is None or index % 2 == 0 else worker.receive()
    finally:
        if worker is not None:
            worker.close()


class _Worker:
    """The one forked process of ``_in_order``.  It runs every other block
    of its stream, from the first, and sends each result back pickled over
    a pipe; an exception is pickled and sent in place of its block's
    result, and ends the worker.  The worker always ends by ``os._exit``,
    so it never flushes a buffer or runs an exit handler inherited from
    this process."""

    def __init__(self, blocks: Iterator, work: Callable):
        read_end, write_end = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            raise
        if self.pid == 0:
            os.close(read_end)
            _work_odd_blocks(blocks, work, write_end)
        os.close(write_end)
        self.results = os.fdopen(read_end, "rb")
        self.status: int | None = None

    def receive(self):
        """The result of the worker's next block; its exception is raised
        here, and a worker that ended without sending one raises
        ``RuntimeError`` with its exit status."""
        import pickle  # on this path only: the import adds ~3 ms to every start

        try:
            done, value = pickle.load(self.results)
        except (EOFError, pickle.UnpicklingError):
            self.close()
            raise RuntimeError(
                f"the worker process ended before sending a block, exit status {self.status}"
            ) from None
        if not done:
            raise value
        return value

    def close(self) -> None:
        """Close the read end, so that a worker blocked on a write gets
        ``EPIPE``, then reap the worker.  A second call does nothing."""
        if self.status is None:
            self.results.close()
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


def _work_odd_blocks(blocks: Iterator, work: Callable, fd: int) -> NoReturn:
    """The body of a ``_Worker``: run every other block of ``blocks``,
    from the first, and write each result to ``fd`` as a pickled pair
    ``(True, result)``; on an exception, write ``(False, exception)`` and
    stop.  Never returns: the process ends by ``os._exit``."""
    import pickle

    status = 1
    try:
        with os.fdopen(fd, "wb") as results:
            try:
                for own, block in zip(itertools.cycle((True, False)), blocks):
                    if own:
                        pickle.dump((True, work(block)), results)
                        results.flush()
            except Exception as error:  # the parent raises it in its turn
                pickle.dump((False, error), results)
        status = 0
    finally:
        os._exit(status)
