"""Pinned outputs of the orbit loops at small bit budgets.

Every orbit loop stops at the first image whose integers exceed the bit
budget.  The tables below pin what ``orbit`` (both directions),
``detect_cycle``, ``canonical_plus`` and ``canonical_minus`` return for the
Henon map and the identity at budgets from 8 to 200 bits, from start points
that include one already over every budget, so a change to the loops cannot
move a truncation point or reorder the cycle test and the budget test
unnoticed.  Exact outputs are pinned through a short digest of their
``repr``; the structural fields are spelled out.
"""

import hashlib
from fractions import Fraction

import pytest

from affdyn.dynamics import AffineAutomorphism
from affdyn.heights import canonical_minus, canonical_plus
from affdyn.polyring import Polynomial

STARTS = {
    "origin": (0, 0, 0),
    "unit": (1, 1, 1),
    "rational": (2, -1, Fraction(1, 3)),
    "nine_bits": (300, -7, Fraction(5, 2)),
    "huge": (2**210, 1, 1),
}
BUDGETS = (8, 16, 64, 200)
ORBIT_DEPTH = 40
CYCLE_DEPTH = 12
# (depth, tolerance): depth only, tolerance only, both
STOPPING_RULES = ((30, None), (None, 0.05), (8, 0.01))


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:10]


def orbit_pin(automorphism, point, budget, direction):
    try:
        result = automorphism.orbit(point, ORBIT_DEPTH, direction, budget)
    except ValueError:
        return None
    return (result.completed_depth, result.truncated, _digest(result.points))


def cycle_pin(automorphism, point, budget):
    result = automorphism.detect_cycle(point, CYCLE_DEPTH, budget)
    return (result.periodic, result.period, result.searched_depth, result.truncated)


def canonical_pins(automorphism, point, budget, estimator):
    out = []
    for depth, tolerance in STOPPING_RULES:
        est = estimator(automorphism, point, depth, tolerance, budget)
        out.append((est.depth, est.certified, est.truncated, _digest(est.step_integers)))
    return tuple(out)


def compute_pins(henon):
    maps = {"henon": henon, "identity": AffineAutomorphism.identity(3)}
    orbits, cycles, plus, minus = {}, {}, {}, {}
    for map_name, automorphism in maps.items():
        for start_name, point in STARTS.items():
            for budget in BUDGETS:
                key = (map_name, start_name, budget)
                orbits[key] = (
                    orbit_pin(automorphism, point, budget, "forward"),
                    orbit_pin(automorphism, point, budget, "inverse"),
                )
                cycles[key] = cycle_pin(automorphism, point, budget)
                plus[key] = canonical_pins(automorphism, point, budget, canonical_plus)
                minus[key] = canonical_pins(automorphism, point, budget, canonical_minus)
    return orbits, cycles, plus, minus


# -- pinned tables ---------------------------------------------------------

# (map, start, budget) -> forward and inverse (completed_depth, truncated,
# digest of the points); None where the start is already over the budget.
ORBIT = {
    ("henon", "origin", 8): ((40, False, "f025ebc91b"), (40, False, "f025ebc91b")),
    ("henon", "origin", 16): ((40, False, "f025ebc91b"), (40, False, "f025ebc91b")),
    ("henon", "origin", 64): ((40, False, "f025ebc91b"), (40, False, "f025ebc91b")),
    ("henon", "origin", 200): ((40, False, "f025ebc91b"), (40, False, "f025ebc91b")),
    ("henon", "unit", 8): ((3, True, "1b445d2bad"), (6, True, "18f18d1ce9")),
    ("henon", "unit", 16): ((4, True, "255988ea09"), (6, True, "18f18d1ce9")),
    ("henon", "unit", 64): ((6, True, "b67f32d864"), (7, True, "e59686bc3d")),
    ("henon", "unit", 200): ((8, True, "1ac58a2015"), (8, True, "1aea42d34c")),
    ("henon", "rational", 8): ((1, True, "93e74dcf7c"), (1, True, "060fb9f03e")),
    ("henon", "rational", 16): ((2, True, "8b63bcd3ca"), (1, True, "060fb9f03e")),
    ("henon", "rational", 64): ((4, True, "e4c6d9810c"), (2, True, "5f69f815f5")),
    ("henon", "rational", 200): ((6, True, "c9483f8f01"), (3, True, "52af396cb9")),
    ("henon", "nine_bits", 8): (None, None),
    ("henon", "nine_bits", 16): ((1, True, "792b727ebe"), (0, True, "70ab3b7818")),
    ("henon", "nine_bits", 64): ((3, True, "4607ca3053"), (1, True, "8611f4e426")),
    ("henon", "nine_bits", 200): ((5, True, "704801ff43"), (2, True, "f0c0572baa")),
    ("henon", "huge", 8): (None, None),
    ("henon", "huge", 16): (None, None),
    ("henon", "huge", 64): (None, None),
    ("henon", "huge", 200): (None, None),
    ("identity", "origin", 8): ((40, False, "f025ebc91b"), (40, False, "f025ebc91b")),
    ("identity", "origin", 16): ((40, False, "f025ebc91b"), (40, False, "f025ebc91b")),
    ("identity", "origin", 64): ((40, False, "f025ebc91b"), (40, False, "f025ebc91b")),
    ("identity", "origin", 200): ((40, False, "f025ebc91b"), (40, False, "f025ebc91b")),
    ("identity", "unit", 8): ((40, False, "ea980ba824"), (40, False, "ea980ba824")),
    ("identity", "unit", 16): ((40, False, "ea980ba824"), (40, False, "ea980ba824")),
    ("identity", "unit", 64): ((40, False, "ea980ba824"), (40, False, "ea980ba824")),
    ("identity", "unit", 200): ((40, False, "ea980ba824"), (40, False, "ea980ba824")),
    ("identity", "rational", 8): ((40, False, "3eb7bdff3c"), (40, False, "3eb7bdff3c")),
    ("identity", "rational", 16): ((40, False, "3eb7bdff3c"), (40, False, "3eb7bdff3c")),
    ("identity", "rational", 64): ((40, False, "3eb7bdff3c"), (40, False, "3eb7bdff3c")),
    ("identity", "rational", 200): ((40, False, "3eb7bdff3c"), (40, False, "3eb7bdff3c")),
    ("identity", "nine_bits", 8): (None, None),
    ("identity", "nine_bits", 16): ((40, False, "f63e5516a9"), (40, False, "f63e5516a9")),
    ("identity", "nine_bits", 64): ((40, False, "f63e5516a9"), (40, False, "f63e5516a9")),
    ("identity", "nine_bits", 200): ((40, False, "f63e5516a9"), (40, False, "f63e5516a9")),
    ("identity", "huge", 8): (None, None),
    ("identity", "huge", 16): (None, None),
    ("identity", "huge", 64): (None, None),
    ("identity", "huge", 200): (None, None),
}

# (map, start, budget) -> (periodic, period, searched_depth, truncated).
CYCLE = {
    ("henon", "origin", 8): (True, 1, 1, False),
    ("henon", "origin", 16): (True, 1, 1, False),
    ("henon", "origin", 64): (True, 1, 1, False),
    ("henon", "origin", 200): (True, 1, 1, False),
    ("henon", "unit", 8): (False, None, 4, True),
    ("henon", "unit", 16): (False, None, 5, True),
    ("henon", "unit", 64): (False, None, 7, True),
    ("henon", "unit", 200): (False, None, 9, True),
    ("henon", "rational", 8): (False, None, 2, True),
    ("henon", "rational", 16): (False, None, 3, True),
    ("henon", "rational", 64): (False, None, 5, True),
    ("henon", "rational", 200): (False, None, 7, True),
    ("henon", "nine_bits", 8): (False, None, 1, True),
    ("henon", "nine_bits", 16): (False, None, 2, True),
    ("henon", "nine_bits", 64): (False, None, 4, True),
    ("henon", "nine_bits", 200): (False, None, 6, True),
    ("henon", "huge", 8): (False, None, 1, True),
    ("henon", "huge", 16): (False, None, 1, True),
    ("henon", "huge", 64): (False, None, 1, True),
    ("henon", "huge", 200): (False, None, 1, True),
    ("identity", "origin", 8): (True, 1, 1, False),
    ("identity", "origin", 16): (True, 1, 1, False),
    ("identity", "origin", 64): (True, 1, 1, False),
    ("identity", "origin", 200): (True, 1, 1, False),
    ("identity", "unit", 8): (True, 1, 1, False),
    ("identity", "unit", 16): (True, 1, 1, False),
    ("identity", "unit", 64): (True, 1, 1, False),
    ("identity", "unit", 200): (True, 1, 1, False),
    ("identity", "rational", 8): (True, 1, 1, False),
    ("identity", "rational", 16): (True, 1, 1, False),
    ("identity", "rational", 64): (True, 1, 1, False),
    ("identity", "rational", 200): (True, 1, 1, False),
    ("identity", "nine_bits", 8): (True, 1, 1, False),
    ("identity", "nine_bits", 16): (True, 1, 1, False),
    ("identity", "nine_bits", 64): (True, 1, 1, False),
    ("identity", "nine_bits", 200): (True, 1, 1, False),
    ("identity", "huge", 8): (True, 1, 1, False),
    ("identity", "huge", 16): (True, 1, 1, False),
    ("identity", "huge", 64): (True, 1, 1, False),
    ("identity", "huge", 200): (True, 1, 1, False),
}

# (map, start, budget) -> one (depth, certified, truncated, digest of the step
# integers) per stopping rule in STOPPING_RULES.
CANONICAL_PLUS = {
    ("henon", "origin", 8): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("henon", "origin", 16): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("henon", "origin", 64): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("henon", "origin", 200): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("henon", "unit", 8): (
        (3, False, True, "1deaad57b4"), (3, False, True, "1deaad57b4"), (3, False, True, "1deaad57b4")),
    ("henon", "unit", 16): (
        (4, False, True, "3c26ff35cf"), (4, True, False, "3c26ff35cf"), (4, False, True, "3c26ff35cf")),
    ("henon", "unit", 64): (
        (6, False, True, "9539c55162"), (4, True, False, "3c26ff35cf"), (6, False, True, "9539c55162")),
    ("henon", "unit", 200): (
        (8, False, True, "d7cd0ae207"), (4, True, False, "3c26ff35cf"), (7, True, False, "7d7ef61386")),
    ("henon", "rational", 8): (
        (1, False, True, "256dd069c7"), (1, False, True, "256dd069c7"), (1, False, True, "256dd069c7")),
    ("henon", "rational", 16): (
        (2, False, True, "4e265b07ba"), (2, False, True, "4e265b07ba"), (2, False, True, "4e265b07ba")),
    ("henon", "rational", 64): (
        (4, False, True, "11a75adef7"), (4, True, False, "11a75adef7"), (4, False, True, "11a75adef7")),
    ("henon", "rational", 200): (
        (6, False, True, "6206cb70bd"), (4, True, False, "11a75adef7"), (6, True, False, "6206cb70bd")),
    ("henon", "nine_bits", 8): (
        (0, False, True, "6d29428eb1"), (0, False, True, "6d29428eb1"), (0, False, True, "6d29428eb1")),
    ("henon", "nine_bits", 16): (
        (1, False, True, "125beaf97d"), (1, False, True, "125beaf97d"), (1, False, True, "125beaf97d")),
    ("henon", "nine_bits", 64): (
        (3, False, True, "d723f4ef40"), (3, False, True, "d723f4ef40"), (3, False, True, "d723f4ef40")),
    ("henon", "nine_bits", 200): (
        (5, False, True, "33132cb186"), (5, False, True, "33132cb186"), (5, False, True, "33132cb186")),
    ("henon", "huge", 8): (
        (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3")),
    ("henon", "huge", 16): (
        (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3")),
    ("henon", "huge", 64): (
        (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3")),
    ("henon", "huge", 200): (
        (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3")),
    ("identity", "origin", 8): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("identity", "origin", 16): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("identity", "origin", 64): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("identity", "origin", 200): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("identity", "unit", 8): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("identity", "unit", 16): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("identity", "unit", 64): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("identity", "unit", 200): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("identity", "rational", 8): (
        (30, True, False, "e67bd76b94"), (1, True, False, "a9364e9894"), (1, True, False, "a9364e9894")),
    ("identity", "rational", 16): (
        (30, True, False, "e67bd76b94"), (1, True, False, "a9364e9894"), (1, True, False, "a9364e9894")),
    ("identity", "rational", 64): (
        (30, True, False, "e67bd76b94"), (1, True, False, "a9364e9894"), (1, True, False, "a9364e9894")),
    ("identity", "rational", 200): (
        (30, True, False, "e67bd76b94"), (1, True, False, "a9364e9894"), (1, True, False, "a9364e9894")),
    ("identity", "nine_bits", 8): (
        (0, False, True, "6d29428eb1"), (0, False, True, "6d29428eb1"), (0, False, True, "6d29428eb1")),
    ("identity", "nine_bits", 16): (
        (30, True, False, "ffbe6a7833"), (1, True, False, "2637e6f254"), (1, True, False, "2637e6f254")),
    ("identity", "nine_bits", 64): (
        (30, True, False, "ffbe6a7833"), (1, True, False, "2637e6f254"), (1, True, False, "2637e6f254")),
    ("identity", "nine_bits", 200): (
        (30, True, False, "ffbe6a7833"), (1, True, False, "2637e6f254"), (1, True, False, "2637e6f254")),
    ("identity", "huge", 8): (
        (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3")),
    ("identity", "huge", 16): (
        (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3")),
    ("identity", "huge", 64): (
        (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3")),
    ("identity", "huge", 200): (
        (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3")),
}

CANONICAL_MINUS = {
    ("henon", "origin", 8): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("henon", "origin", 16): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("henon", "origin", 64): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("henon", "origin", 200): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("henon", "unit", 8): (
        (6, False, True, "8c0595036c"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("henon", "unit", 16): (
        (6, False, True, "8c0595036c"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("henon", "unit", 64): (
        (7, False, True, "2a4437e1e3"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("henon", "unit", 200): (
        (8, False, True, "3a421e5116"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("henon", "rational", 8): (
        (1, False, True, "9755f5e26b"), (1, False, True, "9755f5e26b"), (1, False, True, "9755f5e26b")),
    ("henon", "rational", 16): (
        (1, False, True, "9755f5e26b"), (1, False, True, "9755f5e26b"), (1, False, True, "9755f5e26b")),
    ("henon", "rational", 64): (
        (2, False, True, "fdf3657511"), (2, False, True, "fdf3657511"), (2, False, True, "fdf3657511")),
    ("henon", "rational", 200): (
        (3, False, True, "bf19d080b2"), (3, True, False, "bf19d080b2"), (3, False, True, "bf19d080b2")),
    ("henon", "nine_bits", 8): (
        (0, False, True, "6d29428eb1"), (0, False, True, "6d29428eb1"), (0, False, True, "6d29428eb1")),
    ("henon", "nine_bits", 16): (
        (0, False, True, "6d29428eb1"), (0, False, True, "6d29428eb1"), (0, False, True, "6d29428eb1")),
    ("henon", "nine_bits", 64): (
        (1, False, True, "0d8213e495"), (1, False, True, "0d8213e495"), (1, False, True, "0d8213e495")),
    ("henon", "nine_bits", 200): (
        (2, False, True, "7b003e5113"), (2, True, False, "7b003e5113"), (2, False, True, "7b003e5113")),
    ("henon", "huge", 8): (
        (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3")),
    ("henon", "huge", 16): (
        (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3")),
    ("henon", "huge", 64): (
        (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3")),
    ("henon", "huge", 200): (
        (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3")),
    ("identity", "origin", 8): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("identity", "origin", 16): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("identity", "origin", 64): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("identity", "origin", 200): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("identity", "unit", 8): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("identity", "unit", 16): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("identity", "unit", 64): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("identity", "unit", 200): (
        (30, True, False, "44a4cc906f"), (1, True, False, "d02b5ba5c3"), (1, True, False, "d02b5ba5c3")),
    ("identity", "rational", 8): (
        (30, True, False, "e67bd76b94"), (1, True, False, "a9364e9894"), (1, True, False, "a9364e9894")),
    ("identity", "rational", 16): (
        (30, True, False, "e67bd76b94"), (1, True, False, "a9364e9894"), (1, True, False, "a9364e9894")),
    ("identity", "rational", 64): (
        (30, True, False, "e67bd76b94"), (1, True, False, "a9364e9894"), (1, True, False, "a9364e9894")),
    ("identity", "rational", 200): (
        (30, True, False, "e67bd76b94"), (1, True, False, "a9364e9894"), (1, True, False, "a9364e9894")),
    ("identity", "nine_bits", 8): (
        (0, False, True, "6d29428eb1"), (0, False, True, "6d29428eb1"), (0, False, True, "6d29428eb1")),
    ("identity", "nine_bits", 16): (
        (30, True, False, "ffbe6a7833"), (1, True, False, "2637e6f254"), (1, True, False, "2637e6f254")),
    ("identity", "nine_bits", 64): (
        (30, True, False, "ffbe6a7833"), (1, True, False, "2637e6f254"), (1, True, False, "2637e6f254")),
    ("identity", "nine_bits", 200): (
        (30, True, False, "ffbe6a7833"), (1, True, False, "2637e6f254"), (1, True, False, "2637e6f254")),
    ("identity", "huge", 8): (
        (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3")),
    ("identity", "huge", 16): (
        (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3")),
    ("identity", "huge", 64): (
        (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3")),
    ("identity", "huge", 200): (
        (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3"), (0, False, True, "8fc19881e3")),
}


def test_orbit_loops_match_pinned_outputs(henon):
    orbits, cycles, plus, minus = compute_pins(henon)
    assert orbits == ORBIT
    assert cycles == CYCLE
    assert plus == CANONICAL_PLUS
    assert minus == CANONICAL_MINUS


def test_over_budget_start_returns_to_itself():
    # The involution (2^210 - x, y, z) maps (2^210, 1, 1) to (0, 1, 1) and
    # back.  The start is over the budget, so the second image is too, yet
    # it is the start: the cycle test must still see it.  Recorded at the
    # commit before the orbit step could skip an image.
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    coords = (Polynomial.constant(3, 2**210) - x, y, z)
    involution = AffineAutomorphism(coords, coords)
    for budget in BUDGETS:
        assert cycle_pin(involution, (2**210, 1, 1), budget) == (True, 2, 2, False)
        assert cycle_pin(involution, (0, 1, 1), budget) == (False, None, 1, True)
