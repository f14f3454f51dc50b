"""Pinned outputs of the orbit loops at small bit budgets.

``AffineAutomorphism.orbit`` stops at the first image whose integers
exceed the bit budget, and ``canonical_estimate`` reads its heights.  The
tables below pin what ``orbit`` and ``canonical_estimate`` (both
directions) return for the Henon map and the identity at budgets from 8 to
200 bits, from start points that include one already over every budget
(an input error: ``None`` in the tables), so a change to the loop cannot
move a truncation point unnoticed.  Exact outputs are pinned through a short digest of their
``repr``; the structural fields are spelled out.
"""

import hashlib
from fractions import Fraction

from affdyn.heights import canonical_estimate

from oracles import identity, orbit_points

STARTS = {
    "origin": (0, 0, 0),
    "unit": (1, 1, 1),
    "rational": (2, -1, Fraction(1, 3)),
    "nine_bits": (300, -7, Fraction(5, 2)),
    "huge": (2**210, 1, 1),
}
BUDGETS = (8, 16, 64, 200)
ORBIT_DEPTH = 40
CANONICAL_DEPTH = 30


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:10]


def orbit_pin(automorphism, point, budget, direction):
    try:
        result = automorphism.orbit(point, ORBIT_DEPTH, direction, budget)
    except ValueError:
        return None
    return (result.completed_depth, result.truncated, _digest(orbit_points(result)))


def canonical_pin(automorphism, point, budget, direction):
    try:
        est = canonical_estimate(automorphism, point, CANONICAL_DEPTH, direction, budget)
    except ValueError:
        return None
    return (est.depth, est.certified, est.truncated, _digest(est.step_integers))


def compute_pins(henon):
    maps = {"henon": henon, "identity": identity(3)}
    orbits, plus, minus = {}, {}, {}
    for map_name, automorphism in maps.items():
        for start_name, point in STARTS.items():
            for budget in BUDGETS:
                key = (map_name, start_name, budget)
                orbits[key] = (
                    orbit_pin(automorphism, point, budget, "forward"),
                    orbit_pin(automorphism, point, budget, "inverse"),
                )
                plus[key] = canonical_pin(automorphism, point, budget, "forward")
                minus[key] = canonical_pin(automorphism, point, budget, "inverse")
    return orbits, plus, minus


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

# (map, start, budget) -> (depth, certified, truncated, digest of the step
# integers) at CANONICAL_DEPTH; None where the start is already over the
# budget.
CANONICAL_PLUS = {
    ("henon", "origin", 8): (30, True, False, "44a4cc906f"),
    ("henon", "origin", 16): (30, True, False, "44a4cc906f"),
    ("henon", "origin", 64): (30, True, False, "44a4cc906f"),
    ("henon", "origin", 200): (30, True, False, "44a4cc906f"),
    ("henon", "unit", 8): (3, False, True, "1deaad57b4"),
    ("henon", "unit", 16): (4, False, True, "3c26ff35cf"),
    ("henon", "unit", 64): (6, False, True, "9539c55162"),
    ("henon", "unit", 200): (8, False, True, "d7cd0ae207"),
    ("henon", "rational", 8): (1, False, True, "256dd069c7"),
    ("henon", "rational", 16): (2, False, True, "4e265b07ba"),
    ("henon", "rational", 64): (4, False, True, "11a75adef7"),
    ("henon", "rational", 200): (6, False, True, "6206cb70bd"),
    ("henon", "nine_bits", 8): None,
    ("henon", "nine_bits", 16): (1, False, True, "125beaf97d"),
    ("henon", "nine_bits", 64): (3, False, True, "d723f4ef40"),
    ("henon", "nine_bits", 200): (5, False, True, "33132cb186"),
    ("henon", "huge", 8): None,
    ("henon", "huge", 16): None,
    ("henon", "huge", 64): None,
    ("henon", "huge", 200): None,
    ("identity", "origin", 8): (30, True, False, "44a4cc906f"),
    ("identity", "origin", 16): (30, True, False, "44a4cc906f"),
    ("identity", "origin", 64): (30, True, False, "44a4cc906f"),
    ("identity", "origin", 200): (30, True, False, "44a4cc906f"),
    ("identity", "unit", 8): (30, True, False, "44a4cc906f"),
    ("identity", "unit", 16): (30, True, False, "44a4cc906f"),
    ("identity", "unit", 64): (30, True, False, "44a4cc906f"),
    ("identity", "unit", 200): (30, True, False, "44a4cc906f"),
    ("identity", "rational", 8): (30, True, False, "e67bd76b94"),
    ("identity", "rational", 16): (30, True, False, "e67bd76b94"),
    ("identity", "rational", 64): (30, True, False, "e67bd76b94"),
    ("identity", "rational", 200): (30, True, False, "e67bd76b94"),
    ("identity", "nine_bits", 8): None,
    ("identity", "nine_bits", 16): (30, True, False, "ffbe6a7833"),
    ("identity", "nine_bits", 64): (30, True, False, "ffbe6a7833"),
    ("identity", "nine_bits", 200): (30, True, False, "ffbe6a7833"),
    ("identity", "huge", 8): None,
    ("identity", "huge", 16): None,
    ("identity", "huge", 64): None,
    ("identity", "huge", 200): None,
}

CANONICAL_MINUS = {
    ("henon", "origin", 8): (30, True, False, "44a4cc906f"),
    ("henon", "origin", 16): (30, True, False, "44a4cc906f"),
    ("henon", "origin", 64): (30, True, False, "44a4cc906f"),
    ("henon", "origin", 200): (30, True, False, "44a4cc906f"),
    ("henon", "unit", 8): (6, False, True, "8c0595036c"),
    ("henon", "unit", 16): (6, False, True, "8c0595036c"),
    ("henon", "unit", 64): (7, False, True, "2a4437e1e3"),
    ("henon", "unit", 200): (8, False, True, "3a421e5116"),
    ("henon", "rational", 8): (1, False, True, "9755f5e26b"),
    ("henon", "rational", 16): (1, False, True, "9755f5e26b"),
    ("henon", "rational", 64): (2, False, True, "fdf3657511"),
    ("henon", "rational", 200): (3, False, True, "bf19d080b2"),
    ("henon", "nine_bits", 8): None,
    ("henon", "nine_bits", 16): (0, False, True, "6d29428eb1"),
    ("henon", "nine_bits", 64): (1, False, True, "0d8213e495"),
    ("henon", "nine_bits", 200): (2, False, True, "7b003e5113"),
    ("henon", "huge", 8): None,
    ("henon", "huge", 16): None,
    ("henon", "huge", 64): None,
    ("henon", "huge", 200): None,
    ("identity", "origin", 8): (30, True, False, "44a4cc906f"),
    ("identity", "origin", 16): (30, True, False, "44a4cc906f"),
    ("identity", "origin", 64): (30, True, False, "44a4cc906f"),
    ("identity", "origin", 200): (30, True, False, "44a4cc906f"),
    ("identity", "unit", 8): (30, True, False, "44a4cc906f"),
    ("identity", "unit", 16): (30, True, False, "44a4cc906f"),
    ("identity", "unit", 64): (30, True, False, "44a4cc906f"),
    ("identity", "unit", 200): (30, True, False, "44a4cc906f"),
    ("identity", "rational", 8): (30, True, False, "e67bd76b94"),
    ("identity", "rational", 16): (30, True, False, "e67bd76b94"),
    ("identity", "rational", 64): (30, True, False, "e67bd76b94"),
    ("identity", "rational", 200): (30, True, False, "e67bd76b94"),
    ("identity", "nine_bits", 8): None,
    ("identity", "nine_bits", 16): (30, True, False, "ffbe6a7833"),
    ("identity", "nine_bits", 64): (30, True, False, "ffbe6a7833"),
    ("identity", "nine_bits", 200): (30, True, False, "ffbe6a7833"),
    ("identity", "huge", 8): None,
    ("identity", "huge", 16): None,
    ("identity", "huge", 64): None,
    ("identity", "huge", 200): None,
}


def test_orbit_loops_match_pinned_outputs(henon):
    orbits, plus, minus = compute_pins(henon)
    assert orbits == ORBIT
    assert plus == CANONICAL_PLUS
    assert minus == CANONICAL_MINUS

