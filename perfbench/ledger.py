"""The seeded ledger mix of acceptance criterion 3, built by the benchmark.

Valid forward/inverse pairs follow the ledger laws of ``affdyn.divisors``;
each violation pair breaks exactly one law on one side.  The closed-form
coefficients of ``D`` (hyperplane ``1 - 1/(d d')``, exceptionals
``(d' b_i - a_i)/(d d')`` on the forward side and mirrored on the inverse
side) are the independent oracle for ``compute_D``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

from affdyn.divisors import PicBasis, PushforwardMap, ResolutionDatum

LAWS = (
    "blowdown-normalization",
    "map-degree",
    "essential-map-coefficient",
    "essential-blowdown-coefficient",
    "map-positivity",
    "blowdown-nonnegativity",
    "effectivity-inequality",
)


@dataclass(frozen=True)
class LedgerCase:
    forward: ResolutionDatum
    inverse: ResolutionDatum
    law: str | None  # the one law broken, or None for a valid pair


def _valid_datum(rng, side, own, other, k, prefix) -> ResolutionDatum:
    t = rng.randint(1, k)
    b = [own] + [rng.randint(1, 5) for _ in range(k)]
    b[t] = 1
    a = [1] + [rng.randint(0, other * bi) for bi in b[1:]]
    a[t] = other
    labels = ("H",) + tuple(f"{prefix}{i}" for i in range(1, k + 1))
    s = [0] * (k + 1)
    s[t] = 1
    return ResolutionDatum(
        side, own, other, PicBasis(labels), tuple(a), tuple(b), t, PushforwardMap(tuple(s))
    )


def _valid_pair(rng) -> tuple[ResolutionDatum, ResolutionDatum]:
    d = rng.randint(1, 5)
    d_inv = rng.randint(1, 5)
    forward = _valid_datum(rng, "forward", d, d_inv, rng.randint(1, 6), "E")
    inverse = _valid_datum(rng, "inverse", d_inv, d, rng.randint(1, 6), "F")
    return forward, inverse


def _break_one_law(rng, datum: ResolutionDatum) -> tuple[str, ResolutionDatum] | None:
    """Break one law and keep every other law intact, or ``None`` when the
    drawn law has no index to break on this datum."""
    law = rng.choice(LAWS)
    a, b = list(datum.a), list(datum.b)
    t = datum.t
    others = [i for i in range(1, datum.basis.rank) if i != t]
    if law in ("map-positivity", "blowdown-nonnegativity", "effectivity-inequality"):
        if not others:
            return None
        i = rng.choice(others)
    if law == "blowdown-normalization":
        a[0] = rng.choice([0, 2, 3])
    elif law == "map-degree":
        b[0] = datum.degree_own + rng.randint(1, 3)
    elif law == "essential-map-coefficient":
        b[t] = rng.randint(2, 5)
    elif law == "essential-blowdown-coefficient":
        a[t] = 0 if datum.degree_other == 1 else rng.randint(0, datum.degree_other - 1)
    elif law == "map-positivity":
        b[i] = 0
        a[i] = 0
    elif law == "blowdown-nonnegativity":
        a[i] = -rng.randint(1, 4)
    else:
        a[i] = datum.degree_other * b[i] + rng.randint(1, 4)
    return law, replace(datum, a=tuple(a), b=tuple(b))


def ledger_mix(seed: int, valid: int, violations: int) -> list[LedgerCase]:
    """``valid`` valid pairs, then ``violations`` single-law violation pairs."""
    rng = random.Random(seed)
    cases = [LedgerCase(*_valid_pair(rng), None) for _ in range(valid)]
    while len(cases) < valid + violations:
        forward, inverse = _valid_pair(rng)
        mutate_forward = rng.random() < 0.5
        broken = _break_one_law(rng, forward if mutate_forward else inverse)
        if broken is None:
            continue
        law, mutated = broken
        if mutate_forward:
            cases.append(LedgerCase(mutated, inverse, law))
        else:
            cases.append(LedgerCase(forward, mutated, law))
    return cases


def closed_form_D(forward: ResolutionDatum, inverse: ResolutionDatum) -> tuple[Fraction, ...]:
    """Coefficients of ``D`` on the combined basis, from the closed forms."""
    d, d_inv = forward.degree_own, inverse.degree_own
    dd = d * d_inv
    return (
        Fraction(dd - 1, dd),
        *(Fraction(d_inv * b - a, dd) for a, b in zip(forward.a[1:], forward.b[1:])),
        *(Fraction(d * b - a, dd) for a, b in zip(inverse.a[1:], inverse.b[1:])),
    )
