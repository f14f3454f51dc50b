"""The four benchmark workloads: inputs from a seed, the timed operation,
and the output checks that run after the timer stops.

Each workload is driven through a public entry point:

- ``wide-box`` and ``wide-rational`` run ``affdyn.cli.main`` on the
  ``inequality`` subcommand and write a report file;
- ``deep-canonical`` calls ``affdyn.heights.canonical``, which is what
  ``cmd_canonical`` computes;
- ``ledger-fuzz`` makes the ``affdyn.divisors`` calls ``cmd_divisor``
  makes, pair by pair.

``SIZES["full"]`` is the benchmark; ``SIZES["smoke"]`` is a small size
that exercises the same code and checks in a few seconds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from affdyn import cli, divisors, heights
from affdyn.heights import weil_height_integer

import ledger

SIZES = {
    "full": {
        "box": 20,
        "random_count": 60_000,
        "random_num": 50,
        "random_den": 20,
        "deep_depth": 64,
        "deep_budget": 2**22,
        "ledger_valid": 10_000,
        "ledger_violations": 1_000,
    },
    "smoke": {
        "box": 4,
        "random_count": 600,
        "random_num": 50,
        "random_den": 20,
        "deep_depth": 64,
        "deep_budget": 2**12,
        "ledger_valid": 200,
        "ledger_violations": 40,
    },
}

# The deep workload always starts at (1,1,1): the cost per point of the
# acceptance-criterion-6 seed list ranges from about 3 s to 12 s at 2^22
# bits, so a seed-chosen point would make runs with different seeds
# incomparable.
DEEP_POINT = (1, 1, 1)

# Pinned outputs.  The box report and the deep orbit do not depend on the
# seed; the oracle checks below recompute a sample of them independently.
EXPECTED = {
    "full": {
        "box_min_delta": -0.23048443379588357,
        "box_digest": "88931d10aecb7ed04004b102b53a1cd036f4a38636c57fbbdc34a1222f8b0520",
        "deep_depths": (22, 15),
        "deep_digest": "fd435c13ca4278f8927d75c86b78db7e5082b8642c5c31060de725f4af8bd962",
    },
    "smoke": {
        "box_min_delta": -0.23048443379588357,
        "box_digest": "710f28eac813d8a1ec0cbbcdf60689b2a83484dfb55b125b31c6e485ccb2fc04",
        "deep_depths": (12, 10),
        "deep_digest": "0ca732c045eb161bafc1578b1c6287e507d9dd5bdddab63257af094a062111d1",
    },
}

ORACLE_SAMPLE = 48
ORACLE_STEPS = 8


@dataclass
class Context:
    """What a child process hands to a workload."""

    automorphism: object
    map_path: str
    workdir: str
    seed: int
    size: str

    @property
    def params(self) -> dict:
        return SIZES[self.size]


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[Context], object]
    run: Callable[[Context, object], object]
    items: Callable[[Context, object, object], int]
    check: Callable[[Context, object, object], list]
    writes_report: bool


def int_digest(parts) -> str:
    """sha256 over length-prefixed big-endian integers (no int->str)."""
    digest = hashlib.sha256()
    for value in parts:
        if isinstance(value, str):
            raw = value.encode()
            digest.update(b"s" + len(raw).to_bytes(8, "big") + raw)
            continue
        raw = abs(value).to_bytes((value.bit_length() + 7) // 8, "big")
        sign = b"-" if value < 0 else b"+"
        digest.update(sign + len(raw).to_bytes(8, "big") + raw)
    return digest.hexdigest()


# -- wide: the inequality CLI ------------------------------------------------


def _box_prepare(ctx: Context):
    report = f"{ctx.workdir}/report.json"
    argv = ["inequality", ctx.map_path, "--sampler", f"box:{ctx.params['box']}",
            "--out", report]
    return {"argv": argv, "report": report}


def _rational_prepare(ctx: Context):
    p = ctx.params
    report = f"{ctx.workdir}/report.csv"
    spec = f"random:{p['random_count']}:{p['random_num']}:{p['random_den']}"
    argv = ["inequality", ctx.map_path, "--sampler", spec, "--seed", str(ctx.seed),
            "--format", "csv", "--out", report]
    return {"argv": argv, "report": report}


def _cli_run(ctx: Context, inputs):
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(inputs["argv"])
    return {"exit": code, "stdout": captured.getvalue()}


def _box_items(ctx, inputs, outcome) -> int:
    return (2 * ctx.params["box"] + 1) ** 3


def _rational_items(ctx, inputs, outcome) -> int:
    return ctx.params["random_count"]


def _records_digest(records) -> str:
    """Digest of the ``(point, height_integers)`` sequence of a report."""
    parts = []
    for point, h_ints, _delta in records:
        parts.append(point)
        parts.extend(h_ints)
    return int_digest(parts)


def _oracle_problems(ctx: Context, records) -> list:
    """Recompute a seeded sample of records with Fraction arithmetic."""
    automorphism = ctx.automorphism
    d, d_inv = automorphism.d, automorphism.d_inv
    rng = random.Random(ctx.seed)
    picks = {0, len(records) - 1}
    picks.update(rng.randrange(len(records)) for _ in range(ORACLE_SAMPLE))
    problems = []
    for index in sorted(picks):
        point_text, h_ints, delta = records[index]
        point = tuple(Fraction(c) for c in point_text.split(","))
        image = tuple(p.evaluate(point) for p in automorphism.forward)
        preimage = tuple(p.evaluate(point) for p in automorphism.inverse)
        expected = (
            weil_height_integer(point),
            weil_height_integer(image),
            weil_height_integer(preimage),
        )
        if tuple(h_ints) != expected:
            problems.append(f"record {index} ({point_text}): heights {h_ints} != {expected}")
            continue
        h_p, h_f, h_i = (math.log(h) for h in expected)
        recomputed = h_f / d + h_i / d_inv - (1 + 1 / (d * d_inv)) * h_p
        if abs(recomputed - delta) > 1e-12 * (1 + abs(delta)):
            problems.append(f"record {index} ({point_text}): delta {delta} != {recomputed}")
    return problems


def _verdict_problems(outcome, count: int) -> list:
    """A FAIL verdict with exit 1 is a valid outcome; anything else is not."""
    verdict = "PASS" if outcome["exit"] == 0 else "FAIL"
    line = outcome["stdout"].strip()
    if outcome["exit"] not in (0, 1):
        return [f"exit code {outcome['exit']}: {line}"]
    if not line.startswith(f"{verdict}: ") or f" over {count} points (0 skipped)" not in line:
        return [f"verdict line {line!r} does not match exit {outcome['exit']}"]
    return []


def _box_check(ctx: Context, inputs, outcome) -> list:
    count = _box_items(ctx, inputs, outcome)
    problems = _verdict_problems(outcome, count)
    if outcome["exit"] != 0:
        problems.append("box sample must PASS")
    with open(inputs["report"], encoding="utf-8") as handle:
        report = json.load(handle)
    records = [(r["point"], r["height_integers"], r["delta"]) for r in report["records"]]
    expected = EXPECTED[ctx.size]
    if report["count"] != count or len(records) != count or report["skipped"] != 0:
        problems.append(f"count {report['count']}/{len(records)} skipped {report['skipped']}")
    if report["min_delta"] != expected["box_min_delta"]:
        problems.append(f"min_delta {report['min_delta']!r}")
    if report["min_delta"] != min(r[2] for r in records):
        problems.append("min_delta is not the minimum of the record deltas")
    if not report["stabilized"]:
        problems.append("report not stabilized")
    digest = _records_digest(records)
    if digest != expected["box_digest"]:
        problems.append(f"records digest {digest}")
    return problems + _oracle_problems(ctx, records)


def _rational_check(ctx: Context, inputs, outcome) -> list:
    p = ctx.params
    count = p["random_count"]
    problems = _verdict_problems(outcome, count)
    with open(inputs["report"], encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    if header[:4] != ["point", "H_point", "H_forward", "H_inverse"] or header[-1] != "delta":
        problems.append(f"csv header {header}")
    if len(body) != count:
        problems.append(f"{len(body)} csv rows, expected {count}")
    records = [(row[0], [int(x) for x in row[1:4]], float(row[-1])) for row in body]
    for point_text, _, _ in records:
        for coord in point_text.split(","):
            value = Fraction(coord)
            if abs(value.numerator) > p["random_num"] or value.denominator > p["random_den"]:
                problems.append(f"point {point_text} outside the sampler bounds")
                break
    stated = outcome["stdout"].split("min_delta=", 1)[-1].split(" ", 1)[0]
    if records and stated != repr(min(r[2] for r in records)):
        problems.append(f"stated min_delta {stated} is not the minimum of the csv deltas")
    return problems + _oracle_problems(ctx, records)


# -- deep: canonical heights along orbits ------------------------------------


def _deep_prepare(ctx: Context):
    return {"point": DEEP_POINT}


def _deep_run(ctx: Context, inputs):
    return heights.canonical(
        ctx.automorphism,
        inputs["point"],
        depth=ctx.params["deep_depth"],
        bit_budget=ctx.params["deep_budget"],
    )


def _deep_items(ctx, inputs, result) -> int:
    return result.plus.depth + result.minus.depth


def _deep_digest(result) -> str:
    parts = []
    for estimate in (result.plus, result.minus):
        parts.append(estimate.direction)
        parts.extend(estimate.step_integers)
    return int_digest(parts)


def _deep_check(ctx: Context, inputs, result) -> list:
    expected = EXPECTED[ctx.size]
    problems = []
    depths = (result.plus.depth, result.minus.depth)
    if depths != expected["deep_depths"]:
        problems.append(f"depths {depths}")
    if not (result.plus.truncated and result.minus.truncated):
        problems.append("the bit budget should stop both directions")
    digest = _deep_digest(result)
    if digest != expected["deep_digest"]:
        problems.append(f"step digest {digest}")
    automorphism = ctx.automorphism
    for estimate, coords in (
        (result.plus, automorphism.forward),
        (result.minus, automorphism.inverse),
    ):
        point = tuple(Fraction(c) for c in inputs["point"])
        for k in range(min(ORACLE_STEPS, estimate.depth) + 1):
            if weil_height_integer(point) != estimate.step_integers[k]:
                problems.append(f"{estimate.direction} step {k} disagrees with evaluate")
                break
            point = tuple(p.evaluate(point) for p in coords)
    return problems


# -- ledger: divisor ledgers -------------------------------------------------


def _ledger_prepare(ctx: Context):
    p = ctx.params
    return ledger.ledger_mix(ctx.seed, p["ledger_valid"], p["ledger_violations"])


def _ledger_run(ctx: Context, cases):
    outcomes = []
    for case in cases:
        sides = []
        for datum in (case.forward, case.inverse):
            report = divisors.validate_resolution(datum)
            try:
                essential = divisors.find_essential(datum.b, datum.pushforward)
            except divisors.DatumError:
                essential = None
            pushpull = divisors.check_pushpull_identity(datum)
            sides.append((report, essential, pushpull))
        combined = divisors.combine_resolutions(case.forward, case.inverse)
        divisor = divisors.compute_D(combined)
        outcomes.append((sides, divisor, divisors.check_effective(divisor)))
    return outcomes


def _ledger_items(ctx, cases, outcomes) -> int:
    return len(outcomes)


def _ledger_check(ctx: Context, cases, outcomes) -> list:
    problems = []
    if len(outcomes) != len(cases):
        return [f"{len(outcomes)} outcomes for {len(cases)} pairs"]
    for index, (case, (sides, divisor, effectivity)) in enumerate(zip(cases, outcomes)):
        laws = [{v.law for v in report.violations} for report, _, _ in sides]
        if case.law is None:
            valid = all(
                not found and essential == datum.t and pushpull
                for found, (_, essential, pushpull), datum in zip(
                    laws, sides, (case.forward, case.inverse)
                )
            )
            if not valid or not effectivity.effective:
                problems.append(f"pair {index}: valid pair not validated as effective")
        else:
            if sorted(laws, key=len) != [set(), {case.law}]:
                problems.append(f"pair {index}: violations {laws}, broke {case.law}")
            if effectivity.effective != (case.law != "effectivity-inequality"):
                problems.append(f"pair {index}: effective={effectivity.effective} ({case.law})")
        if divisor.coeffs != ledger.closed_form_D(case.forward, case.inverse):
            problems.append(f"pair {index}: D differs from the closed form")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wide-box", _box_prepare, _cli_run, _box_items, _box_check, True),
        Workload(
            "wide-rational", _rational_prepare, _cli_run, _rational_items, _rational_check, True
        ),
        Workload("deep-canonical", _deep_prepare, _deep_run, _deep_items, _deep_check, False),
        Workload(
            "ledger-fuzz", _ledger_prepare, _ledger_run, _ledger_items, _ledger_check, False
        ),
    )
}
