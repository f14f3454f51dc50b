"""Batch command-line front end.

Subcommands: verify-map, orbit, height, canonical, inequality, divisor.
Identical configuration and inputs produce byte-identical reports; all
randomness is seeded and JSON reports record the seed.  ``inequality``
decides regularity, evaluates delta and applies the fixed verdict rule
of ``affdyn.inequality``; its sampler defaults to ``rationals:5:3``.

Exit codes: 0 pass, 1 verification failure (on every subcommand this
includes an inverse that fails symbolic verification, and on
``inequality`` a sample of at most 64 kept points, whose verdict rule was
never evaluated), 2 input error (``InputError``, ``MapSyntaxError``,
``DatumError`` or ``OSError``; a start over the bit budget is one on
``orbit`` and ``canonical`` alike), 3 internal error (any other
exception, a plain ``ValueError`` included: a fault in affdyn, reported
as ``internal error: ...`` and its traceback on stderr).

Without ``--out``, ``orbit``, ``height`` and ``canonical`` write their
report to stdout; the heights in ``orbit`` and ``canonical`` reports are
those the one orbit loop measured.  ``verify-map``, ``inequality`` and
``divisor`` print their verdict lines and write a JSON report only with
``--out``; their CSV report goes to stdout without ``--out``, and the
verdict lines then go to stderr.  They print the verdict lines only once
the report is written, so a run that cannot write its report prints no
verdict.  A report file is written beside its target and renamed onto it
once complete (``_write``).

JSON reports are compact and key-sorted: one line, no spaces, then a
newline.  ``python -m json.tool --sort-keys --indent 2 report.json`` gives
the indented layout of earlier versions, byte for byte.  They are strict
JSON: ``null`` stands for a missing minimum or an infinite tail bound.
``inequality`` writes its reports record by record from fixed templates
(``DeltaReport.write_json`` and ``write_csv``), byte-identical to that
layout; the other reports go through ``json.dumps`` or ``csv.writer``.
Every report writes an integer of more than 4,300 decimal digits as exact
hex text, ``"0x..."`` or ``"-0x..."``, and decimal below that.  ``main``
raises an int-to-str limit below 4,300 digits (``PYTHONINTMAXSTRDIGITS``)
to 4,300, so that the environment does not change a report.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys

from .divisors import (
    DatumError,
    check_effective,
    check_pushpull_identity,
    combine_resolutions,
    compute_D,
    find_essential,
    load_datum,
    validate_resolution,
)
from .dynamics import (
    DEFAULT_BIT_BUDGET,
    AffineAutomorphism,
    InputError,
    InverseVerificationError,
    is_regular,
)
from .heights import canonical, weil_height_integer
from .inequality import (
    BoxSampler,
    CompositeSampler,
    OrbitSampler,
    RandomRationalSampler,
    RationalBoxSampler,
    batch_verify,
)
from .parsing import (
    DECIMAL_DIGITS,
    MapSyntaxError,
    excerpt,
    format_point,
    format_raw_point,
    load_map_file,
    parse_int,
    parse_point,
    report_int,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _bit_budget(args) -> int:
    if args.bit_budget <= 0:
        raise InputError("--bit-budget must be positive")
    return args.bit_budget


def _load_automorphism(args) -> AffineAutomorphism:
    mapfile = load_map_file(args.map)
    return AffineAutomorphism(mapfile.forward, mapfile.inverse, mapfile.names)


def _verdict_stream(args):
    """Where verdict lines go: stderr when a CSV report goes to stdout,
    so that stdout holds one table."""
    return sys.stderr if args.format == "csv" and not args.out else sys.stdout


def _write(args, write) -> None:
    """Call ``write`` with the report's handle: the ``--out`` file, else
    stdout.  A report writer needs only the handle's ``write``.

    A file report is written beside its target and renamed onto it once
    complete, so that a run that fails on the way leaves no partial report
    and keeps an earlier one.  A target that exists and is not a regular
    file, such as ``/dev/stdout``, is written in place.  An ``OSError``
    names the ``--out`` path as given, not the file beside it.
    """
    if not args.out:
        write(sys.stdout)
        return
    if os.path.exists(args.out) and not os.path.isfile(args.out):
        with open(args.out, "w", encoding="utf-8") as handle:
            write(handle)
        return
    target = os.path.realpath(args.out)
    partial = target + ".partial"
    try:
        with open(partial, "w", encoding="utf-8") as handle:
            write(handle)
        os.replace(partial, target)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(partial)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, args.out) from exc
        raise


def _emit(payload, args, csv_rows=None) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        # Compact, so that CPython takes its one-shot C encoder.  Strict:
        # reports write null for a missing or infinite value, so a NaN or
        # infinity here is a fault and raises.
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        for row in csv_rows:
            writer.writerow(row)
        text = buffer.getvalue()
    _write(args, lambda handle: handle.write(text))


def _bounds(text: str) -> tuple[int, int]:
    """The rational bounds ``N[:D]`` as ``(N, D)``; ``D`` defaults to 3."""
    num, _, den = text.partition(":")
    return parse_int(num), parse_int(den) if den else 3


def _parse_sampler(spec: str, seed: int, n: int):
    kind, _, rest = spec.partition(":")
    try:
        if kind == "box":
            return BoxSampler(parse_int(rest))
        if kind == "rationals":
            return RationalBoxSampler(*_bounds(rest))
        if kind == "random":
            count, _, bounds = rest.partition(":")
            return RandomRationalSampler(parse_int(count), *_bounds(bounds or "5:3"), seed)
        if kind == "orbit":
            depth, _, seeds_text = rest.partition(":")
            if not seeds_text:
                raise InputError("orbit sampler needs seed points: orbit:DEPTH:P1;P2")
            seeds = tuple(parse_point(chunk, n) for chunk in seeds_text.split(";"))
            return OrbitSampler(seeds, parse_int(depth))
    except ValueError as exc:
        raise InputError(f"bad sampler spec {excerpt(spec)}: {exc}")
    raise InputError(f"unknown sampler kind {kind!r}")


# -- subcommands ---------------------------------------------------------


def cmd_verify_map(args) -> int:
    automorphism = _load_automorphism(args)
    result = is_regular(automorphism)
    payload = {
        "map_id": automorphism.map_id,
        "d": automorphism.d,
        "d_inv": automorphism.d_inv,
        "regularity": result.verdict,
        "method": result.method,
        "witness": list(result.witness) if result.witness else None,
        "details": {k: v for k, v in sorted(result.details.items())},
    }
    if args.out:
        _emit(payload, args)
    print(f"{result.verdict}, d={automorphism.d}, d'={automorphism.d_inv}")
    detail = ", ".join(f"{k}={v}" for k, v in sorted(result.details.items()))
    print(f"certificate: {result.method}" + (f" ({detail})" if detail else ""))
    if result.witness:
        print(f"witness at infinity: {list(result.witness)}")
    return EXIT_OK


def cmd_orbit(args) -> int:
    automorphism = _load_automorphism(args)
    point = parse_point(args.point, automorphism.n)
    result = automorphism.orbit(point, args.depth, args.direction, _bit_budget(args))
    texts = [format_raw_point(*raw) for raw in result.raw]
    heights = [math.log(h) for h in result.heights]
    payload = {
        "map_id": automorphism.map_id,
        "direction": args.direction,
        "requested_depth": args.depth,
        "completed_depth": result.completed_depth,
        "truncated": result.truncated,
        "points": texts,
        "heights": heights,
    }
    rows = [["step", "point", "height"]]
    rows += [[k, text, h] for k, (text, h) in enumerate(zip(texts, heights))]
    _emit(payload, args, rows)
    return EXIT_OK


def cmd_height(args) -> int:
    point = parse_point(args.point)
    height = weil_height_integer(point)
    payload = {
        "point": format_point(point),
        "height_integer": report_int(height),
        "height": math.log(height),
    }
    rows = [["point", "height_integer", "height"],
            [payload["point"], payload["height_integer"], payload["height"]]]
    _emit(payload, args, rows)
    return EXIT_OK


def cmd_canonical(args) -> int:
    automorphism = _load_automorphism(args)
    point = parse_point(args.point, automorphism.n)
    result = canonical(automorphism, point, args.depth, _bit_budget(args))
    payload = result.to_report(automorphism.map_id)
    rows = [["k", "direction", "height_integer", "value"]]
    for estimate in (result.plus, result.minus):
        for k, (integer, value) in enumerate(
            zip(estimate.step_integers, estimate.values)
        ):
            rows.append([k, estimate.direction, report_int(integer), value])
    _emit(payload, args, rows)
    return EXIT_OK if result.certified else EXIT_VERIFICATION


def cmd_inequality(args) -> int:
    automorphism = _load_automorphism(args)
    specs = args.sampler or ["rationals:5:3"]
    samplers = [_parse_sampler(spec, args.seed, automorphism.n) for spec in specs]
    sampler = samplers[0] if len(samplers) == 1 else CompositeSampler(tuple(samplers))
    report = batch_verify(automorphism, sampler, _bit_budget(args))
    if args.format == "csv":
        _write(args, report.write_csv)
    elif args.out:
        _write(args, lambda handle: report.write_json(handle, args.seed))
    verdict = "PASS" if report.stabilized else "FAIL"
    print(
        f"{verdict}: min_delta={report.min_delta!r} over {len(report.records)} points "
        f"({report.skipped} skipped); {report.stabilization_note}",
        file=_verdict_stream(args),
    )
    return EXIT_OK if report.stabilized else EXIT_VERIFICATION


def cmd_divisor(args) -> int:
    data = [load_datum(path) for path in args.datum]
    if args.format == "csv" and len(data) != 2:
        raise InputError("--format csv needs exactly two data, one forward and one inverse")
    if len(data) == 2 and {d.side for d in data} != {"forward", "inverse"}:
        raise InputError("need one forward-side and one inverse-side datum")
    lines: list[str] = []
    payload: dict = {"data": []}
    failures = 0
    for datum in data:
        report = validate_resolution(datum)
        entry = {
            "name": datum.name,
            "side": datum.side,
            "violations": [
                {"law": v.law, "message": v.message} for v in report.violations
            ],
        }
        if datum.pushforward is not None:
            try:
                entry["essential_index"] = find_essential(datum.b, datum.pushforward)
                entry["essential_label"] = datum.basis.labels[entry["essential_index"]]
                if entry["essential_index"] != datum.t:
                    lines.append(
                        f"essential index mismatch: pushforward gives "
                        f"{entry['essential_label']}, datum declares "
                        f"{datum.basis.labels[datum.t]}"
                    )
                    failures += 1
            except DatumError as exc:
                entry["essential_index"] = None
                lines.append(f"essential-divisor search failed: {exc}")
                failures += 1
            entry["pushpull_identity"] = check_pushpull_identity(datum)
            if not entry["pushpull_identity"]:
                failures += 1
        if not report.ok:
            failures += 1
        payload["data"].append(entry)
        lines += [f"violation ({v.law}): {v.message}" for v in report.violations]
    if len(data) == 2:
        forward, inverse = sorted(data, key=lambda d: d.side != "forward")
        combined = combine_resolutions(forward, inverse)
        divisor = compute_D(combined)
        effectivity = check_effective(divisor)
        payload["D"] = {
            "coefficients": {
                label: str(c)
                for label, c in zip(divisor.basis.labels, divisor.coeffs)
            },
            "text": divisor.as_text(),
            "effective": effectivity.effective,
            "first_negative": effectivity.first_negative,
        }
        lines += [f"D = {divisor.as_text()}", f"effective: {effectivity.effective}"]
        if not effectivity.effective:
            lines.append(f"first negative coefficient: {effectivity.first_negative}")
            failures += 1
        rows = [["label", "coefficient"]]
        rows += [
            [label, str(c)] for label, c in zip(divisor.basis.labels, divisor.coeffs)
        ]
    if args.format == "csv":
        _emit(None, args, rows)
    elif args.out:
        _emit(payload, args)
    for line in lines:
        print(line, file=_verdict_stream(args))
    return EXIT_VERIFICATION if failures else EXIT_OK


# -- argument parsing ------------------------------------------------------


def _add_report(parser, with_csv=True):
    parser.add_argument("--out", help="write the report to this path")
    if with_csv:
        parser.add_argument(
            "--format", choices=("json", "csv"), default="json", help="report format"
        )


def _add_bit_budget(parser):
    cap = f"per-integer bit cap (default {DEFAULT_BIT_BUDGET})"
    parser.add_argument("--bit-budget", type=int, default=DEFAULT_BIT_BUDGET, help=cap)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affdyn",
        description="Exact orbits, heights, and divisor ledgers for affine automorphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-map", help="verify an inverse pair and decide regularity")
    p.add_argument("map", help="map definition file")
    _add_report(p, with_csv=False)
    p.set_defaults(func=cmd_verify_map)

    p = sub.add_parser("orbit", help="exact orbit segment of a point")
    p.add_argument("map", help="map definition file")
    _add_report(p)
    _add_bit_budget(p)
    p.add_argument("--point", required=True, help="affine point, e.g. 1,1/2,-3")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--direction", choices=("forward", "inverse"), default="forward")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("height", help="Weil height of a rational point")
    _add_report(p)
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_height)

    p = sub.add_parser("canonical", help="canonical height estimate with certificate")
    p.add_argument("map", help="map definition file")
    _add_report(p)
    _add_bit_budget(p)
    p.add_argument("--point", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("inequality", help="batch-verify the height inequality")
    p.add_argument("map", help="map definition file")
    _add_report(p)
    _add_bit_budget(p)
    p.add_argument(
        "--seed", type=int, default=0,
        help="seed of the random: sampler, recorded in JSON reports",
    )
    p.add_argument(
        "--sampler",
        action="append",
        help="box:B | rationals:N[:D] | random:COUNT[:N[:D]] | orbit:DEPTH:P1;P2 "
        "(repeatable; default rationals:5:3)",
    )
    p.set_defaults(func=cmd_inequality)

    p = sub.add_parser("divisor", help="validate resolution data and compute D")
    p.add_argument("datum", nargs="+", help="datum JSON file(s)")
    _add_report(p)
    p.set_defaults(func=cmd_divisor)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits") and (
        0 < sys.get_int_max_str_digits() < DECIMAL_DIGITS
    ):
        sys.set_int_max_str_digits(DECIMAL_DIGITS)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InverseVerificationError as exc:
        print(f"inverse verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (InputError, MapSyntaxError, DatumError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # A fault of affdyn, not of its input: say so first, then keep the
        # traceback for the bug report.
        import traceback  # only on this path: it adds ~3 ms to every start

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
