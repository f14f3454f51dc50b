"""Batch command-line front end.

Subcommands: verify-map, orbit, height, canonical, inequality, divisor.
Identical configuration and inputs produce byte-identical reports; all
randomness is seeded and the seed is recorded.  Exit codes: 0 pass,
1 verification failure (on every subcommand this includes an inverse that
fails symbolic verification, and on ``inequality`` a sample that keeps
no point), 2 input error, 3 internal error (any other exception: a fault
in affdyn, reported as ``internal error: ...`` and its traceback on
stderr).  The bit budget may also be set through the AFFDYN_BIT_BUDGET
environment variable (flags win).

JSON reports are compact and key-sorted: one line, no spaces, then a
newline.  ``python -m json.tool --sort-keys --indent 2 report.json`` gives
the indented layout of earlier versions, byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

from . import kernel
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
    InverseVerificationError,
    is_regular,
)
from .heights import canonical, weil_height, weil_height_integer
from .inequality import (
    BoxSampler,
    CompositeSampler,
    OrbitSampler,
    RandomRationalSampler,
    RationalBoxSampler,
    batch_verify,
)
from .parsing import MapSyntaxError, format_point, format_raw_point, load_map_file, parse_point

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class InputError(Exception):
    pass


def _bit_budget(args) -> int:
    if getattr(args, "bit_budget", None) is not None:
        if args.bit_budget <= 0:
            raise InputError("--bit-budget must be positive")
        return args.bit_budget
    env = os.environ.get("AFFDYN_BIT_BUDGET")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise InputError(f"AFFDYN_BIT_BUDGET must be an integer, got {env!r}")
        if value <= 0:
            raise InputError("AFFDYN_BIT_BUDGET must be positive")
        return value
    return DEFAULT_BIT_BUDGET


def _load_automorphism(args) -> AffineAutomorphism:
    try:
        mapfile = load_map_file(args.map)
    except OSError as exc:
        raise InputError(f"cannot read map file: {exc}")
    inverse = mapfile.inverse
    if inverse is None:
        trust = getattr(args, "trust_inverse", None)
        if trust is None:
            raise InputError(
                "map file has no inverse block; supply one or use --trust-inverse"
            )
        try:
            extra = load_map_file(trust)
        except OSError as exc:
            raise InputError(f"cannot read trusted inverse file: {exc}")
        if extra.names != mapfile.names:
            raise InputError("trusted inverse declares different variables")
        inverse = extra.inverse if extra.inverse is not None else extra.forward
    return AffineAutomorphism(mapfile.forward, inverse, mapfile.names)


def _emit(payload, args, csv_rows=None) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        # Compact, so that CPython takes its one-shot C encoder.
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        if csv_rows is None:
            raise InputError("this report has no CSV form")
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        for row in csv_rows:
            writer.writerow(row)
        text = buffer.getvalue()
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_sampler(spec: str, seed: int, n: int):
    kind, _, rest = spec.partition(":")
    try:
        if kind == "box":
            return BoxSampler(int(rest))
        if kind == "rationals":
            num, _, den = rest.partition(":")
            return RationalBoxSampler(int(num), int(den) if den else 3)
        if kind == "random":
            count, _, bounds = rest.partition(":")
            if bounds:
                num, _, den = bounds.partition(":")
                return RandomRationalSampler(int(count), int(num), int(den), seed)
            return RandomRationalSampler(int(count), seed=seed)
        if kind == "orbit":
            depth, _, seeds_text = rest.partition(":")
            if not seeds_text:
                raise InputError("orbit sampler needs seed points: orbit:DEPTH:P1;P2")
            seeds = tuple(parse_point(chunk, n) for chunk in seeds_text.split(";"))
            return OrbitSampler(seeds, int(depth))
    except (ValueError, MapSyntaxError) as exc:
        raise InputError(f"bad sampler spec {spec!r}: {exc}")
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
        "seed": args.seed,
    }
    print(f"{result.verdict}, d={automorphism.d}, d'={automorphism.d_inv}")
    detail = ", ".join(f"{k}={v}" for k, v in sorted(result.details.items()))
    print(f"certificate: {result.method}" + (f" ({detail})" if detail else ""))
    if result.witness:
        print(f"witness at infinity: {list(result.witness)}")
    if args.out:
        _emit(payload, args)
    return EXIT_OK


def cmd_orbit(args) -> int:
    automorphism = _load_automorphism(args)
    point = parse_point(args.point, automorphism.n)
    result = automorphism.orbit(point, args.depth, args.direction, _bit_budget(args))
    texts = [format_raw_point(*raw) for raw in result.raw]
    heights = [math.log(kernel.height_integer(*raw)) for raw in result.raw]
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
    payload = {
        "point": format_point(point),
        "height_integer": weil_height_integer(point),
        "height": weil_height(point),
    }
    rows = [["point", "height_integer", "height"],
            [payload["point"], payload["height_integer"], payload["height"]]]
    _emit(payload, args, rows)
    return EXIT_OK


def cmd_canonical(args) -> int:
    automorphism = _load_automorphism(args)
    point = parse_point(args.point, automorphism.n)
    result = canonical(
        automorphism,
        point,
        depth=args.depth,
        tolerance=args.tolerance,
        bit_budget=_bit_budget(args),
        convention=args.convention,
    )
    payload = result.to_report(automorphism.map_id)
    payload["point"] = format_point(point)
    rows = [["k", "direction", "height_integer", "value"]]
    for estimate in (result.plus, result.minus):
        for k, (integer, value) in enumerate(
            zip(estimate.step_integers, estimate.values)
        ):
            rows.append([k, estimate.direction, integer, value])
    _emit(payload, args, rows)
    return EXIT_OK if result.certified else EXIT_VERIFICATION


def cmd_inequality(args) -> int:
    automorphism = _load_automorphism(args)
    samplers = [_parse_sampler(spec, args.seed, automorphism.n) for spec in args.sampler]
    sampler = samplers[0] if len(samplers) == 1 else CompositeSampler(tuple(samplers))
    report = batch_verify(
        automorphism,
        sampler,
        slack=args.slack,
        warmup=args.warmup,
        bit_budget=_bit_budget(args),
        assume_regular=args.assume_regular,
        mode="silverman" if args.silverman else "delta",
    )
    verdict = "PASS" if report.stabilized else "FAIL"
    # A CSV report without --out goes to stdout: keep the verdict out of it.
    to_stdout = args.format == "csv" and not args.out
    print(
        f"{verdict}: min_delta={report.min_delta!r} over {len(report.records)} points "
        f"({report.skipped} skipped); {report.stabilization_note}",
        file=sys.stderr if to_stdout else sys.stdout,
    )
    if args.format == "csv":
        _emit(None, args, report.to_csv_rows())
    elif args.out:
        payload = report.to_json_dict()
        payload["seed"] = args.seed
        _emit(payload, args)
    return EXIT_OK if report.stabilized else EXIT_VERIFICATION


def cmd_divisor(args) -> int:
    data = [load_datum(path) for path in args.datum]
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
                    print(
                        f"essential index mismatch: pushforward gives "
                        f"{entry['essential_label']}, datum declares "
                        f"{datum.basis.labels[datum.t]}"
                    )
                    failures += 1
            except DatumError as exc:
                entry["essential_index"] = None
                print(f"essential-divisor search failed: {exc}")
                failures += 1
            entry["pushpull_identity"] = check_pushpull_identity(datum)
            if not entry["pushpull_identity"]:
                failures += 1
        if not report.ok:
            failures += 1
        payload["data"].append(entry)
        for violation in report.violations:
            print(f"violation ({violation.law}): {violation.message}")
    if len(data) == 2:
        forward = next((d for d in data if d.side == "forward"), None)
        inverse = next((d for d in data if d.side == "inverse"), None)
        if forward is None or inverse is None:
            raise InputError("need one forward-side and one inverse-side datum")
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
        print(f"D = {divisor.as_text()}")
        print(f"effective: {effectivity.effective}")
        if not effectivity.effective:
            print(f"first negative coefficient: {effectivity.first_negative}")
            failures += 1
        rows = [["label", "coefficient"]]
        rows += [
            [label, str(c)] for label, c in zip(divisor.basis.labels, divisor.coeffs)
        ]
    else:
        rows = None
    if args.out:
        _emit(payload, args, rows)
    return EXIT_VERIFICATION if failures else EXIT_OK


# -- argument parsing ------------------------------------------------------


def _add_common(parser, with_map=True):
    if with_map:
        parser.add_argument("map", help="map definition file")
    parser.add_argument("--out", help="write the report to this path")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    parser.add_argument(
        "--bit-budget",
        type=int,
        default=None,
        help=f"per-integer bit cap (default {DEFAULT_BIT_BUDGET})",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed of the random: sampler, recorded in reports"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affdyn",
        description="Exact orbits, heights, and divisor ledgers for affine automorphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-map", help="verify an inverse pair and decide regularity")
    _add_common(p)
    p.add_argument("--trust-inverse", help="map file supplying a precomputed inverse")
    p.set_defaults(func=cmd_verify_map)

    p = sub.add_parser("orbit", help="exact orbit segment of a point")
    _add_common(p)
    p.add_argument("--point", required=True, help="affine point, e.g. 1,1/2,-3")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--direction", choices=("forward", "inverse"), default="forward")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("height", help="Weil height of a rational point")
    _add_common(p, with_map=False)
    p.add_argument("--point", required=True)
    p.set_defaults(func=cmd_height)

    p = sub.add_parser("canonical", help="canonical height estimate with certificate")
    _add_common(p)
    p.add_argument("--point", required=True)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--convention", choices=("sum", "difference"), default="sum")
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("inequality", help="batch-verify the height inequality")
    _add_common(p)
    p.add_argument(
        "--sampler",
        action="append",
        default=None,
        help="box:B | rationals:N[:D] | random:COUNT[:N:D] | orbit:DEPTH:P1;P2 "
        "(repeatable; default rationals:5:3)",
    )
    p.add_argument("--slack", type=float, default=0.05)
    p.add_argument("--warmup", type=int, default=64)
    p.add_argument(
        "--silverman", action="store_true", help="Silverman statistic (no mixed term) instead"
    )
    p.add_argument("--assume-regular", action="store_true")
    p.set_defaults(func=cmd_inequality)

    p = sub.add_parser("divisor", help="validate resolution data and compute D")
    p.add_argument("datum", nargs="+", help="datum JSON file(s)")
    p.add_argument("--out", help="write the report to this path")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_divisor)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "sampler", None) is None and args.command == "inequality":
        args.sampler = ["rationals:5:3"]
    if getattr(args, "depth", None) is not None and args.depth < 0:
        print("depth must be non-negative", file=sys.stderr)
        return EXIT_INPUT
    if getattr(args, "tolerance", None) is not None and args.tolerance <= 0:
        print("tolerance must be positive", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except InverseVerificationError as exc:
        print(f"inverse verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (MapSyntaxError, DatumError, InputError, OSError, ValueError) as exc:
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
