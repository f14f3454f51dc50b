"""Compare two saved benchmark results of the same workload.

Usage: python3 perfbench/compare.py BEFORE.json AFTER.json

Both files come from ``run.py --save``.  Results from different kernel
backends, workloads, sizes or trace modes are refused (exit 2): their
numbers measure different things.  For each end-to-end metric the change
of the median is judged against the bound in ``BENCHMARK.json``; a metric
whose quartile range is wider than its bound is reported as unresolved.
The times as measured, and per-layer metrics, are listed with their change
and no verdict.  Exits 1
when an end-to-end metric got worse by more than its bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUST_MATCH = ("backend", "workload", "size", "trace")


def load(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def relative_change(before: float, after: float) -> float:
    return (after - before) / abs(before) if before else 0.0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    for key in MUST_MATCH:
        if before["provenance"][key] != after["provenance"][key]:
            print(
                f"refusing to compare: {key} differs "
                f"({before['provenance'][key]!r} vs {after['provenance'][key]!r})",
                file=sys.stderr,
            )
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"workload {before['provenance']['workload']}, backend "
          f"{before['provenance']['backend']}: {argv[0]} -> {argv[1]}")
    regressed = False
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a, b = before["end_to_end"][name], after["end_to_end"][name]
        change = relative_change(a["value"], b["value"])
        worse = change if metric["better"] == "lower" else -change
        spread = max((s["p75"] - s["p25"]) / abs(s["value"]) for s in (a, b))
        if worse > bound:
            verdict = "WORSE than bound"
            regressed = True
        elif spread > bound:
            verdict = "unresolved (operations spread wider than bound)"
        else:
            verdict = "within bound" if worse >= -bound else "better"
        print(f"  {name}: {a['value']:.6g} -> {b['value']:.6g} {metric['unit']} "
              f"({change:+.1%}, {metric['better']} is better, bound {bound:.0%}): {verdict}")
    for name, unit in (("wall_s", "s"), ("items_per_s", "1/s"), ("calibration_s", "s")):
        a, b = before["end_to_end"][name]["value"], after["end_to_end"][name]["value"]
        print(f"  {name}: {a:.6g} -> {b:.6g} {unit} ({relative_change(a, b):+.1%}, as measured)")
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in before["per_layer"] and name in after["per_layer"]:
            a = before["per_layer"][name]["value"]
            b = after["per_layer"][name]["value"]
            print(f"  {name}: {a:.6g} -> {b:.6g} {metric['unit']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
