"""The affdyn benchmark: one workload, measured for a fixed time.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--save PATH]

Run from anywhere inside a checkout that holds ``src/affdyn``; the program
runs from that source tree.  Each operation runs in a fresh child process
(``child.py``), one at a time.  A run first starts a few set-up-only
children, then starts operations until ``--seconds`` have passed (at least
``MIN_OPS``).  Medians over the operations of the run are reported.

Each operation's time is reported as measured (``wall_s``, ``items_per_s``)
and divided by the time of a fixed calibration task that the child runs
just before and just after the operation (``wall_ref``, ``items_per_ref``).
The calibration runs no affdyn code, so a change to the program moves the
ratio as much as the time.  The host's speed, though, drifts by up to 2x
within minutes without any steal time visible inside it, and the ratio
cancels most of that drift.  ``BENCHMARK.json`` therefore bounds the ratio
forms; the times in seconds are printed and saved beside them.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics: the split from the traced operations, and the tracing
overhead as the difference of the median traced and untraced wall times
(``trace.overhead_ratio`` uses ``wall_ref``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give each metric with its quartiles and sample count, the provenance, and
known defects.  ``--save`` also writes all of that, with every sample, to a
file that ``compare.py`` reads.  ``--smoke`` runs the small sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import uuid
from pathlib import Path
from time import perf_counter

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAP_FILE = ROOT / "src" / "affdyn" / "data" / "henon3.map"
SETUP_CHILDREN = 10
MIN_OPS = 3
HARD_LIMIT_S = 170.0
# Per-operation measurements summarized over the untraced operations.
OP_METRICS = ("wall_s", "items_per_s", "calibration_s", "wall_ref", "items_per_ref", "peak_rss_mb")

# ROADMAP item 4a: the CLI cannot print integers past 4300 digits, so this
# command exits 2.  It runs untimed in deep-canonical and is reported, not
# hidden: the harness never raises the int->str limit.
KNOWN_DEFECT_ARGV = [
    "canonical", "src/affdyn/data/henon3.map", "--point", "1,1,1", "--depth", "12",
]


class BenchmarkError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def remaining(started: float) -> float:
    left = HARD_LIMIT_S - (perf_counter() - started)
    if left <= 0:
        raise BenchmarkError(f"run exceeded {HARD_LIMIT_S:.0f} s")
    return left


def run_child(config: dict, started: float) -> dict:
    """Start one child, wait for it, and return its result."""
    path = Path(config["workdir"]) / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(path)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=remaining(started),
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"child of {config['workload']} timed out") from None
    result_path = Path(config["result"])
    if done.returncode != 0 or not result_path.exists():
        tail = done.stderr.strip().splitlines()[-5:]
        return {"problems": [f"child exited {done.returncode}: " + " | ".join(tail)]}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    return result


def run_known_defect(started: float) -> dict:
    try:
        done = subprocess.run(
            [sys.executable, "-m", "affdyn.cli", *KNOWN_DEFECT_ARGV],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=remaining(started),
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError("the known-defect command timed out") from None
    lines = done.stderr.strip().splitlines()
    return {
        "command": "affdyn " + " ".join(KNOWN_DEFECT_ARGV),
        "exit": done.returncode,
        "failed": done.returncode not in (0, 1),
        "message": lines[-1][:200] if lines else "",
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def summarize(values: list[float]) -> dict:
    if len(values) >= 2:
        p25, median, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = median = p75 = values[0]
    return {"value": median, "p25": p25, "p75": p75, "n": len(values), "samples": values}


def child_config(workload: str, seed: int, size: str, workdir: Path, run_id: str) -> dict:
    """What every child of a run is told; ``run_child`` adds the rest."""
    return {
        "workload": workload,
        "seed": seed,
        "size": size,
        "root": str(ROOT),
        "map_path": str(MAP_FILE),
        "workdir": str(workdir),
        "run_id": run_id,
        "result": str(workdir / "result.json"),
        "spans": str(workdir / "spans.json"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    started = perf_counter()
    run_id = uuid.uuid4().hex
    workdir = ROOT / ".perfbench_work" / run_id
    workdir.mkdir(parents=True)
    base = child_config(workload, seed, size, workdir, run_id)
    try:
        setups = [
            run_child({**base, "setup_only": True, "trace": False}, started)
            for _ in range(SETUP_CHILDREN)
        ]
        known_defect = run_known_defect(started) if workload == "deep-canonical" else None
        ops = []
        timed_from = perf_counter()
        while len(ops) < MIN_OPS or perf_counter() - timed_from < seconds:
            traced = trace and len(ops) % 2 == 1
            result = run_child({**base, "setup_only": False, "trace": traced}, started)
            result["traced"] = traced
            if traced and "wall_s" in result:
                result["layers"] = tracer.layer_metrics(
                    tracer.load_spans(base["spans"], run_id)
                )
            ops.append(result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    return {
        "run_id": run_id,
        "setups": setups,
        "ops": ops,
        "known_defect": known_defect,
        "elapsed_s": perf_counter() - started,
    }


def aggregate(raw: dict, trace: bool) -> tuple[dict, dict]:
    """End-to-end and per-layer metric summaries of one run.

    Every operation that ran to the end is timed, whether or not its output
    checks passed; ``correct`` and ``failed`` report the checks.
    """
    children = [c for c in raw["setups"] + raw["ops"] if "setup" in c]
    measured = [op for op in raw["ops"] if "wall_s" in op]
    plain = [op for op in measured if not op["traced"]]
    traced = [op for op in measured if op["traced"]]
    if not children or not plain or (trace and not traced):
        raise BenchmarkError("no operation of this run ran to the end")

    end_to_end = {"setup_s": summarize([sum(c["setup"].values()) for c in children])}
    for name in OP_METRICS:
        end_to_end[name] = summarize([op[name] for op in plain])
    if all("report_bytes" in op for op in plain):
        end_to_end["report_bytes"] = summarize([op["report_bytes"] for op in plain])
    per_layer = {}
    if trace:
        for step, name in tracer.SETUP_STEPS:
            per_layer[name] = summarize([c["setup"][step] for c in children])
        for name in traced[0]["layers"]:
            per_layer[name] = summarize([op["layers"][name] for op in traced])
        traced_wall = statistics.median(op["wall_s"] for op in traced)
        traced_ref = statistics.median(op["wall_ref"] for op in traced)
        per_layer["trace.overhead_s"] = summarize([traced_wall - end_to_end["wall_s"]["value"]])
        per_layer["trace.overhead_ratio"] = summarize(
            [traced_ref / end_to_end["wall_ref"]["value"] - 1]
        )
        defect = raw["known_defect"]
        per_layer["cli.canonical_default_budget.failed"] = summarize(
            [int(defect["failed"]) if defect else 0]
        )
    return end_to_end, per_layer


def provenance(raw: dict, args, size: str) -> dict:
    backends = {c["backend"] for c in raw["setups"] + raw["ops"] if "backend" in c}
    pythons = {c["python"] for c in raw["setups"] + raw["ops"] if "python" in c}
    if len(backends) != 1 or len(pythons) != 1:
        raise BenchmarkError(f"children disagree on backend {backends} or python {pythons}")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "size": size,
        "backend": backends.pop(),
        "python": pythons.pop(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "run_id": raw["run_id"],
    }


def parse_args(workloads: list[str], argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="run the small sizes")
    parser.add_argument("--save", help="write the full result, with samples, here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args([w["name"] for w in spec["workloads"]], argv)
    if not (ROOT / "src" / "affdyn" / "__init__.py").is_file():
        print(f"error: no affdyn source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    size = "smoke" if args.smoke else "full"
    try:
        raw = measure(args.workload, args.seed, args.seconds, bool(args.trace), size)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = len(raw["ops"])
    failed = sum(1 for op in raw["ops"] if op.get("problems"))
    problems = [p for child in raw["setups"] + raw["ops"] for p in child.get("problems", [])]
    print(f"workload {args.workload}: {attempted} operations, {failed} failed, "
          f"{raw['elapsed_s']:.1f} s")
    for problem in problems[:10]:
        print(f"check failed: {problem}")
    if raw["known_defect"]:
        defect = raw["known_defect"]
        state = "FAILED" if defect["failed"] else "ok"
        print(f"known defect {state}: `{defect['command']}` exit {defect['exit']}: "
              f"{defect['message']}")
    try:
        end_to_end, per_layer = aggregate(raw, bool(args.trace))
        prov = provenance(raw, args, size)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    summaries = per_layer if args.trace else end_to_end
    units = {"wall_s": "s", "items_per_s": "1/s", "calibration_s": "s", "report_bytes": "B"}
    units.update((m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for name, s in summaries.items():
        print(f"  {name} = {s['value']:.6g} {units.get(name, '')} "
              f"(median of {s['n']}; quartiles {s['p25']:.6g} .. {s['p75']:.6g})")
    if args.save:
        saved = {
            "provenance": prov,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "known_defect": raw["known_defect"],
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "units": units,
        }
        Path(args.save).write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")

    metrics = {
        m["name"]: {"value": summaries[m["name"]]["value"], "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
