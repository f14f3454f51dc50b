"""One benchmark operation in a fresh interpreter.

Usage: python3 child.py CONFIG_JSON

The config names the workload, seed, size, work directory, run id and the
result path.  The child times the set-up steps, builds the workload's
inputs, times the operation (traced or not) between two timings of a
fixed calibration task, reads its peak RSS (the high-water mark of the
whole child, inputs included), and only then runs the output checks.  With ``setup_only`` it stops after set-up.
The result goes to the result path as JSON; ``run.py`` aggregates it.
"""

import sys
from time import perf_counter

start = perf_counter()
import affdyn  # noqa: E402  (timed: the import is the first set-up step)

imported = perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from affdyn import dynamics, kernel, parsing  # noqa: E402

CALIBRATION_LOOPS = 1_000_000


def setup(map_path: str):
    """The set-up steps after the import, each timed."""
    steps = {"import": imported - start}
    t0 = perf_counter()
    mapfile = parsing.load_map_file(map_path)
    t1 = perf_counter()
    automorphism = dynamics.AffineAutomorphism(mapfile.forward, mapfile.inverse, mapfile.names)
    t2 = perf_counter()
    regularity = dynamics.is_regular(automorphism)
    t3 = perf_counter()
    automorphism.compiled("forward")
    automorphism.compiled("inverse")
    t4 = perf_counter()
    steps.update(load_map_file=t1 - t0, verify=t2 - t1, is_regular=t3 - t2, compile_map=t4 - t3)
    if regularity.verdict != "regular":
        raise RuntimeError(f"bundled map is {regularity.verdict}")
    return automorphism, steps


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop that runs no affdyn code.

    About 0.1 to 0.25 s.  Timed just before and just after an operation, it
    measures how fast the host runs at that moment; on a shared host this
    speed drifts by tens of percent within seconds.
    """
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return perf_counter() - start


def operate(config: dict, automorphism) -> dict:
    # Imported after set-up, so that set-up-only children never load them.
    import tracer
    import workloads

    workload = workloads.WORKLOADS[config["workload"]]
    ctx = workloads.Context(
        automorphism=automorphism,
        map_path=config["map_path"],
        workdir=config["workdir"],
        seed=config["seed"],
        size=config["size"],
    )
    inputs = workload.prepare(ctx)
    recorder = None
    if config["trace"]:
        recorder = tracer.Tracer(config["run_id"])
        tracer.install(recorder)
    before = calibrate()
    if recorder is not None:
        root = recorder.begin(tracer.ROOT)
    t0 = perf_counter()
    outcome = workload.run(ctx, inputs)
    wall = perf_counter() - t0
    if recorder is not None:
        recorder.end(root)
    calibration = (before + calibrate()) / 2
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        recorder.dump(config["spans"])
    items = workload.items(ctx, inputs, outcome)
    result = {
        "wall_s": wall,
        "items_per_s": items / wall,
        "calibration_s": calibration,
        "wall_ref": wall / calibration,
        "items_per_ref": items * calibration / wall,
        "peak_rss_mb": peak_kib / 1024.0,
        "problems": workload.check(ctx, inputs, outcome),
    }
    if workload.writes_report:
        result["report_bytes"] = os.path.getsize(inputs["report"])
    return result


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as handle:
        config = json.load(handle)
    expected_src = os.path.realpath(os.path.join(config["root"], "src", "affdyn"))
    if os.path.realpath(os.path.dirname(affdyn.__file__)) != expected_src:
        raise RuntimeError(f"imported affdyn from {affdyn.__file__}, not {expected_src}")
    result = {"backend": kernel.BACKEND, "python": sys.version.split()[0]}
    try:
        automorphism, result["setup"] = setup(config["map_path"])
        if not config["setup_only"]:
            result.update(operate(config, automorphism))
    except Exception:
        result["problems"] = [traceback.format_exc()]
    with open(config["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
