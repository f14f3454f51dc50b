"""Tests of the benchmark itself, at the small ``--smoke`` sizes.

Run with: python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import uuid
from pathlib import Path
from time import perf_counter

import pytest

import child
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=run.ROOT, script=run.HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_checks_outputs_and_prints_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"])
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert any(line.startswith("provenance: ") for line in lines)
    if workload == "deep-canonical":
        assert any(line.startswith("known defect") for line in lines)
    if trace:
        layers = {name: value["value"] for name, value in result["metrics"].items()}
        busy = {
            "wide-box": "inequality.sample.points",
            "wide-rational": "kernel.to_common_denominator.calls",
            "deep-canonical": "heights.canonical.steps_evaluated",
            "ledger-fuzz": "divisors.compute_D.calls",
        }
        assert layers[busy[workload]] > 0
        if workload.startswith("wide"):
            assert layers["inequality.sample.points"] == layers["inequality.records.kept"]
            assert layers["kernel.eval_point.calls"] == 2 * layers["inequality.records.kept"]


@pytest.mark.parametrize("workload", ["wide-box", "wide-rational"])
def test_traced_and_untraced_runs_write_identical_reports(workload, tmp_path):
    reports = []
    for trace in (False, True):
        workdir = tmp_path / str(trace)
        workdir.mkdir()
        config = run.child_config(workload, 7, "smoke", workdir, uuid.uuid4().hex)
        result = run.run_child({**config, "setup_only": False, "trace": trace}, perf_counter())
        assert not result["problems"]
        report = next(workdir.glob("report.*"))
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


def smoke_context(tmp_path):
    automorphism, _ = child.setup(str(run.MAP_FILE))
    return workloads.Context(automorphism, str(run.MAP_FILE), str(tmp_path), 3, "smoke")


def test_box_check_rejects_a_changed_height(tmp_path):
    ctx = smoke_context(tmp_path)
    box = workloads.WORKLOADS["wide-box"]
    inputs = box.prepare(ctx)
    outcome = box.run(ctx, inputs)
    assert box.check(ctx, inputs, outcome) == []
    path = Path(inputs["report"])
    report = json.loads(path.read_text())
    report["records"][0]["height_integers"][1] += 1
    path.write_text(json.dumps(report))
    assert box.check(ctx, inputs, outcome)


def test_deep_check_rejects_a_changed_step(tmp_path):
    ctx = smoke_context(tmp_path)
    deep = workloads.WORKLOADS["deep-canonical"]
    inputs = deep.prepare(ctx)
    result = deep.run(ctx, inputs)
    assert deep.check(ctx, inputs, result) == []
    steps = list(result.minus.step_integers)
    steps[2] += 1
    minus = dataclasses.replace(result.minus, step_integers=tuple(steps))
    changed = deep.check(ctx, inputs, dataclasses.replace(result, minus=minus))
    assert any("digest" in p for p in changed)
    assert any("step 2 disagrees" in p for p in changed)


def test_ledger_check_rejects_a_wrong_verdict_or_divisor(tmp_path):
    ctx = smoke_context(tmp_path)
    fuzz = workloads.WORKLOADS["ledger-fuzz"]
    cases = fuzz.prepare(ctx)
    outcomes = fuzz.run(ctx, cases)
    assert fuzz.check(ctx, cases, outcomes) == []
    sides, divisor, effectivity = outcomes[0]
    flipped = dataclasses.replace(effectivity, effective=not effectivity.effective)
    assert fuzz.check(ctx, cases, [(sides, divisor, flipped), *outcomes[1:]])
    doubled = divisor.scale(2)
    assert fuzz.check(ctx, cases, [(sides, doubled, effectivity), *outcomes[1:]])


def test_compare_refuses_results_from_different_backends(tmp_path):
    saved = {"provenance": {"backend": "python", "workload": "wide-box",
                            "size": "full", "trace": False}}
    other = {**saved, "provenance": {**saved["provenance"], "backend": "cython"}}
    paths = []
    for name, data in (("a", saved), ("b", other)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(data))
    done = bench(*map(str, paths), script=run.HERE / "compare.py")
    assert done.returncode == 2
    assert "backend differs" in done.stderr


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "wide-box", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
