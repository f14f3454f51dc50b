"""Spans around the public calls of each affdyn layer, and the per-layer split.

The wrappers are installed on module and class attributes at the place
where callers look them up, so the program's own code is unchanged:

- ``affdyn.kernel.eval_point`` and ``affdyn.kernel.to_common_denominator``
  (``inequality``, ``heights`` and ``dynamics`` call them through ``kernel.``);
- ``affdyn.cli.batch_verify``, because ``cli`` imports it by name;
- the ``points`` generators of the box and random samplers;
- ``DeltaReport.to_json_dict`` and ``DeltaReport.to_csv_rows``;
- the ``json``, ``csv`` and ``open`` names that ``cli`` uses to encode and
  write a report;
- ``affdyn.heights.canonical``;
- the six ``affdyn.divisors`` functions ``cmd_divisor`` calls.

A span is ``[name, parent, start, end, attrs]``; the parent is the index of
the enclosing span.  Spans stay in memory until the operation ends and are
then written out in one file that carries the run id.  A layer's self time
is its span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
from time import perf_counter

DIVISOR_FUNCTIONS = (
    "validate_resolution",
    "find_essential",
    "check_pushpull_identity",
    "combine_resolutions",
    "compute_D",
    "check_effective",
)

SETUP_STEPS = (
    ("import", "affdyn.import.s"),
    ("load_map_file", "parsing.load_map_file.s"),
    ("verify", "dynamics.verify.s"),
    ("is_regular", "dynamics.is_regular.s"),
    ("compile_map", "kernel.compile_map.s"),
)

ROOT = "op"


class Tracer:
    """In-memory span recorder for one child process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf_counter(), None, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span[3] = perf_counter()
        span[4] = attrs
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[0]} closed out of order")

    def wrap(self, name: str, func, attrs=None):
        """``func`` inside a span; ``attrs(result, args, kwargs)`` annotates it."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.end(index, {"raised": True})
                raise
            self.end(index, attrs(result, args, kwargs) if attrs else None)
            return result

        return traced

    def wrap_generator(self, name: str, func):
        """A generator function whose every ``next`` is a span."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            inner = func(*args, **kwargs)
            while True:
                index = self.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    self.end(index, {"exhausted": True})
                    return
                except BaseException:
                    self.end(index, {"raised": True})
                    raise
                self.end(index)
                yield item

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id, "spans": self.spans}, handle)


class _Proxy:
    """Stands in for a module or object, overriding some attributes."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class _TracedFile:
    """File handle whose whole lifetime, open to close, is one span."""

    def __init__(self, tracer: Tracer, args, kwargs):
        self._tracer = tracer
        self._index = tracer.begin("cli.write")
        self._handle = open(*args, **kwargs)

    def write(self, text):
        return self._handle.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.flush()
        size = os.fstat(self._handle.fileno()).st_size
        self._handle.close()
        self._tracer.end(self._index, {"bytes": size})
        return False


def install(tracer: Tracer) -> None:
    """Put the wrappers listed in the module docstring in place."""
    import csv

    from affdyn import cli, divisors, heights, inequality, kernel

    kernel.eval_point = tracer.wrap(
        "kernel.eval_point",
        kernel.eval_point,
        lambda result, args, kwargs: {"bits": kernel.max_bits(*result)},
    )
    kernel.to_common_denominator = tracer.wrap(
        "kernel.to_common_denominator", kernel.to_common_denominator
    )
    cli.batch_verify = tracer.wrap(
        "inequality.batch_verify",
        cli.batch_verify,
        lambda report, args, kwargs: {
            "kept": len(report.records),
            "skipped": report.skipped,
        },
    )
    for sampler in (inequality.BoxSampler, inequality.RandomRationalSampler):
        sampler.points = tracer.wrap_generator("inequality.sample", sampler.points)
    report_cls = inequality.DeltaReport
    report_cls.to_json_dict = tracer.wrap(
        "inequality.report.to_json_dict", report_cls.to_json_dict
    )
    report_cls.to_csv_rows = tracer.wrap_generator(
        "inequality.report.to_csv_rows", report_cls.to_csv_rows
    )

    cli.json = _Proxy(cli.json, dumps=tracer.wrap("cli.encode", cli.json.dumps))

    def traced_writer(*args, **kwargs):
        writer = csv.writer(*args, **kwargs)
        return _Proxy(writer, writerow=tracer.wrap("cli.encode", writer.writerow))

    cli.csv = _Proxy(csv, writer=traced_writer)
    cli.open = lambda *args, **kwargs: _TracedFile(tracer, args, kwargs)

    heights.canonical = tracer.wrap(
        "heights.canonical",
        heights.canonical,
        lambda result, args, kwargs: {"bit_budget": kwargs["bit_budget"]},
    )
    for name in DIVISOR_FUNCTIONS:
        setattr(divisors, name, tracer.wrap(f"divisors.{name}", getattr(divisors, name)))


# -- analysis --------------------------------------------------------------


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer split of one traced operation.

    Every metric is present whatever the workload; a layer that did not run
    reports zero calls and zero seconds.
    """
    child_time = [0.0] * len(spans)
    by_name: dict[str, list[int]] = {}
    for index, (name, parent, start, end, attrs) in enumerate(spans):
        by_name.setdefault(name, []).append(index)
        if parent >= 0:
            child_time[parent] += end - start

    def named(name):
        return by_name.get(name, [])

    def total(indices):
        return sum(spans[i][3] - spans[i][2] for i in indices)

    def self_time(indices):
        return sum(spans[i][3] - spans[i][2] - child_time[i] for i in indices)

    def attr_sum(indices, key):
        return sum(spans[i][4][key] for i in indices)

    out: dict[str, float] = {}
    sampled = named("inequality.sample")
    out["inequality.sample.points"] = sum(1 for i in sampled if not spans[i][4])
    out["inequality.sample.s"] = total(sampled)

    for name in ("kernel.to_common_denominator", "kernel.eval_point"):
        out[f"{name}.calls"] = len(named(name))
        out[f"{name}.s"] = total(named(name))
    evals = named("kernel.eval_point")
    out["kernel.eval_point.bits_out"] = attr_sum(evals, "bits")

    verifies = named("inequality.batch_verify")
    kept = attr_sum(verifies, "kept")
    skipped = attr_sum(verifies, "skipped")
    out["inequality.records.kept"] = kept
    out["inequality.records.skipped"] = skipped
    out["inequality.records.kept_ratio"] = kept / (kept + skipped) if kept + skipped else 0.0
    out["inequality.batch_verify.self_s"] = self_time(verifies)
    out["inequality.report.to_json_dict.s"] = total(named("inequality.report.to_json_dict"))
    out["inequality.report.to_csv_rows.s"] = total(named("inequality.report.to_csv_rows"))

    out["cli.encode.s"] = total(named("cli.encode"))
    out["cli.write.s"] = total(named("cli.write"))
    out["cli.report_bytes"] = attr_sum(named("cli.write"), "bytes")

    canonicals = named("heights.canonical")
    budgets = {i: spans[i][4]["bit_budget"] for i in canonicals}
    steps = [j for j in evals if spans[j][1] in budgets]
    discarded = [j for j in steps if spans[j][4]["bits"] > budgets[spans[j][1]]]
    out["heights.canonical.steps_evaluated"] = len(steps)
    out["heights.canonical.steps_kept"] = len(steps) - len(discarded)
    out["heights.canonical.kept_ratio"] = (
        (len(steps) - len(discarded)) / len(steps) if steps else 0.0
    )
    out["heights.canonical.discarded_eval_s"] = total(discarded)
    out["heights.canonical.self_s"] = self_time(canonicals)

    for name in DIVISOR_FUNCTIONS:
        out[f"divisors.{name}.calls"] = len(named(f"divisors.{name}"))
        out[f"divisors.{name}.s"] = total(named(f"divisors.{name}"))

    out["trace.unaccounted_s"] = self_time(named(ROOT))
    out["trace.spans"] = len(spans)
    return out


def load_spans(path: str, run_id: str) -> list[list]:
    """Spans written by ``Tracer.dump``, checked to belong to ``run_id``."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if data["run_id"] != run_id:
        raise ValueError(f"spans file {path} belongs to run {data['run_id']}")
    if any(span[3] is None for span in data["spans"]):
        raise ValueError(f"spans file {path} holds an unclosed span")
    return data["spans"]
