"""``inequality`` on two processes: ``batch_verify`` and the report writers
hand every other block to one forked worker and merge the results in
sample order.  The reports and their bytes must equal those of one
process, the first error in sample order must be raised, and no worker
may outlive the call that started it."""

import contextlib
import dataclasses
import io
import itertools
import os
import signal
import subprocess
import sys
import threading
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

from affdyn import inequality, kernel
from affdyn.inequality import (
    BoxSampler,
    CompositeSampler,
    DeltaReport,
    OrbitSampler,
    RandomRationalSampler,
    RationalBoxSampler,
    batch_verify,
)
from affdyn.parsing import DECIMAL_LIMIT

from test_inequality import FixedSampler

ONE = (Fraction(1),) * 3

# A point past the default budget, skipped before any evaluation, and the
# 27 points of the box of bound 1.  Chunks of 7 over SMALL[:7], 14 copies
# of HUGE and SMALL[7:] give blocks 1 (the worker's) and 2 (this
# process's) that keep no record, and blocks 3 to 5 that keep some.
HUGE = ((2 ** (2**20), 0, 0), 1)
SMALL = [(nums, 1) for nums in itertools.product((-1, 0, 1), repeat=3)]


def started_workers(monkeypatch, fork: bool | None) -> list:
    """Force the fork predicate on or off (``None`` leaves it as it is)
    and return the list that collects every worker started."""
    if fork is not None:
        monkeypatch.setattr(inequality, "_fork_allowed", lambda: fork)
    started = []

    class Counted(inequality._Worker):
        def __init__(self, *args):
            started.append(self)  # in the parent: the worker never returns
            super().__init__(*args)

    monkeypatch.setattr(inequality, "_Worker", Counted)
    return started


def assert_no_child_left():
    """No child process of this one is running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds: int = 60):
    """Raise ``TimeoutError`` in this process after ``seconds``, so that a
    wait on a worker fails the test instead of hanging it."""

    def expire(signum, frame):
        raise TimeoutError(f"no result after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def written(report: DeltaReport) -> tuple[str, str]:
    as_json, as_csv = io.StringIO(), io.StringIO()
    report.write_json(as_json, 5)
    report.write_csv(as_csv)
    return as_json.getvalue(), as_csv.getvalue()


# ``widened``: the first record past 63 bits and the first written in hex.
# Chunks of 4 put the orbit's (records 6 and 14) in blocks 1 and 3, both
# the worker's.
@pytest.mark.parametrize(
    "sampler, chunk, widened",
    [
        (BoxSampler(3), 7, ([], [])),
        (RationalBoxSampler(2, 2), 7, ([], [])),
        (RandomRationalSampler(300, 50, 20, seed=3), 7, ([], [])),
        (CompositeSampler((BoxSampler(1), RationalBoxSampler(1, 2))), 7, ([], [])),
        (CompositeSampler((OrbitSampler((ONE,), 14), BoxSampler(2))), 4, ([6], [14])),
        (FixedSampler(*SMALL[:7], *[HUGE] * 14, *SMALL[7:]), 7, ([], [])),
    ],
    ids=["box", "rationals", "random", "composite", "orbit-and-box", "empty-blocks"],
)
def test_two_processes_give_the_one_process_report(henon, monkeypatch, sampler, chunk, widened):
    monkeypatch.setattr(inequality, "CHUNK_RECORDS", chunk)
    results = {}
    for fork in (False, True):
        started = started_workers(monkeypatch, fork)
        with deadline():
            report = batch_verify(henon, sampler)
            results[fork] = report, written(report)
        assert len(started) == (3 if fork else 0)  # batch_verify and both writers
        assert_no_child_left()
    (one, one_text), (two, two_text) = results[False], results[True]
    for field in dataclasses.fields(DeltaReport):
        assert getattr(two, field.name) == getattr(one, field.name), field.name
    assert two_text == one_text

    largest = [max(record.height_integers) for record in two.records]
    wide = [i for i, h in enumerate(largest) if h.bit_length() > 63]
    written_in_hex = [i for i, h in enumerate(largest) if h >= DECIMAL_LIMIT]
    assert (wide[:1], written_in_hex[:1]) == widened
    # The blocks, and so each block's column type, are those of one process.
    types = [[type(block.heights) for block in report.records._blocks] for report in (one, two)]
    assert types[0] == types[1]
    assert set(types[1]) == ({list, array} if wide else {array})


def test_first_bad_point_in_sample_order_is_raised(henon, monkeypatch):
    # Chunks of 7 over 30 points: blocks 1 and 3 are the worker's, blocks
    # 0, 2 and 4 this process's.
    monkeypatch.setattr(inequality, "CHUNK_RECORDS", 7)
    good = ((1, 2, 3), 1)
    points = [good] * 30
    started = started_workers(monkeypatch, True)

    # Point 8 (block 1, the worker's) before point 15 (block 2).
    points[8], points[15] = ((2, 4, 6), 2), ((3, 6, 9), 3)
    with deadline(), pytest.raises(ValueError, match=r"\(\(2, 4, 6\), 2\) is not in canonical"):
        batch_verify(henon, FixedSampler(*points))
    assert_no_child_left()

    # Point 15 (block 2, this process's) before point 22 (block 3).
    points[8], points[22] = good, ((1, 1), 1)
    with deadline(), pytest.raises(ValueError, match=r"\(\(3, 6, 9\), 3\) is not in canonical"):
        batch_verify(henon, FixedSampler(*points))
    assert_no_child_left()
    assert len(started) == 2


def test_handle_that_fails_partway_leaves_no_worker(henon, monkeypatch):
    monkeypatch.setattr(inequality, "CHUNK_RECORDS", 7)
    report = batch_verify(henon, BoxSampler(2))  # 125 records, 18 chunks

    class FailingHandle:
        def __init__(self):
            self.writes = 0

        def write(self, text):
            self.writes += 1
            if self.writes == 4:
                raise OSError("disk full")

    started = started_workers(monkeypatch, True)
    for write in (report.write_csv, lambda handle: report.write_json(handle, 0)):
        handle = FailingHandle()
        with deadline(), pytest.raises(OSError, match="disk full"):
            write(handle)
        assert handle.writes == 4
        assert_no_child_left()
    assert len(started) == 2


def test_killed_worker_raises_instead_of_hanging(henon, monkeypatch):
    monkeypatch.setattr(inequality, "CHUNK_RECORDS", 7)
    parent = os.getpid()
    original = kernel.height_integer

    def height_integer(nums, den):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(nums, den)

    monkeypatch.setattr(kernel, "height_integer", height_integer)
    started = started_workers(monkeypatch, True)
    with deadline(), pytest.raises(RuntimeError, match=f"exit status {-signal.SIGKILL}"):
        batch_verify(henon, BoxSampler(2))
    assert len(started) == 1
    assert_no_child_left()


def test_live_thread_keeps_one_process(henon, monkeypatch):
    # Two CPUs, so that only the thread decides.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(inequality, "CHUNK_RECORDS", 7)
    sampler = RationalBoxSampler(2, 2)
    started = started_workers(monkeypatch, None)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        with_thread = batch_verify(henon, sampler)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert started == []
    with deadline():
        alone = batch_verify(henon, sampler)
    assert len(started) == 1
    assert_no_child_left()
    assert with_thread == alone


def test_report_on_stdout_is_written_once(henon, monkeypatch):
    # A worker inherits this process's buffered stdout; it must never
    # flush it.  The report goes to a pipe, block-buffered, with no --out,
    # in chunks of 64 records: their text (about 6 KB) stays in the buffer
    # when the writer forks.
    monkeypatch.setattr(inequality, "_fork_allowed", lambda: False)
    reference = io.StringIO()
    batch_verify(henon, BoxSampler(12)).write_csv(reference)  # 15,625 records
    root = Path(__file__).resolve().parent.parent
    script = (
        "import sys\n"
        "from affdyn import cli, inequality\n"
        "inequality._fork_allowed = lambda: True\n"
        "inequality.CHUNK_RECORDS = 64\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    map_path = root / "src" / "affdyn" / "data" / "henon3.map"  # the map of ``henon``
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    env.pop("PYTHONUNBUFFERED", None)  # stdout on a pipe must be buffered
    done = subprocess.run(
        [sys.executable, "-c", script, "inequality", str(map_path), "--sampler", "box:12",
         "--format", "csv"],
        capture_output=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.count(b"point,H_point") == 1
    assert done.stdout == reference.getvalue().encode()
