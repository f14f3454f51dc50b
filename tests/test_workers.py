"""``kernel._in_order``, the one way the package runs work on two
processes: a forked worker takes blocks 1, 3, 5, ... and this process the
others, and the results come back in block order.  A sized sequence of
two blocks or more forks before block 0, a stream at its second block,
and no worker may outlive the call that started it."""

import os

import pytest

from affdyn import kernel

from conftest import assert_no_child_left, deadline, started_workers


def test_block_0_and_block_1_run_at_once(monkeypatch):
    # Block 0 waits for a byte that only block 1 writes: the two can finish
    # only if the worker runs block 1 while this process runs block 0.
    started = started_workers(monkeypatch, True)
    read_end, write_end = os.pipe()

    def work(block):
        if block == 0:
            return os.read(read_end, 1)
        os.write(write_end, b"1")
        return b"written"

    try:
        with deadline(10):
            assert list(kernel._in_order((0, 1), work)) == [b"1", b"written"]
    finally:
        os.close(read_end)
        os.close(write_end)
    assert len(started) == 1
    assert_no_child_left()


@pytest.mark.parametrize("sized", [True, False], ids=["sequence", "stream"])
def test_a_sequence_forks_first_and_a_stream_at_its_second_block(monkeypatch, sized):
    started = started_workers(monkeypatch, True)
    parent = os.getpid()

    def work(block):
        # The worker holds a copy of ``started`` from the moment it forked.
        return block, len(started), os.getpid() == parent

    blocks = list(range(5)) if sized else iter(range(5))
    with deadline():
        results = list(kernel._in_order(blocks, work))
    assert len(started) == 1
    assert_no_child_left()
    here = [i % 2 == 0 for i in range(5)]
    workers_before = [1 if sized or i else 0 for i in range(5)]
    assert results == list(zip(range(5), workers_before, here))


@pytest.mark.parametrize(
    "blocks, results",
    [([], []), ([7], [8]), (iter([]), []), (iter([7]), [8])],
    ids=["empty", "one", "empty-stream", "one-in-a-stream"],
)
def test_fewer_than_two_blocks_start_no_worker(monkeypatch, blocks, results):
    started = started_workers(monkeypatch, True)
    assert list(kernel._in_order(blocks, lambda block: block + 1)) == results
    assert started == []
    assert_no_child_left()


@pytest.mark.parametrize("sized", [True, False], ids=["sequence", "stream"])
def test_without_the_fork_every_block_runs_here(monkeypatch, sized):
    started = started_workers(monkeypatch, False)
    parent = os.getpid()
    blocks = [0, 1, 2] if sized else iter([0, 1, 2])
    results = list(kernel._in_order(blocks, lambda block: (block, os.getpid() == parent)))
    assert results == [(0, True), (1, True), (2, True)]
    assert started == []
    assert_no_child_left()
