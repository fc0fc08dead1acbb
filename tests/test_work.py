"""Work sharing across threads (``linepart._work``)."""

import os
import sys
import threading
import time

import pytest

from linepart import _work

from conftest import force_workers


@pytest.mark.parametrize("cores, blocks, workers", [(1, 5, 1), (2, 5, 2), (8, 5, 4), (8, 3, 3), (2, 0, 1)])
def test_share_runs_every_block_once_on_the_capped_thread_count(monkeypatch, cores, blocks, workers):
    force_workers(monkeypatch, cores)
    done, threads = [], set()

    def work(i):
        done.append(i)
        threads.add(threading.get_ident())

    before = threading.active_count()
    assert _work.share(work, blocks) == workers
    assert sorted(done) == list(range(blocks))
    assert len(threads) <= workers
    assert threading.active_count() == before


def test_share_claims_each_block_once_under_frequent_switches(monkeypatch):
    # more threads than cores, switching every microsecond: a block claimed
    # twice or skipped shows up in the tally
    force_workers(monkeypatch, 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        done = []
        assert _work.share(done.append, 5000) == 4
    finally:
        sys.setswitchinterval(interval)
    assert sorted(done) == list(range(5000))


def test_share_raises_the_first_failure_after_joining(monkeypatch):
    # two threads hold blocks 0 and 1; block 1 fails while block 0 runs on
    # and then fails too. share must wait for block 0, raise block 1's
    # error, and start no block after the first failure.
    force_workers(monkeypatch, 2)
    failed = threading.Event()
    done = []

    def work(i):
        if i == 1:
            failed.set()
            raise ValueError("block 1")
        if i == 0:
            assert failed.wait(timeout=10)
            time.sleep(0.1)  # the failing thread records its error meanwhile
            done.append(i)
            raise ValueError("block 0")
        done.append(i)

    before = threading.active_count()
    with pytest.raises(ValueError, match="block 1"):
        _work.share(work, 10)
    assert done == [0]
    assert threading.active_count() == before


def test_core_count_reads_the_affinity_mask_where_there_is_one(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _work.core_count() == 3


def test_core_count_falls_back_to_cpu_count_then_one(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert _work.core_count() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _work.core_count() == 1
