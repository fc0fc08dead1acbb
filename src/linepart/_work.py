"""Work sharing for numpy kernels whose blocks run without the GIL.

numpy's sort, searchsorted, take and in-place arithmetic release the
interpreter lock, so a kernel cut into independent blocks can keep every
core busy from plain threads. Callers keep their outputs independent of
the thread count: each block writes its own slice, or adds integers.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections.abc import Callable

# Most threads one call starts, the caller included; this also bounds the
# blocks in flight, and so the kernels' transient memory.
_MAX_WORKERS = 4


def core_count() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def share(work: Callable[[int], None], blocks: int) -> int:
    """Run ``work(i)`` for every i in range(blocks); return the thread count.

    min(cores, blocks, _MAX_WORKERS) threads, the caller one of them, claim
    blocks in turn from one counter, so a thread slowed by other load takes
    fewer. Every thread is joined before this returns; if a block raised,
    the others stop claiming and the first exception is raised here.
    """
    workers = max(1, min(core_count(), blocks, _MAX_WORKERS))
    claim = itertools.count()  # next() on it is one atomic step
    errors: list[BaseException] = []

    def drain() -> None:
        try:
            for i in claim:
                if i >= blocks or errors:
                    return
                work(i)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    started = []
    try:
        for _ in range(workers - 1):
            t = threading.Thread(target=drain, daemon=True)
            t.start()
            started.append(t)
        drain()
    finally:
        for t in started:
            t.join()
    if errors:
        raise errors[0]
    return workers
