"""The block pool: run independent tasks on every usable core.

Generation and encoding hand it blocks of items (`data`), evaluation its two
retrieval directions (`metrics`). The calling thread works too, so one usable
core runs every task in the calling thread and starts no thread. A task's
arithmetic must not depend on its thread: then the results are the same on
any number of cores, whichever thread runs which task. Work that holds the
GIL in short numpy calls only contends on the pool; put work there that
releases it for long stretches (GEMMs, sorts, fills, fresh-page copies).
"""

from __future__ import annotations

import os
import queue
import threading


def on_pool(work, tasks) -> int:
    """Run `work(task)` for every task of the sequence `tasks` and return the
    number of threads used.

    The calling thread and one helper thread per further usable core (CPU
    affinity, else CPU count), but none beyond one per task after the first,
    take the tasks in order from one queue. Once a task raises, no thread
    takes another; every helper is joined, and the error of the failing task
    that comes first in `tasks` is re-raised. Every task ahead of it was
    taken before it, and so has finished, whatever the thread timing.
    """
    pending = queue.SimpleQueue()
    for index, task in enumerate(tasks):
        pending.put((index, task))
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    errors: dict[int, BaseException] = {}

    def drain() -> None:
        while not errors:
            try:
                index, task = pending.get_nowait()
            except queue.Empty:
                return
            try:
                work(task)
            except BaseException as exc:  # re-raised in the calling thread below
                errors[index] = exc

    helpers = []
    try:
        for _ in range(min(cores, len(tasks)) - 1):
            helper = threading.Thread(target=drain, name="focusrank-pool")
            helper.start()
            helpers.append(helper)
        drain()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return 1 + len(helpers)
