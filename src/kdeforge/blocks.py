"""One executor for block jobs: a job's slices, run on the CPUs this process
may use.

Every (n, block) job of the package -- kernel and CDF matrices, kernel sums,
replicate counts and their products -- cuts its rows or queries into slices
(``split``) and calls one function per slice (``run``).  Each call writes only
its own slice of the output, and each job is written so that its bits do not
depend on where the slices fall (see ``estimator._pairs`` and
``inference._count_blocks``), so the slices may run in any order, on any
thread, and give the same result whatever the number of workers.  numpy
releases the interpreter lock in the array operations these jobs spend their
time in (exp, ndtr, integers, bincount, matmul), so the slices overlap.

A job runs on the calling thread and on the threads of an executor that
lives for that job alone; a job of one slice, or on one CPU, runs inline.
"""

from __future__ import annotations

import os
import threading


def cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def split(total: int, unit: int, budget: int, floor: int, align: int = 1):
    """Cut range(total), items of ``unit`` values each, into slices; return
    (slices, workers).

    A job that fits one slice of ``budget`` values runs as one slice, inline.
    Otherwise w workers take slices of about budget / w values each, so the
    slices in flight hold what one slice of the whole budget would; w is the
    number of CPUs, or fewer where a slice would hold fewer than ``floor``
    items.  Slices start at multiples of ``align`` (which divides ``floor``),
    and a lone last item joins the slice before it.
    """
    def step(workers):  # an item of no values (no queries) counts as one
        return max(floor, budget // (workers * max(unit, 1)) // align * align)

    workers = 1
    if step(1) < total - 1:
        workers = max(1, min(cpus(), budget // (floor * unit)))
    size = step(workers)
    edges = [0, *range(size, total - 1, size), total]
    slices = [slice(a, b) for a, b in zip(edges, edges[1:])]
    return slices, min(workers, len(slices))


def run(fn, slices, workers: int) -> None:
    """Call fn(s) for each slice s: inline for one worker; else on this thread
    and workers - 1 others, each taking the next slice not yet taken.

    An exception raised by a call reaches the caller as raised; no slice
    starts after it, and no worker thread outlives the call.
    """
    if workers < 2:
        for s in slices:
            fn(s)
        return
    # imported here, not at the top: every CLI call would pay for the import
    from concurrent.futures import ThreadPoolExecutor

    pending, lock = list(reversed(slices)), threading.Lock()

    def work():
        while True:
            with lock:
                if not pending:
                    return
                s = pending.pop()
            try:
                fn(s)
            except BaseException:
                with lock:
                    pending.clear()
                raise

    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(work) for _ in range(workers - 1)]
        work()
        for helper in helpers:
            helper.result()
