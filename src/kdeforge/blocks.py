"""How work meets CPUs: a block job's slices on threads, and independent
ranges of work (Monte Carlo trials) in forked processes.

Every (n, block) job of the package -- kernel and CDF matrices, kernel sums,
replicate counts and their products -- cuts its rows or queries into slices
(``split``) and calls one function per slice (``run``).  Each call writes only
its own slice of the output, and each job is written so that its bits do not
depend on where the slices fall (see ``estimator._pairs`` and
``inference._replicate_products``), so the slices may run in any order, on any
thread, and give the same result whatever the number of workers.  numpy
releases the interpreter lock in the array operations these jobs spend their
time in (exp, ndtr, integers, bincount, matmul), so the slices overlap.

A job runs on the calling thread and on the threads of an executor that
lives for that job alone; a job of one slice, or on one CPU, runs inline.

A block job that multiplies matrices (the bootstrap's replicate products)
holds OpenBLAS to one thread for its length (``one_blas_thread``), as
``run_forked`` does: the job's workers already keep the CPUs busy, and a
threaded BLAS rounds a product by its own split of it, so its bits would
depend on the number of CPUs.

Work whose Python part dominates gains nothing from threads, which share the
interpreter lock: ``run_forked`` runs its contiguous ranges in forked worker
processes instead, when the work is worth a fork.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
import time

# True while run_forked's processes hold every CPU: in the caller for the
# length of the call, and in its workers (which inherit it) for their life.
_forked = False

# run_forked forks only work that would take this long in sequence: a worker
# costs 5-20 ms to start, fork and join, and two processes save half the work.
_FORK_MIN_SECONDS = 0.02

# Calls inside one_blas_thread, and each OpenBLAS's (set, thread count) to
# restore when the last of them ends.
_blas_lock = threading.Lock()
_blas_pins = 0
_blas_restore: list = []


def cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def split(total: int, unit: int, budget: int, floor: int, align: int = 1):
    """Cut range(total), items of ``unit`` values each, into slices; return
    (slices, workers).

    A job that fits one slice of ``budget`` values runs as one slice, inline;
    inside ``run_forked`` every job runs inline.  Otherwise w
    workers take slices of about budget / w values each, so the slices in
    flight hold what one slice of the whole budget would; w is the number of
    CPUs, or fewer where a slice would hold fewer than ``floor`` items.
    Slices start at multiples of ``align`` (which divides ``floor``), and a
    lone last item joins the slice before it (``cut``).
    """
    def step(workers):  # an item of no values (no queries) counts as one
        return max(floor, budget // (workers * max(unit, 1)) // align * align)

    if step(1) >= total - 1:
        return [slice(0, total)], 1
    workers = workers_for(budget // (floor * unit))
    slices = cut(total, step(workers))
    return slices, min(workers, len(slices))


def workers_for(items: int) -> int:
    """The workers a job of ``items`` independent items may use: one per CPU,
    at most one per item, and one inside ``run_forked``."""
    return 1 if _forked else max(1, min(cpus(), items))


def cut(total: int, size: int) -> list:
    """Slices of range(total), ``size`` items each but the last; a lone last
    item joins the slice before it, so no slice of several holds one item
    (numpy reduces or multiplies one row by a different rule)."""
    edges = [0, *range(size, total - 1, size), total]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


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


def run_graph(tasks, workers: int) -> None:
    """Call each task's function once the tasks it depends on have finished:
    ``tasks`` is a list of (fn, deps), deps the indices of earlier tasks.

    The tasks run as the slices of ``run``, taken in order, so a task waits
    only on tasks already taken, which never wait on it.  An exception
    raised by a task reaches the caller as raised, and no task calls its
    function after it, so none runs without its dependencies.
    """
    done = [threading.Event() for _ in tasks]
    failed = False

    def call(i):
        nonlocal failed
        fn, deps = tasks[i]
        try:
            for d in deps:
                done[d].wait()
            if not failed:
                fn()
        except BaseException:
            failed = True
            raise
        finally:
            done[i].set()

    run(call, range(len(tasks)), workers)


def _fork_workers(total: int) -> int:
    """How many processes run_forked may use for ``total`` items: one per CPU,
    at most one per item, and one where forking is unavailable or unsafe."""
    workers = workers_for(total)
    if workers < 2:
        return 1
    import multiprocessing  # here, not at the top: see run
    if ("fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1):
        # a child forked beside other threads may inherit a lock one of
        # them holds, and never see it released
        return 1
    return workers


def _openblas() -> list:
    """(get, set) of the thread count of each OpenBLAS this process has loaded
    (numpy's among them), found by path in /proc/self/maps and by the names
    OpenBLAS builds export; none where the map or the functions are missing."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line}
    except OSError:
        return []
    import ctypes
    found = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)  # already loaded: the same handle
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            names = [f"{prefix}openblas_{op}_num_threads{suffix}" for op in ("get", "set")]
            if all(hasattr(lib, name) for name in names):
                get, put = (getattr(lib, name) for name in names)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return found


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with every OpenBLAS of this process on one thread.

    Nested and concurrent bodies share one pin: the first to enter sets one
    thread, the last to leave restores each library's count.  Forked workers
    inherit the pin.  Without OpenBLAS this does nothing.
    """
    global _blas_pins, _blas_restore
    with _blas_lock:
        if _blas_pins == 0:
            _blas_restore = [(put, get()) for get, put in _openblas()]
            for put, _ in _blas_restore:
                put(1)
        _blas_pins += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_pins -= 1
            if _blas_pins == 0:
                for put, threads in _blas_restore:
                    put(threads)


def _timed(fn, item: int, done: list) -> float:
    """Append fn(range(item, item + 1)) to ``done``; return its seconds."""
    start = time.perf_counter()
    done.append(fn(range(item, item + 1)))
    return time.perf_counter() - start


def run_forked(fn, total: int) -> list:
    """[fn(r) for r in ranges]: contiguous ranges, in order, that cover
    range(total).  Item 0 runs first on the caller, timed.  If its time says
    fork, but item 0 loaded modules (the lazy imports of a process's first
    call) or says the rest would take less than twice _FORK_MIN_SECONDS,
    item 1 runs on the caller too, timed, and the shorter of the two times
    decides: one slow item does not make work of a few milliseconds fork.
    If the rest would take _FORK_MIN_SECONDS at that time, it is cut into w
    ranges, ranges 1..w-1 in forked worker processes and range 0 on the
    caller; else it runs inline.

    w is the number of CPUs, at most the number of items left; it is 1 (fn
    runs inline, once) on one CPU, for fewer than three items, without the
    fork start method, inside run_forked, or when other threads live in
    this process.
    Workers are forked, not spawned: they start from the caller's memory,
    with what item 0 imported and the same function objects (a rebound
    construction, a tracer's wrappers) as the caller.  fn and each result
    are pickled.

    OpenBLAS runs on one thread for the length of the call, whatever w: its
    products round differently on different numbers of threads, so this
    keeps fn's results the same on any w.  With w >= 2, each process also
    runs its block jobs inline, so the w processes keep w threads busy.

    An exception raised by fn reaches the caller with its type and message:
    at once from item 0, else once every range has finished, the caller's
    own first, else that of the lowest range.  No worker outlives the call.
    """
    global _forked
    workers = _fork_workers(total - 1)
    forked = _forked
    try:
        with one_blas_thread():
            if workers == 1:
                return [fn(range(total))]
            _forked = True  # the workers inherit this and the one BLAS thread
            modules, done = len(sys.modules), []
            seconds = _timed(fn, 0, done)
            if (_FORK_MIN_SECONDS <= seconds * (total - 1)
                    and (len(sys.modules) > modules
                         or seconds * (total - 1) < 2 * _FORK_MIN_SECONDS)):
                seconds = min(seconds, _timed(fn, 1, done))
            rest = range(len(done), total)
            workers = min(workers, len(rest))
            if seconds * len(rest) < _FORK_MIN_SECONDS or workers < 2:
                return [*done, fn(rest)]
            edges = [rest.start + len(rest) * k // workers for k in range(workers + 1)]
            ranges = [range(a, b) for a, b in zip(edges, edges[1:])]
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(workers - 1,
                                     multiprocessing.get_context("fork")) as pool:
                futures = [pool.submit(fn, r) for r in ranges[1:]]
                mine = fn(ranges[0])
                return [*done, mine, *(f.result() for f in futures)]
    finally:
        _forked = forked
