"""The coverage harness: its checks, and trials on any number of processes.

``simulate_coverage`` runs contiguous ranges of trials in forked workers
(``blocks.run_forked``) when the work is worth a fork.  These tests check
that the report does not depend on how many there are, that a worker's error
reaches the caller, that no worker outlives a call, that work of a few
milliseconds stays inline, and that a bad configuration is refused before
any trial runs.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from kdeforge import blocks, cli, estimator, inference, simulate
from kdeforge.kernels import KernelFamily, KernelSpec

from conftest import on_each_worker_count

SMALL = dict(n=60, alpha=0.1, seed=5, replicates=20, grid_size=16)


def _report(method, trials, **kwargs):
    kwargs = {**SMALL, **kwargs}
    if method == "ci-plugin":
        kwargs["eval_points"] = [0.0]
    report = simulate.simulate_coverage("mixture:0.4,-1,1.5,1,0.7", method=method,
                                        trials=trials, **kwargs)
    return json.dumps(report.to_dict())


def _fail_where(monkeypatch, method, where, error):
    """Make ``method``'s construction raise ``error`` in the processes that
    ``where(pid)`` picks; other calls run the construction."""
    real, caller = simulate.METHODS[method], os.getpid()

    def construction(*args):
        if where(os.getpid(), caller):
            raise error
        return real(*args)

    monkeypatch.setitem(simulate.METHODS, method, construction)


def _assert_no_workers_left(threads):
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


@pytest.fixture
def always_fork(monkeypatch):
    """Fork whatever trial 0's time: the studies here are small enough that
    ``run_forked`` would otherwise run them inline."""
    monkeypatch.setattr(blocks, "_FORK_MIN_SECONDS", 0.0)


# --- the same report on any number of CPUs ---


@pytest.mark.parametrize("trials", [1, 2, 5])
@pytest.mark.parametrize("method", ["band-bootstrap", "band-debiased",
                                    "ci-bootstrap", "ci-plugin"])
def test_report_is_the_same_on_any_number_of_cpus(monkeypatch, always_fork, method, trials):
    # 1 and 2 trials: inline on any number of CPUs; 5 on 2 or 3 CPUs: trial 0
    # on the caller, then ranges of unequal size
    first, *rest = on_each_worker_count(monkeypatch, lambda: _report(method, trials))
    assert all(r == first for r in rest)


def test_trials_run_in_worker_processes(monkeypatch, always_fork):
    # a construction that fails outside the caller shows that workers ran
    _fail_where(monkeypatch, "band-bootstrap", lambda pid, caller: pid != caller,
                ValueError("ran in a worker"))
    monkeypatch.setattr(blocks, "cpus", lambda: 2)
    with pytest.raises(ValueError, match="ran in a worker"):
        _report("band-bootstrap", 4)


# --- errors reach the caller; no worker outlives a call ---


@pytest.mark.parametrize("error,code", [(ValueError("bad trial"), 2),
                                        (estimator.DataRangeError("bad range"), 3)])
@pytest.mark.parametrize("in_worker", [True, False])
def test_trial_errors_reach_the_caller(monkeypatch, always_fork, capsys, error, code,
                                       in_worker):
    # range 1 runs in a worker, range 0 on the caller
    _fail_where(monkeypatch, "band-bootstrap",
                lambda pid, caller: (pid != caller) == in_worker, error)
    monkeypatch.setattr(blocks, "cpus", lambda: 3)
    threads = threading.active_count()
    with pytest.raises(type(error), match=str(error)) as raised:
        _report("band-bootstrap", 5)
    assert type(raised.value) is type(error)
    _assert_no_workers_left(threads)
    assert cli.main(["simulate", "--method", "band-bootstrap", "--n", "60",
                     "--boot", "20", "--grid", "16", "--trials", "5",
                     "--seed", "5"]) == code
    assert str(error) in capsys.readouterr().err
    _assert_no_workers_left(threads)


def test_trial_processes_keep_one_thread_busy_each(monkeypatch, always_fork):
    # 3 CPUs: a block job would take 3 threads, but not while trials hold them
    real, blas = simulate.METHODS["band-debiased"], blocks._openblas()
    blas_threads = [get() for get, _ in blas]

    def construction(*args):
        nested = blocks.run_forked(lambda r: list(r), 4)  # inline: one range
        if (nested != [[0, 1, 2, 3]] or blocks.split(10**6, 1, 10**4, 100)[1] != 1
                or any(get() != 1 for get, _ in blas)):
            raise ValueError("more than one thread or process inside a trial process")
        return real(*args)

    monkeypatch.setitem(simulate.METHODS, "band-debiased", construction)
    monkeypatch.setattr(blocks, "cpus", lambda: 3)
    _report("band-debiased", 3)
    # and after the call, threads again
    assert blocks.split(10**6, 1, 10**4, 100)[1] == 3
    assert [get() for get, _ in blas] == blas_threads


def test_trials_run_inline_where_forking_is_unsafe(monkeypatch, always_fork):
    _fail_where(monkeypatch, "ci-bootstrap", lambda pid, caller: pid != caller,
                ValueError("ran in a worker"))
    monkeypatch.setattr(blocks, "cpus", lambda: 2)
    _report("ci-bootstrap", 1)  # one trial
    monkeypatch.setattr(blocks, "cpus", lambda: 1)
    _report("ci-bootstrap", 3)  # one CPU
    monkeypatch.setattr(blocks, "cpus", lambda: 2)

    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        _report("ci-bootstrap", 3)  # another thread lives
    finally:
        release.set()
        other.join(timeout=30)
    assert not other.is_alive()

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    _report("ci-bootstrap", 3)  # no fork start method
    assert multiprocessing.active_children() == []


def _pids(item_0_seconds, items):
    """The pid that ran each item; item 0 takes ``item_0_seconds``."""
    if 0 in items:
        time.sleep(item_0_seconds)
    return [os.getpid()] * len(items)


@pytest.mark.parametrize("total", [3, 5])
def test_work_worth_a_fork_runs_in_workers(monkeypatch, total):
    monkeypatch.setattr(blocks, "cpus", lambda: 2)
    # item 0 takes the whole floor, so the rest takes at least twice it
    parts = blocks.run_forked(functools.partial(_pids, blocks._FORK_MIN_SECONDS), total)
    pids = [pid for part in parts for pid in part]
    assert len(pids) == total and pids[0] == os.getpid()
    assert len(set(pids)) == 2
    assert multiprocessing.active_children() == []


def _timed_at(seconds):
    """blocks._timed with every item taking ``seconds``."""
    def timed(fn, item, done):
        done.append(fn(range(item, item + 1)))
        return seconds
    return timed


def test_small_work_runs_inline(monkeypatch):
    monkeypatch.setattr(blocks, "cpus", lambda: 2)
    # each item reads a millisecond, whatever this machine's clock says
    monkeypatch.setattr(blocks, "_timed", _timed_at(1e-3))
    parts = blocks.run_forked(functools.partial(_pids, 0.0), 4)
    assert parts == [[os.getpid()], [os.getpid()] * 3]
    # a study of milliseconds: no trial runs in a worker
    _fail_where(monkeypatch, "band-bootstrap", lambda pid, caller: pid != caller,
                ValueError("ran in a worker"))
    _report("band-bootstrap", 4)
    assert multiprocessing.active_children() == []


def test_two_trials_never_fork(monkeypatch, always_fork):
    # the second trial would run in a worker while the caller waits
    _fail_where(monkeypatch, "ci-plugin", lambda pid, caller: pid != caller,
                ValueError("ran in a worker"))
    monkeypatch.setattr(blocks, "cpus", lambda: 3)
    _report("ci-plugin", 2)
    assert blocks.run_forked(functools.partial(_pids, 0.0), 2) == [[os.getpid()] * 2]



FIRST_CALL = """
import sys
from kdeforge import blocks, simulate
blocks.cpus = lambda: 2
simulate.simulate_coverage("normal", 100, "ci-plugin", 0.05, trials=5, seed=1,
                           replicates=20, grid_size=16)
print("concurrent.futures.process" in sys.modules)
"""


def test_first_call_imports_do_not_make_small_work_fork():
    # a fresh interpreter: trial 0 loads the lazy imports, which its time holds
    src = os.path.dirname(os.path.dirname(blocks.__file__))
    out = subprocess.run([sys.executable, "-c", FIRST_CALL], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def _imports_then_pids(item_0_seconds, items):
    """The pid that ran each item; item 0 imports a module not yet loaded and
    takes ``item_0_seconds``."""
    if 0 in items:
        import json.tool  # noqa: F401
        time.sleep(item_0_seconds)
    return [os.getpid()] * len(items)


def test_item_1_decides_after_item_0_imports(monkeypatch):
    monkeypatch.setattr(blocks, "cpus", lambda: 2)
    # item 0 takes the whole floor, but item 1 takes microseconds: inline
    sys.modules.pop("json.tool", None)
    parts = blocks.run_forked(
        functools.partial(_imports_then_pids, blocks._FORK_MIN_SECONDS), 5)
    assert parts == [[os.getpid()], [os.getpid()], [os.getpid()] * 3]
    # a floor that item 1's time meets too: items 2..4 in two ranges, one forked
    monkeypatch.setattr(blocks, "_FORK_MIN_SECONDS", 1e-9)
    sys.modules.pop("json.tool", None)
    parts = blocks.run_forked(functools.partial(_imports_then_pids, 0.0), 5)
    assert [len(p) for p in parts] == [1, 1, 1, 2]
    assert parts[:3] == [[os.getpid()]] * 3 and parts[3][0] != os.getpid()
    assert multiprocessing.active_children() == []

def _slept_pids(seconds, items):
    """The pid that ran each item; item i sleeps ``seconds[i]`` (none past
    the end of ``seconds``)."""
    for i in items:
        time.sleep(seconds[i] if i < len(seconds) else 0.0)
    return [os.getpid()] * len(items)


@pytest.mark.parametrize("item_1_seconds", [0.0, 0.5])
def test_one_slow_item_near_the_floor_does_not_fork(monkeypatch, item_1_seconds):
    monkeypatch.setattr(blocks, "cpus", lambda: 2)
    monkeypatch.setattr(blocks, "_FORK_MIN_SECONDS", 0.4)
    # item 0's time says the rest takes 0.44 s, under twice the floor, so
    # item 1 is timed too; the shorter of the two says under the floor: inline
    parts = blocks.run_forked(functools.partial(_slept_pids, [0.11, item_1_seconds]), 5)
    assert parts == [[os.getpid()], [os.getpid()], [os.getpid()] * 3]
    assert multiprocessing.active_children() == []


# --- the configuration is checked before any trial runs ---


@pytest.fixture
def no_trials(monkeypatch):
    """Fail the test if a trial runs."""
    def trap(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(simulate, "_run_trials", trap)


@pytest.mark.parametrize("flags,message", [
    (["--grid", "0"], "grid size must be >= 1, got 0"),
    (["--grid", "-4"], "grid size must be >= 1, got -4"),
    (["--boot", "10"], "need B >= 20 for quantile resolution, got 10"),
    (["--boot", "10", "--method", "band-debiased"], "got 10"),
    (["--boot", "10", "--method", "ci-bootstrap"], "got 10"),
    (["--boot", "1", "--method", "ci-plugin"], "need at least 2 bootstrap replicates, got 1"),
    (["--alpha", "1.5"], "alpha must be in (0, 1), got 1.5"),
    (["--alpha", "0", "--method", "ci-plugin"], "alpha must be in (0, 1), got 0.0"),
    (["--n", "1"], "n must be >= 2, got 1"),
    (["--n", "0"], "n must be >= 2, got 0"),
    (["--trials", "0"], "trials must be >= 1"),
    (["--seed", "-1"], "seed must be in [0, 2**64), got -1"),
    (["--truth", "mixture:0.5,0,0,0,1"], "sd1 must be positive, got 0.0"),
])
def test_cli_refuses_a_bad_configuration_before_any_trial(no_trials, capsys, flags, message):
    argv = ["simulate", "--n", "50", "--boot", "30", "--grid", "16", "--trials", "3",
            "--seed", "1", *flags]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("points", [[], [0.0, np.nan], [np.inf]])
def test_eval_points_must_be_nonempty_and_finite(no_trials, points):
    with pytest.raises(ValueError, match="eval_points"):
        simulate.simulate_coverage("normal", 50, "ci-plugin", 0.1, trials=2, seed=1,
                                   replicates=20, eval_points=points)


def test_an_explicit_bandwidth_allows_one_point():
    report = simulate.simulate_coverage("normal", 1, "ci-plugin", 0.1, trials=2, seed=1,
                                        replicates=20, h=0.5, eval_points=[0.0])
    assert report.trials == 2


@pytest.mark.parametrize("method", list(simulate.METHODS))
def test_checked_methods_are_those_whose_construction_checks_b(rng, method):
    model = estimator.DensityModel(estimator.Sample(rng.normal(size=50)),
                                   KernelSpec(KernelFamily.GAUSSIAN, 1), 0.4)

    def construct():
        simulate.METHODS[method](model, np.array([0.0, 0.5]), 0.1,
                                 inference.BootstrapPlan(10, 1))

    if method in simulate._CHECKS_B:
        with pytest.raises(ValueError, match="need B >= 20"):
            construct()
    else:
        construct()


# --- truths refuse parameters their densities cannot use ---


@pytest.mark.parametrize("build,name", [
    (lambda: simulate.NormalTruth(sd=0.0), "sd"),
    (lambda: simulate.NormalTruth(sd=-1.0), "sd"),
    (lambda: simulate.NormalTruth(sd=np.inf), "sd"),
    (lambda: simulate.NormalTruth(sd=np.nan), "sd"),
    (lambda: simulate.NormalTruth(mean=np.inf), "mean"),
    (lambda: simulate.NormalTruth(mean=np.nan), "mean"),
    (lambda: simulate.NormalMixtureTruth(0.5, 0.0, 0.0, 0.0, 1.0), "sd1"),
    (lambda: simulate.NormalMixtureTruth(0.5, 0.0, 0.0, 1.0, -2.0), "sd2"),
    (lambda: simulate.NormalMixtureTruth(0.5, 0.0, 0.0, np.nan, 1.0), "sd1"),
    (lambda: simulate.NormalMixtureTruth(0.5, 0.0, 0.0, 1.0, np.inf), "sd2"),
    (lambda: simulate.NormalMixtureTruth(0.5, -np.inf, 0.0), "mean1"),
    (lambda: simulate.NormalMixtureTruth(0.5, 0.0, np.nan), "mean2"),
])
def test_truths_refuse_bad_parameters(build, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            build()


def test_cli_refuses_a_truth_with_no_spread(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["simulate", "--method", "band-debiased", "--truth",
                         "mixture:0.5,0,0,0,1", "--n", "50", "--boot", "30", "--grid",
                         "16", "--trials", "3", "--seed", "1"]) == 2
    assert "sd1" in capsys.readouterr().err
