"""Shared test oracles: finite differences, quadrature, and flood fill.

These helpers are deliberately independent of the library's computation
paths so they can serve as oracles for it.  Two more run a block job on
several worker counts (``kdeforge.blocks``) and check what the executor
promises: no thread or worker process outlives a call, and an error reaches
the caller.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading

import numpy as np
import pytest

from kdeforge import blocks


def fd_gradient(f, x, step=1e-5):
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for l in range(x.size):
        e = np.zeros_like(x)
        e[l] = step
        out[l] = (f(x + e) - f(x - e)) / (2 * step)
    return out


def fd_jacobian(f, x, step=1e-5):
    """Central-difference Jacobian of a vector function of a vector."""
    x = np.asarray(x, dtype=float)
    cols = []
    for l in range(x.size):
        e = np.zeros_like(x)
        e[l] = step
        cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * step))
    return np.stack(cols, axis=-1)


def flood_fill_components(mask: np.ndarray) -> int:
    """Count face-adjacent connected components by breadth-first search."""
    mask = np.atleast_2d(mask)
    visited = np.zeros_like(mask, dtype=bool)
    count = 0
    for start in zip(*np.nonzero(mask)):
        if visited[start]:
            continue
        count += 1
        stack = [start]
        visited[start] = True
        while stack:
            cell = stack.pop()
            for axis in range(mask.ndim):
                for delta in (-1, 1):
                    nb = list(cell)
                    nb[axis] += delta
                    nb = tuple(nb)
                    if (0 <= nb[axis] < mask.shape[axis] and mask[nb]
                            and not visited[nb]):
                        visited[nb] = True
                        stack.append(nb)
    return count


def on_each_worker_count(monkeypatch, job, counts=(1, 2, 3)):
    """job()'s results, with the block executor seeing each CPU count in
    turn; no worker thread or process may outlive a call."""
    results = []
    for count in counts:
        monkeypatch.setattr(blocks, "cpus", lambda count=count: count)
        threads = threading.active_count()
        results.append(job())
        assert threading.active_count() == threads
        assert multiprocessing.active_children() == []
    return results


def assert_block_error_reaches_caller(monkeypatch, owner, name, job):
    """An exception that ``owner.name`` raises on its second call, inside a
    block job on 3 workers, reaches the caller of ``job`` as raised (so the
    CLI still maps it to its exit code), and no worker thread outlives it."""
    real, calls, error = getattr(owner, name), itertools.count(), ValueError("block")

    def failing(*args, **kwargs):
        if next(calls) == 1:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)
    monkeypatch.setattr(blocks, "cpus", lambda: 3)
    threads = threading.active_count()
    with pytest.raises(ValueError) as raised:
        job()
    assert raised.value is error
    assert threading.active_count() == threads


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
