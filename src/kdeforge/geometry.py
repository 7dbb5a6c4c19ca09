"""Geometric features of the estimated density.

* ``mean_shift`` / ``find_modes`` -- fixed-point ascent to local modes and the
  induced mode clustering (each start is assigned to the basin it flows to).
* ``level_set`` -- superlevel threshold of a density grid plus connected
  components under face adjacency.
* ``scms`` -- subspace-constrained mean shift: the mean-shift step projected
  onto the trailing (d-1) Hessian eigenvectors, converging to density ridges.
* ``morse_smale`` -- partition of an evaluated grid by the (mode, minimum)
  pair that each point's discrete steepest-ascent and steepest-descent flows
  reach; the flows follow neighbour pointers on the grid's own values.

Convergence tolerances are artifact choices: the SCMS gradient tolerance
defaults to 1e-6 * (largest KDE value at the sample points) / h and the mode
merge radius to h / 2, keeping both thresholds scale-aware.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import estimator
from .estimator import DensityModel, EvalGrid
from .kernels import KernelFamily

EXTERIOR = -1  # shared label for flows that leave the grid or reach no extremum


@dataclass(frozen=True)
class ModeSet:
    """Local modes plus the basin assignment of every start point."""

    modes: np.ndarray          # (k, d) mode locations
    density: np.ndarray        # (k,) KDE values at the modes
    assignments: np.ndarray    # (m,) mode index per start, -1 if unassigned
    converged: np.ndarray      # (m,) convergence flag per start

    @property
    def n_modes(self) -> int:
        return self.modes.shape[0]


@dataclass(frozen=True)
class LevelSet:
    """Superlevel mask of a grid with connected-component labels."""

    level: float
    mask: np.ndarray           # boolean, grid-shaped
    labels: np.ndarray         # int, grid-shaped; 0..k-1 inside, -1 outside
    n_components: int


@dataclass(frozen=True)
class RidgeSet:
    """Converged SCMS outputs with their ridge-condition diagnostics."""

    points: np.ndarray             # (k, d)
    projected_grad_norms: np.ndarray
    lambda2: np.ndarray
    converged: np.ndarray          # per-start flag
    dropped_degenerate: int


@dataclass(frozen=True)
class MorseSmalePartition:
    """Per-grid-point flow destinations and the induced cell labels.

    Descent flows that end on the grid's edge or at zero density get the
    shared EXTERIOR destination, and all such points form a single boundary
    cell.  Ascent flows whose sink mean shift cannot polish to a mode get
    EXTERIOR too.  ``minima`` are grid points.
    """

    ascent_ids: np.ndarray
    descent_ids: np.ndarray
    cell_labels: np.ndarray
    modes: np.ndarray
    minima: np.ndarray


def _mean_shift_batch(model: DensityModel, points: np.ndarray, tol: float,
                      max_iter: int):
    """Iterate the mean-shift update on all rows of ``points`` at once.

    Density is nondecreasing along Gaussian mean-shift iterates, so the
    update needs no step-size control.  A point whose kernel weights all
    underflow has no defined update: it stays where it is, not converged.
    """
    h = model.bandwidth
    x = estimator._query_matrix(model, points).copy()
    active = np.ones(x.shape[0], dtype=bool)
    stalled = np.zeros(x.shape[0], dtype=bool)
    iters = np.zeros(x.shape[0], dtype=int)
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        s0, s1 = estimator._kernel_sums(model, x[idx], 1)
        empty = ~(s0 > 0)
        stalled[idx[empty]] = True
        active[idx[empty]] = False
        idx, s0, s1 = idx[~empty], s0[~empty], s1[~empty]
        # sum_i K(u_i) (X_i - x) / sum_i K(u_i): the weighted sample mean minus x
        shift = -h * s1 / s0[:, None]
        x[idx] += shift
        iters[idx] += 1
        active[idx[np.linalg.norm(shift, axis=1) < tol]] = False
    return x, ~active & ~stalled, iters


def mean_shift(model: DensityModel, start, tol: float = 1e-8,
               max_iter: int = 500):
    """Run mean shift from a single start; returns (point, converged, iters).

    Exceeding ``max_iter`` clears the converged flag rather than raising, and
    so does a start so far from the data that every kernel weight underflows.
    """
    if model.kernel.family is not KernelFamily.GAUSSIAN:
        raise ValueError("mean shift requires the Gaussian kernel")
    start = np.atleast_1d(np.asarray(start, dtype=float))
    pts, conv, iters = _mean_shift_batch(model, start[None, :], tol, max_iter)
    return pts[0], bool(conv[0]), int(iters[0])


def _merge_points(points: np.ndarray, densities: np.ndarray, radius: float):
    """Greedy merge of nearby destinations, highest density first.

    Returns (representatives, representative densities, member -> rep index).
    """
    order = np.argsort(-densities, kind="stable")
    reps: list[int] = []
    assign = np.full(points.shape[0], -1, dtype=int)
    for i in order:
        placed = False
        for rid, rep_idx in enumerate(reps):
            if np.linalg.norm(points[i] - points[rep_idx]) <= radius:
                assign[i] = rid
                placed = True
                break
        if not placed:
            assign[i] = len(reps)
            reps.append(i)
    return points[reps], densities[reps], assign


def find_modes(model: DensityModel, starts=None, tol: float = 1e-8,
               max_iter: int = 500, merge_radius: float | None = None) -> ModeSet:
    """Mode clustering: mean shift from every start, merged destinations.

    Candidate modes failing the negative-curvature check (largest Hessian
    eigenvalue < 0) are discarded together with their basins.
    """
    if starts is None:
        starts = model.sample.data
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    if starts.size == 0:
        raise ValueError("starts must be nonempty")
    if merge_radius is None:
        merge_radius = model.bandwidth / 2.0
    dest, converged, _ = _mean_shift_batch(model, starts, tol, max_iter)
    dens = estimator.density(model, dest)
    reps, rep_dens, assign = _merge_points(dest, dens, merge_radius)
    assign[~converged] = -1

    s0, _, s2 = estimator._kernel_sums(model, reps, 2)
    lam1 = np.linalg.eigvalsh(estimator._hessians(model, s0, s2))[:, -1]
    keep = np.flatnonzero(lam1 < 0)
    remap = np.full(reps.shape[0] + 1, -1)  # the last entry maps -1 to -1
    remap[keep] = np.arange(keep.size)
    return ModeSet(
        modes=reps[keep], density=rep_dens[keep],
        assignments=remap[assign], converged=converged,
    )


def level_set(grid: EvalGrid, level: float) -> LevelSet:
    """Threshold the grid at ``level`` and label face-adjacent components."""
    from scipy import ndimage
    mask = (grid.values >= level).reshape(grid.shape)
    structure = ndimage.generate_binary_structure(mask.ndim, 1)
    labeled, n = ndimage.label(mask, structure=structure)
    labels = labeled - 1  # 0-based component ids, -1 outside the mask
    return LevelSet(level=float(level), mask=mask, labels=labels, n_components=int(n))


def scms(model: DensityModel, starts=None, tol: float = 1e-7,
         max_iter: int = 500, max_starts: int = 2000,
         eigen_gap_tol: float = 1e-10,
         grad_tol: float | None = None) -> RidgeSet:
    """Subspace-constrained mean shift toward density ridges.

    Each iterate projects the mean-shift step onto the span of the trailing
    d-1 Hessian eigenvectors; a converged point x satisfies
    ||V V^T grad p_hat(x)|| <= grad_tol with lambda_2(x) < 0.  Points whose
    leading Hessian eigengap collapses below ``eigen_gap_tol`` are dropped.
    """
    if model.dim < 2:
        raise ValueError("SCMS requires d >= 2")
    if model.kernel.family is not KernelFamily.GAUSSIAN:
        raise ValueError("SCMS requires the Gaussian kernel")
    if starts is None:
        starts = model.sample.data
        if starts.shape[0] > max_starts:
            stride = int(np.ceil(starts.shape[0] / max_starts))
            starts = starts[::stride]
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    h = model.bandwidth
    if grad_tol is None:  # scale-aware default, see the module docstring
        grad_tol = 1e-6 * estimator.density(model, model.sample.data).max() / h

    x = estimator._query_matrix(model, starts).copy()
    active = np.ones(x.shape[0], dtype=bool)
    converged = np.zeros(x.shape[0], dtype=bool)
    degenerate = np.zeros(x.shape[0], dtype=bool)
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        s0, s1, s2 = estimator._kernel_sums(model, x[idx], 2)
        eigvals, eigvecs = np.linalg.eigh(estimator._hessians(model, s0, s2))
        flat = eigvals[:, -1] - eigvals[:, -2] < eigen_gap_tol
        degenerate[idx[flat]] = True
        active[idx[flat]] = False
        keep = ~flat
        idx = idx[keep]
        v_trailing = eigvecs[keep, :, :-1]  # all but the leading eigenvector
        shift = -h * s1[keep] / s0[keep, None]  # mean-shift step
        step = _project(v_trailing, shift)
        x[idx] += step
        done = np.linalg.norm(step, axis=1) < tol
        converged[idx[done]] = True
        active[idx[done]] = False

    pts = x[converged]
    s0, s1, s2 = estimator._kernel_sums(model, pts, 2)
    eigvals, eigvecs = np.linalg.eigh(estimator._hessians(model, s0, s2))
    proj_norm = np.linalg.norm(
        _project(eigvecs[:, :, :-1], estimator._gradients(model, s1)), axis=1)
    lam2 = eigvals[:, -2]
    ridge = (lam2 < 0) & (proj_norm <= grad_tol)
    return RidgeSet(
        points=pts[ridge],
        projected_grad_norms=proj_norm[ridge],
        lambda2=lam2[ridge],
        converged=converged,
        dropped_degenerate=int(degenerate.sum()),
    )


def _project(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rows of ``w`` projected onto the column spans of the matrices ``v``:
    V V^T w, batched over the first axis."""
    return np.einsum("aij,aj->ai", v, np.einsum("aji,aj->ai", v, w))


def _flow_sinks(grid: EvalGrid, sign: float) -> np.ndarray:
    """Flat index of the grid point where each point's discrete steepest flow
    ends: ascent for ``sign`` = +1, descent for -1.

    Each point points at the neighbour in its 3^d - 1 ring with the largest
    slope sign * (f(y) - f(x)) / |y - x|, or at itself when no slope is
    positive, so ties and plateaus stop the flow.  Pointers only ever move
    strictly up (or down), so pointer jumping reaches every sink.
    """
    shape = grid.shape
    f = sign * grid.values.reshape(shape)
    idx = np.arange(f.size).reshape(shape)
    ptr = idx.copy()
    best = np.zeros(shape)
    for offset in itertools.product((-1, 0, 1), repeat=f.ndim):
        if not any(offset):
            continue
        here = tuple(slice(max(-o, 0), n - max(o, 0)) for o, n in zip(offset, shape))
        there = tuple(slice(max(o, 0), n + min(o, 0)) for o, n in zip(offset, shape))
        dist = np.sqrt(sum(np.ix_(*[(ax[t] - ax[s]) ** 2 for ax, s, t
                                    in zip(grid.axes, here, there)])))
        slope = (f[there] - f[here]) / dist
        steeper = slope > best[here]
        best[here] = np.where(steeper, slope, best[here])
        ptr[here] = np.where(steeper, idx[there], ptr[here])
    return _pointer_roots(ptr.ravel())


def _pointer_roots(ptr: np.ndarray) -> np.ndarray:
    """The root each index reaches in the pointer forest ``ptr`` (every
    chain ends at an index that points at itself), by pointer jumping."""
    while True:
        jumped = ptr[ptr]
        if np.array_equal(jumped, ptr):
            return ptr
        ptr = jumped


def morse_smale(model: DensityModel, grid: EvalGrid) -> MorseSmalePartition:
    """Partition the grid by the sinks of its discrete steepest flows (d <= 2).

    Ascent: the distinct ascent sinks are polished to modes by mean shift and
    merged within h / 2; a sink whose mean shift does not converge (all its
    kernel weights underflow) gets EXTERIOR.  Descent: sinks strictly inside
    the grid with positive density are the minima, merged within h / 2; a
    flow that ends on the edge or at zero density gets EXTERIOR.  Cells are
    the distinct (ascent, descent) pairs; exterior-descent points form one.
    """
    if model.dim > 2:
        raise ValueError("grid-based Morse-Smale supports d <= 2 only")
    if model.kernel.family is not KernelFamily.GAUSSIAN:
        raise ValueError("Morse-Smale flows require the Gaussian kernel")
    radius = model.bandwidth / 2.0

    peaks, up = np.unique(_flow_sinks(grid, 1.0), return_inverse=True)
    dest, converged, _ = _mean_shift_batch(model, grid.points[peaks], tol=1e-8,
                                           max_iter=500)
    dest = dest[converged]
    modes, _, mode_of = _merge_points(dest, estimator.density(model, dest), radius)
    peak_ids = np.full(peaks.size, EXTERIOR)
    peak_ids[converged] = mode_of

    pits, down = np.unique(_flow_sinks(grid, -1.0), return_inverse=True)
    inside = np.all([(i > 0) & (i < n - 1) for i, n in
                     zip(np.unravel_index(pits, grid.shape), grid.shape)], axis=0)
    inside &= grid.values[pits] > 0.0
    minima, _, minimum_of = _merge_points(
        grid.points[pits[inside]], -grid.values[pits[inside]], radius)
    pit_ids = np.full(pits.size, EXTERIOR)
    pit_ids[inside] = minimum_of

    ascent_ids, descent_ids = peak_ids[up], pit_ids[down]
    pairs = np.column_stack([np.where(descent_ids == EXTERIOR, EXTERIOR, ascent_ids),
                             descent_ids])
    _, cells = np.unique(pairs, axis=0, return_inverse=True)
    return MorseSmalePartition(
        ascent_ids=ascent_ids, descent_ids=descent_ids, cell_labels=cells.ravel(),
        modes=modes, minima=minima,
    )
