"""Geometric features of the estimated density.

* ``mean_shift`` / ``find_modes`` -- fixed-point ascent to local modes and the
  induced mode clustering (each start is assigned to the basin it flows to).
* ``level_set`` -- superlevel threshold of a density grid plus connected
  components under face adjacency.
* ``scms`` -- subspace-constrained mean shift: the mean-shift step projected
  onto the trailing (d-1) Hessian eigenvectors, converging to density ridges
  (a constrained Newton step where the local model allows it).
* ``morse_smale`` -- partition of an evaluated grid by the (mode, minimum)
  pair that each point's discrete steepest-ascent and steepest-descent flows
  reach; the flows follow neighbour pointers on the grid's own values.

Mean shift and SCMS differ only in their step (``_mean_shift_step``,
``_scms_step``); one loop, ``_ascend``, iterates either over an active set of
starts and reports each start's end point, converged and dropped flags and
iteration count.  Each step is a Newton step where the local model allows
it and the first-order step elsewhere, row by row: mean shift takes
-H^-1 grad p_hat near a mode, where it does not lower p_hat; SCMS takes a
Newton step for V^T grad p_hat = 0 along the trailing eigenvectors V, at
most h / 4 long, whose Jacobian includes how V turns as x moves
(third-order kernel sums; Ozertem & Erdogmus 2011, *JMLR* 12:1249; Genovese
et al. 2014, *Ann. Statist.* 42:1511), and the reversed step where that
Jacobian makes the predicted ridge point repel SCMS.  Both converge
quadratically where the first-order steps converge linearly.
``find_modes`` is the one code path from starts to modes (merge of
converged destinations, curvature check); ``morse_smale`` polishes its
grid's ascent sinks through it.

Convergence tolerances are artifact choices: the SCMS gradient tolerance
is 1e-6 * (largest KDE value at the sample points) / h and the mode merge
radius defaults to h / 2, keeping both thresholds scale-aware.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import estimator
from .estimator import DensityModel, EvalGrid

EXTERIOR = -1  # shared label for flows that leave the grid or reach no extremum
# SCMS drops a start whose leading Hessian eigengap falls below this.
_EIGEN_GAP_TOL = 1e-10


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


def _ascend(model: DensityModel, x, step, tol: float, max_iter: int):
    """The one ascent loop: ``x += shift`` on every active row of ``x`` at once.

    ``step(model, y)`` returns the shifts of the rows of ``y`` that have one
    and a mask of those rows.  A row without a shift is dropped (mean shift:
    every kernel weight underflows; SCMS: the eigengap collapses); a row
    whose shift is shorter than ``tol`` has converged.  Either leaves the
    active set.  ``x`` is an (m, d) query matrix (``estimator._query_matrix``).
    Returns (end points, converged, dropped, iterations) per row.

    A step may also return (rows, sums), the kernel sums it formed at
    y + shift for the rows ``rows`` of y; the next step then gets them as
    step(model, y, known), known = (mask of the rows of y with sums, *sums).

    A ``tol`` that is not positive (or NaN), or a ``max_iter`` below 1, would
    converge no row, so it is refused with a ValueError.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    x = x.copy()
    active = np.ones(x.shape[0], dtype=bool)
    dropped = np.zeros(x.shape[0], dtype=bool)
    iters = np.zeros(x.shape[0], dtype=int)
    have, carried = np.zeros(x.shape[0], dtype=bool), ()  # sums at each row's x
    for _ in range(max_iter):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        known = have[idx]
        shift, ok, *ahead = (step(model, x[idx], (known, *(s[idx] for s in carried)))
                             if known.any() else step(model, x[idx]))
        have[idx] = False
        if ahead:
            rows, sums = ahead[0]
            carried = carried or tuple(np.empty(x.shape[:1] + s.shape[1:]) for s in sums)
            for c, s in zip(carried, sums):
                c[idx[rows]] = s
            have[idx[rows]] = True
        dropped[idx[~ok]] = True
        active[idx[~ok]] = False
        idx = idx[ok]
        x[idx] += shift
        iters[idx] += 1
        active[idx[np.linalg.norm(shift, axis=1) < tol]] = False
    return x, ~active & ~dropped, dropped, iters


def _mean_shift_step(model: DensityModel, x: np.ndarray, known=None):
    """The Newton step -H^-1 grad p_hat where it is short and climbs, else the
    mean-shift update sum_i K(u_i) (X_i - x) / sum_i K(u_i), the weighted
    sample mean minus x.  Undefined where every kernel weight underflows.

    A row takes the Newton step delta when its Hessian H is negative
    definite, |delta| <= h / 4 and p_hat(x + delta) >= p_hat(x), the last
    checked by the kernel sums of order 0-2 at x + delta.  Density is
    nondecreasing along Gaussian mean-shift iterates, so neither step lowers
    p_hat and neither needs step-size control; near a mode the Newton step
    converges quadratically, mean shift linearly.

    The check's sums are the next step's, so they go back to ``_ascend``,
    but for a check of one row, summed pairwise (see ``_sums_at``).
    """
    s0, s1, s2 = _sums_at(model, x, known)
    ok = s0 > 0
    s0, s1, s2 = s0[ok], s1[ok], s2[ok]
    h = model.bandwidth
    shift = -h * s1 / s0[:, None]
    hess = estimator._hessians(model, s0, s2)
    rows = np.flatnonzero(np.linalg.eigvalsh(hess)[:, -1] < 0)
    newton = -np.linalg.solve(
        hess[rows], estimator._gradients(model, s1[rows])[:, :, None])[:, :, 0]
    short = np.linalg.norm(newton, axis=1) <= h / 4
    rows, newton = rows[short], newton[short]
    at_step = estimator._kernel_sums(model, x[ok][rows] + newton, 2)
    climbs = at_step[0] >= s0[rows]
    shift[rows[climbs]] = newton[climbs]
    climbs &= rows.size > 1
    return shift, ok, (np.flatnonzero(ok)[rows[climbs]], [s[climbs] for s in at_step])


def _sums_at(model: DensityModel, x: np.ndarray, known):
    """The kernel sums s0, s1, s2 at the rows of ``x``: from ``known`` where
    its mask marks them, else from a fresh pass.  A pass over one query sums
    it pairwise, with other bits than a wider pass (``estimator._pairs``),
    so a lone row takes nothing known, and a lone fresh row beside known
    ones is summed beside a copy of itself."""
    if known is None or x.shape[0] < 2:
        return estimator._kernel_sums(model, x, 2)
    have, *sums = known
    todo = np.flatnonzero(~have)
    if todo.size:
        fresh = estimator._kernel_sums(model, x[todo.repeat(2) if todo.size == 1 else todo], 2)
        for s, f in zip(sums, fresh):
            s[todo] = f[:todo.size]
    return sums


def mean_shift(model: DensityModel, start, tol: float = 1e-8,
               max_iter: int = 500):
    """Run mean shift from a single start; returns (point, converged, iters).

    Exceeding ``max_iter`` clears the converged flag rather than raising, and
    so does a start so far from the data that every kernel weight underflows.
    """
    estimator._require_gaussian(model, "mean shift")
    pts, conv, _, iters = _ascend(model, estimator._query_point(model, start),
                                  _mean_shift_step, tol, max_iter)
    return pts[0], bool(conv[0]), int(iters[0])


def _merge_points(points: np.ndarray, densities: np.ndarray, radius: float):
    """Greedy merge of nearby destinations, highest density first.

    Each point joins the earliest representative within ``radius``, or
    becomes one.  So, walking the points in density order, a point not yet
    claimed becomes a representative and claims every unclaimed point within
    reach; the distance is sqrt(diff . diff) with numpy's dot product, the
    bits of np.linalg.norm of one difference, so ties at the radius fall as
    they would pair by pair.

    Returns (representatives, representative densities, member -> rep index).
    """
    order = np.argsort(-densities, kind="stable")
    reps: list[int] = []
    assign = np.full(points.shape[0], -1, dtype=int)
    for i in order:
        if assign[i] >= 0:
            continue
        diff = points - points[i]
        near = np.sqrt(np.vecdot(diff, diff)) <= radius
        near[i] = True  # a representative is its own, whatever the radius
        assign[near & (assign < 0)] = len(reps)
        reps.append(i)
    return points[reps], densities[reps], assign


def find_modes(model: DensityModel, starts=None, tol: float = 1e-8,
               max_iter: int = 500, merge_radius: float | None = None) -> ModeSet:
    """Mode clustering: mean shift from every start, merged destinations.

    Only converged destinations are merged (greedily within ``merge_radius``,
    default h / 2, highest density first); a start that does not converge is
    assigned -1.  Candidate modes failing the negative-curvature check
    (largest Hessian eigenvalue < 0) are discarded together with their basins.
    """
    estimator._require_gaussian(model, "mean shift")
    starts = estimator._query_matrix(model, model.sample.data if starts is None else starts)
    if starts.size == 0:
        raise ValueError("starts must be nonempty")
    if merge_radius is None:
        merge_radius = model.bandwidth / 2.0
    dest, converged, _, _ = _ascend(model, starts, _mean_shift_step, tol, max_iter)
    dest = dest[converged]
    reps, rep_dens, mode_of = _merge_points(dest, estimator.density(model, dest),
                                            merge_radius)
    s0, _, s2 = estimator._kernel_sums(model, reps, 2)
    lam1 = np.linalg.eigvalsh(estimator._hessians(model, s0, s2))[:, -1]
    keep = np.flatnonzero(lam1 < 0)
    remap = np.full(reps.shape[0], -1)
    remap[keep] = np.arange(keep.size)
    assignments = np.full(starts.shape[0], -1)
    assignments[converged] = remap[mode_of]
    return ModeSet(modes=reps[keep], density=rep_dens[keep],
                   assignments=assignments, converged=converged)


def level_set(grid: EvalGrid, level: float) -> LevelSet:
    """Threshold the grid at ``level`` and label face-adjacent components."""
    from scipy import ndimage
    mask = (grid.values >= level).reshape(grid.shape)
    structure = ndimage.generate_binary_structure(mask.ndim, 1)
    labeled, n = ndimage.label(mask, structure=structure)
    labels = labeled - 1  # 0-based component ids, -1 outside the mask
    return LevelSet(level=float(level), mask=mask, labels=labels, n_components=int(n))


def scms(model: DensityModel, starts=None, tol: float = 1e-7,
         max_iter: int = 500, max_starts: int = 2000) -> RidgeSet:
    """Subspace-constrained mean shift toward density ridges.

    Each iterate moves within the span V of the trailing d-1 Hessian
    eigenvectors: by the constrained Newton step where every trailing
    eigenvalue is negative and the step's Jacobian is negative definite (cut
    back to h / 4 where it is longer), by the reversed step where the
    Jacobian is positive definite and the step short, else by the
    mean-shift step projected onto V (``_scms_step``).  The ridge points
    returned satisfy ||V V^T grad p_hat(x)|| <= grad_tol with lambda_2(x) < 0,
    whichever step reached them.  Points whose leading Hessian eigengap
    collapses below _EIGEN_GAP_TOL are dropped.
    """
    if model.dim < 2:
        raise ValueError("SCMS requires d >= 2")
    estimator._require_gaussian(model, "SCMS")
    if starts is None:  # at most max_starts sample points, at an even stride
        starts = model.sample.data[::-(-model.n // max_starts)]
    # scale-aware, see the module docstring
    grad_tol = 1e-6 * estimator.density(model, model.sample.data).max() / model.bandwidth
    x, converged, degenerate, _ = _ascend(
        model, estimator._query_matrix(model, starts), _scms_step, tol, max_iter)

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


def _scms_step(model: DensityModel, x: np.ndarray):
    """A constrained Newton step onto the ridge where the local model allows
    it, else the mean-shift step projected onto the span of the trailing
    d - 1 Hessian eigenvectors V; undefined where the leading eigengap is
    below _EIGEN_GAP_TOL.

    The ridge is the zero set of F(x) = V^T grad p_hat.  With w the leading
    eigenvector (eigenvalue lambda_w) and T the third-derivative tensor, the
    Jacobian of F along V is J_ab = lambda_a delta_ab + (w . grad p_hat)
    T(w, v_a, v_b) / (lambda_a - lambda_w): the second term is how V turns as
    x moves, without which the step converges no faster than SCMS.  A row
    takes delta = -V J^-1 F when every lambda_a < 0 and J + J^T is negative
    definite (delta then points the way the SCMS step does); a delta longer
    than h / 4 is cut back to h / 4 along its own direction, where the local
    model no longer holds but its direction still leads to the ridge.

    Where J + J^T is positive definite instead, the zero of F that the local
    model predicts repels the SCMS flow: the SCMS step goes along V F, F
    grows along it, and near that zero SCMS creeps away at about J times its
    step size an iteration, for hundreds of iterations.  There the row takes
    the reversed step +V J^-1 F, which also points the way the SCMS step
    does and doubles F in the local model, where it is at most h / 4 long;
    a longer one would jump past the ridge the SCMS flow reaches.
    """
    s0, s1, s2, s3 = estimator._kernel_sums(model, x, 3)
    lam, vecs = np.linalg.eigh(estimator._hessians(model, s0, s2))
    ok = ~(lam[:, -1] - lam[:, -2] < _EIGEN_GAP_TOL)
    if not ok.all():
        s0, s1, s3, lam, vecs = s0[ok], s1[ok], s3[ok], lam[ok], vecs[ok]
    m, d = s1.shape
    scale = model.n * estimator._bandwidth_power(model, d + 1)  # grad p_hat = -s1 / scale
    v, w = vecs[:, :, :-1], vecs[:, :, -1:]
    f = s1[:, None, :] @ vecs / -scale  # (m, 1, d): V^T grad p_hat, then w . grad p_hat
    fv, wg = f[:, :, :-1].transpose(0, 2, 1), f[:, :, -1:]
    # the mean-shift step -h s1 / s0, projected: V V^T grad p_hat h scale / s0
    shift = (v @ fv)[:, :, 0] * (model.bandwidth * scale / s0)[:, None]

    # scale h^2 T(w, v_a, v_b) = (s1 . w) delta_ab - v_a^T (s3 . w) v_b, since w
    # is orthogonal to V, and s1 . w = -scale (w . grad p_hat); so, with
    # gap = (lambda_a - lambda_w) h^2, J = (lambda_a - wg^2 / gap) delta_ab
    # - wg v_a^T (s3 . w) v_b / (scale gap)
    s3w = (w.transpose(0, 2, 1) @ s3.reshape(m, d, d * d)).reshape(m, d, d)
    gap = (lam[:, :-1] - lam[:, -1:])[:, :, None] * estimator._bandwidth_power(model, 2)
    jac = v.transpose(0, 2, 1) @ s3w @ v * (-wg / (scale * gap))
    jac += (lam[:, :-1, None] - wg * wg / gap) * np.eye(d - 1)
    sym = np.linalg.eigvalsh(jac + jac.transpose(0, 2, 1))
    # 1 where J + J^T is negative definite, -1 where it is positive definite
    sign = np.where(sym[:, -1] < 0, 1.0, np.where(sym[:, 0] > 0, -1.0, 0.0))
    rows = np.flatnonzero((lam[:, -2] < 0) & (sign != 0))
    newton = -(v[rows] @ np.linalg.solve(jac[rows], fv[rows]))[:, :, 0] * sign[rows, None]
    length = np.linalg.norm(newton, axis=1)
    reach = model.bandwidth / 4
    keep = (sign[rows] > 0) | (length <= reach)
    rows, newton, length = rows[keep], newton[keep], length[keep]
    shift[rows] = newton * (reach / np.maximum(length, reach))[:, None]
    return shift, ok


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

    Ascent: ``find_modes`` polishes the distinct ascent sinks to modes; a
    sink it leaves unassigned (mean shift does not converge, or the merged
    point fails the curvature check) gets EXTERIOR.  Descent: sinks strictly
    inside the grid with positive density are the minima, merged within
    h / 2; a flow that ends on the edge or at zero density gets EXTERIOR.
    Cells are the distinct (ascent, descent) pairs; exterior-descent points
    form one.
    """
    if model.dim > 2:
        raise ValueError("grid-based Morse-Smale supports d <= 2 only")
    estimator._require_gaussian(model, "Morse-Smale flows")

    peaks, up = np.unique(_flow_sinks(grid, 1.0), return_inverse=True)
    modes = find_modes(model, grid.points[peaks])

    pits, down = np.unique(_flow_sinks(grid, -1.0), return_inverse=True)
    inside = np.all([(i > 0) & (i < n - 1) for i, n in
                     zip(np.unravel_index(pits, grid.shape), grid.shape)], axis=0)
    inside &= grid.values[pits] > 0.0
    minima, _, minimum_of = _merge_points(
        grid.points[pits[inside]], -grid.values[pits[inside]], model.bandwidth / 2.0)
    pit_ids = np.full(pits.size, EXTERIOR)
    pit_ids[inside] = minimum_of

    ascent_ids, descent_ids = modes.assignments[up], pit_ids[down]
    pairs = np.column_stack([np.where(descent_ids == EXTERIOR, EXTERIOR, ascent_ids),
                             descent_ids])
    _, cells = np.unique(pairs, axis=0, return_inverse=True)
    return MorseSmalePartition(
        ascent_ids=ascent_ids, descent_ids=descent_ids, cell_labels=cells.ravel(),
        modes=modes.modes, minima=minima,
    )
