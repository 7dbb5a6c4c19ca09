import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdeforge import bandwidth, estimator, geometry
from kdeforge.estimator import DensityModel, Sample
from kdeforge.geometry import find_modes, level_set, mean_shift, morse_smale, scms
from kdeforge.kernels import KernelFamily, KernelSpec

from conftest import flood_fill_components

GAUSS1 = KernelSpec(KernelFamily.GAUSSIAN, 1)
GAUSS2 = KernelSpec(KernelFamily.GAUSSIAN, 2)


def bimodal_sample(rng, n=400, sep=5.0):
    half = n // 2
    return np.concatenate([rng.normal(-sep / 2, 1.0, half),
                           rng.normal(sep / 2, 1.0, n - half)])


# --- mean shift ---


def test_mean_shift_single_gaussian_converges_to_mean(rng):
    data = rng.normal(2.0, 1.0, 500)
    model = DensityModel(Sample(data), GAUSS1, 0.8)
    dest, converged, iters = mean_shift(model, [0.5])
    assert converged
    assert iters >= 1
    # the destination must be a stationary point of the KDE
    assert estimator.derivative_at(model, dest, [1]) == pytest.approx(0.0, abs=1e-6)
    assert abs(dest[0] - 2.0) < 0.3


def test_mean_shift_density_nondecreasing(rng):
    data = bimodal_sample(rng)
    model = DensityModel(Sample(data), GAUSS1, 0.7)
    x = np.array([-0.9])
    prev = estimator.density_at(model, x)
    for _ in range(40):
        x, _, _ = mean_shift(model, x, max_iter=1)
        cur = estimator.density_at(model, x)
        assert cur >= prev - 1e-15
        prev = cur


def test_mean_shift_requires_gaussian(rng):
    sph = DensityModel(Sample(rng.normal(size=20)),
                       KernelSpec(KernelFamily.SPHERICAL, 1), 0.5)
    with pytest.raises(ValueError, match="Gaussian"):
        mean_shift(sph, [0.0])


@pytest.mark.parametrize("controls,message", [
    (dict(tol=0.0), "tol must be positive, got 0.0"),
    (dict(tol=-1.0), "tol must be positive, got -1.0"),
    (dict(tol=float("nan")), "tol must be positive, got nan"),
    (dict(max_iter=0), "max_iter must be at least 1, got 0"),
])
def test_iteration_controls_that_cannot_converge_are_refused(rng, controls, message):
    # each would end with no start converged, not with a result
    model = DensityModel(Sample(rng.normal(size=(60, 2))), GAUSS2, 0.6)
    for run in (lambda: mean_shift(model, [0.0, 0.0], **controls),
                lambda: find_modes(model, **controls),
                lambda: scms(model, **controls)):
        with pytest.raises(ValueError, match=message):
            run()


def test_mean_shift_nonconvergence_flag(rng):
    model = DensityModel(Sample(bimodal_sample(rng)), GAUSS1, 0.7)
    _, converged, iters = mean_shift(model, [10.0], tol=1e-12, max_iter=2)
    assert not converged
    assert iters == 2


def test_mean_shift_far_start_is_not_converged(rng):
    # every kernel weight underflows at the start: no update is defined
    model = DensityModel(Sample(rng.normal(size=(200, 2))), GAUSS2, 0.5)
    dest, converged, iters = mean_shift(model, [50.0, 50.0])
    assert not converged
    assert np.all(np.isfinite(dest))
    assert iters == 0
    starts = np.vstack([model.sample.data, [[50.0, 50.0]]])
    modes = find_modes(model, starts=starts)
    assert modes.assignments[-1] == -1
    assert not modes.converged[-1]
    assert modes.n_modes >= 1
    assert np.all(modes.assignments[:-1][modes.converged[:-1]] >= 0)


# --- mode finding ---


def test_find_modes_bimodal(rng):
    data = bimodal_sample(rng, n=600)
    model = DensityModel(Sample(data), GAUSS1, 0.8)
    modes = find_modes(model)
    assert modes.n_modes == 2
    locs = np.sort(modes.modes[:, 0])
    assert abs(locs[0] + 2.5) < 0.4
    assert abs(locs[1] - 2.5) < 0.4
    # grid-argmax oracle: each mode must be close to a local grid maximum
    grid = estimator.evaluate_grid(model, resolution=1024)
    vals = grid.values
    local_max = grid.points[
        (np.r_[True, vals[1:] > vals[:-1]] & np.r_[vals[:-1] > vals[1:], True]), 0]
    for m in modes.modes[:, 0]:
        assert np.min(np.abs(local_max - m)) < 2 * (grid.axes[0][1] - grid.axes[0][0])


def test_find_modes_assignment_partition(rng):
    data = bimodal_sample(rng, n=300)
    model = DensityModel(Sample(data), GAUSS1, 0.8)
    modes = find_modes(model)
    assert modes.assignments.shape == (300,)
    assigned = modes.assignments[modes.assignments >= 0]
    assert set(assigned) == set(range(modes.n_modes))
    # basin assignment must respect the sign structure: points near -2.5
    # cluster together, likewise near +2.5
    left = modes.assignments[data < -1.5]
    right = modes.assignments[data > 1.5]
    assert len(set(left[left >= 0])) == 1
    assert len(set(right[right >= 0])) == 1
    assert set(left[left >= 0]) != set(right[right >= 0])


def test_find_modes_2d(rng):
    centers = np.array([[-3.0, 0.0], [3.0, 0.0]])
    data = np.concatenate([rng.normal(c, 1.0, size=(250, 2)) for c in centers])
    model = DensityModel(Sample(data), GAUSS2, 0.9)
    modes = find_modes(model)
    assert modes.n_modes == 2
    found = modes.modes[np.argsort(modes.modes[:, 0])]
    np.testing.assert_allclose(found, centers, atol=0.5)


def test_find_modes_merge_radius(rng):
    data = rng.normal(size=200)
    model = DensityModel(Sample(data), GAUSS1, 0.6)
    modes = find_modes(model)
    assert modes.n_modes == 1
    # with a huge merge radius a bimodal sample collapses to one mode
    data2 = bimodal_sample(rng)
    model2 = DensityModel(Sample(data2), GAUSS1, 0.8)
    merged = find_modes(model2, merge_radius=20.0)
    assert merged.n_modes == 1


def test_find_modes_merges_only_converged_starts(rng):
    model = DensityModel(Sample(bimodal_sample(rng)), GAUSS1, 0.8)
    modes = find_modes(model, max_iter=1)
    assert not modes.converged.any()
    assert modes.n_modes == 0
    assert np.all(modes.assignments == -1)


def test_find_modes_requires_gaussian(rng):
    sph = DensityModel(Sample(rng.normal(size=20)),
                       KernelSpec(KernelFamily.SPHERICAL, 1), 0.5)
    with pytest.raises(ValueError, match="Gaussian"):
        find_modes(sph)


def test_find_modes_empty_starts(rng):
    model = DensityModel(Sample(rng.normal(size=20)), GAUSS1, 0.5)
    with pytest.raises(ValueError, match="nonempty"):
        find_modes(model, starts=np.empty((0, 1)))


# --- level sets ---


def test_level_set_bimodal_components(rng):
    data = bimodal_sample(rng, n=800)
    model = DensityModel(Sample(data), GAUSS1, 0.6)
    grid = estimator.evaluate_grid(model, resolution=512)
    peak = grid.values.max()

    high = level_set(grid, 0.6 * peak)
    assert high.n_components == 2
    low = level_set(grid, 1e-4 * peak)
    assert low.n_components == 1
    empty = level_set(grid, 2.0 * peak)
    assert empty.n_components == 0
    assert not empty.mask.any()


def test_level_set_labels_match_mask(rng):
    data = bimodal_sample(rng, n=500)
    model = DensityModel(Sample(data), GAUSS1, 0.6)
    grid = estimator.evaluate_grid(model, resolution=256)
    ls = level_set(grid, 0.5 * grid.values.max())
    assert ls.mask.shape == grid.shape
    assert np.all((ls.labels >= 0) == ls.mask)
    assert set(np.unique(ls.labels[ls.mask])) == set(range(ls.n_components))


def test_level_set_components_match_flood_fill(rng):
    centers = np.array([[-3.0, -3.0], [3.0, 3.0], [3.0, -3.0]])
    data = np.concatenate([rng.normal(c, 0.7, size=(150, 2)) for c in centers])
    model = DensityModel(Sample(data), GAUSS2, 0.6)
    grid = estimator.evaluate_grid(model, resolution=96)
    for frac in (0.3, 0.6, 0.9):
        ls = level_set(grid, frac * grid.values.max())
        assert ls.n_components == flood_fill_components(ls.mask)


def test_level_set_monotone_in_level(rng):
    data = bimodal_sample(rng)
    model = DensityModel(Sample(data), GAUSS1, 0.7)
    grid = estimator.evaluate_grid(model, resolution=256)
    m_low = level_set(grid, 0.1 * grid.values.max()).mask
    m_high = level_set(grid, 0.5 * grid.values.max()).mask
    assert np.all(m_high <= m_low)  # superlevel sets are nested


# --- SCMS ridges ---


def circle_sample(rng, n=800, radius=3.0, noise=0.15):
    theta = rng.uniform(0, 2 * np.pi, n)
    pts = radius * np.column_stack([np.cos(theta), np.sin(theta)])
    return pts + rng.normal(0, noise, size=(n, 2))


def test_scms_recovers_circle(rng):
    data = circle_sample(rng)
    model = DensityModel(Sample(data), GAUSS2, 0.7)
    ridge = scms(model)
    assert ridge.points.shape[0] > 0.5 * len(data)
    radii = np.linalg.norm(ridge.points, axis=1)
    close = np.abs(radii - 3.0) < 0.2
    assert close.mean() >= 0.85
    assert np.all(ridge.lambda2 < 0)
    tol = 1e-6 * estimator.density(model, data).max() / 0.7
    assert np.all(ridge.projected_grad_norms <= tol)


def test_scms_requires_2d(rng):
    model = DensityModel(Sample(rng.normal(size=50)), GAUSS1, 0.5)
    with pytest.raises(ValueError, match="d >= 2"):
        scms(model)


def test_scms_thins_starts(rng):
    data = circle_sample(rng, n=300)
    model = DensityModel(Sample(data), GAUSS2, 0.7)
    ridge = scms(model, max_starts=50)
    assert ridge.converged.shape[0] <= 150  # ceil thinning keeps <= 2x budget
    assert ridge.converged.shape[0] < 300


# --- Morse-Smale ---


def test_morse_smale_bimodal_three_cells(rng):
    data = bimodal_sample(rng, n=500)
    model = DensityModel(Sample(data), GAUSS1, 0.8)
    axes = (np.linspace(-6, 6, 121),)
    grid = estimator.evaluate_grid(model, axes=axes)
    part = morse_smale(model, grid)
    assert part.modes.shape[0] == 2
    # two interior basins split at the central antimode, plus one boundary
    # cell from flows that exit the domain
    assert len(np.unique(part.cell_labels)) == 3
    # cells must be contiguous along the line
    labels = part.cell_labels
    changes = np.count_nonzero(labels[1:] != labels[:-1])
    assert changes <= 3


def test_morse_smale_ascent_matches_mode_basins(rng):
    data = bimodal_sample(rng, n=500)
    model = DensityModel(Sample(data), GAUSS1, 0.8)
    axes = (np.linspace(-5, 5, 81),)
    grid = estimator.evaluate_grid(model, axes=axes)
    part = morse_smale(model, grid)
    xs = grid.points[:, 0]
    left = part.ascent_ids[xs < -1.0]
    right = part.ascent_ids[xs > 1.0]
    assert len(set(left)) == 1
    assert len(set(right)) == 1
    assert set(left) != set(right)


def test_morse_smale_four_clusters_one_interior_minimum(rng):
    corners = 2.5 * np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]])
    data = np.concatenate([rng.normal(c, 0.6, size=(40, 2)) for c in corners])
    model = DensityModel(Sample(data), GAUSS2, 0.8)
    grid = estimator.evaluate_grid(model, resolution=32)
    part = morse_smale(model, grid)

    # interior strict minima of the grid under the full 3^2 - 1 ring
    vals = grid.values.reshape(grid.shape)
    pad = np.pad(vals, 1, constant_values=np.inf)
    ring = np.stack([pad[1 + a:33 + a, 1 + b:33 + b] for a in (-1, 0, 1)
                     for b in (-1, 0, 1) if (a, b) != (0, 0)])
    is_min = vals < ring.min(axis=0)
    is_min[[0, -1], :] = is_min[:, [0, -1]] = False
    assert np.count_nonzero(is_min) == 1
    assert part.descent_ids[np.flatnonzero(is_min)[0]] == 0
    assert set(part.descent_ids.tolist()) <= {geometry.EXTERIOR, 0}
    np.testing.assert_array_equal(part.minima, grid.points[is_min.ravel()])

    assert part.modes.shape[0] == 4
    reference = find_modes(model).modes
    for m in part.modes:
        assert np.min(np.linalg.norm(reference - m, axis=1)) <= model.bandwidth / 2
    assert set(part.ascent_ids.tolist()) == {0, 1, 2, 3}

    inside = part.descent_ids != geometry.EXTERIOR
    pairs = set(zip(part.ascent_ids[inside].tolist(), part.descent_ids[inside].tolist()))
    assert len(set(part.cell_labels[~inside].tolist())) == 1
    assert len(set(part.cell_labels.tolist())) == len(pairs) + 1
    for a, d in pairs:
        same = (part.ascent_ids == a) & (part.descent_ids == d)
        assert len(set(part.cell_labels[same].tolist())) == 1


def test_morse_smale_grid_past_the_data_adds_no_modes(rng):
    data = bimodal_sample(rng, n=200)
    model = DensityModel(Sample(data), GAUSS1, 0.8)
    grid = estimator.evaluate_grid(model, axes=(np.linspace(-80, 80, 321),))
    far = np.abs(grid.points[:, 0]) > 60
    assert np.all(grid.values[far] == 0)
    part = morse_smale(model, grid)
    assert part.modes.shape[0] == 2
    # the underflowed plateau has no mode to climb to; every point that has
    # density flows to one of the two modes
    assert np.all(part.ascent_ids[far] == geometry.EXTERIOR)
    assert np.all(part.ascent_ids[grid.values > 0] >= 0)


def test_morse_smale_zero_density_plateau_has_no_minima(rng):
    # a grid far from the data: the density underflows to 0 everywhere, so
    # no grid point is a minimum and no flow reaches a mode
    model = DensityModel(Sample(rng.normal(size=(20, 2))), GAUSS2, 0.3)
    grid = estimator.evaluate_grid(
        model, axes=(np.linspace(100, 110, 5), np.linspace(100, 110, 6)))
    assert np.all(grid.values == 0)
    part = morse_smale(model, grid)
    assert part.minima.shape[0] == 0
    assert part.modes.shape[0] == 0
    assert np.all(part.descent_ids == geometry.EXTERIOR)
    assert np.all(part.ascent_ids == geometry.EXTERIOR)
    assert np.unique(part.cell_labels).size == 1


def test_morse_smale_sink_failing_curvature_check_is_exterior():
    # Two points at +-1 with h = 0.5: the KDE has a local minimum at 0.  On
    # the grid {-100, 0, 100} the density underflows at +-100, so 0 is an
    # ascent sink; mean shift from it does not move (the sample is symmetric)
    # and stops on the minimum, which the curvature check rejects.
    model = DensityModel(Sample(np.array([-1.0, 1.0])), GAUSS1, 0.5)
    _, converged, _ = mean_shift(model, [0.0])
    assert converged
    grid = estimator.evaluate_grid(model, axes=(np.array([-100.0, 0.0, 100.0]),))
    part = morse_smale(model, grid)
    assert part.modes.shape[0] == 0
    assert np.all(part.ascent_ids == geometry.EXTERIOR)


@pytest.mark.parametrize("knob", [{"step": 0.1}, {"max_steps": 100}],
                         ids=["step", "max_steps"])
def test_morse_smale_has_no_flow_knobs(rng, knob):
    model = DensityModel(Sample(bimodal_sample(rng, n=100)), GAUSS1, 0.8)
    grid = estimator.evaluate_grid(model, resolution=16)
    with pytest.raises(TypeError):
        morse_smale(model, grid, **knob)


def test_morse_smale_dim_limit(rng):
    data = rng.normal(size=(50, 3))
    model = DensityModel(Sample(data), KernelSpec(KernelFamily.GAUSSIAN, 3), 0.8)
    grid_axes = tuple(np.linspace(-2, 2, 5) for _ in range(3))
    grid = estimator.evaluate_grid(model, axes=grid_axes)
    with pytest.raises(ValueError, match="d <= 2"):
        morse_smale(model, grid)


# --- second-order steps against first-order references ---


def first_order_mean_shift_step(model, x):
    """The plain mean-shift step, the reference the Newton step must agree with."""
    s0, s1 = estimator._kernel_sums(model, x, 1)
    ok = s0 > 0
    return -model.bandwidth * s1[ok] / s0[ok, None], ok


def first_order_scms_step(model, x):
    """The mean-shift step projected on the trailing d - 1 Hessian
    eigenvectors, the reference the constrained Newton step must agree with."""
    s0, s1, s2 = estimator._kernel_sums(model, x, 2)
    lam, vecs = np.linalg.eigh(estimator._hessians(model, s0, s2))
    ok = ~(lam[:, -1] - lam[:, -2] < geometry._EIGEN_GAP_TOL)
    v = vecs[ok, :, :-1]
    shift = -model.bandwidth * s1[ok] / s0[ok, None]
    return np.einsum("aij,aj->ai", v, np.einsum("aji,aj->ai", v, shift)), ok


def four_clusters(rng, per=50, sd=0.6):
    corners = 2.5 * np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]])
    return np.concatenate([rng.normal(c, sd, size=(per, 2)) for c in corners])


def feature_bytes(model):
    """The bytes of the modes, ridge and Morse-Smale partition of ``model``."""
    modes = find_modes(model)
    ridge = scms(model, starts=model.sample.data[::5])
    part = morse_smale(model, estimator.evaluate_grid(model, resolution=16))
    return b"".join(np.ascontiguousarray(a).tobytes() for a in (
        modes.modes, modes.density, modes.assignments, modes.converged, ridge.points,
        ridge.projected_grad_norms, ridge.lambda2, ridge.converged, part.ascent_ids,
        part.descent_ids, part.cell_labels, part.modes, part.minima))


def test_carried_sums_change_no_byte(monkeypatch):
    # Mean shift's check pass hands its sums to the next step; the features
    # must keep every byte they have when each step forms its own sums.
    step, sums_at, carried = geometry._mean_shift_step, geometry._sums_at, []

    def counted(model, x, known):
        if known is not None and x.shape[0] > 1:
            carried.append(int(known[0].sum()))
        return sums_at(model, x, known)

    monkeypatch.setattr(geometry, "_sums_at", counted)
    for seed in range(40):
        sample = Sample(four_clusters(np.random.default_rng(seed)))
        model = DensityModel(sample, GAUSS2, bandwidth.rule_of_thumb(sample))
        with monkeypatch.context() as patch:
            patch.setattr(geometry, "_mean_shift_step",
                          lambda model, x, known=None: step(model, x, known)[:2])
            fresh = feature_bytes(model)
        assert feature_bytes(model) == fresh, f"seed {seed}"
    assert sum(carried) > 0  # the carry was taken


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2]),
       h=st.floats(0.3, 1.5), spread=st.floats(0.5, 4.0))
def test_mean_shift_steps_never_lower_the_density(seed, d, h, spread):
    rng = np.random.default_rng(seed)
    data = np.concatenate([rng.normal(-1.5, 0.7, size=(30, d)),
                           rng.normal(1.5, 1.0, size=(30, d))])
    model = DensityModel(Sample(data), KernelSpec(KernelFamily.GAUSSIAN, d), h)
    x = rng.normal(scale=spread, size=d)
    prev = estimator.density_at(model, x)
    for _ in range(12):
        x, _, _ = mean_shift(model, x, max_iter=1)
        cur = estimator.density_at(model, x)
        # neither a kept Newton step nor a mean-shift step lowers p_hat,
        # up to rounding
        assert cur >= prev * (1 - 1e-13)
        prev = cur


def test_newton_step_that_would_lower_the_density_is_refused():
    # between two points H < 0 and the Newton step is short, yet p_hat falls
    # at its end: the row takes the mean-shift step instead
    model = DensityModel(Sample(np.array([-0.54, 1.53])), GAUSS1, 1.0)
    x = np.array([0.16])
    hess = estimator.hessian_at(model, x)[0, 0]
    newton = x - estimator.gradient_at(model, x) / hess
    assert hess < 0 and abs(newton[0] - x[0]) <= 1.0 / 4
    assert estimator.density_at(model, newton) < estimator.density_at(model, x)
    step, _, _ = mean_shift(model, x, max_iter=1)
    reference, _ = first_order_mean_shift_step(model, x[None])
    np.testing.assert_array_equal(step, x + reference[0])
    assert estimator.density_at(model, step) >= estimator.density_at(model, x)


@pytest.mark.parametrize("d", [1, 2])
def test_find_modes_matches_the_first_order_reference(monkeypatch, rng, d):
    data = (bimodal_sample(rng, n=300) if d == 1 else four_clusters(rng))
    model = DensityModel(Sample(data), KernelSpec(KernelFamily.GAUSSIAN, d), 0.7)
    modes = find_modes(model)
    _, _, _, iters = geometry._ascend(model, estimator._query_matrix(model, data),
                                      geometry._mean_shift_step, 1e-8, 500)
    monkeypatch.setattr(geometry, "_mean_shift_step", first_order_mean_shift_step)
    reference = find_modes(model)
    _, _, _, reference_iters = geometry._ascend(
        model, estimator._query_matrix(model, data), first_order_mean_shift_step, 1e-8, 500)
    assert modes.converged.all() and reference.converged.all()
    assert modes.n_modes == reference.n_modes == 2 ** d
    # the same modes, within 1e-6 h, and the same basins
    np.testing.assert_allclose(modes.modes, reference.modes, rtol=0, atol=1e-6 * 0.7)
    np.testing.assert_array_equal(modes.assignments, reference.assignments)
    assert np.median(iters) < np.median(reference_iters) / 2


def _ridge_cases():
    rng = np.random.default_rng(1009)  # criterion 9's circle
    theta = rng.uniform(0, 2 * np.pi, 800)
    circle = 3.0 * np.column_stack([np.cos(theta), np.sin(theta)])
    circle += rng.normal(0, 0.15, size=(800, 2))
    rng = np.random.default_rng(17)
    theta = rng.uniform(0, 2 * np.pi, 300)
    ring3 = np.column_stack([3.0 * np.cos(theta), 3.0 * np.sin(theta), np.zeros(300)])
    ring3 += rng.normal(0, 0.2, size=(300, 3))
    # (data, h, the largest share of the first-order row-iterations the
    # Newton steps may take): SCMS converges in a few steps on the circles,
    # but in hundreds between the clusters, where V turns
    return [pytest.param(circle, 0.7, 0.6, id="circle"),
            pytest.param(four_clusters(np.random.default_rng(5)), 0.6, 0.3, id="four-clusters"),
            pytest.param(ring3, 0.7, 0.6, id="circle-in-3d")]


@pytest.mark.parametrize("data,h,share", _ridge_cases())
def test_scms_matches_the_first_order_reference(monkeypatch, data, h, share):
    d = data.shape[1]
    model = DensityModel(Sample(data), KernelSpec(KernelFamily.GAUSSIAN, d), h)
    starts = estimator._query_matrix(model, data)
    ridge = scms(model)
    iters = geometry._ascend(model, starts, geometry._scms_step, 1e-7, 500)[3]
    grad_tol = 1e-6 * estimator.density(model, data).max() / h
    assert ridge.converged.all()
    assert ridge.points.shape[0] == data.shape[0]
    assert np.all(ridge.lambda2 < 0)
    assert np.all(ridge.projected_grad_norms <= grad_tol)
    monkeypatch.setattr(geometry, "_scms_step", first_order_scms_step)
    reference = scms(model)
    reference_iters = geometry._ascend(model, starts, first_order_scms_step, 1e-7, 500)[3]
    assert reference.points.shape[0] > 0.9 * data.shape[0]
    # every reference ridge point lies within 0.2 h of a new one
    gaps = np.linalg.norm(reference.points[:, None] - ridge.points[None], axis=2).min(axis=1)
    assert gaps.max() <= 0.2 * h
    assert iters.sum() <= share * reference_iters.sum()


def test_long_constrained_newton_steps_are_cut_to_a_quarter_bandwidth():
    # between the clusters J is near 0 and many Newton steps are longer than
    # h / 4: each is cut back to h / 4 along its own direction, which goes
    # the way of the SCMS step
    h = 0.6
    data = four_clusters(np.random.default_rng(5))
    model = DensityModel(Sample(data), KernelSpec(KernelFamily.GAUSSIAN, 2), h)
    shift, ok = geometry._scms_step(model, data)
    reference, reference_ok = first_order_scms_step(model, data)
    np.testing.assert_array_equal(ok, reference_ok)
    newton = ~np.isclose(shift, reference, rtol=1e-9, atol=0).all(axis=1)
    length = np.linalg.norm(shift[newton], axis=1)
    assert np.all(length <= h / 4 * (1 + 1e-12))
    assert np.isclose(length, h / 4, rtol=1e-12, atol=0).sum() > data.shape[0] / 4
    assert np.all(np.vecdot(shift[newton], reference[newton]) > 0)


def test_scms_leaves_a_repelling_zero_in_few_iterations():
    # starts that land near a zero of V^T grad p_hat where J + J^T > 0 creep
    # away from it for about 280 SCMS iterations; the reversed step leaves
    # it in a few
    h = 0.6
    data = four_clusters(np.random.default_rng(4))
    model = DensityModel(Sample(data), KernelSpec(KernelFamily.GAUSSIAN, 2), h)
    _, converged, _, iters = geometry._ascend(
        model, estimator._query_matrix(model, data), geometry._scms_step, 1e-7, 500)
    assert converged.all() and iters.max() <= 100


# --- merging destinations ---


def merge_points_pairwise(points, densities, radius):
    """The merge point by point: each point, highest density first, joins the
    earliest representative within ``radius`` or becomes one."""
    order = np.argsort(-densities, kind="stable")
    reps = []
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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), d=st.integers(1, 3),
       levels=st.integers(1, 6), radius=st.sampled_from(["tie", 0.45, -1.0]))
def test_merge_points_matches_the_pairwise_merge(seed, m, d, levels, radius):
    rng = np.random.default_rng(seed)
    # points on a coarse lattice: many equal distances; few density levels:
    # many equal densities
    points = rng.integers(-3, 4, size=(m, d)) * 0.3 + rng.normal(scale=1e-9, size=(m, d))
    densities = rng.integers(0, levels, size=m) / 7.0
    if radius == "tie":  # the distance of one point to the first representative
        first = np.argsort(-densities, kind="stable")[0]
        radius = float(np.linalg.norm(points[rng.integers(m)] - points[first]))
    for got, ref in zip(geometry._merge_points(points, densities, radius),
                        merge_points_pairwise(points, densities, radius), strict=True):
        np.testing.assert_array_equal(got, ref)
