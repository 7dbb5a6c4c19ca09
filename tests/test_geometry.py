import numpy as np
import pytest

from kdeforge import estimator, geometry
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
