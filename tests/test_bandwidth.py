import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.spatial.distance import pdist

from kdeforge import bandwidth, estimator
from kdeforge.bandwidth import (
    BandwidthSelector,
    DegenerateSampleError,
    SelectorMethod,
    amise_optimal_h,
    amise_plugin,
    default_lscv_grid,
    laplacian_squared_integral,
    lscv,
    rule_of_thumb,
)
from kdeforge.estimator import DensityModel, Sample
from kdeforge.kernels import KernelFamily, KernelSpec, UnsupportedDerivativeError

GAUSS1 = KernelSpec(KernelFamily.GAUSSIAN, 1)


def rot_oracle_1d(data):
    """Independent rule-of-thumb implementation via scipy summaries."""
    sd = np.std(data, ddof=1)
    iqr = stats.iqr(data)
    scale = min(sd, iqr / 1.34) if iqr > 0 else sd
    return 1.06 * scale * len(data) ** (-0.2)


def test_rule_of_thumb_matches_oracle(rng):
    data = rng.normal(size=500)
    assert rule_of_thumb(Sample(data)) == pytest.approx(rot_oracle_1d(data), rel=1e-12)


def test_rule_of_thumb_unit_normal_scale():
    # equispaced standard-normal quantiles: sd close to 1, so h should be
    # close to 1.06 * min(1, 1.349/1.34) * n^(-1/5)
    n = 1000
    data = stats.norm.ppf((np.arange(n) + 0.5) / n)
    h = rule_of_thumb(Sample(data))
    assert h == pytest.approx(1.06 * n ** (-0.2), rel=0.02)


def test_rule_of_thumb_scaling_equivariance(rng):
    data = rng.normal(size=200)
    h1 = rule_of_thumb(Sample(data))
    assert rule_of_thumb(Sample(3.0 * data)) == pytest.approx(3.0 * h1, rel=1e-12)
    assert rule_of_thumb(Sample(data + 7.0)) == pytest.approx(h1, rel=1e-12)


def test_rule_of_thumb_multivariate(rng):
    data = rng.normal(size=(400, 2))
    h = rule_of_thumb(Sample(data))
    sds = np.std(data, axis=0, ddof=1)
    assert h == pytest.approx(np.mean(sds) * 400 ** (-1.0 / 6.0), rel=1e-12)


def test_rule_of_thumb_degenerate():
    with pytest.raises(DegenerateSampleError):
        rule_of_thumb(Sample(np.zeros(10)))
    with pytest.raises(DegenerateSampleError):
        rule_of_thumb(Sample(np.array([1.0])))


def test_rule_of_thumb_zero_iqr_falls_back_to_sd():
    # more than half the mass at one point: IQR = 0 but sd > 0
    data = np.concatenate([np.zeros(30), np.array([1.0, 2.0, 3.0])])
    h = rule_of_thumb(Sample(data))
    assert h == pytest.approx(1.06 * np.std(data, ddof=1) * len(data) ** (-0.2))


def lscv_score_oracle(data, h):
    """Direct CV(h) for d=1 Gaussian: quadrature + explicit leave-one-out."""
    n = len(data)
    model = DensityModel(Sample(data), GAUSS1, h)
    int_p2, _ = integrate.quad(
        lambda x: estimator.density_at(model, [x]) ** 2,
        data.min() - 10 * h, data.max() + 10 * h, limit=400)
    loo = 0.0
    for i in range(n):
        rest = np.delete(data, i)
        loo += estimator.density_at(DensityModel(Sample(rest), GAUSS1, h), [data[i]])
    return int_p2 - 2.0 * loo / n


def test_lscv_scores_match_oracle(rng):
    data = rng.normal(size=40)
    grid = np.array([0.2, 0.5, 1.0])
    result = lscv(Sample(data), GAUSS1, grid)
    for h, score in zip(result.grid, result.scores):
        assert score == pytest.approx(lscv_score_oracle(data, h), abs=1e-7)


def test_lscv_picks_argmin(rng):
    data = rng.normal(size=200)
    grid = default_lscv_grid(Sample(data))
    assert grid.size == 30
    result = lscv(Sample(data), GAUSS1, grid)
    assert result.h == grid[np.argmin(result.scores)]
    assert grid[0] == pytest.approx(0.1 * rule_of_thumb(Sample(data)))
    assert grid[-1] == pytest.approx(3.0 * rule_of_thumb(Sample(data)))


def test_lscv_tie_breaks_to_smaller_h(monkeypatch, rng):
    data = rng.normal(size=50)
    monkeypatch.setattr(bandwidth, "_lscv_scores_gaussian",
                        lambda sample, h_grid: (np.zeros(h_grid.size),
                                                np.zeros(h_grid.size)))
    result = lscv(Sample(data), GAUSS1, np.array([0.3, 0.6, 0.9]))
    assert result.h == 0.3


def test_lscv_spherical_runs(rng):
    data = rng.normal(size=150)
    grid = np.geomspace(0.2, 1.5, 8)
    result = lscv(Sample(data), KernelSpec(KernelFamily.SPHERICAL, 1), grid)
    assert result.h in grid
    assert np.all(np.isfinite(result.scores))


def test_lscv_validation(rng):
    with pytest.raises(ValueError, match="empty"):
        lscv(Sample(np.array([0.0, 1.0, 2.0])), GAUSS1, [])
    with pytest.raises(ValueError, match="n >= 3"):
        lscv(Sample(np.array([0.0, 1.0])), GAUSS1, [0.5])


def test_lscv_recovers_reasonable_h_normal_data(rng):
    # Monte Carlo sanity: for normal data LSCV should usually land within
    # [0.5, 2] x rule of thumb
    hits = 0
    reps = 50
    for _ in range(reps):
        data = rng.normal(size=2000)
        sample = Sample(data)
        h0 = rule_of_thumb(sample)
        h = lscv(sample, GAUSS1, default_lscv_grid(sample)).h
        hits += 0.5 * h0 <= h <= 2.0 * h0
    assert hits >= 0.9 * reps


def pdist_lscv_scores(data, h_grid):
    """Exact Gaussian CV scores from the full pdist pair vector: the
    reference the pair walk and the binned screen must agree with."""
    data = np.asarray(data, dtype=float).reshape(len(data), -1)
    n, d = data.shape
    sq = pdist(data, metric="sqeuclidean")
    e = np.empty_like(sq)
    scores = np.empty(h_grid.size)
    for idx, h in enumerate(h_grid):
        conv_norm = (4.0 * np.pi * h * h) ** (d / 2.0)
        np.divide(sq, -4.0 * h * h, out=e)
        np.exp(e, out=e)
        int_p2 = (n + 2.0 * np.sum(e)) / (n * n * conv_norm)
        kern_norm = (2.0 * np.pi) ** (d / 2.0) * h**d
        np.square(e, out=e)
        loo = 2.0 * np.sum(e) / (n * (n - 1) * kern_norm)
        scores[idx] = int_p2 - 2.0 * loo
    return scores


def binning_bound(n, delta, h):
    """beta = delta^2 / h^3 (1 / (8 sqrt(4 pi)) + n / (2 (n-1) sqrt(2 pi))),
    the bound on the binning error alone (no rounding term)."""
    return delta**2 / h**3 * (1.0 / (8.0 * math.sqrt(4.0 * math.pi))
                              + n / (2.0 * (n - 1) * math.sqrt(2.0 * math.pi)))


def _samples(rng, kind, n):
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "t2":
        return rng.standard_t(2, size=n)
    if kind == "ties":  # rounded to 0.1: many exact ties
        return np.round(rng.normal(size=n), 1)
    # two tight clusters far apart: most bins empty, the range set by the gap
    return np.concatenate([rng.normal(-40.0, 1.0, n // 2),
                           rng.normal(40.0, 1.0, n - n // 2)])


@pytest.mark.parametrize("kind", ["normal", "t2", "ties", "clusters"])
@pytest.mark.parametrize("n", [182, 600])
@pytest.mark.parametrize("bins", [2**14, 2**16])
def test_binned_error_is_within_the_binning_bound(rng, kind, n, bins):
    x = _samples(rng, kind, n)
    h = np.geomspace(0.02, 3.0, 25) * np.std(x)
    lo = float(x.min())
    delta = (float(x.max()) - lo) / (bins - 1)
    binned, bounds = bandwidth._binned_gaussian(x, h, lo, delta, bins)
    beta = binning_bound(n, delta, h)
    err = np.abs(binned - pdist_lscv_scores(x, h))
    assert np.all(err <= beta)
    assert np.all(bounds >= beta)  # the rounding term only adds


def test_exact_binned_crossover_is_at_lscv_bins_pairs(rng):
    # n = 181 has 16 290 pairs, at most 2^14: exact; n = 182 has 16 471: binned
    grid = np.geomspace(0.05, 2.0, 10)
    assert 181 * 180 // 2 <= bandwidth._LSCV_BINS < 182 * 181 // 2
    exact = lscv(Sample(rng.normal(size=181)), GAUSS1, grid)
    assert np.all(exact.bounds == 0.0)
    binned = lscv(Sample(rng.normal(size=182)), GAUSS1, grid)
    assert np.any(binned.bounds > 0.0)


@pytest.mark.parametrize("first_bins", [2**14, 2**6])
def test_screened_h_is_the_exact_argmin(monkeypatch, rng, first_bins):
    # 2^6 first bins make the binned argmin often wrong, so the answer rests
    # on the bounds, the refinements and the exact scoring of what is left;
    # samples from n = 12 (66 pairs) stop refining early, at few bins
    monkeypatch.setattr(bandwidth, "_LSCV_BINS", first_bins)
    kinds = ["normal", "t2", "ties", "clusters"]
    smallest = math.isqrt(2 * first_bins) + 1  # the first binned n
    screened = 0
    for trial in range(200):
        x = _samples(rng, kinds[trial % 4], int(rng.integers(smallest, 420)))
        h0 = rule_of_thumb(Sample(x))
        grid = np.geomspace(h0 * rng.uniform(0.05, 0.5), h0 * rng.uniform(1.2, 4.0),
                            int(rng.integers(2, 31)))
        result = lscv(Sample(x), GAUSS1, grid)
        reference = pdist_lscv_scores(x, grid)
        assert result.h == grid[np.argmin(reference)], trial
        assert np.all(np.abs(result.scores - reference) <= result.bounds
                      + 1e-12 * np.abs(reference))
        screened += result.bounds[np.argmin(result.scores)] > 0
    assert screened >= 100  # the screen alone decided most of them


@pytest.mark.parametrize("data", [np.full(400, 2.5),
                                  np.linspace(-1e300, 1e300, 400),
                                  np.array([0.0, 1.0, 5.0])],
                         ids=["constant", "range-1e300", "n=3"])
def test_unbinnable_samples_take_the_exact_path_unwarned(data):
    grid = np.geomspace(0.1, 2.0, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = lscv(Sample(data), GAUSS1, grid)
    assert np.all(result.bounds == 0.0)
    np.testing.assert_allclose(result.scores, pdist_lscv_scores(data, grid),
                               rtol=1e-12)


def test_pair_walk_visits_each_pair_once_with_pdist_bits(monkeypatch, rng):
    # 3 rows a block at n = 20 (the budget, under n // 4): six full blocks
    # and a lone row
    monkeypatch.setattr(bandwidth, "_PAIR_BLOCK", 60)
    for d in (1, 2):
        data = np.round(rng.normal(size=(20, d)), 1)  # ties: zero distances
        walked = np.concatenate([sq[np.isfinite(sq)]
                                 for sq in bandwidth._pair_blocks(data)])
        np.testing.assert_array_equal(walked, pdist(data, metric="sqeuclidean"))
        grid = np.geomspace(0.05, 2.0, 7)
        np.testing.assert_allclose(bandwidth._exact_gaussian(data, grid),
                                   pdist_lscv_scores(data, grid), rtol=1e-13)


@pytest.mark.parametrize("d", [1, 2])
def test_spherical_pair_counts_match_pdist(monkeypatch, rng, d):
    monkeypatch.setattr(bandwidth, "_PAIR_BLOCK", 500)  # several blocks
    data = np.round(rng.normal(size=(150, d)), 2)  # ties: distances equal h
    dist = pdist(data)
    distinct = np.unique(dist)
    grid = distinct[[0, 5, distinct.size // 4, distinct.size // 2, -1]]
    np.testing.assert_array_equal(bandwidth._pairs_within(data, grid),
                                  [np.count_nonzero(dist <= h) for h in grid])


def test_lscv_memory_is_bounded():
    # the pair vector and one exp array per candidate took about 100 MB each
    # at n = 5000; the screen holds its 2^14-bin arrays and the pair walk
    # about three 2 MB blocks
    sample = Sample(np.random.default_rng(5).normal(size=5000))
    grid = default_lscv_grid(sample)
    lscv(sample, GAUSS1, grid)  # numpy.fft's first-call set-up
    tracemalloc.start()
    try:
        lscv(sample, GAUSS1, grid)
        peak = tracemalloc.get_traced_memory()[1]
        bandwidth._exact_gaussian(sample.data, grid[:2])
        walk_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert walk_peak < 16e6


def test_lscv_leaves_scipy_spatial_unloaded(tmp_path):
    src = os.path.dirname(os.path.dirname(bandwidth.__file__))
    path = tmp_path / "x.csv"
    path.write_text("\n".join(repr(float(v)) for v in
                              np.random.default_rng(3).normal(size=400)) + "\n")
    probe = ("import sys; from kdeforge import cli; "
             f"codes = [cli.main(['bandwidth', '--input', {str(path)!r}, "
             "'--bandwidth-method', 'lscv', '--kernel', k]) "
             "for k in ('gaussian', 'spherical')]; "
             "print(codes, 'scipy.spatial' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip().splitlines()[-1] == "[0, 0] False"


def test_curvature_functional_normal_reference():
    # the KDE of stratified normal quantiles approximates N(0, 1 + h^2), and
    # int (p'')^2 for N(0, s^2) is 3 / (8 sqrt(pi) s^5)
    n = 4000
    h = 0.15
    data = stats.norm.ppf((np.arange(n) + 0.5) / n)
    model = DensityModel(Sample(data), GAUSS1, h)
    truth = 3.0 / (8.0 * math.sqrt(math.pi) * (1.0 + h * h) ** 2.5)
    assert laplacian_squared_integral(model) == pytest.approx(truth, rel=0.01)


def matrix_curvature(model, resolution=512):
    """The curvature functional from the (n, m) Laplacian matrix on the same
    quadrature grid, summed over the sample."""
    res = resolution if model.dim == 1 else min(resolution, 128)
    axes = estimator.default_axes(model, resolution=res, padding=4.0)
    lap = estimator.kernel_laplacian_matrix(model, estimator.grid_points(axes))
    lap = lap.sum(axis=0) / (model.n * model.bandwidth ** (model.dim + 2))
    sq = np.square(lap).reshape(tuple(ax.size for ax in axes))
    for ax in reversed(axes):
        sq = np.trapezoid(sq, ax, axis=-1)
    return float(sq)


@pytest.mark.parametrize("d,n,h", [(1, 1, 0.5), (1, 3000, 0.2), (2, 1, 0.5),
                                   (2, 800, 0.4)])
def test_curvature_factor_path_matches_laplacian_matrix(rng, d, n, h):
    model = DensityModel(Sample(rng.normal(size=(n, d))),
                         KernelSpec(KernelFamily.GAUSSIAN, d), h)
    assert laplacian_squared_integral(model) == pytest.approx(
        matrix_curvature(model), rel=1e-12)


def test_curvature_requires_the_gaussian_kernel(rng):
    model = DensityModel(Sample(rng.normal(size=50)),
                         KernelSpec(KernelFamily.SPHERICAL, 1), 0.5)
    with pytest.raises(UnsupportedDerivativeError):
        laplacian_squared_integral(model)


def test_amise_optimal_h_normal_reference():
    # with the true normal curvature the AMISE bandwidth reduces to
    # (4/3)^(1/5) sigma n^(-1/5) = 1.0592 * n^(-1/5)
    truth = 3.0 / (8.0 * math.sqrt(math.pi))
    h = amise_optimal_h(GAUSS1, truth, 100)
    assert h == pytest.approx((4.0 / 3.0) ** 0.2 * 100 ** (-0.2), rel=1e-12)
    assert h == pytest.approx(0.4219, abs=2e-3)


def test_amise_optimal_h_is_criterion_minimizer(rng):
    # the returned h must minimize (h^4/4) sigma_k^4 R + mu_k/(n h)
    from kdeforge.kernels import constants

    c = constants(GAUSS1)
    curvature, n = 0.7, 500
    h_star = amise_optimal_h(GAUSS1, curvature, n)

    def criterion(h):
        return 0.25 * h**4 * c["sigma_k2"] ** 2 * curvature + c["mu_k"] / (n * h)

    for h in h_star * np.array([0.8, 0.9, 1.1, 1.25]):
        assert criterion(h_star) < criterion(h)


def test_amise_optimal_h_rejects_zero_curvature():
    with pytest.raises(DegenerateSampleError):
        amise_optimal_h(GAUSS1, 0.0, 100)


def test_amise_plugin_near_normal_truth(rng):
    data = rng.normal(size=3000)
    h = amise_plugin(Sample(data), GAUSS1)
    assert h == pytest.approx(1.0592 * 3000 ** (-0.2), rel=0.15)


def test_selector_dispatch(rng):
    data = rng.normal(size=300)
    sample = Sample(data)
    assert BandwidthSelector(SelectorMethod.FIXED, fixed_h=0.4).select(
        sample, GAUSS1) == 0.4
    assert BandwidthSelector(SelectorMethod.RULE_OF_THUMB).select(
        sample, GAUSS1) == pytest.approx(rule_of_thumb(sample))
    assert BandwidthSelector(SelectorMethod.AMISE_PLUGIN).select(
        sample, GAUSS1) == pytest.approx(amise_plugin(sample, GAUSS1))
    grid = np.geomspace(0.1, 1.0, 10)
    assert BandwidthSelector(SelectorMethod.LSCV, lscv_grid=grid).select(
        sample, GAUSS1) == lscv(sample, GAUSS1, grid).h


def test_selector_validation():
    with pytest.raises(ValueError):
        BandwidthSelector(SelectorMethod.FIXED)
    with pytest.raises(ValueError):
        BandwidthSelector(SelectorMethod.FIXED, fixed_h=-1.0)
    with pytest.raises(ValueError):
        BandwidthSelector(SelectorMethod.LSCV, lscv_grid=[0.5, 0.2])
    # an empty, non-finite or non-positive grid is refused before any data
    for grid in ([], [0.1, np.inf], [np.nan, 0.5], [-1.0, 0.5], [0.0, 0.5]):
        with pytest.raises(ValueError, match="LSCV"):
            BandwidthSelector(SelectorMethod.LSCV, lscv_grid=grid)
    # a value the method would not read is refused, not dropped
    with pytest.raises(ValueError, match="'fixed' method, not 'rot'"):
        BandwidthSelector(SelectorMethod.RULE_OF_THUMB, fixed_h=0.3)
    with pytest.raises(ValueError, match="'lscv' method, not 'plugin'"):
        BandwidthSelector(SelectorMethod.AMISE_PLUGIN, lscv_grid=[0.2, 0.5])
