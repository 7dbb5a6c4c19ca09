import math

import numpy as np
import pytest
from scipy import integrate, stats

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
                        lambda sample, h_grid: np.zeros(h_grid.size))
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
    # a value the method would not read is refused, not dropped
    with pytest.raises(ValueError, match="'fixed' method, not 'rot'"):
        BandwidthSelector(SelectorMethod.RULE_OF_THUMB, fixed_h=0.3)
    with pytest.raises(ValueError, match="'lscv' method, not 'plugin'"):
        BandwidthSelector(SelectorMethod.AMISE_PLUGIN, lscv_grid=[0.2, 0.5])
