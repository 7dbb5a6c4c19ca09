import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from kdeforge import distfunc, estimator, kernels
from kdeforge.distfunc import (
    SmoothedCDF,
    cdf_at,
    cdf_inverse,
    cdf_many,
    default_t_grid,
    roc_band,
    roc_curve,
)
from kdeforge.estimator import DensityModel, Sample
from kdeforge.inference import BootstrapPlan
from kdeforge.kernels import KernelFamily, KernelSpec

from conftest import assert_block_error_reaches_caller, on_each_worker_count

GAUSS1 = KernelSpec(KernelFamily.GAUSSIAN, 1)
SPHERE1 = KernelSpec(KernelFamily.SPHERICAL, 1)


def gauss_cdf(data, h):
    return SmoothedCDF(DensityModel(Sample(np.asarray(data, float)), GAUSS1, h))


def ramp_sum_cdf(data, h, kernel):
    """F_hat as a plain average of norm.cdf or ramp terms, independent of the
    library's engine."""
    def cdf(x):
        u = (np.asarray(x, float)[:, None] - np.asarray(data, float)[None, :]) / h
        terms = norm.cdf(u) if kernel is GAUSS1 else np.clip((u + 1.0) / 2.0, 0.0, 1.0)
        return terms.mean(axis=1)
    return cdf


def bisect_inverse(cdf, q, lo, hi):
    """Per-level bisection: the smallest x in [lo, hi] with cdf(x) >= q, to the
    spacing of doubles."""
    lo, hi = np.full(q.shape, float(lo)), np.full(q.shape, float(hi))
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < q
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return hi


# --- smoothed CDF ---


def test_cdf_single_point_closed_form():
    scdf = gauss_cdf([0.0], 1.0)
    assert cdf_at(scdf, 0.0) == pytest.approx(0.5)
    assert cdf_at(scdf, 1.0) == pytest.approx(norm.cdf(1.0))


def test_cdf_matches_density_quadrature(rng):
    data = rng.normal(size=60)
    h = 0.4
    scdf = gauss_cdf(data, h)
    model = scdf.model
    lo = data.min() - 10 * h
    for x in np.linspace(-2, 2, 7):
        quad, _ = integrate.quad(lambda s: estimator.density_at(model, [s]),
                                 lo, x, limit=400)
        assert cdf_at(scdf, x) == pytest.approx(quad, abs=1e-8)


def test_cdf_spherical_ramp():
    scdf = SmoothedCDF(DensityModel(Sample(np.array([0.0])), SPHERE1, 1.0))
    assert cdf_at(scdf, -1.0) == 0.0
    assert cdf_at(scdf, 0.0) == pytest.approx(0.5)
    assert cdf_at(scdf, 0.5) == pytest.approx(0.75)
    assert cdf_at(scdf, 1.0) == 1.0
    # oracle: integral of the boxcar density
    model = scdf.model
    for x in np.linspace(-1.2, 1.2, 9):
        quad, _ = integrate.quad(lambda s: estimator.density_at(model, [s]),
                                 -2.0, x, limit=200,
                                 points=[p for p in (-1.0, 1.0) if p < x])
        assert cdf_at(scdf, x) == pytest.approx(quad, abs=1e-9)


def test_cdf_monotone_and_limits(rng):
    scdf = gauss_cdf(rng.normal(size=100), 0.3)
    xs = np.linspace(*scdf.support, 200)
    vals = cdf_many(scdf, xs)
    assert np.all(np.diff(vals) >= 0)
    assert vals[0] == pytest.approx(0.0, abs=1e-9)
    assert vals[-1] == pytest.approx(1.0, abs=1e-9)


def test_cdf_requires_univariate(rng):
    model = DensityModel(Sample(rng.normal(size=(20, 2))),
                         KernelSpec(KernelFamily.GAUSSIAN, 2), 0.5)
    with pytest.raises(ValueError, match="d = 1"):
        SmoothedCDF(model)


def test_cdf_inverse_roundtrip(rng):
    scdf = gauss_cdf(rng.normal(size=80), 0.4)
    for q in (0.05, 0.25, 0.5, 0.9, 0.99):
        x = cdf_inverse(scdf, q)
        assert cdf_at(scdf, x) == pytest.approx(q, abs=1e-9)


def test_cdf_inverse_validation_and_clamping(rng):
    scdf = gauss_cdf(rng.normal(size=50), 0.3)
    with pytest.raises(ValueError):
        cdf_inverse(scdf, 0.0)
    with pytest.raises(ValueError):
        cdf_inverse(scdf, 1.0)
    lo, hi = scdf.support
    assert cdf_inverse(scdf, 1e-300) == lo  # below the resolvable range
    assert lo <= cdf_inverse(scdf, 1.0 - 1e-16) <= hi


@pytest.mark.parametrize("kernel", [GAUSS1, SPHERE1], ids=["gaussian", "spherical"])
@pytest.mark.parametrize("data", [[0.3], "normal", [-1.0, 0.0, 1.0, 10.0, 11.0]],
                         ids=["n1", "normal", "gap"])
def test_cdf_inverse_array_matches_bisection(rng, kernel, data):
    # the gap sample leaves F_hat flat at 3/5 on [2, 9] for the spherical
    # kernel (h = 1), where p_hat = 0
    data = rng.normal(size=80) if data == "normal" else np.array(data)
    scdf = SmoothedCDF(DensityModel(Sample(data), kernel, 1.0))
    lo, hi = scdf.support
    q = np.concatenate([np.linspace(0.01, 0.99, 99), [0.5999, 0.6]])
    x = cdf_inverse(scdf, q)
    assert x.shape == q.shape and np.all(np.isfinite(x))
    ref = bisect_inverse(ramp_sum_cdf(data, 1.0, kernel), q, lo, hi)
    on_flat = q == 0.6  # any x on the flat is a root
    np.testing.assert_allclose(x[~on_flat], ref[~on_flat], rtol=0, atol=1e-12)
    np.testing.assert_allclose([cdf_at(scdf, v) for v in x], q, rtol=0, atol=1e-12)
    if kernel is SPHERE1 and data.size == 5:
        # q = 0.5999 starts from np.interp on the flat, where p_hat = 0
        xs = np.linspace(lo, hi, distfunc._INVERSION_POINTS)
        start = np.interp(0.5999, cdf_many(scdf, xs), xs)
        assert estimator.density_at(scdf.model, [start]) == 0.0
    # the tail cases of the scalar test, in an array; the spherical F_hat is 0
    # below min - h, so only the Gaussian one is above 1e-300 at the edge
    tails = cdf_inverse(scdf, np.array([1e-300, 1.0 - 1e-16]))
    assert np.all((lo <= tails) & (tails <= hi))
    assert tails[0] == (lo if kernel is GAUSS1 else pytest.approx(data.min() - 1.0))
    assert cdf_inverse(scdf, 0.25) == pytest.approx(x[24], abs=1e-12)


def test_cdf_inverse_single_point_closed_form():
    scdf = gauss_cdf([0.3], 0.7)
    q = np.array([[0.05, 0.5], [0.8, 0.999]])
    np.testing.assert_allclose(cdf_inverse(scdf, q), 0.3 + 0.7 * norm.ppf(q),
                               rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        cdf_inverse(scdf, np.array([0.5, 1.0]))


@pytest.mark.parametrize("kernel", [GAUSS1, SPHERE1])
@pytest.mark.parametrize("n,m", [(7, 1), (7, 19), (7, 20), (1, 130), (40, 33)])
def test_cdf_terms_match_one_shot_reference(monkeypatch, rng, kernel, n, m):
    # With 64-element blocks, n = 7 gives 9 queries a block: m = 19 ends in a
    # lone query that joins the block before it, m = 20 in a ragged pair.
    data = rng.normal(size=n)
    xs = rng.normal(scale=1.5, size=m)
    model = DensityModel(Sample(data), kernel, 0.8)
    ref = kernels.integrated(kernel, (xs[None, :] - data[:, None]) / 0.8)
    for block in (estimator._BLOCK_ELEMENTS, 64):
        monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", block)
        np.testing.assert_array_equal(distfunc._cdf_terms(model, xs), ref)
        # the blocked mean sums each column as the one-shot matrix does
        np.testing.assert_array_equal(distfunc._cdf_values(model, xs), ref.mean(axis=0))


@pytest.mark.parametrize("kernel", [GAUSS1, SPHERE1])
def test_cdf_jobs_give_the_same_bits_on_any_number_of_workers(monkeypatch, rng,
                                                              kernel):
    # 6 n values a budget: on 3 workers, 2-query slices of the 33 queries and
    # 2-row slices of the 41 sample rows, each ending in a lone item that
    # joins the slice before it
    model = DensityModel(Sample(rng.normal(size=41)), kernel, 0.8)
    xs = rng.normal(scale=1.5, size=33)
    monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", 6 * 41)
    first, *rest = on_each_worker_count(
        monkeypatch, lambda: (distfunc._cdf_terms(model, xs),
                              distfunc._cdf_values(model, xs)))
    for other in rest:
        for got, ref in zip(other, first):
            np.testing.assert_array_equal(got, ref)
    np.testing.assert_array_equal(first[1], first[0].mean(axis=0))


@pytest.mark.parametrize("job", ["_cdf_terms", "_cdf_values"])
def test_cdf_block_errors_reach_the_caller(monkeypatch, rng, job):
    model = DensityModel(Sample(rng.normal(size=41)), GAUSS1, 0.8)
    xs = rng.normal(size=33)
    monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", 6 * 41)
    assert_block_error_reaches_caller(monkeypatch, distfunc, "integrated",
                                      lambda: getattr(distfunc, job)(model, xs))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cdf_refuses_non_finite_queries(rng, bad):
    # as density does: a NaN query gave NaN, and +/-inf gave 1.0 and 0.0
    scdf = SmoothedCDF(DensityModel(Sample(rng.normal(size=50)), GAUSS1, 0.4))
    for query in (lambda: cdf_at(scdf, bad), lambda: cdf_many(scdf, [0.0, bad])):
        with pytest.raises(ValueError, match="query point must be finite"):
            query()


@pytest.mark.parametrize("kernel", [GAUSS1, SPHERE1])
def test_cdf_matches_pairwise_reference(rng, kernel):
    data = rng.normal(size=20_000)
    xs = np.linspace(-4.0, 4.0, 64)
    scdf = SmoothedCDF(DensityModel(Sample(data), kernel, 0.3))
    # each row of this (m, n) reference is contiguous, so numpy sums it pairwise
    ref = kernels.integrated(kernel, (xs[:, None] - data[None, :]) / 0.3).mean(axis=1)
    np.testing.assert_allclose(cdf_many(scdf, xs), ref, rtol=0.0, atol=1e-13)
    # a single query sums its (n, 1) column pairwise too
    for j in (0, 20, 41, 63):
        assert cdf_at(scdf, xs[j]) == ref[j]


def test_cdf_close_to_ecdf(rng):
    data = rng.normal(size=5000)
    h = 5000 ** (-1.0 / 3.0)
    scdf = gauss_cdf(data, h)
    xs = np.linspace(-3, 3, 241)
    ecdf = np.searchsorted(np.sort(data), xs, side="right") / data.size
    assert np.max(np.abs(cdf_many(scdf, xs) - ecdf)) < 0.02


# --- ROC curve ---


def test_roc_identical_populations_is_diagonal(rng):
    data = rng.normal(size=2000)
    h = 2000 ** (-0.2)
    sample = Sample(data)
    roc = roc_curve(sample, sample, GAUSS1, h, h)
    np.testing.assert_allclose(roc.values, roc.t, atol=1e-9)


def test_roc_shifted_normal_oracle(rng):
    # truth: healthy N(0,1), diseased N(1,1) gives
    # ROC(t) = 1 - Phi(Phi^{-1}(1-t) - 1)
    healthy = Sample(rng.normal(0.0, 1.0, 3000))
    diseased = Sample(rng.normal(1.0, 1.0, 3000))
    h = 3000 ** (-0.2) * 0.5
    roc = roc_curve(healthy, diseased, GAUSS1, h, h)
    truth = 1.0 - norm.cdf(norm.ppf(1.0 - roc.t[1:-1]) - 1.0)
    assert np.max(np.abs(roc.values[1:-1] - truth)) < 0.05


def test_roc_endpoints_and_monotonicity(rng):
    healthy = Sample(rng.normal(0.0, 1.0, 400))
    diseased = Sample(rng.normal(1.5, 1.0, 400))
    roc = roc_curve(healthy, diseased, GAUSS1, 0.3, 0.3)
    assert roc.values[0] == 0.0
    assert roc.values[-1] == 1.0
    assert np.all(np.diff(roc.values) >= -1e-9)
    assert np.all((roc.values >= 0) & (roc.values <= 1))
    assert roc.method == "smoothed"


@pytest.mark.parametrize("kernel", [GAUSS1, SPHERE1], ids=["gaussian", "spherical"])
def test_roc_curve_matches_bisection_and_band_center(rng, kernel):
    healthy, diseased = rng.normal(0.0, 1.0, 300), rng.normal(1.5, 1.2, 250)
    hf, hg = 0.3, 0.4
    t = default_t_grid(256)
    roc = roc_curve(Sample(healthy), Sample(diseased), kernel, hf, hg, t)
    lo = min(healthy.min() - 10 * hf, diseased.min() - 10 * hg)
    hi = max(healthy.max() + 10 * hf, diseased.max() + 10 * hg)
    x = bisect_inverse(ramp_sum_cdf(healthy, hf, kernel), 1.0 - t[1:-1], lo, hi)
    ref = np.concatenate([[0.0], 1.0 - ramp_sum_cdf(diseased, hg, kernel)(x), [1.0]])
    np.testing.assert_allclose(roc.values, ref, rtol=0, atol=1e-10)
    band = roc_band(Sample(healthy), Sample(diseased), kernel, hf, hg, 0.05,
                    BootstrapPlan(replicates=20, seed=3), t)
    np.testing.assert_array_equal(band.center, roc.values)


def test_roc_curve_passes_do_not_grow_with_the_t_grid(monkeypatch, rng):
    healthy, diseased = Sample(rng.normal(0.0, 1.0, 200)), Sample(rng.normal(1.0, 1.0, 200))
    # one tabulation, a few Newton passes and one G pass, whatever the t grid
    passes, real = [], distfunc._cdf_values

    def counted(model, xs):
        passes.append(xs.size)
        return real(model, xs)

    monkeypatch.setattr(distfunc, "_cdf_values", counted)
    for num in (11, 1001):
        passes.clear()
        roc_curve(healthy, diseased, GAUSS1, 0.3, 0.3, default_t_grid(num))
        assert len(passes) <= 10


def test_roc_requires_univariate(rng):
    two_d = Sample(rng.normal(size=(30, 2)))
    one_d = Sample(rng.normal(size=30))
    with pytest.raises(ValueError, match="univariate"):
        roc_curve(two_d, one_d, GAUSS1, 0.3, 0.3)


def test_default_t_grid():
    t = default_t_grid()
    assert t.size == 101
    assert t[0] == 0.0 and t[-1] == 1.0


# --- ROC band ---


def test_roc_band_properties(rng):
    healthy = Sample(rng.normal(0.0, 1.0, 300))
    diseased = Sample(rng.normal(1.0, 1.0, 300))
    plan = BootstrapPlan(replicates=100, seed=42)
    band = roc_band(healthy, diseased, GAUSS1, 0.35, 0.35, 0.05, plan)
    assert band.method == "roc-band"
    assert band.halfwidth > 0
    assert np.all(band.lower >= 0.0) and np.all(band.upper <= 1.0)
    assert np.all(band.lower <= band.center) and np.all(band.center <= band.upper)
    # band center approximates the exact smoothed ROC
    exact = roc_curve(healthy, diseased, GAUSS1, 0.35, 0.35)
    assert np.max(np.abs(band.center - exact.values)) < 5e-3


def test_roc_band_deterministic(rng):
    healthy = Sample(rng.normal(0.0, 1.0, 150))
    diseased = Sample(rng.normal(0.8, 1.0, 150))
    plan = BootstrapPlan(replicates=50, seed=7)
    b1 = roc_band(healthy, diseased, GAUSS1, 0.4, 0.4, 0.1, plan)
    b2 = roc_band(healthy, diseased, GAUSS1, 0.4, 0.4, 0.1, plan)
    np.testing.assert_array_equal(b1.lower, b2.lower)
    np.testing.assert_array_equal(b1.upper, b2.upper)


@pytest.mark.parametrize("kernel", [GAUSS1, SPHERE1], ids=["gaussian", "spherical"])
def test_roc_band_matches_per_replicate_reference(rng, kernel):
    # reference on the documented stream: replicate r draws the healthy, then
    # the diseased indices from default_rng([seed, r]); CDFs of the resampled
    # data are tabulated one replicate at a time and inverted by
    # interpolation.  The centre is the smoothed ROC curve, F inverted by
    # bisection.
    healthy, diseased = rng.normal(0.0, 1.0, 200), rng.normal(1.0, 1.2, 150)
    hf, hg, alpha = 0.35, 0.45, 0.05
    plan = BootstrapPlan(replicates=60, seed=77)
    band = roc_band(Sample(healthy), Sample(diseased), kernel, hf, hg, alpha, plan)

    def cdf(data, h):
        u = (xs - data[:, None]) / h
        terms = norm.cdf(u) if kernel is GAUSS1 else np.clip((u + 1.0) / 2.0, 0.0, 1.0)
        return terms.mean(axis=0)

    def roc(f, g):
        x = np.interp(np.clip(1.0 - t, f[0], f[-1]), f, xs)
        out = 1.0 - np.interp(x, xs, g)
        out[t <= 0.0], out[t >= 1.0] = 0.0, 1.0
        return out

    t = default_t_grid()
    lo = min(healthy.min() - 10 * hf, diseased.min() - 10 * hg)
    hi = max(healthy.max() + 10 * hf, diseased.max() + 10 * hg)
    xs = np.linspace(lo, hi, distfunc._INVERSION_POINTS)
    f_cdf = ramp_sum_cdf(healthy, hf, kernel)
    x_q = bisect_inverse(f_cdf, 1.0 - t[1:-1], lo, hi)
    g_cdf = ramp_sum_cdf(diseased, hg, kernel)
    center = np.concatenate([[0.0], 1.0 - g_cdf(x_q), [1.0]])
    sups = []
    for r in range(plan.replicates):
        draw = np.random.default_rng([plan.seed, r])
        f = cdf(healthy[draw.integers(0, 200, 200)], hf)
        g = cdf(diseased[draw.integers(0, 150, 150)], hg)
        sups.append(np.max(np.abs(roc(f, g) - center)))
    expected = np.sort(sups)[math.ceil((1.0 - alpha) * plan.replicates) - 1]
    np.testing.assert_allclose(band.center, center, rtol=0, atol=1e-12)
    assert abs(band.halfwidth - expected) <= 1e-12


def test_roc_band_has_no_resolution_knob(rng):
    s = Sample(rng.normal(size=50))
    with pytest.raises(TypeError):
        roc_band(s, s, GAUSS1, 0.3, 0.3, 0.05, BootstrapPlan(replicates=30, seed=0),
                 inversion_resolution=512)


def test_roc_band_validation(rng):
    s = Sample(rng.normal(size=50))
    with pytest.raises(ValueError, match="B >= 20"):
        roc_band(s, s, GAUSS1, 0.3, 0.3, 0.05, BootstrapPlan(replicates=10, seed=0))
    with pytest.raises(ValueError, match="alpha"):
        roc_band(s, s, GAUSS1, 0.3, 0.3, 1.5, BootstrapPlan(replicates=30, seed=0))


def test_roc_band_holds_no_matrix_of_terms(rng):
    healthy = Sample(rng.normal(size=20_000))
    diseased = Sample(rng.normal(1.0, 1.2, 20_000))
    tracemalloc.start()
    try:
        roc_band(healthy, diseased, GAUSS1, 0.1, 0.12, 0.05, BootstrapPlan(200, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each group's (20 000, 1024) matrix of terms would take 164 MB (326 MB
    # peak when both were built); the counts take 8 MB, the replicate
    # tabulations 3.3 MB
    assert peak < 40 * 2**20
