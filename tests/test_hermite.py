"""The bootstraps' Hermite expansion (``kdeforge.hermite``) against the exact
replicate products counts @ rows[:], and the cost rule that chooses it."""

import math
import warnings

import numpy as np
import pytest

from kdeforge import bandwidth, blocks, distfunc, estimator, hermite, inference, simulate
from kdeforge.estimator import DensityModel, Sample
from kdeforge.inference import BootstrapPlan
from kdeforge.kernels import KernelFamily, KernelSpec

from conftest import on_each_worker_count

GAUSS1 = KernelSpec(KernelFamily.GAUSSIAN, 1)
PHI0 = 1.0 / math.sqrt(2.0 * math.pi)
SEEDS = range(5)


def cramer_tail(kind: str, p: int) -> float:
    """1.0865 sum_{k >= p} b_k 2^-k, from the factorials written out."""
    def b(k):
        if kind == "kernel":
            return 1.0 / math.sqrt(math.factorial(k))
        if kind == "debiased":
            return ((math.sqrt(math.factorial(k)) + math.sqrt(math.factorial(k + 2)) / 2)
                    / math.factorial(k))
        return math.sqrt(math.factorial(k - 1)) / math.factorial(k)
    return 1.0865 * math.fsum(b(k) * 2.0**-k for k in range(p, p + 100))


@pytest.mark.parametrize("kind,p", [("kernel", 22), ("debiased", 23), ("integrated", 21)])
def test_orders_are_the_least_whose_cramer_tail_is_a_quarter_ulp(kind, p):
    assert hermite.order(kind) == p
    assert cramer_tail(kind, p) <= 2.0**-54 < cramer_tail(kind, p - 1)


def sources(model: DensityModel, m: int) -> dict:
    """Each kind's row source on m points: the kernel and debiased terms on
    the CLI's axis (the data +/- 3h), the integrated kernel on roc_band's
    (the data +/- 10h); with the divisor the terms carry."""
    axis = estimator.default_axes(model, m)[0]
    deb = inference.DebiasedDensity(model)
    return {"kernel": (estimator.kernel_value_rows(model, axis), 1.0),
            "debiased": (deb.correction_rows(axis), deb.scale),
            "integrated": (distfunc._cdf_rows(model, np.linspace(
                *distfunc.SmoothedCDF(model).support, m)), 1.0)}


def always_expand(monkeypatch):
    """Take the expansion whatever it costs."""
    monkeypatch.setattr(hermite, "_COST_SHARE", 2**40)
    monkeypatch.setattr(hermite, "_TABLE_BYTES", 2**60)


def order_statistic(values):
    """The 0.95 bootstrap quantile, inference's order statistic."""
    return np.sort(values, axis=0)[math.ceil(0.95 * len(values)) - 1]


# h = 0.03 cuts the 2000 observations into about 200 blocks, 0.27 is about
# the rule of thumb (about 25 blocks), and 20 is wider than the data: one.
@pytest.mark.parametrize("h,blocks_at_least,blocks_at_most",
                         [(0.03, 100, 2000), (0.27, 10, 60), (20.0, 1, 1)])
@pytest.mark.parametrize("m", [256, 257])
def test_expansions_match_the_exact_products(monkeypatch, h, blocks_at_least,
                                             blocks_at_most, m):
    # Tolerance.  Each replicate value sums n = 2000 counted terms.  The
    # exact product and the expansion both round relative to the terms they
    # add, a few hundred ulps at most: 1e-12 of counts @ |terms| (4500 ulps)
    # covers that.  The expansion's truncated tail is absolute instead: at
    # most 2^-54 phi(0) a unit of count (``hermite.order``, Cramer's bound),
    # so n 2^-54 phi(0) over the divisor the terms carry.  Far from every
    # drawn observation (a tail of the roc grid, or a gap at small h) a
    # value is far below that, and only the absolute part holds there.
    # The half-widths are order statistics of sup norms (or, per point, of
    # absolute deviations), which move by at most the largest error of any
    # value; the band's also stays within 1e-12 of its own size.  A
    # pointwise one need not: where the replicates' deviations all cross
    # zero (near the mean at h = 20), it is itself near zero.
    always_expand(monkeypatch)
    for seed in SEEDS:
        model = DensityModel(Sample(np.random.default_rng(seed).normal(size=2000)),
                             GAUSS1, h)
        plan = BootstrapPlan(100, seed)
        counts = inference.resample_counts(model.sample, plan)
        for kind, (rows, divisor) in sources(model, m).items():
            (expansion,) = hermite.plan([rows])
            assert blocks_at_least <= len(expansion.edges) - 1 <= blocks_at_most
            sums = []
            (got,) = inference._replicate_products(plan, [rows], sums)
            terms = rows[:]
            exact = counts @ terms
            tail = model.n * 2.0**-54 * PHI0 / divisor
            error = np.abs(got - exact)
            assert (error <= 1e-12 * (counts @ np.abs(terms)) + tail).all(), (kind, seed)
            np.testing.assert_array_equal(sums[0], rows.sums())
            center = sums[0]
            hw, hw_exact = (order_statistic(np.abs(b - center).max(axis=1))
                            for b in (got, exact))
            assert abs(hw - hw_exact) <= min(error.max(), 1e-12 * hw_exact), (kind, seed)
            pointwise, pointwise_exact = (order_statistic(np.abs(b - center))
                                          for b in (got, exact))
            assert (np.abs(pointwise - pointwise_exact) <= error.max()).all(), (kind, seed)


def test_bootstraps_through_the_expansion_keep_the_center_bits(monkeypatch, rng):
    always_expand(monkeypatch)
    model = DensityModel(Sample(rng.normal(size=3000)), GAUSS1, 0.3)
    grid, plan = np.linspace(-3, 3, 256), BootstrapPlan(40, 4)
    deb = inference.DebiasedDensity(model)
    band = inference.band_debiased_bootstrap(model, grid, 0.05, plan)
    np.testing.assert_array_equal(band.center, deb.correction_rows(grid).sums())
    for construct in (inference.band_bootstrap, inference.ci_bootstrap,
                      inference.ci_bootstrap_plugin):
        result = construct(model, grid, 0.05, plan)
        np.testing.assert_array_equal(result.center, estimator.density(model, grid[:, None]))


@pytest.mark.parametrize("replicates", [129, 40])
def test_expansions_give_the_same_bits_on_any_number_of_workers(monkeypatch, rng,
                                                                 replicates):
    # 129 replicates: tasks of 32 with the lone last one joined; 40: a ragged
    # last task; then two groups of integrated terms
    always_expand(monkeypatch)
    healthy = DensityModel(Sample(rng.normal(size=1500)), GAUSS1, 0.2)
    diseased = DensityModel(Sample(rng.normal(1.0, 1.2, 1000)), GAUSS1, 0.3)
    grid = np.linspace(-4, 5, 257)
    plan = BootstrapPlan(replicates, 8)
    jobs = [[estimator.kernel_value_rows(healthy, grid)],
            [inference.DebiasedDensity(healthy).correction_rows(grid)],
            [distfunc._cdf_rows(healthy, grid), distfunc._cdf_rows(diseased, grid)]]
    for job in jobs:
        assert hermite.plan(job) is not None
        first, *rest = on_each_worker_count(
            monkeypatch, lambda job=job: inference._replicate_products(plan, job))
        for other in rest:
            for got, ref in zip(other, first):
                np.testing.assert_array_equal(got, ref)


# (sizes, seed): at n = 12 345 the counts come from raw words, and at seed 0
# replicates 51, 101 and 111 redraw a word and are redone on their Generator;
# at 16 385 every replicate draws from its Generator; then two groups, the
# second drawn after the first from each replicate's stream
@pytest.mark.parametrize("sizes,seed", [([12_345], 0), ([16_385], 3), ([700, 300], 5)])
def test_expansions_multiply_the_replicate_stream_in_sorted_order(monkeypatch, rng,
                                                                 sizes, seed):
    always_expand(monkeypatch)
    plan = BootstrapPlan(137, seed)
    grid = np.linspace(-4, 4, 256)
    rows = [estimator.kernel_value_rows(DensityModel(Sample(rng.normal(size=n)), GAUSS1,
                                                     0.25), grid) for n in sizes]
    expansions = hermite.plan(rows)
    got = inference._replicate_products(plan, rows)
    counts = [np.empty((plan.replicates, n), dtype=np.uint8) for n in sizes]
    for r in range(plan.replicates):  # the documented stream, one replicate at a time
        stream = plan.rng(r)
        for c, n in zip(counts, sizes):
            c[r] = np.bincount(stream.integers(0, n, n), minlength=n)
    for e, c, g in zip(expansions, counts, got):
        np.testing.assert_array_equal(np.sort(e.rows), np.arange(c.shape[1]))
        # the counts in sorted column order, one row an observation
        np.testing.assert_array_equal(e.sorted_counts(c), c[:, e.rows].T)
        ref = np.empty_like(g)
        with blocks.one_blas_thread():  # as in a bootstrap
            for s in blocks.cut(plan.replicates, inference._EXPANSION_ROWS):
                e.multiply(c[s], ref[s])
        np.testing.assert_array_equal(g, ref)


class ConstantWords:
    """A bit generator whose raw words are all one value."""

    def __init__(self, word):
        self.word = word

    def random_raw(self, size):
        return np.full(size, self.word, dtype=np.uint64)


def test_counts_a_byte_cannot_hold_are_refused_on_the_expansion_path(monkeypatch):
    # every draw of 301 from the word 2**31 is index 150, so one count is 301
    always_expand(monkeypatch)
    monkeypatch.setattr(inference, "_bit_generators", lambda seed, start, stop: (
        ConstantWords(0x8000000080000000) for _ in range(start, stop)))
    model = DensityModel(Sample(np.linspace(0.0, 1.0, 301)), GAUSS1, 0.5)
    rows = estimator.kernel_value_rows(model, np.linspace(-1, 2, 256))
    assert hermite.plan([rows]) is not None
    with pytest.raises(ValueError, match="256 times"):
        inference._replicate_products(BootstrapPlan(20, 0), [rows])


def test_coefficients_vanish_where_phi_underflows_without_a_warning():
    t = np.array([0.0, 3.0, -20.0, 37.0, 38.0, -60.0, 1e200, -np.inf, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in ("kernel", "debiased", "integrated"):
            h = hermite._coefficients(kind, t, hermite.order(kind))
            assert np.isfinite(h).all()
            rest = h[1:] if kind == "integrated" else h
            assert (rest[:, 4:] == 0).all() and (rest[:, :4] != 0).any(axis=0).all()
            # no subnormal coefficient, up to the cut: the products never meet one
            h = hermite._coefficients(kind, np.linspace(-38, 38, 8001), hermite.order(kind))
            assert not ((h != 0) & (np.abs(h) < np.finfo(float).tiny)).any()
        np.testing.assert_array_equal(
            hermite._coefficients("integrated", t, 21)[0, 4:], [1, 0, 1, 0, 1])


def test_far_queries_give_zero_coefficients_not_nans(monkeypatch, rng):
    # offsets whose squares, or which themselves, pass float range: H = 0,
    # no inf * 0, no warning
    always_expand(monkeypatch)
    model = DensityModel(Sample(rng.normal(size=400)), GAUSS1, 0.5)
    grid = np.concatenate([np.linspace(-3, 3, 252), [1e300, -1e300, 1e308, -1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (expansion,) = hermite.plan([estimator.kernel_value_rows(model, grid)])
    assert np.isfinite(expansion.coefficients).all()
    assert (expansion.coefficients[:, -4:] == 0).all()


def spy_on_plans(monkeypatch) -> list:
    """Each plan the bootstraps ask for, None where the exact path runs."""
    taken, real = [], hermite.plan

    def plan(sources):
        taken.append(real(sources))
        return taken[-1]

    monkeypatch.setattr(hermite, "plan", plan)
    return taken


def test_the_cost_rule_keeps_small_bootstraps_exact(monkeypatch):
    taken = spy_on_plans(monkeypatch)
    # the coverage benchmark: n = 500 from the two-bump mixture, 128 points
    for method in ("band-debiased", "band-bootstrap"):
        simulate.simulate_coverage("mixture:0.5,-1.5,1.5,1,1", 500, method, 0.05,
                                   trials=2, seed=5, replicates=20, grid_size=128)
    # the ROC band of the inference benchmark: two groups of 1000, 1024 points
    rng = np.random.default_rng(5)
    healthy, diseased = Sample(rng.normal(0, 1, 1000)), Sample(rng.normal(1.5, 1.2, 1000))
    distfunc.roc_band(healthy, diseased, GAUSS1, bandwidth.rule_of_thumb(healthy),
                      bandwidth.rule_of_thumb(diseased), 0.05, BootstrapPlan(20, 5))
    assert len(taken) == 5 and all(plan is None for plan in taken)


def test_the_cost_rule_expands_the_large_bootstraps(monkeypatch):
    taken = spy_on_plans(monkeypatch)
    # the inference benchmark's bands: n = 20 000 from its mixture, 256 points
    rng = np.random.default_rng(5)
    data = np.concatenate([rng.normal(0.0, 1.0, 12_000), rng.normal(3.0, 0.7, 8000)])
    model = DensityModel(Sample(data), GAUSS1, bandwidth.rule_of_thumb(Sample(data)))
    grid, plan = estimator.default_axes(model, 256)[0], BootstrapPlan(20, 5)
    for construct in (inference.band_debiased_bootstrap, inference.band_bootstrap,
                      inference.ci_bootstrap):
        construct(model, grid, 0.05, plan)
    assert len(taken) == 3 and all(plan is not None for plan in taken)
    # n m against n p + blocks p m: about 7.8 : 1 at the kernel's p
    blocks_ = len(taken[1][0].edges) - 1
    assert 6 < 20_000 * 256 / (20_000 * 22 + blocks_ * 22 * 256) < 10
