import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from kdeforge import blocks, distfunc, estimator, inference
from kdeforge.estimator import DensityModel, Sample
from kdeforge.inference import (
    BootstrapPlan,
    DebiasedDensity,
    band_bootstrap,
    band_debiased_bootstrap,
    band_plugin_evt,
    bootstrap_density_matrix,
    ci_bootstrap,
    ci_bootstrap_plugin,
    ci_plugin,
    empirical_quantile,
    evt_quantile,
    resample_counts,
)
from kdeforge.kernels import KernelFamily, KernelSpec, UnsupportedDerivativeError

from conftest import assert_block_error_reaches_caller, on_each_worker_count

GAUSS1 = KernelSpec(KernelFamily.GAUSSIAN, 1)


def model_of(data, h):
    return DensityModel(Sample(np.asarray(data, dtype=float)), GAUSS1, h)


def resample(sample: Sample, plan: BootstrapPlan, r: int) -> Sample:
    """The r-th bootstrap resample: n uniform draws with replacement from the
    documented stream default_rng([seed, r])."""
    idx = np.random.default_rng([plan.seed, r]).integers(0, sample.n, sample.n)
    return Sample(sample.data[idx])


# --- bootstrap plan and resampling ---


def test_plan_validation():
    with pytest.raises(ValueError):
        BootstrapPlan(replicates=1, seed=0)
    plan = BootstrapPlan(replicates=5, seed=7)
    with pytest.raises(ValueError):
        plan.rng(5)
    with pytest.raises(ValueError):
        plan.rng(-1)


def test_plan_rejects_replicate_indices_beyond_one_seed_word():
    # r must fit the one 32-bit SeedSequence word of the derivation; the
    # constructor alone rejects it, before anything is allocated
    with pytest.raises(ValueError, match="2\\*\\*32"):
        BootstrapPlan(2**32, 0)
    np.testing.assert_array_equal(
        BootstrapPlan(2**32 - 1, 0).rng(2**32 - 2).integers(0, 9, 9),
        np.random.default_rng([0, 2**32 - 2]).integers(0, 9, 9))


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_words_match_seed_sequence(seed):
    # r around one and two bytes, around 16-replicate block edges, and the top
    replicates = np.array([0, 1, 15, 16, 17, 31, 32, 255, 256, 2**16 - 1, 2**16,
                           2**16 + 1, 2**31, 2**32 - 1])
    got = inference._seed_words(seed, replicates)
    assert got.dtype == np.uint64 and got.shape == (replicates.size, 4)
    for r, words in zip(replicates, got):
        expected = np.random.SeedSequence([seed, int(r)]).generate_state(4, np.uint64)
        np.testing.assert_array_equal(words, expected)
    # a block's rows do not depend on where the block starts or ends
    for start, stop in ((0, 1), (15, 17), (16, 48), (2**16 - 3, 2**16 + 3)):
        block = inference._seed_words(seed, np.arange(start, stop))
        for r, words in zip(range(start, stop), block):
            np.testing.assert_array_equal(
                words, np.random.SeedSequence([seed, r]).generate_state(4, np.uint64))


@pytest.mark.parametrize("seed", SEEDS)
def test_plan_rng_draws_the_default_rng_stream(seed):
    plan = BootstrapPlan(2**20, seed)
    for r in (0, 15, 16, 2**16, 2**20 - 1):
        ref, got = np.random.default_rng([seed, r]), plan.rng(r)
        for n, size in ((500, 500), (20_000, 7)):
            np.testing.assert_array_equal(got.integers(0, n, size),
                                          ref.integers(0, n, size))
        np.testing.assert_array_equal(got.random(5), ref.random(5))


# 16 384 draws is the last size with two replicates to a raw-word chunk;
# 999 draws leave the second group starting on the high half of a word
@pytest.mark.parametrize("sizes", [[1], [3, 7], [500], [1000, 1000], [1, 5], [20_000],
                                   [16_384], [16_385], [999, 1001], [1, 1]])
@pytest.mark.parametrize("replicates", [2, 17, 137])
def test_count_blocks_draw_the_default_rng_stream(sizes, replicates):
    for seed in SEEDS:
        plan = BootstrapPlan(replicates, seed)
        for ref, counts in zip(one_shot_counts(plan, sizes), stacked_counts(plan, sizes)):
            np.testing.assert_array_equal(counts, ref)


def stacked_counts(plan, sizes):
    """Each group's counts from ``_count_blocks``, its blocks stacked."""
    return [np.concatenate(c) for c in
            zip(*(counts for _, counts in inference._count_blocks(plan, sizes)))]


def redraws_a_word(seed, r, n):
    """Whether integers(0, n, n) on default_rng([seed, r]) redraws a 32-bit
    word: then its indices are not (u n) >> 32 of the first n words u."""
    raw = np.random.default_rng([seed, r]).bit_generator.random_raw(-(-n // 2))
    u = raw.astype("<u8").view("<u4")[:n].astype(np.uint64)
    return not np.array_equal((u * np.uint64(n)) >> np.uint64(32),
                              np.random.default_rng([seed, r]).integers(0, n, n))


def test_count_blocks_redo_replicates_where_numpy_redraws():
    plan, n = BootstrapPlan(137, 0), 12_345
    # replicates 51, 101, 111 and 132 redraw a word at this size and seed
    assert any(redraws_a_word(plan.seed, r, n) for r in range(plan.replicates))
    (ref,), (got,) = one_shot_counts(plan, [n]), stacked_counts(plan, [n])
    np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("sizes", [[30], [13, 17], [1, 30]])
@pytest.mark.parametrize("replicates", [40, 41, 47])
def test_count_blocks_chunks_need_not_divide_the_replicates(monkeypatch, sizes,
                                                            replicates):
    # 7-replicate chunks inside 16-replicate blocks: every block ends on a
    # partial chunk, and so does the plan
    monkeypatch.setattr(inference, "_RAW_CHUNK_DRAWS", 7 * 30)
    monkeypatch.setattr(inference, "_COUNT_BLOCK_ELEMENTS", 16 * 31)
    plan = BootstrapPlan(replicates, 9)
    for ref, counts in zip(one_shot_counts(plan, sizes), stacked_counts(plan, sizes)):
        np.testing.assert_array_equal(counts, ref)


def test_count_blocks_hold_one_chunk_of_raw_words():
    plan, n = BootstrapPlan(2000, 7), 500
    block = plan.replicates * n * 8  # one block of float64 counts: 8 MB
    tracemalloc.start()
    try:
        for _, counts in inference._count_blocks(plan, [n]):
            assert counts[0].nbytes == block
            del counts
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a chunk's scratch and the block's seed words take under 1 MB; the
    # (B, n) draws as uint32 alone would take 4 MB more
    assert peak < block + 2 * 2**20


# Besides its block, each extra worker holds numpy's ufunc buffer (8192 values
# of 2 operands, 128 KiB) and the executor's bookkeeping; one drawing counts
# also holds its draw scratch: one replicate's int64 indices and bincount
# above 2**14 draws, one chunk of raw words (under 1 MiB, see above) below.
WORKER_OVERHEAD = 2 * 8192 * 8 + 32 * 2**10


@pytest.mark.parametrize("n,scratch", [(20_000, 2 * 20_000 * 8), (3000, 2**20)])
def test_workers_share_the_block_budget(monkeypatch, rng, n, scratch):
    model = model_of(rng.normal(size=n), 0.2)
    grid = np.linspace(-4, 4, 256)[:, None]
    phi = estimator.kernel_value_matrix(model, grid)
    plan = BootstrapPlan(1000, 7)
    jobs = {"counts @ phi": lambda: inference._replicate_products(plan, [phi]),
            "phi": lambda: estimator.kernel_value_matrix(model, grid)}
    peak = {}
    for workers in (1, 2):
        monkeypatch.setattr(blocks, "cpus", lambda: workers)
        assert len(inference._count_slices(plan, [n])[0]) > 1
        for name, job in jobs.items():
            tracemalloc.start()
            try:
                job()
                _, peak[name, workers] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
    # a worker drawing a whole block of its own would add 4 MB (n = 3000) to
    # 7.7 MB (n = 20 000) of counts
    assert peak["counts @ phi", 2] <= peak["counts @ phi", 1] + WORKER_OVERHEAD + scratch
    assert peak["phi", 2] <= peak["phi", 1] + WORKER_OVERHEAD


def test_plan_rejects_seeds_outside_64_bits():
    # -1 and 2^64 - 1 would otherwise draw the same replicate stream
    with pytest.raises(ValueError, match="seed"):
        BootstrapPlan(10, -1)
    with pytest.raises(ValueError, match="seed"):
        BootstrapPlan(10, 2**64)
    top = BootstrapPlan(10, 2**64 - 1).rng(0).integers(0, 2**31, 5)
    assert not np.array_equal(top, BootstrapPlan(10, 0).rng(0).integers(0, 2**31, 5))


def test_replicate_streams_are_deterministic_and_order_free():
    plan = BootstrapPlan(replicates=4, seed=123)
    a = plan.rng(2).integers(0, 100, 10)
    b = plan.rng(2).integers(0, 100, 10)
    np.testing.assert_array_equal(a, b)
    # different replicates differ
    assert not np.array_equal(plan.rng(0).integers(0, 100, 10), a)


def test_resample_counts_consistent_with_resample(rng):
    data = rng.normal(size=30)
    sample = Sample(data)
    plan = BootstrapPlan(replicates=6, seed=99)
    counts = resample_counts(sample, plan)
    assert counts.shape == (6, 30)
    np.testing.assert_array_equal(counts.sum(axis=1), 30)
    for r in range(6):
        res = resample(sample, plan, r)
        expected = np.zeros(30)
        for x in res.data[:, 0]:
            expected[np.argmin(np.abs(data - x))] += 1
        np.testing.assert_array_equal(counts[r], expected)


def test_bootstrap_density_matrix_matches_direct_kde(rng):
    data = rng.normal(size=40)
    model = model_of(data, 0.5)
    plan = BootstrapPlan(replicates=5, seed=11)
    grid = np.linspace(-2, 2, 17)
    boot = bootstrap_density_matrix(model, grid, plan)
    for r in range(5):
        direct = estimator.density(model_of(resample(model.sample, plan, r).data,
                                            0.5), grid[:, None])
        np.testing.assert_allclose(boot[r], direct, atol=1e-12)


def one_shot_counts(plan, sizes):
    """Reference replicate counts per group, one replicate at a time: replicate
    r draws each group's indices in turn from default_rng([seed, r])."""
    counts = [np.empty((plan.replicates, n)) for n in sizes]
    for r in range(plan.replicates):
        rng = np.random.default_rng([plan.seed, r])
        for c, n in zip(counts, sizes):
            c[r] = np.bincount(rng.integers(0, n, n), minlength=n)
    return counts


@pytest.mark.parametrize("replicates", [2, 16, 17, 33, 40, 100])
def test_count_blocks_are_aligned_and_never_a_single_replicate(monkeypatch,
                                                                replicates):
    # 16-replicate blocks: 17 and 33 leave a lone tail (joined), 40 and 100 a
    # ragged one
    monkeypatch.setattr(inference, "_COUNT_BLOCK_ELEMENTS", 16 * 30)
    plan = BootstrapPlan(replicates, 5)
    rows = [r for r, _ in inference._count_blocks(plan, [30])]
    assert rows[0].start == 0 and rows[-1].stop == replicates
    assert all(a.stop == b.start for a, b in zip(rows, rows[1:]))
    assert all(r.start % inference._ROW_ALIGN == 0 for r in rows)
    assert all(r.stop - r.start >= 2 for r in rows)
    assert all(r.stop - r.start == 16 for r in rows[:-1])


@pytest.mark.parametrize("replicates", [33, 40, 41])
def test_replicate_products_match_one_shot_reference(monkeypatch, rng, replicates):
    plan = BootstrapPlan(replicates, 2024)
    healthy, diseased = Sample(rng.normal(size=30)), Sample(rng.normal(1.0, 1.0, 17))
    # 33 columns: gemm's column remainder, where row offsets change rounding
    grid = np.linspace(-3, 3, 33)
    phi = estimator.kernel_value_matrix(model_of(healthy.data, 0.4), grid[:, None])
    phi_d = estimator.kernel_value_matrix(model_of(diseased.data, 0.5), grid[:, None])
    ref = resample_counts(healthy, plan) @ phi
    ref_h, ref_d = (c @ contrib for c, contrib in
                    zip(one_shot_counts(plan, [30, 17]), (phi, phi_d)))
    # default blocks (one block here), then 16-replicate blocks with a lone
    # (33) or ragged (40, 41) tail
    for block in (inference._COUNT_BLOCK_ELEMENTS, 16 * 47):
        monkeypatch.setattr(inference, "_COUNT_BLOCK_ELEMENTS", block)
        np.testing.assert_array_equal(
            resample_counts(healthy, plan), one_shot_counts(plan, [30])[0])
        (got,) = inference._replicate_products(plan, [phi])
        np.testing.assert_array_equal(got, ref)
        got_h, got_d = inference._replicate_products(plan, [phi, phi_d])
        np.testing.assert_array_equal(got_h, ref_h)
        np.testing.assert_array_equal(got_d, ref_d)


# (sizes, seed, real-valued contributions).  [30, 17]: every block product is
# below OpenBLAS's threading threshold (m n k <= 2**18), so even an unpinned
# BLAS computes it on one thread, where the result depends on a block's row
# offset alone.  [12 345, 17]: at seed 0, replicates 51, 101 and 111 redraw a
# word; small-integer contributions make every product exact, so the bits
# cannot depend on how a threaded BLAS splits a block.
@pytest.mark.parametrize("sizes,seed,real", [([30, 17], 5, True),
                                             ([12_345, 17], 0, False)])
def test_replicate_products_give_the_same_bits_on_any_number_of_workers(
        monkeypatch, rng, sizes, seed, real):
    # Blocks of 96, 48 and 32 replicates on 1, 2 and 3 workers (100, 50 and 33
    # but for the alignment); the 129th replicate joins the block before it
    # on 3.  33 columns: gemm's column remainder, where row offsets change
    # rounding.
    plan = BootstrapPlan(129, seed)
    if not real:
        assert any(redraws_a_word(seed, r, sizes[0]) for r in range(plan.replicates))
    contributions = [rng.normal(size=(n, 33)) if real else
                     rng.integers(-3, 4, size=(n, 33)).astype(float) for n in sizes]
    monkeypatch.setattr(inference, "_COUNT_BLOCK_ELEMENTS", 100 * sum(sizes))
    first, *rest = on_each_worker_count(
        monkeypatch, lambda: inference._replicate_products(plan, contributions))
    for other in rest:
        for got, ref in zip(other, first):
            np.testing.assert_array_equal(got, ref)
    for got, counts, contrib in zip(first, one_shot_counts(plan, sizes), contributions):
        np.testing.assert_array_equal(got, counts @ contrib)


def test_replicate_product_errors_reach_the_caller(monkeypatch, rng):
    plan = BootstrapPlan(100, 3)
    phi = rng.normal(size=(30, 4))
    monkeypatch.setattr(inference, "_COUNT_BLOCK_ELEMENTS", 16 * 30)
    assert_block_error_reaches_caller(monkeypatch, inference, "_block_counts",
                                      lambda: inference._replicate_products(plan, [phi]))


def test_plain_bootstrap_center_is_the_density(rng):
    for spec in (GAUSS1, KernelSpec(KernelFamily.SPHERICAL, 1)):
        for n, m in ((40, 5), (700, 257), (3000, 256)):
            model = DensityModel(Sample(rng.normal(size=n)), spec, 0.3)
            grid = np.linspace(-3, 3, m)
            plan = BootstrapPlan(21, 4)
            _, center, boot = inference._plain_bootstrap(model, grid, plan)
            np.testing.assert_array_equal(center,
                                          estimator.density(model, grid[:, None]))
            np.testing.assert_array_equal(boot,
                                          bootstrap_density_matrix(model, grid, plan))


def test_bootstrap_memory_is_bounded(rng):
    model = model_of(rng.normal(size=20_000), 0.14)
    grid = np.linspace(-4, 4, 256)
    plan = BootstrapPlan(1000, 3)
    for construct in (band_bootstrap, ci_bootstrap):
        tracemalloc.start()
        try:
            construct(model, grid, 0.05, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the stacked counts alone would take 1000 * 20 000 * 8 B = 160 MB
        assert peak < 80 * 2**20, construct.__name__


# --- quantile rule ---


def test_empirical_quantile_order_statistic():
    values = np.arange(1.0, 101.0)  # 1..100
    # ceil(0.95 * 100) = 95 -> the 95th order statistic
    assert empirical_quantile(values, 0.05) == 95.0
    assert empirical_quantile(values, 0.5) == 50.0
    # B = 10, alpha = 0.05: ceil(9.5) = 10 -> the maximum
    assert empirical_quantile(np.arange(10.0), 0.05) == 9.0
    for alpha in (0.0, 1.0, 1.5):  # no order statistic outside (0, 1)
        with pytest.raises(ValueError, match="alpha"):
            empirical_quantile(values, alpha)


def test_empirical_quantile_no_interpolation():
    vals = np.array([0.0, 1.0, 2.0, 3.0])
    q = empirical_quantile(vals, 0.4)  # ceil(2.4) = 3rd order statistic
    assert q == 2.0
    assert q in vals


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=5, max_size=60),
       st.floats(0.01, 0.5))
def test_empirical_quantile_dominates_fraction(values, alpha):
    q = inference.empirical_quantile(np.array(values), alpha)
    # integer-count form avoids float rounding at the ceil boundary
    count = int(np.sum(np.array(values) <= q))
    assert count >= math.ceil((1.0 - alpha) * len(values))
    assert q in values


def test_empirical_quantile_columns_match_scalar_form(rng):
    values = rng.normal(size=(57, 9))
    values[:, 3] = 1.0  # ties
    for alpha in (0.01, 0.05, 0.1, 0.5):
        got = empirical_quantile(values, alpha)
        assert got.shape == (9,)
        np.testing.assert_array_equal(
            got, [empirical_quantile(values[:, j], alpha) for j in range(9)])


# --- pointwise intervals ---


def test_ci_plugin_closed_form(rng):
    data = rng.normal(size=200)
    model = model_of(data, 0.3)
    grid = np.linspace(-2, 2, 9)
    res = ci_plugin(model, grid, 0.05)
    p = estimator.density(model, grid[:, None])
    z = norm.ppf(0.975)
    mu_k = 1.0 / (2.0 * math.sqrt(math.pi))
    hw = z * np.sqrt(mu_k * p / (200 * 0.3))
    np.testing.assert_allclose(res.center, p)
    np.testing.assert_allclose(res.upper - res.center, hw, atol=1e-12)
    np.testing.assert_allclose(res.center - res.lower, hw, atol=1e-12)
    assert res.method == "ci-plugin"
    assert res.target == "smoothed"


def test_ci_plugin_degenerate_flag(rng):
    model = model_of(rng.normal(size=50), 0.2)
    res = ci_plugin(model, np.array([0.0, 500.0]), 0.05)
    assert not res.degenerate[0]
    assert res.degenerate[1]
    assert res.lower[1] == res.upper[1] == 0.0


def test_ci_bootstrap_plugin_uses_sd(rng):
    data = rng.normal(size=150)
    model = model_of(data, 0.4)
    plan = BootstrapPlan(replicates=64, seed=5)
    grid = np.linspace(-1, 1, 5)
    res = ci_bootstrap_plugin(model, grid, 0.05, plan)
    boot = bootstrap_density_matrix(model, grid, plan)
    expected = norm.ppf(0.975) * np.std(boot, axis=0, ddof=1)
    np.testing.assert_allclose(res.upper - res.center, expected, atol=1e-12)


def test_ci_bootstrap_quantile_oracle(rng):
    data = rng.normal(size=120)
    model = model_of(data, 0.4)
    plan = BootstrapPlan(replicates=50, seed=21)
    grid = np.array([0.0, 0.7])
    res = ci_bootstrap(model, grid, 0.1, plan)
    boot = bootstrap_density_matrix(model, grid, plan)
    for j in range(2):
        dev = np.sort(np.abs(boot[:, j] - res.center[j]))
        assert res.upper[j] - res.center[j] == pytest.approx(dev[44], abs=1e-15)
    with pytest.raises(ValueError, match="B >= 20"):
        ci_bootstrap(model, grid, 0.1, BootstrapPlan(replicates=10, seed=0))


def test_interval_invariants(rng):
    data = rng.normal(size=100)
    model = model_of(data, 0.35)
    plan = BootstrapPlan(replicates=80, seed=3)
    grid = np.linspace(-2, 2, 33)
    for res in (ci_plugin(model, grid, 0.05),
                ci_bootstrap_plugin(model, grid, 0.05, plan),
                ci_bootstrap(model, grid, 0.05, plan)):
        assert np.all(res.lower <= res.center)
        assert np.all(res.center <= res.upper)
        assert res.to_dict()["alpha"] == 0.05


def test_alpha_validation(rng):
    model = model_of(rng.normal(size=30), 0.5)
    for alpha in (0.0, 1.0, -0.1, 1.3):
        with pytest.raises(ValueError, match="alpha"):
            ci_plugin(model, [0.0], alpha)


# --- EVT band ---


def test_evt_quantile_pinned():
    assert evt_quantile(0.05) == pytest.approx(-0.4040415, abs=1e-6)
    assert evt_quantile(math.exp(-2.0)) == pytest.approx(0.0)


def test_band_evt_shape(rng):
    model = model_of(rng.normal(size=500), 0.2)
    grid = np.linspace(-3, 3, 101)
    band = band_plugin_evt(model, grid, 0.05)
    assert "slow-convergence" in band.warnings
    assert band.halfwidth is None
    root = math.sqrt(-2.0 * math.log(0.2))
    factor = root + evt_quantile(1 - 0.05) / root
    mu_k = 1.0 / (2.0 * math.sqrt(math.pi))
    hw = factor * np.sqrt(band.center * mu_k / (500 * 0.2))
    np.testing.assert_allclose(band.upper - band.center, hw, atol=1e-12)


def test_band_evt_preconditions(rng):
    data = rng.normal(size=50)
    with pytest.raises(ValueError, match="h < 1"):
        band_plugin_evt(model_of(data, 1.5), [0.0], 0.05)
    sph = DensityModel(Sample(data), KernelSpec(KernelFamily.SPHERICAL, 1), 0.5)
    with pytest.raises(ValueError, match="Gaussian"):
        band_plugin_evt(sph, [0.0], 0.05)
    model2 = DensityModel(Sample(np.column_stack([data, data + 0.1])),
                          KernelSpec(KernelFamily.GAUSSIAN, 2), 0.5)
    with pytest.raises(ValueError):
        band_plugin_evt(model2, [[0.0, 0.0]], 0.05)


def test_band_evt_wider_than_pointwise(rng):
    model = model_of(rng.normal(size=1000), 0.2)
    grid = np.linspace(-2, 2, 101)
    band = band_plugin_evt(model, grid, 0.05)
    ci = ci_plugin(model, grid, 0.05)
    bulk = band.center > 0.05
    assert np.all((band.upper - band.center)[bulk] > (ci.upper - ci.center)[bulk])


# --- bootstrap bands ---


def test_band_bootstrap_constant_width_and_oracle(rng):
    data = rng.normal(size=300)
    model = model_of(data, 0.3)
    plan = BootstrapPlan(replicates=100, seed=17)
    grid = np.linspace(-3, 3, 257)
    band = band_bootstrap(model, grid, 0.05, plan)
    widths = band.upper - band.lower
    np.testing.assert_allclose(widths, widths[0])
    boot = bootstrap_density_matrix(model, grid, plan)
    sup = np.max(np.abs(boot - band.center[None, :]), axis=1)
    assert band.halfwidth == pytest.approx(np.sort(sup)[94])  # ceil(0.95*100)=95
    assert band.halfwidth > 0


def test_band_bootstrap_contains_most_replicates(rng):
    model = model_of(rng.normal(size=200), 0.35)
    plan = BootstrapPlan(replicates=200, seed=8)
    grid = np.linspace(-3, 3, 129)
    band = band_bootstrap(model, grid, 0.1, plan)
    boot = bootstrap_density_matrix(model, grid, plan)
    inside = np.all((boot >= band.lower) & (boot <= band.upper), axis=1)
    assert inside.mean() >= 0.9


# --- debiasing ---


def test_debias_formula(rng):
    data = rng.normal(size=200)
    model = model_of(data, 0.4)
    deb = DebiasedDensity(model)
    sigma_k2 = 1.0
    for x in np.linspace(-2, 2, 9):
        lap = np.trace(estimator.hessian_at(model, [x]))
        expected = estimator.density_at(model, [x]) - 0.5 * 0.4**2 * sigma_k2 * lap
        assert deb([x]) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("d,n,m", [(1, 1, 7), (1, 300, 256), (1, 7, 20),
                                   (2, 40, 33), (3, 25, 19)])
def test_correction_matrix_matches_two_matrix_form(monkeypatch, rng, d, n, m):
    model = DensityModel(Sample(rng.normal(size=(n, d))),
                         KernelSpec(KernelFamily.GAUSSIAN, d), 0.6)
    x = rng.normal(scale=1.5, size=(m, d))
    deb = DebiasedDensity(model)
    ref = (estimator.kernel_value_matrix(model, x)
           - 0.5 * deb.sigma_k2 * estimator.kernel_laplacian_matrix(model, x))
    ref /= n * 0.6**d
    for block in (estimator._BLOCK_ELEMENTS, 64):
        monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", block)
        got = deb.correction_matrix(x)
        assert got.shape == (n, m)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("n,m,d", [(20_000, 2048, 1), (20_000, 1, 1), (41, 33, 2),
                                   (500, 7, 3)])
def test_debiased_density_sums_the_correction_matrix(rng, n, m, d):
    model = DensityModel(Sample(rng.normal(size=(n, d))),
                         KernelSpec(KernelFamily.GAUSSIAN, d), 0.3)
    x = rng.normal(scale=1.5, size=(m, d))
    deb = DebiasedDensity(model)
    tracemalloc.start()
    try:
        got = deb.evaluate(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the column sums of correction_matrix(x), bit for bit.  numpy sums a
    # matrix of two or more columns row by row, so the reference may sum it in
    # pieces of 128 columns rather than as one (20 000, 2048) matrix of 328 MB
    ref = np.concatenate([deb.correction_matrix(x[a:a + 128]).sum(axis=0)
                          for a in range(0, m, 128)])
    np.testing.assert_array_equal(got, ref)
    # the pass's slices hold about 2^18 values (2 MB) each; 4.3 MB measured
    # at the largest size, where building the whole matrix took 317 MB
    assert peak < 16 * 2**20


def test_correction_matrix_reads_a_1d_grid_as_points(rng):
    # as evaluate and every construction do: a 1-D array is m points
    model = DensityModel(Sample(rng.normal(size=300)), GAUSS1, 0.4)
    deb = DebiasedDensity(model)
    x = np.linspace(-2.0, 2.0, 7)
    got = deb.correction_matrix(x)
    np.testing.assert_array_equal(got, deb.correction_matrix(x[:, None]))
    assert got.shape == (300, 7)
    np.testing.assert_array_equal(got.sum(axis=0), deb.evaluate(x))


def test_debiased_band_memory_is_bounded(rng):
    sample = Sample(rng.normal(size=20_000))
    grid = np.linspace(-4, 4, 256)
    tracemalloc.start()
    try:
        band_debiased_bootstrap(DensityModel(sample, GAUSS1, 0.14), grid, 0.05,
                                BootstrapPlan(1000, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (n, m) output is 41 MB; two kernel passes with their (n, m)
    # temporaries took about 157 MB
    assert peak < 80 * 2**20


def test_debias_can_go_negative():
    # single point, tiny h: the correction overshoots in the tails
    model = model_of(np.array([0.0]), 1.0)
    deb = DebiasedDensity(model)
    vals = deb.evaluate(np.linspace(-4, 4, 101)[:, None])
    assert vals.min() < 0


def test_debias_requires_gaussian():
    sph = DensityModel(Sample(np.array([0.0, 1.0])),
                       KernelSpec(KernelFamily.SPHERICAL, 1), 0.5)
    with pytest.raises(UnsupportedDerivativeError):
        DebiasedDensity(sph)


def test_debias_reduces_bias_on_curved_density():
    # stratified normal sample: at the peak the plain KDE is biased down by
    # about h^2/2 * |p''|, the corrected estimate much less
    n = 4000
    data = norm.ppf((np.arange(n) + 0.5) / n)
    h = 0.3
    model = model_of(data, h)
    truth = norm.pdf(0.0)
    plain_err = abs(estimator.density_at(model, [0.0]) - truth)
    deb_err = abs(DebiasedDensity(model)([0.0]) - truth)
    assert deb_err < 0.25 * plain_err


def test_band_debiased_bootstrap_properties(rng):
    data = rng.normal(size=400)
    plan = BootstrapPlan(replicates=100, seed=29)
    grid = np.linspace(-3, 3, 257)
    model = model_of(data, 0.3)
    band = band_debiased_bootstrap(model, grid, 0.05, plan)
    assert band.target == "true"
    assert band.method == "band-debiased"
    deb = DebiasedDensity(model)
    np.testing.assert_allclose(band.center, deb.evaluate(grid[:, None]), atol=1e-12)
    np.testing.assert_allclose(band.center_clipped, np.maximum(band.center, 0.0))
    widths = band.upper - band.lower
    np.testing.assert_allclose(widths, widths[0])

    plain = band_bootstrap(model, grid, 0.05, plan)
    assert band.halfwidth > plain.halfwidth

    assert band.to_dict()["halfwidth"] == band.halfwidth


def test_debias_correction_shrinks_quadratically(rng):
    # sup |p_tilde - p_hat| should scale like h^2 on a smooth fixed sample
    n = 2000
    data = norm.ppf((np.arange(n) + 0.5) / n)
    grid = np.linspace(-2, 2, 201)[:, None]
    sups = []
    hs = [0.4, 0.2, 0.1]
    for h in hs:
        model = model_of(data, h)
        diff = DebiasedDensity(model).evaluate(grid) - estimator.density(model, grid)
        sups.append(np.max(np.abs(diff)))
    slope = np.polyfit(np.log(hs), np.log(sups), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.3)


# --- the bootstrap walk: counts as bytes, contributions a chunk at a time ---


def traced_peak(job):
    """job()'s tracemalloc peak, in bytes."""
    tracemalloc.start()
    try:
        job()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("construct", [band_bootstrap, ci_bootstrap,
                                       band_debiased_bootstrap])
def test_bootstraps_hold_the_counts_and_a_few_chunks(rng, construct):
    model = model_of(rng.normal(size=20_000), 0.14)
    grid = np.linspace(-4, 4, 256)
    # 20 MB of uint8 counts and the 2 MB output; the (n, m) contribution
    # matrix alone would take 41 MB (56 MB peak when it was built)
    assert traced_peak(lambda: construct(model, grid, 0.05, BootstrapPlan(1000, 3))) \
        < 32 * 2**20


def test_narrow_grids_draw_the_replicates_in_super_blocks(rng):
    # 2000 * 20 000 bytes of counts would be 40 MB, against a 2.6 MB matrix
    model = model_of(rng.normal(size=20_000), 0.14)
    grid, plan = np.linspace(-4, 4, 16), BootstrapPlan(2000, 3)
    rows = estimator.kernel_value_rows(model, grid)
    assert len(inference._super_blocks(plan, [rows])) > 1
    assert traced_peak(lambda: band_bootstrap(model, grid, 0.05, plan)) < 24 * 2**20


def row_sources(rng, n, m):
    """Each row source of the package at n observations and m points, with
    the matrix that holds all its rows."""
    model = model_of(rng.normal(size=n), 0.3)
    x = np.linspace(-3, 3, m)
    deb = DebiasedDensity(model)
    return {"kernel": (estimator.kernel_value_rows(model, x),
                       estimator.kernel_value_matrix(model, x)),
            "correction": (deb.correction_rows(x), deb.correction_matrix(x)),
            "cdf": (distfunc._cdf_rows(model, x), distfunc._cdf_terms(model, x))}


def assert_sums_close(got, counts, matrix, name):
    """got is counts @ matrix to a relative 1e-13 of the summed magnitudes,
    counts @ |matrix| (the correction terms are signed and cancel)."""
    error = np.abs(got - counts @ matrix)
    assert (error <= 1e-13 * (counts @ np.abs(matrix))).all(), (name, error.max())


@pytest.mark.parametrize("n,m", [(700, 33), (300, 1), (50, 7)])
def test_row_sources_form_the_rows_of_their_matrix(rng, n, m):
    for name, (rows, matrix) in row_sources(rng, n, m).items():
        assert rows.shape == matrix.shape, name
        for a, b in ((0, n), (0, 1), (n // 3, n // 2 + 1), (n - 1, n)):
            np.testing.assert_array_equal(rows[a:b], matrix[a:b], err_msg=name)
        # the column sums through the pair pass, without the matrix
        np.testing.assert_array_equal(rows.sums(), matrix.sum(axis=0), err_msg=name)


# (n, m, replicates, chunk values): 700 x 33 in 16-row chunks, with the 300
# replicates in super-blocks of 256 (their 210 kB of counts pass the 185 kB
# matrix); one column, which is one chunk; a group of one observation
@pytest.mark.parametrize("n,m,replicates,chunk", [(700, 33, 300, 33 * 16),
                                                  (700, 33, 40, 33 * 100),
                                                  (400, 1, 40, 16), (1, 5, 33, 16)])
def test_chunked_products_match_the_one_shot_product(monkeypatch, rng, n, m,
                                                     replicates, chunk):
    monkeypatch.setattr(inference, "_COUNT_BYTES", 0)
    monkeypatch.setattr(inference, "_CHUNK_ELEMENTS", chunk)
    plan = BootstrapPlan(replicates, 11)
    counts = one_shot_counts(plan, [n])[0]
    for name, (rows, matrix) in row_sources(rng, n, m).items():
        sums = []
        (got,) = inference._replicate_products(plan, [rows], sums)
        assert_sums_close(got, counts, matrix, name)
        np.testing.assert_array_equal(sums[0], matrix.sum(axis=0), err_msg=name)
        # an array passed for the rows gives the same bits
        (from_array,) = inference._replicate_products(plan, [matrix])
        np.testing.assert_array_equal(from_array, got, err_msg=name)


@pytest.mark.parametrize("sizes,replicates", [([700, 300], 129), ([2000], 300)])
def test_chunked_products_give_the_same_bits_on_any_number_of_workers(
        monkeypatch, rng, sizes, replicates):
    # 16-row chunks of 33 columns, product slices of 144, 80 and 48
    # replicates and draw blocks of 48, 16 and 16 on 1, 2 and 3 workers; 300
    # replicates of 2000 draws go in super-blocks of 256 (their 600 kB of
    # counts pass the 528 kB matrix)
    monkeypatch.setattr(inference, "_CHUNK_ELEMENTS", 33 * 16)
    monkeypatch.setattr(inference, "_COUNT_BYTES", 0)
    monkeypatch.setattr(inference, "_PRODUCT_ELEMENTS", 33 * 16 * 40)
    monkeypatch.setattr(inference, "_COUNT_BLOCK_ELEMENTS", 48 * sum(sizes))
    x = np.linspace(-3, 3, 33)
    sources = [estimator.kernel_value_rows(model_of(rng.normal(size=n), 0.3), x)
               for n in sizes]
    plan = BootstrapPlan(replicates, 5)

    def job():
        sums = []
        return inference._replicate_products(plan, sources, sums), sums

    first, *rest = on_each_worker_count(monkeypatch, job)
    for other in rest:
        for got, ref in zip(other[0] + other[1], first[0] + first[1]):
            np.testing.assert_array_equal(got, ref)
    for got, counts, source in zip(first[0], one_shot_counts(plan, sizes), sources):
        assert_sums_close(got, counts, source.matrix(), "kernel")


class ConstantWords:
    """A bit generator whose raw words are all one value."""

    def __init__(self, word):
        self.word = word

    def random_raw(self, size):
        return np.full(size, self.word, dtype=np.uint64)


def test_counts_a_byte_cannot_hold_are_refused(monkeypatch):
    # every draw of 301 from the word 2**31 is index 150 (no redraw: 2**31 * 301
    # mod 2**32 = 2**31), so one count is 301
    monkeypatch.setattr(inference, "_bit_generators", lambda seed, start, stop: (
        ConstantWords(0x8000000080000000) for _ in range(start, stop)))
    plan = BootstrapPlan(20, 0)
    (counts,) = inference._block_counts(plan, [301], 0, 20)  # float64: held
    assert (counts[:, 150] == 301).all()
    with pytest.raises(ValueError, match="256 times"):
        inference._replicate_products(plan, [np.ones((301, 3))])
