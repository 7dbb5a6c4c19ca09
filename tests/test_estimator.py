import math
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from kdeforge import blocks, distfunc, estimator, geometry, inference, kernels
from kdeforge.estimator import DensityModel, Sample
from kdeforge.inference import DebiasedDensity
from kdeforge.kernels import KernelFamily, KernelSpec, UnsupportedDerivativeError

from conftest import assert_block_error_reaches_caller, fd_gradient, on_each_worker_count

GAUSS1 = KernelSpec(KernelFamily.GAUSSIAN, 1)
GAUSS2 = KernelSpec(KernelFamily.GAUSSIAN, 2)


def gauss_model(data, h):
    data = np.asarray(data, dtype=float)
    dim = 1 if data.ndim == 1 else data.shape[1]
    return DensityModel(Sample(data), KernelSpec(KernelFamily.GAUSSIAN, dim), h)


def direct_sum_oracle(data, h, x):
    """Brute-force d=1 Gaussian KDE by plain Python summation."""
    total = 0.0
    for xi in data:
        u = (x - xi) / h
        total += math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)
    return total / (len(data) * h)


def test_single_point_density():
    model = gauss_model([0.0], 1.0)
    assert estimator.density_at(model, [0.0]) == pytest.approx(0.3989423, abs=1e-7)


def test_spherical_two_points():
    model = DensityModel(Sample(np.array([-1.0, 1.0])),
                         KernelSpec(KernelFamily.SPHERICAL, 1), 1.0)
    assert estimator.density_at(model, [0.0]) == pytest.approx(0.5)


def test_density_matches_direct_summation():
    data = [0.0, 1.0]
    model = gauss_model(data, 0.5)
    got = estimator.density_at(model, [0.3])
    assert got == pytest.approx(direct_sum_oracle(data, 0.5, 0.3), abs=1e-12)


def test_density_dimension_mismatch():
    model = gauss_model([0.0, 1.0], 0.5)
    with pytest.raises(ValueError):
        estimator.density_at(model, [0.0, 0.0])


def test_query_dimension_mismatch():
    # queries are checked where they enter the estimator, not per kernel call
    model = gauss_model(np.zeros((3, 2)), 0.5)
    with pytest.raises(ValueError, match="dimension"):
        estimator.density(model, [1.0])


def test_nonfinite_query_rejected():
    model = gauss_model([0.0, 1.0], 0.5)
    with pytest.raises(ValueError, match="finite"):
        estimator.density(model, [np.nan])


def test_derivative_single_point():
    model = gauss_model([0.0], 1.0)
    assert estimator.derivative_at(model, [0.0], [1]) == pytest.approx(0.0, abs=1e-15)
    assert estimator.derivative_at(model, [0.0], [2]) == pytest.approx(-0.3989423,
                                                                       abs=1e-7)


def test_derivative_matches_finite_differences(rng):
    model = gauss_model(rng.normal(size=50), 0.6)
    for x in rng.uniform(-2, 2, size=20):
        analytic = estimator.derivative_at(model, [x], [1])
        fd = fd_gradient(lambda q: estimator.density_at(model, q), np.array([x]))[0]
        assert analytic == pytest.approx(fd, rel=1e-6)


def test_derivative_order_and_kernel_limits():
    model = gauss_model([0.0], 1.0)
    with pytest.raises(ValueError, match="unsupported"):
        estimator.derivative_at(model, [0.0], [3])
    sph = DensityModel(Sample(np.array([0.0])),
                       KernelSpec(KernelFamily.SPHERICAL, 1), 1.0)
    with pytest.raises(UnsupportedDerivativeError):
        estimator.derivative_at(sph, [0.0], [1])


def test_gradient_hessian_laplacian(rng):
    data = rng.normal(size=(40, 2))
    model = DensityModel(Sample(data), GAUSS2, 0.7)

    origin_model = DensityModel(Sample(np.zeros((1, 2))), GAUSS2, 1.0)
    np.testing.assert_allclose(estimator.gradient_at(origin_model, [0.0, 0.0]), 0.0)

    for x in rng.uniform(-2, 2, size=(10, 2)):
        hess = estimator.hessian_at(model, x)
        np.testing.assert_array_equal(hess, hess.T)
        lap = np.trace(estimator.hessian_at(model, x))
        per_comp = sum(estimator.derivative_at(model, x, b)
                       for b in ([2, 0], [0, 2]))
        assert lap == pytest.approx(per_comp, abs=1e-12)
        assert lap == pytest.approx(np.trace(hess), abs=1e-12)

    # mixed second derivative agrees with the Hessian path
    x = np.array([0.4, -0.3])
    hess = estimator.hessian_at(model, x)
    assert estimator.derivative_at(model, x, [1, 1]) == pytest.approx(hess[0, 1],
                                                                      abs=1e-12)


def test_evaluate_grid_basics(rng):
    model = gauss_model(rng.normal(size=100), 0.5)
    single = estimator.evaluate_grid(model, axes=(np.array([0.25]),))
    assert single.values[0] == pytest.approx(estimator.density_at(model, [0.25]))

    grid = estimator.evaluate_grid(model, resolution=128)
    assert np.all(grid.values >= 0)
    assert grid.points.shape == (128, 1)

    with pytest.raises(ValueError, match="empty"):
        estimator.evaluate_grid(model, axes=(np.array([]),))


def test_grid_integrates_to_one(rng):
    model = gauss_model(rng.normal(size=200), 0.4)
    data = model.sample.data[:, 0]
    axis = np.linspace(data.min() - 6 * 0.4, data.max() + 6 * 0.4, 1024)
    grid = estimator.evaluate_grid(model, axes=(axis,))
    assert np.trapezoid(grid.values, axis) == pytest.approx(1.0, abs=1e-3)


def test_density_integrates_to_one_quadrature(rng):
    model = gauss_model(rng.normal(size=60), 0.5)
    total, _ = integrate.quad(lambda x: estimator.density_at(model, [x]),
                              -np.inf, np.inf, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_vanishes_far_away(rng):
    model = gauss_model(rng.normal(size=100), 0.5)
    data = model.sample.data[:, 0]
    far = max(abs(data.min()), abs(data.max())) + 10 * model.bandwidth
    assert estimator.density_at(model, [far]) < 1e-12


def test_duplication_invariance(rng):
    data = rng.normal(size=50)
    m1 = gauss_model(data, 0.5)
    m2 = gauss_model(np.concatenate([data, data]), 0.5)
    xs = np.linspace(-3, 3, 21)[:, None]
    np.testing.assert_allclose(estimator.density(m1, xs),
                               estimator.density(m2, xs), atol=1e-12)


def test_scaling_equivariance(rng):
    data = rng.normal(size=80)
    a, b = 2.5, -1.0
    m1 = gauss_model(data, 0.5)
    m2 = gauss_model(a * data + b, a * 0.5)
    for x in np.linspace(-2, 2, 11):
        lhs = estimator.density_at(m2, [a * x + b])
        rhs = estimator.density_at(m1, [x]) / a
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample(np.array([np.inf]))
    with pytest.raises(ValueError):
        Sample(np.empty((0, 1)))
    with pytest.raises(ValueError):
        DensityModel(Sample(np.array([0.0])), GAUSS1, -1.0)
    with pytest.raises(ValueError):
        DensityModel(Sample(np.array([0.0])), GAUSS2, 1.0)


# --- the pair pass: kernel sums and matrices in blocks ---


def dense_sums(model, x):
    """One-shot reference: the full (n, m, d) offset array, then reductions."""
    u = (x[None, :, :] - model.sample.data[:, None, :]) / model.bandwidth
    k = kernels.evaluate_many(model.kernel, u)
    return (k.sum(axis=0), np.einsum("nm,nmd->md", k, u),
            np.einsum("nm,nmd,nme->mde", k, u, u), k, u)


ENGINE_CASES = [  # (d, n, m); with 64-element blocks, n = 7 gives 9 queries a block
    (1, 7, 1), (1, 7, 19), (1, 7, 20), (1, 1, 130), (2, 7, 1), (2, 7, 19),
    (2, 7, 20), (2, 1, 5), (2, 40, 33), (3, 7, 19), (3, 1, 1), (3, 40, 17),
]


@pytest.mark.parametrize("family", [KernelFamily.GAUSSIAN, KernelFamily.SPHERICAL])
@pytest.mark.parametrize("d,n,m", ENGINE_CASES)
def test_blocked_sums_match_dense_reference(monkeypatch, rng, family, d, n, m):
    # Each size fits one block of the default size; with 64-element blocks
    # they span one to many blocks, with ragged and lone-query tails.
    data = rng.normal(size=(n, d))
    x = rng.normal(scale=1.5, size=(m, d))
    model = DensityModel(Sample(data), KernelSpec(family, d), 0.8)
    s0_ref, s1_ref, s2_ref, k_ref, u_ref = dense_sums(model, x)
    for block in (estimator._BLOCK_ELEMENTS, 64):
        monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", block)
        # order 0: bit for bit
        np.testing.assert_array_equal(estimator._kernel_sums(model, x, 0)[0], s0_ref)
        np.testing.assert_array_equal(estimator.density(model, x),
                                      s0_ref / (n * 0.8**d))
        np.testing.assert_array_equal(estimator.kernel_value_matrix(model, x), k_ref)
        if family is not KernelFamily.GAUSSIAN:
            continue
        np.testing.assert_array_equal(estimator.kernel_laplacian_matrix(model, x),
                                      (np.sum(u_ref**2, axis=-1) - d) * k_ref)
        # orders 1 and 2: within 1e-12 of the largest reference entry
        s0, s1, s2 = estimator._kernel_sums(model, x, 2)
        np.testing.assert_array_equal(s0, s0_ref)
        for got, ref in ((s1, s1_ref), (s2, s2_ref)):
            np.testing.assert_allclose(got, ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())
        np.testing.assert_allclose(estimator._kernel_sums(model, x, 1)[1], s1_ref,
                                   rtol=1e-12, atol=1e-12 * np.abs(s1_ref).max())
        grad_ref = -s1_ref / (n * 0.8 ** (d + 1))
        np.testing.assert_allclose(estimator.gradient(model, x), grad_ref,
                                   rtol=1e-12, atol=1e-12 * np.abs(grad_ref).max())
        hess_ref = (s2_ref[0] - np.eye(d) * s0_ref[0]) / (n * 0.8 ** (d + 2))
        np.testing.assert_allclose(estimator.hessian_at(model, x[0]), hess_ref,
                                   rtol=1e-12, atol=1e-12 * np.abs(hess_ref).max())


def order_two_sums(model, x, order):
    """The kernel sums of order <= 2 as the pair pass formed them before it
    went to order three: the bits those sums must keep."""
    m, d = x.shape
    sums = [np.empty((m,) + (d,) * k) for k in range(order + 1)]

    def fill(rows, u):
        sq = estimator._squared_norm(u)
        k = kernels.evaluate_sq(model.kernel, sq, out=sq)
        sums[0][rows] = k.sum(axis=0)
        for l in range(d if order >= 1 else 0):
            sums[1][rows, l] = np.einsum("ij,ij->j", k, u[l])
            if order == 2:
                ku = k * u[l]
                for j in range(l + 1):
                    sums[2][rows, l, j] = sums[2][rows, j, l] = np.einsum(
                        "ij,ij->j", ku, u[j])

    estimator._pairs(model, x, fill)
    return tuple(sums)


@pytest.mark.parametrize("d,n,m", ENGINE_CASES)
def test_kernel_sums_to_order_two_keep_their_bits(monkeypatch, rng, d, n, m):
    model = DensityModel(Sample(rng.normal(size=(n, d))), KernelSpec(KernelFamily.GAUSSIAN, d), 0.8)
    x = rng.normal(scale=1.5, size=(m, d))
    for block in (estimator._BLOCK_ELEMENTS, 64):
        monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", block)
        for order in (0, 1, 2):
            for got, ref in zip(estimator._kernel_sums(model, x, order),
                                order_two_sums(model, x, order), strict=True):
                np.testing.assert_array_equal(got, ref)
        # order 3 adds s3 and leaves the lower sums as they are
        *lower, s3 = estimator._kernel_sums(model, x, 3)
        for got, ref in zip(lower, order_two_sums(model, x, 2), strict=True):
            np.testing.assert_array_equal(got, ref)
        _, _, _, k, u = dense_sums(model, x)
        s3_ref = np.einsum("nm,nmd,nme,nmf->mdef", k, u, u, u)
        np.testing.assert_allclose(s3, s3_ref, rtol=1e-12, atol=1e-12 * np.abs(s3_ref).max())
        assert np.array_equal(s3, s3.transpose(0, 2, 1, 3))
        assert np.array_equal(s3, s3.transpose(0, 3, 2, 1))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_third_order_sums_match_hessian_differences(rng, d):
    # D^3 p_hat = -(s3_abc - s1_a delta_bc - s1_b delta_ac - s1_c delta_ab) / (n h^(d+3))
    n, h, step = 60, 0.7, 1e-5
    model = DensityModel(Sample(rng.normal(size=(n, d))), KernelSpec(KernelFamily.GAUSSIAN, d), h)
    x = rng.normal(size=(4, d))
    _, s1, _, s3 = estimator._kernel_sums(model, x, 3)
    eye = np.eye(d)
    s1_terms = (np.einsum("ma,bc->mabc", s1, eye) + np.einsum("mb,ac->mabc", s1, eye)
                + np.einsum("mc,ab->mabc", s1, eye))
    third = -(s3 - s1_terms) / (n * h ** (d + 3))
    for j, point in enumerate(x):
        for a in range(d):
            e = np.zeros(d)
            e[a] = step
            fd = (estimator.hessian_at(model, point + e)
                  - estimator.hessian_at(model, point - e)) / (2 * step)
            np.testing.assert_allclose(third[j, a], fd, rtol=1e-6,
                                       atol=1e-6 * np.abs(third).max())


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("total,unit,budget,floor,align", [
    (33, 41, 6 * 41, 2, 1), (41, 33, 6 * 33, 2, 1), (1, 7, 64, 2, 1), (2, 500, 64, 2, 1),
    (137, 30, 16 * 6 * 30, 16, 16), (129, 30, 16 * 6 * 30, 16, 16),
    (1000, 20_000, 2**21, 16, 16), (256, 20_000, 2**18, 2, 1), (41, 0, 64, 2, 1)])
def test_split_shares_the_budget_among_workers(monkeypatch, cpus, total, unit,
                                               budget, floor, align):
    monkeypatch.setattr(blocks, "cpus", lambda: cpus)
    slices, workers = blocks.split(total, unit, budget, floor, align)
    assert slices[0].start == 0 and slices[-1].stop == total
    assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
    assert all(s.start % align == 0 for s in slices)
    assert all(s.stop - s.start >= min(2, total) for s in slices)
    if len(slices) == 1:  # a job of one slice runs inline
        assert workers == 1
        return
    size = slices[0].stop - slices[0].start
    assert all(s.stop - s.start == size for s in slices[:-1])
    assert 1 <= workers <= min(cpus, len(slices))
    # the slices in flight hold what one slice of the whole budget would, and
    # none holds fewer than ``floor`` items
    assert workers * size * unit <= max(floor * unit, budget)
    assert size >= floor


def run_graph_within(tasks, workers, seconds=60):
    """blocks.run_graph(tasks, workers) on a thread joined with a timeout;
    returns what it raised, or None."""
    raised = []

    def call():
        try:
            blocks.run_graph(tasks, workers)
        except BaseException as exc:
            raised.append(exc)

    thread = threading.Thread(target=call)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), "run_graph did not finish"
    return raised[0] if raised else None


def test_run_graph_runs_each_task_after_its_dependencies():
    # 8 workers on any machine, switching threads every microsecond: a task
    # that started before one of its dependencies finished would see it
    # missing from ``finished``
    picks = random.Random(0)
    deps = [sorted(picks.sample(range(i), min(i, 3))) for i in range(400)]
    finished, started = set(), []

    def task(i, fail=None):
        def fn():
            started.append(i)
            if not all(d in finished for d in deps[i]):
                raise AssertionError(f"task {i} ran before its dependencies")
            if i == fail:
                raise error
            finished.add(i)
        return fn

    error = ValueError("task")
    interval, threads = sys.getswitchinterval(), threading.active_count()
    sys.setswitchinterval(1e-6)
    try:
        assert run_graph_within([(task(i), d) for i, d in enumerate(deps)], 8) is None
        assert finished == set(range(400))
        # a failed task reaches the caller as raised, and no task that needs
        # it runs
        finished.clear()
        started.clear()
        assert run_graph_within([(task(i, 150), d) for i, d in enumerate(deps)], 8) is error
        after = {i for i, d in enumerate(deps) if 150 in d}
        assert after and not after & set(started)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads


def _sums(order):
    return lambda model, x: estimator._kernel_sums(model, x, order)


# Every fill of the pair pass and of the row sources' matrix walk
# (``PairRows.matrix``): its results at the (m, d) queries x, whether
# it is an (n, m) matrix (else a reduction over n, one entry per query), and
# the module and name of the function its slices call.
PASS_FILLS = {
    "kernel_sums_0": (_sums(0), False, estimator, "evaluate_sq"),
    "kernel_sums_1": (_sums(1), False, estimator, "evaluate_sq"),
    "kernel_sums_2": (_sums(2), False, estimator, "evaluate_sq"),
    "kernel_sums_3": (_sums(3), False, estimator, "evaluate_sq"),
    "kernel_value_matrix": (lambda model, x: (estimator.kernel_value_matrix(model, x),),
                            True, estimator, "evaluate_sq"),
    "kernel_value_sums": (lambda model, x: (estimator.kernel_value_rows(model, x).sums(),),
                          False, estimator, "evaluate_sq"),
    "kernel_laplacian_matrix": (
        lambda model, x: (estimator.kernel_laplacian_matrix(model, x),),
        True, estimator, "evaluate_sq"),
    "correction_matrix": (lambda model, x: (DebiasedDensity(model).correction_matrix(x),),
                          True, kernels, "evaluate_sq"),
    "debiased_density": (lambda model, x: (DebiasedDensity(model).evaluate(x),),
                         False, kernels, "evaluate_sq"),
    "cdf_terms": (lambda model, x: (distfunc._cdf_terms(model, x[:, 0]),),
                  True, distfunc, "integrated"),
    "cdf_values": (lambda model, x: (distfunc._cdf_values(model, x[:, 0]),),
                   False, distfunc, "integrated"),
}
PASS_CASES = [  # the CDF fills are 1-d; the others all take the Gaussian kernel
    *(pytest.param(fill, d, KernelFamily.GAUSSIAN, id=f"{fill}-d{d}")
      for fill in PASS_FILLS if not fill.startswith("cdf") for d in (1, 2, 3)),
    *(pytest.param(fill, 1, family, id=f"{fill}-{family.value}")
      for fill in ("cdf_terms", "cdf_values") for family in KernelFamily),
]


@pytest.mark.parametrize("fill,d,family", PASS_CASES)
def test_pair_pass_fill(monkeypatch, rng, fill, d, family):
    # 6 n values a budget: on 3 workers, 2-query slices of the 33 queries and
    # 2-row slices of the 41 sample rows, each ending in a lone item that
    # joins the slice before it
    job, matrix, owner, name = PASS_FILLS[fill]
    model = DensityModel(Sample(rng.normal(size=(41, d))), KernelSpec(family, d), 0.7)
    x = rng.normal(scale=1.5, size=(33, d))
    monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", 6 * 41)
    # the same bits on 1, 2 and 3 workers, and in one block
    first, *rest = on_each_worker_count(monkeypatch, lambda: job(model, x))
    for other in rest:
        for got, ref in zip(other, first):
            np.testing.assert_array_equal(got, ref)
    monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", 2**18)
    for got, ref in zip(job(model, x), first):
        np.testing.assert_array_equal(got, ref)
    # no queries, no entries
    for empty in job(model, np.empty((0, d))):
        assert (empty.shape == (41, 0)) if matrix else (empty.shape[0] == 0)
    # an error in a slice reaches the caller as raised
    monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", 6 * 41)
    assert_block_error_reaches_caller(monkeypatch, owner, name, lambda: job(model, x))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 33])
def test_tiles_keep_the_bits_of_one_tile(monkeypatch, rng, d, m):
    # with a budget of 5 values a tile, 2 to 5 sample rows a tile and one
    # carried row: every sum over n must keep the bits of one tile of all 41
    model = DensityModel(Sample(rng.normal(size=(41, d))), KernelSpec(KernelFamily.GAUSSIAN, d), 0.7)
    x = rng.normal(scale=1.5, size=(m, d))
    jobs = [_sums(order) for order in range(4)]
    if m > 1:  # the reductions of PASS_FILLS (CDF fills at d = 1 only)
        jobs += [PASS_FILLS[fill][0] for fill in PASS_FILLS if not PASS_FILLS[fill][1]
                 and not (fill.startswith("cdf") and d > 1)]
    for job in jobs:
        whole = job(model, x)
        monkeypatch.setattr(estimator, "_TILE_ELEMENTS", 5)
        for tiled in on_each_worker_count(monkeypatch, lambda: job(model, x)):
            for got, ref in zip(tiled, whole, strict=True):
                np.testing.assert_array_equal(got, ref)
        monkeypatch.setattr(estimator, "_TILE_ELEMENTS", 2**15)


def test_kernel_sums_scratch_is_bounded(monkeypatch, rng):
    # n = 20 000 and 256 queries: each worker holds one scratch area of d + 3
    # tile arrays of about _TILE_ELEMENTS values (1.3 MB at d = 2), and numpy
    # the buffer of a broadcast subtraction (142 KB), where one (n, b) query
    # slice temporary alone took 2 MB
    n, m, d = 20_000, 256, 2
    model = DensityModel(Sample(rng.normal(size=(n, d))), GAUSS2, 0.3)
    x = rng.normal(size=(m, d))
    outputs = m * (1 + d + d * d + d ** 3 + math.comb(d + 2, 3)) * 8
    for workers in (1, 2):
        monkeypatch.setattr(blocks, "cpus", lambda: workers)
        # a tile of r rows and b <= m queries, with its carried row
        scratch = (d + 3) * (estimator._TILE_ELEMENTS + m) * 8 + 256 * 2**10
        estimator._kernel_sums(model, x, 3)  # the executor's lazy import, untraced
        tracemalloc.start()
        try:
            estimator._kernel_sums(model, x, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= workers * scratch + 2 * outputs


@pytest.mark.parametrize("h", [1e150, np.float64(1e150)])
def test_bandwidth_powers_that_overflow_are_data_range_errors(h):
    model = DensityModel(Sample(np.array([[0.0, 0.0], [1.0, 1.0]])), GAUSS2, h)
    assert estimator._bandwidth_power(model, 2) == 1e150 ** 2
    with pytest.raises(estimator.DataRangeError, match=r"h\^3 overflows .*h = 1e\+150, d = 2"):
        estimator._bandwidth_power(model, 3)
    with pytest.raises(estimator.DataRangeError, match=r"h\^4"):
        estimator.hessian_at(model, [0.0, 0.0])


def test_grid_evaluation_memory_is_bounded(rng):
    model = DensityModel(Sample(rng.normal(size=(400, 2))), GAUSS2, 0.4)
    tracemalloc.start()
    try:
        grid = estimator.evaluate_grid(model, resolution=256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.values.shape == (256 * 256,)
    # a dense (n, m, d) offset array alone would take 400 * 256^2 * 2 * 8 B = 420 MB
    assert peak < 64 * 2**20


# --- the separable Gaussian grid path ---

# (d, n, grid shape).  With 64-element blocks, (2, 50, (1, 17)) walks 16 blocks
# of 3 rows and one of 2, and (2, 50, (16, 1)) 12 blocks of 4 and one of 2.
FACTOR_CASES = [
    (1, 1, (37,)), (1, 50, (1,)), (1, 50, (200,)), (2, 1, (9, 13)),
    (2, 50, (1, 17)), (2, 50, (16, 1)), (2, 60, (24, 31)), (3, 1, (5, 4, 3)),
    (3, 40, (7, 1, 6)), (3, 40, (9, 8, 7)),
]


def engine_grid(model, axes):
    return estimator.density(model, estimator.grid_points(axes))


@pytest.mark.parametrize("d,n,shape", FACTOR_CASES)
def test_factor_grid_matches_engine(monkeypatch, rng, d, n, shape):
    data = rng.normal(size=(n, d))
    model = DensityModel(Sample(data), KernelSpec(KernelFamily.GAUSSIAN, d), 0.7)
    axes = tuple(np.sort(rng.uniform(-3, 3, size=g)) for g in shape)
    ref = engine_grid(model, axes)
    # the default block holds every row; 64-element blocks hold a few rows each
    for block in (estimator._BLOCK_ELEMENTS, 64):
        monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", block)
        grid = estimator.evaluate_grid(model, axes)
        assert grid.shape == shape
        np.testing.assert_array_equal(grid.points, estimator.grid_points(axes))
        np.testing.assert_allclose(grid.values, ref, rtol=0, atol=1e-13 * ref.max())


@pytest.mark.parametrize("second", [None, 0])
@pytest.mark.parametrize("d,n,shape", FACTOR_CASES)
def test_factor_blocks_give_the_same_bits_on_any_number_of_workers(monkeypatch, rng, d, n,
                                                                    shape, second):
    model = DensityModel(Sample(rng.normal(size=(n, d))), KernelSpec(KernelFamily.GAUSSIAN, d), 0.7)
    axes = tuple(np.sort(rng.uniform(-3, 3, size=g)) for g in shape)
    monkeypatch.setattr(estimator, "_BLOCK_ELEMENTS", 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # forms that share the scratch pool interleave
    try:
        first, *rest = on_each_worker_count(
            monkeypatch, lambda: estimator._factor_sums(model, axes, second), (1, 2, 3, 8))
    finally:
        sys.setswitchinterval(interval)
    for other in rest:
        np.testing.assert_array_equal(other, first)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_factor_grid_far_from_data_is_zero(rng, d):
    model = DensityModel(Sample(rng.normal(size=(30, d))),
                         KernelSpec(KernelFamily.GAUSSIAN, d), 0.5)
    axes = tuple(np.linspace(100.0, 110.0, 6) for _ in range(d))
    grid = estimator.evaluate_grid(model, axes)
    np.testing.assert_array_equal(grid.values, 0.0)
    np.testing.assert_array_equal(engine_grid(model, axes), 0.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_factor_flush_is_below_its_stated_bound(rng, d):
    # At 15 to 45 bandwidths from the data the engine still sums normal,
    # subnormal or zero kernel values; the grid path drops pairs whose
    # factors fall below exp(-700 / d) and must stay within that of the peak.
    # Pointwise, exp(-||u||^2 / 2) against a product of per-axis exps differs
    # by up to ||u||^2 / 2 ulps, about 1e-13 at ||u||^2 = 1400.
    model = DensityModel(Sample(rng.normal(scale=0.1, size=(30, d))),
                         KernelSpec(KernelFamily.GAUSSIAN, d), 0.5)
    axes = tuple(np.linspace(7.5, 22.5, 31) for _ in range(d))
    peak = 1.0 / (model.bandwidth**d * model.kernel.normalizer)
    ref = engine_grid(model, axes)
    assert ref.max() > 0.0
    got = estimator.evaluate_grid(model, axes).values
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=math.exp(-700.0 / d) * peak)


@pytest.mark.parametrize("d,shape", [(1, (41,)), (2, (12, 1)), (2, (15, 17)),
                                     (3, (5, 6, 4))])
def test_spherical_grid_stays_on_the_engine(rng, d, shape):
    model = DensityModel(Sample(rng.normal(size=(40, d))),
                         KernelSpec(KernelFamily.SPHERICAL, d), 0.9)
    axes = tuple(np.linspace(-2.5, 2.5, g) for g in shape)
    np.testing.assert_array_equal(estimator.evaluate_grid(model, axes).values,
                                  engine_grid(model, axes))


def test_factor_grid_memory_is_bounded(rng):
    model = DensityModel(Sample(rng.normal(size=(100_000, 2))), GAUSS2, 0.1)
    tracemalloc.start()
    try:
        grid = estimator.evaluate_grid(model, resolution=256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.values.shape == (256 * 256,)
    # an (n, G^2) kernel block would take 100 000 * 256^2 * 8 B = 52 GB
    assert peak < 32 * 2**20


# --- query points: one reader for every evaluation ---


def _one_d_model(h=0.4):
    return gauss_model(np.random.default_rng(21).normal(size=80), h)


def _two_d_model():
    return gauss_model(np.random.default_rng(22).normal(size=(60, 2)), 0.5)


def _constructions():
    plan = inference.BootstrapPlan(40, 9)
    return {
        "ci_plugin": lambda m, g: inference.ci_plugin(m, g, 0.1),
        "ci_bootstrap_plugin": lambda m, g: inference.ci_bootstrap_plugin(m, g, 0.1, plan),
        "ci_bootstrap": lambda m, g: inference.ci_bootstrap(m, g, 0.1, plan),
        "band_plugin_evt": lambda m, g: inference.band_plugin_evt(m, g, 0.1),
        "band_bootstrap": lambda m, g: inference.band_bootstrap(m, g, 0.1, plan),
        "band_debiased_bootstrap":
            lambda m, g: inference.band_debiased_bootstrap(m, g, 0.1, plan),
    }


def _features(model, queries):
    """What each evaluation returns for ``queries``, as arrays."""
    modes = geometry.find_modes(model, starts=queries)
    return {
        "density": estimator.density(model, queries),
        "gradient": estimator.gradient(model, queries),
        "kernel_value_matrix": estimator.kernel_value_matrix(model, queries),
        "debiased": DebiasedDensity(model).evaluate(queries),
        "modes": modes.modes, "assignments": modes.assignments,
        "cdf_many": distfunc.cdf_many(distfunc.SmoothedCDF(model), queries),
        **{name: np.stack([r.grid[:, 0], r.center, r.lower, r.upper])
           for name, build in _constructions().items()
           for r in [build(model, queries)]},
    }


def test_1d_array_is_m_points_on_a_1d_model():
    model, xs = _one_d_model(), np.array([-1.3, -0.2, 0.05, 0.9, 2.2])
    flat, column = _features(model, xs), _features(model, xs[:, None])
    assert flat.keys() == column.keys()
    for name in flat:
        np.testing.assert_array_equal(flat[name], column[name], err_msg=name)
    assert estimator.density(model, xs).shape == (5,)
    assert estimator.density(model, 0.3).shape == (1,)  # a scalar is one point


def test_1d_array_is_one_point_on_a_2d_model():
    model, x = _two_d_model(), np.array([0.3, -0.4])
    for fn in (estimator.density, estimator.gradient, estimator.kernel_value_matrix):
        np.testing.assert_array_equal(fn(model, x), fn(model, x[None, :]))
    np.testing.assert_array_equal(geometry.find_modes(model, starts=x).modes,
                                  geometry.find_modes(model, starts=x[None, :]).modes)
    assert inference.ci_plugin(model, x, 0.1).grid.shape == (1, 2)


@pytest.mark.parametrize("queries,message", [
    (np.zeros(3), "query dimension 3 != model dim 2"),
    (np.zeros((4, 3)), "query dimension 3 != model dim 2"),
    (np.zeros((2, 2, 2)), "query array has 3 dimensions, more than 2"),
])
def test_wrong_query_shapes_name_the_dimension(queries, message):
    model = _two_d_model()
    for call in (lambda: estimator.density(model, queries),
                 lambda: estimator.gradient(model, queries),
                 lambda: estimator.kernel_value_matrix(model, queries),
                 lambda: geometry.find_modes(model, starts=queries),
                 lambda: inference.ci_plugin(model, queries, 0.1)):
        with pytest.raises(ValueError, match=message):
            call()


def test_cdf_many_refuses_several_columns():
    scdf = distfunc.SmoothedCDF(_one_d_model())
    with pytest.raises(ValueError, match="query dimension 2 != model dim 1"):
        distfunc.cdf_many(scdf, np.zeros((4, 2)))


SINGLE_POINT = {
    "density_at": estimator.density_at,
    "gradient_at": estimator.gradient_at,
    "hessian_at": estimator.hessian_at,
    "derivative_at": lambda m, x: estimator.derivative_at(m, x, [2] + [0] * (m.dim - 1)),
    "mean_shift": geometry.mean_shift,
    "DebiasedDensity": lambda m, x: DebiasedDensity(m)(x),
    "cdf_at": lambda m, x: distfunc.cdf_at(distfunc.SmoothedCDF(m), x),
}


@pytest.mark.parametrize("name,dim", [(name, 1) for name in SINGLE_POINT]
                         + [(name, 2) for name in SINGLE_POINT if name != "cdf_at"])
def test_single_point_functions_refuse_two_points(name, dim):
    model = _one_d_model() if dim == 1 else _two_d_model()
    one = [0.2] if dim == 1 else [0.2, -0.1]
    two = [0.2, 0.5] if dim == 1 else [[0.2, -0.1], [0.5, 0.3]]
    SINGLE_POINT[name](model, one)  # one point is read
    with pytest.raises(ValueError, match="expected one query point, got 2"):
        SINGLE_POINT[name](model, two)
