"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import functools
import json
import math

import numpy as np
import pytest
from scipy.stats import norm

from kdeforge import blocks, cli, distfunc, estimator, geometry, inference, simulate, topology
from kdeforge.bandwidth import amise_optimal_h, rule_of_thumb
from kdeforge.estimator import DensityModel, Sample
from kdeforge.inference import BootstrapPlan
from kdeforge.kernels import KernelFamily, KernelSpec

from conftest import fd_gradient, fd_jacobian, flood_fill_components

GAUSS1 = KernelSpec(KernelFamily.GAUSSIAN, 1)
GAUSS2 = KernelSpec(KernelFamily.GAUSSIAN, 2)
NORMAL_CURVATURE = 3.0 / (8.0 * math.sqrt(math.pi))


def _report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_mise_rate():
    sizes = [250, 1000, 4000]
    trials = 50
    xs = np.linspace(-5.0, 5.0, 512)
    truth = norm.pdf(xs)
    mise = []
    for n in sizes:
        h = amise_optimal_h(GAUSS1, NORMAL_CURVATURE, n)
        errs = np.empty(trials)
        for t in range(trials):
            rng = np.random.default_rng([1001, n, t])
            model = DensityModel(Sample(rng.normal(size=n)), GAUSS1, h)
            p_hat = estimator.density(model, xs[:, None])
            errs[t] = np.trapezoid((p_hat - truth) ** 2, xs)
        mise.append(errs.mean())
    slope = np.polyfit(np.log(sizes), np.log(mise), 1)[0]
    _report(1, "MISE rate n^(-4/5)", abs(slope + 0.8) <= 0.15,
            f"slope={slope:.3f} (want -0.8 +/- 0.15)")


def test_criterion_02_derivative_correctness():
    rng = np.random.default_rng(1002)
    model = DensityModel(Sample(rng.normal(size=(100, 2))), GAUSS2, 0.6)
    worst = 0.0
    ok = True
    for _ in range(100):
        x = rng.uniform(-1.5, 1.5, size=2)
        g = estimator.gradient_at(model, x)
        g_fd = fd_gradient(lambda q: estimator.density_at(model, q), x)
        hs = estimator.hessian_at(model, x)
        h_fd = fd_jacobian(lambda q: estimator.gradient(model, q[None, :])[0], x)
        for a, b in ((g, g_fd), (hs, h_fd)):
            err = np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-3))
            worst = max(worst, err)
            ok = ok and err <= 1e-6
    _report(2, "analytic derivatives vs finite differences", ok,
            f"max relative error={worst:.2e} (want <= 1e-6)")


@pytest.mark.parametrize("method,num", [("ci-plugin", 3),
                                        ("ci-bootstrap-plugin", 3),
                                        ("ci-bootstrap", 3)])
def test_criterion_03_pointwise_ci_coverage(method, num):
    report = simulate.simulate_coverage(
        "normal", 1000, method, 0.05, trials=300, seed=1003,
        replicates=500, eval_points=[0.0])
    ok = 0.92 <= report.coverage <= 0.98
    _report(num, f"pointwise CI coverage ({method})", ok,
            f"coverage={report.coverage:.3f} (want in [0.92, 0.98])")


def test_criterion_04_band_bootstrap_coverage():
    report = simulate.simulate_coverage(
        "normal", 1000, "band-bootstrap", 0.05, trials=200, seed=1004,
        replicates=500, grid_size=256)
    ok = report.coverage >= 0.92
    _report(4, "bootstrap band coverage of smoothed density", ok,
            f"coverage={report.coverage:.3f} (want >= 0.92)")


def _trial_outcomes(trial, trials: range) -> list:
    """[trial(t) for t in trials], for ``blocks.run_forked``."""
    return [trial(t) for t in trials]


def _run_trials(trial, count: int) -> np.ndarray:
    """trial(t) for t < count, one row each, the trials on every CPU."""
    parts = blocks.run_forked(functools.partial(_trial_outcomes, trial), count)
    return np.array([outcome for part in parts for outcome in part])


def _paired_band_trial(t: int) -> tuple:
    """Trial t of the paired band study: whether the plain and the debiased
    band cover the true density, and whether the debiased one is wider."""
    n, B = 2000, 500
    grid = np.linspace(-3.0, 3.0, 256)
    truth = norm.pdf(grid)
    rng = np.random.default_rng([1005, t])
    sample = Sample(rng.normal(size=n))
    h = rule_of_thumb(sample)
    plan = BootstrapPlan(B, int(rng.integers(2**63)))
    model = DensityModel(sample, GAUSS1, h)
    plain = inference.band_bootstrap(model, grid, 0.05, plan)
    deb = inference.band_debiased_bootstrap(model, grid, 0.05, plan)
    return (bool(np.all((plain.lower <= truth) & (truth <= plain.upper))),
            bool(np.all((deb.lower <= truth) & (truth <= deb.upper))),
            deb.halfwidth > plain.halfwidth)


@pytest.fixture(scope="module")
def paired_band_study():
    """Plain vs debiased bootstrap bands on shared samples and shared plans,
    both judged against the TRUE standard normal density."""
    plain_hits, debias_hits, wider = _run_trials(_paired_band_trial, 200).T
    return plain_hits.mean(), debias_hits.mean(), wider.mean()


def test_criterion_05_debiased_band_coverage(paired_band_study):
    plain_cov, debias_cov, wider_frac = paired_band_study
    ok = debias_cov >= 0.90 and wider_frac >= 0.60
    _report(5, "debiased band covers the true density and is wider", ok,
            f"coverage={debias_cov:.3f} (want >= 0.90), "
            f"wider on {wider_frac:.0%} of seeds (want >= 60%)")


def test_criterion_06_undercoverage_exhibit(paired_band_study):
    plain_cov, debias_cov, _ = paired_band_study
    ok = plain_cov <= debias_cov - 0.05
    _report(6, "plain band undercovers the true density", ok,
            f"plain={plain_cov:.3f}, debiased={debias_cov:.3f} "
            f"(want plain <= debiased - 0.05)")


def test_criterion_07_mode_recovery():
    rng = np.random.default_rng(1007)
    n = 400
    labels_true = rng.random(n) < 0.5
    data = np.where(labels_true, rng.normal(-5.0, 1.0, n),
                    rng.normal(5.0, 1.0, n))
    model = DensityModel(Sample(data), GAUSS1, 1.0)
    modes = geometry.find_modes(model)

    # oracle: the two largest local maxima of a fine evaluation grid
    axis = np.linspace(data.min() - 3, data.max() + 3, 4096)
    vals = estimator.evaluate_grid(model, axes=(axis,)).values
    is_max = np.r_[False, (vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:]),
                   False]
    peaks = axis[is_max][np.argsort(vals[is_max])[-2:]]
    peaks = np.sort(peaks)

    two = modes.n_modes == 2
    found = np.sort(modes.modes[:, 0]) if two else np.array([np.nan, np.nan])
    located = two and np.all(np.abs(found - peaks) < 0.1)

    # assignment accuracy against nearest-true-mean labeling
    acc = 0.0
    if two:
        left_id = int(np.argmin(found))  # mode index of the negative mode
        pred_left = modes.assignments == np.argsort(modes.modes[:, 0])[0]
        true_left = data < 0
        acc = np.mean(pred_left == true_left)
    ok = two and located and acc >= 0.99
    _report(7, "mode recovery and clustering accuracy", ok,
            f"modes={modes.n_modes}, max offset="
            f"{np.max(np.abs(found - peaks)):.4f} (want < 0.1), "
            f"accuracy={acc:.3f} (want >= 0.99)")


def test_criterion_08_cluster_tree_and_stability():
    rng = np.random.default_rng(1008)
    data = np.concatenate([rng.normal(-2.5, 1.0, 400), rng.normal(2.5, 1.0, 400)])
    model = DensityModel(Sample(data), GAUSS1, 0.6)
    grid = estimator.evaluate_grid(model, resolution=256)
    tree = topology.cluster_tree(grid)

    big = [nd for nd in tree.nodes
           if nd.birth - nd.death > 0.1 * grid.values.max()]
    two_leaves = len(big) == 2

    # flood-fill oracle for the merge level: highest grid value whose
    # superlevel set is connected while the set just above it is not
    child = min(big, key=lambda nd: nd.birth) if two_leaves else None
    merge_ok = False
    merge_detail = "n/a"
    if two_leaves:
        levels = np.unique(grid.values)[::-1]
        oracle = None
        seen_two = False
        for v in levels:
            mask = (grid.values >= v).reshape(grid.shape)
            k = flood_fill_components(mask)
            if k >= 2:
                seen_two = True
            elif seen_two and k == 1:
                oracle = v  # first level where the two components are joined
                break
        pos = np.searchsorted(levels[::-1], oracle)
        step = abs(levels[::-1][min(pos + 1, levels.size - 1)] - oracle)
        merge_ok = abs(child.death - oracle) <= step + 1e-12
        merge_detail = f"death={child.death:.5f} oracle={oracle:.5f}"

    stable = True
    worst = 0.0
    for t in range(20):
        noise = np.random.default_rng([1008, t]).uniform(
            -2e-3, 2e-3, size=grid.values.size)
        vals2 = np.maximum(grid.values + noise, 0.0)
        grid2 = estimator.EvalGrid(axes=grid.axes, points=grid.points,
                                   values=vals2)
        dist = topology.bottleneck_stability_check(grid, grid2)
        bound = np.max(np.abs(vals2 - grid.values))
        worst = max(worst, dist - bound)
        stable = stable and dist <= bound + 1e-12
    ok = two_leaves and merge_ok and stable
    _report(8, "cluster tree leaves, merge level, diagram stability", ok,
            f"leaves={len(big)}, {merge_detail}, "
            f"max stability excess={worst:.2e}")


def test_criterion_09_scms_ridge():
    rng = np.random.default_rng(1009)
    n, radius = 800, 3.0
    theta = rng.uniform(0, 2 * np.pi, n)
    data = radius * np.column_stack([np.cos(theta), np.sin(theta)])
    data += rng.normal(0, 0.15, size=(n, 2))
    h = 0.7
    model = DensityModel(Sample(data), GAUSS2, h)
    ridge = geometry.scms(model)

    radii = np.linalg.norm(ridge.points, axis=1)
    frac_close = np.mean(np.abs(radii - radius) < 0.2) if radii.size else 0.0
    tol = 1e-6 * estimator.density(model, data).max() / h
    conditions = (np.all(ridge.lambda2 < 0)
                  and np.all(ridge.projected_grad_norms <= tol))
    ok = ridge.points.shape[0] > 0 and frac_close >= 0.85 and conditions
    _report(9, "SCMS ridge recovery on circle data", ok,
            f"{ridge.points.shape[0]} ridge points, {frac_close:.0%} within 0.2 "
            f"(want >= 85%), conditions hold={conditions}")


def test_criterion_10_smoothed_cdf():
    rng = np.random.default_rng(1010)
    n = 5000
    data = rng.normal(size=n)
    h = n ** (-1.0 / 3.0)
    scdf = distfunc.SmoothedCDF(DensityModel(Sample(data), GAUSS1, h))
    xs = np.linspace(-4.0, 4.0, 321)
    fhat = distfunc.cdf_many(scdf, xs)
    sup_true = np.max(np.abs(fhat - norm.cdf(xs)))
    ecdf = np.searchsorted(np.sort(data), xs, side="right") / n
    sup_ecdf = np.max(np.abs(fhat - ecdf))
    ok = sup_true < 0.03 and sup_ecdf < 0.02
    _report(10, "smoothed CDF accuracy", ok,
            f"sup|F-F_true|={sup_true:.4f} (want < 0.03), "
            f"sup|F-ECDF|={sup_ecdf:.4f} (want < 0.02)")


def _roc_band_trial(t: int) -> bool:
    """Trial t of the identity case: whether the ROC band of two samples of
    one distribution covers the diagonal."""
    n_band = 500
    trng = np.random.default_rng([1011, t])
    g1 = Sample(trng.normal(size=n_band))
    g2 = Sample(trng.normal(size=n_band))
    hb = n_band ** (-0.2)
    plan = BootstrapPlan(200, int(trng.integers(2**63)))
    band = distfunc.roc_band(g1, g2, GAUSS1, hb, hb, 0.05, plan)
    diag = band.grid[:, 0]
    return bool(np.all((band.lower <= diag) & (diag <= band.upper)))


def test_criterion_11_roc_identity_and_value():
    rng = np.random.default_rng(1011)
    # identity: two samples from the same distribution
    a = Sample(rng.normal(size=2000))
    b = Sample(rng.normal(size=2000))
    h = 2000 ** (-0.2)
    roc = distfunc.roc_curve(a, b, GAUSS1, h, h)
    sup_id = np.max(np.abs(roc.values - roc.t))

    # population value: N(0,1) vs N(1,1) has ROC(0.5) = Phi(1) = 0.8413
    healthy = Sample(rng.normal(0.0, 1.0, 4000))
    diseased = Sample(rng.normal(1.0, 1.0, 4000))
    h2 = 4000 ** (-0.2)
    mid = distfunc.roc_curve(healthy, diseased, GAUSS1, h2, h2,
                             t_grid=np.array([0.5])).values[0]

    # identity-case band covers the diagonal
    trials = 100
    band_cov = int(_run_trials(_roc_band_trial, trials).sum()) / trials

    ok = sup_id < 0.03 and abs(mid - 0.8413) <= 0.05 and band_cov >= 0.90
    _report(11, "ROC identity, population value, band coverage", ok,
            f"sup|ROC-t|={sup_id:.4f} (want < 0.03), ROC(0.5)={mid:.4f} "
            f"(want 0.8413 +/- 0.05), band coverage={band_cov:.2f} "
            f"(want >= 0.90)")


def test_criterion_12_determinism(tmp_path, capsys):
    rng = np.random.default_rng(1012)
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(
        "\n".join(repr(float(v)) for v in rng.normal(size=250)) + "\n")

    byte_ok = True
    for argv in (
        ["band", "--input", str(csv_path), "--boot", "60", "--seed", "13",
         "--grid", "64"],
        ["ci", "--input", str(csv_path), "--method", "boot", "--boot", "60",
         "--seed", "13", "--grid", "64"],
        ["density", "--input", str(csv_path), "--grid", "64"],
    ):
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        assert cli.main(argv + ["--output", str(a)]) == 0
        assert cli.main(argv + ["--output", str(b)]) == 0
        byte_ok = byte_ok and a.read_bytes() == b.read_bytes()
    capsys.readouterr()

    # replicate streams are indexed, so evaluation order cannot matter:
    # computing the count rows in reverse must reproduce the forward matrix
    sample = Sample(rng.normal(size=100))
    plan = BootstrapPlan(40, 99)
    forward = inference.resample_counts(sample, plan)
    reverse = np.empty_like(forward)
    for r in reversed(range(plan.replicates)):
        reverse[r] = np.bincount(plan.rng(r).integers(0, 100, 100),
                                 minlength=100)
    order_ok = np.array_equal(forward, reverse)

    ok = byte_ok and order_ok
    _report(12, "seeded determinism (byte-identical, order-free)", ok,
            f"byte-identical={byte_ok}, order-independent={order_ok}")
