"""Artifact checks, each against a computation made here with numpy/scipy
from the method's definition, or against a property the method must have.

Nothing is compared with a stored copy of earlier output.  Each check
function returns a list of failure messages; an empty list means every
artifact passed.  Bootstrap results are recomputed on the replicate stream
that ``BootstrapPlan`` documents (replicate r draws from the stream derived
from (seed, r)), so their tolerances are at rounding level.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque
from pathlib import Path

import numpy as np
from scipy.special import ndtr
from scipy.stats import binom

from workloads import BI_CENTRES, rot_bandwidth

SQRT2PI = math.sqrt(2.0 * math.pi)
ALPHA = 0.05  # the CLI default for every band, interval and simulation here


class Failures(list):
    """Failure messages; ``require`` records one when its condition is false."""

    def require(self, ok, message):
        if not ok:
            self.append(message)


def _load(path: Path) -> np.ndarray:
    """CSV with a header row, as a float array (non-numeric cells excluded)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in r] for r in rows[1:]], dtype=float)


def _close(a, b, tol, scale=None) -> bool:
    """max |a - b| <= tol * scale, with scale = max |b| unless given."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    if a.shape != b.shape:
        return False
    if scale is None:
        scale = max(float(np.max(np.abs(b))), 1e-300)
    return bool(np.max(np.abs(a - b)) <= tol * scale)


def _kde_terms(data, h, x, order=0):
    """Per-observation Gaussian KDE terms at query points, as an (n, m) array.

    order 0: K(u) / (n h^d); order 2 (d = 1 only): the debiased term
    (K(u) - (1/2) K''(u)) / (n h), with K''(u) = (u^2 - 1) K(u).
    """
    data = np.asarray(data, float).reshape(len(data), -1)
    x = np.asarray(x, float).reshape(len(x), -1)
    n, d = data.shape
    sq = np.zeros((n, x.shape[0]))
    for l in range(d):
        sq += np.subtract.outer(data[:, l], x[:, l]) ** 2
    sq /= h * h
    k = np.exp(-0.5 * sq) / (2.0 * math.pi) ** (d / 2.0)
    if order == 2:
        k = k - 0.5 * (sq - 1.0) * k
    return k / (n * h**d)


def _kde(data, h, x, chunk=2048):
    x = np.asarray(x, float).reshape(len(x), -1)
    return np.concatenate([_kde_terms(data, h, x[i:i + chunk]).sum(axis=0)
                           for i in range(0, len(x), chunk)])


def _kde_derivs(data, h, x):
    """Gradient and Hessian of the 2-D Gaussian KDE at one point."""
    u = (np.asarray(x, float)[None, :] - data) / h
    k = np.exp(-0.5 * np.sum(u * u, axis=1)) / (2.0 * math.pi)
    scale = len(data) * h**2
    grad = -(u * k[:, None]).sum(axis=0) / (scale * h)
    hess = ((u[:, :, None] * u[:, None, :] * k[:, None, None]).sum(axis=0)
            - np.eye(2) * k.sum()) / (scale * h * h)
    return grad, hess


def _replicate_counts(seed: int, n: int, replicates: int) -> np.ndarray:
    """(B, n) multiplicities: replicate r draws n indices from stream (seed, r)."""
    out = np.empty((replicates, n))
    for r in range(replicates):
        idx = np.random.default_rng([seed, r]).integers(0, n, n)
        out[r] = np.bincount(idx, minlength=n)
    return out


def _order_stat(values, alpha=ALPHA, axis=0):
    """The ceil((1 - alpha) B)-th smallest value along ``axis``."""
    b = values.shape[axis]
    return np.sort(values, axis=axis).take(math.ceil((1 - alpha) * b) - 1, axis=axis)


def _axis(data, h, resolution, padding=3.0):
    return np.linspace(data.min() - padding * h, data.max() + padding * h, resolution)


def _components(mask: np.ndarray) -> np.ndarray:
    """Face-adjacent components of a 2-D mask by breadth-first flood fill.

    Returns labels 0..k-1 in raster order of first cell, -1 outside.
    """
    labels = np.full(mask.shape, -1, dtype=int)
    rows, cols = mask.shape
    k = 0
    for i0, j0 in zip(*np.nonzero(mask)):
        if labels[i0, j0] >= 0:
            continue
        labels[i0, j0] = k
        queue = deque([(i0, j0)])
        while queue:
            i, j = queue.popleft()
            for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if 0 <= a < rows and 0 <= b < cols and mask[a, b] and labels[a, b] < 0:
                    labels[a, b] = k
                    queue.append((a, b))
        k += 1
    return labels


def _same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """Labelings agree up to renaming (both use -1 for 'outside')."""
    a, b = a.ravel(), b.ravel()
    if not np.array_equal(a < 0, b < 0):
        return False
    pairs = set(zip(a[a >= 0].tolist(), b[b >= 0].tolist()))
    return len(pairs) == len({p[0] for p in pairs}) == len({p[1] for p in pairs})


def _neighbours(values: np.ndarray, fill: float) -> np.ndarray:
    """Stack of the 4 face neighbours of each cell, ``fill`` off the grid."""
    p = np.pad(values, 1, constant_values=fill)
    return np.stack([p[:-2, 1:-1], p[2:, 1:-1], p[1:-1, :-2], p[1:-1, 2:]])


# --------------------------------------------------------------------------
# uni-inference


def _bisect_inverse(cdf, q, lo, hi, iters=200):
    """Vectorized bisection for cdf(x) = q on [lo, hi]."""
    lo = np.full_like(q, lo)
    hi = np.full_like(q, hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.all(hi - lo <= 1e-13 * np.maximum(1.0, np.abs(mid))):
            break
    return 0.5 * (lo + hi)


def check_uni(out: Path, params: dict, stdout: dict) -> Failures:
    f = Failures()
    big = _load(out / "uni.csv")[:, 0]
    small = _load(out / "uni_lscv.csv")[:, 0]
    n = big.size
    seed, boot, res = params["seed"], params["boot"], params["grid"]

    # LSCV: the choice is the argmin of CV(h) recomputed over the same
    # candidates, CV(h) = int p_hat^2 - (2/n) sum_i p_hat_{-i}(X_i).
    lo, hi, count = params["lscv_grid"].split(":")
    cands = np.geomspace(float(lo), float(hi), int(count))
    i, j = np.triu_indices(small.size, 1)
    d2 = (small[i] - small[j]) ** 2
    m = small.size
    scores = []
    for h in cands:
        int_p2 = (m + 2 * np.exp(-d2 / (4 * h * h)).sum()) / (m * m * 2 * h * math.sqrt(math.pi))
        loo = 2 * np.exp(-d2 / (2 * h * h)).sum() / (m * (m - 1) * SQRT2PI * h)
        scores.append(int_p2 - 2 * loo)
    scores = np.array(scores)
    chosen = json.loads((out / "bw_lscv.json").read_text())["bandwidth"]
    k = int(np.argmin(np.abs(cands - chosen)))
    f.require(abs(cands[k] - chosen) <= 1e-12 * chosen, "lscv: h is not a candidate")
    f.require(scores[k] <= scores.min() + 1e-9 * abs(scores.min()),
              f"lscv: h={chosen} is not the argmin of recomputed CV scores")
    f.require(0 < k < cands.size - 1, "lscv: argmin at the edge of the candidate grid")

    # AMISE plug-in: h = (mu_k / (R n))^(1/5) with mu_k = 1/(2 sqrt(pi)) and
    # R = int p_g''(x)^2 dx for the pilot g = 1.2 x rule of thumb; R by
    # Simpson's rule on a fine grid, with p_g'' from its definition.
    g = 1.2 * rot_bandwidth(big)
    xs = np.linspace(big.min() - 8 * g, big.max() + 8 * g, 1025)
    p2 = np.empty(xs.size)
    for a in range(0, xs.size, 256):
        u = np.subtract.outer(xs[a:a + 256], big) / g
        p2[a:a + 256] = ((u * u - 1.0) * np.exp(-0.5 * u * u)).sum(axis=1)
    p2 /= n * g**3 * SQRT2PI
    w = np.ones(xs.size)
    w[1:-1:2], w[2:-1:2] = 4, 2
    curv = float((w * p2**2).sum() * (xs[1] - xs[0]) / 3)
    h_plugin = (1 / (2 * math.sqrt(math.pi)) / (curv * n)) ** 0.2
    got = json.loads((out / "bw_plugin.json").read_text())["bandwidth"]
    f.require(abs(got - h_plugin) <= 1e-4 * h_plugin,
              f"plugin: h={got} vs recomputed {h_plugin}")

    # Bootstrap constructions at the rule-of-thumb bandwidth on the default
    # axis (data range +/- 3h), recomputed on the documented replicate stream.
    h = rot_bandwidth(big)
    axis = _axis(big, h, res)
    counts = _replicate_counts(seed, n, boot)
    phi = _kde_terms(big, h, axis)
    center = phi.sum(axis=0)
    deb = _kde_terms(big, h, axis, order=2)
    deb_center = deb.sum(axis=0)
    dev = np.abs(counts @ phi - center)
    expect = {
        "band_debias.json": ("band-debiased", "true", deb_center,
                             _order_stat(np.abs(counts @ deb - deb_center).max(axis=1))),
        "band_boot.json": ("band-bootstrap", "smoothed", center,
                           _order_stat(dev.max(axis=1))),
        "ci_boot.json": ("ci-bootstrap", "smoothed", center, _order_stat(dev, axis=0)),
    }
    for name, (method, target, ctr, hw) in expect.items():
        art = json.loads((out / name).read_text())
        tag = f"{name}:"
        f.require(art["method"] == method and art["target"] == target,
                  f"{tag} method/target {art['method']}/{art['target']}")
        f.require(_close(np.ravel(art["grid"]), axis, 1e-12), f"{tag} grid differs")
        f.require(_close(art["center"], ctr, 1e-9), f"{tag} center differs")
        lower, upper = np.array(art["lower"]), np.array(art["upper"])
        f.require(_close(upper - np.array(art["center"]), np.broadcast_to(hw, lower.shape),
                         1e-8),
                  f"{tag} half-width differs from the recomputed bootstrap")
        f.require(_close(np.array(art["center"]) - lower, upper - np.array(art["center"]),
                         1e-12), f"{tag} band is not symmetric")
        if method.startswith("band"):
            f.require(abs(art["halfwidth"] - hw) <= 1e-8 * hw,
                      f"{tag} halfwidth {art['halfwidth']} vs recomputed {hw}")
    f.require(np.all(np.array(json.loads((out / "band_debias.json").read_text())
                              ["center_clipped"]) >= 0), "band_debias: negative clip")

    # Smoothed CDF: mean of Phi((x - X_i) / h); monotone, from ~0 to ~1.
    cdf = _load(out / "cdf.csv")
    f.require(_close(cdf[:, 0], axis, 1e-12), "cdf: axis differs")
    ref = np.array([ndtr((x - big) / h).mean() for x in axis])
    f.require(_close(cdf[:, 1], ref, 1e-10, scale=1.0), "cdf: values differ from ndtr sums")
    f.require(np.all(np.diff(cdf[:, 1]) >= 0), "cdf: not monotone")
    f.require(cdf[0, 1] < 1e-3 and cdf[-1, 1] > 1 - 1e-3, "cdf: ends not near 0 and 1")

    # ROC(t) = 1 - G(F^-1(1 - t)), F by bisection on its support
    # [min - 10h, max + 10h]; monotone with ROC(0) = 0 and ROC(1) = 1.
    with open(out / "roc.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    xh = np.array([float(v) for v, lab in rows if lab == "a"])
    xd = np.array([float(v) for v, lab in rows if lab == "b"])
    hf, hg = rot_bandwidth(xh), rot_bandwidth(xd)
    F = lambda x: ndtr((np.asarray(x)[:, None] - xh[None, :]) / hf).mean(axis=1)  # noqa: E731
    G = lambda x: ndtr((np.asarray(x)[:, None] - xd[None, :]) / hg).mean(axis=1)  # noqa: E731
    curve = _load(out / "roc_curve.csv")
    t = curve[:, 0]
    inner = (t > 0) & (t < 1)
    roc = np.where(t <= 0, 0.0, 1.0)
    x_q = _bisect_inverse(F, 1 - t[inner], xh.min() - 10 * hf, xh.max() + 10 * hf)
    roc[inner] = 1 - G(x_q)
    f.require(_close(curve[:, 1], roc, 1e-8, scale=1.0), "roc: curve differs from recomputed")
    f.require(np.all(np.diff(curve[:, 1]) >= -1e-12) and curve[0, 1] == 0
              and curve[-1, 1] == 1, "roc: not monotone from 0 to 1")

    # ROC band: sup-norm bootstrap, both groups redrawn from replicate r's
    # stream (healthy first), curves tabulated on a fine grid.  The program
    # tabulates more coarsely, hence the 1 % tolerance on the half-width.
    band = _load(out / "roc_band.csv")
    f.require(_close(band[:, 1], roc, 1e-3, scale=1.0), "roc band: center far from curve")
    f.require(np.all((band[:, 2] <= band[:, 1]) & (band[:, 1] <= band[:, 3])
                     & (band[:, 2] >= 0) & (band[:, 3] <= 1)), "roc band: not ordered in [0,1]")
    lo_x = min(xh.min() - 10 * hf, xd.min() - 10 * hg)
    hi_x = max(xh.max() + 10 * hf, xd.max() + 10 * hg)
    xs = np.linspace(lo_x, hi_x, 8192)
    phi_f = ndtr((xs[None, :] - xh[:, None]) / hf)
    phi_g = ndtr((xs[None, :] - xd[:, None]) / hg)
    ch, cd = np.empty((params["roc_boot"], xh.size)), np.empty((params["roc_boot"], xd.size))
    for r in range(params["roc_boot"]):
        rng = np.random.default_rng([seed, r])
        ch[r] = np.bincount(rng.integers(0, xh.size, xh.size), minlength=xh.size)
        cd[r] = np.bincount(rng.integers(0, xd.size, xd.size), minlength=xd.size)
    f_star, g_star = ch @ phi_f / xh.size, cd @ phi_g / xd.size
    q = 1 - t
    sup = np.empty(params["roc_boot"])
    for r in range(params["roc_boot"]):
        x_at = np.interp(np.clip(q, f_star[r, 0], f_star[r, -1]), f_star[r], xs)
        star = 1 - np.interp(x_at, xs, g_star[r])
        star[t <= 0], star[t >= 1] = 0.0, 1.0
        sup[r] = np.max(np.abs(star - roc))
    hw = _order_stat(sup)
    unclipped = (band[:, 3] < 1) & (band[:, 2] > 0)
    got_hw = np.max((band[:, 3] - band[:, 1])[unclipped])
    f.require(abs(got_hw - hw) <= 1e-2 * hw,
              f"roc band: half-width {got_hw} vs recomputed {hw}")
    printed = float(stdout["roc_band.csv"].rsplit("halfwidth=", 1)[1])
    f.require(abs(printed - got_hw) <= 1e-5 * got_hw,
              "roc band: summary line disagrees with the artifact")
    return f


# --------------------------------------------------------------------------
# bi-features


def check_bi(out: Path, params: dict, stdout: dict, seed: int) -> Failures:
    f = Failures()
    data = _load(out / "bi.csv")
    sub = _load(out / "bi_sub.csv")
    h, h_sub = rot_bandwidth(data), rot_bandwidth(sub)
    rng = np.random.default_rng([seed, 99])

    # density: the default grid (data range +/- 3h per axis), values at a
    # random subset equal to a direct kernel sum, total mass ~ 1.
    res = params["density_grid"]
    dens = _load(out / "density.csv")
    ax0, ax1 = (_axis(data[:, l], h, res) for l in range(2))
    f.require(dens.shape == (res * res, 3), f"density: shape {dens.shape}")
    grid = np.stack(np.meshgrid(ax0, ax1, indexing="ij"), -1).reshape(-1, 2)
    f.require(_close(dens[:, :2], grid, 1e-12), "density: grid points differ")
    pick = rng.choice(len(dens), 500, replace=False)
    f.require(_close(dens[pick, 2], _kde(data, h, grid[pick]), 1e-10,
                     scale=dens[:, 2].max()), "density: values differ from a direct sum")
    mass = dens[:, 2].sum() * (ax0[1] - ax0[0]) * (ax1[1] - ax1[0])
    f.require(0.98 < mass < 1.001, f"density: grid mass {mass}")

    # level set, tree, persistence: one 128^2 grid, recomputed directly.
    res = params["feature_grid"]
    ax0, ax1 = (_axis(data[:, l], h, res) for l in range(2))
    fgrid = np.stack(np.meshgrid(ax0, ax1, indexing="ij"), -1).reshape(-1, 2)
    vals = _kde(data, h, fgrid).reshape(res, res)
    vmax = vals.max()

    ls = _load(out / "levelset.csv")
    level = params["level"]
    mask = ls[:, 2].reshape(res, res).astype(bool)
    near_level = np.abs(vals - level) <= 1e-12 * vmax
    f.require(np.array_equal(mask | near_level, (vals >= level) | near_level),
              "levelset: mask differs from the thresholded direct grid")
    flood = _components(mask)
    f.require(flood.max() + 1 == 4, f"levelset: flood fill finds {flood.max() + 1} components")
    f.require(_same_partition(ls[:, 3].astype(int), flood),
              "levelset: component labels differ from the flood fill")

    # Grid local maxima (strictly above their face neighbours) are where the
    # superlevel filtration gives birth to components.
    is_max = vals > _neighbours(vals, -np.inf).max(axis=0)
    max_idx = set(np.flatnonzero(is_max).tolist())
    tree = json.loads((out / "tree.json").read_text())["nodes"]
    births = np.array([nd["birth"] for nd in tree])
    deaths = np.array([nd["death"] for nd in tree])
    f.require({nd["representative"] for nd in tree} == max_idx,
              "tree: births are not at the grid's local maxima")
    f.require(_close(np.sort(births), np.sort(vals.ravel()[sorted(max_idx)]), 1e-10,
                     scale=vmax), "tree: birth levels differ from the local maxima")
    roots = [nd for nd in tree if nd["parent"] is None]
    f.require(len(roots) == 1 and roots[0]["death"] == 0.0
              and roots[0]["birth"] == births.max(), "tree: root is not the global maximum")
    f.require(np.all(deaths <= births), "tree: a node dies above its birth")
    by_id = {nd["id"]: nd for nd in tree}
    f.require(all(by_id[nd["parent"]]["birth"] >= nd["birth"] for nd in tree
                  if nd["parent"] is not None),
              "tree: a node merges into a younger one (elder rule)")
    f.require(np.count_nonzero(births - deaths > 0.05 * vmax) == 4,
              "tree: not 4 persistent components")
    # Elder rule: at any level, the components of the superlevel set are the
    # nodes born at or above it that die below it.
    cuts = np.unique(np.concatenate([births, deaths[deaths > 0]]))
    for lev in 0.5 * (cuts[:-1] + cuts[1:]):
        alive = int(np.count_nonzero((births >= lev) & (deaths < lev)))
        found = _components(vals >= lev).max() + 1
        f.require(alive == found, f"tree: {alive} nodes alive at {lev:.4g}, flood fill {found}")

    pers = _load(out / "persist.csv")
    f.require(sorted(map(tuple, pers.tolist())) == sorted(zip(births.tolist(), deaths.tolist())),
              "persist: pairs differ from the tree's (birth, death)")

    # modes: 4, one per cluster; zero gradient, negative-definite Hessian.
    modes = _load(out / "modes.csv")
    f.require(modes.shape[0] == 4, f"modes: {modes.shape[0]} modes")
    near = {int(np.argmin(np.linalg.norm(BI_CENTRES - m[:2], axis=1))) for m in modes}
    f.require(len(near) == modes.shape[0], "modes: two modes share a cluster")
    for m in modes:
        grad, hess = _kde_derivs(data, h, m[:2])
        p = _kde(data, h, m[None, :2])[0]
        f.require(abs(m[2] - p) <= 1e-9 * p, "modes: density column differs")
        f.require(np.linalg.norm(grad) * h <= 1e-4 * p, f"modes: gradient {grad} at {m[:2]}")
        f.require(np.all(np.linalg.eigvalsh(hess) < 0), f"modes: Hessian not negative at {m[:2]}")

    # ridge: on each point the gradient projected on the Hessian's trailing
    # eigenvector is below the tolerance (1e-6 max p_hat(X_i) / h), and the
    # trailing eigenvalue lambda_2 < 0 matches the artifact.
    ridge = _load(out / "ridge.csv")
    f.require(ridge.shape[0] > 0, "ridge: no ridge points")
    grad_tol = 1e-6 * _kde(sub, h_sub, sub).max() / h_sub
    for x0, x1, _, lam2 in ridge:
        grad, hess = _kde_derivs(sub, h_sub, np.array([x0, x1]))
        ev, vec = np.linalg.eigh(hess)
        v = vec[:, 0]
        proj = abs(v @ grad)
        f.require(ev[0] < 0 and abs(ev[0] - lam2) <= 1e-7 * np.abs(ev).max(),
                  f"ridge: lambda2 {lam2} vs recomputed {ev[0]}")
        f.require(proj <= grad_tol * (1 + 1e-6), f"ridge: projected gradient {proj}")
    f.require(stdout["ridge.csv"].startswith(f"ridge: {ridge.shape[0]} ridge points"),
              "ridge: summary line disagrees with the artifact")

    # morse: 4 ascent destinations; the grid has one interior minimum, and
    # every flow that stays inside ends there.
    res = params["morse_grid"]
    ms = _load(out / "morse.csv")
    ax0, ax1 = (_axis(sub[:, l], h_sub, res) for l in range(2))
    mgrid = np.stack(np.meshgrid(ax0, ax1, indexing="ij"), -1).reshape(-1, 2)
    f.require(_close(ms[:, :2], mgrid, 1e-12), "morse: grid points differ")
    mvals = _kde(sub, h_sub, mgrid).reshape(res, res)
    pad = np.pad(mvals, 1, constant_values=np.inf)
    ring = np.stack([pad[1 + a:res + 1 + a, 1 + b:res + 1 + b]
                     for a in (-1, 0, 1) for b in (-1, 0, 1) if (a, b) != (0, 0)])
    is_min = mvals < ring.min(axis=0)
    is_min[[0, -1], :] = is_min[:, [0, -1]] = False
    f.require(np.count_nonzero(is_min) == 1,
              f"morse: grid has {np.count_nonzero(is_min)} interior minima")
    ascent, descent, cell = (ms[:, c].astype(int) for c in (2, 3, 4))
    f.require(len(set(ascent[ascent >= 0].tolist())) == 4, "morse: not 4 ascent modes")
    f.require(set(descent.tolist()) <= {-1, 0}, "morse: more than one interior minimum")
    f.require(np.all(descent[np.flatnonzero(is_min)] == 0), "morse: minimum not its own sink")
    pairs = {(a, d) for a, d in zip(ascent.tolist(), descent.tolist()) if d >= 0}
    f.require(len(set(cell[descent < 0].tolist())) <= 1
              and len(set(cell.tolist())) == len(pairs) + (np.any(descent < 0)),
              "morse: cells are not the (ascent, descent) pairs")
    return f


# --------------------------------------------------------------------------
# mc-coverage


def _mixture(spec: str):
    w, m1, m2, s1, s2 = (float(v) for v in spec.split(":", 1)[1].split(","))
    return ((w, m1, s1), (1 - w, m2, s2))


def _own_widths(params: dict, method: str, trials: int) -> float:
    """Mean band width from an independent simulation on its own streams."""
    comps = _mixture(params["truth"])
    lo = min(m - 3 * s for _, m, s in comps)
    hi = max(m + 3 * s for _, m, s in comps)
    grid = np.linspace(lo, hi, params["grid"])
    rng = np.random.default_rng([params["seed"], 77])
    n, b = params["n"], params["boot"]
    widths = []
    for _ in range(trials):
        pick = rng.random(n) < comps[0][0]
        x = np.where(pick, rng.normal(comps[0][1], comps[0][2], n),
                     rng.normal(comps[1][1], comps[1][2], n))
        h = rot_bandwidth(x)
        terms = _kde_terms(x, h, grid, order=2 if method == "band-debiased" else 0)
        idx = rng.integers(0, n, (b, n)) + n * np.arange(b)[:, None]
        counts = np.bincount(idx.ravel(), minlength=b * n).reshape(b, n)
        center = terms.sum(axis=0)
        widths.append(2 * _order_stat(np.abs(counts @ terms - center).max(axis=1)))
    return float(np.mean(widths))


def check_mc(out: Path, params: dict) -> Failures:
    f = Failures()
    reports = {}
    for name, method, target in (("sim_debiased.json", "band-debiased", "true"),
                                 ("sim_bootstrap.json", "band-bootstrap", "smoothed")):
        rep = json.loads((out / name).read_text())
        reports[method] = rep
        trials = params["trials"]
        meta = rep["metadata"]
        f.require(rep["method"] == method and rep["target"] == target
                  and rep["trials"] == trials and meta["n"] == params["n"]
                  and meta["replicates"] == params["boot"]
                  and meta["grid"][2] == params["grid"], f"{name}: report fields")
        # Coverage against nominal: reject only if a binomial(trials, 1 - alpha)
        # count this far from nominal has probability below 1e-6.
        hits = round(rep["coverage"] * trials)
        f.require(abs(hits - rep["coverage"] * trials) < 1e-6, f"{name}: coverage not k/trials")
        nominal = 1 - ALPHA
        f.require(binom.cdf(hits, trials, nominal) >= 1e-6
                  and binom.sf(hits - 1, trials, nominal) >= 1e-6,
                  f"{name}: coverage {rep['coverage']} inconsistent with {nominal}")
        # Mean width against an independent simulation (its standard error
        # is a few per cent at these trial counts).
        own = _own_widths(params, method, max(20, trials // 4))
        f.require(abs(rep["mean_width"] - own) <= 0.15 * own,
                  f"{name}: mean width {rep['mean_width']} vs independent {own}")
    f.require(reports["band-debiased"]["mean_width"] > reports["band-bootstrap"]["mean_width"],
              "simulate: debiased band not wider than the plain band")
    return f


def check(workload: str, out: Path, plan: dict, stdout: dict, seed: int) -> Failures:
    """Check a workload's artifacts; ``stdout`` maps artifact name to summary line."""
    params = plan["params"]
    if workload == "uni-inference":
        return check_uni(out, params, stdout)
    if workload == "bi-features":
        return check_bi(out, params, stdout, seed)
    return check_mc(out, params)
