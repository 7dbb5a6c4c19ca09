"""Smoothing-bandwidth selection.

Three selectors are provided:

* ``rule_of_thumb`` -- Silverman's normal-reference rule for d = 1,
  h = 1.06 * min(sd, IQR / 1.34) * n^(-1/5); for d > 1 the Scott-style
  generalization h = mean_l(sd_l) * n^(-1/(d+4)).
* ``lscv`` -- least-squares cross-validation minimized over an explicit
  candidate grid (the criterion has known local minima, so grid search keeps
  the selection reproducible).
* ``amise_plugin`` -- the AMISE-optimal bandwidth with the curvature
  functional integral |laplacian p|^2 estimated from an oversmoothed pilot
  KDE.  The minimizer of (h^4/4) sigma_k^4 R + mu_k / (n h^d) is
  h = (d * mu_k / (sigma_k^4 * R * n))^(1/(d+4)).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import estimator, kernels
from .kernels import KernelFamily, KernelSpec


class DegenerateSampleError(ValueError):
    """Raised when a sample has no spread in some coordinate."""


class SelectorMethod(enum.Enum):
    RULE_OF_THUMB = "rot"
    LSCV = "lscv"
    AMISE_PLUGIN = "plugin"
    FIXED = "fixed"


@dataclass(frozen=True)
class BandwidthSelector:
    """Configuration for bandwidth selection, dispatched by ``select``."""

    method: SelectorMethod
    fixed_h: float | None = None
    lscv_grid: np.ndarray | None = None

    def __post_init__(self):
        if self.method is SelectorMethod.FIXED:
            if self.fixed_h is None or self.fixed_h <= 0:
                raise ValueError("fixed selector requires h > 0")
        if self.lscv_grid is not None:
            g = np.asarray(self.lscv_grid, dtype=float)
            if np.any(g <= 0) or np.any(np.diff(g) <= 0):
                raise ValueError("LSCV grid must be positive and increasing")
            object.__setattr__(self, "lscv_grid", g)

    def select(self, sample: estimator.Sample, kernel: KernelSpec) -> float:
        if self.method is SelectorMethod.FIXED:
            return float(self.fixed_h)
        if self.method is SelectorMethod.RULE_OF_THUMB:
            return rule_of_thumb(sample)
        if self.method is SelectorMethod.LSCV:
            grid = self.lscv_grid
            if grid is None:
                grid = default_lscv_grid(sample)
            return lscv(sample, kernel, grid).h
        return amise_plugin(sample, kernel)


def rule_of_thumb(sample: estimator.Sample) -> float:
    """Normal-reference bandwidth; errors on zero per-dimension spread."""
    data = sample.data
    n = sample.n
    if n < 2:
        raise DegenerateSampleError("rule of thumb needs n >= 2")
    with np.errstate(over="ignore", invalid="ignore"):  # huge ranges: inf or nan
        sds = np.std(data, axis=0, ddof=1)
    if np.any(sds <= 0):
        raise DegenerateSampleError("sample has zero spread in some coordinate")
    if sample.dim == 1:
        q75, q25 = np.percentile(data[:, 0], [75, 25])
        iqr = q75 - q25
        # Half-degenerate samples can have IQR = 0 with positive sd; fall back
        # to the sd alone rather than erroring.
        scale = min(sds[0], iqr / 1.34) if iqr > 0 else sds[0]
        h = 1.06 * scale * n ** (-0.2)
    else:
        h = float(np.mean(sds)) * n ** (-1.0 / (sample.dim + 4))
    if not np.isfinite(h):
        raise DegenerateSampleError("sample spread overflows float64: the "
                                    "rule-of-thumb bandwidth is not finite")
    return h


def default_lscv_grid(sample: estimator.Sample, num: int = 30,
                      lo: float = 0.1, hi: float = 3.0) -> np.ndarray:
    """Log-spaced candidates spanning [lo, hi] x rule_of_thumb."""
    h0 = rule_of_thumb(sample)
    return np.geomspace(lo * h0, hi * h0, num)


@dataclass(frozen=True)
class LscvResult:
    h: float
    grid: np.ndarray
    scores: np.ndarray


def _lscv_scores_gaussian(sample: estimator.Sample, h_grid: np.ndarray) -> np.ndarray:
    """CV(h) = int p_hat^2 - (2/n) sum_i p_hat_{-i}(X_i), Gaussian closed form.

    The squared-integral term uses the convolution identity
    K_h * K_h = N(0, 2 h^2 I).  One exp per pair and candidate serves both
    terms: e = exp(-d^2 / 4h^2) and exp(-d^2 / 2h^2) = e^2.
    """
    from scipy.spatial.distance import pdist
    data = sample.data
    n, d = data.shape
    sq = pdist(data, metric="sqeuclidean")  # n(n-1)/2 off-diagonal distances
    e = np.empty_like(sq)
    scores = np.empty(h_grid.size)
    for idx, h in enumerate(h_grid):
        conv_norm = (4.0 * np.pi * h * h) ** (d / 2.0)
        np.divide(sq, -4.0 * h * h, out=e)
        np.exp(e, out=e)
        cross_conv = 2.0 * np.sum(e)
        int_p2 = (n + cross_conv) / (n * n * conv_norm)
        kern_norm = (2.0 * np.pi) ** (d / 2.0) * h**d
        np.square(e, out=e)
        cross_loo = 2.0 * np.sum(e)
        loo = cross_loo / (n * (n - 1) * kern_norm)
        scores[idx] = int_p2 - 2.0 * loo
    return scores


def _lscv_scores_spherical(sample: estimator.Sample, h_grid: np.ndarray) -> np.ndarray:
    """Spherical-kernel CV scores; int p_hat^2 by trapezoidal quadrature."""
    from scipy.spatial.distance import pdist
    data = sample.data
    n, d = data.shape
    if d > 2:
        raise ValueError("spherical LSCV quadrature supports d <= 2 only")
    dist = pdist(data)
    vol = kernels.unit_ball_volume(d)
    scores = np.empty(h_grid.size)
    for idx, h in enumerate(h_grid):
        model = estimator.DensityModel(
            sample, KernelSpec(KernelFamily.SPHERICAL, d), float(h)
        )
        axes = estimator.default_axes(model, resolution=512 if d == 1 else 128,
                                      padding=1.5)
        grid = estimator.evaluate_grid(model, axes)
        sq_vals = np.square(grid.values).reshape(grid.shape)
        int_p2 = sq_vals
        for ax in reversed(grid.axes):
            int_p2 = np.trapezoid(int_p2, ax, axis=-1)
        cross = 2.0 * np.count_nonzero(dist <= h) / vol
        loo = cross / (n * (n - 1) * h**d)
        scores[idx] = float(int_p2) - 2.0 * loo
    return scores


def lscv(sample: estimator.Sample, kernel: KernelSpec, h_grid) -> LscvResult:
    """Least-squares cross-validation over a candidate grid.

    Returns the argmin with ties broken toward smaller h, along with the full
    CV curve.
    """
    h_grid = np.asarray(h_grid, dtype=float)
    if h_grid.size == 0:
        raise ValueError("empty LSCV candidate grid")
    if sample.n < 3:
        raise ValueError("LSCV needs n >= 3")
    if kernel.family is KernelFamily.GAUSSIAN:
        scores = _lscv_scores_gaussian(sample, h_grid)
    else:
        scores = _lscv_scores_spherical(sample, h_grid)
    best = int(np.argmin(scores))  # argmin returns the first (smallest-h) tie
    return LscvResult(h=float(h_grid[best]), grid=h_grid, scores=scores)


def laplacian_squared_integral(model: estimator.DensityModel,
                               resolution: int = 512) -> float:
    """Plug-in estimate of the curvature functional int |laplacian p|^2 dx.

    The Gaussian kernel's Laplacian is sum_l phi''(u_l) prod_(k != l) phi(u_k),
    so on the quadrature grid it is the sum over l of the per-axis factor
    products with phi'' on axis l.
    """
    if not model.kernel.differentiable:
        raise kernels.UnsupportedDerivativeError("laplacian requires the Gaussian kernel")
    if model.dim > 2:
        raise ValueError("curvature quadrature supports d <= 2 only")
    res = resolution if model.dim == 1 else min(resolution, 128)
    axes = estimator.default_axes(model, resolution=res, padding=4.0)
    lap = sum(estimator._factor_sums(model, axes, second=l) for l in range(model.dim))
    lap /= model.n * model.bandwidth ** (model.dim + 2) * model.kernel.normalizer
    sq = np.square(lap)
    for ax in reversed(axes):
        sq = np.trapezoid(sq, ax, axis=-1)
    return float(sq)


def amise_optimal_h(kernel: KernelSpec, curvature: float, n: int) -> float:
    """AMISE minimizer for a known curvature functional value."""
    if curvature < 1e-12:
        raise DegenerateSampleError("curvature functional is numerically zero")
    const = kernels.constants(kernel)
    d = kernel.dim
    return (d * const["mu_k"] / (const["sigma_k2"] ** 2 * curvature * n)) ** (
        1.0 / (d + 4)
    )


def amise_plugin(sample: estimator.Sample, kernel: KernelSpec,
                 pilot_h: float | None = None) -> float:
    """AMISE plug-in bandwidth with an oversmoothed pilot for the curvature.

    Default pilot is 1.2 x rule_of_thumb; the oversmoothing keeps the
    second-derivative plug-in stable.
    """
    if pilot_h is None:
        pilot_h = 1.2 * rule_of_thumb(sample)
    if pilot_h <= 0:
        raise ValueError("pilot_h must be positive")
    gauss = KernelSpec(KernelFamily.GAUSSIAN, sample.dim)
    pilot = estimator.DensityModel(sample, gauss, pilot_h)
    curvature = laplacian_squared_integral(pilot)
    return amise_optimal_h(kernel, curvature, sample.n)
