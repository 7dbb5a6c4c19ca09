"""Smoothed CDF estimation and smoothed ROC curves (univariate).

The smoothed CDF integrates the KDE.  For the Gaussian kernel this is the
exact average of per-observation normal CDFs; for the spherical kernel the
indicator integrates to a piecewise-linear ramp.  Quadrature is kept out of
the production path and appears only as a test oracle.

The ROC curve of a two-sample problem (healthy responses with CDF F, diseased
with CDF G) is ROC(t) = 1 - G(F^{-1}(1 - t)); the smoothed estimator plugs in
the smoothed CDFs of both samples.  The bootstrap band resamples the two
groups independently (the two-sample structure leaves no shared index set to
resample jointly): replicate r draws the healthy indices, then the diseased
ones, from the replicate stream of ``inference``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import estimator, inference
from .estimator import DensityModel, Sample
from .inference import BandResult, BootstrapPlan
from .kernels import KernelSpec, integrated

# Points of the tabulation grid on which roc_band inverts the smoothed CDFs.
_INVERSION_POINTS = 1024


@dataclass(frozen=True)
class SmoothedCDF:
    """CDF of the KDE for a univariate model; analytic per kernel family."""

    model: DensityModel

    def __post_init__(self):
        if self.model.dim != 1:
            raise ValueError("smoothed CDF requires d = 1")

    @property
    def support(self):
        data = self.model.sample.data[:, 0]
        h = self.model.bandwidth
        return float(data.min() - 10 * h), float(data.max() + 10 * h)


def _cdf_terms(model: DensityModel, xs: np.ndarray) -> np.ndarray:
    """(n, m) matrix of the integrated kernel at (xs_j - X_i) / h, filled one
    query block at a time; its mean over the sample is the smoothed CDF."""
    out = np.empty((model.n, xs.size))
    for rows, (u,), _ in estimator._blocks(model, xs[:, None]):
        out[:, rows] = integrated(model.kernel, u)
    return out


def cdf_at(scdf: SmoothedCDF, x) -> float:
    """Smoothed CDF value at a point."""
    x = np.atleast_1d(np.asarray(x, dtype=float))[:1]
    return float(_cdf_terms(scdf.model, x).mean(axis=0)[0])


def cdf_many(scdf: SmoothedCDF, xs) -> np.ndarray:
    """Vectorized smoothed CDF over a 1-d array of query points."""
    return _cdf_terms(scdf.model, np.asarray(xs, dtype=float).ravel()).mean(axis=0)


def cdf_inverse(scdf: SmoothedCDF, q: float) -> float:
    """Quantile of the smoothed CDF by root bracketing on the support.

    Returns x with |cdf_at(x) - q| <= 1e-9.  Quantiles beyond the resolvable
    support clamp to the support edge.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    lo, hi = scdf.support
    f_lo, f_hi = cdf_at(scdf, lo), cdf_at(scdf, hi)
    if q <= f_lo:
        return lo
    if q >= f_hi:
        return hi
    return float(brentq(lambda x: cdf_at(scdf, x) - q, lo, hi, xtol=1e-12))


@dataclass(frozen=True)
class RocCurve:
    t: np.ndarray
    values: np.ndarray
    method: str

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "t": self.t.tolist(),
            "roc": self.values.tolist(),
            "method": self.method,
        }


def default_t_grid(num: int = 101) -> np.ndarray:
    return np.linspace(0.0, 1.0, num)


def roc_curve(healthy: Sample, diseased: Sample, kernel: KernelSpec,
              h_healthy: float, h_diseased: float,
              t_grid=None) -> RocCurve:
    """Smoothed ROC(t) = 1 - G_hat(F_hat^{-1}(1 - t)) on a grid of t."""
    if healthy.dim != 1 or diseased.dim != 1:
        raise ValueError("ROC estimation requires univariate samples")
    if t_grid is None:
        t_grid = default_t_grid()
    t_grid = np.asarray(t_grid, dtype=float)
    f_cdf = SmoothedCDF(DensityModel(healthy, kernel, h_healthy))
    g_cdf = SmoothedCDF(DensityModel(diseased, kernel, h_diseased))
    values = np.empty(t_grid.size)
    for i, t in enumerate(t_grid):
        if t <= 0.0:
            values[i] = 0.0
        elif t >= 1.0:
            values[i] = 1.0
        else:
            x = cdf_inverse(f_cdf, 1.0 - t)
            values[i] = 1.0 - cdf_at(g_cdf, x)
    return RocCurve(t=t_grid, values=values, method="smoothed")


def _gridded_roc(f_vals: np.ndarray, g_vals: np.ndarray, xs: np.ndarray,
                 t_grid: np.ndarray) -> np.ndarray:
    """ROC from tabulated CDFs: invert F by monotone interpolation on xs."""
    q = 1.0 - t_grid
    # clip to the tabulated range so np.interp never extrapolates
    q = np.clip(q, f_vals[0], f_vals[-1])
    x_at_q = np.interp(q, f_vals, xs)
    out = 1.0 - np.interp(x_at_q, xs, g_vals)
    out[t_grid <= 0.0] = 0.0
    out[t_grid >= 1.0] = 1.0
    return out


def roc_band(healthy: Sample, diseased: Sample, kernel: KernelSpec,
             h_healthy: float, h_diseased: float, alpha: float,
             plan: BootstrapPlan, t_grid=None) -> BandResult:
    """Bootstrap sup-norm confidence band around the smoothed ROC curve.

    Groups are resampled independently per replicate.  Replicate curves (and
    the band center, for consistency) are computed on a fine tabulation grid
    with monotone-interpolation inversion; the band is clipped to [0, 1].
    """
    inference._check_bootstrap(alpha, plan)
    if t_grid is None:
        t_grid = default_t_grid()
    t_grid = np.asarray(t_grid, dtype=float)
    models = (DensityModel(healthy, kernel, h_healthy),
              DensityModel(diseased, kernel, h_diseased))
    (lo_f, hi_f), (lo_g, hi_g) = (SmoothedCDF(m).support for m in models)
    xs = np.linspace(min(lo_f, lo_g), max(hi_f, hi_g), _INVERSION_POINTS)

    phis = [_cdf_terms(m, xs) for m in models]
    center = _gridded_roc(phis[0].mean(axis=0), phis[1].mean(axis=0), xs, t_grid)
    f_star, g_star = (products / m.n for products, m in
                      zip(inference._replicate_products(plan, phis), models))
    boot = np.array([_gridded_roc(f, g, xs, t_grid) for f, g in zip(f_star, g_star)])
    c = inference._sup_quantile(boot, center, alpha)
    return BandResult(
        grid=t_grid[:, None], center=center,
        lower=np.clip(center - c, 0.0, 1.0),
        upper=np.clip(center + c, 0.0, 1.0),
        alpha=alpha, method="roc-band", halfwidth=c,
    )
