"""Smoothed CDF estimation and smoothed ROC curves (univariate).

The smoothed CDF integrates the KDE: for the Gaussian kernel the exact average
of per-observation normal CDFs, for the spherical kernel a piecewise-linear
ramp.  Quadrature is kept out of the production path, as a test oracle.

Every quantile comes from one vectorised inversion, ``_invert``: tabulate F_hat
on ``_INVERSION_POINTS`` grid points, bracket each level q in the grid cell
where the tabulation crosses it, start from ``np.interp`` and take Newton steps
x <- x - (F_hat(x) - q) / p_hat(x), as F_hat' = p_hat.  A step that leaves the
bracket, or meets p_hat = 0 on a flat of the spherical CDF, bisects it instead.
The search stops once a step is shorter than 1e-12; a level at or beyond the
tabulated range clamps to the grid edge.

ROC(t) = 1 - G(F^{-1}(1 - t)) for healthy responses with CDF F and diseased
ones with CDF G; the smoothed estimator plugs in both smoothed CDFs, tabulated
on their joint support.  The bootstrap band around it redraws the healthy,
then the diseased indices from replicate r's stream (see ``inference``), and
inverts each replicate's tabulation by interpolation alone.  The replicate
tabulations are counts @ integrated-kernel terms, formed a chunk of sample
rows at a time (``_cdf_rows``), so no (n, 1024) matrix of terms is built; the
curve's own tabulation comes from the same walk, with the bits of the
matrix's mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimator, inference
from .estimator import DensityModel, Sample
from .inference import BandResult, BootstrapPlan
from .kernels import KernelSpec, integrated

_INVERSION_POINTS = 1024  # points of the grid every inversion tabulates
_XTOL = 1e-12  # an inversion stops once its step is shorter than this


@dataclass(frozen=True)
class SmoothedCDF:
    """CDF of the KDE for a univariate model; analytic per kernel family."""

    model: DensityModel

    def __post_init__(self):
        if self.model.dim != 1:
            raise ValueError("smoothed CDF requires d = 1")

    @property
    def support(self):
        data, h = self.model.sample.data[:, 0], self.model.bandwidth
        return float(data.min() - 10 * h), float(data.max() + 10 * h)


def _cdf_rows(model: DensityModel, xs) -> estimator.PairRows:
    """The rows of the integrated kernel at (xs_j - X_i) / h for m queries xs
    (read by ``estimator._query_matrix``), formed on demand; the mean of the
    (n, m) matrix over the sample is the smoothed CDF."""
    return estimator.PairRows(model, estimator._query_matrix(model, xs),
                              lambda u: integrated(model.kernel, u[0], out=u[0]))


def _cdf_terms(model: DensityModel, xs) -> np.ndarray:
    """(n, m) matrix of the integrated kernel at (xs_j - X_i) / h: every row
    of ``_cdf_rows``."""
    return _cdf_rows(model, xs).matrix()


def _cdf_values(model: DensityModel, xs) -> np.ndarray:
    """The smoothed CDF at xs: the column sums of ``_cdf_rows``
    (``PairRows.sums``) over n, ``_cdf_terms(model, xs).mean(axis=0)`` bit
    for bit (numpy's mean is that sum over n) without the (n, m) matrix."""
    return _cdf_rows(model, xs).sums() / model.n


def cdf_at(scdf: SmoothedCDF, x) -> float:
    """Smoothed CDF value at one finite point."""
    return float(_cdf_values(scdf.model, estimator._query_point(scdf.model, x))[0])


def cdf_many(scdf: SmoothedCDF, xs) -> np.ndarray:
    """Vectorized smoothed CDF at finite query points, (m,) or (m, 1)."""
    return _cdf_values(scdf.model, xs)


def _invert(model: DensityModel, xs: np.ndarray, f: np.ndarray,
            q: np.ndarray) -> np.ndarray:
    """x with F_hat(x) = q for each q of a 1-d array, from f = F_hat(xs).  Each
    iterate moves a bracket end; the next lies inside or ends the search."""
    k = np.clip(np.searchsorted(f, q), 1, xs.size - 1)  # f[k - 1] < q <= f[k]
    a, b = xs[k - 1], xs[k]
    x = np.clip(np.interp(q, f, xs), a, b)
    todo = np.flatnonzero((q > f[0]) & (q < f[-1]))
    while todo.size:
        xt = x[todo]
        r = _cdf_values(model, xt) - q[todo]
        a[todo] = np.where(r <= 0, xt, a[todo])
        b[todo] = np.where(r >= 0, xt, b[todo])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            new = xt - r / estimator.density(model, xt)  # F_hat' = p_hat
        newton = (a[todo] < new) & (new < b[todo]) | (np.abs(new - xt) < _XTOL)
        x[todo] = np.where(newton, new, 0.5 * (a[todo] + b[todo]))
        todo = todo[np.abs(x[todo] - xt) >= _XTOL]
    return x


def cdf_inverse(scdf: SmoothedCDF, q):
    """Smoothed-CDF quantile of a level q in (0, 1), or an array of them (as an
    array of q's shape), to a last step under 1e-12; levels at or beyond F_hat
    at the support edges clamp to the edges (see the module docstring)."""
    q = np.asarray(q, dtype=float)
    if not np.all((q > 0.0) & (q < 1.0)):
        raise ValueError(f"q must be in (0, 1), got {q}")
    xs = np.linspace(*scdf.support, _INVERSION_POINTS)
    x = _invert(scdf.model, xs, _cdf_values(scdf.model, xs), q.ravel())
    return float(x[0]) if q.ndim == 0 else x.reshape(q.shape)


@dataclass(frozen=True)
class RocCurve:
    t: np.ndarray
    values: np.ndarray
    method: str


def default_t_grid(num: int = 101) -> np.ndarray:
    return np.linspace(0.0, 1.0, num)


def _roc_grids(healthy: Sample, diseased: Sample, kernel: KernelSpec,
               h_healthy: float, h_diseased: float, t_grid):
    """Both groups' models, the grid xs over their joint support, and t."""
    if healthy.dim != 1 or diseased.dim != 1:
        raise ValueError("ROC estimation requires univariate samples")
    models = (DensityModel(healthy, kernel, h_healthy),
              DensityModel(diseased, kernel, h_diseased))
    (lo_f, hi_f), (lo_g, hi_g) = (SmoothedCDF(m).support for m in models)
    xs = np.linspace(min(lo_f, lo_g), max(hi_f, hi_g), _INVERSION_POINTS)
    return models, xs, default_t_grid() if t_grid is None else np.asarray(t_grid, float)


def _smoothed_roc(models, xs: np.ndarray, f_vals: np.ndarray, t: np.ndarray):
    """ROC(t), inverting F_hat from its tabulation f_vals = F_hat(xs)."""
    roc, inner = np.where(t <= 0.0, 0.0, 1.0), (t > 0.0) & (t < 1.0)
    x = _invert(models[0], xs, f_vals, 1.0 - t[inner])
    roc[inner] = 1.0 - _cdf_values(models[1], x)
    return roc


def roc_curve(healthy: Sample, diseased: Sample, kernel: KernelSpec,
              h_healthy: float, h_diseased: float,
              t_grid=None) -> RocCurve:
    """Smoothed ROC(t) = 1 - G_hat(F_hat^{-1}(1 - t)) on a grid of t."""
    models, xs, t = _roc_grids(healthy, diseased, kernel, h_healthy, h_diseased, t_grid)
    roc = _smoothed_roc(models, xs, _cdf_values(models[0], xs), t)
    return RocCurve(t=t, values=roc, method="smoothed")


def roc_band(healthy: Sample, diseased: Sample, kernel: KernelSpec,
             h_healthy: float, h_diseased: float, alpha: float,
             plan: BootstrapPlan, t_grid=None) -> BandResult:
    """Bootstrap sup-norm band around ``roc_curve``'s curve, clipped to [0, 1];
    replicates resample the two groups independently."""
    inference._check_bootstrap(alpha, plan)
    models, xs, t_grid = _roc_grids(healthy, diseased, kernel, h_healthy, h_diseased,
                                    t_grid)
    sums = []
    products = inference._replicate_products(plan, [_cdf_rows(m, xs) for m in models], sums)
    center = _smoothed_roc(models, xs, sums[0] / models[0].n, t_grid)  # terms' mean
    f_star, g_star = (p / m.n for p, m in zip(products, models))
    q = 1.0 - t_grid  # replicate curves: interpolation alone, never extrapolated
    boot = np.array([1.0 - np.interp(np.interp(np.clip(q, f[0], f[-1]), f, xs), xs, g)
                     for f, g in zip(f_star, g_star)])
    boot[:, t_grid <= 0.0], boot[:, t_grid >= 1.0] = 0.0, 1.0
    c = inference._sup_quantile(boot, center, alpha)
    return BandResult(grid=t_grid[:, None], center=center,
                      lower=np.clip(center - c, 0.0, 1.0),
                      upper=np.clip(center + c, 0.0, 1.0),
                      alpha=alpha, method="roc-band", halfwidth=c)
