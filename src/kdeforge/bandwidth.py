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

Gaussian LSCV on 1-d data screens the candidates on binned data and scores
exactly only those the screen cannot rule out, so it returns the argmin the
exact scores give (binned kernel sums: Scott & Terrell 1987, *JASA* 82:1131;
Fan & Marron 1994, *JCGS* 3:35).  The sample is binned linearly onto G
points spanning [min, max]; the autocorrelation of the bin weights, taken
once by FFT, makes each candidate's binned score b_k a sum over G lags.
Each b_k is within beta_k + rho_k of the exact score: beta_k bounds the
binning error and rho_k the rounding (see ``_binned_gaussian``).  The screen
keeps S = {k : b_k - bound_k <= min_j (b_j + bound_j)}, which holds every
candidate the exact scores could pick; while |S| > 1 it re-bins at 4G (up to
2^20, and no more bins than the sample has pairs) and screens S again.  If S
still holds more than one candidate, they are scored exactly.  The exact
scores come from one walk over the sample pairs, a slice of sample rows at a
time (``_pair_blocks``), with no n(n-1)/2 pair vector; it also scores
samples with at most G pairs, d > 1, and data whose bins cannot be formed
(zero range, or a spacing or bound that is not finite).  ``LscvResult``
gives each candidate's score with its bound, 0 where the score is exact.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import blocks, estimator, kernels
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
        elif self.fixed_h is not None:
            raise ValueError(f"a fixed bandwidth needs the 'fixed' method, "
                             f"not {self.method.value!r}")
        if self.lscv_grid is not None:
            if self.method is not SelectorMethod.LSCV:
                raise ValueError(f"an LSCV grid needs the 'lscv' method, "
                                 f"not {self.method.value!r}")
            object.__setattr__(self, "lscv_grid", _check_lscv_grid(self.lscv_grid))

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


def default_lscv_grid(sample: estimator.Sample) -> np.ndarray:
    """30 log-spaced candidates spanning [0.1, 3] x rule_of_thumb."""
    h0 = rule_of_thumb(sample)
    return np.geomspace(0.1 * h0, 3.0 * h0, 30)


# The screen's first bin count, and the most bins a refinement takes.
_LSCV_BINS = 2**14
_LSCV_MAX_BINS = 2**20

# Each block of the exact pair walk holds about this many pairs (2 MB of
# float64): a slice of sample rows against the rows after them.
_PAIR_BLOCK = 2**18

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_4PI = math.sqrt(4.0 * math.pi)


@dataclass(frozen=True)
class LscvResult:
    """The chosen h, and each candidate's CV score within ``bounds`` of its
    exact value (a bound is 0 where the score is exact)."""

    h: float
    grid: np.ndarray
    scores: np.ndarray
    bounds: np.ndarray


def _check_lscv_grid(h_grid) -> np.ndarray:
    """The candidates as a float array; errors unless they are a nonempty,
    finite, positive, increasing 1-d list."""
    g = np.asarray(h_grid, dtype=float)
    if g.size == 0:
        raise ValueError("empty LSCV candidate grid")
    if not (g.ndim == 1 and np.all(np.isfinite(g)) and np.all(g > 0)
            and np.all(np.diff(g) > 0)):
        raise ValueError("LSCV grid must be finite, positive and increasing")
    return g


def _pair_blocks(data: np.ndarray):
    """Squared distances of the sample pairs i < j, a slice of rows at a time.

    The block of rows a:b holds their distances to rows a+1:n, about
    _PAIR_BLOCK values; its entries with j <= i are +inf, which no kernel
    weighs and no h reaches.  Coordinates are summed in order, as
    ``scipy.spatial.distance.pdist`` sums them, so for d <= 2 the distances
    have its bits.
    """
    n = data.shape[0]
    # at most a quarter of the rows a block: the masked entries are then at
    # most a fifth of those formed
    rows = max(1, min(_PAIR_BLOCK // n, n // 4))
    for a in range(0, n - 1, rows):
        b = min(a + rows, n - 1)
        with np.errstate(over="ignore"):  # spreads near 1e308: inf, weight 0
            sq = np.subtract.outer(data[a:b, 0], data[a + 1:, 0])
            np.square(sq, out=sq)
            for col in data.T[1:]:
                diff = np.subtract.outer(col[a:b], col[a + 1:])
                sq += np.square(diff, out=diff)
        sq[np.tri(b - a, n - a - 1, -1, dtype=bool)] = np.inf
        yield sq


def _exact_gaussian(data: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Exact Gaussian CV scores of the candidates h, on one pair walk.

    The squared-integral term uses the convolution identity
    K_h * K_h = N(0, 2 h^2 I).  One exp per pair and candidate serves both
    terms: e = exp(-d^2 / 4h^2) and exp(-d^2 / 2h^2) = e^2.
    """
    n, d = data.shape
    sums = np.zeros((2, h.size))  # sum over pairs i < j of e, and of e^2
    for sq in _pair_blocks(data):
        e = np.empty_like(sq)
        for k, hk in enumerate(h):
            np.divide(sq, -4.0 * hk * hk, out=e)
            np.exp(e, out=e)
            sums[0, k] += np.sum(e)
            np.square(e, out=e)
            sums[1, k] += np.sum(e)
    return _gaussian_cv(n, d, h, n + 2.0 * sums[0], 2.0 * sums[1])


def _gaussian_cv(n: int, d: int, h: np.ndarray, all_e, off_e2) -> np.ndarray:
    """CV(h) = int p_hat^2 - (2/n) sum_i p_hat_{-i}(X_i) from the kernel sums
    sum_(i,j) e over all pairs and sum_(i != j) e^2 over distinct ones."""
    conv_norm = (4.0 * np.pi * h * h) ** (d / 2.0)
    kern_norm = (2.0 * np.pi) ** (d / 2.0) * h**d
    int_p2 = all_e / (n * n * conv_norm)
    loo = off_e2 / (n * (n - 1) * kern_norm)
    return int_p2 - 2.0 * loo


def _binned_gaussian(x: np.ndarray, h: np.ndarray, lo: float, delta: float,
                     bins: int):
    """Binned Gaussian CV scores b_k of the candidates h on 1-d data x, and
    bounds on |b_k - CV(h_k)|.

    Linear binning gives point i the weight 1 - f_i on the grid point
    g_a = lo + a delta at or left of it and f_i on g_(a+1), where
    X_i = g_a + f_i delta.  With c_l the bin weights and r_m the
    autocorrelation sum_l c_l c_(l+m), a kernel sum over all pairs becomes
    sum_(i,j) K(X_i - X_j) ~ sum_(l,m) c_l c_m K((l - m) delta)
    = r_0 K(0) + 2 sum_(m>0) r_m K(m delta).

    The binning error.  For each pair (i, j) the binned term is the bilinear
    interpolant of F(x, y) = K(x - y) at (X_i, X_j) from the corners of its
    grid cell.  Linear interpolation over a cell of width delta is within
    (delta^2 / 8) sup|g''| of g, and I = I_x I_y with I_x a convex
    combination, so |F - I F| <= |F - I_y F| + |I_y (F - I_x F)|
    <= (delta^2 / 8) (sup|F_yy| + sup|F_xx|) = (delta^2 / 4) sup|K''|.  The
    same holds on the diagonal i = j, whose exact value n K(0) is subtracted
    where the criterion leaves it out.  For exp(-u^2 / 2 s^2),
    sup|K''| = 1 / s^2 (at u = 0).  The first term of
    CV(h) = sum_(i,j) e / (n^2 sqrt(4 pi) h)
            - 2 (sum_(i,j) e^2 - n) / (n (n-1) sqrt(2 pi) h),
    e = exp(-d^2 / 4h^2), has s^2 = 2h^2, the second s^2 = h^2; over n^2
    pairs the binned score is therefore within
    beta_k = delta^2 / h^3 (1 / (8 sqrt(4 pi)) + n / (2 (n-1) sqrt(2 pi))).

    The rounding.  With M_k = (1 / sqrt(4 pi) + 2n / ((n-1) sqrt(2 pi))) / h,
    an error of eps n^2 in both kernel sums moves a score by at most
    eps M_k.  A length-N FFT is within (log2 N) eta of its result in the
    2-norm, eta about 7 eps (Higham 2002, *Accuracy and Stability of
    Numerical Algorithms*, Thm 24.2); through the power spectrum and the
    inverse FFT that puts r within about 21 eps log2 N n^2 in the 2-norm and
    42 eps sqrt(N) log2 N n^2 in the 1-norm, which bounds the error of the
    weighted lag sums.  The lag sums add at most G eps n^2 (dot products),
    the bin weights at most n eps n^2 (sequential sums), and a point's bin
    position is off by at most 2 eps |X_i - lo| <= 4 eps max|X|, which
    moves a kernel term by at most 1.22 of that over h.  So, with margin for
    the rounding of the exact scores too,
    rho_k = eps M_k (64 sqrt(N) log2 N + 2G + 4n + 10 max|X| / h_k)
    for N = 2G.  The bounds returned are beta_k + rho_k.
    """
    n = x.size
    t = (x - lo) / delta
    left = np.minimum(t.astype(np.intp), bins - 2)
    frac = t - left
    weights = (np.bincount(left, 1.0 - frac, bins)
               + np.bincount(left + 1, frac, bins))
    spectrum = np.fft.rfft(weights, 2 * bins)
    lagged = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, 2 * bins)[:bins]
    lagged[1:] *= 2.0  # lags m and -m
    lag_sq = np.square(np.arange(bins) * delta)
    sums = np.empty((2, h.size))  # sum over all pairs (i, j) of e, and of e^2
    e = np.empty(bins)
    for k, hk in enumerate(h):
        np.divide(lag_sq, -4.0 * hk * hk, out=e)
        np.exp(e, out=e)
        sums[0, k] = lagged @ e
        np.square(e, out=e)
        sums[1, k] = lagged @ e
    scores = _gaussian_cv(n, 1, h, sums[0], sums[1] - n)
    beta = (delta / h) ** 2 / h * (1.0 / (8.0 * _SQRT_4PI)
                                   + n / (2.0 * (n - 1) * _SQRT_2PI))
    scale = (1.0 / _SQRT_4PI + 2.0 * n / ((n - 1) * _SQRT_2PI)) / h
    fft_len = 2 * bins
    rounding = np.finfo(float).eps * scale * (
        64.0 * math.sqrt(fft_len) * math.log2(fft_len) + 2.0 * bins + 4.0 * n
        + 10.0 * np.max(np.abs(x)) / h)
    return scores, beta + rounding


def _screen(x: np.ndarray, h: np.ndarray):
    """Binned scores and bounds of the candidates h on 1-d data x, and the
    mask of those the screen cannot rule out; None where bins cannot be
    formed.

    A candidate outside S = {k : b_k - bound_k <= min_j (b_j + bound_j)}
    scores above the exact score of the j that attains the min, so it is not
    the argmin; while |S| > 1, S is screened again on 4x as many bins.
    """
    n = x.size
    lo, hi = float(x.min()), float(x.max())
    most = min(_LSCV_MAX_BINS, n * (n - 1) // 2)
    scores, bounds = np.empty(h.size), np.empty(h.size)
    survivors = np.ones(h.size, dtype=bool)
    bins = _LSCV_BINS
    while True:
        with np.errstate(over="ignore"):
            delta = (hi - lo) / (bins - 1)
            if not 0.0 < delta * delta < np.inf:
                return None
            b, bound = _binned_gaussian(x, h[survivors], lo, delta, bins)
        if not np.all(np.isfinite(bound)):
            return None
        scores[survivors], bounds[survivors] = b, bound
        survivors &= scores - bounds <= np.min((scores + bounds)[survivors])
        if np.count_nonzero(survivors) == 1 or 4 * bins > most:
            return scores, bounds, survivors
        bins *= 4


def _lscv_scores_gaussian(sample: estimator.Sample, h_grid: np.ndarray):
    """CV(h) = int p_hat^2 - (2/n) sum_i p_hat_{-i}(X_i), Gaussian closed
    form, and each score's bound (0 where exact).

    1-d samples of more than _LSCV_BINS pairs go through the binned screen,
    on one OpenBLAS thread (``blocks``: its lag sums are threaded dot products);
    the candidates it leaves, and every candidate of the other samples, are
    scored exactly.
    """
    data = sample.data
    n = sample.n
    scores, bounds = np.empty(h_grid.size), np.zeros(h_grid.size)
    exact = np.ones(h_grid.size, dtype=bool)
    if sample.dim == 1 and n * (n - 1) // 2 > _LSCV_BINS:
        with blocks.one_blas_thread():
            screened = _screen(data[:, 0], h_grid)
        if screened is not None:
            scores, bounds, exact = screened
            if np.count_nonzero(exact) == 1:
                return scores, bounds
    scores[exact] = _exact_gaussian(data, h_grid[exact])
    bounds[exact] = 0.0
    return scores, bounds


def _pairs_within(data: np.ndarray, h_grid: np.ndarray) -> np.ndarray:
    """The number of sample pairs i < j at distance sqrt(d^2) <= h, for each
    h, on one pair walk."""
    within = np.zeros(h_grid.size, dtype=np.int64)
    for sq in _pair_blocks(data):
        dist = np.sqrt(sq, out=sq)
        for k, h in enumerate(h_grid):
            within[k] += np.count_nonzero(dist <= h)
    return within


def _lscv_scores_spherical(sample: estimator.Sample, h_grid: np.ndarray) -> np.ndarray:
    """Spherical-kernel CV scores; int p_hat^2 by trapezoidal quadrature."""
    data = sample.data
    n, d = data.shape
    if d > 2:
        raise ValueError("spherical LSCV quadrature supports d <= 2 only")
    within = _pairs_within(data, h_grid)
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
        cross = 2.0 * within[idx] / vol
        loo = cross / (n * (n - 1) * h**d)
        scores[idx] = float(int_p2) - 2.0 * loo
    return scores


def _unscorable(h_grid: np.ndarray, d: int) -> np.ndarray:
    """Candidates whose scale 4 h^2 or normalizer (4 pi h^2)^(d/2) is not a
    normal float: their scores would divide by 0 or lose every digit."""
    with np.errstate(over="ignore", under="ignore"):
        scales = np.stack([4.0 * h_grid * h_grid,
                           (4.0 * np.pi * h_grid * h_grid) ** (d / 2.0)])
    info = np.finfo(float)
    return ~np.all((scales >= info.tiny) & (scales <= info.max), axis=0)


def lscv(sample: estimator.Sample, kernel: KernelSpec, h_grid) -> LscvResult:
    """Least-squares cross-validation over a candidate grid.

    Returns the argmin with ties broken toward smaller h, along with the full
    CV curve and each score's bound.  A candidate whose score cannot be
    formed on this sample is an error that names it.
    """
    h_grid = _check_lscv_grid(h_grid)
    if sample.n < 3:
        raise ValueError("LSCV needs n >= 3")
    bad = _unscorable(h_grid, sample.dim)
    if not bad.any():
        if kernel.family is KernelFamily.GAUSSIAN:
            scores, bounds = _lscv_scores_gaussian(sample, h_grid)
        else:
            scores = _lscv_scores_spherical(sample, h_grid)
            bounds = np.zeros(h_grid.size)
        bad = ~np.isfinite(scores)
    if bad.any():
        raise ValueError(f"LSCV candidate h={float(h_grid[bad][0])!r} has no "
                         f"finite score on this sample")
    best = int(np.argmin(scores))  # argmin returns the first (smallest-h) tie
    return LscvResult(h=float(h_grid[best]), grid=h_grid, scores=scores,
                      bounds=bounds)


def laplacian_squared_integral(model: estimator.DensityModel) -> float:
    """Plug-in estimate of the curvature functional int |laplacian p|^2 dx,
    by the trapezoid rule on 512 points in 1-d and 128^2 in 2-d.

    The Gaussian kernel's Laplacian is sum_l phi''(u_l) prod_(k != l) phi(u_k),
    so on the quadrature grid it is the sum over l of the per-axis factor
    products with phi'' on axis l.
    """
    estimator._require_gaussian(model, "laplacian")
    if model.dim > 2:
        raise ValueError("curvature quadrature supports d <= 2 only")
    axes = estimator.default_axes(model, resolution=512 if model.dim == 1 else 128,
                                  padding=4.0)
    lap = sum(estimator._factor_sums(model, axes, second=l) for l in range(model.dim))
    lap /= model.n * estimator._bandwidth_power(model, model.dim + 2) * model.kernel.normalizer
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


def amise_plugin(sample: estimator.Sample, kernel: KernelSpec) -> float:
    """AMISE plug-in bandwidth with an oversmoothed pilot for the curvature.

    The pilot is 1.2 x rule_of_thumb; the oversmoothing keeps the
    second-derivative plug-in stable.
    """
    gauss = KernelSpec(KernelFamily.GAUSSIAN, sample.dim)
    pilot = estimator.DensityModel(sample, gauss, 1.2 * rule_of_thumb(sample))
    curvature = laplacian_squared_integral(pilot)
    return amise_optimal_h(kernel, curvature, sample.n)
