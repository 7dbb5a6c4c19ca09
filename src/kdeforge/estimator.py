"""Kernel density estimation, analytic density derivatives, and grid evaluation.

The estimator is p_hat(x) = (1 / (n h^d)) * sum_i K((x - X_i) / h).  Partial
derivatives up to order two are computed from the analytic Gaussian kernel
derivatives, scaled by 1 / (n h^(d + |beta|)); the kernel sums go to order
three, whose moments SCMS's Newton step needs (``geometry``).

Every kernel or CDF term at arbitrary queries comes from one row source,
``PairRows``: a fill says what it does with the exact offsets
u = (x - X_i) / h, and the source forms any rows of the (n, m) matrix of
terms, the whole matrix (a slice of sample rows at a time, in place in its
output), or its column sums without the matrix.  The sums, like the kernel
sums of ``_kernel_sums``, go through the pair pass ``_pairs``: each worker
takes a slice of queries and walks the sample in cache-sized tiles, formed
in one scratch area, each tile carrying the running sums in its first row.
Both walks run their slices on the CPUs this process may use (``blocks``),
with the same bits whatever their number, so the bootstraps never hold the
whole matrix.

Gaussian tensor grids take a second path, ``_factor_sums``.  The
Gaussian kernel is a product of 1-d kernels, so on a grid with axes a_l the
kernel sum is a contraction of one (n, G_l) factor matrix phi((a_l - X_il) / h)
per axis (product kernels, Wand & Jones 1995, *Kernel Smoothing*, ch. 4); no
(n, G_1 ... G_d) kernel block is built.  It is exact but for factors too small
to matter (see _FLUSH_EXPONENT).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import blocks
from .kernels import KernelFamily, KernelSpec, UnsupportedDerivativeError, evaluate_sq

# Gaussian mass beyond 6 standard deviations is < 1e-8 of the kernel peak.
# No evaluation truncates; perfbench/spans.py counts the kernel pairs within
# this radius for its near-pair ratio.
TRUNCATION_RADIUS = 6.0

# A slice of the row sources' matrix walk holds about this many float64
# values (2 MB), and a query slice of the pair pass this many pairs, whatever
# the number of queries; with several workers, all the slices in flight do.
_BLOCK_ELEMENTS = 2**18

# Each array of a pair-pass tile holds about this many values (256 KB), so
# that a tile's offsets, norms and kernel values stay in cache.
_TILE_ELEMENTS = 2**15

# A query slice of the pair pass spans this many times _BLOCK_ELEMENTS pairs
# (at most _TILE_ELEMENTS queries): its tiles bound its memory, and the wider
# a slice, the longer the rows numpy's broadcasts and reductions loop over.
_SLICE_BLOCKS = 4

# The grid path sets per-axis factors below exp(-_FLUSH_EXPONENT / d) to 0, so
# no product of d factors is subnormal (subnormal arithmetic runs many times
# slower, in exp and in the BLAS product).  A flushed pair weighs less than
# that, at most 1e-101 of the kernel peak.
_FLUSH_EXPONENT = 700.0


@dataclass(frozen=True)
class Sample:
    """An n x d matrix of observations."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim == 1:
            data = data[:, None]
        if data.ndim != 2 or data.shape[0] < 1:
            raise ValueError("sample must be a nonempty n x d matrix")
        if not np.all(np.isfinite(data)):
            raise ValueError("sample contains non-finite entries")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class DensityModel:
    """Immutable bundle of sample, kernel, and bandwidth; all evaluation runs
    against this object."""

    sample: Sample
    kernel: KernelSpec
    bandwidth: float

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.kernel.dim != self.sample.dim:
            raise ValueError(
                f"kernel dim {self.kernel.dim} != sample dim {self.sample.dim}"
            )

    @property
    def n(self) -> int:
        return self.sample.n

    @property
    def dim(self) -> int:
        return self.sample.dim


@dataclass(frozen=True)
class EvalGrid:
    """A tensor-product evaluation grid with densities, row-major over axes."""

    axes: tuple
    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        axes = tuple(np.asarray(ax, dtype=float) for ax in self.axes)
        for ax in axes:
            if ax.size == 0:
                raise ValueError("empty grid axis")
            if ax.size > 1 and not np.all(np.diff(ax) > 0):
                raise ValueError("grid axes must be strictly increasing")
        object.__setattr__(self, "axes", axes)
        expected = int(np.prod([ax.size for ax in axes]))
        if self.points.shape[0] != expected or self.values.shape[0] != expected:
            raise ValueError("point count must equal product of axis lengths")

    @property
    def shape(self) -> tuple:
        return tuple(ax.size for ax in self.axes)


def _query_matrix(model: DensityModel, x) -> np.ndarray:
    """The (m, d) matrix of the query points ``x``, the one reading of every
    query array: a 1-D array is m points on a 1-d model, one point otherwise."""
    x = np.asarray(x, dtype=float)
    if x.ndim > 2:
        raise ValueError(f"query array has {x.ndim} dimensions, more than 2")
    if x.ndim < 2:
        x = x.reshape(-1, 1) if model.dim == 1 else x.reshape(1, -1)
    if x.shape[1] != model.dim:
        raise ValueError(f"query dimension {x.shape[1]} != model dim {model.dim}")
    if not np.isfinite(x).all():
        raise ValueError("query point must be finite")
    return x


def _query_point(model: DensityModel, x) -> np.ndarray:
    """The (1, d) matrix of a single query point; several points are refused."""
    x = _query_matrix(model, x)
    if x.shape[0] != 1:
        raise ValueError(f"expected one query point, got {x.shape[0]}")
    return x


def _pairs(model: DensityModel, x: np.ndarray, fn, scratch: int = 0) -> None:
    """The pair pass: each worker takes a slice ``rows`` of the (m, d) queries
    ``x`` (about _SLICE_BLOCKS * _BLOCK_ELEMENTS / n of them, that budget
    shared among the workers, see ``blocks``) and walks the sample in tiles
    of about _TILE_ELEMENTS pairs: fn(rows, tile) on the first tile,
    fn(rows, tile, True) on each later one.  tile[l] holds the scaled offsets
    u_l = (x_jl - X_il) / h of the tile's r rows, (r, b), then come
    ``scratch`` more (r, b) arrays for fn, all in one area that every tile
    of the slice reuses; fn stores what it reduces over the rows.  A later
    tile starts one sample row early, the row 0 in which fn carries its
    running sums (``_add_rows``).

    numpy sums an (n, 1) array over n pairwise but a wider one row by row,
    so a slice holds at least two queries (a lone last query joins the slice
    before it), and a lone query is one tile of all n rows: sums over n then
    have the bits of a single (n, m) array, whatever the workers and tiles.
    """
    data, h = model.sample.data, model.bandwidth
    n, d = data.shape

    def walk(rows):
        xq = x[rows]
        step = n if xq.shape[0] < 2 else max(1, _TILE_ELEMENTS // xq.shape[0])
        work = list(np.empty((d + scratch, min(step + 1, n), xq.shape[0])))
        for start in range(0, n, step):
            lo, stop = max(start - 1, 0), min(start + step, n)
            tile = work if stop - lo == n else [a[:stop - lo] for a in work]
            for l in range(d):
                np.subtract(xq[:, l], data[lo:stop, l:l + 1], out=tile[l])
                tile[l] /= h
            fn(rows, tile, True) if start else fn(rows, tile)

    budget = _SLICE_BLOCKS * _BLOCK_ELEMENTS  # at most _TILE_ELEMENTS queries a slice
    blocks.run(walk, *blocks.split(x.shape[0], max(n, budget // _TILE_ELEMENTS), budget, 2))


def _add_rows(out: np.ndarray, a: np.ndarray, b=None, carry: bool = False) -> None:
    """Store in ``out`` the sum over the rows of ``a``, or of a * b by einsum
    when ``b`` is given, numpy's row-by-row sum.  On a tile that carries (see
    ``_pairs``), row 0 of ``a`` first takes the running sum in ``out`` and row
    0 of ``b`` takes 1.0, so the sum goes on from it with the same bits."""
    if carry:
        a[0] = out
        if b is not None:
            b[0] = 1.0
    out[...] = a.sum(axis=0) if b is None else np.einsum("ij,ij->j", a, b)


def _offsets(model: DensityModel, x: np.ndarray, sample: np.ndarray, block=None) -> list:
    """The scaled offsets u_l = (x_jl - X_il) / h of the queries ``x`` from the
    rows of ``sample``, one (rows, m) array per l, u_0 formed in ``block``
    when it is given."""
    u = []
    for l in range(x.shape[1]):
        ul = np.subtract(x[:, l], sample[:, l:l + 1], out=block if l == 0 else None)
        ul /= model.bandwidth
        u.append(ul)
    return u


class PairRows:
    """An (n, m) matrix of per-pair terms at the (m, d) queries ``x``, formed
    on demand: ``fill(u)`` leaves the terms of the offsets u of a block of
    pairs in u[0] (see ``_offsets``).

    ``source[a:b]`` forms rows a to b, ``source.form(a, b, out)`` forms them
    in ``out``, ``source.matrix()`` forms all n, a slice of sample rows on
    each worker, and ``source.sums()`` gives the column sums through the
    pair pass, a slice of queries on each worker, a tile at a time, with the
    bits of ``matrix().sum(axis=0)`` (see ``_pairs``) and without the
    matrix.  Every entry has the same bits whichever forms it, since each is
    a function of its own offset alone.  A bootstrap takes its rows a chunk
    at a time (``inference._replicate_products``) and never holds the matrix.

    ``series``, on a 1-d Gaussian model, names the terms' Hermite expansion
    (``hermite``): its kind ("kernel", "debiased" or "integrated") and the
    divisor the terms carry; None where the terms have none.
    """

    def __init__(self, model: DensityModel, x: np.ndarray, fill, series=None):
        self.model, self.x, self.fill, self.series = model, x, fill, series
        self.shape = (model.n, x.shape[0])

    def form(self, start: int, stop: int, out: np.ndarray) -> np.ndarray:
        self.fill(_offsets(self.model, self.x, self.model.sample.data[start:stop], out))
        return out

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(self.shape[0])
        return self.form(start, stop, np.empty((max(stop - start, 0), self.shape[1])))

    def matrix(self) -> np.ndarray:
        out = np.empty(self.shape)
        blocks.run(lambda rows: self.form(rows.start, rows.stop, out[rows]),
                   *blocks.split(*self.shape, _BLOCK_ELEMENTS, 2))
        return out

    def sums(self) -> np.ndarray:
        out = np.empty(self.shape[1])

        def reduce(rows, u, carry=False):
            self.fill(u)
            _add_rows(out[rows], u[0], carry=carry)

        _pairs(self.model, self.x, reduce)
        return out


def _squared_norm(u, out=None, tmp=None) -> np.ndarray:
    """sum_l u_l^2 of the offsets ``u``, accumulated one coordinate at a time,
    in ``out`` when it is given (which may be u[0] itself), each square after
    the first formed in ``tmp`` when it is given."""
    sq = np.square(u[0], out=out)
    for ul in u[1:]:
        sq += np.square(ul, out=tmp)
    return sq


def _kernel_sums(model: DensityModel, x: np.ndarray, order: int):
    """Kernel sums over the sample at each query, with u_i = (x - X_i) / h:

    s0 = sum_i K(u_i) (m,), s1 = sum_i K(u_i) u_i (m, d),
    s2 = sum_i K(u_i) u_i u_i^T (m, d, d) and s3 = sum_i K(u_i) u_i (x) u_i (x) u_i
    (m, d, d, d); returns (s0, ..., s_order).  Each sum is the same whatever
    the order asked for.

    ``x`` is an (m, d) array of finite queries (see ``_query_matrix``).  No
    (n, m, d) array is built: the pair pass forms the offsets, norms, kernel
    values and their products a tile at a time in one scratch area, and
    each sum carries on from tile to tile (``_pairs``).
    """
    m, d = x.shape
    sums = [np.empty((m,) + (d,) * k) for k in range(order + 1)]
    distinct = np.empty((m, math.comb(d + 2, 3) if order == 3 else 0))  # s3 at l >= j >= i

    def fill(rows, tile, carry=False):
        u, (k, ku, kuu) = tile[:d], tile[d:]
        evaluate_sq(model.kernel, _squared_norm(u, out=k, tmp=ku), out=k)
        _add_rows(sums[0][rows], k, carry=carry)
        entry = 0
        for l in range(d if order >= 1 else 0):
            _add_rows(sums[1][rows, l], k, u[l], carry)
            if order >= 2:
                np.multiply(k, u[l], out=ku)
                for j in range(l + 1):
                    _add_rows(sums[2][rows, l, j], ku, u[j], carry)
                    if order == 3:
                        np.multiply(ku, u[j], out=kuu)
                        for i in range(j + 1):
                            _add_rows(distinct[rows, entry], kuu, u[i], carry)
                            entry += 1

    _pairs(model, x, fill, 3)
    for j, l in itertools.combinations(range(d if order >= 2 else 0), 2):
        sums[2][:, j, l] = sums[2][:, l, j]  # s2 is symmetric
    if order == 3:
        sums[3] = distinct[:, _symmetric_entries(d)].reshape(m, d, d, d)
    return tuple(sums)


@functools.cache
def _symmetric_entries(d: int) -> list:
    """For each entry (a, b, c) of a symmetric (d, d, d) tensor, row-major, the
    position of its sorted index l >= j >= i among those ``_kernel_sums``
    forms, in the order it forms them."""
    formed = [(l, j, i) for l in range(d) for j in range(l + 1) for i in range(j + 1)]
    return [formed.index(tuple(sorted(index, reverse=True)))
            for index in itertools.product(range(d), repeat=3)]


class DataRangeError(ValueError):
    """The data's range, or a power of the bandwidth, overflows float64."""


def _bandwidth_power(model: DensityModel, k: int) -> float:
    """h^k, refused with a DataRangeError where it overflows float64."""
    try:
        return float(model.bandwidth) ** k
    except OverflowError:
        raise DataRangeError(f"h^{k} overflows float64 (h = {model.bandwidth:g}, "
                             f"d = {model.dim})") from None


def _gradients(model: DensityModel, s1: np.ndarray) -> np.ndarray:
    """KDE gradients from the first-order kernel sums."""
    return s1 / (-model.n * _bandwidth_power(model, model.dim + 1))


def _hessians(model: DensityModel, s0: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """KDE Hessians from the zeroth- and second-order kernel sums."""
    eye = np.eye(model.dim)
    return (s2 - s0[:, None, None] * eye) / (
        model.n * _bandwidth_power(model, model.dim + 2))


def kernel_value_rows(model: DensityModel, queries) -> PairRows:
    """The rows of K((x_q - X_i) / h) for query points x_q, formed on demand.

    The plain bootstrap's per-observation contributions: over n h^d, their
    column sums are the KDE and a replicate's counts @ them are that
    replicate's.
    """
    gaussian_1d = model.dim == 1 and model.kernel.differentiable
    return PairRows(model, _query_matrix(model, queries), lambda u: evaluate_sq(
        model.kernel, _squared_norm(u, out=u[0]), out=u[0]),  # all in place in u_0
        ("kernel", 1.0) if gaussian_1d else None)


def kernel_value_matrix(model: DensityModel, queries: np.ndarray) -> np.ndarray:
    """(n, m) matrix of K((x_q - X_i) / h) for query points x_q: every row of
    ``kernel_value_rows``."""
    return kernel_value_rows(model, queries).matrix()


def kernel_laplacian_matrix(model: DensityModel, queries: np.ndarray) -> np.ndarray:
    """(n, m) matrix of (sum_l d^2/du_l^2) K(u) at u = (x_q - X_i) / h."""
    _require_gaussian(model, "laplacian")

    def fill(u):
        sq = _squared_norm(u)
        block = evaluate_sq(model.kernel, sq, out=u[0])  # u_0 is not needed again
        sq -= model.dim
        block *= sq

    return PairRows(model, _query_matrix(model, queries), fill).matrix()


def density(model: DensityModel, queries) -> np.ndarray:
    """KDE values at an (m, d) array of query points."""
    (s0,) = _kernel_sums(model, _query_matrix(model, queries), 0)
    return s0 / (model.n * _bandwidth_power(model, model.dim))


def density_at(model: DensityModel, x) -> float:
    """KDE value at a single point."""
    return float(density(model, _query_point(model, x))[0])


def _require_gaussian(model: DensityModel, what: str):
    """Refuse a kernel without analytic derivatives: ``what`` needs them."""
    if not model.kernel.differentiable:
        raise UnsupportedDerivativeError(f"{what} requires the Gaussian kernel")


def derivative_at(model: DensityModel, x, beta) -> float:
    """Partial derivative D^beta p_hat(x) for a multi-index with |beta| <= 2."""
    _require_gaussian(model, "a density derivative")
    beta = np.asarray(beta, dtype=int)
    if beta.shape != (model.dim,) or np.any(beta < 0):
        raise ValueError("beta must be a nonnegative multi-index of length d")
    order = int(beta.sum())
    if order > 2:
        raise ValueError(f"derivatives of order {order} > 2 are unsupported")
    if order == 0:
        return density_at(model, x)
    nz = np.flatnonzero(beta)
    if order == 1:
        return float(gradient_at(model, x)[nz[0]])
    return float(hessian_at(model, x)[nz[0], nz[-1]])


def gradient_at(model: DensityModel, x) -> np.ndarray:
    """Gradient of the KDE at a single point."""
    return gradient(model, _query_point(model, x))[0]


def gradient(model: DensityModel, queries) -> np.ndarray:
    """(m, d) array of KDE gradients."""
    _require_gaussian(model, "a density derivative")
    _, s1 = _kernel_sums(model, _query_matrix(model, queries), 1)
    return _gradients(model, s1)


def hessian_at(model: DensityModel, x) -> np.ndarray:
    """Hessian matrix of the KDE at a single point (exactly symmetric)."""
    _require_gaussian(model, "a density derivative")
    s0, _, s2 = _kernel_sums(model, _query_point(model, x), 2)
    return _hessians(model, s0, s2)[0]


def default_axes(model: DensityModel, resolution: int = 256, padding: float = 3.0):
    """Per-axis breakpoints spanning the data range +/- ``padding * h``."""
    data = model.sample.data
    h = model.bandwidth
    axes = []
    for l in range(model.dim):
        lo, hi = data[:, l].min(), data[:, l].max()
        with np.errstate(over="ignore", invalid="ignore"):
            start, stop = lo - padding * h, hi + padding * h
            span = stop - start
        if not np.isfinite(span):
            raise DataRangeError(
                f"axis {l}: data range [{lo:g}, {hi:g}] +/- {padding:g} * h "
                f"(h = {h:g}) overflows float64")
        axes.append(np.linspace(start, stop, resolution))
    return tuple(axes)


def grid_points(axes) -> np.ndarray:
    """Flattened row-major cartesian product of the axes, shape (m, d)."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _factor_sums(model: DensityModel, axes, second: int | None = None) -> np.ndarray:
    """Gaussian kernel sums over the sample on the tensor grid ``axes``.

    Returns the (G_1, ..., G_d) array of sum_i prod_l f(u_il) over the grid
    points (a_1, ..., a_d), with u_il = (a_l - X_il) / h, f(t) = exp(-t^2 / 2)
    and, on axis ``second`` when it is given, f(t) = (t^2 - 1) exp(-t^2 / 2);
    the normalizer (2 pi)^(d/2) is left to the caller.  The sum runs over
    blocks of sample rows whose factor matrices and partial products hold
    about _BLOCK_ELEMENTS values each: per block, A.sum(0) in 1-d, A.T @ B in
    2-d, and in d > 2 the row-wise outer product of all but the last factor
    times the last.  The blocks go in waves whose parts hold about
    _BLOCK_ELEMENTS values together: each worker forms a contiguous range of
    a wave's blocks in one scratch area, and the parts are added in block
    order, with OpenBLAS on one thread, so the sum has the same bits on any
    number of workers and CPUs.
    """
    data = model.sample.data
    h = model.bandwidth
    sizes = [ax.size for ax in axes]
    step = max(1, _BLOCK_ELEMENTS // max(1, *sizes, math.prod(sizes[:-1])))
    flush_sq = 2.0 * _FLUSH_EXPONENT / len(axes)
    starts = range(0, data.shape[0], step)
    rows_max, widest = min(step, data.shape[0]), max(sizes)
    total = np.zeros(math.prod(sizes))
    parts = [None] * min(len(starts), max(1, _BLOCK_ELEMENTS // max(1, total.size)))

    def form(indices):  # blocks formed in one scratch area
        scratch = [np.empty((rows_max, g)) for g in sizes]
        curve_area, far_area = np.empty(rows_max * widest), np.empty(rows_max * widest, bool)
        for i in indices:
            rows = data[starts[i]:starts[i] + step]
            factors = [f[:rows.shape[0]] for f in scratch]
            for l, (ax, f) in enumerate(zip(axes, factors)):
                np.subtract(ax, rows[:, l:l + 1], out=f)
                f /= h
                f *= f  # u^2
                far = np.greater(f, flush_sq, out=far_area[:f.size].reshape(f.shape))
                if l == second:
                    curve = np.subtract(f, 1.0, out=curve_area[:f.size].reshape(f.shape))
                np.minimum(f, flush_sq, out=f)
                f *= -0.5
                np.exp(f, out=f)  # never subnormal
                f[far] = 0.0
                if l == second:
                    f *= curve
            head = factors[0]
            for f in factors[1:-1]:
                head = (head[:, :, None] * f[:, None, :]).reshape(head.shape[0], -1)
            part = head.sum(axis=0) if len(axes) == 1 else head.T @ factors[-1]
            parts[i % len(parts)] = part.ravel()  # its place in the wave

    with blocks.one_blas_thread():  # see blocks: the same bits on any workers
        for first in range(0, len(starts), len(parts)):
            wave = range(first, min(first + len(parts), len(starts)))
            workers = blocks.workers_for(len(wave))
            blocks.run(form, blocks.ranges(wave, workers), workers)
            for part in parts[:len(wave)]:
                total += part
    return total.reshape(sizes)


def evaluate_grid(model: DensityModel, axes=None, resolution: int = 256) -> EvalGrid:
    """Evaluate the KDE on a tensor-product grid (row-major over axes).

    Gaussian grids are products of per-axis factors (``_factor_sums``); other
    kernels go through the pair pass at every grid point.
    """
    if axes is None:
        axes = default_axes(model, resolution=resolution)
    axes = tuple(np.asarray(ax, dtype=float) for ax in axes)
    if len(axes) != model.dim:
        raise ValueError(f"expected {model.dim} axes, got {len(axes)}")
    pts = grid_points(axes)
    if model.kernel.family is KernelFamily.GAUSSIAN:
        values = _factor_sums(model, axes).ravel()
        values /= model.n * _bandwidth_power(model, model.dim) * model.kernel.normalizer
    else:
        values = density(model, pts)
    return EvalGrid(axes=axes, points=pts, values=values)
