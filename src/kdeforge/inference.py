"""Bootstrap machinery, pointwise confidence intervals, and confidence bands.

Pointwise constructions:

* ``ci_plugin``            -- normal interval with the plug-in variance
                              mu_k * p_hat(x) / (n h^d).
* ``ci_bootstrap_plugin``  -- normal interval with the bootstrap standard
                              deviation of replicate KDE values.
* ``ci_bootstrap``         -- per-point quantile of |p*_j(x) - p_hat(x)|.

Simultaneous constructions:

* ``band_plugin_evt``          -- extreme-value limit of the normalized sup
                                  deviation (slow convergence; shipped for
                                  completeness, not for coverage guarantees).
* ``band_bootstrap``           -- quantile of the sup-norm bootstrap deviation;
                                  valid for the smoothed density p_h.
* ``band_debiased_bootstrap``  -- the same sup-norm bootstrap applied to the
                                  bias-corrected KDE
                                  p_tilde = p_hat - (h^2/2) sigma_k^2 lap p_hat
                                  (curvature bandwidth b = h), valid for the
                                  true density when h is at the n^(-1/(d+4))
                                  rate.

Every bootstrap here and in ``distfunc.roc_band`` reduces replicate counts @
per-observation contributions, and none builds the (n, m) matrix of
contributions: ``_replicate_products`` either multiplies the counts through
a Hermite expansion about blocks of the sorted sample (``hermite``, the fast
Gauss transform, for 1-d Gaussian terms where a cost rule finds it four
times cheaper: the bands and intervals at n = 20 000 and 256 points), or
forms the contributions a chunk of sample rows at a time and multiplies them
exactly.  Either way the draws and products are the tasks of one block job
(``blocks``), with OpenBLAS on one thread, and every output row has the same
bits on any number of CPUs.  The counts are those of
``default_rng([seed, r]).integers(0, n, n)``, but a replicate of at most
2**14 draws takes them from its raw PCG64 words, a chunk of replicates at a
time (``_raw_counts``): numpy's bounded-integer rule applied to whole arrays,
with the rare replicate where numpy redraws a word redone on its Generator.

All sup norms are taken over the evaluation grid, not the continuum; use at
least ~256 grid points per dimension.  Empirical quantiles are pinned to the
ceil((1-alpha) B)-th order statistic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import blocks, estimator, kernels
from .estimator import DensityModel, Sample

# A block of replicates drawn by one task holds about this many counts (96
# replicates at n = 20 000 on one CPU, 48 a block on two), a whole multiple of
# _ROW_ALIGN replicates.
_COUNT_BLOCK_ELEMENTS = 2**21
_ROW_ALIGN = 16
# A chunk of replicates whose counts come from raw generator words holds about
# this many draws, so its int64 scratch (256 KB an array) stays in cache.
_RAW_CHUNK_DRAWS = 2**15
# A chunk of sample rows of contributions holds about this many float64 values
# (1 MB; 512 rows at 256 points), and at most _CHUNK_MAX_ROWS rows, so the
# counts of _ROW_ALIGN replicates over a chunk stay small at narrow grids.
_CHUNK_ELEMENTS = 2**17
_CHUNK_MAX_ROWS = 4096
# Chunks of contributions held at once: chunk k + 2 is formed while chunk k
# is multiplied.
_CHUNKS_IN_FLIGHT = 3
# The float64 copies of the counts that the chunk products in flight multiply
# hold about this many values (2 MB), all workers together.
_PRODUCT_ELEMENTS = 2**18
# The counts of every replicate are drawn at once, unless their bytes would
# pass both this and the bytes of the contribution matrices.
_COUNT_BYTES = 2**24
# Replicates a task of the expansion path draws and multiplies (16 to 96
# within 20 % of each other at n = 20 000, 32 the fastest): it holds their
# counts, n bytes a replicate, and two transposed copies of them.
_EXPANSION_ROWS = 32


@dataclass(frozen=True)
class BootstrapPlan:
    """Replicate count and seed.  Replicate r draws each group's n indices
    with replacement, group after group, from default_rng([seed, r]) (see
    ``rng``), so results depend neither on replicate order, nor on blocking,
    nor on the number of threads that draw the blocks.  The stream is
    default_rng's, but its generators are seeded a block of replicates at a
    time, from SeedSequence words computed for the whole block at once
    (``_bit_generators``), and a replicate of at most 2**14 draws has its
    indices derived from its raw PCG64 words as numpy's ``integers`` derives
    them, redone on ``rng(r)`` where numpy would redraw a word
    (``_block_counts``).  A bootstrap holds each count in a byte: an
    observation drawn 256 times or more in one replicate (probability below
    n / 256!) is refused, not wrapped."""

    replicates: int
    seed: int

    def __post_init__(self):
        if self.replicates < 2:
            raise ValueError(f"need at least 2 bootstrap replicates, got {self.replicates}")
        if self.replicates >= 2**32:
            # r must fit the one SeedSequence word _seed_words gives it
            raise ValueError(f"need fewer than 2**32 replicates, got {self.replicates}")
        check_seed(self.seed)

    def rng(self, r: int) -> np.random.Generator:
        """Replicate r's generator, default_rng([seed, r])."""
        if not 0 <= r < self.replicates:
            raise ValueError(f"replicate index {r} out of range")
        return np.random.default_rng([self.seed, r])


def check_seed(seed) -> None:
    """Reject seeds outside [0, 2^64), which would alias other seeds' streams."""
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


@dataclass(frozen=True)
class IntervalResult:
    """Pointwise intervals on a grid.  ``target`` is "smoothed" (p_h) except
    for the debiased construction, which targets the true density."""

    grid: np.ndarray
    center: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    alpha: float
    method: str
    target: str = "smoothed"
    degenerate: np.ndarray | None = None

    def to_dict(self) -> dict:
        out = {
            "grid": self.grid.tolist(),
            "center": self.center.tolist(),
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
            "alpha": self.alpha,
            "method": self.method,
            "target": self.target,
        }
        if self.degenerate is not None:
            out["degenerate"] = self.degenerate.astype(bool).tolist()
        return out


@dataclass(frozen=True)
class BandResult(IntervalResult):
    """A simultaneous band.  ``halfwidth`` is the constant half-width for the
    bootstrap constructions; None for the extreme-value band, whose width
    varies with p_hat(x)."""

    halfwidth: float | None = None
    warnings: tuple = ()
    center_clipped: np.ndarray | None = None

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["halfwidth"] = self.halfwidth
        if self.warnings:
            out["warnings"] = list(self.warnings)
        if self.center_clipped is not None:
            out["center_clipped"] = self.center_clipped.tolist()
        return out


def _seed_words(seed: int, replicates: np.ndarray) -> np.ndarray:
    """(rows, 4) uint64: row i holds what
    SeedSequence([seed, replicates[i]]).generate_state(4, np.uint64) gives.

    numpy's SeedSequence hashing in uint32 array arithmetic, a few array
    operations per step for all replicates: the entropy is the seed's 32-bit
    words, least significant first, then r (each index below 2**32); a pool
    of 4 words is filled by ``hashmix``, mixed pairwise by ``mix``, and
    drawn out as 8 words, read as 4 little-endian uint64 words.  Calls of
    ``hashmix`` whose inputs do not depend on each other go as the rows of
    one array, each row with its own hash constant.
    """
    shift = np.uint32(16)

    def constants(const: int, mult: int, calls: int) -> np.ndarray:
        """The hash constant before each of ``calls`` calls and after the
        last, as a column: numpy advances it by ``mult`` on each call."""
        out = [const]
        for _ in range(calls):
            out.append(out[-1] * mult & 0xFFFFFFFF)
        return np.array(out, dtype=np.uint32)[:, None]

    def hashmix(values, consts, k: int):
        """numpy's hashmix as calls k, k + 1, ... on the rows of ``values``."""
        values = values ^ consts[k:k + len(values)]
        values = values * consts[k + 1:k + 1 + len(values)]
        return values ^ (values >> shift)

    def mix(x, y):
        out = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
        return out ^ (out >> shift)

    r = np.asarray(replicates, dtype=np.uint32)
    seed = int(seed)
    words = [seed & 0xFFFFFFFF]
    while seed := seed >> 32:
        words.append(seed & 0xFFFFFFFF)
    entropy = np.zeros((4, r.size), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = r
    mixing = constants(0x43B0D7E5, 0x931E8875, 16)
    pool = hashmix(entropy, mixing, 0)
    for src in range(4):  # the three calls on pool[src], one per other word
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[[src] * 3], mixing, 4 + 3 * src))
    state = hashmix(np.tile(pool, (2, 1)), constants(0x8B51F9DD, 0x58F38DED, 8), 0)
    state = np.ascontiguousarray(state.T, dtype="<u4")
    return state.view("<u8").astype(np.uint64, copy=False)


def _bit_generators(seed: int, start: int, stop: int):
    """Yield, for r in range(start, stop), the PCG64 that default_rng([seed, r])
    wraps, seeded with its row of ``_seed_words``."""
    from numpy.random import PCG64
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        """A seed sequence whose one state request is precomputed."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:  # PCG64's one request
                raise ValueError("precomputed for generate_state(4, np.uint64)")
            return self.words

    for words in _seed_words(seed, np.arange(start, stop)):
        yield PCG64(Words(words))


def _replicate_rngs(seed: int, start: int, stop: int):
    """Yield default_rng([seed, r]) for r in range(start, stop)."""
    from numpy.random import Generator
    return map(Generator, _bit_generators(seed, start, stop))


def _count_slices(plan: BootstrapPlan, sizes, replicates: int | None = None):
    """(slices, workers) of ``replicates`` replicates (all B by default):
    blocks of counts that hold about _COUNT_BLOCK_ELEMENTS values, shared among
    the workers (see ``blocks``), starting at multiples of _ROW_ALIGN."""
    return blocks.split(plan.replicates if replicates is None else replicates,
                        sum(sizes), _COUNT_BLOCK_ELEMENTS, _ROW_ALIGN, _ROW_ALIGN)


def _count_blocks(plan: BootstrapPlan, sizes):
    """Yield (rows, counts) for each block of replicates in turn: a slice of
    replicates and, per group of size n_k, its float64 counts of how often
    replicate r draws each observation (``_block_counts``)."""
    for rows in _count_slices(plan, sizes)[0]:
        yield rows, _block_counts(plan, sizes, rows.start, rows.stop)


def _block_counts(plan: BootstrapPlan, sizes, start: int, stop: int, out=None) -> list:
    """Each group's (stop - start, n_k) counts of replicates start to stop,
    written into the arrays ``out`` when given (uint8 in a bootstrap), else
    into new float64 ones.

    Replicates go in chunks of about _RAW_CHUNK_DRAWS draws, whose counts
    ``_raw_counts`` derives from raw PCG64 words; a replicate where numpy
    would redraw a word is redone on ``plan.rng(r)``.  When a chunk would hold
    one replicate (more than 2**14 draws a replicate), each replicate draws
    from its Generator: numpy's own loop is faster there.  Raw words at
    every size gave the same bits, but made a ``band_bootstrap`` at n = 20 000
    about 19 % slower on 2 CPUs (0.210 -> 0.250 s), and no faster on one.
    """
    chunk = _RAW_CHUNK_DRAWS // max(1, sum(n for n in sizes if n > 1))
    counts = [np.empty((stop - start, n)) for n in sizes] if out is None else out
    if chunk < 2:
        for i, rng in enumerate(_replicate_rngs(plan.seed, start, stop)):
            _draw_counts(rng, [c[i] for c in counts])
    else:
        bit_gens = _bit_generators(plan.seed, start, stop)
        for lo in range(0, stop - start, chunk):
            part = [c[lo:lo + chunk] for c in counts]
            for i in _raw_counts(itertools.islice(bit_gens, chunk), part):
                _draw_counts(plan.rng(start + lo + i), [c[i] for c in part])
    return counts


def _store_counts(dest: np.ndarray, counts: np.ndarray) -> None:
    """dest[...] = counts, refusing a count that a uint8 ``dest`` cannot hold.

    A count of 256 needs one observation drawn 256 times in n draws, which
    has probability below n / 256!; wrapping it would corrupt the bootstrap
    silently, so it is refused.
    """
    if dest.dtype == np.uint8 and counts.max() > 255:
        raise ValueError("a bootstrap replicate drew one observation 256 times or "
                         "more; its counts are held as bytes")
    dest[...] = counts


def _draw_counts(rng, rows):
    """Fill one replicate's count row of each group, group after group, from
    ``rng.integers``."""
    for row in rows:
        _store_counts(row, np.bincount(rng.integers(0, row.size, row.size),
                                       minlength=row.size))


def _raw_counts(bit_gens, counts) -> np.ndarray:
    """Fill ``counts``, one (rows, n_k) array per group, with the counts that
    ``integers(0, n_k, n_k)``, group after group, gives on each bit generator,
    derived from raw words; return the rows where that derivation fails.

    numpy draws an index below n from the next 32-bit word u of the bit
    generator, PCG64's 64-bit words read low half first, as (u n) >> 32; but
    it redraws u while (u n) mod 2**32 < (2**32 - n) mod n (Lemire 2019), and
    that shifts the rest of the row, so the rows returned hold wrong counts.
    A group of one draws no word (numpy returns 0 for an empty range).
    """
    sizes = [c.shape[1] for c in counts]
    rows, words = len(counts[0]), -(-sum(n for n in sizes if n > 1) // 2)
    raw = np.concatenate([bg.random_raw(words) for bg in bit_gens])
    draws = raw.astype("<u8", copy=False).view("<u4").reshape(rows, 2 * words)
    redo = np.zeros(rows, dtype=bool)
    col = 0
    for c, n in zip(counts, sizes):
        if n == 1:
            c[:] = 1
            continue
        u = draws[:, col:col + n]
        redo |= (u * np.uint32(n) < (2**32 - n) % n).any(axis=1)  # (u n) mod 2**32
        idx = u * np.int64(n)  # below 2**46: n <= 2**14 here
        idx >>= 32
        idx += np.arange(0, rows * n, n)[:, None]
        _store_counts(c, np.bincount(idx.ravel(), minlength=rows * n).reshape(rows, n))
        col += n
    return np.flatnonzero(redo)


def _chunk_rows(n: int, m: int) -> int:
    """Sample rows of an (n, m) contribution matrix in one chunk of the walk:
    about _CHUNK_ELEMENTS values, from _ROW_ALIGN to _CHUNK_MAX_ROWS rows, and
    all n rows for one column or none (numpy sums an (n, 1) array pairwise,
    not row by row)."""
    return n if m < 2 else max(_ROW_ALIGN, min(_CHUNK_ELEMENTS // m, _CHUNK_MAX_ROWS))


def _product_slices(rows: int, width: int, workers: int) -> list:
    """Slices of ``rows`` replicates, one a product task, for chunks of
    ``width`` sample rows: the float64 counts of the ``workers`` slices in
    flight hold about _PRODUCT_ELEMENTS values together, and each worker has
    a slice where the replicates suffice.  Slices start at multiples of
    _ROW_ALIGN, and a lone last replicate joins the slice before it
    (``blocks.cut``)."""
    share = _PRODUCT_ELEMENTS // (workers * width) // _ROW_ALIGN * _ROW_ALIGN
    even = -(-rows // (workers * _ROW_ALIGN)) * _ROW_ALIGN
    return blocks.cut(rows, max(_ROW_ALIGN, min(share, even)))


def _super_blocks(plan: BootstrapPlan, contributions) -> list:
    """Slices of the replicates whose counts are drawn at once: all B, unless
    their bytes would pass max(8 sum n_k m_k, _COUNT_BYTES); then aligned
    blocks of about that many bytes (``blocks.cut``)."""
    n = sum(c.shape[0] for c in contributions)
    cap = max(8 * sum(math.prod(c.shape) for c in contributions), _COUNT_BYTES)
    return blocks.cut(plan.replicates,
                      max(_ROW_ALIGN, cap // n // _ROW_ALIGN * _ROW_ALIGN))


def _form_rows(source, start: int, stop: int, out: np.ndarray) -> None:
    """Rows start to stop of an (n, m) array or row source, formed in ``out``."""
    if isinstance(source, np.ndarray):
        out[...] = source[start:stop]
    else:
        source.form(start, stop, out)


def _replicate_products(plan: BootstrapPlan, contributions,
                        sums: list | None = None) -> list:
    """(B, m_k) replicate counts @ contributions for each group's (n_k, m_k)
    per-observation contributions, given as arrays or as row sources
    (``estimator.PairRows``); ``sums``, when given, receives each group's
    column sums of the contributions, the bits of ``matrix.sum(axis=0)``.

    Two paths, with one stream of counts.  Where every source is a 1-d
    Gaussian one and the Hermite expansion takes at most a quarter of the
    exact product's multiply-adds, n p + blocks p m against n m a replicate,
    and its tables at most 16 MB (``hermite.plan``), each replicate's
    counts @ terms is (counts @ moments) @ coefficients
    (``_walk_expansions``): exact but for the truncated tail, at most
    2^-54 phi(0) per unit of count, with p = 22 (kernel), 23 (debiased) and
    21 (integrated kernel) terms.  Its tasks each draw and multiply
    _EXPANSION_ROWS replicates, so it holds only those counts, and one task
    forms the column sums through the pair pass (``PairRows.sums``).

    Elsewhere the chunk walk (``_walk``) draws the counts of every replicate
    once, as one (B, n_k) uint8 array per group, then forms the
    contributions one chunk of sample rows at a time (``_chunk_rows``) and
    adds counts[:, chunk] @ chunk into the output, so no bootstrap holds more
    than _CHUNKS_IN_FLIGHT chunks of contributions; it forms the column sums
    on the way, a super-block after the first again.  Where the counts of all
    B replicates would take more bytes than the contribution matrices (and
    more than _COUNT_BYTES), the replicates go in super-blocks of that size
    (``_super_blocks``), each drawn and walked in turn.

    Either path's tasks are one job (``blocks``), with OpenBLAS on one
    thread, and each row of the output has the same bits on any number of
    workers.  The expansion's slices of replicates do not depend on the
    workers at all.  In the chunk walk, chunk edges depend on n_k and m_k
    alone, chunks are added in order, and each product takes a slice of
    replicates that starts at a multiple of _ROW_ALIGN and holds at least
    two (gemm rounds a row by its offset in its row micro-kernel, and a
    one-row product, gemv, differently again).  The column sums carry the
    running sum as the first row of each chunk, so numpy adds the rows in
    the order it adds them in the whole matrix.
    """
    from . import hermite  # here, not at the top: only bootstraps load it

    outs = [np.empty((plan.replicates, c.shape[1])) for c in contributions]
    totals = [np.empty(c.shape[1]) for c in contributions]
    expansions = hermite.plan(contributions)
    with blocks.one_blas_thread():
        if expansions:
            _walk_expansions(plan, expansions, contributions, outs, totals)
        else:
            for rows in _super_blocks(plan, contributions):
                _walk(plan, contributions, rows, [o[rows] for o in outs], totals)
    if sums is not None:
        sums.extend(totals)
    return outs


def _walk_expansions(plan: BootstrapPlan, expansions, sources, outs: list,
                     totals: list) -> None:
    """Write counts @ terms into ``outs`` through the expansions and the
    sources' column sums into ``totals``: the job that ``_replicate_products``
    describes.  Each task but the sums' draws the counts of _EXPANSION_ROWS
    replicates and multiplies them at once, so no task holds more counts."""
    sizes = [e.rows.size for e in expansions]

    def column_sums():
        for total, source in zip(totals, sources):
            total[...] = source.sums()

    def draw_and_multiply(rows):
        counts = _block_counts(plan, sizes, rows.start, rows.stop,
                               [np.empty((rows.stop - rows.start, n), dtype=np.uint8)
                                for n in sizes])
        for e, c, out in zip(expansions, counts, outs):
            e.multiply(c, out[rows])

    tasks = [column_sums, *(lambda rows=rows: draw_and_multiply(rows) for rows
                            in blocks.cut(plan.replicates, _EXPANSION_ROWS))]
    blocks.run(lambda task: task(), tasks, blocks.workers_for(len(tasks)))


def _walk(plan: BootstrapPlan, sources, rows: slice, outs: list, totals: list) -> None:
    """Draw the counts of replicates ``rows`` and add each chunk's products
    into ``outs`` (their rows of the output), and each chunk's column sums
    into ``totals``: the job that ``_replicate_products`` describes."""
    sizes, replicates = [s.shape[0] for s in sources], rows.stop - rows.start
    counts = [np.empty((replicates, n), dtype=np.uint8) for n in sizes]
    draws, workers = _count_slices(plan, sizes, replicates)
    chunks, widths = [], []  # (group, start, stop) of each chunk; each group's widest
    for g, source in enumerate(sources):
        n, m = source.shape
        step = _chunk_rows(n, m)
        chunks += [(g, a, min(a + step, n)) for a in range(0, n, step)]
        widths.append(min(step, n))
        # as many workers as the draws, the forms or the products would take
        workers = max(workers, blocks.split(n, m, _CHUNK_ELEMENTS, 1)[1],
                      blocks.split(replicates, widths[-1], _PRODUCT_ELEMENTS,
                                   _ROW_ALIGN, _ROW_ALIGN)[1])
    products = [_product_slices(replicates, width, workers) for width in widths]
    slots = [np.empty(max((b - a + 1) * sources[g].shape[1] for g, a, b in chunks))
             for _ in range(min(_CHUNKS_IN_FLIGHT, len(chunks)))]

    def chunk_rows(k):  # the running sum's row, then chunk k's rows
        g, a, b = chunks[k]
        flat = slots[k % _CHUNKS_IN_FLIGHT][:(b - a + 1) * outs[g].shape[1]]
        return flat.reshape(b - a + 1, -1)

    def form(k):
        g, a, b = chunks[k]
        chunk = chunk_rows(k)
        _form_rows(sources[g], a, b, chunk[1:])
        if a == 0:
            np.sum(chunk[1:], axis=0, out=totals[g])
        else:
            chunk[0] = totals[g]  # the running sum, added first
            np.sum(chunk, axis=0, out=totals[g])

    def multiply(k, s):
        g, a, b = chunks[k]
        product = np.matmul(counts[g][s, a:b].astype(np.float64), chunk_rows(k)[1:],
                            out=outs[g][s] if a == 0 else None)
        if a > 0:
            outs[g][s] += product

    # Tasks in order: the first forms, the draws, then each chunk's products
    # followed by the form of the chunk _CHUNKS_IN_FLIGHT - 1 ahead.  A form
    # waits for the products of the chunk whose slot it takes and for the
    # form before it (whose running sum it carries); a product waits for its
    # chunk's form, its replicates' draws and its rows' product of the
    # chunk before.
    tasks, formed, multiplied = [], [], []  # task indices: forms, products per chunk

    def add_form(k):
        if k < len(chunks):
            freed = multiplied[k - _CHUNKS_IN_FLIGHT] if k >= _CHUNKS_IN_FLIGHT else []
            tasks.append((lambda: form(k), freed + formed[-1:]))
            formed.append(len(tasks) - 1)

    for k in range(_CHUNKS_IN_FLIGHT - 1):
        add_form(k)
    drawn = len(tasks)
    tasks += [(lambda d=d: _block_counts(plan, sizes, rows.start + d.start,
                                         rows.start + d.stop, [c[d] for c in counts]), [])
              for d in draws]
    for k, (g, a, _) in enumerate(chunks):
        multiplied.append([])
        for i, s in enumerate(products[g]):
            deps = [formed[k]] + [drawn + j for j, d in enumerate(draws)
                                  if d.start < s.stop and s.start < d.stop]
            if a > 0:
                deps.append(multiplied[k - 1][i])
            tasks.append((lambda k=k, s=s: multiply(k, s), deps))
            multiplied[k].append(len(tasks) - 1)
        add_form(k + _CHUNKS_IN_FLIGHT - 1)
    blocks.run_graph(tasks, workers)


def resample_counts(sample: Sample, plan: BootstrapPlan) -> np.ndarray:
    """Replicate r's counts for ``sample`` in row r: the blocks of the count
    stream stacked, a reference that no bootstrap construction builds."""
    return np.concatenate([c for _, (c,) in _count_blocks(plan, [sample.n])])


def empirical_quantile(values: np.ndarray, alpha: float) -> float | np.ndarray:
    """The ceil((1-alpha) B)-th order statistic (conservative, no interpolation)
    of B values: a float for a (B,) array, an (m,) array of per-column order
    statistics for a (B, m) array."""
    _check_alpha(alpha)  # then 1 <= k <= B
    values = np.asarray(values, dtype=float)
    k = math.ceil((1.0 - alpha) * values.shape[0])
    q = np.sort(values, axis=0)[k - 1]
    return float(q) if q.ndim == 0 else q


def _check_alpha(alpha: float):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def _check_bootstrap(alpha: float, plan: BootstrapPlan):
    _check_alpha(alpha)
    if plan.replicates < 20:
        raise ValueError(f"need B >= 20 for quantile resolution, got {plan.replicates}")


def _sup_quantile(boot: np.ndarray, center: np.ndarray, alpha: float) -> float:
    """Bootstrap quantile of the sup-norm deviation max_x |boot_r(x) - center(x)|."""
    return empirical_quantile(np.max(np.abs(boot - center), axis=1), alpha)


def ci_plugin(model: DensityModel, grid, alpha: float) -> IntervalResult:
    """Plug-in normal interval p_hat(x) +/- z sqrt(mu_k p_hat(x) / (n h^d))."""
    from scipy.special import ndtri
    _check_alpha(alpha)
    grid = estimator._query_matrix(model, grid)
    center = estimator.density(model, grid)
    mu_k = kernels.constants(model.kernel)["mu_k"]
    z = ndtri(1.0 - alpha / 2.0)
    hw = z * np.sqrt(mu_k * center / (model.n * estimator._bandwidth_power(model, model.dim)))
    return IntervalResult(
        grid=grid, center=center, lower=center - hw, upper=center + hw,
        alpha=alpha, method="ci-plugin", degenerate=(center == 0.0),
    )


def _plain_bootstrap(model: DensityModel, grid, plan: BootstrapPlan):
    """The grid, p_hat and the (B, m) bootstrap KDE values from one walk of
    the kernel values."""
    scale = model.n * estimator._bandwidth_power(model, model.dim)
    rows, sums = estimator.kernel_value_rows(model, grid), []
    (boot,) = _replicate_products(plan, [rows], sums)
    return rows.x, sums[0] / scale, boot / scale


def bootstrap_density_matrix(model: DensityModel, grid: np.ndarray,
                             plan: BootstrapPlan) -> np.ndarray:
    """(B, m) matrix of bootstrap KDE values on the grid."""
    return _plain_bootstrap(model, grid, plan)[2]


def ci_bootstrap_plugin(model: DensityModel, grid, alpha: float,
                        plan: BootstrapPlan) -> IntervalResult:
    """Normal interval with the bootstrap standard deviation.

    The displayed limit theory is in terms of the bootstrap variance, but the
    z-interval form requires the standard deviation; we use the standard
    deviation.
    """
    from scipy.special import ndtri
    _check_alpha(alpha)
    grid, center, boot = _plain_bootstrap(model, grid, plan)
    sd = np.std(boot, axis=0, ddof=1)
    hw = ndtri(1.0 - alpha / 2.0) * sd
    return IntervalResult(
        grid=grid, center=center, lower=center - hw, upper=center + hw,
        alpha=alpha, method="ci-bootstrap-plugin", degenerate=(hw == 0.0),
    )


def ci_bootstrap(model: DensityModel, grid, alpha: float,
                 plan: BootstrapPlan) -> IntervalResult:
    """Fully bootstrapped interval from per-point deviation quantiles."""
    _check_bootstrap(alpha, plan)
    grid, center, boot = _plain_bootstrap(model, grid, plan)
    c = empirical_quantile(np.abs(boot - center), alpha)
    return IntervalResult(
        grid=grid, center=center, lower=center - c, upper=center + c,
        alpha=alpha, method="ci-bootstrap",
    )


def evt_quantile(alpha: float) -> float:
    """The alpha-quantile E = -log(-log(alpha) / 2) of the limiting
    double-exponential law exp(-2 exp(-t))."""
    _check_alpha(alpha)
    return -math.log(-math.log(alpha) / 2.0)


def band_plugin_evt(model: DensityModel, grid, alpha: float) -> BandResult:
    """Extreme-value plug-in band (d = 1, Gaussian kernel, h < 1).

    The half-width is sqrt(mu_k p_hat(x) / (n h)) (d_n + E / d_n), with the
    leading-order centering d_n = sqrt(-2 log h) and E the (1 - alpha)-quantile
    of the limit law (``evt_quantile``); the exact second-order centering
    constant is not implemented.  Convergence to the extreme-value limit is
    very slow, so the result carries a warning tag and no coverage guarantee
    at practical n.
    """
    _check_alpha(alpha)
    if model.dim != 1:
        raise ValueError("extreme-value band requires d = 1")
    estimator._require_gaussian(model, "extreme-value band")
    h = model.bandwidth
    if h >= 1.0:
        raise ValueError("extreme-value band requires h < 1")
    grid = estimator._query_matrix(model, grid)
    center = estimator.density(model, grid)
    mu_k = kernels.constants(model.kernel)["mu_k"]
    root = math.sqrt(-2.0 * math.log(h))
    factor = root + evt_quantile(1.0 - alpha) / root
    hw = np.sqrt(center * mu_k / (model.n * h)) * factor
    return BandResult(
        grid=grid, center=center, lower=center - hw, upper=center + hw,
        alpha=alpha, method="band-evt", halfwidth=None,
        warnings=("slow-convergence",),
    )


def band_bootstrap(model: DensityModel, grid, alpha: float,
                   plan: BootstrapPlan) -> BandResult:
    """Constant-width band from the sup-norm bootstrap deviation quantile.

    Valid (asymptotically) for the smoothed density p_h; undercovers the true
    density unless h is undersmoothed.
    """
    _check_bootstrap(alpha, plan)
    grid, center, boot = _plain_bootstrap(model, grid, plan)
    c = _sup_quantile(boot, center, alpha)
    return BandResult(
        grid=grid, center=center, lower=center - c, upper=center + c,
        alpha=alpha, method="band-bootstrap", halfwidth=c,
    )


class DebiasedDensity:
    """The bias-corrected KDE p_tilde = p_hat - (h^2/2) sigma_k^2 lap p_hat,
    with the curvature estimated at bandwidth b = h.

    Values may be negative; they are deliberately not clipped, since the band
    constructions need the raw corrected curve.
    """

    def __init__(self, model: DensityModel):
        estimator._require_gaussian(model, "debiasing")
        self.model = model
        self.sigma_k2 = kernels.constants(model.kernel)["sigma_k2"]
        self.scale = model.n * estimator._bandwidth_power(model, model.dim)  # n h^d

    def _contributions(self, u: list) -> np.ndarray:
        """K(u) (1 - sigma_k2 (||u||^2 - d) / 2) / (n h^d) at the offsets u,
        formed in u[0]."""
        m = self.model
        sq = estimator._squared_norm(u)
        block = kernels.evaluate_sq(m.kernel, sq, out=u[0])  # u_0 is not needed again
        sq -= m.dim
        sq *= -0.5 * self.sigma_k2
        sq += 1.0
        block *= sq
        block /= self.scale
        return block

    def correction_rows(self, grid) -> estimator.PairRows:
        """The rows of the (n, m) per-observation contributions to p_tilde on
        the grid (read by ``estimator._query_matrix``), K(u) (1 - sigma_k2
        (||u||^2 - d) / 2) / (n h^d) at u = (x_q - X_i) / h, formed on demand."""
        return estimator.PairRows(self.model, estimator._query_matrix(self.model, grid),
                                  self._contributions,
                                  ("debiased", self.scale) if self.model.dim == 1 else None)

    def correction_matrix(self, grid: np.ndarray) -> np.ndarray:
        """(n, m) per-observation contributions to p_tilde on the grid: every
        row of ``correction_rows``."""
        return self.correction_rows(grid).matrix()

    def evaluate(self, queries) -> np.ndarray:
        """p_tilde at the queries: the column sums of their
        ``correction_rows`` (``PairRows.sums``), those of
        ``correction_matrix`` bit for bit, without building it."""
        return self.correction_rows(queries).sums()

    def __call__(self, x) -> float:
        return float(self.evaluate(estimator._query_point(self.model, x))[0])


def band_debiased_bootstrap(model: DensityModel, grid, alpha: float,
                            plan: BootstrapPlan) -> BandResult:
    """Bootstrap sup-norm band around the bias-corrected KDE.

    Each replicate recomputes the full bias-corrected estimate from the
    resampled data, so the quantile reflects the fluctuation of the corrected
    curve.  Targets the true density; generally wider than ``band_bootstrap``.
    """
    _check_bootstrap(alpha, plan)
    rows, sums = DebiasedDensity(model).correction_rows(grid), []
    (boot,) = _replicate_products(plan, [rows], sums)
    center = sums[0]
    c = _sup_quantile(boot, center, alpha)
    return BandResult(
        grid=rows.x, center=center, lower=center - c, upper=center + c,
        alpha=alpha, method="band-debiased", target="true", halfwidth=c,
        center_clipped=np.maximum(center, 0.0),
    )
