"""Truncated Hermite expansions of 1-d Gaussian terms about blocks of the
sorted sample: the fast Gauss transform (Greengard & Strain 1991, *SIAM J.
Sci. Stat. Comput.* 12:79), which the bootstraps' replicate products take
where it is cheaper than the exact product (``inference``).

Sort the sample and cut it greedily into blocks whose observations span at
most h; a block's centre c is the midpoint of its span.  With s = (X_i - c) / h,
so |s| <= 1/2, and t = (x_j - c) / h, the generating function of the Hermite
polynomials He_k expands each term at u = t - s in powers of s:

* ``kernel``:     phi(u) = phi(t) sum_k He_k(t) s^k / k!
* ``debiased``:   phi(u) - phi''(u) / 2
                  = phi(t) sum_k (He_k(t) - He_{k+2}(t) / 2) s^k / k!
* ``integrated``: Phi(u) = Phi(t) - phi(t) sum_{k>=1} He_{k-1}(t) s^k / k!

So the (n, m) matrix of terms is M @ H: M holds each observation's moments
s^k / k! in its block's p columns, and H the coefficient functions of t at
the grid, p rows a block.  A replicate's counts @ terms is then
(counts @ M) @ H, n p + blocks p m multiply-adds against n m.

Cramér's inequality, |He_k(t)| e^{-t^2/4} <= 1.0865 sqrt(k!), bounds the k-th
term by 1.0865 phi(0) b_k 2^-k, with b_k = 1 / sqrt(k!) for the kernel,
(sqrt(k!) + sqrt((k + 2)!) / 2) / k! for the debiased term and
sqrt((k - 1)!) / k! for the integrated kernel.  The order p is the least
whose tail past the kept terms is at most 2^-54 phi(0), a quarter ulp of the
kernel's peak (``order``): 22, 23 and 21.  The bound is against the peak,
not against each value: at a grid point far from every observation counted
(a tail of the ROC grid, a gap at small h) a value far below n 2^-54 phi(0)
can be off by much of itself.  H is exactly 0 where phi(t) is below the
smallest normal float, so the products never meet a subnormal: a term
dropped there is under phi(37) (about 1e-298) of the peak.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_CRAMER = 1.0865  # |He_k(t)| e^{-t^2/4} <= _CRAMER sqrt(k!)
_TAIL = 2.0**-54  # the truncated tail's bound, as a share of phi(0)
# The expansion is taken when its multiply-adds are at most this share of the
# exact product's (see ``plan``).
_COST_SHARE = 0.25
# ... and when the moments and coefficients of every group take at most this
# many bytes, the counts' own budget before they go in super-blocks.
_TABLE_BYTES = 2**24
# t^2 past which phi(t) is below the smallest normal float.
_LIVE = -2.0 * math.log(np.finfo(float).tiny * math.sqrt(2.0 * math.pi))

# b_k of each kind's k-th term (see the module docstring).
_TERM_BOUNDS = {
    "kernel": lambda k: 1.0 / math.sqrt(math.factorial(k)),
    "debiased": lambda k: (math.sqrt(math.factorial(k))
                           + math.sqrt(math.factorial(k + 2)) / 2) / math.factorial(k),
    "integrated": lambda k: math.sqrt(math.factorial(k - 1)) / math.factorial(k),
}


@functools.cache
def order(kind: str) -> int:
    """The least p with _CRAMER sum_{k >= p} b_k 2^-k <= _TAIL: kernel, debiased
    and integrated terms keep s^0 to s^(p - 1).  Past k = 1 each term is under
    half the one before, so 64 terms of the tail bound the rest below rounding."""
    p, bound = 1, _TERM_BOUNDS[kind]
    while _CRAMER * sum(bound(k) * 2.0**-k for k in range(p, p + 64)) > _TAIL:
        p += 1
    return p


def _block_edges(xs: np.ndarray, h: float, limit: int) -> list | None:
    """Edges of the greedy blocks of the sorted ``xs``, each spanning at most
    h; None once there would be more than ``limit`` blocks."""
    edges = [0]
    while edges[-1] < xs.size:
        if len(edges) > limit:
            return None
        edges.append(int(np.searchsorted(xs, xs[edges[-1]] + h, side="right")))
    return edges


def _coefficients(kind: str, t: np.ndarray, p: int) -> np.ndarray:
    """(p, *t.shape): the kind's coefficient functions of s^k / k! at t, 0
    wherever phi(t) is below the smallest normal float."""
    out = np.zeros((p,) + t.shape)
    with np.errstate(over="ignore"):  # t^2 past float range is inf: not live
        live = np.square(t) < _LIVE
    tl = t[live]
    g = np.exp(-0.25 * np.square(tl))
    # e^{-t^2/4} He_k(t), at most 1.0865 sqrt(k!): the recurrence cannot overflow
    he = np.empty((p + 2 if kind == "debiased" else p, tl.size))
    he[0] = g
    he[1] = tl * g
    for k in range(1, len(he) - 1):
        he[k + 1] = tl * he[k] - k * he[k - 1]
    g /= math.sqrt(2.0 * math.pi)  # e^{-t^2/4} phi(0): phi(t) He_k(t) is g he_k
    if kind == "kernel":
        out[:, live] = he * g
    elif kind == "debiased":
        out[:, live] = (he[:p] - 0.5 * he[2:]) * g
    else:
        from scipy.special import ndtr
        out[1:, live] = he[:p - 1] * -g
        out[0] = t > 0  # Phi(t) is 1 to rounding past the live range, 0 before it
        cdf = ndtr(tl)
        cdf[cdf < np.finfo(float).tiny] = 0.0  # nor a subnormal Phi(t)
        out[0, live] = cdf
    return out


@dataclass(frozen=True)
class Expansion:
    """One row source's terms as moments @ coefficients: ``rows`` lists the
    sample rows sorted, ``edges`` the blocks' bounds in that order, ``moments``
    the (p, n) s^k / k! of the sorted rows, and ``coefficients`` the
    (blocks p, m) H, over the divisor the source's terms carry."""

    rows: np.ndarray
    edges: list
    moments: np.ndarray
    coefficients: np.ndarray

    def sorted_counts(self, counts: np.ndarray) -> np.ndarray:
        """(n, r): (r, n) counts in sample order, transposed and their rows
        gathered into sorted order.  Rows of a few bytes are cheap to
        gather; gathering single bytes as the counts were drawn cost 20-40 us
        more a replicate at n = 20 000, this about 18 us."""
        return np.take(np.ascontiguousarray(counts.T), self.rows, axis=0, mode="clip")

    def multiply(self, counts: np.ndarray, out: np.ndarray) -> None:
        """out = counts @ terms for (rows, n) uint8 counts in sample order:
        each block's moments over the sorted counts, then one product with H."""
        p = self.moments.shape[0]
        by_row = self.sorted_counts(counts)
        block_moments = np.empty((self.coefficients.shape[0], counts.shape[0]))
        for b, (lo, hi) in enumerate(zip(self.edges, self.edges[1:])):
            np.matmul(self.moments[:, lo:hi], by_row[lo:hi].astype(np.float64),
                      out=block_moments[b * p:(b + 1) * p])
        np.matmul(block_moments.T, self.coefficients, out=out)


def _expand(source, limit: int) -> Expansion | None:
    """The expansion of a row source with a ``series``, None past ``limit``
    blocks."""
    kind, divisor = source.series
    model, p = source.model, order(kind)
    data, h = model.sample.data[:, 0], model.bandwidth
    rows = np.argsort(data)
    xs = data[rows]
    edges = _block_edges(xs, h, limit)
    if edges is None:
        return None
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    centres = (xs[lo] + xs[hi - 1]) / 2
    s = (xs - np.repeat(centres, hi - lo)) / h
    moments = np.empty((p, xs.size))
    moments[0] = 1.0
    for k in range(1, p):
        np.multiply(moments[k - 1], s / k, out=moments[k])
    with np.errstate(over="ignore"):  # an offset past float range is t = inf: H = 0
        t = (source.x[:, 0] - centres[:, None]) / h
    coefficients = _coefficients(kind, t, p)  # (p, blocks, m)
    coefficients /= divisor
    return Expansion(rows, edges, moments,
                     coefficients.transpose(1, 0, 2).reshape(-1, t.shape[1]))


def plan(sources) -> list | None:
    """Each source's ``Expansion`` when every one has a ``series``, their
    n p + blocks p m multiply-adds a replicate come to at most _COST_SHARE of
    the exact product's n m, and their tables (8 n p + 8 blocks p m bytes)
    to at most _TABLE_BYTES; else None, and the exact product runs.

    At a quarter its own overheads (the centre's pair pass, a small product
    per block, the counts transposed, gathered and widened) still leave it
    ahead: on one CPU, draws included, it measured 1.14-1.34x faster than
    the exact walk at 4.2-5 : 1 and 0.95x at 3.3 : 1, and 0.70-0.73x at the
    coverage and ROC benchmarks' 1.4 and 2.1 : 1."""
    if not all(getattr(s, "series", None) for s in sources):
        return None
    flops = _COST_SHARE * sum(s.shape[0] * s.shape[1] for s in sources)
    values = _TABLE_BYTES / 8
    expansions = []
    for source in sources:
        (n, m), p = source.shape, order(source.series[0])
        flops, values = flops - n * p, values - n * p
        limit = int(min(flops, values) // (p * m))
        expansion = _expand(source, limit) if limit > 0 else None
        if expansion is None:
            return None
        flops -= expansion.coefficients.size
        values -= expansion.coefficients.size
        expansions.append(expansion)
    return expansions
