"""Cluster trees and 0-dimensional persistence of a density grid.

The superlevel filtration adds grid points from the maximum downward, ordered
by value with ties broken by flat grid index (the point's rank), and joins
face-adjacent points.  A connected component is born at each point whose face
neighbours all rank later; at a merge the elder rule applies (the component
born higher survives, ties to the one born first, and the younger one dies at
the merge level).  The globally deepest component is assigned death level 0
(densities are nonnegative, so 0 is the natural floor).  The tie order affects
only zero-persistence pairs.

The tree is a join tree on rank-ascent basins (Carr, Snoeyink & Axen 2003).
Every point points at its lowest-rank face neighbour when that neighbour ranks
lower, and pointer jumping takes each point to the root of its basin; the
roots are exactly the births.  Components merge only when a face edge between
two basins enters the filtration, and only the earliest edge of each basin
pair can merge anything, so just those points are replayed in rank order,
with the neighbours of each taken axis by axis, the - side first, under the
elder rule (Edelsbrunner & Harer 2010, *Computational Topology*).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import EvalGrid
from .geometry import _pointer_roots


@dataclass(frozen=True)
class TreeNode:
    id: int
    birth: float
    death: float
    parent: int | None
    representative: int  # flat grid index of the component's birth point


@dataclass(frozen=True)
class ClusterTree:
    nodes: tuple

    @property
    def root(self) -> TreeNode:
        roots = [n for n in self.nodes if n.parent is None]
        assert len(roots) == 1
        return roots[0]

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "nodes": [
                {
                    "id": n.id,
                    "birth": n.birth,
                    "death": n.death,
                    "parent": n.parent,
                    "representative": n.representative,
                }
                for n in self.nodes
            ],
        }


@dataclass(frozen=True)
class PersistenceDiagram:
    pairs: np.ndarray  # (k, 2) of (birth, death), birth > death >= 0
    dimension: int = 0

    def persistences(self) -> np.ndarray:
        return self.pairs[:, 0] - self.pairs[:, 1]


def cluster_tree(grid: EvalGrid) -> ClusterTree:
    """Merge tree of superlevel-set components of the grid (d <= 2)."""
    shape = grid.shape
    if len(shape) > 2:
        raise ValueError("cluster tree supports d <= 2 grids only")
    values = grid.values
    m = values.size
    # Descending by value, ties broken by flat index (stable sort on -values).
    order = np.argsort(-values, kind="stable")
    rank = np.empty(m, dtype=np.intp)
    rank[order] = np.arange(m)

    # Ascent pointers (module docstring).  A path never drops below its start,
    # so a basin's points of rank <= r reach its root within rank <= r.
    grid_rank = rank.reshape(shape)
    idx = np.arange(m).reshape(shape)
    ptr = idx.copy()
    lowest = grid_rank.copy()
    edges = []  # (flat index, flat index + stride) of each face edge, per axis
    for axis in range(len(shape)):
        lo = tuple(slice(None, -1) if l == axis else slice(None) for l in range(len(shape)))
        hi = tuple(slice(1, None) if l == axis else slice(None) for l in range(len(shape)))
        for here, there in ((lo, hi), (hi, lo)):
            lower = grid_rank[there] < lowest[here]
            lowest[here] = np.where(lower, grid_rank[there], lowest[here])
            ptr[here] = np.where(lower, idx[there], ptr[here])
        edges.append((idx[lo].ravel(), idx[hi].ravel()))
    root = _pointer_roots(ptr.ravel())
    peaks = order[root[order] == order]  # node id = position in rank order
    node_of = np.empty(m, dtype=np.intp)
    node_of[peaks] = np.arange(peaks.size)
    basin = node_of[root]

    # Two basins join when their first face edge enters the superlevel set,
    # at rank max(rank p, rank q); only the earliest edge of each basin pair
    # can merge components, so only those points are replayed.
    p, q = (np.concatenate(e) for e in zip(*edges))
    cross = basin[p] != basin[q]
    p, q = p[cross], q[cross]
    key = np.maximum(rank[p], rank[q])
    pair = np.minimum(basin[p], basin[q]) * peaks.size + np.maximum(basin[p], basin[q])
    by_key = np.argsort(key, kind="stable")
    _, first = np.unique(pair[by_key], return_index=True)  # earliest key per pair
    events = order[np.unique(key[by_key][first])]

    # The basins of the face neighbours of lower rank of each event point,
    # in the sweep's neighbour order: axis by axis, the - neighbour first.
    coords = np.unravel_index(events, shape)
    neighbours = []
    for axis, n in enumerate(shape):
        for step in (-1, 1):
            c = coords[axis] + step
            inside = (c >= 0) & (c < n)
            nb = np.ravel_multi_index(
                coords[:axis] + (np.clip(c, 0, n - 1),) + coords[axis + 1:], shape)
            neighbours.append(np.where(inside & (rank[nb] < rank[events]), basin[nb], -1))

    births = values[peaks].tolist()
    deaths = [None] * peaks.size
    parents = [None] * peaks.size
    # Union-find over nodes.  Node ids follow rank, so births never rise with
    # the id, and the elder rule (higher birth, ties to the lower id) keeps the
    # lower id: every component's root is its elder node.
    up = list(range(peaks.size))

    def find(i: int) -> int:
        while up[i] != i:
            up[i] = up[up[i]]
            i = up[i]
        return i

    for point, nbs in zip(events.tolist(), np.stack(neighbours, axis=-1).tolist()):
        comps = []
        for b in nbs:
            if b >= 0 and (comp := find(b)) not in comps:
                comps.append(comp)
        # the point joins the first neighbouring component; the rest merge in
        survivor = comps[0]
        for other in comps[1:]:
            elder, younger = min(survivor, other), max(survivor, other)
            deaths[younger] = float(values[point])
            parents[younger] = elder
            up[younger] = elder
            survivor = elder
    deaths[0] = 0.0  # the surviving global component dies at level 0

    nodes = tuple(
        TreeNode(id=i, birth=births[i], death=deaths[i], parent=parents[i],
                 representative=rep)
        for i, rep in enumerate(peaks.tolist())
    )
    return ClusterTree(nodes=nodes)


def persistence_diagram(tree: ClusterTree) -> PersistenceDiagram:
    """(birth, death) pairs of the tree's components, one per leaf."""
    pairs = np.array([[n.birth, n.death] for n in tree.nodes], dtype=float)
    return PersistenceDiagram(pairs=pairs.reshape(-1, 2))


def _matchable(d1: np.ndarray, d2: np.ndarray, r: float) -> bool:
    """Feasibility of a perfect matching at bottleneck radius r.

    Points may match across diagrams at L-infinity cost, or to the diagonal
    at half their persistence; diagonal-to-diagonal matches are free.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching
    n1, n2 = d1.shape[0], d2.shape[0]
    size = n1 + n2  # left: points of d1 + diagonal slots, right: symmetric
    rows, cols = [], []
    diag1 = (d1[:, 0] - d1[:, 1]) / 2.0
    diag2 = (d2[:, 0] - d2[:, 1]) / 2.0
    for i in range(n1):
        for j in range(n2):
            cost = max(abs(d1[i, 0] - d2[j, 0]), abs(d1[i, 1] - d2[j, 1]))
            if cost <= r:
                rows.append(i)
                cols.append(j)
        if diag1[i] <= r:  # d1 point to its diagonal slot
            rows.append(i)
            cols.append(n2 + i)
    for j in range(n2):
        if diag2[j] <= r:  # d2 point matched from its diagonal slot
            rows.append(n1 + j)
            cols.append(j)
        for i in range(n1):  # diagonal-diagonal, always allowed
            rows.append(n1 + j)
            cols.append(n2 + i)
    graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(size, size))
    matching = maximum_bipartite_matching(graph, perm_type="column")
    return bool(np.all(matching >= 0))


def bottleneck_distance(diag1: PersistenceDiagram,
                        diag2: PersistenceDiagram) -> float:
    """Exact bottleneck distance between two small 0-dim diagrams."""
    d1, d2 = diag1.pairs, diag2.pairs
    candidates = {0.0}
    for i in range(d1.shape[0]):
        candidates.add((d1[i, 0] - d1[i, 1]) / 2.0)
        for j in range(d2.shape[0]):
            candidates.add(max(abs(d1[i, 0] - d2[j, 0]), abs(d1[i, 1] - d2[j, 1])))
    for j in range(d2.shape[0]):
        candidates.add((d2[j, 0] - d2[j, 1]) / 2.0)
    for r in sorted(candidates):
        if _matchable(d1, d2, r):
            return float(r)
    raise RuntimeError("no feasible bottleneck radius found")  # pragma: no cover


def bottleneck_stability_check(grid1: EvalGrid, grid2: EvalGrid) -> float:
    """Bottleneck distance between the 0-dim diagrams of two grids sharing
    the same geometry.  By diagram stability it is bounded by the sup-norm
    difference of the grid values."""
    if grid1.shape != grid2.shape or any(
        not np.array_equal(a, b) for a, b in zip(grid1.axes, grid2.axes)
    ):
        raise ValueError("grids must share identical geometry")
    diag1 = persistence_diagram(cluster_tree(grid1))
    diag2 = persistence_diagram(cluster_tree(grid2))
    return bottleneck_distance(diag1, diag2)
