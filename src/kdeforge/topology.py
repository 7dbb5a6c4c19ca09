"""Cluster trees and 0-dimensional persistence of a density grid.

The superlevel filtration sweeps the sorted distinct grid values from the
maximum downward, merging face-adjacent grid points with union-find.  A new
connected component is born at the value of each local maximum; at a merge the
elder rule applies (the component born higher survives, the younger one dies
at the merge level).  The globally deepest component is assigned death level 0
(densities are nonnegative, so 0 is the natural floor).

Equal grid values are totally ordered by flat grid index; this affects only
zero-persistence pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import EvalGrid


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


class _UnionFind:
    def __init__(self, size: int):
        self.parent = np.arange(size)

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:  # path compression
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        self.parent[ra] = rb
        return rb


def _neighbor_offsets(shape: tuple) -> list:
    """Flat-index offsets of face-adjacent grid neighbors."""
    strides = np.cumprod((1,) + shape[::-1][:-1])[::-1]
    return [int(s) for s in strides]


def cluster_tree(grid: EvalGrid) -> ClusterTree:
    """Merge tree of superlevel-set components of the grid (d <= 2)."""
    shape = grid.shape
    if len(shape) > 2:
        raise ValueError("cluster tree supports d <= 2 grids only")
    values = grid.values
    m = values.size
    # Descending by value, ties broken by flat index (stable sort on -values).
    order = np.argsort(-values, kind="stable")
    rank = np.empty(m, dtype=int)
    rank[order] = np.arange(m)

    uf = _UnionFind(m)
    comp_node = {}  # union-find root -> node id
    births, reps, deaths, parents = [], [], [], []

    coords = np.stack(np.unravel_index(np.arange(m), shape), axis=-1)
    offsets = _neighbor_offsets(shape)
    activated = np.zeros(m, dtype=bool)

    for flat in order:
        level = float(values[flat])
        activated[flat] = True
        neighbor_roots = []
        for axis, off in enumerate(offsets):
            for nb in (flat - off, flat + off):
                if 0 <= nb < m and abs(coords[nb, axis] - coords[flat, axis]) == 1:
                    if activated[nb]:
                        root = uf.find(nb)
                        if root not in neighbor_roots:
                            neighbor_roots.append(root)
        if not neighbor_roots:
            node_id = len(births)
            births.append(level)
            reps.append(int(flat))
            deaths.append(None)
            parents.append(None)
            comp_node[flat] = node_id
            continue
        # join the first neighboring component, then merge the rest
        survivor = neighbor_roots[0]
        uf.parent[flat] = survivor
        for other in neighbor_roots[1:]:
            node_a = comp_node[survivor]
            node_b = comp_node[other]
            # elder rule: the higher birth survives; ties resolved by node id
            if (births[node_a], -node_a) >= (births[node_b], -node_b):
                elder, younger = node_a, node_b
            else:
                elder, younger = node_b, node_a
            deaths[younger] = level
            parents[younger] = elder
            new_root = uf.union(survivor, other)
            comp_node.pop(survivor, None)
            comp_node.pop(other, None)
            comp_node[new_root] = elder
            survivor = new_root

    # the surviving global component dies at level 0
    (last_root,) = comp_node
    deaths[comp_node[last_root]] = 0.0

    nodes = tuple(
        TreeNode(id=i, birth=births[i], death=deaths[i], parent=parents[i],
                 representative=reps[i])
        for i in range(len(births))
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
