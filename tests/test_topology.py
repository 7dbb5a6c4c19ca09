import json

import numpy as np
import pytest

from kdeforge import estimator, topology
from kdeforge.estimator import DensityModel, EvalGrid, Sample
from kdeforge.geometry import level_set
from kdeforge.kernels import KernelFamily, KernelSpec
from kdeforge.topology import (
    PersistenceDiagram,
    bottleneck_distance,
    bottleneck_stability_check,
    cluster_tree,
    persistence_diagram,
)

from conftest import flood_fill_components

GAUSS1 = KernelSpec(KernelFamily.GAUSSIAN, 1)
GAUSS2 = KernelSpec(KernelFamily.GAUSSIAN, 2)


def grid_1d(values, axis=None):
    values = np.asarray(values, dtype=float)
    if axis is None:
        axis = np.arange(values.size, dtype=float)
    return EvalGrid(axes=(axis,), points=axis[:, None], values=values)


def bimodal_grid(rng, n=800, sep=5.0, resolution=512):
    half = n // 2
    data = np.concatenate([rng.normal(-sep / 2, 1.0, half),
                           rng.normal(sep / 2, 1.0, n - half)])
    model = DensityModel(Sample(data), GAUSS1, 0.6)
    return estimator.evaluate_grid(model, resolution=resolution)


# --- cluster tree ---


def test_tree_hand_checked_profile():
    # peaks 3.0 (index 1) and 2.0 (index 5), saddle 1.0 (index 3)
    tree = cluster_tree(grid_1d([0.5, 3.0, 1.5, 1.0, 1.2, 2.0, 0.2]))
    assert len(tree.nodes) == 2
    root = tree.root
    child = next(n for n in tree.nodes if n.parent is not None)
    assert root.birth == 3.0
    assert root.death == 0.0
    assert root.representative == 1
    assert child.birth == 2.0
    assert child.death == 1.0  # merges when the saddle (index 3) activates
    assert child.parent == root.id
    assert child.representative == 5


def test_tree_monotone_profile_single_node():
    tree = cluster_tree(grid_1d([0.1, 0.4, 0.9, 1.5, 2.0]))
    assert len(tree.nodes) == 1
    assert tree.root.birth == 2.0
    assert tree.root.death == 0.0


def test_tree_elder_rule_on_equal_births():
    # two equal peaks: the one activated first (smaller flat index) survives
    tree = cluster_tree(grid_1d([2.0, 0.5, 2.0]))
    root = tree.root
    child = next(n for n in tree.nodes if n.parent is not None)
    assert root.representative == 0
    assert child.representative == 2
    assert child.death == 0.5


def test_tree_component_counts_match_level_sets(rng):
    grid = bimodal_grid(rng)
    tree = cluster_tree(grid)
    for frac in (0.15, 0.4, 0.7, 0.95):
        t = frac * grid.values.max()
        alive = sum(1 for n in tree.nodes if n.birth >= t > n.death)
        assert alive == level_set(grid, t).n_components


def test_tree_component_counts_match_flood_fill_2d(rng):
    centers = np.array([[-3.0, -3.0], [3.0, 3.0], [0.0, 3.0]])
    data = np.concatenate([rng.normal(c, 0.7, size=(120, 2)) for c in centers])
    model = DensityModel(Sample(data), GAUSS2, 0.6)
    grid = estimator.evaluate_grid(model, resolution=64)
    tree = cluster_tree(grid)
    for frac in (0.2, 0.5, 0.8):
        t = frac * grid.values.max()
        alive = sum(1 for n in tree.nodes if n.birth >= t > n.death)
        mask = (grid.values >= t).reshape(grid.shape)
        assert alive == flood_fill_components(mask)


def test_tree_structural_invariants(rng):
    grid = bimodal_grid(rng)
    tree = cluster_tree(grid)
    ids = {n.id for n in tree.nodes}
    roots = [n for n in tree.nodes if n.parent is None]
    assert len(roots) == 1
    for n in tree.nodes:
        assert n.birth > n.death >= 0.0
        assert n.birth == pytest.approx(grid.values[n.representative])
        if n.parent is not None:
            assert n.parent in ids
            parent = tree.nodes[n.parent]
            assert parent.birth >= n.birth
    d = tree.to_dict()
    assert d["schema"] == 1
    assert len(d["nodes"]) == len(tree.nodes)


def reference_tree(values, shape) -> list:
    """(id, birth, death, parent, representative) of every node, from a plain
    superlevel sweep: points in descending value order (ties by flat index),
    union-find over true face adjacency, the first neighbouring component
    joined and the rest merged under the elder rule (birth, -id)."""
    values = np.asarray(values, dtype=float)
    up = {}  # activated point -> union-find parent

    def find(i):
        while up[i] != i:
            i = up[i]
        return i

    node_of = {}  # component root -> node id
    births, deaths, parents, reps = [], [], [], []
    for flat in np.argsort(-values, kind="stable").tolist():
        coord = np.unravel_index(flat, shape)
        roots = []
        for axis in range(len(shape)):
            for step in (-1, 1):
                nb = list(coord)
                nb[axis] += step
                if 0 <= nb[axis] < shape[axis]:
                    j = int(np.ravel_multi_index(nb, shape))
                    if j in up and find(j) not in roots:
                        roots.append(find(j))
        if not roots:
            up[flat] = flat
            node_of[flat] = len(births)
            births.append(float(values[flat]))
            deaths.append(None)
            parents.append(None)
            reps.append(flat)
            continue
        survivor = up[flat] = roots[0]
        for other in roots[1:]:
            a, b = node_of.pop(survivor), node_of.pop(other)
            elder, younger = (a, b) if (births[a], -a) >= (births[b], -b) else (b, a)
            deaths[younger] = float(values[flat])
            parents[younger] = elder
            up[survivor] = other
            survivor = other
            node_of[survivor] = elder
    (last,) = node_of.values()
    deaths[last] = 0.0
    return list(zip(range(len(births)), births, deaths, parents, reps))


def grid_of(values, shape):
    axes = tuple(np.arange(float(n)) for n in shape)
    return EvalGrid(axes=axes, points=estimator.grid_points(axes),
                    values=np.asarray(values, dtype=float).ravel())


def tree_rows(tree):
    return [(n.id, n.birth, n.death, n.parent, n.representative) for n in tree.nodes]


def test_tree_two_peaks_on_2x2_grid():
    # the peaks 1.0 at (0, 1) and 0.9 at (1, 0) are diagonal, not face
    # neighbours: they meet only at level 0
    tree = cluster_tree(grid_of([[0.0, 1.0], [0.9, 0.0]], (2, 2)))
    assert tree_rows(tree) == [(0, 1.0, 0.0, None, 1), (1, 0.9, 0.0, 0, 2)]
    assert tree_rows(tree) == reference_tree([0.0, 1.0, 0.9, 0.0], (2, 2))


SHAPES = [(1,), (2,), (3,), (9,), (1, 1), (1, 6), (6, 1), (2, 2), (2, 5), (5, 2),
          (3, 4), (7, 7)]


@pytest.mark.parametrize("shape", SHAPES)
def test_tree_matches_reference_sweep(shape):
    rng = np.random.default_rng(sum(shape) * 31 + len(shape))
    m = int(np.prod(shape))
    grids = [np.zeros(m), np.ones(m)]  # all-zero and constant: one node
    for _ in range(25):
        grids.append(rng.random(m))                       # distinct values
        grids.append(rng.integers(0, 3, m).astype(float))  # few levels: ties
        grids.append(np.round(rng.random(m), 1))           # plateaus
    for values in grids:
        tree = cluster_tree(grid_of(values, shape))
        assert tree_rows(tree) == reference_tree(values, shape)
        json.dumps(tree.to_dict())  # plain Python ints and floats


def test_tree_matches_reference_sweep_on_kde_grid(rng):
    centers = np.array([[-2.5, -2.5], [2.5, 2.5], [-2.5, 2.5], [2.5, -2.5]])
    data = np.concatenate([rng.normal(c, 0.6, size=(40, 2)) for c in centers])
    model = DensityModel(Sample(data), GAUSS2, 0.5)
    grid = estimator.evaluate_grid(model, resolution=24)
    assert tree_rows(cluster_tree(grid)) == reference_tree(grid.values, grid.shape)


def test_tree_rejects_3d():
    axes = tuple(np.arange(3.0) for _ in range(3))
    pts = estimator.grid_points(axes)
    grid = EvalGrid(axes=axes, points=pts, values=np.zeros(27))
    with pytest.raises(ValueError, match="d <= 2"):
        cluster_tree(grid)


# --- persistence ---


def test_persistence_diagram_from_tree(rng):
    grid = bimodal_grid(rng)
    diag = persistence_diagram(cluster_tree(grid))
    assert diag.dimension == 0
    assert diag.pairs.shape[1] == 2
    assert np.all(diag.persistences() > 0)
    # exactly one pair dies at the floor
    assert np.count_nonzero(diag.pairs[:, 1] == 0.0) == 1
    # the dominant pair is born at the global max
    assert diag.pairs[:, 0].max() == pytest.approx(grid.values.max())


def test_persistence_two_big_pairs_for_bimodal(rng):
    grid = bimodal_grid(rng)
    pers = np.sort(persistence_diagram(cluster_tree(grid)).persistences())[::-1]
    peak = grid.values.max()
    assert pers[0] > 0.5 * peak
    assert pers[1] > 0.25 * peak
    if pers.size > 2:
        assert pers[2] < 0.1 * peak  # everything else is sampling noise


# --- bottleneck distance ---


def diag_of(pairs):
    return PersistenceDiagram(pairs=np.array(pairs, dtype=float).reshape(-1, 2))


def test_bottleneck_identical_is_zero():
    d = diag_of([[3.0, 1.0], [2.0, 0.0]])
    assert bottleneck_distance(d, d) == 0.0


def test_bottleneck_single_pair_shift():
    d1 = diag_of([[3.0, 1.0]])
    d2 = diag_of([[3.5, 0.8]])
    assert bottleneck_distance(d1, d2) == pytest.approx(0.5)


def test_bottleneck_unmatched_point_pays_half_persistence():
    d1 = diag_of([[3.0, 1.0], [1.2, 1.0]])
    d2 = diag_of([[3.0, 1.0]])
    assert bottleneck_distance(d1, d2) == pytest.approx(0.1)


def test_bottleneck_prefers_diagonal_when_cheaper():
    # matching the two far pairs would cost 2; killing both on the diagonal
    # costs max(0.5, 0.5) = 0.5
    d1 = diag_of([[1.0, 0.0]])
    d2 = diag_of([[3.0, 2.0]])
    assert bottleneck_distance(d1, d2) == pytest.approx(0.5)


def test_bottleneck_symmetry_and_triangle(rng):
    diags = []
    for _ in range(3):
        births = rng.uniform(1, 4, size=3)
        deaths = births - rng.uniform(0.1, 1.0, size=3)
        diags.append(diag_of(np.column_stack([births, np.maximum(deaths, 0)])))
    d01 = bottleneck_distance(diags[0], diags[1])
    d10 = bottleneck_distance(diags[1], diags[0])
    assert d01 == pytest.approx(d10)
    d02 = bottleneck_distance(diags[0], diags[2])
    d12 = bottleneck_distance(diags[1], diags[2])
    assert d02 <= d01 + d12 + 1e-12


def test_stability_bound(rng):
    grid = bimodal_grid(rng, resolution=256)
    noise = rng.uniform(-0.002, 0.002, size=grid.values.size)
    grid2 = EvalGrid(axes=grid.axes, points=grid.points,
                     values=np.maximum(grid.values + noise, 0.0))
    dist = bottleneck_stability_check(grid, grid2)
    assert dist <= np.max(np.abs(grid2.values - grid.values)) + 1e-12


def test_stability_rejects_mismatched_grids(rng):
    g1 = bimodal_grid(rng, resolution=64)
    g2 = bimodal_grid(rng, resolution=32)
    with pytest.raises(ValueError, match="geometry"):
        bottleneck_stability_check(g1, g2)
