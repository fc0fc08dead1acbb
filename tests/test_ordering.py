"""Initial embedding tests: random, Hilbert-curve, and affinity orders."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from linepart.graph import Partition, common_neighbors_similarity, cut_weight
from linepart.hilbert import hilbert_index
from linepart.ordering import (
    AFFINITY_ROUND_CAP,
    AffinityHierarchy,
    affinity_ordering,
    hilbert_ordering,
    random_ordering,
)
from linepart.synth import disjoint_cliques, erdos_renyi, ring_of_cliques, rmat

from conftest import make_graph, random_graph, small_graph_and_order


# -- Hilbert index oracle ---------------------------------------------------


def recursive_hilbert_cells(order):
    """Independent construction: expand the curve as an L-system walk."""
    rules = {
        "H": ["A", "u", "H", "r", "H", "d", "B"],
        "A": ["H", "r", "A", "u", "A", "l", "C"],
        "B": ["C", "l", "B", "d", "B", "r", "H"],
        "C": ["B", "d", "C", "l", "C", "u", "A"],
    }

    def expand(sym, depth):
        if depth == 0:
            return ""
        return "".join(
            expand(t, depth - 1) if t in rules else t for t in rules[sym]
        )

    x = y = 0
    cells = [(x, y)]
    for move in expand("H", order):
        if move == "u":
            y += 1
        elif move == "d":
            y -= 1
        elif move == "r":
            x += 1
        elif move == "l":
            x -= 1
        cells.append((x, y))
    return cells


def test_order_one_visit_sequence():
    assert recursive_hilbert_cells(1) == [(0, 0), (0, 1), (1, 1), (1, 0)]
    xs = np.array([0, 0, 1, 1])
    ys = np.array([0, 1, 1, 0])
    assert hilbert_index(xs, ys, 1).tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_hilbert_index_matches_recursive_construction(order):
    cells = recursive_hilbert_cells(order)
    xs = np.array([c[0] for c in cells])
    ys = np.array([c[1] for c in cells])
    assert np.array_equal(hilbert_index(xs, ys, order), np.arange(len(cells)))


def masked_hilbert_index(x, y, order):
    """The conversion with masked gathers and scatters for the rotations."""
    x = np.array(x, dtype=np.int64, copy=True)
    y = np.array(y, dtype=np.int64, copy=True)
    side = np.int64(1) << order
    d = np.zeros_like(x)
    s = side >> 1
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        swap = ry == 0
        flip = swap & (rx == 1)
        x[flip] = side - 1 - x[flip]
        y[flip] = side - 1 - y[flip]
        xs = x[swap]
        x[swap] = y[swap]
        y[swap] = xs
        s >>= 1
    return d


def test_hilbert_index_matches_masked_loop():
    rng = np.random.default_rng(29)
    xs, ys = rng.integers(0, 1 << 16, (2, 100_000))
    assert hilbert_index(xs, ys, 16).tobytes() == masked_hilbert_index(xs, ys, 16).tobytes()
    top = (1 << 31) - 1
    xs, ys = np.array([0, 0, top, top]), np.array([0, top, 0, top])
    assert hilbert_index(xs, ys, 31).tobytes() == masked_hilbert_index(xs, ys, 31).tobytes()


def test_hilbert_index_validates_order():
    with pytest.raises(ValueError, match="curve order"):
        hilbert_index(np.array([0]), np.array([0]), 0)
    with pytest.raises(ValueError, match="curve order"):
        hilbert_index(np.array([0]), np.array([0]), 32)


# -- orderings ---------------------------------------------------------------


def test_random_ordering_singleton_and_determinism():
    g1 = make_graph([], n=1)
    assert random_ordering(g1, 5).vertex_at.tolist() == [0]
    g = make_graph([], n=50)
    assert random_ordering(g, 9) == random_ordering(g, 9)
    assert random_ordering(g, 9) != random_ordering(g, 10)


def test_hilbert_ordering_same_point_falls_back_to_id():
    g = make_graph([], n=5, geo=np.zeros((5, 2)))
    assert hilbert_ordering(g, 4).vertex_at.tolist() == [0, 1, 2, 3, 4]


def test_hilbert_ordering_separates_distant_clusters():
    pts = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (0.1, 0.1),
           (10.0, 10.0), (10.1, 10.0), (10.0, 10.1), (10.1, 10.1)]
    g = make_graph([], n=8, geo=np.array(pts))
    ranks = hilbert_ordering(g, 8).rank_of
    first = set(ranks[:4].tolist())
    assert first == {0, 1, 2, 3} or first == {4, 5, 6, 7}


def test_hilbert_ordering_missing_geo_names_vertex():
    geo = np.array([[0.0, 0.0], [np.nan, np.nan], [1.0, 1.0]])
    g = make_graph([], n=3, geo=geo)
    with pytest.raises(ValueError, match="'1'"):
        hilbert_ordering(g)
    with pytest.raises(ValueError, match="'0'"):
        hilbert_ordering(make_graph([], n=2))


def test_hilbert_ordering_translation_and_scale_invariant():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-5, 5, size=(40, 2))
    base = hilbert_ordering(make_graph([], n=40, geo=pts), 10)
    shifted = hilbert_ordering(make_graph([], n=40, geo=pts * 3.0 + 11.0), 10)
    assert base == shifted


def reference_affinity_ordering(g, max_rounds=AFFINITY_ROUND_CAP):
    """The label loop and label sort that ``affinity_ordering`` replaced with
    numpy, verbatim; returns (vertex_at, hierarchy)."""
    n = g.n
    cluster = np.arange(n, dtype=np.int64)  # representative = min member id
    rev_labels: list[list[int]] = [[v] for v in range(n)]
    hierarchy = AffinityHierarchy(levels=[cluster.copy()])

    eu, ev, ew = g.edge_u, g.edge_v, g.edge_w
    for _ in range(max_rounds):
        cu = cluster[eu]
        cv = cluster[ev]
        cross = cu != cv
        if not cross.any():
            break
        a = np.minimum(cu[cross], cv[cross])
        b = np.maximum(cu[cross], cv[cross])
        key = a * np.int64(n) + b
        uniq, inverse = np.unique(key, return_inverse=True)
        sums = np.bincount(inverse, weights=ew[cross], minlength=len(uniq))
        counts = np.bincount(inverse, minlength=len(uniq))
        means = sums / counts
        pos = means > 0
        if not pos.any():
            break
        pa = (uniq[pos] // n).astype(np.int64)
        pb = (uniq[pos] % n).astype(np.int64)
        pw = means[pos]

        # Best neighbor per cluster: max similarity, ties to smaller rep id.
        src = np.concatenate([pa, pb])
        dst = np.concatenate([pb, pa])
        sim = np.concatenate([pw, pw])
        order = np.lexsort((dst, -sim, src))
        src_sorted = src[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = src_sorted[1:] != src_sorted[:-1]
        sel_src = src_sorted[first]
        sel_dst = dst[order][first]

        # Merge connected components of the undirected selection graph.
        reps = np.unique(cluster)
        comp_of_rep = np.full(n, -1, dtype=np.int64)
        ri = np.searchsorted(reps, sel_src)
        rj = np.searchsorted(reps, sel_dst)
        m = len(reps)
        sel_graph = coo_matrix(
            (np.ones(len(ri)), (ri, rj)), shape=(m, m)
        )
        n_comp, comp = connected_components(sel_graph, directed=False)
        comp_of_rep[reps] = comp

        # New representative per component: minimum member id.
        comp_min = np.full(n_comp, n, dtype=np.int64)
        np.minimum.at(comp_min, comp, reps)
        comp_size = np.bincount(comp, minlength=n_comp)

        merged = comp_size[comp_of_rep[cluster]] >= 2
        if not merged.any():
            break
        new_cluster = cluster.copy()
        new_cluster[merged] = comp_min[comp_of_rep[cluster[merged]]]
        for v in np.flatnonzero(merged):
            rev_labels[v].append(int(new_cluster[v]))
        cluster = new_cluster
        hierarchy.levels.append(cluster.copy())

    hierarchy.labels = [tuple(reversed(lbl)) for lbl in rev_labels]
    vertex_at = np.array(
        sorted(range(n), key=lambda v: (hierarchy.labels[v], v)), dtype=np.int64
    )
    return vertex_at, hierarchy


def affinity_cases():
    rng = np.random.default_rng(12)
    sim = common_neighbors_similarity(rmat(9, 4000, seed=3))
    cases = [
        sim,
        common_neighbors_similarity(ring_of_cliques(6, 5)),
        common_neighbors_similarity(disjoint_cliques(3, 4)),
        common_neighbors_similarity(erdos_renyi(60, 0.2, 4)),
        make_graph([], n=5),
        make_graph([], n=0),
        make_graph([(0, 1), (0, 2), (0, 3), (0, 4)]),
        make_graph([(v, 8) for v in range(8)]),  # equal-weight star, hub last
        # ties everywhere: one-decimal similarities, and a clique of equal weights
        sim.with_edge_weights(np.round(sim.edge_w, 1)),
        make_graph([(u, v) for u in range(12) for v in range(u + 1, 12)]),
    ]
    # Weights rising along a path: one round selects a chain of n - 1
    # clusters ending in a mutual pair, the longest tail a round can have.
    # At n = 48 the tail of 46 needs all 6 jumps (2^5 < 46).
    for n in (2, 3, 33, 48, 64, 65, 1025):
        edges = [(i, i + 1) for i in range(n - 1)]
        cases.append(make_graph(edges, weights=[i + 1.0 for i in range(n - 1)]))
    for _ in range(40):
        n = int(rng.integers(2, 40))
        g = random_graph(rng, n, int(rng.integers(0, 3 * n)))
        w = rng.choice([0.0, 0.5, 1.0, 2.0], size=g.edge_count)  # ties and zeros
        cases.append(g.with_edge_weights(w))
    return cases


def test_affinity_order_and_labels_match_reference_loop():
    for g in affinity_cases():
        for max_rounds in (AFFINITY_ROUND_CAP, 1, 2):
            order, hierarchy = affinity_ordering(g, max_rounds)
            ref_at, ref = reference_affinity_ordering(g, max_rounds)
            assert order.vertex_at.tolist() == ref_at.tolist()
            assert "labels" not in vars(hierarchy)  # built on first read only
            assert hierarchy.labels == ref.labels
            assert [lv.tolist() for lv in hierarchy.levels] == [
                lv.tolist() for lv in ref.levels
            ]


def test_affinity_memory_stays_below_twenty_edge_arrays():
    # the doubled (src, dst, sim) lexsort peaked at 29·8m bytes above the start
    g = common_neighbors_similarity(rmat(13, 1 << 17, seed=1))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        affinity_ordering(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 20 * 8 * g.edge_count, (peak - start) / (8 * g.edge_count)


def test_affinity_logs_each_merging_round(caplog):
    # Two triangles joined by a lighter bridge: round 1 merges each triangle,
    # round 2 merges the two, round 3 has no cross edge and logs nothing.
    # A graph with zero similarity everywhere merges nothing and logs nothing.
    g = make_graph(
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)],
        weights=[1.0, 1.0, 1.0, 0.5, 1.0, 1.0, 1.0],
    )
    with caplog.at_level("INFO", logger="linepart.ordering"):
        _, hierarchy = affinity_ordering(g)
        affinity_ordering(make_graph([(0, 1), (1, 2)], weights=[0.0, 0.0]))
    assert hierarchy.cluster_counts() == [6, 2, 1]
    assert caplog.messages == [
        "affinity\tround\t1\tclusters\t2\tmerged\t6",
        "affinity\tround\t2\tclusters\t1\tmerged\t2",
    ]


def test_affinity_single_edge():
    g = make_graph([(0, 1)])
    order, hierarchy = affinity_ordering(g)
    assert order.vertex_at.tolist() == [0, 1]
    assert hierarchy.depth == 2  # singletons, then one merged cluster
    assert hierarchy.labels[1] == (0, 1)


def test_affinity_two_cliques_contiguous_zero_cut():
    g = disjoint_cliques(2, 4)
    sim = common_neighbors_similarity(g)
    order, _ = affinity_ordering(sim)
    first_half = set(order.vertex_at[:4].tolist())
    assert first_half in ({0, 1, 2, 3}, {4, 5, 6, 7})
    assignment = np.empty(8, dtype=np.int64)
    assignment[order.vertex_at[:4]] = 0
    assignment[order.vertex_at[4:]] = 1
    p = Partition.from_assignment(assignment, 2, g)
    assert cut_weight(g, p) == (0.0, 0.0)


def test_affinity_star_two_levels():
    g = make_graph([(0, 1), (0, 2), (0, 3), (0, 4)])
    order, hierarchy = affinity_ordering(g)
    assert hierarchy.cluster_counts() == [5, 1]
    assert order.vertex_at.tolist() == [0, 1, 2, 3, 4]


def test_affinity_zero_similarity_survives_unmerged():
    # a path has no common neighbors anywhere: nothing may merge
    g = make_graph([(0, 1), (1, 2)])
    sim = common_neighbors_similarity(g)
    order, hierarchy = affinity_ordering(sim)
    assert hierarchy.depth == 1
    assert order.vertex_at.tolist() == [0, 1, 2]


def test_affinity_components_contiguous_cut_zero():
    # three components, positive internal similarity via triangles
    edges = []
    for base in (0, 3, 6):
        edges += [(base, base + 1), (base + 1, base + 2), (base, base + 2)]
    g = make_graph(edges)
    order, _ = affinity_ordering(g)
    assignment = np.empty(9, dtype=np.int64)
    for j in range(3):
        assignment[order.vertex_at[3 * j : 3 * (j + 1)]] = j
    p = Partition.from_assignment(assignment, 3, g)
    assert cut_weight(g, p)[0] == 0.0


@settings(max_examples=40)
@given(small_graph_and_order(weighted=True))
def test_affinity_output_is_permutation(go):
    g, _ = go
    order, hierarchy = affinity_ordering(g)
    order.validate()
    assert len(hierarchy.labels) == g.n


@settings(max_examples=30)
@given(small_graph_and_order(weighted=True))
def test_affinity_label_prefixes_are_contiguous(go):
    g, _ = go
    order, hierarchy = affinity_ordering(g)
    # vertices sharing a label prefix must occupy consecutive ranks
    prefixes = {}
    for v in range(g.n):
        label = hierarchy.labels[v]
        for depth in range(1, len(label) + 1):
            prefixes.setdefault(label[:depth], []).append(int(order.rank_of[v]))
    for ranks in prefixes.values():
        ranks.sort()
        assert ranks == list(range(ranks[0], ranks[0] + len(ranks)))


def test_affinity_round_cap_respected():
    g = disjoint_cliques(2, 4)
    sim = common_neighbors_similarity(g)
    order, hierarchy = affinity_ordering(sim, max_rounds=1)
    assert hierarchy.depth <= 2
    order.validate()
