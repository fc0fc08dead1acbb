"""Graph model, similarity weighting, and metric tests."""

import io as stdio
import itertools
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from linepart import graph as graph_module
from linepart.graph import (
    Graph,
    GraphFormatError,
    Partition,
    check_balance,
    common_neighbors_similarity,
    cross_shard_rate,
    cut_weight,
    query_weighted_graph,
)
from linepart.io import load_graph
from linepart.synth import erdos_renyi, rmat

from conftest import fail_block, force_workers, make_graph, random_graph, small_graph_and_order


def parts(g, assignment):
    return Partition.from_assignment(np.array(assignment), max(assignment) + 1, g)


# -- loading --------------------------------------------------------------


def test_load_defaults():
    g = load_graph(stdio.StringIO("a\tb\nb\tc\n"))
    assert g.n == 3
    assert g.edge_count == 2
    assert np.all(g.edge_w == 1.0)
    assert np.all(g.vertex_weights == 1.0)


def test_load_merges_reciprocal_arcs():
    g = load_graph(stdio.StringIO("a\tb\t2\nb\ta\t3\n"))
    assert g.edge_count == 1
    assert g.edge_w[0] == 5.0


def test_load_symmetrizes_directed_input():
    # follower-style arcs; the undirected underlying graph is what loads
    g = load_graph(stdio.StringIO("a\tb\nb\ta\nb\tc\n"))
    assert g.edge_count == 2
    ab = g.edge_w[0] if g.external_ids[g.edge_u[0]] == "a" else g.edge_w[1]
    assert ab == 2.0  # both arcs contribute once


def test_load_drops_self_loops_and_comments():
    g = load_graph(stdio.StringIO("# comment\na\ta\na\tb\n\n"))
    assert g.edge_count == 1


def test_load_vertex_metadata():
    vertices = stdio.StringIO("a\t2.5\t10.0\t20.0\nb\nc\t0.5\n")
    g = load_graph(stdio.StringIO("a\tb\nb\tc\nc\td\n"), vertices)
    assert g.vertex_weights.tolist() == [2.5, 1.0, 0.5, 1.0]
    assert g.geo[0].tolist() == [10.0, 20.0]
    assert np.isnan(g.geo[1:]).all()  # no coordinates given
    assert g.external_ids[3] == "d"  # edge-only vertex, defaults


def test_load_first_seen_order():
    g = load_graph(stdio.StringIO("z\ty\nx\tz\n"))
    assert g.external_ids == ["z", "y", "x"]


@pytest.mark.parametrize(
    "edge_text, vertex_text, fragment",
    [
        ("a\n", None, ":1:"),
        ("a\tb\tnope\n", None, ":1:"),
        ("a\tb\t-2\n", None, "non-negative"),
        ("a\tb\n", "a\t0\n", "positive"),
        ("a\tb\n", "a\t1\t95\t0\n", "out of range"),
        ("ok\tfine\na\tb\tx\n", None, ":2:"),
    ],
)
def test_load_errors_carry_line_numbers(edge_text, vertex_text, fragment):
    vertices = stdio.StringIO(vertex_text) if vertex_text else None
    with pytest.raises(GraphFormatError, match=fragment):
        load_graph(stdio.StringIO(edge_text), vertices)


def test_graph_rejects_negative_edge_weight():
    with pytest.raises(ValueError, match="negative"):
        make_graph([(0, 1)], weights=[-1.0])


def reference_csr(g):
    """(indptr, indices, edge ids) from one stable sort of all 2m arcs by
    (tail, head)."""
    m = g.edge_count
    src = np.concatenate([g.edge_u, g.edge_v])
    dst = np.concatenate([g.edge_v, g.edge_u])
    order = np.argsort(src * g.n + dst, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=g.n))])
    return indptr, dst[order], np.concatenate([np.arange(m), np.arange(m)])[order]


@pytest.mark.parametrize("order", ["sorted", "shuffled", "parallel"])
@pytest.mark.parametrize("seed", range(20))
def test_csr_matches_sorting_every_arc(order, seed):
    rng = np.random.default_rng(seed)
    base = random_graph(rng, int(rng.integers(1, 40)), int(rng.integers(0, 120)))
    u, v = base.edge_u, base.edge_v
    if order == "shuffled":
        perm = rng.permutation(len(u))
        u, v = u[perm], v[perm]
    elif order == "parallel":  # a direct Graph(...) call may repeat an edge
        pick = rng.integers(0, max(len(u), 1), len(u) // 2)
        u, v = np.concatenate([u, u[pick]]), np.concatenate([v, v[pick]])
        perm = rng.permutation(len(u))
        u, v = u[perm], v[perm]
    g = Graph(base.external_ids, base.vertex_weights, u, v, np.arange(len(u), dtype=float))
    indptr, indices, edge = reference_csr(g)
    assert g.adj_indptr.tobytes() == indptr.astype(np.int64).tobytes()
    assert g.adj_indices.tobytes() == indices.tobytes()
    assert g.adj_edge.tobytes() == edge.tobytes()
    assert g.adj_weights.tobytes() == g.edge_w[edge].tobytes()


def test_with_edge_weights_shares_adjacency_and_validates():
    g = make_graph([(0, 1), (1, 2), (0, 2), (2, 3)], n=5, vertex_weights=[1, 2, 1, 1, 3])
    w = np.array([0.5, 0.0, 2.0, 7.0])
    h = g.with_edge_weights(w)
    fresh = Graph(g.external_ids, g.vertex_weights, g.edge_u, g.edge_v, w, g.geo)
    for name in ("adj_indptr", "adj_indices", "adj_edge", "adj_weights", "edge_w"):
        assert np.array_equal(getattr(h, name), getattr(fresh, name)), name
    assert h.total_edge_weight == fresh.total_edge_weight == 9.5
    assert h.total_vertex_weight == 8.0
    assert g.edge_w.tolist() == [1.0, 1.0, 1.0, 1.0]  # source graph unchanged
    assert g.total_edge_weight == 4.0
    with pytest.raises(ValueError, match="equal length"):
        g.with_edge_weights(np.ones(3))
    with pytest.raises(ValueError, match=r"edge \('0', '2'\) has negative weight -1.0"):
        g.with_edge_weights(np.array([1.0, -1.0, 1.0, 1.0]))


def test_unit_edge_weights_flag_follows_the_weights():
    g = make_graph([(0, 1), (1, 2), (0, 2)])
    assert g.unit_edge_weights and make_graph([], n=3).unit_edge_weights
    assert not g.with_edge_weights(np.array([1.0, 1.0, 1.0 + 2**-52])).unit_edge_weights
    assert not g.with_edge_weights(np.array([1.0, 0.0, 1.0])).unit_edge_weights
    assert g.with_edge_weights(np.ones(3)).unit_edge_weights
    assert g.unit_edge_weights  # the source graph keeps its own
    # parallel unit edges merge into weight 2
    assert not make_graph([(0, 1), (1, 0)]).unit_edge_weights
    with pytest.raises(AttributeError):
        g.unit_edge_weights = False


# -- similarity -----------------------------------------------------------


def brute_similarity(g, u, v):
    nu = set(g.neighbors(u)[0].tolist())
    nv = set(g.neighbors(v)[0].tolist())
    common = nu & nv
    union = (nu | nv) - {u, v}
    return len(common) / len(union) if union else 0.0


def test_similarity_triangle_edge_is_one():
    g = make_graph([(0, 1), (1, 2), (0, 2)])
    s = common_neighbors_similarity(g)
    assert np.allclose(s.edge_w, 1.0)


def test_similarity_path_edge_is_zero():
    g = make_graph([(0, 1), (1, 2)])
    s = common_neighbors_similarity(g)
    assert np.all(s.edge_w == 0.0)


def test_similarity_ratio_case():
    # N(a) = {b, c, d}, N(b) = {a, c, e}: common {c}, union-minus-ends {c, d, e}
    g = make_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 4)])
    s = common_neighbors_similarity(g)
    edge = [e for e in range(s.edge_count) if {s.edge_u[e], s.edge_v[e]} == {0, 1}]
    assert s.edge_w[edge[0]] == pytest.approx(1 / 3)


def higher_neighbours(g):
    """Per vertex, its neighbours of higher (degree, id) rank, lowest first."""
    deg = np.diff(g.adj_indptr).tolist()
    rank = {v: r for r, v in enumerate(sorted(range(g.n), key=lambda v: (deg[v], v)))}
    indices, indptr = g.adj_indices.tolist(), g.adj_indptr.tolist()
    return [sorted((y for y in indices[indptr[x] : indptr[x + 1]] if rank[y] > rank[x]),
                   key=rank.__getitem__) for x in range(g.n)]


def test_similarity_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(3, 16)), int(rng.integers(2, 40)))
        # within the wedge budget the similarity is the exact ratio
        assert max(map(len, higher_neighbours(g))) <= 16
        s = common_neighbors_similarity(g)
        for e in range(g.edge_count):
            u, v = int(g.edge_u[e]), int(g.edge_v[e])
            # both sides divide the same two integers
            assert s.edge_w[e] == brute_similarity(g, u, v)


def reference_similarity(g):
    """A per-triangle loop under a budget of 16 wedge ends per vertex: each
    vertex keeps its 16 lowest-ranked higher neighbours (rank by degree,
    then id), and a triangle counts on its three edges when its
    lowest-ranked vertex keeps both other ends."""
    deg = np.diff(g.adj_indptr).tolist()
    edge_of = {(u, v): e for e, (u, v) in enumerate(zip(g.edge_u.tolist(), g.edge_v.tolist()))}
    tri = [0] * g.edge_count
    for x, kept in enumerate(higher_neighbours(g)):
        for a, b in itertools.combinations(kept[:16], 2):
            ab = edge_of.get((min(a, b), max(a, b)))
            if ab is not None:
                for e in (edge_of[min(x, a), max(x, a)], edge_of[min(x, b), max(x, b)], ab):
                    tri[e] += 1
    new_w = np.zeros(g.edge_count, dtype=np.float64)
    for e, (u, v) in enumerate(zip(g.edge_u.tolist(), g.edge_v.tolist())):
        denom = deg[u] + deg[v] - tri[e] - 2
        if denom > 0:
            new_w[e] = tri[e] / denom
    return new_w


def similarity_oracle_inputs():
    star = make_graph([(0, v) for v in range(1, 40)])
    k9 = make_graph([(u, v) for u in range(9) for v in range(u + 1, 9)])
    # out-degrees 19, 18 and 17 exceed the wedge budget of 16
    k20 = make_graph([(u, v) for u in range(20) for v in range(u + 1, 20)])
    # isolated vertices 0, 5, 11; zero-weight edges; three components with edges
    mixed = make_graph(
        [(1, 2), (2, 3), (1, 3), (3, 4), (6, 7), (7, 8), (8, 9), (9, 6), (6, 8), (10, 12)],
        n=13,
        weights=[1.0, 0.0, 2.0, 0.0, 1.0, 1.0, 0.0, 3.0, 1.0, 0.0],
    )
    # edges listed out of key order, as a direct Graph(...) call allows
    base = rmat(8, 1 << 11, seed=4)
    perm = np.random.default_rng(0).permutation(base.edge_count)
    shuffled = Graph(
        base.external_ids, base.vertex_weights,
        base.edge_u[perm], base.edge_v[perm], base.edge_w[perm],
    )
    return [
        ("rmat-10", rmat(10, 1 << 13, seed=3)),
        ("rmat-12", rmat(12, 1 << 15, seed=5)),
        ("star", star),
        ("K9", k9),
        ("mixed", mixed),
        ("no-edges", make_graph([], n=6)),
        ("n=1", make_graph([], n=1)),
        ("shuffled-edges", shuffled),
        ("K20", k20),
    ]


@pytest.mark.parametrize("name, g", similarity_oracle_inputs())
def test_similarity_kernel_matches_reference_loop_bytes(name, g):
    s = common_neighbors_similarity(g)
    assert s.edge_w.tobytes() == reference_similarity(g).tobytes(), name
    assert s.edge_count == g.edge_count


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_similarity_bytes_do_not_depend_on_workers_or_chunks(monkeypatch, workers):
    # 64-probe chunks: dozens to thousands per input, claimed by 1-3 threads
    force_workers(monkeypatch, workers)
    monkeypatch.setattr(graph_module, "_PROBE_BITS", 6)
    for name, g in similarity_oracle_inputs():
        s = common_neighbors_similarity(g)
        assert s.edge_w.tobytes() == reference_similarity(g).tobytes(), name


def test_similarity_chunk_boundaries_split_pair_lists(monkeypatch):
    # rmat hubs have out-lists far longer than 4 pairs, so nearly every
    # vertex's pair list spans several chunks
    monkeypatch.setattr(graph_module, "_PROBE_BITS", 2)
    g = rmat(9, 1 << 11, seed=2)
    expected = reference_similarity(g)
    assert (expected > 0).any()
    for workers in (1, 2, 3):
        force_workers(monkeypatch, workers)
        got = common_neighbors_similarity(g).edge_w
        assert got.tobytes() == expected.tobytes(), workers


def test_similarity_surfaces_a_failed_block_after_joining(monkeypatch):
    force_workers(monkeypatch, 3)
    monkeypatch.setattr(graph_module, "_PROBE_BITS", 6)
    fail_block(monkeypatch, graph_module, 5)
    g = rmat(9, 1 << 11, seed=2)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="block failed"):
        common_neighbors_similarity(g)
    assert threading.active_count() == before


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_similarity_peak_memory_stays_within_parent_bound(monkeypatch, workers):
    # 23.2 edge arrays was the peak of one 2**18-probe chunk; four threads
    # hold four 2**16-probe chunks and four count arrays
    force_workers(monkeypatch, workers)
    g = rmat(13, 1 << 17, seed=1)
    tracemalloc.start()
    try:
        common_neighbors_similarity(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 23.2 * 8 * g.edge_count


def test_similarity_logs_wedges_and_triangles(caplog):
    # K4: ranks 0..3, out-degrees 3, 2, 1, 0 -> 3 + 1 pairs, 4 triangles.
    # Star with hub 0: every edge points from a leaf to the hub, so no
    # vertex has two out-neighbours and no pair is tested. K20: rank = id,
    # vertex x has 19 - x out-neighbours and pairs min(19 - x, 16) of them,
    # so vertices 0, 1 and 2 drop C(19, 2) + C(18, 2) + C(17, 2) - 3 C(16, 2)
    # = 100 of the 1140 triangles, and each kept pair is a triangle. One
    # chunk or none: one thread.
    k4 = make_graph([(u, v) for u in range(4) for v in range(u + 1, 4)])
    star = make_graph([(0, v) for v in range(1, 40)])
    k20 = make_graph([(u, v) for u in range(20) for v in range(u + 1, 20)])
    with caplog.at_level("INFO", logger="linepart.graph"):
        common_neighbors_similarity(k4)
        common_neighbors_similarity(star)
        s = common_neighbors_similarity(k20)
    assert caplog.messages == [
        "similarity\tbudget\t16\twedges\t4\tdropped\t0\ttriangles\t4\tworkers\t1",
        "similarity\tbudget\t16\twedges\t0\tdropped\t0\ttriangles\t0\tworkers\t1",
        "similarity\tbudget\t16\twedges\t1040\tdropped\t100\ttriangles\t1040\tworkers\t1",
    ]
    # A K20 triangle {x, a, b} with x < a < b counts iff x keeps b, that is
    # b <= x + 16. Edge (0, 19) counts none; edge (18, 19) counts x = 3..17,
    # 15 of its 18 triangles, so its weight is 15 / (19 + 19 - 15 - 2).
    w = {(int(u), int(v)): x for u, v, x in zip(s.edge_u, s.edge_v, s.edge_w)}
    assert w[0, 19] == 0.0 and w[18, 19] == 15 / 21


@settings(max_examples=30)
@given(small_graph_and_order())
def test_similarity_invariant_under_relabeling(go):
    g, order = go
    s = common_neighbors_similarity(g)
    # relabel vertices by the permutation and recompute
    perm = order.rank_of
    g2 = Graph.from_arcs(
        perm[g.edge_u], perm[g.edge_v], g.edge_w,
        [str(i) for i in range(g.n)],
    )
    s2 = common_neighbors_similarity(g2)
    lookup = {}
    for e in range(s2.edge_count):
        lookup[(int(s2.edge_u[e]), int(s2.edge_v[e]))] = s2.edge_w[e]
    for e in range(s.edge_count):
        a, b = int(perm[s.edge_u[e]]), int(perm[s.edge_v[e]])
        key = (min(a, b), max(a, b))
        assert s.edge_w[e] == pytest.approx(lookup[key])


# -- cut and balance -------------------------------------------------------


def test_cut_weight_triangle():
    g = make_graph([(0, 1), (1, 2), (0, 2)])
    p = parts(g, [0, 1, 1])
    assert cut_weight(g, p) == (2.0, pytest.approx(2 / 3))


def test_cut_weight_single_part():
    g = make_graph([(0, 1), (1, 2), (0, 2)])
    p = parts(g, [0, 0, 0])
    assert cut_weight(g, p) == (0.0, 0.0)


def test_cut_weight_vertex_mismatch():
    g = make_graph([(0, 1)])
    p = Partition(np.array([0, 0, 1]), 2, np.array([2.0, 1.0]))
    with pytest.raises(ValueError, match="covers"):
        cut_weight(g, p)


@settings(max_examples=40)
@given(small_graph_and_order(weighted=True), st.integers(min_value=1, max_value=4))
def test_cut_fraction_in_unit_interval(go, k):
    g, order = go
    k = min(k, g.n)
    assignment = np.array([i % k for i in range(g.n)])
    p = Partition.from_assignment(assignment, k, g)
    absolute, fraction = cut_weight(g, p)
    assert 0.0 <= fraction <= 1.0 + 1e-12
    crossing = assignment[g.edge_u] != assignment[g.edge_v]
    has_cut_edge = bool((g.edge_w[crossing] > 0).any())
    assert (absolute > 0) == has_cut_edge


def test_check_balance_examples():
    g = make_graph([], n=10)
    even = parts(g, [0] * 5 + [1] * 5)
    skew = parts(g, [0] * 6 + [1] * 4)
    assert check_balance(g, even, 0.0).balanced
    assert not check_balance(g, skew, 0.0).balanced
    assert check_balance(g, skew, 0.2).balanced  # 6 <= 1.2 * 5


def test_check_balance_report_rows():
    g = make_graph([], n=10)
    report = check_balance(g, parts(g, [0] * 6 + [1] * 4), 0.2)
    rows = list(report.rows())
    assert rows[0] == (0, 6.0, pytest.approx(0.2))
    assert rows[1] == (1, 4.0, pytest.approx(-0.2))


def test_check_balance_weighted_vertices():
    g = make_graph([], n=3, vertex_weights=[4.0, 1.0, 1.0])
    p = parts(g, [0, 1, 1])
    assert not check_balance(g, p, 0.3).balanced
    assert check_balance(g, p, 1.0).balanced


# -- query metrics ---------------------------------------------------------


def test_cross_shard_rate_examples():
    g = make_graph([], n=6)
    p = parts(g, [0, 0, 0, 1, 1, 1])
    assert cross_shard_rate(p, [(0, 1), (1, 2), (3, 4)]) == 0.0
    assert cross_shard_rate(p, [(0, 1), (0, 3), (1, 4), (3, 4), (5, 4)]) == 0.4


def test_cross_shard_rate_unknown_endpoint():
    g = make_graph([], n=2)
    p = parts(g, [0, 1])
    with pytest.raises(ValueError, match="7"):
        cross_shard_rate(p, [(0, 7)])


def test_query_weighted_path():
    g = make_graph([(0, 1), (1, 2)])
    weighted, skipped = query_weighted_graph(g, [(0, 2)])
    assert skipped == []
    assert weighted.edge_w.tolist() == [1.0, 1.0]


def test_query_weighted_no_queries():
    g = make_graph([(0, 1), (1, 2)])
    weighted, _ = query_weighted_graph(g, [])
    assert weighted.edge_w.tolist() == [0.0, 0.0]
    assert weighted.edge_count == g.edge_count  # zero-weight edges retained


def test_query_weighted_square_tie_break():
    # cycle a-b-c-d-a; (a, c) has two shortest paths; the smaller-id
    # predecessor rule picks a-b-c
    g = make_graph([(0, 1), (1, 2), (2, 3), (0, 3)])
    weighted, _ = query_weighted_graph(g, [(0, 2)])
    by_pair = {
        (int(weighted.edge_u[e]), int(weighted.edge_v[e])): weighted.edge_w[e]
        for e in range(weighted.edge_count)
    }
    assert by_pair[(0, 1)] == 1.0
    assert by_pair[(1, 2)] == 1.0
    assert by_pair[(2, 3)] == 0.0
    assert by_pair[(0, 3)] == 0.0


def test_query_weighted_unreachable_skipped():
    g = make_graph([(0, 1)], n=3)
    weighted, skipped = query_weighted_graph(g, [(0, 2), (0, 1)])
    assert skipped == [(0, 2)]
    assert weighted.edge_w.tolist() == [1.0]


def test_query_weighted_respects_lengths():
    # direct edge is longer than the two-hop route
    g = make_graph([(0, 2), (0, 1), (1, 2)], weights=[5.0, 1.0, 1.0])
    weighted, _ = query_weighted_graph(g, [(0, 2)])
    by_pair = {
        (int(weighted.edge_u[e]), int(weighted.edge_v[e])): weighted.edge_w[e]
        for e in range(weighted.edge_count)
    }
    assert by_pair[(0, 2)] == 0.0
    assert by_pair[(0, 1)] == 1.0


def cached_trees_query_weights(g, queries):
    """Per-query walk in input order with every source's shortest-path tree
    kept in a dict: the plain reading of ``query_weighted_graph``."""
    counts = np.zeros(g.edge_count)
    skipped, trees = [], {}
    edge_of = {(int(a), int(b)): e for e, (a, b) in enumerate(zip(g.edge_u, g.edge_v))}
    for src, dst in queries:
        if src == dst:
            continue
        if src not in trees:
            trees[src] = graph_module._shortest_path_tree(g, src)
        dist, pred = trees[src]
        if not np.isfinite(dist[dst]):
            skipped.append((src, dst))
            continue
        y = dst
        while y != src:
            x = int(pred[y])
            counts[edge_of[min(x, y), max(x, y)]] += 1.0
            y = x
    return counts, skipped


def test_query_weights_hold_one_tree_at_a_time():
    # a ring of 200 with chords, plus 4 isolated vertices; 150 sources, each
    # queried twice with the sources interleaved, some queries unreachable
    rng = np.random.default_rng(21)
    n = 200
    u = np.concatenate([np.arange(n), rng.integers(0, n, n)])
    v = np.concatenate([(np.arange(n) + 1) % n, rng.integers(0, n, n)])
    keep = u != v
    w = rng.integers(1, 4, int(keep.sum())).astype(float)
    g = Graph.from_arcs(u[keep], v[keep], w, [str(i) for i in range(n + 4)])
    sources = rng.permutation(n)[:150].tolist()
    queries = [(s, int(rng.integers(0, n + 4))) for s in sources + sources[::-1]]
    queries += [(s, s) for s in sources[:5]]
    want_counts, want_skipped = cached_trees_query_weights(g, queries)
    assert len(want_skipped) >= 2

    tracemalloc.start()
    try:
        weighted, skipped = query_weighted_graph(g, queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert weighted.edge_w.tolist() == want_counts.tolist()
    assert skipped == want_skipped
    # one tree is two n-length arrays; keeping all 150 takes ~0.5 MB
    tree_bytes = 2 * 8 * (n + 4)
    assert peak < 20 * tree_bytes, peak


def test_query_weights_raise_on_the_first_bad_endpoint():
    g = make_graph([(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="endpoint 7 is not"):
        query_weighted_graph(g, [(2, 0), (1, 7), (-1, 0)])
    with pytest.raises(ValueError, match="endpoint -1 is not"):
        query_weighted_graph(g, [(2, 0), (-1, 7)])


# -- statistical invariant --------------------------------------------------


def test_random_contiguous_chop_cut_near_expected_ratio():
    # mean cut fraction of an equal chop of a random order ~ 1 - 1/k
    rng = np.random.default_rng(0)
    for k in (2, 4):
        fractions = []
        for seed in range(20):
            g = erdos_renyi(300, 0.05, seed=seed)
            order = rng.permutation(g.n)
            assignment = np.empty(g.n, dtype=np.int64)
            for j in range(k):
                assignment[order[j * g.n // k : (j + 1) * g.n // k]] = j
            p = Partition.from_assignment(assignment, k, g)
            fractions.append(cut_weight(g, p)[1])
        assert abs(np.mean(fractions) - (1 - 1 / k)) < 0.05
