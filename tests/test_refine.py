"""MinLA median iteration and rank-swap tests."""

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from linepart import refine
from linepart.boundary import make_split_points, make_windows, window_slack
from linepart.graph import Graph, Partition, cut_weight
from linepart.ordering import Ordering
from linepart.synth import rmat
from linepart.refine import (
    _SwapState,
    _interval_pairs,
    _swap_interval_pair,
    _weight_sum,
    minla_objective,
    minla_refine,
    minla_round,
    rank_swap_round,
)

from conftest import (
    fail_block,
    force_workers,
    make_graph,
    path_graph,
    random_graph,
    small_graph_and_order,
)


# -- reference implementations (oracles) -------------------------------------


def weighted_median(ranks, weights):
    """Smallest rank where the cumulative weight reaches half the total."""
    order = np.argsort(ranks, kind="stable")
    ranks = np.asarray(ranks, dtype=float)[order]
    weights = np.asarray(weights, dtype=float)[order]
    half = weights.sum() / 2.0
    cum = 0.0
    for r, w in zip(ranks, weights):
        cum += w
        if cum >= half:
            return r
    return ranks[-1]


def reference_round(g, o):
    """Per-vertex weighted-median proposals plus the documented sort."""
    proposals = np.empty(g.n, dtype=float)
    for v in range(g.n):
        nbr, wt = g.neighbors(v)
        if len(nbr) == 0:
            proposals[v] = o.rank_of[v]
        else:
            proposals[v] = weighted_median(o.rank_of[nbr], wt)
    order = sorted(range(g.n), key=lambda v: (proposals[v], o.rank_of[v], v))
    return Ordering.from_vertex_at(np.array(order, dtype=np.int64)), proposals


def argsort_round(g, o):
    """The round as one stable argsort of (src, nbr_rank) keys and a
    segmented minimum over all arcs: the float sums of the packed-sort
    round, computed another way."""
    n = g.n
    ranks = o.rank_of
    deg = np.diff(g.adj_indptr)
    proposed = ranks.copy()
    if g.edge_count:
        src = np.repeat(np.arange(n), deg)
        nbr_rank = ranks[g.adj_indices]
        order = np.argsort(src * np.int64(n) + nbr_rank, kind="stable")
        cw = np.cumsum(g.adj_weights[order])
        starts = g.adj_indptr[:-1]
        seg_prefix = np.concatenate([[0.0], cw])[starts]
        within = cw - np.repeat(seg_prefix, deg)
        seg_total = np.concatenate([[0.0], cw])[g.adj_indptr[1:]] - seg_prefix
        half = np.repeat(seg_total / 2.0, deg)
        idx = np.arange(len(cw))
        cand = np.where(within >= half, idx, len(cw))
        nonempty = deg > 0
        first = np.minimum.reduceat(cand, starts[nonempty])
        proposed[nonempty] = nbr_rank[order[first]]
    return Ordering.from_vertex_at(np.argsort(proposed * np.int64(n) + ranks))


# -- objective ----------------------------------------------------------------


def test_objective_path_examples():
    g = path_graph(3)
    assert minla_objective(g, Ordering.identity(3)) == 2.0
    assert minla_objective(g, Ordering.from_rank_of(np.array([0, 2, 1]))) == 3.0
    assert minla_objective(make_graph([], n=3), Ordering.identity(3)) == 0.0


def test_objective_weighted():
    g = make_graph([(0, 1)], weights=[2.5])
    o = Ordering.from_rank_of(np.array([0, 1]))
    assert minla_objective(g, o) == 2.5


# -- median proposals -----------------------------------------------------------


def test_weighted_median_examples():
    assert weighted_median([2, 5, 9], [1, 1, 1]) == 5
    assert weighted_median([1, 10], [3, 1]) == 1


def test_round_matches_reference():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 14))
        g = random_graph(rng, n, int(rng.integers(0, 30)), weighted=True)
        o = Ordering.from_vertex_at(rng.permutation(n))
        expected, _ = reference_round(g, o)
        assert minla_round(g, o) == expected


def test_round_tie_resolved_by_current_rank():
    # both leaves propose the center's rank; lower current rank goes first
    g = make_graph([(0, 1), (0, 2)])
    o = Ordering.from_rank_of(np.array([0, 2, 1]))  # leaves at ranks 2 and 1
    new = minla_round(g, o)
    assert new.rank_of[2] < new.rank_of[1]  # vertex 2 held the smaller rank


def test_proposed_move_does_not_increase_own_term():
    # moving a vertex to its proposal alone never increases its objective term
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        g = random_graph(rng, n, int(rng.integers(1, 25)), weighted=True)
        o = Ordering.from_vertex_at(rng.permutation(n))
        _, proposals = reference_round(g, o)
        for v in range(g.n):
            nbr, wt = g.neighbors(v)
            if len(nbr) == 0:
                continue
            term_now = float((np.abs(o.rank_of[v] - o.rank_of[nbr]) * wt).sum())
            term_prop = float((np.abs(proposals[v] - o.rank_of[nbr]) * wt).sum())
            assert term_prop <= term_now + 1e-9


@settings(max_examples=40)
@given(small_graph_and_order(weighted=True))
def test_round_output_is_permutation(go):
    g, o = go
    minla_round(g, o).validate()


def oracle_graphs():
    """(name, graph) cases that stress the packed sort and the median search."""
    rng = np.random.default_rng(17)
    n = 60
    # Graph(...) directly keeps parallel edges, which from_arcs would merge
    u = rng.integers(0, n - 1, 400)
    v = u + rng.integers(1, n - u)
    dup = rng.integers(0, 400, 200)
    u, v = np.concatenate([u, u[dup]]), np.concatenate([v, v[dup]])
    yield "parallel", Graph([str(i) for i in range(n)], np.ones(n), u, v,
                            rng.uniform(0, 1, len(u)))
    # zero-weight edges; vertices 50..59 are isolated
    g = random_graph(rng, 50, 300, weighted=True)
    w = g.edge_w.copy()
    w[rng.random(len(w)) < 0.4] = 0.0
    yield "zero-weight", Graph([str(i) for i in range(60)], np.ones(60),
                               g.edge_u, g.edge_v, w)
    g = random_graph(rng, n, 500)
    yield "log-uniform", g.with_edge_weights(10.0 ** rng.uniform(-6, 6, g.edge_count))
    # a hub of degree 1200 makes the search run 11 steps
    hub = np.zeros(1200, dtype=np.int64)
    leaves = np.arange(1, 1201)
    ring = np.arange(1, 1200)
    yield "hub", Graph([str(i) for i in range(1201)], np.ones(1201),
                       np.concatenate([hub, ring]), np.concatenate([leaves, ring + 1]),
                       10.0 ** rng.uniform(-6, 6, 2399))


def one_source_bits(g):
    """Key bits one source of g needs: its vertex id range plus its row offsets."""
    return (g.n - 1).bit_length() + int(np.diff(g.adj_indptr).max() - 1).bit_length()


@pytest.mark.parametrize("chunked", [False, True])
def test_round_matches_argsort_round(monkeypatch, chunked):
    rng = np.random.default_rng(5)
    for name, g in oracle_graphs():
        if chunked:  # 2 spare bits: at most 4·2^⌈log2 n⌉ / n <= 8 sources per sort
            monkeypatch.setattr(refine, "_KEY_BITS", one_source_bits(g) + 2)
        o = Ordering.from_vertex_at(rng.permutation(g.n))
        for _ in range(3):  # chained rounds see ranks the sort itself made
            want = argsort_round(g, o)
            got = minla_round(g, o)
            assert got.vertex_at.tobytes() == want.vertex_at.tobytes(), name
            o = want


def test_round_rejects_a_graph_too_large_for_one_key(monkeypatch):
    _, g = list(oracle_graphs())[-1]
    monkeypatch.setattr(refine, "_KEY_BITS", one_source_bits(g))
    minla_round(g, Ordering.identity(g.n))  # one source per sort still fits
    monkeypatch.setattr(refine, "_KEY_BITS", one_source_bits(g) - 1)
    with pytest.raises(ValueError, match="too large"):
        minla_round(g, Ordering.identity(g.n))


@settings(max_examples=60)
@given(small_graph_and_order(weighted=True))
def test_round_matches_argsort_round_on_random_graphs(go):
    g, o = go
    assert minla_round(g, o).vertex_at.tobytes() == argsort_round(g, o).vertex_at.tobytes()


# -- refinement loop -------------------------------------------------------------


def reference_refine(g, o, max_rounds):
    """minla_refine's loop over argsort_round: (ordering, objective, rounds,
    stop, trace)."""
    obj = minla_objective(g, o)
    trace, stop = [obj], "cap"
    for rounds in range(1, max_rounds + 1):
        nxt = argsort_round(g, o)
        new_obj = minla_objective(g, nxt)
        trace.append(new_obj)
        if new_obj >= obj:
            stop = "no_gain"
            break
        o, obj = nxt, new_obj
    return o, obj, rounds, stop, trace


def force_split(monkeypatch, workers):
    """Cut every median round with arcs into one block per row, for
    ``workers`` threads."""
    monkeypatch.setattr(refine, "_BLOCK_ARCS", 1)
    force_workers(monkeypatch, workers)


@pytest.mark.parametrize("chunked", [False, True])
def test_refine_matches_a_loop_of_argsort_rounds(monkeypatch, chunked):
    # one build serves every round: the reused work arrays must not carry
    # anything from one round into the next. Serial, then with the rounds
    # split into one block per row inside every run, on 2 and 3 threads.
    graphs = [*oracle_graphs(), ("edgeless", make_graph([], n=7)), ("n=1", make_graph([], n=1))]
    for split_workers in (None, 2, 3):
        with monkeypatch.context() as mp:
            if split_workers:
                force_split(mp, split_workers)
            rng = np.random.default_rng(12)
            longest = 0
            for name, g in graphs:
                if chunked and g.edge_count:
                    mp.setattr(refine, "_KEY_BITS", one_source_bits(g) + 2)
                o = Ordering.from_vertex_at(rng.permutation(g.n))
                want_o, want_obj, want_rounds, want_stop, want_trace = reference_refine(g, o, 10)
                got = minla_refine(g, o, 10)
                case = (name, split_workers)
                assert got.ordering.vertex_at.tobytes() == want_o.vertex_at.tobytes(), case
                assert (got.objective, got.round, got.stop) == (want_obj, want_rounds, want_stop), case
                assert got.trace == want_trace, case
                longest = max(longest, got.round)
            assert longest >= 3


def test_refine_peak_memory_stays_within_six_arc_arrays(monkeypatch):
    g = rmat(13, 1 << 17, seed=1)
    o = Ordering.from_vertex_at(np.random.default_rng(0).permutation(g.n))
    # rounds split into 4096-arc blocks, on 1, 2 and 4 threads
    monkeypatch.setattr(refine, "_BLOCK_ARCS", 1 << 12)
    for workers in (1, 2, 4):
        force_workers(monkeypatch, workers)
        tracemalloc.start()
        try:
            minla_refine(g, o, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * len(g.adj_indices), workers


def test_refine_surfaces_a_failed_block_after_joining(monkeypatch):
    force_split(monkeypatch, 3)
    fail_block(monkeypatch, refine, 7)
    _, g = list(oracle_graphs())[0]
    o = Ordering.from_vertex_at(np.random.default_rng(3).permutation(g.n))
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="block failed"):
        minla_refine(g, o, 10)
    assert threading.active_count() == before


def test_refine_fixed_point_returns_after_one_round():
    g = make_graph([], n=4)
    state = minla_refine(g, Ordering.identity(4), max_rounds=5)
    assert (state.round, state.stop) == (1, "no_gain")
    assert state.ordering == Ordering.identity(4)


def test_refine_reports_why_it_stopped(caplog):
    g = path_graph(8)
    o = Ordering.from_vertex_at(np.array([3, 6, 0, 5, 2, 7, 1, 4]))
    with caplog.at_level("INFO", logger="linepart.refine"):
        capped = minla_refine(g, o, max_rounds=1)
        full = minla_refine(g, o, max_rounds=20)
    assert (capped.round, capped.stop) == (1, "cap")
    assert capped.objective < capped.trace[0]
    assert full.stop == "no_gain" and full.round < 20
    stops = [r.getMessage() for r in caplog.records if "\tstop\t" in r.getMessage()]
    assert stops == ["minla\tstop\tcap\trounds\t1", f"minla\tstop\tno_gain\trounds\t{full.round}"]


def test_refine_scrambled_path_improves_first_round():
    g = path_graph(8)
    o = Ordering.from_vertex_at(np.array([3, 6, 0, 5, 2, 7, 1, 4]))
    state = minla_refine(g, o, max_rounds=20)
    assert state.trace[1] < state.trace[0]
    assert state.objective <= state.trace[0]


def test_refine_never_returns_worse_than_input():
    rng = np.random.default_rng(8)
    for _ in range(15):
        n = int(rng.integers(2, 16))
        g = random_graph(rng, n, int(rng.integers(1, 40)))
        o = Ordering.from_vertex_at(rng.permutation(n))
        state = minla_refine(g, o, max_rounds=10)
        assert state.objective <= minla_objective(g, o) + 1e-9
        assert state.objective == pytest.approx(minla_objective(g, state.ordering))


def test_refine_stops_on_two_cycle():
    # a single edge oscillates under simultaneous proposals
    g = make_graph([(0, 1)])
    state = minla_refine(g, Ordering.identity(2), max_rounds=50)
    assert state.round < 50
    assert state.objective == 1.0


# -- swap pairing ------------------------------------------------------------------


def pairs_of(k, intervals, round_index, seed):
    return sorted({(a, a + 1) for a, _, _ in _interval_pairs(k, intervals, round_index, seed)})


def test_swap_plan_parity_examples():
    assert pairs_of(4, 2, 0, 1) == [(0, 1), (2, 3)]
    assert pairs_of(4, 2, 1, 1) == [(1, 2)]
    assert pairs_of(5, 1, 0, 1) == [(0, 1), (2, 3)]


def test_swap_plan_deterministic_and_validated():
    a = list(_interval_pairs(2, 3, 0, 42))
    b = list(_interval_pairs(2, 3, 0, 42))
    assert a == b
    # pinned: partitions depend on this exact seeded matching
    assert list(_interval_pairs(5, 3, 0, -7)) == [
        (0, 0, 1), (0, 1, 0), (0, 2, 2), (2, 0, 1), (2, 1, 0), (2, 2, 2)
    ]
    g = make_graph([(0, 3)], n=4)
    o = Ordering.from_vertex_at(np.array([2, 0, 3, 1]))
    splits = make_split_points(g, o, 2, 0.0)
    with pytest.raises(ValueError, match="interval count"):
        rank_swap_round(g, o, splits, 0, 0, 0)
    # a round with no pair of parts returns its input
    assert rank_swap_round(g, o, make_split_points(g, o, 1, 0.0), 0, 3, 0) is o
    assert rank_swap_round(g, o, splits, 1, 3, 0) is o


def test_swap_plan_each_interval_paired_once():
    pairs = list(_interval_pairs(2, 4, 0, 7))
    assert sorted((a, i) for a, i, _ in pairs) == [(0, i) for i in range(4)]
    assert sorted((a + 1, j) for a, _, j in pairs) == [(1, i) for i in range(4)]


# -- rank swaps ---------------------------------------------------------------------


def brute_best_single_swap(g, o, splits):
    """Exhaustive oracle: best cut over all single cross-part rank swaps."""
    base = cut_weight(g, Partition.from_contiguous(o, splits, g))[0]
    best = base
    q = splits.q
    for a in range(splits.k):
        for b in range(a + 1, splits.k):
            for ra in range(q[a], q[a + 1]):
                for rb in range(q[b], q[b + 1]):
                    va = o.vertex_at.copy()
                    va[ra], va[rb] = va[rb], va[ra]
                    o2 = Ordering.from_vertex_at(va)
                    val = cut_weight(g, Partition.from_contiguous(o2, splits, g))[0]
                    best = min(best, val)
    return base, best


def test_rank_swap_fixes_wrong_side_endpoints():
    # vertices 2 and 3 each sit on the wrong side of the boundary
    g = make_graph([(2, 4), (2, 5), (3, 0), (3, 1)])
    o = Ordering.identity(6)
    splits = make_split_points(g, o, 2, 0.0)
    base, best = brute_best_single_swap(g, o, splits)
    assert (base, best) == (4.0, 0.0)
    o2 = rank_swap_round(g, o, splits, 0, 1, 0)
    after = cut_weight(g, Partition.from_contiguous(o2, splits, g))[0]
    assert after == best


def test_rank_swap_no_improving_pair_is_identity():
    g = make_graph([(0, 1), (4, 5)])
    o = Ordering.identity(6)
    splits = make_split_points(g, o, 2, 0.0)
    assert rank_swap_round(g, o, splits, 0, 2, 3) == o


def test_rank_swap_preserves_rank_multiset_per_part():
    rng = np.random.default_rng(21)
    for _ in range(15):
        n = 20
        g = random_graph(rng, n, 40)
        o = Ordering.from_vertex_at(rng.permutation(n))
        splits = make_split_points(g, o, 4, 0.0)
        o2 = rank_swap_round(g, o, splits, int(rng.integers(0, 2)), 2, 5)
        o2.validate()
        for j in range(4):
            lo, hi = splits.part_range(j)
            assert sorted(o2.vertex_at[lo:hi]) != [] or hi == lo
            # same count of vertices per part, by construction of ranks
            assert len(o2.vertex_at[lo:hi]) == hi - lo


def test_rank_swap_never_increases_cut():
    rng = np.random.default_rng(33)
    for _ in range(20):
        n = 24
        g = random_graph(rng, n, int(rng.integers(10, 60)), weighted=True)
        o = Ordering.from_vertex_at(rng.permutation(n))
        k = int(rng.choice([2, 3, 4]))
        splits = make_split_points(g, o, k, 0.0)
        before = cut_weight(g, Partition.from_contiguous(o, splits, g))[0]
        intervals, rnd = int(rng.integers(1, 4)), int(rng.integers(0, 2))
        o2 = rank_swap_round(g, o, splits, rnd, intervals, 7)
        after = cut_weight(g, Partition.from_contiguous(o2, splits, g))[0]
        assert after <= before + 1e-9


def test_rank_swap_rejects_balance_breaking_swap():
    # the only improving swaps exchange unequal vertex weights and would
    # push a part weight off the exact-balance target
    g = make_graph([(0, 2), (1, 3)], n=4, vertex_weights=[2.0, 1.0, 2.0, 1.0])
    o = Ordering.identity(4)
    splits = make_split_points(g, o, 2, 0.0)
    o2 = rank_swap_round(g, o, splits, 0, 1, 0)
    assert o2 == o  # improving pairs (0,3) and (1,2) rejected on weight


def test_rank_swap_keeps_boundary_in_its_window():
    # Swapping 0 (weight 1) with 4 (weight 4) uncuts all four edges and
    # keeps both parts within the alpha bound [3, 9], but carries the
    # prefix weight at the split from 5 to 8, outside 6 +- 1.5.
    g = make_graph([(0, 5), (0, 6), (4, 1), (4, 2)], n=8,
                   vertex_weights=[1, 1, 1, 2, 4, 1, 1, 1])
    o = Ordering.identity(8)
    splits = make_split_points(g, o, 2, 0.5)
    assert splits.q.tolist() == [0, 4, 8]
    o2 = rank_swap_round(g, o, splits, 0, 1, 0)
    (win,) = make_windows(g, o2, 2, 0.5)
    assert win.lo <= splits.q[1] <= win.hi


def test_swap_keeps_live_reductions_exact():
    # Integer weights keep every sum exact, so the incrementally maintained
    # reductions must equal a fresh recount after every swap, including
    # for neighbours that u and v share.
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = random_graph(rng, 16, 60, weighted=True)
        o = Ordering.from_vertex_at(rng.permutation(16))
        splits = make_split_points(g, o, 2, 0.5)
        state = _SwapState(g, o, splits, range(1))
        for _ in range(6):
            u = int(state.vertex_at[rng.integers(0, 8)])
            v = int(state.vertex_at[rng.integers(8, 16)])
            state.swap(u, v, set(range(16)))
            assert np.array_equal(state.red, state._initial_reductions(range(1)))
        assert state.part_of[state.vertex_at[:8]].tolist() == [0] * 8


def test_weight_sum_is_numpy_sum_bit_for_bit():
    # The short path's fresh reductions must equal the sums numpy takes, on
    # both sides of the 8-term switch to pairwise summation.
    rng = np.random.default_rng(11)
    for size in range(0, 40):
        for _ in range(50):
            ws = rng.standard_normal(size) * 10.0 ** rng.integers(-6, 6, size)
            assert _weight_sum(ws.tolist()) == np.add.reduce(ws), size


@pytest.mark.parametrize("k", [2, 5])
def test_swap_update_paths_agree_bit_for_bit(monkeypatch, k):
    # Float weights and zero-weight edges; every swap runs once through the
    # Python path and once through the numpy path, from the same state.
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = random_graph(rng, 40, 300, weighted=True)
        g = g.with_edge_weights(rng.random(g.edge_count).round(1) / 3)
        o = Ordering.from_vertex_at(rng.permutation(40))
        splits = make_split_points(g, o, k, 0.5)
        states = [_SwapState(g, o, splits, range(k - 1)) for _ in range(2)]
        for _ in range(12):
            a = int(rng.integers(0, k - 1))
            lo, mid, hi = (int(q) for q in splits.q[a:a + 3])
            u = int(states[0].vertex_at[rng.integers(lo, mid)])
            v = int(states[0].vertex_at[rng.integers(mid, hi)])
            got = []
            for state, short_rows in zip(states, (10**9, 0)):
                monkeypatch.setattr(refine, "_SHORT_ROWS", short_rows)
                got.append(state.swap(u, v, set(range(40))))
            assert got[0] == got[1]
            assert states[0].red.tobytes() == states[1].red.tobytes()
            assert states[0].vertex_at.tolist() == states[1].vertex_at.tolist()


def naive_part_swaps(g, o, splits):
    """Brute-force swap rule between the two parts of a k=2 chop.

    Every step recounts each reduction (weight to the other part minus
    weight to its own) from the partition; the first u in (-r, id) order
    with a weight-feasible gain > 0 swaps with its best v, ties to the v
    first in (-r, id) order. Returns (vertex_at, swaps).
    """
    n, q1 = g.n, int(splits.q[1])
    adj = np.zeros((n, n))
    adj[g.edge_u, g.edge_v] = adj[g.edge_v, g.edge_u] = g.edge_w
    vw = g.vertex_weights
    half = vw.sum() / 2
    slack, tol = window_slack(vw.sum(), 2, splits.alpha)
    vertex_at = o.vertex_at.copy()
    swaps = 0
    while True:
        side = np.zeros(n, dtype=bool)
        side[vertex_at[q1:]] = True
        cross = side[:, None] != side[None, :]
        red = (adj * cross).sum(axis=1) - (adj * ~cross).sum(axis=1)
        old = vw[vertex_at[:q1]].sum() - half

        def best_first(verts):
            return sorted(verts.tolist(), key=lambda x: (-red[x], x))

        chosen = None
        for u in best_first(vertex_at[:q1]):
            best_gain = 0.0
            for v in best_first(vertex_at[q1:]):
                gain = red[u] + red[v] - 2 * adj[u, v]
                new = old + vw[v] - vw[u]
                feasible = vw[u] == vw[v] or abs(new) <= slack + tol or abs(new) <= abs(old)
                if feasible and gain > best_gain:
                    best_gain, chosen = gain, (u, v)
            if chosen is not None:
                break
        if chosen is None:
            return vertex_at, swaps
        ru, rv = (int(np.flatnonzero(vertex_at == x)[0]) for x in chosen)
        vertex_at[ru], vertex_at[rv] = vertex_at[rv], vertex_at[ru]
        swaps += 1


def test_interval_pair_swaps_match_brute_force_rule():
    # Integer edge weights keep every reduction exact, so the live sorted
    # state must make the same choice as a full recount at every step.
    rng = np.random.default_rng(2024)
    for case in range(300):
        n = int(rng.integers(4, 18))
        iu, iv = np.triu_indices(n, k=1)
        pick = rng.random(len(iu)) < rng.uniform(0.1, 0.6)
        g = make_graph(
            list(zip(iu[pick].tolist(), iv[pick].tolist())), n=n,
            weights=rng.integers(0, 4, int(pick.sum())).astype(float),
            vertex_weights=rng.choice([1.0, 1.0, 2.0, 3.0], n),
        )
        o = Ordering.from_vertex_at(rng.permutation(n))
        alpha = (0.1, 0.5, 1.0)[case % 3]
        splits = make_split_points(g, o, 2, alpha)
        state = _SwapState(g, o, splits, range(1))
        q1 = int(splits.q[1])
        swaps = _swap_interval_pair(state, (0, q1), (q1, n))
        want_at, want_swaps = naive_part_swaps(g, o, splits)
        assert (state.vertex_at.tolist(), swaps) == (want_at.tolist(), want_swaps), case


def reference_swap_interval_pair(state, range_a, range_b):
    """The swap walk on two sorted key lists, kept as an oracle for the heap
    walk: every step walks the lists best-first from the top, and a swap
    re-keys every touched vertex ranked in either interval by bisection."""
    from bisect import bisect_left, insort

    (a0, a1), (b0, b1) = range_a, range_b
    if a0 >= a1 or b0 >= b1:
        return 0
    g, red, tol = state.g, state.red, state.gain_tol
    verts_a, verts_b = state.vertex_at[a0:a1], state.vertex_at[b0:b1]
    red_a, red_b = red[verts_a], red[verts_b]
    if red_a.max() + red_b.max() <= tol:
        return 0

    def sorted_keys(verts, r):
        order = np.lexsort((verts, -r))
        return list(zip((-r[order]).tolist(), verts[order].tolist()))

    keys_a, keys_b = sorted_keys(verts_a, red_a), sorted_keys(verts_b, red_b)
    cap = 1000 + 50 * (a1 - a0 + b1 - b0)
    swaps = 0
    while swaps < cap:
        chosen = None
        max_rv = -keys_b[0][0]
        for i, (neg_ru, u) in enumerate(keys_a):
            ru = -neg_ru
            if ru + max_rv <= tol:
                break
            best_gain = tol
            nbr, wt = g.neighbors(u)
            for j, (neg_rv, v) in enumerate(keys_b):
                rv = -neg_rv
                if ru + rv <= best_gain:
                    break
                pos = int(nbr.searchsorted(v))
                w_uv = wt.item(pos) if pos < len(nbr) and nbr[pos] == v else 0.0
                gain = ru + rv - 2.0 * w_uv
                if gain > best_gain and state.weight_feasible(u, v):
                    best_gain, chosen = gain, (i, u, j, v)
            if chosen is not None:
                break
        if chosen is None:
            break
        i, u, j, v = chosen
        changed = state.swap(u, v, set(range(g.n)))
        del keys_a[i], keys_b[j]
        insort(keys_a, (-red.item(v), v))
        insort(keys_b, (-red.item(u), u))
        for x, (r_old, r_new) in changed.items():
            rank = int(state.rank_of[x])
            keys = keys_a if a0 <= rank < a1 else keys_b if b0 <= rank < b1 else None
            if keys is not None:
                del keys[bisect_left(keys, (-r_old, x))]
                insort(keys, (-r_new, x))
        swaps += 1
    return swaps


def test_heap_walk_matches_sorted_list_walk(monkeypatch):
    # Float weights over twelve decades, zero-weight edges and unequal
    # vertex weights, so heads are often linked or may not swap and the
    # walk falls back to sorting the live keys.
    rng = np.random.default_rng(31)
    slow_steps = []
    best_step = refine._best_step
    monkeypatch.setattr(refine, "_best_step",
                        lambda *a: slow_steps.append(1) or best_step(*a))
    for case in range(400):
        n = int(rng.integers(4, 50))
        eu, ev = rng.integers(0, n, 4 * n), rng.integers(0, n, 4 * n)
        keep = eu != ev
        w = 10.0 ** rng.uniform(-6, 6, int(keep.sum()))
        w[rng.random(len(w)) < 0.1] = 0.0
        if case % 2:
            w = np.round(w) % 3  # heavy ties among reductions
        vw = rng.choice([1.0, 1.0, 2.0, 3.0], n) if case % 3 else np.ones(n)
        g = Graph.from_arcs(eu[keep], ev[keep], w, [str(i) for i in range(n)],
                            vertex_weights=vw)
        o = Ordering.from_vertex_at(rng.permutation(n))
        k = int(rng.integers(2, min(5, n) + 1))
        splits = make_split_points(g, o, k, float(rng.choice([0.0, 0.1, 1.0])))
        intervals = int(rng.integers(1, 4))
        for rnd in range(2):
            got = rank_swap_round(g, o, splits, rnd, intervals, case)
            with monkeypatch.context() as m:
                m.setattr(refine, "_swap_interval_pair", reference_swap_interval_pair)
                want = rank_swap_round(g, o, splits, rnd, intervals, case)
            assert got.vertex_at.tolist() == want.vertex_at.tolist(), (case, rnd)
            o = got
    assert len(slow_steps) > 50


@pytest.mark.parametrize("short_rows", [10**9, 0])
def test_swap_reports_watched_vertices_only(monkeypatch, short_rows):
    # swap reports the changed vertices of its watched set: a smaller set
    # gets the same values for its own vertices and leaves the reductions
    # bit for bit as with every vertex watched.
    monkeypatch.setattr(refine, "_SHORT_ROWS", short_rows)
    rng = np.random.default_rng(8)
    for _ in range(10):
        g = random_graph(rng, 40, 300, weighted=True)
        g = g.with_edge_weights(rng.random(g.edge_count).round(1) / 3)
        o = Ordering.from_vertex_at(rng.permutation(40))
        splits = make_split_points(g, o, 3, 0.5)
        states = [_SwapState(g, o, splits, range(2)) for _ in range(2)]
        watched = set(rng.choice(40, 15, replace=False).tolist())
        for _ in range(12):
            a = int(rng.integers(0, 2))
            lo, mid, hi = (int(q) for q in splits.q[a:a + 3])
            u = int(states[0].vertex_at[rng.integers(lo, mid)])
            v = int(states[0].vertex_at[rng.integers(mid, hi)])
            full = states[0].swap(u, v, set(range(40)))
            some = states[1].swap(u, v, watched)
            assert some == {x: c for x, c in full.items() if x in watched}
            assert states[0].red.tobytes() == states[1].red.tobytes()
