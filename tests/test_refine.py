"""MinLA median iteration and rank-swap tests."""

import threading
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from linepart import refine
from linepart.boundary import make_split_points, make_windows, window_slack
from linepart.graph import Graph, Partition, cut_weight
from linepart.ordering import Ordering
from linepart.synth import rmat
from linepart.refine import (
    _SwapRound,
    _matching,
    minla_objective,
    minla_refine,
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
        assert refine._MedianRound(g)(o) == expected


def test_round_tie_resolved_by_current_rank():
    # both leaves propose the center's rank; lower current rank goes first
    g = make_graph([(0, 1), (0, 2)])
    o = Ordering.from_rank_of(np.array([0, 2, 1]))  # leaves at ranks 2 and 1
    new = refine._MedianRound(g)(o)
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
    refine._MedianRound(g)(o).validate()


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
    hub_u, hub_v = np.concatenate([hub, ring]), np.concatenate([leaves, ring + 1])
    yield "hub", Graph([str(i) for i in range(1201)], np.ones(1201), hub_u, hub_v,
                       10.0 ** rng.uniform(-6, 6, 2399))
    # unit weights take the middle-arc shortcut; vertices 50..59 are isolated
    g = random_graph(rng, 50, 300)
    yield "unit", Graph([str(i) for i in range(60)], np.ones(60), g.edge_u, g.edge_v,
                        np.ones(g.edge_count))
    yield "unit hub", Graph([str(i) for i in range(1201)], np.ones(1201), hub_u, hub_v,
                            np.ones(2399))
    yield "unit parallel", Graph([str(i) for i in range(n)], np.ones(n), u, v, np.ones(len(u)))


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
            got = refine._MedianRound(g)(o)
            assert got.vertex_at.tobytes() == want.vertex_at.tobytes(), name
            o = want


def test_oracle_graphs_take_both_median_paths():
    unit = {name: g.unit_edge_weights for name, g in oracle_graphs()}
    assert sum(unit.values()) == 3 and len(unit) == 7


def test_round_rejects_a_graph_too_large_for_one_key(monkeypatch):
    g = dict(oracle_graphs())["hub"]
    monkeypatch.setattr(refine, "_KEY_BITS", one_source_bits(g))
    refine._MedianRound(g)(Ordering.identity(g.n))  # one source per sort still fits
    monkeypatch.setattr(refine, "_KEY_BITS", one_source_bits(g) - 1)
    with pytest.raises(ValueError, match="too large"):
        refine._MedianRound(g)(Ordering.identity(g.n))


@settings(max_examples=60)
@given(small_graph_and_order(weighted=True))
def test_round_matches_argsort_round_on_random_graphs(go):
    g, o = go
    assert refine._MedianRound(g)(o).vertex_at.tobytes() == argsort_round(g, o).vertex_at.tobytes()


@settings(max_examples=60)
@given(small_graph_and_order())
def test_unit_round_matches_argsort_round_on_random_graphs(go):
    g, o = go
    # make_graph merges parallel edges by summing their weights; reset them to 1
    g = Graph(g.external_ids, g.vertex_weights, g.edge_u, g.edge_v, np.ones(g.edge_count))
    assert refine._MedianRound(g)(o).vertex_at.tobytes() == argsort_round(g, o).vertex_at.tobytes()


def test_unit_objective_equals_the_float_formula():
    rng = np.random.default_rng(4)
    graphs = [rmat(13, 1 << 17, seed=2), dict(oracle_graphs())["unit parallel"], path_graph(9)]
    for g in graphs:
        assert g.unit_edge_weights
        for _ in range(3):
            o = Ordering.from_vertex_at(rng.permutation(g.n))
            r = o.rank_of
            float_sum = float((np.abs(r[g.edge_u] - r[g.edge_v]) * g.edge_w).sum())
            assert np.float64(minla_objective(g, o)).tobytes() == np.float64(float_sum).tobytes()


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


def assert_refine_peak_memory_within_six_arc_arrays(monkeypatch, g):
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


def test_refine_peak_memory_stays_within_six_arc_arrays(monkeypatch):
    assert_refine_peak_memory_within_six_arc_arrays(monkeypatch, rmat(13, 1 << 17, seed=1))


def test_weighted_refine_peak_memory_stays_within_six_arc_arrays(monkeypatch):
    g = rmat(13, 1 << 17, seed=1)
    g = g.with_edge_weights(np.random.default_rng(1).uniform(0.5, 2.0, g.edge_count))
    assert_refine_peak_memory_within_six_arc_arrays(monkeypatch, g)


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
    firsts, _ = _matching(k, intervals, round_index, seed)
    return [(a, a + 1) for a in firsts.tolist()]


def test_swap_plan_parity_examples():
    assert pairs_of(4, 2, 0, 1) == [(0, 1), (2, 3)]
    assert pairs_of(4, 2, 1, 1) == [(1, 2)]
    assert pairs_of(5, 1, 0, 1) == [(0, 1), (2, 3)]


def test_swap_plan_deterministic_and_validated():
    a = _matching(2, 3, 0, 42)
    b = _matching(2, 3, 0, 42)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    # pinned: partitions depend on this exact seeded matching
    firsts, perm = _matching(5, 3, 0, -7)
    assert firsts.tolist() == [0, 2]
    assert perm.tolist() == [[0, 2, 1], [1, 2, 0]]
    g = make_graph([(0, 3)], n=4)
    o = Ordering.from_vertex_at(np.array([2, 0, 3, 1]))
    splits = make_split_points(g, o, 2, 0.0)
    with pytest.raises(ValueError, match="interval count"):
        rank_swap_round(g, o, splits, 0, 0, 0)
    # a round with no pair of parts returns its input
    assert rank_swap_round(g, o, make_split_points(g, o, 1, 0.0), 0, 3, 0) is o
    assert rank_swap_round(g, o, splits, 1, 3, 0) is o


def test_swap_plan_each_interval_paired_once():
    firsts, perm = _matching(9, 4, 0, 7)
    assert perm.shape == (len(firsts), 4)
    for row in perm.tolist():
        assert sorted(row) == [0, 1, 2, 3]
    # one generator per round: the rows differ, and so do the rounds
    assert len({tuple(row) for row in perm.tolist()}) > 1
    assert not np.array_equal(perm, _matching(9, 4, 2, 7)[1])


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
    win = make_windows(g, o2, 2, 0.5)
    assert win.lo[0] <= splits.q[1] <= win.hi[0]


def test_swap_keeps_live_reductions_exact():
    # Integer weights keep every sum exact, so the live reductions must
    # equal a fresh recount after every step, including for neighbours
    # that movers share and for movers joined by an edge.
    rng = np.random.default_rng(4)
    steps = crowded = 0
    for case in range(30):
        g = random_graph(rng, 24, 90, weighted=True)
        o = Ordering.from_vertex_at(rng.permutation(24))
        k = 2 + case % 3
        splits = make_split_points(g, o, k, 0.5)
        for rnd in range(2 if k > 2 else 1):
            state = _SwapRound(g, o, splits, *_matching(k, 1 + case % 2, rnd, case))
            while moved := state.step():
                steps += 1
                crowded += moved > 1
                assert np.array_equal(state.red, state._initial_reductions())
                now = Ordering(state.vertex_at, state.rank_of)
                now.validate()
                assert np.array_equal(state.part_of,
                                      Partition.from_contiguous(now, splits, g).assignment)
            o = Ordering(state.vertex_at, state.rank_of)
    assert steps > 30 and crowded > 10


@st.composite
def swap_cases(draw):
    """A graph of at most 14 vertices, edge weights 0 or 1e-6..1e6, unit
    vertex weights or weights in {1, 2, 3}, a random order, k in {2, 3, n},
    alpha in {0, 0.05, 1}, and a round, an interval count and a seed."""
    n = draw(st.integers(min_value=2, max_value=14))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    edges = [e for e in pairs if e[0] != e[1]]
    weight = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e6))
    weights = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    unit = draw(st.booleans())
    vw = None if unit else draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=n, max_size=n))
    g = make_graph(edges, n=n, weights=weights, vertex_weights=vw)
    o = Ordering.from_vertex_at(np.array(draw(st.permutations(list(range(n)))), dtype=np.int64))
    k = draw(st.sampled_from(sorted({2, min(3, n), n})))
    alpha = draw(st.sampled_from([0.0, 0.05, 1.0]))
    return g, o, k, alpha, draw(st.integers(0, 3)), draw(st.integers(1, 4)), draw(st.integers(0, 9))


@settings(max_examples=300, deadline=None)
@given(swap_cases())
def test_swap_round_properties(case):
    # One round: a permutation that keeps each part's ranks, moves vertices
    # only within a part pair, never raises the cut by more than combine's
    # tolerance, and keeps every moved boundary in its window or no further
    # from its ideal weight.
    g, o, k, alpha, rnd, intervals, seed = case
    splits = make_split_points(g, o, k, alpha)
    o2 = rank_swap_round(g, o, splits, rnd, intervals, seed)
    o2.validate()
    before = Partition.from_contiguous(o, splits, g)
    after = Partition.from_contiguous(o2, splits, g)
    firsts, _ = _matching(k, intervals, rnd, seed)
    paired = np.arange(k)
    paired[firsts], paired[firsts + 1] = firsts + 1, firsts
    stays = after.assignment == before.assignment
    assert (stays | (after.assignment == paired[before.assignment])).all()
    cut0, cut1 = cut_weight(g, before)[0], cut_weight(g, after)[0]
    assert cut1 <= cut0 * (1 + 1e-12) + 1e-12
    total = g.total_vertex_weight
    slack, tol = window_slack(total, k, alpha)
    ideal = np.arange(k + 1) * total / k
    old = np.cumsum(np.r_[0.0, before.part_weights]) - ideal
    new = np.cumsum(np.r_[0.0, after.part_weights]) - ideal
    for j in np.flatnonzero(old != new).tolist():
        assert abs(new[j]) <= slack + tol or abs(new[j]) <= abs(old[j]) + 1e-9, (j, old, new)


def test_swap_steps_read_only_active_pairs(monkeypatch):
    # A step skips the interval pairs that no move touched, that gained
    # nothing, and whose boundary did not move; stepping every interval
    # pair each time must give the same rounds. Sparse graphs, unequal
    # vertex weights and a tight alpha make held-back pairs and moved
    # boundaries common.
    rng = np.random.default_rng(41)
    cases = []
    for case in range(150):
        n = int(rng.integers(20, 80))
        g = random_graph(rng, n, int(rng.integers(n // 2, 2 * n)), weighted=True)
        g = Graph(g.external_ids, rng.choice([1.0, 1.0, 2.0, 3.0], n), g.edge_u, g.edge_v, g.edge_w)
        o = Ordering.from_vertex_at(rng.permutation(n))
        k = int(rng.choice([2, 3, 5]))
        splits = make_split_points(g, o, k, float(rng.choice([0.0, 0.05, 0.2])))
        cases.append((g, o, splits, int(rng.integers(0, 2)), int(rng.integers(2, 7)), case))
    want = [rank_swap_round(*case).vertex_at.tolist() for case in cases]
    step = _SwapRound.step

    def step_all(self):
        self.active[:] = True
        return step(self)

    monkeypatch.setattr(_SwapRound, "step", step_all)
    assert [rank_swap_round(*case).vertex_at.tolist() for case in cases] == want


def test_swap_round_ends_at_its_cap_when_steps_are_mispriced(monkeypatch, caplog):
    # Live reductions set to 1 before every step price each swap as a gain
    # forever; the round must still end, at its swap cap, warn, and return
    # a permutation.
    g = path_graph(12)
    o = Ordering.identity(12)
    splits = make_split_points(g, o, 2, 0.0)
    step = _SwapRound.step

    def mispriced(self):
        self.red[:] = 1.0
        self.active[:] = True
        return step(self)

    monkeypatch.setattr(_SwapRound, "step", mispriced)
    with caplog.at_level("WARNING", logger="linepart.refine"):
        o2 = rank_swap_round(g, o, splits, 0, 1, 0)
    assert caplog.messages == ["swap round hit its swap cap (1600); float drift suspected"]
    o2.validate()


def reference_swap_round(g, o, splits, round_index, intervals, seed):
    """The batched swap rule in plain loops, kept as the oracle of
    ``rank_swap_round``: (vertex_at, swaps).

    Every step recounts each reduction from the partition, and prices every
    prefix and every part pair's joint set by the change in ``cut_weight``.
    """
    k, n = splits.k, g.n
    firsts, perm = _matching(k, intervals, round_index, seed)
    q = splits.q.tolist()
    vw, total = g.vertex_weights, g.total_vertex_weight
    slack, slack_tol = window_slack(total, k, splits.alpha)
    tol = 1e-12 * max(1.0, float(g.edge_w.max()) if g.edge_count else 1.0)
    adj = np.zeros((n, n))
    adj[g.edge_u, g.edge_v] = adj[g.edge_v, g.edge_u] = g.edge_w

    def cut(va):
        o2 = Ordering.from_vertex_at(va)
        return cut_weight(g, Partition.from_contiguous(o2, splits, g))[0]

    def swapped(va, pairs):
        va = va.copy()
        for x, y in pairs:
            i, j = int(np.flatnonzero(va == x)[0]), int(np.flatnonzero(va == y)[0])
            va[i], va[j] = y, x
        return va

    def feasible(va, a, shift):
        old = vw[va[:q[a + 1]]].sum() - (a + 1) * total / k
        new = abs(old + shift)
        return new <= slack + slack_tol or new <= abs(old)

    vertex_at, swaps = o.vertex_at.copy(), 0
    while True:
        base = cut(vertex_at)
        part = Partition.from_contiguous(Ordering.from_vertex_at(vertex_at), splits, g).assignment
        moves = []
        for p, a in enumerate(firsts.tolist()):

            def red(x):
                own, other = part[x], 2 * a + 1 - part[x]
                return adj[x, part == other].sum() - adj[x, part == own].sum()

            options = []
            for i in range(intervals):
                sides = []
                for b, j in ((a, i), (a + 1, int(perm[p, i]))):
                    size = q[b + 1] - q[b]
                    lo, hi = q[b] + j * size // intervals, q[b] + (j + 1) * size // intervals
                    sides.append(sorted(vertex_at[lo:hi].tolist(), key=lambda x: (-red(x), x)))
                pairs = []
                for x, y in zip(*sides):
                    if red(x) + red(y) <= tol:
                        break
                    pairs.append((x, y))
                best = None
                for length in range(1, len(pairs) + 1):
                    prefix = pairs[:length]
                    gain = base - cut(swapped(vertex_at, prefix))
                    shift = sum(vw[y] - vw[x] for x, y in prefix)
                    if feasible(vertex_at, a, shift) and (best is None or gain > best[0]):
                        best = (gain, prefix, shift)
                if best is not None and best[0] > tol:
                    options.append(best)
            if not options:
                continue
            together = [xy for _, prefix, _ in options for xy in prefix]
            joint = base - cut(swapped(vertex_at, together))
            if joint > tol and feasible(vertex_at, a, sum(shift for *_, shift in options)):
                moves += together
            else:  # max keeps the first of equal gains
                moves += max(options, key=lambda option: option[0])[1]
        if not moves:
            return vertex_at, swaps
        vertex_at = swapped(vertex_at, moves)
        swaps += len(moves)


def test_interval_pair_swaps_match_brute_force_rule():
    # Integer edge weights keep every reduction and price exact, so the
    # round must make the same choices as the plain-loop recount: with
    # whole parts as one interval pair at k = 2, then with several
    # interval pairs per part pair at k = 3 and 4.
    rng = np.random.default_rng(2024)
    joint = 0
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
        for k, intervals, rnd in ((2, 1, 0), (min(n, 3 + case % 2), 1 + case % 3, case % 2)):
            splits = make_split_points(g, o, k, alpha)
            state = _SwapRound(g, o, splits, *_matching(k, intervals, rnd, case))
            while moved := state.step():
                joint += moved > 1
            want_at, want_swaps = reference_swap_round(g, o, splits, rnd, intervals, case)
            got = (state.vertex_at.tolist(), state.swaps)
            assert got == (want_at.tolist(), want_swaps), (case, k, intervals)
            assert rank_swap_round(g, o, splits, rnd, intervals, case).vertex_at.tolist() == got[0]
    assert joint > 50
