"""Window optimizers, contraction, and dynamic-program tests."""

import itertools
import logging
from collections import Counter, namedtuple

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from linepart import boundary
from linepart.boundary import (
    SplitPoints,
    Windows,
    _stage_linopt,
    _StageEdges,
    apply_window_stage,
    contract_blocks,
    dp_partition,
    make_split_points,
    make_windows,
    mincut_window,
    window_slack,
)
from linepart.graph import Graph, Partition, check_balance, cut_weight
from linepart.maxflow import FlowNetwork
from linepart.ordering import Ordering

from conftest import make_graph, path_graph, random_graph, small_graph_and_order


# -- independent oracles ------------------------------------------------------


def naive_window_cost(g, o, lo, hi, left_window_vertices):
    """Cost of a window bipartition by scanning every graph edge."""
    left = set(int(v) for v in left_window_vertices)

    def side(v):
        r = o.rank_of[v]
        if r < lo:
            return "L"
        if r >= hi:
            return "R"
        return "L" if v in left else "R"

    total = 0.0
    for e in range(g.edge_count):
        u, v = int(g.edge_u[e]), int(g.edge_v[e])
        ru, rv = o.rank_of[u], o.rank_of[v]
        if (ru < lo or ru >= hi) and (rv < lo or rv >= hi):
            continue  # constant: no endpoint inside the window
        if side(u) != side(v):
            total += float(g.edge_w[e])
    return total


WindowRow = namedtuple("WindowRow", "index center lo hi")


def window_rows(windows):
    """A window table as a list of ``WindowRow``s of Python ints."""
    return [WindowRow(*row) for row in zip(*(a.tolist() for a in windows))]


def table(win):
    """The one-window table of the ``WindowRow`` ``win``."""
    return Windows._make(np.array([x], dtype=np.int64) for x in win)


def two_parts(g, win):
    """Split points of two parts around the one window ``win`` (boundary
    1): everything before the window is part 0 and everything after it
    part 1, so every edge with an end in the window is priced."""
    return np.array([0, win.center, g.n])


def window_edges(g, o, win, q):
    """One window's edge rows under the split points ``q``, gathered as a
    stage gathers them."""
    return _StageEdges(g, o, table(win), q)


def window_cut(edges, left_mask):
    """The stage evaluator's cut for one window and one mask."""
    return edges.cuts(left_mask)[0]


def linopt_split(g, o, win, q):
    """The split the stage's linear scan picks for the one window ``win``
    under the split points ``q``, after checking its mask is a prefix."""
    mask = _stage_linopt(window_edges(g, o, win, q))
    s = win.lo + int(mask.sum())
    assert mask.tolist() == [r < s for r in range(win.lo, win.hi)]
    return s


MincutSides = namedtuple("MincutSides", "cut split left right used_fallback")


def mincut_sides(g, o, win, q, **kwargs):
    """``mincut_window`` on the window under the split points ``q``: the
    cut and split of its mask, its left and right vertex lists (each in
    the ordering's relative order), and its fallback flag."""
    mask, used_fallback = mincut_window(g, o, table(win), q, **kwargs)
    members = o.vertex_at[win.lo : win.hi]
    return MincutSides(
        window_cut(window_edges(g, o, win, q), mask),
        win.lo + int(mask.sum()),
        members[mask].tolist(),
        members[~mask].tolist(),
        used_fallback,
    )


def naive_split_cost(g, o, win, s):
    members = [int(v) for v in o.vertex_at[win.lo : win.hi]]
    left = [v for v in members if o.rank_of[v] < s]
    return naive_window_cost(g, o, win.lo, win.hi, left)


def block_of_vertex(o, starts):
    """Each vertex's block: the b with starts[b] <= rank < starts[b + 1]."""
    block = np.empty(o.n, dtype=np.int64)
    for b in range(len(starts) - 1):
        for r in range(starts[b], starts[b + 1]):
            block[o.vertex_at[r]] = b
    return block


def naive_crossing_cost(g, block, i, j, m):
    """Weight of the graph edges between blocks [i, j] and blocks [j+1, m]."""
    total = 0.0
    for e in range(g.edge_count):
        a, b = sorted((int(block[g.edge_u[e]]), int(block[g.edge_v[e]])))
        if i <= a <= j < b <= m:
            total += float(g.edge_w[e])
    return total


def block_weight_prefix(g, block, b):
    """Vertex weight of blocks [0, i) for i = 0..b, summed vertex by vertex."""
    weights = [0.0] * b
    for v in range(g.n):
        weights[block[v]] += float(g.vertex_weights[v])
    return np.concatenate([[0.0], np.cumsum(weights)])


def part_bounds(g, k, alpha):
    """(lo, hi) part weights the alpha rule allows, with a 1e-9 relative slack."""
    target = float(sum(g.vertex_weights)) / k
    slack = 1e-9 * max(1.0, target)
    return (1 - alpha) * target - slack, (1 + alpha) * target + slack


def exhaustive_contiguous_cut(g, o, starts, k, alpha):
    """Best alpha-feasible contiguous k-composition of the blocks that
    ``starts`` cuts the ordering into (nonempty parts), by enumeration,
    priced on the graph's edges."""
    b = len(starts) - 1
    block = block_of_vertex(o, starts)
    wp = block_weight_prefix(g, block, b)
    lo_bound, hi_bound = part_bounds(g, k, alpha)
    best = np.inf
    for combo in itertools.combinations(range(1, b), k - 1):
        q = [0, *combo, b]
        ok = all(
            lo_bound <= wp[q[j + 1]] - wp[q[j]] <= hi_bound for j in range(k)
        )
        if not ok:
            continue
        part_of_block = np.repeat(np.arange(k), np.diff(q))
        part_of = part_of_block[block]
        value = float(g.edge_w[part_of[g.edge_u] != part_of[g.edge_v]].sum())
        best = min(best, value)
    return best


def reference_dp_value(g, o, starts, k, alpha):
    """Full one-part-at-a-time recursion (peel the first part, recurse)."""
    b = len(starts) - 1
    block = block_of_vertex(o, starts)
    wp = block_weight_prefix(g, block, b)
    lo_bound, hi_bound = part_bounds(g, k, alpha)
    base = np.full((b + 1, b + 1), np.inf)  # one part over blocks [i, e)
    for i in range(b + 1):
        for e in range(i + 1, b + 1):
            if lo_bound <= wp[e] - wp[i] <= hi_bound:
                base[i, e] = 0.0

    def crossing(i, mid, e):  # between block ranges [i, mid) and [mid, e)
        return naive_crossing_cost(g, block, i, mid - 1, e - 1)

    table = {1: base}
    for q in range(2, k + 1):
        prev = table[q - 1]
        cur = np.full((b + 1, b + 1), np.inf)
        for i in range(b + 1):
            for e in range(i, b + 1):
                best = np.inf
                for mid in range(i, e + 1):
                    val = base[i, mid] + prev[mid, e] + crossing(i, mid, e)
                    best = min(best, val)
                cur[i, e] = best
        table[q] = cur
    return float(table[k][0, b])


def zero_weight_graph(rng, n, m):
    """Random graph whose second half of vertices is isolated; edge weights
    are drawn from 0..3, so about a quarter of the edges weigh nothing."""
    eu = rng.integers(0, n // 2, m)
    ev = rng.integers(0, n // 2, m)
    keep = eu != ev
    w = rng.integers(0, 4, int(keep.sum())).astype(float)
    return Graph.from_arcs(eu[keep], ev[keep], w, [str(i) for i in range(n)])


def random_contracted(rng, b, max_edges=30, weighted=True):
    """A random graph on b vertices, the identity order, and its contraction
    to b one-vertex blocks."""
    g = random_graph(rng, b, int(rng.integers(0, max_edges)), weighted=weighted)
    o = Ordering.identity(b)
    return g, o, contract_blocks(g, o, b)


# -- split points and windows ---------------------------------------------------


def test_split_point_examples():
    g = make_graph([], n=10)
    assert make_split_points(g, Ordering.identity(10), 2, 0.0).q.tolist() == [0, 5, 10]
    # alpha = 0 leaves no rank within the slack of 7/3 and 14/3: each
    # boundary takes the nearest rank
    g7 = make_graph([], n=7)
    assert make_split_points(g7, Ordering.identity(7), 3, 0.0).q.tolist() == [0, 2, 5, 7]


def test_split_points_validation():
    g = make_graph([], n=3)
    with pytest.raises(ValueError, match="3 vertices into 5"):
        make_split_points(g, Ordering.identity(3), 5, 0.0)
    with pytest.raises(ValueError, match="3 vertices into 5"):
        make_windows(g, Ordering.identity(3), 5, 1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        SplitPoints(np.array([0, 2, 2, 3]), 0.0)


def test_half_width_formula_and_float_guard():
    def spans(n, k, alpha):
        g = make_graph([], n=n)
        wins = make_windows(g, Ordering.identity(n), k, alpha)
        return [(w.lo, w.center, w.hi) for w in window_rows(wins)]

    # exact slack of 5 ranks; the float product must not round it away
    assert spans(1000, 10, 0.1) == [(100 * j - 5, 100 * j, 100 * j + 5) for j in range(1, 10)]
    assert spans(1000, 2, 0.0) == [(500, 500, 500)]
    # fractional slack rounds down: half a vertex cannot move
    assert spans(300, 3, 0.07) == [(97, 100, 103), (197, 200, 203)]


def test_windows_disjoint_and_clipped():
    for n, k, alpha in [(30, 3, 0.1), (20, 4, 0.9), (50, 7, 0.5), (6, 3, 0.9)]:
        g = make_graph([], n=n)
        wins = window_rows(make_windows(g, Ordering.identity(n), k, alpha))
        assert len(wins) == k - 1
        for w in wins:
            assert 1 <= w.lo <= w.hi <= n - 1
        for a, b in zip(wins, wins[1:]):
            assert a.hi <= b.lo  # vertex ranges [lo, hi) do not overlap


def test_alpha_zero_windows_allow_no_movement():
    g = make_graph([], n=40)
    for w in window_rows(make_windows(g, Ordering.identity(40), 4, 0.0)):
        assert w.lo == w.hi == w.center


def test_windows_match_uniform_half_width():
    g = make_graph([], n=64)
    for k, alpha in [(4, 0.25), (8, 0.5), (2, 0.125)]:
        half = int(alpha * 64 / (2 * k))  # exact in binary for these cases
        for w in window_rows(make_windows(g, Ordering.identity(64), k, alpha)):
            assert w.lo == max(1, w.center - half) or w.lo > w.center - half
            assert w.hi - w.lo <= 2 * half


def test_weighted_windows_respect_weight_slack():
    # a dominant vertex leaves no rank within the weight slack: the window
    # degenerates to the balanced position and the boundary cannot move
    g = make_graph([], n=8, vertex_weights=[1, 1, 1, 1, 10, 1, 1, 1])
    (w,) = window_rows(make_windows(g, Ordering.identity(8), 2, 0.2))
    assert w.lo == w.hi == w.center == 4
    # with enough slack the window only spans ranks inside the weight band
    g2 = make_graph([], n=6, vertex_weights=[1, 1, 1, 1, 3, 1])
    (w2,) = window_rows(make_windows(g2, Ordering.identity(6), 2, 0.5))
    assert (w2.lo, w2.hi) == (3, 4)  # crossing the heavy vertex is out


def test_balanced_chop_is_the_window_centers():
    # alpha*n/2k < 1: the rank floor(2n/k) = 6 misses its window [7, 7]
    g = make_graph([], n=10)
    o = Ordering.identity(10)
    splits = make_split_points(g, o, 3, 0.3)
    assert splits.q.tolist() == [0, 3, 7, 10]
    for w in window_rows(make_windows(g, o, 3, 0.3)):
        assert w.lo <= splits.q[w.index] == w.center <= w.hi
    # weighted: the boundary follows prefix weight, not rank (floor(n/2) = 3)
    heavy = make_graph([], n=6, vertex_weights=[3, 3, 1, 1, 1, 1])
    assert make_split_points(heavy, Ordering.identity(6), 2, 0.5).q.tolist() == [0, 2, 6]


def test_degenerate_window_takes_the_nearest_rank():
    # the slack 0.5 around w(V)/2 = 5 holds no prefix weight (3, 6, 7, ...):
    # rank 2 (prefix 6, parts 6 and 4) is nearer than rank 1 (parts 3 and 7)
    g = make_graph([], n=6, vertex_weights=[3, 3, 1, 1, 1, 1])
    o = Ordering.identity(6)
    splits = make_split_points(g, o, 2, 0.2)
    assert splits.q.tolist() == [0, 2, 6]
    assert check_balance(g, Partition.from_contiguous(o, splits, g), 0.2).balanced
    (win,) = window_rows(make_windows(g, o, 2, 0.2))
    assert (win.lo, win.center, win.hi) == (2, 2, 2)
    # a tie goes to the lower rank: prefix weights 4 and 6 around 5
    tie = make_graph([], n=4, vertex_weights=[4, 2, 2, 2])
    assert make_split_points(tie, Ordering.identity(4), 2, 0.1).q.tolist() == [0, 1, 4]


def reference_windows(g, o, k, alpha):
    """make_windows as a loop over the boundaries, kept as the oracle of the
    array version: the same rule, one boundary at a time. Returns the
    ``WindowRow``s and the number of degenerate windows whose band holds
    more than one rank nearest the ideal (the lowest of them wins)."""
    n = g.n
    cw = np.concatenate([[0.0], np.cumsum(g.vertex_weights[o.vertex_at])])
    total = cw[-1]
    slack, tol = window_slack(total, k, alpha)
    ranks = [(j * n) // k for j in range(k + 1)]
    windows = []
    ties = 0
    for j in range(1, k):
        ideal = j * total / k
        band_lo = (ranks[j - 1] + ranks[j]) // 2 + 1 if j > 1 else 1
        band_hi = (ranks[j] + ranks[j + 1]) // 2 if j < k - 1 else n - 1
        anchor = int(np.searchsorted(cw, ideal + tol, side="right")) - 1
        lo = int(np.searchsorted(cw, ideal - slack - tol, side="left"))
        hi = int(np.searchsorted(cw, ideal + slack + tol, side="right")) - 1
        lo, hi = max(lo, band_lo), min(hi, band_hi)
        if lo > hi:
            near = np.abs(cw[band_lo : band_hi + 1] - ideal)
            lo = hi = band_lo + int(np.argmin(near))
            ties += int((near == near.min()).sum() > 1)
        windows.append(WindowRow(j, min(max(anchor, lo), hi), lo, hi))
    return windows, ties


def windows_against_loop(g, o, k, alpha, case):
    """Assert that make_windows equals ``reference_windows`` and holds
    int64 arrays (``case`` labels a failure); returns the number of
    degenerate windows and of ties among them."""
    got = make_windows(g, o, k, alpha)
    want, ties = reference_windows(g, o, k, alpha)
    assert window_rows(got) == want, (case, k, alpha)
    assert all(a.dtype == np.int64 for a in got)
    cw = np.concatenate([[0.0], np.cumsum(g.vertex_weights[o.vertex_at])])
    slack, tol = window_slack(cw[-1], k, alpha)
    degenerate = sum(abs(cw[w.lo] - w.index * cw[-1] / k) > slack + tol for w in want)
    return degenerate, ties


def test_windows_match_the_per_boundary_loop():
    # Random vertex weights over six decades, or a few heavy vertices that
    # leave degenerate windows; k in {1, 2, n} and a few in between. Then
    # weights over 26 decades, where light vertices leave the prefix
    # weight unchanged and two ranks of a band lie equally near the ideal.
    rng = np.random.default_rng(29)
    degenerate = ties = 0
    for case in range(400):
        n = int(rng.integers(1, 60))
        if case >= 300:
            vw = 10.0 ** rng.uniform(-20, 6, n)
        elif case % 3 == 0:
            vw = 10.0 ** rng.uniform(-3, 3, n)
        elif case % 3 == 1:
            vw = np.where(rng.random(n) < 0.15, rng.integers(5, 40, n), 1).astype(float)
        else:
            vw = rng.choice([1.0, 1.0, 2.0, 3.0], n)
        g = make_graph([], n=n, vertex_weights=vw)
        o = Ordering.from_vertex_at(rng.permutation(n))
        for k in sorted({1, min(2, n), n, int(rng.integers(1, n + 1))}):
            for alpha in (0.0, 0.03, 1.5):
                counts = windows_against_loop(g, o, k, alpha, case)
                degenerate += counts[0]
                ties += counts[1] if case >= 300 else 0
    assert degenerate > 100
    assert ties > 300
    # n near 16k at k = 64 and 1024: at alpha 0.03 and k = 1024 the half
    # slack is a quarter rank, and most windows degenerate
    n = 16_411
    degenerate = 0
    for case, vw in enumerate((np.ones(n), rng.choice([1.0, 1.0, 2.0, 3.0], n))):
        g = make_graph([], n=n, vertex_weights=vw)
        o = Ordering.from_vertex_at(rng.permutation(n))
        for k, alpha in itertools.product((64, 1024), (0.0, 0.03)):
            degenerate += windows_against_loop(g, o, k, alpha, ("large", case))[0]
    assert degenerate > 3000


@settings(max_examples=300, deadline=None)
@given(st.data(), st.booleans())
def test_balanced_chop_properties(data, vertex_weighted):
    g, o = data.draw(small_graph_and_order(max_n=12, vertex_weighted=vertex_weighted))
    n = g.n
    k = data.draw(st.sampled_from(sorted({1, min(2, n), n})))
    alpha = data.draw(st.sampled_from([0.0, 0.01, 0.3, 1.0, 1.5]))
    q = make_split_points(g, o, k, alpha).q
    wins = window_rows(make_windows(g, o, k, alpha))
    assert (np.diff(q) > 0).all()
    assert all(w.lo <= q[w.index] <= w.hi for w in wins)
    cw = np.concatenate([[0.0], np.cumsum(g.vertex_weights[o.vertex_at])])
    total = cw[-1]
    slack = alpha * total / (2 * k)
    if all(abs(cw[w.center] - w.index * total / k) <= slack for w in wins):
        part = Partition.from_contiguous(o, SplitPoints(q, alpha), g)
        assert check_balance(g, part, alpha).balanced
    if not vertex_weighted and alpha * n / (2 * k) >= 1:
        assert q.tolist() == [j * n // k for j in range(k + 1)]


# -- linear scan -----------------------------------------------------------------


def test_linopt_picks_zero_weight_gap():
    # two tight pairs with a weightless bridge between ranks 3 and 4
    g = make_graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)],
                   weights=[1, 1, 1, 0, 1, 1, 1])
    o = Ordering.identity(8)
    win = WindowRow(index=1, center=4, lo=2, hi=6)
    s = linopt_split(g, o, win, two_parts(g, win))
    assert s == 4
    assert naive_split_cost(g, o, win, s) == 0.0


def make_figure_instance():
    """Eight window vertices with the documented edge pattern; rank 0 is the
    before-block, rank 9 the after-block."""
    edges = [(1, 0), (1, 8), (2, 9), (2, 9), (3, 0), (3, 0), (3, 9),
             (4, 9), (5, 9), (5, 9), (6, 9), (7, 0)]
    g = make_graph(edges, n=10)
    o = Ordering.identity(10)
    win = WindowRow(index=1, center=5, lo=1, hi=9)
    return g, o, win


def test_linopt_figure_instance_cut_four():
    g, o, win = make_figure_instance()
    s = linopt_split(g, o, win, two_parts(g, win))
    assert naive_split_cost(g, o, win, s) == 4.0
    assert s == 2  # split right after window vertex 1


def test_linopt_matches_naive_evaluation():
    rng = np.random.default_rng(17)
    n = 14
    for case in range(60):
        if case < 40:
            g = random_graph(rng, n, int(rng.integers(5, 45)), weighted=True)
        else:  # windows holding isolated vertices and zero-weight edges
            g = zero_weight_graph(rng, n, int(rng.integers(5, 30)))
        o = Ordering.from_vertex_at(rng.permutation(n))
        lo = int(rng.integers(1, 6))
        hi = int(rng.integers(lo, 13))
        win = WindowRow(index=1, center=int(rng.integers(lo, hi + 1)), lo=lo, hi=hi)
        s = linopt_split(g, o, win, two_parts(g, win))
        values = {cand: naive_split_cost(g, o, win, cand) for cand in range(lo, hi + 1)}
        assert naive_split_cost(g, o, win, s) == pytest.approx(min(values.values()))
        # tie rule: nothing strictly better, and among minima s is closest
        # to the center (then smallest)
        best = min(values.values())
        ties = [c for c, v in values.items() if v == pytest.approx(best)]
        expect = min(ties, key=lambda c: (abs(c - win.center), c))
        assert s == expect


# -- window min cut ---------------------------------------------------------------


def test_mincut_figure_instance_cut_one():
    g, o, win = make_figure_instance()
    res = mincut_sides(g, o, win, two_parts(g, win))
    assert res.cut == 1.0
    assert sorted(res.left) == [1, 3, 7, 8]
    assert sorted(res.right) == [2, 4, 5, 6]
    assert res.split == win.lo + 4
    assert not res.used_fallback
    # stable within sides: previous relative order preserved
    assert res.left == [1, 3, 7, 8]
    assert res.right == [2, 4, 5, 6]


def test_mincut_no_edges_keeps_balanced_split_and_order():
    g = make_graph([], n=10)
    o = Ordering.identity(10)
    win = WindowRow(index=1, center=5, lo=2, hi=8)
    res = mincut_sides(g, o, win, two_parts(g, win))
    assert res.split == 5
    assert res.left + res.right == [2, 3, 4, 5, 6, 7]


def test_mincut_matches_exhaustive_bipartitions():
    rng = np.random.default_rng(5)
    n = 16
    for case in range(45):
        if case < 30:
            g = random_graph(rng, n, int(rng.integers(5, 50)), weighted=True)
        else:  # windows holding isolated vertices and zero-weight edges
            g = zero_weight_graph(rng, n, int(rng.integers(5, 30)))
        o = Ordering.from_vertex_at(rng.permutation(n))
        lo = int(rng.integers(1, 5))
        hi = lo + int(rng.integers(1, 11))
        win = WindowRow(index=1, center=(lo + hi) // 2, lo=lo, hi=hi)
        res = mincut_sides(g, o, win, two_parts(g, win))
        members = [int(v) for v in o.vertex_at[lo:hi]]
        best = min(
            naive_window_cost(g, o, lo, hi, [v for i, v in enumerate(members) if (bits >> i) & 1])
            for bits in range(1 << len(members))
        )
        assert res.cut == pytest.approx(best)
        assert naive_window_cost(g, o, lo, hi, res.left) == pytest.approx(best)


def test_mincut_dominates_linopt():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = 15
        g = random_graph(rng, n, int(rng.integers(5, 40)))
        o = Ordering.from_vertex_at(rng.permutation(n))
        win = WindowRow(index=1, center=7, lo=3, hi=11)
        res = mincut_sides(g, o, win, two_parts(g, win))
        s = linopt_split(g, o, win, two_parts(g, win))
        assert res.cut <= naive_split_cost(g, o, win, s) + 1e-9


def test_mincut_budget_falls_back_to_scan():
    g, o, win = make_figure_instance()
    # the exact cut needs one augmenting path; a budget of none falls back
    assert not mincut_sides(g, o, win, two_parts(g, win), max_augmentations=1).used_fallback
    res = mincut_sides(g, o, win, two_parts(g, win), max_augmentations=0)
    assert res.used_fallback
    assert res.cut == 4.0  # the order-respecting optimum
    assert (res.left, res.right, res.split) == ([1], [2, 3, 4, 5, 6, 7, 8], 2)


def test_mincut_rerun_is_stable():
    g, o, win = make_figure_instance()
    res = mincut_sides(g, o, win, two_parts(g, win))
    vertex_at = o.vertex_at.copy()
    vertex_at[win.lo : win.hi] = res.left + res.right
    o2 = Ordering.from_vertex_at(vertex_at)
    res2 = mincut_sides(g, o2, win, two_parts(g, win))
    assert res2.left + res2.right == res.left + res.right
    assert res2.split == res.split


# -- contraction ------------------------------------------------------------------


def test_contract_identity_reproduces_edges():
    # path 0-1-2-3: S[a][c] counts each edge once per orientation (u < a, v < c)
    g = path_graph(4)
    cg = contract_blocks(g, Ordering.identity(4), 4)
    assert cg.block_starts.tolist() == [0, 1, 2, 3, 4]
    assert cg.weight_prefix.tolist() == [0, 1, 2, 3, 4]
    assert cg.prefix.tolist() == [
        [0, 0, 0, 0, 0],
        [0, 0, 1, 1, 1],
        [0, 1, 2, 3, 3],
        [0, 1, 3, 4, 5],
        [0, 1, 3, 5, 6],
    ]


def test_contract_single_block():
    g = path_graph(4)
    cg = contract_blocks(g, Ordering.identity(4), 1)
    assert cg.block_count == 1
    assert cg.weight_prefix.tolist() == [0.0, 4.0]
    assert cg.prefix.tolist() == [[0.0, 0.0], [0.0, 0.0]]  # every edge is inside


def test_contract_block_sizes_near_equal():
    g = make_graph([], n=11)
    cg = contract_blocks(g, Ordering.identity(11), 4)
    sizes = np.diff(cg.block_starts)
    assert sizes.sum() == 11
    assert sizes.max() - sizes.min() <= 1


def test_contract_default_and_invalid_block_counts():
    for n in (7, boundary.DEFAULT_DP_BLOCKS + 5):
        cg = contract_blocks(path_graph(n), Ordering.identity(n))
        assert cg.block_count == min(n, boundary.DEFAULT_DP_BLOCKS)
    for bad in (0, -1, 8):
        with pytest.raises(ValueError, match=f"must be in \\[1, 7\\], got {bad}"):
            contract_blocks(path_graph(7), Ordering.identity(7), bad)


def test_contract_aggregates_cross_block_weight():
    rng = np.random.default_rng(2)
    base = random_graph(rng, 12, 30, weighted=True)
    vw = rng.uniform(0.5, 3.0, 12)
    g = Graph(base.external_ids, vw, base.edge_u, base.edge_v, base.edge_w)
    o = Ordering.from_vertex_at(rng.permutation(12))
    cg = contract_blocks(g, o, 3)
    assert cg.block_starts.tolist() == [0, 4, 8, 12]
    block = block_of_vertex(o, cg.block_starts)
    # S[a][c]: cross-block weight between blocks x < a and y < c, both ways
    expected = np.zeros((4, 4))
    for a, c in itertools.product(range(4), repeat=2):
        for e in range(g.edge_count):
            x, y = block[g.edge_u[e]], block[g.edge_v[e]]
            if x != y:
                hits = int(x < a and y < c) + int(y < a and x < c)
                expected[a, c] += hits * float(g.edge_w[e])
    assert cg.prefix == pytest.approx(expected)
    assert cg.weight_prefix == pytest.approx(block_weight_prefix(g, block, 3))
    assert cg.total_vertex_weight == pytest.approx(vw.sum())


# -- dynamic program ----------------------------------------------------------------


def test_dp_path_example():
    g = path_graph(4)
    cg = contract_blocks(g, Ordering.identity(4), 4)
    res = dp_partition(cg, 2, 0.0)
    assert res.feasible
    assert res.cut_value == 1.0
    assert res.split_ranks.tolist() == [0, 2, 4]


def test_dp_single_part_is_free():
    g = path_graph(5)
    cg = contract_blocks(g, Ordering.identity(5), 5)
    res = dp_partition(cg, 1, 0.0)
    assert res.feasible and res.cut_value == 0.0


def test_dp_infeasible_is_explicit():
    g = path_graph(3)
    cg = contract_blocks(g, Ordering.identity(3), 3)
    res = dp_partition(cg, 2, 0.0)  # 3 unit vertices cannot split 1.5/1.5
    assert not res.feasible
    assert res.split_ranks is None


def test_dp_parts_are_nonempty_and_balanced():
    # from alpha = 1 on, the weight bounds admit an empty range; only the
    # nonempty rule then keeps k parts apart
    rng = np.random.default_rng(14)
    g, o, cg = random_contracted(rng, 7)
    for alpha in (0.25, 1.0, 1.5):
        res = dp_partition(cg, 3, alpha)
        best = exhaustive_contiguous_cut(g, o, cg.block_starts, 3, alpha)
        assert res.feasible == np.isfinite(best)
        if res.feasible:
            lo, hi = part_bounds(g, 3, alpha)
            sizes = np.diff(res.split_ranks)  # unit weights: size is weight
            assert ((sizes > 0) & (sizes >= lo) & (sizes <= hi)).all()
            assert res.cut_value == pytest.approx(best)
    assert not dp_partition(cg, 3, 0.25).feasible  # 7 unit vertices, parts of 2
    assert dp_partition(cg, 7, 1.5).split_ranks.tolist() == list(range(8))
    assert not dp_partition(cg, 8, 1.5).feasible


@pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0, 1.5])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_dp_matches_exhaustive(alpha, k):
    rng = np.random.default_rng(100 * k + int(alpha * 4))
    for _ in range(15):
        g, o, cg = random_contracted(rng, int(rng.integers(max(k, 4), 13)))
        res = dp_partition(cg, k, alpha)
        best = exhaustive_contiguous_cut(g, o, cg.block_starts, k, alpha)
        if not res.feasible:
            assert best == np.inf
        else:
            assert res.cut_value == pytest.approx(best)


def test_dp_chain_equals_full_recursion():
    rng = np.random.default_rng(77)
    for _ in range(12):
        b = int(rng.integers(4, 10))
        g, o, cg = random_contracted(rng, b)
        k = int(rng.integers(2, 6))
        alpha = float(rng.choice([0.0, 0.25, 0.6]))
        chain = dp_partition(cg, k, alpha)
        full = reference_dp_value(g, o, cg.block_starts, k, alpha)
        if not chain.feasible:
            assert np.isinf(full)
        else:
            assert chain.cut_value == pytest.approx(full)


def test_dp_value_matches_reconstructed_partition():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = 12
        g = random_graph(rng, n, 26, weighted=True)
        o = Ordering.from_vertex_at(rng.permutation(n))
        cg = contract_blocks(g, o, n)
        res = dp_partition(cg, 3, 0.25)
        if not res.feasible:
            continue
        splits = res.split_points(0.25)
        p = Partition.from_contiguous(o, splits, g)
        assert cut_weight(g, p)[0] == pytest.approx(res.cut_value)
        assert check_balance(g, p, 0.25).balanced


def test_dp_below_one_block_per_vertex():
    # k and alpha drawn as in criterion 1, over b < n blocks of a random order
    rng = np.random.default_rng(31)
    feasible = 0
    for _ in range(80):
        n = int(rng.integers(5, 17))
        g = random_graph(rng, n, int(rng.integers(n, 3 * n)), weighted=True)
        o = Ordering.from_vertex_at(rng.permutation(n))
        k = int(rng.choice([2, 3, 4]))
        alpha = float(rng.choice([0.0, 0.25]))
        b = int(rng.integers(k, n))
        cg = contract_blocks(g, o, b)
        sizes = np.diff(cg.block_starts)
        assert cg.block_starts[0] == 0 and sizes.sum() == n
        assert sizes.min() >= 1 and sizes.max() - sizes.min() <= 1
        res = dp_partition(cg, k, alpha)
        best = exhaustive_contiguous_cut(g, o, cg.block_starts, k, alpha)
        if not res.feasible:
            assert np.isinf(best), (n, b, k, alpha)
            continue
        feasible += 1
        assert set(res.split_ranks.tolist()) <= set(cg.block_starts.tolist())
        p = Partition.from_contiguous(o, res.split_points(alpha), g)
        assert cut_weight(g, p)[0] == pytest.approx(res.cut_value)
        assert check_balance(g, p, alpha).balanced
        assert res.cut_value == pytest.approx(best)
    assert feasible >= 20, feasible


def test_dp_large_k_matches_full_recursion():
    rng = np.random.default_rng(15)
    g, o, cg = random_contracted(rng, 10)
    for k in (2, 3, 5, 7, 11, 23, 40):
        res = dp_partition(cg, k, 1.0)
        full = reference_dp_value(g, o, cg.block_starts, k, 1.0)
        if k > cg.block_count:  # k nonempty parts need k blocks
            assert not res.feasible
        if not res.feasible:
            assert np.isinf(full)
        else:
            assert res.cut_value == pytest.approx(full)
            assert (np.diff(res.split_ranks) > 0).all()


# -- window stage plumbing -----------------------------------------------------------


def test_apply_window_stage_monotone_and_balanced():
    rng = np.random.default_rng(19)
    for method in ("linopt", "mincut"):
        for _ in range(10):
            n = 40
            g = random_graph(rng, n, 120)
            o = Ordering.from_vertex_at(rng.permutation(n))
            splits = make_split_points(g, o, 4, 0.2)
            before = cut_weight(g, Partition.from_contiguous(o, splits, g))[0]
            o2, s2, diag = apply_window_stage(g, o, splits, method)
            after = cut_weight(g, Partition.from_contiguous(o2, s2, g))[0]
            assert after <= before + 1e-9
            assert len(diag) == 3
            sizes = np.diff(s2.q)
            assert sizes.sum() == n and (sizes > 0).all()


@st.composite
def window_stage_case(draw, alphas=(0.0, 0.1, 1.0)):
    """(graph, ordering, splits, unit vertex weights?) for one stage: up to
    25 vertices, some of them isolated, edge weights from six decades below
    to six above 1 (and 0), k in {1, 2, n}, alpha from ``alphas``, and
    splits at the balanced chop, anywhere in their windows, or anywhere at
    all."""
    n = draw(st.integers(1, 25))
    active = draw(st.integers(1, n))  # vertices active..n-1 are isolated
    pairs = st.tuples(st.integers(0, active - 1), st.integers(0, active - 1))
    m = draw(st.integers(0, 3 * n))
    edges = [e for e in draw(st.lists(pairs, min_size=m, max_size=m)) if e[0] != e[1]]
    weights = draw(st.lists(st.sampled_from([0.0, 1e-6, 1.0, 2.5, 1e6]),
                            min_size=len(edges), max_size=len(edges)))
    unit = draw(st.booleans())
    vw = None if unit else draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=n, max_size=n))
    g = make_graph(edges, n=n, weights=weights, vertex_weights=vw)
    o = Ordering.from_vertex_at(np.array(draw(st.permutations(range(n))), dtype=np.int64))
    k = draw(st.sampled_from(sorted({1, min(2, n), n})))
    alpha = draw(st.sampled_from(alphas))
    q = make_split_points(g, o, k, alpha).q
    how = draw(st.sampled_from(["chop", "in window", "anywhere"])) if k > 1 else "chop"
    if how == "in window":
        inner = [draw(st.integers(w.lo, w.hi)) for w in window_rows(make_windows(g, o, k, alpha))]
    elif how == "anywhere":
        inner = sorted(draw(st.sets(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1)))
    if how != "chop" and (np.diff([0, *inner, n]) > 0).all():
        q = np.array([0, *inner, n])
    return g, o, SplitPoints(q, alpha), unit


@settings(max_examples=300, deadline=None)
@given(window_stage_case(), st.sampled_from(["mincut", "linopt"]))
def test_window_stage_properties(case, method):
    g, o, splits, unit = case
    windows = window_rows(make_windows(g, o, splits.k, splits.alpha))
    o2, s2, rows = apply_window_stage(g, o, splits, method)
    o2.validate()
    assert s2.q[0] == 0 and s2.q[-1] == g.n and (np.diff(s2.q) > 0).all()
    # a window changes its split or its order only if it lowers its cut
    for index, old, new, moved in rows:
        assert new <= old
        assert (moved > 0 or s2.q[index] != splits.q[index]) == (new < old)
    inside = np.zeros(g.n, dtype=bool)
    for w in windows:
        inside[w.lo : w.hi] = True
        was, now = splits.q[w.index], s2.q[w.index]
        if w.lo <= was <= w.hi:
            assert w.lo <= now <= w.hi
        else:
            assert now == was
    # ranks outside every window keep their vertices
    assert (o2.vertex_at[~inside] == o.vertex_at[~inside]).all()
    if unit and check_balance(g, Partition.from_contiguous(o, splits, g), splits.alpha).balanced:
        assert check_balance(g, Partition.from_contiguous(o2, s2, g), splits.alpha).balanced


def test_window_stage_ignores_edges_to_parts_not_beside_the_boundary():
    # k = 3 on 30 vertices in identity order: windows [7, 13] and [17, 23]
    # around splits 10 and 20. Vertex 19 (part 1) has a heavy edge to vertex
    # 2 in part 0, which is cut whichever side 19 takes, a light edge to 18
    # inside the window and an edge to 25 in part 2. Priced as an edge
    # before the window, as both solvers once did, the heavy edge keeps 19
    # on the left and the window where it is.
    g = make_graph([(19, 2), (19, 18), (19, 25)], n=30, weights=[10, 1, 3])
    o = Ordering.identity(30)
    splits = make_split_points(g, o, 3, 0.6)
    win = WindowRow(index=2, center=20, lo=17, hi=23)
    old = WindowRow(index=1, center=20, lo=17, hi=23)  # everything before is part 0
    assert linopt_split(g, o, old, two_parts(g, old)) == 20
    assert mincut_sides(g, o, old, two_parts(g, old)).left == [17, 18, 19]
    # Only the edges to parts 1 and 2 count: 18 and 19 move right together
    # and the window's cut falls from 3 to 0.
    assert linopt_split(g, o, win, splits.q) == 18
    assert mincut_sides(g, o, win, splits.q)[:3] == (0.0, 20, [17, 20, 21])
    for method in ("linopt", "mincut"):
        o2, s2, diag = apply_window_stage(g, o, splits, method)
        assert [row[:3] for row in diag] == [(1, 0.0, 0.0), (2, 3.0, 0.0)]
        assert cut_weight(g, Partition.from_contiguous(o2, s2, g))[0] == 10.0


def test_window_stage_leaves_splits_outside_their_windows_alone():
    # the dp puts the splits of a path at the lowest balanced ranks, 4 and
    # 14, outside the windows [7, 13] and [17, 23]
    g = path_graph(30)
    o = Ordering.identity(30)
    splits = dp_partition(contract_blocks(g, o, 30), 3, 0.6).split_points(0.6)
    assert splits.q.tolist() == [0, 4, 14, 30]
    wins = window_rows(make_windows(g, o, 3, 0.6))
    assert [(w.lo, w.hi) for w in wins] == [(7, 13), (17, 23)]
    for method in ("linopt", "mincut"):
        o2, s2, diag = apply_window_stage(g, o, splits, method)
        assert np.array_equal(o2.vertex_at, o.vertex_at)
        assert s2.q.tolist() == [0, 4, 14, 30]
        assert diag == []
    # split 1 lies outside [7, 13]: windows 1 and 2 are left alone, and
    # only window 3, whose neighbours are placed, runs
    rng = np.random.default_rng(4)
    g = random_graph(rng, 40, 110)
    o = Ordering.from_vertex_at(rng.permutation(40))
    wins = make_windows(g, o, 4, 0.6)
    assert [(w.lo, w.hi) for w in window_rows(wins)] == [(7, 13), (17, 23), (27, 33)]
    mixed = SplitPoints(np.array([0, 4, 20, 30, 40]), 0.6)
    for method in ("linopt", "mincut"):
        o2, s2, diag = apply_window_stage(g, o, mixed, method)
        assert [row[0] for row in diag] == [3]
        assert np.array_equal(o2.vertex_at[:27], o.vertex_at[:27])
        assert s2.q[:3].tolist() == [0, 4, 20]
        assert check_balance(g, Partition.from_contiguous(o2, s2, g), 0.6).balanced
    # split 1 lies outside [3, 9] and split 2 inside [10, 15]: moving split
    # 2 down, off the heavy edge (10, 11), would cross split 1
    g = make_graph([(i, i + 1) for i in range(23)], n=24,
                   weights=[100.0 if i == 10 else 1.0 for i in range(23)])
    o = Ordering.identity(24)
    displaced = SplitPoints(np.array([0, 10, 11, 18, 24]), 1.0)
    wins = make_windows(g, o, 4, 1.0)
    assert [(w.lo, w.hi) for w in window_rows(wins)] == [(3, 9), (10, 15), (16, 21)]
    for method in ("linopt", "mincut"):
        o2, s2, diag = apply_window_stage(g, o, displaced, method)
        assert [row[0] for row in diag] == [3]
        assert s2.q[:3].tolist() == [0, 10, 11]


def test_window_stage_gathers_each_window_once(monkeypatch):
    gathered = []

    class CountingStageEdges(_StageEdges):
        def __init__(self, g, o, windows, q):
            gathered.append(windows.index.tolist())
            super().__init__(g, o, windows, q)

    monkeypatch.setattr(boundary, "_StageEdges", CountingStageEdges)
    rng = np.random.default_rng(8)
    g = random_graph(rng, 40, 120)
    o = Ordering.from_vertex_at(rng.permutation(40))
    splits = make_split_points(g, o, 5, 0.3)
    for method in ("linopt", "mincut"):
        gathered.clear()
        _, _, diag = apply_window_stage(g, o, splits, method)
        assert gathered == [[1, 2, 3, 4]]
        assert [row[0] for row in diag] == [1, 2, 3, 4]


# -- the window stage against its per-window loop ------------------------------


def reference_window_edges(g, o, win, q):
    """Per-window gather, one adjacency slot at a time: (row, rank, w) of
    every edge with an end in the window and the other end in one of the
    two parts beside boundary win.index, ranks [q[index-1], q[index+1]);
    an inner edge once, at its lower-ranked end."""
    first, end = q[win.index - 1], q[win.index + 1]
    rows = []
    for row, v in enumerate(o.vertex_at[win.lo : win.hi].tolist()):
        for slot in range(g.adj_indptr[v], g.adj_indptr[v + 1]):
            r = int(o.rank_of[g.adj_indices[slot]])
            if first <= r < end and not win.lo <= r <= win.lo + row:
                rows.append((row, r, float(g.adj_weights[slot])))
    return (np.array([x[0] for x in rows], dtype=np.int64),
            np.array([x[1] for x in rows], dtype=np.int64),
            np.array([x[2] for x in rows], dtype=np.float64))


def in_row_order(values):
    """The sum of ``values`` added one by one, as ``np.bincount`` adds."""
    total = 0.0
    for x in values.tolist():
        total += x
    return total


def reference_window_cut(edges, win, left_mask):
    """One window's cut: a row's other end is left before the window,
    right after it, and on its mask side inside it."""
    row, rank, w = edges
    inside = (rank >= win.lo) & (rank < win.hi)
    there = rank < win.lo
    there[inside] = left_mask[rank[inside] - win.lo]
    return in_row_order(w[left_mask[row] != there])


def reference_linopt_mask(edges, win):
    """One window's cheapest order-respecting split by its own prefix scan:
    the objective at every candidate split is the edges to the before-block
    plus a running sum of per-vertex changes, and the first of a lexsort by
    (cost, distance to the center, split) wins."""
    row, rank, w = edges
    lo, hi = win.lo, win.hi
    ahead = rank >= lo
    inner = ahead & (rank < hi)
    delta = np.bincount(row, np.where(ahead, w, -w), hi - lo)
    delta -= np.bincount(rank[inner] - lo, w[inner], hi - lo)
    c = np.concatenate([[0.0], np.cumsum(delta)]) + in_row_order(w[~ahead])
    s = np.arange(lo, hi + 1)
    pick = int(np.lexsort((s, np.abs(s - win.center), c))[0])
    return np.arange(hi - lo) < pick


def reference_mincut_mask(edges, win):
    """One window's minimum cut over its own network, budget
    ``boundary._flow_budget``, falling back to ``reference_linopt_mask``."""
    lo, hi = win.lo, win.hi
    nw = hi - lo
    if nw == 0:
        return np.zeros(0, dtype=bool)
    row, rank, w = edges
    before, after = rank < lo, rank >= hi
    inner = ~before & ~after
    src_cap = np.bincount(row[before], w[before], nw)
    snk_cap = np.bincount(row[after], w[after], nw)
    incident = np.bincount(row, w, nw) + np.bincount(rank[inner] - lo, w[inner], nw)
    s, t = nw, nw + 1
    src = np.flatnonzero(src_cap > 0)
    snk = np.flatnonzero(snk_cap > 0)
    both = inner & (w > 0)
    owner = np.concatenate([src, snk, row[both]])
    tail = np.concatenate([np.full(len(src), s), snk, row[both]])
    head = np.concatenate([src, np.full(len(snk), t), rank[both] - lo])
    cap = np.concatenate([src_cap[src], snk_cap[snk], w[both]])
    cap_rev = np.concatenate([np.zeros(len(src) + len(snk)), w[both]])
    arcs = np.argsort(owner, kind="stable")
    net = FlowNetwork(nw + 2, *(a[arcs] for a in (tail, head, cap, cap_rev)))
    _, exceeded = net.max_flow(s, t, boundary._flow_budget(nw))
    if exceeded:
        return reference_linopt_mask(edges, win)
    reach = np.array(net.level[:nw]) >= 0
    free = incident <= 0.0
    left_mask = reach & ~free
    need = int(np.clip(win.center - lo - int(left_mask.sum()), 0, int(free.sum())))
    if need:
        left_mask[np.flatnonzero(free)[:need]] = True
    return left_mask


def reference_window_stage(g, o, splits, method):
    """The window stage as a loop that gathers, solves and prices one
    window at a time."""
    optimize = reference_linopt_mask if method == "linopt" else reference_mincut_mask
    windows = window_rows(make_windows(g, o, splits.k, splits.alpha))
    if not windows:
        return o, splits, []
    tol = 1e-12 * max(1.0, g.total_edge_weight)
    new_q = splits.q.copy()
    vertex_at = o.vertex_at.copy()
    diagnostics = []
    placed = [True, *(w.lo <= splits.q[w.index] <= w.hi for w in windows), True]
    for win in windows:
        j = win.index
        if not (placed[j - 1] and placed[j] and placed[j + 1]):
            continue
        edges = reference_window_edges(g, o, win, splits.q)
        new_mask = optimize(edges, win)
        old_mask = np.arange(win.lo, win.hi) < splits.q[win.index]
        old_value = reference_window_cut(edges, win, old_mask)
        new_value = reference_window_cut(edges, win, new_mask)
        accepted = new_value < old_value - tol
        moved = 0
        if accepted:
            members = o.vertex_at[win.lo : win.hi]
            new_order = np.concatenate([members[new_mask], members[~new_mask]])
            new_q[win.index] = win.lo + int(new_mask.sum())
            moved = int(np.count_nonzero(members != new_order))
            vertex_at[win.lo : win.hi] = new_order
        diagnostics.append(
            (win.index, old_value, new_value if accepted else old_value, moved)
        )
    return Ordering.from_vertex_at(vertex_at), SplitPoints(new_q, splits.alpha), diagnostics


def stage_oracle_cases():
    """(graph, ordering, split points) on small graphs with log-uniform
    weights, zero-weight edges and isolated vertices."""
    rng = np.random.default_rng(23)
    sizes, parts, alphas = (12, 30, 61, 200), (2, 5, "n"), (0.0, 0.05, 1.0)
    for n, k, alpha, _ in itertools.product(sizes, parts, alphas, range(3)):
        g = zero_weight_graph(rng, n, 3 * n)
        w = np.where(g.edge_w > 0, 10.0 ** rng.uniform(-6, 6, g.edge_count), 0.0)
        g = g.with_edge_weights(w)
        o = Ordering.from_vertex_at(rng.permutation(n))
        yield g, o, make_split_points(g, o, n if k == "n" else k, alpha)
    # a band graph whose weights grow from 1e-9 at low ids to 1e6: each
    # window's flow epsilon follows its own capacities, not the graph's
    n = 120
    u = np.repeat(np.arange(n - 1), 4)
    v = np.minimum(u + rng.integers(1, 6, len(u)), n - 1)
    keep = u != v
    u, v = u[keep], v[keep]
    w = 10.0 ** (-9 + 15 * u / n) * rng.uniform(0.5, 1.5, len(u))
    g = Graph.from_arcs(u, v, w, [str(i) for i in range(n)])
    o = Ordering.from_vertex_at(np.argsort(np.arange(n) + rng.uniform(0, 12, n)))
    yield g, o, make_split_points(g, o, 6, 1.0)
    # split 2 displaced off its window: windows 1..3 are skipped
    g = random_graph(rng, 60, 200, weighted=True)
    g = g.with_edge_weights(10.0 ** rng.uniform(-6, 6, g.edge_count))
    o = Ordering.from_vertex_at(rng.permutation(60))
    splits = make_split_points(g, o, 6, 0.3)
    q = splits.q.copy()
    q[2] = make_windows(g, o, 6, 0.3).hi[1] + 2
    yield g, o, SplitPoints(q, 0.3)


def assert_same_stage(got, want):
    (o1, s1, d1), (o2, s2, d2) = got, want
    assert o1.vertex_at.tobytes() == o2.vertex_at.tobytes()
    assert s1.q.tobytes() == s2.q.tobytes()
    assert repr(d1) == repr(d2)


@pytest.mark.parametrize("method", ["linopt", "mincut"])
def test_window_stage_matches_per_window_loop(method):
    skipped = 0
    for g, o, splits in stage_oracle_cases():
        got = apply_window_stage(g, o, splits, method)
        assert_same_stage(got, reference_window_stage(g, o, splits, method))
        skipped += len(got[2]) < splits.k - 1
    assert skipped  # the displaced case ran the skip rule


def test_window_stage_matches_per_window_loop_on_flow_fallback(monkeypatch, caplog):
    # a budget of one augmenting path: windows whose cut needs more fall back
    monkeypatch.setattr(boundary, "_flow_budget", lambda size: 1)
    fallbacks = 0
    for g, o, splits in stage_oracle_cases():
        caplog.clear()
        with caplog.at_level("WARNING", logger="linepart.boundary"):
            got = apply_window_stage(g, o, splits, "mincut")
        assert_same_stage(got, reference_window_stage(g, o, splits, "mincut"))
        fallbacks += sum("linear-scan fallback" in m for m in caplog.messages)
    assert fallbacks


def stage_summary(caplog):
    """The one INFO record of a window stage, as a dict of its counts."""
    records = [r for r in caplog.records if r.name == "linepart.boundary" and r.levelno == logging.INFO]
    assert len(records) == 1
    fields = records[0].getMessage().split("\t")
    assert fields[0] == "window stage"
    return fields[1], {key: int(value) for key, value in zip(fields[2::2], fields[3::2])}


@pytest.mark.parametrize("method, budget", [("linopt", None), ("mincut", None), ("mincut", 1)])
def test_window_stage_logs_one_summary_line(method, budget, monkeypatch, caplog):
    if budget is not None:
        monkeypatch.setattr(boundary, "_flow_budget", lambda size: budget)
    optimize = reference_linopt_mask if method == "linopt" else reference_mincut_mask
    # a path at its balanced chop: every split cuts one edge, so linopt's
    # best split only ties each current one, and both windows are rejected
    path = path_graph(30)
    cases = [*stage_oracle_cases(), (path, Ordering.identity(30),
                                     make_split_points(path, Ordering.identity(30), 3, 0.6))]
    totals = Counter()
    for g, o, splits in cases:
        caplog.clear()
        with caplog.at_level("INFO", logger="linepart.boundary"):
            o2, s2, rows = apply_window_stage(g, o, splits, method)
        name, counts = stage_summary(caplog)
        windows = window_rows(make_windows(g, o, splits.k, splits.alpha))
        tol = 1e-12 * max(1.0, g.total_edge_weight)
        want = Counter(skipped=len(windows) - len(rows), moved=sum(row[3] for row in rows))
        for index, old, _, moved in rows:
            win = windows[index - 1]
            edges = reference_window_edges(g, o, win, splits.q)
            new = reference_window_cut(edges, win, optimize(edges, win))
            if not (edges[2] > 0).any():  # idle: every side choice cuts 0
                assert (old, new, moved) == (0.0, 0.0, 0)
                want["idle"] += 1
                continue
            want["ran"] += 1
            if new < old - tol:
                assert moved or s2.q[index] != splits.q[index]
                want["changed"] += 1
            else:
                want["rejected"] += 1
        want["fallbacks"] = sum("linear-scan fallback" in m for m in caplog.messages)
        assert name == method
        assert counts == {key: want[key] for key in counts}
        assert set(counts) == {"ran", "skipped", "idle", "changed", "rejected", "moved",
                               "fallbacks"}
        totals.update(counts)
    if method == "linopt":  # the path, last
        assert (counts["changed"], counts["rejected"]) == (0, 2)
    assert totals["skipped"] and totals["idle"] and totals["changed"] and totals["rejected"]
    assert totals["fallbacks"] if budget else not totals["fallbacks"]


def test_idle_windows_get_no_max_flow_call(monkeypatch, caplog):
    # a window whose kept rows all weigh 0 is solved without a flow: one
    # max_flow call per window that ran, and the stage's output unchanged
    calls = []
    real = FlowNetwork.max_flow

    def counted(self, s, t, *args):
        calls.append(s)
        return real(self, s, t, *args)

    monkeypatch.setattr(FlowNetwork, "max_flow", counted)
    idle = 0
    for g, o, splits in stage_oracle_cases():
        calls.clear()
        caplog.clear()
        with caplog.at_level("INFO", logger="linepart.boundary"):
            got = apply_window_stage(g, o, splits, "mincut")
        _, counts = stage_summary(caplog)
        assert len(calls) == counts["ran"]
        assert_same_stage(got, reference_window_stage(g, o, splits, "mincut"))
        idle += counts["idle"]
    assert idle


def test_frozen_local_cut_matches_direct_count():
    # the evaluator must agree with a direct classification of the edges
    # inside the two parts beside the boundary
    rng = np.random.default_rng(31)
    n = 24
    cases = []
    for _ in range(20):
        g = random_graph(rng, n, int(rng.integers(20, 70)), weighted=True)
        o = Ordering.from_vertex_at(rng.permutation(n))
        splits = make_split_points(g, o, 4, 0.3)
        j = int(rng.integers(1, 4))
        cases.append((g, o, splits, j, 2, rng.random(4) < 0.5))
    # zero-weight edges and isolated vertices
    for _ in range(5):
        g = zero_weight_graph(rng, n, int(rng.integers(20, 60)))
        o = Ordering.from_vertex_at(rng.permutation(n))
        cases.append((g, o, make_split_points(g, o, 4, 0.3), 2, 2, rng.random(4) < 0.5))
    # window vertices adjacent to parts 0 and 3, which are not next to the
    # window of boundary 2: those edges are cut whatever side is chosen, so
    # they are not priced
    far = make_graph([(11, 2), (12, 22), (11, 12), (5, 6)], n=n, weights=[3, 2, 1, 4])
    far_splits = make_split_points(far, Ordering.identity(n), 4, 0.3)
    far_mask = np.array([True, True, False, False])
    cases.append((far, Ordering.identity(n), far_splits, 2, 2, far_mask))
    # empty window
    cases.append((far, Ordering.identity(n), far_splits, 1, 0, np.zeros(0, dtype=bool)))

    for g, o, splits, j, half, mask in cases:
        lo = int(splits.q[j]) - half
        hi = int(splits.q[j]) + half
        win = WindowRow(index=j, center=int(splits.q[j]), lo=lo, hi=hi)
        part_of = np.empty(n, dtype=np.int64)
        for p in range(4):
            part_of[o.vertex_at[splits.q[p] : splits.q[p + 1]]] = p
        got = window_cut(window_edges(g, o, win, splits.q), mask)

        side = part_of.copy()
        for i in range(hi - lo):
            side[o.vertex_at[lo + i]] = j - 1 if mask[i] else j
        expected = 0.0
        in_window = np.zeros(n, dtype=bool)
        in_window[o.vertex_at[lo:hi]] = True
        for e in range(g.edge_count):
            u, v = int(g.edge_u[e]), int(g.edge_v[e])
            if not (in_window[u] or in_window[v]):
                continue
            if not {part_of[u], part_of[v]} <= {j - 1, j}:
                continue
            if side[u] != side[v]:
                expected += float(g.edge_w[e])
        assert got == pytest.approx(expected)

    # the far-part edges (weights 3 and 2) are not gathered, and the
    # internal edge (weight 1) crosses the window split
    far_win = WindowRow(index=2, center=12, lo=10, hi=14)
    far_edges = window_edges(far, Ordering.identity(n), far_win, far_splits.q)
    assert far_edges.w.tolist() == [1.0]
    assert window_cut(far_edges, far_mask) == 1.0


def test_hilbert_index_max_order_headroom():
    from linepart.hilbert import hilbert_index

    side = (1 << 31) - 1
    idx = hilbert_index(np.array([0, side]), np.array([0, side]), 31)
    assert idx.dtype == np.int64
    assert 0 <= idx[0] < (1 << 62) and 0 <= idx[1] < (1 << 62)
