"""Boundary postprocessing inside imbalance windows.

Split points chop an ordering into k contiguous parts. ``make_windows`` is
the one rule for where each interior boundary belongs: a window whose prefix
weight stays within half the alpha slack of the ideal, around a center that
is also the boundary's place in the balanced chop (``make_split_points``).
Boundaries move only inside their window, so part weights stay within the
alpha bound no matter how many passes run. Three optimizers work on windows
or the whole boundary set:

* a linear scan that finds the cheapest order-respecting split per window,
* a two-terminal minimum cut that may also permute the window's vertices,
* contraction of contiguous rank blocks into supernodes followed by a
  dynamic program that places all k-1 boundaries at once, under the
  balance rule of ``graph.balance_bounds``: every part nonempty and within
  the (lo, hi) weight bounds. The contraction keeps only what the dynamic
  program reads: the 2-D prefix of cross-block edge weight and the prefix
  of block weight.

The windows of a k-way split are one table (``Windows``): int64 arrays of
the boundary index, center and [lo, hi] range, one entry per interior
boundary, from placement to apply. A window stage gathers in one pass
(``_StageEdges``) the edges whose cut its windows decide: an end in a
window, the other end in one of the two parts beside its boundary. Each
row is tagged with its window; an edge to any other part is cut whichever
side its window end takes, so it is left out. These rows are the one
definition of a window's cost. The linear scan solves every window at
once (``_stage_linopt``), each window's running sum one row of a padded
array. The minimum cut solves every window over one flow network whose
components are the windows, one ``max_flow`` call each, with the
capacities of all windows taken by one ``np.bincount`` each. Both return
the windows' left masks laid end to end, and one ``np.bincount`` per mask
prices them over the same rows; a window is applied only if it strictly
lowers its cut. ``mincut_window`` is the one-window case of the minimum
cut. Windows moved together can still interact, so ``pipeline.combine``
enforces the never-raise rule on each whole stage.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import Graph, balance_bounds
from .maxflow import FlowNetwork
from .ordering import Ordering

__all__ = [
    "SplitPoints",
    "Windows",
    "ContractedGraph",
    "DpResult",
    "make_split_points",
    "make_windows",
    "window_slack",
    "mincut_window",
    "apply_window_stage",
    "contract_blocks",
    "dp_partition",
]

log = logging.getLogger(__name__)

DEFAULT_DP_BLOCKS = 1000


@dataclass
class SplitPoints:
    """Boundary indices q with q[0] = 0 and q[k] = n; part j = ranks [q_j, q_j+1)."""

    q: np.ndarray
    alpha: float

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.int64)
        if len(self.q) < 2 or self.q[0] != 0:
            raise ValueError("split points must start at 0")
        if (np.diff(self.q) <= 0).any():
            raise ValueError("split points must be strictly increasing")

    @property
    def k(self) -> int:
        return len(self.q) - 1

    @property
    def n(self) -> int:
        return int(self.q[-1])

    def part_range(self, j: int) -> tuple[int, int]:
        return int(self.q[j]), int(self.q[j + 1])

    def copy(self) -> "SplitPoints":
        return SplitPoints(self.q.copy(), self.alpha)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SplitPoints)
            and self.alpha == other.alpha
            and np.array_equal(self.q, other.q)
        )


def make_split_points(g: Graph, o: Ordering, k: int, alpha: float) -> SplitPoints:
    """The balanced chop: every boundary at its window's center.

    With unit weights a center is the rank floor(j*n/k) whenever its
    window holds that rank.
    """
    if not alpha >= 0:  # also rejects NaN
        raise ValueError("alpha must be non-negative")
    centers = make_windows(g, o, k, alpha).center
    return SplitPoints(np.concatenate([[0], centers, [g.n]]), alpha)


class Windows(NamedTuple):
    """Movement ranges of the interior boundaries, one int64 entry each.

    Boundary ``index[i]`` may sit at any split in [lo[i], hi[i]] inclusive;
    the vertices at ranks [lo[i], hi[i]) are the ones whose side can change.
    ``center[i]`` is the balanced position of the boundary, inside its
    range: the last rank whose prefix weight is at most j*w(V)/k, clipped
    into the window.
    """

    index: np.ndarray
    center: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def window_slack(total_weight: float, k: int, alpha: float) -> tuple[float, float]:
    """How far a boundary's prefix weight may stray from j*w(V)/k.

    Returns (slack, tol): the half slack alpha*w(V)/2k and the float
    tolerance added to it. Windows and rank swaps both keep a boundary
    within slack + tol of its ideal prefix weight.
    """
    slack = alpha * total_weight / (2 * k)
    return slack, 1e-9 * max(1.0, slack)


def make_windows(g: Graph, o: Ordering, k: int, alpha: float) -> Windows:
    """Windows around the balanced boundaries; the one placement rule.

    Boundary j is anchored at the last rank whose prefix weight is at most
    the ideal boundary weight j*w(V)/k (floor(j*n/k) with unit weights). It
    may sit at rank s only while the prefix weight at s stays within
    alpha*w(V)/2k of that ideal, so any combination of in-window splits
    keeps every part inside the alpha bound. With unit weights this is the
    classic alpha*n/2k half-width (floored). Windows anchor at the balanced
    positions, not at the current splits, which bounds drift across any
    number of passes. Anchor and window are clamped into the rank band
    between the midpoints of adjacent ranks floor(j*n/k), so vertex ranges
    stay disjoint and centers strictly increasing for any alpha or weights.
    A window whose slack admits no rank degenerates to the rank of its band
    whose prefix weight is nearest the ideal (ties to the lower rank); the
    bands are disjoint, so one pass over all degenerate bands finds them.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = g.n
    if k > n:
        raise ValueError(f"cannot split {n} vertices into {k} parts")
    if o.n != n:
        raise ValueError("ordering does not cover the graph")
    cw = np.concatenate([[0.0], np.cumsum(g.vertex_weights[o.vertex_at])])
    total = cw[-1]
    slack, tol = window_slack(total, k, alpha)
    ranks = np.arange(k + 1) * n // k
    ideal = np.arange(1, k) * total / k
    band_lo = (ranks[:-2] + ranks[1:-1]) // 2 + 1
    band_lo[:1] = 1
    band_hi = (ranks[1:-1] + ranks[2:]) // 2
    band_hi[-1:] = n - 1
    anchor = np.searchsorted(cw, ideal + tol, side="right") - 1
    lo = np.maximum(np.searchsorted(cw, ideal - slack - tol, side="left"), band_lo)
    hi = np.minimum(np.searchsorted(cw, ideal + slack + tol, side="right") - 1, band_hi)
    # no rank in the slack: the band's rank nearest the ideal, the first of equals
    empty = np.flatnonzero(lo > hi)
    size = band_hi[empty] - band_lo[empty] + 1
    first = np.cumsum(size) - size  # where each band starts in ``rank``
    band = np.repeat(np.arange(len(empty)), size)
    rank = band_lo[empty][band] + np.arange(len(band)) - first[band]
    near = np.abs(cw[rank] - ideal[empty][band])
    best = np.flatnonzero(near == np.minimum.reduceat(near, first)[band])
    lo[empty] = hi[empty] = rank[best[np.searchsorted(best, first)]]
    center = np.minimum(np.maximum(anchor, lo), hi)
    return Windows(np.arange(1, k), center, lo, hi)


# -- gathering and pricing the windows of a stage -------------------------


class _StageEdges:
    """The edges whose cut the boundaries of several disjoint windows
    decide, gathered in one pass: the one definition of a window's cost.

    The windows' vertices are laid end to end: window i holds positions
    start[i] .. start[i+1]-1, position start[i]+t being its ``offset`` t and
    rank lo_i+t. Window i serves boundary j = index[i], and each of its
    vertices ends in part j-1 or j, so only an edge whose other end lies in
    those two parts, at ranks [q[j-1], q[j+1]), can change whether it is
    cut; every other edge is cut whatever the window does, and is left out.
    Each kept row carries its window ``win``, the position ``pos`` of its
    window end and its weight. Its other end lies ``before`` the window,
    ``after`` it, or inside it at position ``other`` (an edge with both
    ends inside one window appears once, at its lower-ranked end); ``other``
    is ``total`` for a before row and ``total`` + 1 for an after row, the
    two blocks that stay left and right. Rows are grouped by window, in
    window order. The solvers minimize this cost and ``cuts`` prices it.
    """

    def __init__(self, g: Graph, o: Ordering, windows: Windows, q: np.ndarray):
        self.index, self.center, self.lo, self.hi = windows
        size = self.hi - self.lo
        self.start = np.concatenate([[0], np.cumsum(size)])
        self.total = total = int(self.start[-1])
        self.win_of_pos = np.repeat(np.arange(len(size)), size)
        self.offset = np.arange(total) - self.start[self.win_of_pos]
        self.rank_of_pos = self.offset + self.lo[self.win_of_pos]

        members = o.vertex_at[self.rank_of_pos]
        first = g.adj_indptr[members]
        deg = g.adj_indptr[members + 1] - first
        pos = np.repeat(np.arange(total), deg)
        slot = np.repeat(first - (np.cumsum(deg) - deg), deg) + np.arange(len(pos))
        rank = o.rank_of[g.adj_indices[slot]]
        win = self.win_of_pos[pos]
        lo = self.lo[win]
        keep = ((q[self.index - 1][win] <= rank) & (rank < q[self.index + 1][win])
                & ((rank < lo) | (rank > self.rank_of_pos[pos])))
        self.win, self.pos, self.w = win[keep], pos[keep], g.adj_weights[slot[keep]]
        rank, lo = rank[keep], lo[keep]
        self.before, self.after = rank < lo, rank >= self.hi[self.win]
        self.other = np.where(self.before, total, np.where(
            self.after, total + 1, self.start[self.win] + rank - lo))

    def cuts(self, left_mask: np.ndarray) -> np.ndarray:
        """Each window's cut weight with the vertices of ``left_mask`` on the
        left: a before row is cut if its window end goes right, an after row
        if it goes left, an inner row if its ends land on different sides.
        One ``np.bincount`` sums each window's cut rows in row order."""
        side = np.concatenate([left_mask, [True, False]])
        cut = side[self.pos] != side[self.other]
        # float even when no row is cut, where bincount returns int64 zeros
        return np.bincount(self.win[cut], self.w[cut], len(self.index)).astype(float)


# -- window optimizers ----------------------------------------------------


def _stage_linopt(stage: _StageEdges) -> np.ndarray:
    """Cheapest order-respecting split in every window via one prefix scan.

    Returns the left masks laid end to end, each a prefix of its window.
    A window's cost at split lo+i is the weight of its before rows plus
    the running sum of per-vertex changes over its first i positions.
    ``np.bincount`` calls over the stage's rows take the base and every
    change, and each window's running sum is one row of a windows x
    (widest + 1) grid, so it adds in the window's own order. Ties go to
    the split closest to the balanced center, then to the smaller index.
    Runs in O(|V_W| + |E_W|) plus the grid.
    """
    win, pos, w, before = stage.win, stage.pos, stage.w, stage.before
    total = stage.total
    # Moving the split past a vertex starts cutting its edges to later
    # ranks and stops cutting those to earlier ranks.
    delta = np.bincount(pos, np.where(before, -w, w), total)
    delta -= np.bincount(stage.other, w, total + 2)[:total]
    size = stage.hi - stage.lo
    split = np.arange(size.max(initial=0) + 1)
    grid = np.zeros((len(size), len(split)))
    grid[stage.win_of_pos, stage.offset + 1] = delta
    base = np.bincount(win[before], w[before], len(size))
    cost = np.cumsum(grid, axis=1) + base[:, None]
    cost[split > size[:, None]] = np.inf
    # lowest cost, then nearest the center, then below it
    center = (stage.center - stage.lo)[:, None]
    rule = 2 * np.abs(split - center) + (split > center)
    rule[cost > cost.min(axis=1, keepdims=True)] = np.iinfo(np.int64).max
    pick = rule.argmin(axis=1)
    return stage.offset < pick[stage.win_of_pos]


def _flow_budget(size: int) -> int:
    """Augmenting paths a window of ``size`` vertices may take."""
    return 1000 + 100 * size


def _stage_mincut(
    stage: _StageEdges, max_augmentations: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``mincut_window`` for every window of the stage over one network.

    Window j's vertices are nodes start[j]+2j onward, followed by its own
    source and sink; the network's components are the windows, and each
    is solved with its own budget (``max_augmentations``, or by default
    ``_flow_budget`` of its size) and epsilon, 1e-12 * max(1, the
    window's largest capacity). A window whose budget runs out takes its
    slice of one ``_stage_linopt`` scan instead. An idle window, one with
    no kept row of positive weight, has no arc in the network and gets no
    ``max_flow`` call: every side choice leaves its cut at 0, and its
    vertices are all indifferent. Returns the left masks laid end to end
    and, per window, whether its budget ran out.
    """
    count = len(stage.index)
    size = stage.hi - stage.lo
    total = stage.total
    exceeded = np.zeros(count, dtype=bool)
    if total == 0:
        return np.zeros(0, dtype=bool), exceeded
    win, pos, other, w = stage.win, stage.pos, stage.other, stage.w
    before, after = stage.before, stage.after
    win_of_pos = stage.win_of_pos
    src_cap = np.bincount(pos[before], w[before], total)
    snk_cap = np.bincount(pos[after], w[after], total)
    # weights are non-negative: zero exactly when every kept edge is
    incident = np.bincount(pos, w, total) + np.bincount(other, w, total + 2)[:total]

    node = np.arange(total) + 2 * win_of_pos
    source = stage.start[1:] + 2 * np.arange(count)
    # Arcs go in vertex by vertex: s->i, i->t, then i's positive internal
    # edges to later window vertices (each with its weight both ways).
    src = np.flatnonzero(src_cap > 0)
    snk = np.flatnonzero(snk_cap > 0)
    both = np.flatnonzero((other < total) & (w > 0))
    owner = node[np.concatenate([src, snk, pos[both]])]
    tail = np.concatenate([source[win_of_pos[src]], node[snk], node[pos[both]]])
    head = np.concatenate([node[src], source[win_of_pos[snk]] + 1, node[other[both]]])
    cap = np.concatenate([src_cap[src], snk_cap[snk], w[both]])
    cap_rev = np.concatenate([np.zeros(len(src) + len(snk)), w[both]])
    largest = np.zeros(count)
    np.maximum.at(largest, np.concatenate([win_of_pos[src], win_of_pos[snk], win[both]]), cap)
    arcs = np.argsort(owner, kind="stable")
    net = FlowNetwork(total + 2 * count, *(a[arcs] for a in (tail, head, cap, cap_rev)))

    for j, (s, nw, big) in enumerate(zip(source.tolist(), size.tolist(), largest.tolist())):
        if big > 0:  # every arc has positive capacity: 0 only for an idle window
            budget = _flow_budget(nw) if max_augmentations is None else max_augmentations
            exceeded[j] = net.max_flow(s, s + 1, budget, 1e-12 * max(1.0, big))[1]
    free = incident <= 0.0
    left = (np.array(net.level)[node] >= 0) & ~free
    # Indifferent vertices drift toward the balanced center.
    free_seen = np.concatenate([[0], np.cumsum(free)])
    left_seen = np.concatenate([[0], np.cumsum(left)])
    bounds = stage.start
    need = np.clip(stage.center - stage.lo - (left_seen[bounds[1:]] - left_seen[bounds[:-1]]),
                   0, free_seen[bounds[1:]] - free_seen[bounds[:-1]])
    free_rank = free_seen[:-1] - free_seen[bounds[:-1]][win_of_pos]
    left |= free & (free_rank < need[win_of_pos])
    if exceeded.any():
        left = np.where(exceeded[win_of_pos], _stage_linopt(stage), left)
    return left, exceeded


def _log_fallback(index: int) -> None:
    log.warning("window %d: flow budget exhausted, linear-scan fallback", index)


def mincut_window(
    g: Graph,
    o: Ordering,
    win: Windows,
    q: np.ndarray,
    max_augmentations: int | None = None,
) -> tuple[np.ndarray, bool]:
    """Best bipartition of the one window of ``win`` under the split points
    ``q``, free to permute its vertices.

    The window's rows are those of ``_StageEdges``: edges to the part
    before the window contract into the source, edges to the part after it
    into the sink, and window-internal edges keep their weight in both
    directions; edges to parts not beside the boundary are cut either way
    and left out. The terminal capacities come from one ``np.bincount``
    each over the window's rows, and the network is built from those arc
    arrays in one pass. Among minimum cuts the canonical source-side-minimal
    one is taken: the vertices the flow's last BFS still reaches in the
    residual network. Vertices with no kept edge of positive weight are
    indifferent, so they are placed to pull the split toward the balanced
    center. Both sides keep their previous relative order, which makes a
    rerun a no-op. If the flow exceeds the augmentation budget (default
    ``_flow_budget``) the order-respecting scan is used instead. Returns the
    left side as a window mask and whether the budget ran out. This is the
    one-window case of a window stage's ``_stage_mincut``.
    """
    left, exceeded = _stage_mincut(_StageEdges(g, o, win, q), max_augmentations)
    if exceeded[0]:
        _log_fallback(int(win.index[0]))
    return left, bool(exceeded[0])


def apply_window_stage(
    g: Graph,
    o: Ordering,
    splits: SplitPoints,
    method: str,
) -> tuple[Ordering, SplitPoints, list[tuple]]:
    """Run one window optimizer over every window and apply accepted results.

    Windows are disjoint, so every window is optimized against the same
    immutable snapshot and the results are applied together. One gather
    collects the rows of all windows that run (``_StageEdges``); the
    linear scan and the minimum cut each solve them all at once, and
    ``_StageEdges.cuts`` prices every window's old and new masks over the
    same rows. A window is accepted only if its new mask strictly lowers
    its cut, by more than 1e-12 * max(1, w(E)); a window whose best cut
    only ties its current one keeps its split and its order. An accepted
    window's left vertices move before the split, each side in its
    previous order. Window j runs only while splits j-1, j and j+1 each
    lie in their own windows (splits 0 and k always do): moving a split
    onto its window would carry vertices no window prices, and a displaced
    neighbour could cross the window or push a part beside it out of the
    alpha bound. A window whose kept rows all weigh 0 is idle: no side
    choice changes its cut, so it is never accepted, and the minimum cut
    gives it no ``max_flow`` call. Logs one summary line: windows run,
    skipped (a split displaced) and idle, accepted windows (each changed a
    split or the order), rejected windows, vertices moved and flow
    fallbacks. Returns the new ordering, the new split points, and
    per-window diagnostic rows (window index, old cut, new cut, vertices
    moved) for the windows gathered, idle ones included.
    """
    if method not in ("linopt", "mincut"):
        raise ValueError(f"unknown window method {method!r}")
    windows = make_windows(g, o, splits.k, splits.alpha)
    q = splits.q
    # placed[j]: split j lies in window j. Only a dp proposal or an
    # unequal-weight swap displaces one; window j and both its neighbours
    # are then skipped.
    current = q[windows.index]
    placed = np.concatenate([[True], (windows.lo <= current) & (current <= windows.hi), [True]])
    runs = placed[:-2] & placed[1:-1] & placed[2:]
    stage = _StageEdges(g, o, Windows._make(a[runs] for a in windows), q)
    count = len(stage.index)
    if method == "linopt":
        new_mask, exceeded = _stage_linopt(stage), np.zeros(count, dtype=bool)
    else:
        new_mask, exceeded = _stage_mincut(stage)
    old = stage.cuts(stage.rank_of_pos < q[stage.index][stage.win_of_pos])
    new = stage.cuts(new_mask)

    accepted = new < old - 1e-12 * max(1.0, g.total_edge_weight)
    take = accepted[stage.win_of_pos]
    members = o.vertex_at[stage.rank_of_pos]
    # each window's left vertices first, each side in its previous order
    new_order = members[np.argsort(2 * stage.win_of_pos + ~new_mask, kind="stable")]
    moved = np.bincount(stage.win_of_pos[take & (members != new_order)], minlength=count)
    vertex_at = o.vertex_at.copy()
    vertex_at[stage.rank_of_pos[take]] = new_order[take]
    split = stage.lo + np.bincount(stage.win_of_pos[new_mask], minlength=count)
    new_q = q.copy()
    new_q[stage.index[accepted]] = split[accepted]
    diagnostics = list(zip(stage.index.tolist(), old.tolist(),
                           np.where(accepted, new, old).tolist(), moved.tolist()))

    for index in stage.index[exceeded].tolist():
        _log_fallback(index)
    idle = count - np.count_nonzero(np.bincount(stage.win[stage.w > 0], minlength=count))
    log.info("window stage\t%s\tran\t%d\tskipped\t%d\tidle\t%d\tchanged\t%d\trejected\t%d"
             "\tmoved\t%d\tfallbacks\t%d", method, count - idle, len(runs) - count, idle,
             accepted.sum(), count - idle - accepted.sum(), moved.sum(), exceeded.sum())
    return Ordering.from_vertex_at(vertex_at), SplitPoints(new_q, splits.alpha), diagnostics


# -- contraction and dynamic programming ---------------------------------


@dataclass
class ContractedGraph:
    """Contiguous rank blocks contracted to supernodes, kept as prefix sums.

    ``block_starts`` maps block index to original rank offset (length
    block_count + 1) and ``weight_prefix[i]`` is the vertex weight of blocks
    [0, i). ``prefix[a, c]`` is the edge weight between blocks u < a and
    v < c, counted in both orientations, so it is symmetric. Intra-block
    edge weight is dropped: blocks are atomic, so those edges can never be
    cut.
    """

    block_starts: np.ndarray
    weight_prefix: np.ndarray
    prefix: np.ndarray
    total_vertex_weight: float

    @property
    def block_count(self) -> int:
        return len(self.block_starts) - 1


def contract_blocks(g: Graph, o: Ordering, block_count: int | None = None) -> ContractedGraph:
    """Contract near-equal contiguous rank blocks (sizes differ by <= 1);
    ``block_count`` defaults to min(n, DEFAULT_DP_BLOCKS).

    The cross-block weight goes into one padded (b+1)^2 buffer with a single
    ``np.bincount``, keyed by the (lower, higher) block pair shifted one row
    and column down; adding the transpose and two cumsums make the prefix.
    """
    n = g.n
    if block_count is None:
        block_count = min(n, DEFAULT_DP_BLOCKS)
    if not 1 <= block_count <= n:
        raise ValueError(f"block_count must be in [1, {n}], got {block_count}")
    starts = np.array(
        [(b * n) // block_count for b in range(block_count + 1)], dtype=np.int64
    )
    block_of = np.repeat(np.arange(block_count), np.diff(starts))[o.rank_of]
    bu, bv = block_of[g.edge_u], block_of[g.edge_v]
    cross = bu != bv
    lo, hi = np.minimum(bu, bv)[cross] + 1, np.maximum(bu, bv)[cross] + 1
    side = block_count + 1
    prefix = np.bincount(lo * side + hi, g.edge_w[cross], side * side)
    # bincount returns int64 zeros when no edge crosses blocks
    prefix = prefix.astype(np.float64, copy=False).reshape(side, side)
    prefix += prefix.T
    np.cumsum(prefix, axis=0, out=prefix)
    np.cumsum(prefix, axis=1, out=prefix)
    block_weights = np.bincount(block_of, g.vertex_weights, block_count)
    weight_prefix = np.concatenate([[0.0], np.cumsum(block_weights)])
    return ContractedGraph(starts, weight_prefix, prefix, g.total_vertex_weight)


@dataclass
class DpResult:
    """Outcome of the boundary dynamic program."""

    feasible: bool
    cut_value: float
    split_ranks: np.ndarray | None  # k+1 boundaries on original ranks

    def split_points(self, alpha: float) -> SplitPoints:
        """The result as split points; ValueError if it is infeasible."""
        if not self.feasible or self.split_ranks is None:
            raise ValueError("no feasible partition to convert")
        return SplitPoints(self.split_ranks, alpha)


def dp_partition(cg: ContractedGraph, k: int, alpha: float) -> DpResult:
    """Optimal alpha-balanced contiguous k-partition of the supernode line.

    A left-to-right chain DP over block boundaries. Each cut edge is counted
    once, at the part holding its right endpoint, so part [s', s) costs
    C[s', s] = S[s', s] - S[s', s'] with S the contraction's prefix, or inf
    unless the range is balanced by ``graph.balance_bounds``' rule: nonempty
    (s' < s) and its weight within the (lo, hi) bounds. Then
    f_1(s) = C[0, s], f_j(s) = min over s' of f_{j-1}(s') + C[s', s], and
    the optimum is f_k(b). Ties go to the smallest s'. Runs in O(k b^2) time
    with two (b+1)^2 float arrays (the cost matrix and one reused buffer)
    plus a (k, b+1) backpointer table. Every part is nonempty and within
    the alpha bound, for any alpha, so exactly k parts come out.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    b = cg.block_count
    lo, hi = balance_bounds(cg.total_vertex_weight, k, alpha)
    wp = cg.weight_prefix
    rangew = wp[None, :] - wp[:, None]  # weight of [i, e); negative if e < i
    cols = np.arange(b + 1)
    cost = cg.prefix - cg.prefix.diagonal()[:, None]
    cost[(cols[:, None] >= cols[None, :]) | (rangew < lo) | (rangew > hi)] = np.inf

    buf = np.empty_like(cost)
    backptr = np.zeros((k, b + 1), dtype=np.intp)  # row 0: first part starts at 0
    f = cost[0]
    for j in range(1, k):
        np.add(f[:, None], cost, out=buf)
        np.argmin(buf, axis=0, out=backptr[j])
        f = buf[backptr[j], cols]

    answer = float(f[b])
    if not np.isfinite(answer):
        return DpResult(False, np.inf, None)
    split_blocks = np.empty(k + 1, dtype=np.int64)
    split_blocks[k] = b
    for j in range(k - 1, -1, -1):
        split_blocks[j] = backptr[j, split_blocks[j + 1]]
    return DpResult(True, answer, cg.block_starts[split_blocks])
