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

A window stage gathers each window's edges once (``_window_edges``); both
optimizers take that slice and return a left mask over the window. The
optimizers minimize the window objective, with everything before the
window on the left and everything after on the right; the minimum cut
builds its flow network from the slice as arc arrays in one pass. One
vectorized evaluator (``_window_cut``) prices a mask for acceptance against
the frozen current parts, since an edge to a part not next to the window is
cut whichever side its window end takes. Windows moved together can still
interact, so ``pipeline.combine`` enforces the never-raise rule on each
whole stage.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graph import Graph, balance_bounds
from .maxflow import FlowNetwork
from .ordering import Ordering

__all__ = [
    "SplitPoints",
    "Window",
    "WindowCutResult",
    "ContractedGraph",
    "DpResult",
    "make_split_points",
    "make_windows",
    "window_slack",
    "linopt_window",
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
    if k > g.n:
        raise ValueError(f"cannot split {g.n} vertices into {k} parts")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    centers = [w.center for w in make_windows(g, o, k, alpha)]
    return SplitPoints(np.array([0, *centers, g.n], dtype=np.int64), alpha)


@dataclass(frozen=True)
class Window:
    """Movement range for one interior boundary.

    Candidate split indices are [lo, hi] inclusive; the vertices at ranks
    [lo, hi) are the ones whose side can change. ``center`` is the balanced
    position of the boundary, inside [lo, hi]: the last rank whose prefix
    weight is at most j*w(V)/k, clipped into the window.
    """

    index: int
    center: int
    lo: int
    hi: int


def window_slack(total_weight: float, k: int, alpha: float) -> tuple[float, float]:
    """How far a boundary's prefix weight may stray from j*w(V)/k.

    Returns (slack, tol): the half slack alpha*w(V)/2k and the float
    tolerance added to it. Windows and rank swaps both keep a boundary
    within slack + tol of its ideal prefix weight.
    """
    slack = alpha * total_weight / (2 * k)
    return slack, 1e-9 * max(1.0, slack)


def make_windows(g: Graph, o: Ordering, k: int, alpha: float) -> list[Window]:
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
    whose prefix weight is nearest the ideal (ties to the lower rank).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = g.n
    if o.n != n:
        raise ValueError("ordering does not cover the graph")
    cw = np.concatenate([[0.0], np.cumsum(g.vertex_weights[o.vertex_at])])
    total = cw[-1]
    slack, tol = window_slack(total, k, alpha)
    ranks = [(j * n) // k for j in range(k + 1)]
    windows = []
    for j in range(1, k):
        ideal = j * total / k
        band_lo = (ranks[j - 1] + ranks[j]) // 2 + 1 if j > 1 else 1
        band_hi = (ranks[j] + ranks[j + 1]) // 2 if j < k - 1 else n - 1
        anchor = int(np.searchsorted(cw, ideal + tol, side="right")) - 1
        lo = int(np.searchsorted(cw, ideal - slack - tol, side="left"))
        hi = int(np.searchsorted(cw, ideal + slack + tol, side="right")) - 1
        lo, hi = max(lo, band_lo), min(hi, band_hi)
        if lo > hi:  # no rank in the slack: the band's rank nearest the ideal
            near = np.abs(cw[band_lo : band_hi + 1] - ideal)
            lo = hi = band_lo + int(np.argmin(near))  # first minimum: ties go low
        windows.append(Window(j, min(max(anchor, lo), hi), lo, hi))
    return windows


# -- the window cut evaluator ---------------------------------------------

_Edges = tuple[np.ndarray, np.ndarray, np.ndarray]


def _window_edges(g: Graph, o: Ordering, win: Window) -> _Edges:
    """Every edge with an end among the window's vertices, gathered once.

    Returns (row, rank, w): the window position of the edge's window end
    (rank lo+row), the rank of its other end, and its weight. An edge with
    both ends inside the window appears once, at its lower-ranked end.
    """
    members = o.vertex_at[win.lo : win.hi]
    start = g.adj_indptr[members]
    deg = g.adj_indptr[members + 1] - start
    row = np.repeat(np.arange(len(members)), deg)
    slot = np.repeat(start - (np.cumsum(deg) - deg), deg) + np.arange(len(row))
    rank = o.rank_of[g.adj_indices[slot]]
    keep = (rank < win.lo) | (rank > win.lo + row)
    return row[keep], rank[keep], g.adj_weights[slot[keep]]


def _window_cut(edges: _Edges, win: Window, left_mask: np.ndarray, q: np.ndarray) -> float:
    """Weight of the window's edges whose ends land in different parts.

    Window vertex i joins part win.index-1 if ``left_mask[i]``, else part
    win.index; every other vertex keeps its part under the split points
    ``q`` (the frozen exterior).
    """
    row, rank, w = edges
    side = np.where(left_mask, win.index - 1, win.index)
    part = np.searchsorted(q, rank, side="right") - 1
    inside = (rank >= win.lo) & (rank < win.hi)
    part[inside] = side[rank[inside] - win.lo]
    return float(w[side[row] != part].sum())


# -- per-window optimizers -----------------------------------------------


def linopt_window(edges: _Edges, win: Window) -> np.ndarray:
    """Cheapest order-respecting split in the window via one prefix scan.

    Returns the left mask over the window, a prefix. The window objective
    at every candidate split is the edges to the before-block plus a running
    sum of per-vertex changes, each taken with ``np.bincount`` over the
    window's edge slice. Ties go to the split closest to the balanced
    center, then to the smaller index. Runs in O(|V_W| + |E_W|) plus the
    scan sort.
    """
    row, rank, w = edges
    lo, hi = win.lo, win.hi
    # Moving the split past a vertex starts cutting its edges to later
    # ranks and stops cutting those to earlier ranks.
    ahead = rank >= lo
    inner = ahead & (rank < hi)
    delta = np.bincount(row, np.where(ahead, w, -w), hi - lo)
    delta -= np.bincount(rank[inner] - lo, w[inner], hi - lo)
    c = np.concatenate([[0.0], np.cumsum(delta)]) + w[~ahead].sum()
    s = np.arange(lo, hi + 1)
    pick = int(np.lexsort((s, np.abs(s - win.center), c))[0])
    return np.arange(hi - lo) < pick


@dataclass
class WindowCutResult:
    """Outcome of a window minimum cut: the left side as a window mask, and
    whether the flow budget ran out and the linear scan chose it instead."""

    left_mask: np.ndarray
    used_fallback: bool = False


def mincut_window(
    edges: _Edges,
    win: Window,
    max_augmentations: int | None = None,
) -> WindowCutResult:
    """Best bipartition of the window, free to permute its vertices.

    Everything before the window contracts into the source, everything after
    into the sink; window-internal edges keep their weight in both
    directions. The terminal capacities come from one ``np.bincount`` each
    over the window's edge slice, and the network is built from those arc
    arrays in one pass. Among minimum cuts the canonical source-side-minimal
    one is taken: the vertices the flow's last BFS still reaches in the
    residual network. Vertices with no incident instance edges are
    indifferent, so they are placed to pull the split toward the balanced
    center. Both sides keep their previous relative order, which makes a
    rerun a no-op. If the flow exceeds the augmentation budget the
    order-respecting scan is used instead and the result is flagged.
    """
    lo, hi = win.lo, win.hi
    nw = hi - lo
    if nw == 0:
        return WindowCutResult(np.zeros(0, dtype=bool))
    if max_augmentations is None:
        max_augmentations = 1000 + 100 * nw
    row, rank, w = edges
    before, after = rank < lo, rank >= hi
    inner = ~before & ~after
    src_cap = np.bincount(row[before], w[before], nw)
    snk_cap = np.bincount(row[after], w[after], nw)
    incident = np.bincount(row, w, nw) + np.bincount(rank[inner] - lo, w[inner], nw)

    s, t = nw, nw + 1
    # Arcs go in vertex by vertex: s->i, i->t, then i's positive internal
    # edges to later window vertices (each with its weight both ways).
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
    _, exceeded = net.max_flow(s, t, max_augmentations)
    if exceeded:
        log.warning("window %d: flow budget exhausted, linear-scan fallback", win.index)
        left_mask = linopt_window(edges, win)
    else:
        reach = np.array(net.level[:nw]) >= 0
        free = incident <= 0.0
        left_mask = reach & ~free
        # Indifferent vertices drift toward the balanced center.
        need = int(np.clip(win.center - lo - int(left_mask.sum()), 0, int(free.sum())))
        if need:
            left_mask[np.flatnonzero(free)[:need]] = True
    return WindowCutResult(left_mask, exceeded)


def apply_window_stage(
    g: Graph,
    o: Ordering,
    splits: SplitPoints,
    method: str,
) -> tuple[Ordering, SplitPoints, list[tuple]]:
    """Run one window optimizer over every window and apply accepted results.

    Windows are disjoint, so every window is optimized against the same
    immutable snapshot and the results are applied in window order. One
    edge slice per window serves its optimizer and its acceptance check: a
    left mask is accepted only if it does not increase the true local cut
    against the frozen exterior (the window objective alone can overcount
    edges to far-away parts as variable), and then the left vertices move
    before the split, each side in its previous order. Window j runs only
    while splits j-1, j and j+1 each lie in their own windows (splits 0 and
    k always do): moving a split onto its window would carry vertices no
    window prices, and a displaced neighbour could cross the window or push
    a part beside it out of the alpha bound. Returns the new ordering, the
    new split points, and per-window diagnostic rows (window index, old
    local cut, new local cut, vertices moved) for the windows that ran.
    """
    if method not in ("linopt", "mincut"):
        raise ValueError(f"unknown window method {method!r}")
    # mincut_window is looked up at call time, so a wrapped one is called.
    optimize = linopt_window if method == "linopt" else lambda e, w: mincut_window(e, w).left_mask
    windows = make_windows(g, o, splits.k, splits.alpha)
    if not windows:
        return o, splits, []

    tol = 1e-12 * max(1.0, g.total_edge_weight)
    new_q = splits.q.copy()
    vertex_at = o.vertex_at.copy()
    diagnostics = []
    # placed[j]: split j lies in window j. Only a dp proposal or an
    # unequal-weight swap displaces one; window j and both its neighbours
    # are then skipped.
    placed = [True, *(w.lo <= splits.q[w.index] <= w.hi for w in windows), True]
    for win in windows:
        j = win.index
        if not (placed[j - 1] and placed[j] and placed[j + 1]):
            log.info("window\t%d\tskipped: it or a neighbour has its split outside", j)
            continue
        edges = _window_edges(g, o, win)
        new_mask = optimize(edges, win)
        old_mask = np.arange(win.lo, win.hi) < splits.q[win.index]
        old_value = _window_cut(edges, win, old_mask, splits.q)
        new_value = _window_cut(edges, win, new_mask, splits.q)
        accepted = new_value <= old_value + tol
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
        log.info(
            "window\t%d\told\t%.6g\tnew\t%.6g\tmoved\t%d\taccepted\t%d",
            win.index,
            old_value,
            new_value,
            moved,
            int(accepted),
        )
    new_o = Ordering.from_vertex_at(vertex_at)
    return new_o, SplitPoints(new_q, splits.alpha), diagnostics


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
