"""Semilocal order improvement: weighted-median iteration and rank swaps.

The median iteration drives the weighted linear-arrangement objective
sum |rank(u) - rank(v)| * w(u,v): every vertex proposes the weighted median
of its neighbors' ranks, then a global sort resolves collisions. Proposals
are simultaneous, so a single round may overshoot or cycle; the driver
keeps a round only while it lowers the objective.

Rank swaps improve the cut of the k-way chop directly. Round t pairs the
adjacent parts (a, a+1) with a = t (mod 2), so every boundary is visited
over two rounds; each part is sliced into intervals, which the seed, t and
a match one-to-one (``rank_swap_round``). Paired intervals exchange their
best-improving vertex pairs until no swap helps.
Each interval keeps its vertices' live cut reductions in a heap with lazy
deletion: a swap pushes new keys only for the movers and the interval
vertices whose reduction changed, and most steps read just the two heads.
Swaps are one-for-one, so part sizes never change, and a swap of unequal
weights is taken only if the boundary between the pair stays in its window
(``boundary.window_slack``) or moves no further from its ideal weight.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush, heapreplace

import numpy as np

from ._work import share
from .boundary import SplitPoints, window_slack
from .graph import Graph, Partition
from .ordering import Ordering

__all__ = [
    "MinLAState",
    "minla_objective",
    "minla_round",
    "minla_refine",
    "rank_swap_round",
]

log = logging.getLogger(__name__)

# Most arcs, over both movers' rows, that a swap updates in plain Python;
# longer rows go through numpy (see _SwapState.swap). Each numpy call costs
# about as much as a few dozen arcs of the Python loop.
_SHORT_ROWS = 64

# Bits of one packed median sort key (see minla_round); 2·23 bits of vertex
# ids plus 15 of row offset keep a LiveJournal-sized graph in one sort.
_KEY_BITS = 63

# Arcs per block of a split median round. A round splits from two blocks'
# worth of arcs (2**17) on: on G(n, p) graphs in random order, 2 cores, the
# split and serial rounds cost the same from 120k to 240k arcs, and the
# split wins from there (10.0 against 7.7 ms at 360k arcs).
_BLOCK_ARCS = 1 << 16


def minla_objective(g: Graph, o: Ordering) -> float:
    """sum over edges of |rank(u) - rank(v)| * w(u, v)."""
    r = o.rank_of
    return float((np.abs(r[g.edge_u] - r[g.edge_v]) * g.edge_w).sum())


def minla_round(g: Graph, o: Ordering) -> Ordering:
    """One propose-and-resort round.

    Every vertex independently proposes the weighted median of its
    neighbors' current ranks: the smallest rank where the cumulative weight
    reaches half the total, with parallel edges of equal neighbor rank
    summed in CSR order. Isolated vertices keep their rank. Final ranks
    come from sorting by (proposed rank, current rank); current ranks are
    distinct, so that one int64 key has no ties.

    Each row of the CSR is sorted by neighbor rank with one unstable sort
    of packed int64 keys ((src * n + nbr_rank) << b) | off, where off is
    the arc's offset within its row and b = bit_length(max degree - 1); off
    breaks ties among parallel arcs in CSR order. A graph whose keys
    overflow _KEY_BITS sorts runs of consecutive sources apart. The median
    is then the first position p of the vertex's sorted row with
    cw[p] - prefix >= half, cw being the cumulative weight over all sorted
    arcs and prefix its value before the row. fl(x - prefix) never falls
    as x grows, so a binary search over the rows of all vertices at once
    finds it in b steps.

    Everything but nbr_rank is the same every round: ``_MedianRound``
    builds it once, with the work arrays the round sorts and sums in, and
    ``minla_refine`` runs all its rounds on one. This function builds one
    and runs a single round.
    """
    return _MedianRound(g)(o)


class _MedianRound:
    """The rank-free part of ``minla_round``, built once per graph.

    It holds four arrays of one entry per arc: the row start of each arc,
    the key without its neighbor rank, ((src % per_sort) * n << b) | off,
    and the int64 and float64 arrays the round sorts and sums in. It also
    cuts the arcs into blocks at row boundaries, inside the runs of
    sources that sort together: one block per run, and from
    2·``_BLOCK_ARCS`` arcs on a cut at the first row start at or after
    every multiple of ``_BLOCK_ARCS``. A block's rows sort alone to the
    same keys and search alone to the same medians, so threads share the
    blocks (``_work.share``), while the cumulative weight stays one serial
    sum and the outputs stay byte-identical whatever the thread count.
    """

    def __init__(self, g: Graph):
        self.g = g
        n = g.n
        indptr = g.adj_indptr
        deg = np.diff(indptr)
        self.nonempty = np.flatnonzero(deg)
        if not g.edge_count:
            return
        b = int(deg.max() - 1).bit_length()
        room = _KEY_BITS - b
        # Sources [s0, s0 + per_sort) sort together, keyed by src - s0, so
        # that every key stays below 2**_KEY_BITS.
        per_sort = min(n, (1 << room) // n) if room >= 0 else 0
        if per_sort == 0:
            raise ValueError("graph too large for packed median sort keys")
        self.b = b
        arcs = int(indptr[-1])
        cuts = indptr[::per_sort].tolist() + [arcs]
        if arcs >= 2 * _BLOCK_ARCS:
            even = np.arange(_BLOCK_ARCS, arcs, _BLOCK_ARCS)
            cuts += indptr[np.searchsorted(indptr, even)].tolist()
        cuts = sorted(set(cuts))  # a plain np.unique imports numpy.ma on first use (~20 ms)
        self.blocks = list(zip(cuts[:-1], cuts[1:]))
        self.row_start = np.repeat(indptr[:-1], deg)
        self.keys = np.arange(len(self.row_start))
        self.keys -= self.row_start  # each arc's offset within its row
        self.base = np.repeat(np.arange(n) % per_sort * np.int64(n), deg)
        self.base <<= b
        self.base |= self.keys
        self.cw = np.empty(len(self.keys))
        self.row_lo = indptr[self.nonempty]
        self.row_hi = indptr[self.nonempty + 1] - 1
        # each block's rows, as a range of nonempty rows
        rows = np.searchsorted(self.row_lo, cuts).tolist()
        self.block_rows = list(zip(rows[:-1], rows[1:]))

    def __call__(self, o: Ordering) -> Ordering:
        g = self.g
        n = g.n
        ranks = o.rank_of
        proposed = ranks.copy()
        if g.edge_count:
            b, keys, cw = self.b, self.keys, self.cw

            def sort_rows(i: int) -> None:
                lo, hi = self.blocks[i]
                k = keys[lo:hi]
                # mode="clip" writes straight into the slices; "raise" buffers them
                np.take(ranks, g.adj_indices[lo:hi], out=k, mode="clip")
                k <<= b
                k += self.base[lo:hi]
                k.sort()
                k &= (1 << b) - 1
                k += self.row_start[lo:hi]  # a sorted arc's index: its row start plus its offset
                np.take(g.adj_weights, k, out=cw[lo:hi], mode="clip")

            def search_rows(i: int) -> None:
                r0, r1 = self.block_rows[i]
                lo, hi = self.row_lo[r0:r1].copy(), self.row_hi[r0:r1].copy()
                prefix = cw[lo - 1]
                prefix[lo == 0] = 0.0
                half = (cw[hi] - prefix) / 2.0
                for _ in range(b):
                    mid = (lo + hi) >> 1
                    found = cw[mid] - prefix >= half
                    np.copyto(hi, mid, where=found)
                    np.copyto(lo, mid + 1, where=~found)
                proposed[self.nonempty[r0:r1]] = ranks[g.adj_indices[keys[lo]]]

            share(sort_rows, len(self.blocks))
            np.cumsum(cw, out=cw)  # serial, so every block sums in the same order
            share(search_rows, len(self.blocks))
        # the keys are distinct, so sorting them orders the current ranks (key % n)
        # exactly as their argsort would
        final = np.sort(proposed * np.int64(n) + ranks) % n
        return Ordering.from_vertex_at(o.vertex_at[final])


@dataclass
class MinLAState:
    """Result of the median iteration: kept ordering, objective, rounds run
    and why the run stopped (``"no_gain"``: a round did not lower the
    objective; ``"cap"``: max_rounds rounds all lowered it)."""

    ordering: Ordering
    objective: float
    round: int
    stop: str
    trace: list[float] = field(default_factory=list)


def minla_refine(g: Graph, o: Ordering, max_rounds: int) -> MinLAState:
    """Iterate minla_round while each round lowers the objective.

    The first round that does not lower it (the permutation converged, the
    objective rose or stayed level, or the proposals cycled) is discarded
    and ends the run, as does max_rounds. The kept objective falls strictly
    every round, so the result is the best ordering seen and never worse
    than the input.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    current = o
    obj = minla_objective(g, current)
    trace = [obj]
    stop = "cap"
    median_round = _MedianRound(g)
    for rounds in range(1, max_rounds + 1):
        nxt = median_round(current)
        new_obj = minla_objective(g, nxt)
        trace.append(new_obj)
        log.info("minla\tround\t%d\tobjective\t%.6g", rounds, new_obj)
        if new_obj >= obj:
            stop = "no_gain"
            break
        current, obj = nxt, new_obj
    log.info("minla\tstop\t%s\trounds\t%d", stop, rounds)
    return MinLAState(current, obj, rounds, stop, trace)


def _interval_pairs(
    k: int, intervals: int, round_index: int, seed: int
) -> Iterator[tuple[int, int, int]]:
    """(a, i, j) for each interval of round ``round_index``, in swap order:
    part a's interval i meets part a+1's interval j."""
    for a in range(round_index % 2, k - 1, 2):
        rng = np.random.default_rng([abs(int(seed)), int(round_index), a, a + 1])
        for i, j in enumerate(rng.permutation(intervals).tolist()):
            yield a, i, j


def _interval_range(q: np.ndarray, part: int, idx: int, r: int) -> tuple[int, int]:
    lo, hi = int(q[part]), int(q[part + 1])
    size = hi - lo
    return lo + (idx * size) // r, lo + ((idx + 1) * size) // r


class _SwapState:
    """Mutable ordering/partition view shared by the interval-pair passes.

    ``red[v]`` holds the live cut reduction of moving v to its paired part:
    weight to the paired part minus weight to its own part. It is seeded by
    one vectorized edge pass per round and maintained incrementally, so
    later interval pairs of the same partition pair see the true state.
    ``excess[j]`` is the prefix weight before boundary j minus its ideal
    j*w(V)/k.
    """

    def __init__(self, g: Graph, o: Ordering, splits: SplitPoints, firsts: range):
        self.g = g
        self.vertex_at = o.vertex_at.copy()
        self.rank_of = o.rank_of.copy()
        parts = Partition.from_contiguous(o, splits, g)
        self.part_of = parts.assignment
        total, k = g.total_vertex_weight, splits.k
        self.excess = np.concatenate([[0.0], np.cumsum(parts.part_weights)])
        self.excess -= np.arange(k + 1) * total / k
        self.slack, self.slack_tol = window_slack(total, k, splits.alpha)
        scale = float(g.edge_w.max()) if g.edge_count else 1.0
        self.gain_tol = 1e-12 * max(1.0, scale)
        self.swaps = 0
        self.red = self._initial_reductions(firsts)

    def _initial_reductions(self, firsts: range) -> np.ndarray:
        """Reductions toward the paired parts (a, a+1), a in ``firsts``.

        One bincount adds up, per vertex and in this order, -w for each edge
        inside its part, then +w for each edge to its paired part; within a
        group the edges where it is u come first, each side in edge order.
        """
        g = self.g
        paired = np.full(len(self.excess) - 1, -1, dtype=np.int64)
        for a in firsts:
            paired[a], paired[a + 1] = a + 1, a
        pu = self.part_of[g.edge_u]
        pv = self.part_of[g.edge_v]
        same = np.flatnonzero(pu == pv)
        to_paired = np.flatnonzero(paired[pu] == pv)  # symmetric: pairing is an involution
        size = 2 * (len(same) + len(to_paired))
        idx = np.empty(size, dtype=np.int64)
        deltas = np.empty(size)
        at = 0
        # mode="clip" writes straight into the slices; "raise" buffers them
        for edges, sign in ((same, -1.0), (to_paired, 1.0)):
            c = len(edges)
            np.take(g.edge_u, edges, out=idx[at:at + c], mode="clip")
            np.take(g.edge_v, edges, out=idx[at + c:at + 2 * c], mode="clip")
            w = np.take(g.edge_w, edges, out=deltas[at:at + c], mode="clip")
            if sign < 0:
                np.negative(w, out=w)
            deltas[at + c:at + 2 * c] = w
            at += 2 * c
        return np.bincount(idx, weights=deltas, minlength=g.n)

    def weight_feasible(self, u: int, v: int) -> bool:
        """Would swapping u (part a) and v (part a+1) keep boundary a+1 in
        its window, or at least no further from its ideal weight?"""
        vw = self.g.vertex_weights
        wu, wv = vw.item(u), vw.item(v)
        if wu == wv:
            return True
        old = self.excess.item(self.part_of.item(v))
        new = old + wv - wu
        return abs(new) <= self.slack + self.slack_tol or abs(new) <= abs(old)

    def swap(self, u: int, v: int, watched: set[int]) -> dict[int, list[float]]:
        """Exchange u (in part a) and v (in part b); update the reductions.

        A mover's neighbors in its old part (now its paired part) gain 2w,
        those in its new part lose 2w, and the movers get fresh values.
        Returns the vertices of ``watched`` whose reduction changed, u's
        neighbors first, each mapped to its reductions [before, after] the
        swap. The updates go in arc order, u's arcs first, so a common
        neighbor of u and v takes u's change first.
        """
        g, part_of, rank_of = self.g, self.part_of, self.rank_of
        pa, pb = part_of.item(u), part_of.item(v)
        ru, rv = rank_of.item(u), rank_of.item(v)
        rank_of[u], rank_of[v] = rv, ru
        self.vertex_at[ru], self.vertex_at[rv] = v, u
        part_of[u], part_of[v] = pb, pa
        self.excess[pb] += g.vertex_weights.item(v) - g.vertex_weights.item(u)
        self.swaps += 1

        indptr = g.adj_indptr
        u0, u1, v0, v1 = indptr.item(u), indptr.item(u + 1), indptr.item(v), indptr.item(v + 1)
        # (row, weights, own part, paired part, the other mover) per mover
        rows = (
            (g.adj_indices[u0:u1], g.adj_weights[u0:u1], pb, pa, v),
            (g.adj_indices[v0:v1], g.adj_weights[v0:v1], pa, pb, u),
        )
        if u1 - u0 + v1 - v0 > _SHORT_ROWS:
            changed, fresh = self._update_long(rows, watched)
        else:
            changed, fresh = self._update_short(rows, watched)
        self.red[u], self.red[v] = fresh
        return changed

    def _update_short(self, rows, watched) -> tuple[dict[int, list[float]], list[float]]:
        """``swap``'s updates in plain Python, which on short rows costs less
        than the dozens of small numpy calls of ``_update_long``. Each change
        is written at once, so the second mover's row reads a common
        neighbor's value after the first mover's change. A mover's fresh
        value sums its weights in arc order, as ``np.add.reduce`` does
        (``_weight_sum``)."""
        part_of, red = self.part_of, self.red
        changed: dict[int, list[float]] = {}
        fresh = []
        for row, wt, own, other, partner in rows:
            to_other, to_own = [], []
            for x, w, p, r in zip(row.tolist(), wt.tolist(), part_of[row].tolist(),
                                  red[row].tolist()):
                if p == other:
                    to_other.append(w)
                    d = 2.0 * w
                elif p == own:
                    to_own.append(w)
                    d = -2.0 * w
                else:
                    continue
                if d == 0.0 or x == partner:  # a mover's own value is fresh
                    continue
                after = r + d
                red[x] = after
                if x in watched:
                    if x in changed:
                        changed[x][1] = after
                    else:
                        changed[x] = [r, after]
            fresh.append(_weight_sum(to_other) - _weight_sum(to_own))
        return changed, fresh

    def _update_long(self, rows, watched) -> tuple[dict[int, list[float]], list[float]]:
        """``swap``'s updates as array operations, for long rows."""
        red = self.red
        fresh, touched, deltas = [], [], []
        for row, wt, own, other, partner in rows:
            parts = self.part_of[row]
            to_other, to_own = parts == other, parts == own
            fresh.append(float(np.add.reduce(wt[to_other]) - np.add.reduce(wt[to_own])))
            delta = np.where(to_other, 2.0 * wt, np.where(to_own, -2.0 * wt, 0.0))
            keep = (delta != 0.0) & (row != partner)
            touched.append(row[keep])
            deltas.append(delta[keep])
        nbr = np.concatenate(touched)
        before = red[nbr]
        np.add.at(red, nbr, np.concatenate(deltas))  # in order, like _update_short
        # a common neighbor's second entry wins: the same before, the final after
        changed = {
            x: [r_old, r_new]
            for x, r_old, r_new in zip(nbr.tolist(), before.tolist(), red[nbr].tolist())
            if x in watched
        }
        return changed, fresh


def _weight_sum(ws: list[float]) -> float:
    """np.add.reduce of ws, bit for bit. Below 8 terms numpy's pairwise
    summation is one loop in order, which Python repeats more cheaply."""
    if len(ws) >= 8:
        return float(np.add.reduce(np.array(ws)))
    total = 0.0
    for w in ws:
        total += w
    return total


def _live_head(
    heap: list[tuple[float, int]], members: set[int], red: np.ndarray
) -> tuple[float, int]:
    """The best live key of an interval's heap, dropping stale keys above
    it. A key (-r, x) is live while x is a member and r its reduction."""
    while True:
        key = heap[0]
        if key[1] in members and key[0] == -red.item(key[1]):
            return key
        heappop(heap)


def _live_sorted(
    heap: list[tuple[float, int]], members: set[int], red: np.ndarray
) -> list[tuple[float, int]]:
    """An interval's live keys, best first."""
    return sorted({key for key in heap if key[1] in members and key[0] == -red.item(key[1])})


def _best_step(state: _SwapState, keys_a, keys_b) -> tuple[int, int] | None:
    """The swap rule on keys sorted best first: the first u with an
    improving, weight-feasible partner, and its best partner, ties to the
    partner met first; None if no swap helps."""
    g, tol = state.g, state.gain_tol
    chosen = None
    max_rv = -keys_b[0][0]
    for neg_ru, u in keys_a:
        ru = -neg_ru
        if ru + max_rv <= tol:  # no later u can help either
            break
        best_gain = tol
        nbr, wt = g.neighbors(u)
        for neg_rv, v in keys_b:
            rv = -neg_rv
            if ru + rv <= best_gain:  # gain <= r(u) + r(v)
                break
            pos = int(nbr.searchsorted(v))
            w_uv = wt.item(pos) if pos < len(nbr) and nbr[pos] == v else 0.0
            gain = ru + rv - 2.0 * w_uv
            if gain > best_gain and state.weight_feasible(u, v):
                best_gain, chosen = gain, (u, v)
        if chosen is not None:
            break
    return chosen


def _swap_interval_pair(
    state: _SwapState,
    range_a: tuple[int, int],
    range_b: tuple[int, int],
) -> int:
    """Local optimum between two intervals via best-partner swaps.

    A step takes, in (-reduction, id) order, the first u of the first
    interval with an improving, weight-feasible partner in the second (gain
    r(u) + r(v) - 2 w(u,v) above the float tolerance) and swaps it with its
    best partner, ties to the partner met first (``_best_step``). Each
    interval keeps its (-reduction, id) keys in a heap. A swap pushes the
    new keys of the movers and of the touched members of either interval
    (``swap`` reports only those), and leaves the old keys to be dropped
    when they surface. Most steps are settled by the two heads: when the
    best u and the best v share no edge and may swap, no other pair can
    come first. Otherwise the step sorts the live keys and walks them.
    """
    (a0, a1), (b0, b1) = range_a, range_b
    if a0 >= a1 or b0 >= b1:
        return 0
    g, red, tol = state.g, state.red, state.gain_tol
    indptr, indices, weights = g.adj_indptr, g.adj_indices, g.adj_weights
    verts_a, verts_b = state.vertex_at[a0:a1], state.vertex_at[b0:b1]
    red_a, red_b = red[verts_a], red[verts_b]
    # gain <= max r(u) + max r(v): skip the whole pair when nothing can help
    if red_a.max() + red_b.max() <= tol:
        return 0
    ids_a, ids_b = verts_a.tolist(), verts_b.tolist()
    heap_a = list(zip((-red_a).tolist(), ids_a))
    heap_b = list(zip((-red_b).tolist(), ids_b))
    heapify(heap_a)
    heapify(heap_b)
    in_a, in_b = set(ids_a), set(ids_b)
    watched = in_a | in_b  # a swap leaves it as it is
    # Strictly improving swaps over a finite configuration space terminate;
    # the cap is a float-drift safety net only.
    cap = 1000 + 50 * (a1 - a0 + b1 - b0)
    swaps = 0
    while swaps < cap:
        neg_ru, u = _live_head(heap_a, in_a, red)
        neg_rv, v = _live_head(heap_b, in_b, red)
        if -neg_ru - neg_rv <= tol:
            break
        lo, hi = indptr.item(u), indptr.item(u + 1)
        pos = lo + int(indices[lo:hi].searchsorted(v))
        linked = pos < hi and indices.item(pos) == v and weights.item(pos) != 0.0
        heads = not linked and state.weight_feasible(u, v)
        if not heads:
            step = _best_step(state, _live_sorted(heap_a, in_a, red),
                              _live_sorted(heap_b, in_b, red))
            if step is None:
                break
            u, v = step
        changed = state.swap(u, v, watched)
        in_a.remove(u)
        in_a.add(v)
        in_b.remove(v)
        in_b.add(u)
        # each mover takes the other's interval; a head mover's key leaves at once
        (heapreplace if heads else heappush)(heap_a, (-red.item(v), v))
        (heapreplace if heads else heappush)(heap_b, (-red.item(u), u))
        for x, (_, r_new) in changed.items():
            heappush(heap_a if x in in_a else heap_b, (-r_new, x))
        swaps += 1
    if swaps >= cap:
        log.warning("interval pair hit swap cap (%d); float drift suspected", cap)
    return swaps


def rank_swap_round(
    g: Graph, o: Ordering, splits: SplitPoints, round_index: int, intervals: int, seed: int
) -> Ordering:
    """One round of interval-paired swaps between adjacent parts.

    Round t pairs the parts (a, a+1) with a = t (mod 2); each part is cut
    into ``intervals`` equal rank intervals, and part a's interval i meets
    part a+1's interval perm[i], perm being
    ``np.random.default_rng([|seed|, t, a, a+1]).permutation(intervals)``.
    A round with no pair (k = 1, or k = 2 on an odd round) returns ``o``.
    Part pairs are fully independent (a vertex's reduction only reads the
    two parts it could belong to); interval pairs within a part pair run in
    a fixed order against live state, so the true cut weight never
    increases. Vertex counts per part are untouched. A swap moves only the
    boundary between its pair, by w(v) - w(u); it is rejected if that
    carries the boundary out of its window and further from its ideal
    weight.
    """
    if intervals < 1:
        raise ValueError("interval count must be positive")
    if splits.n != g.n or o.n != g.n:
        raise ValueError("ordering/split points do not cover the graph")
    firsts = range(round_index % 2, splits.k - 1, 2)
    if not firsts:
        log.info("rankswap\tswaps\t0")
        return o
    state = _SwapState(g, o, splits, firsts)
    q = splits.q
    for a, i, j in _interval_pairs(splits.k, intervals, round_index, seed):
        ra = _interval_range(q, a, i, intervals)
        rb = _interval_range(q, a + 1, j, intervals)
        _swap_interval_pair(state, ra, rb)
    log.info("rankswap\tswaps\t%d", state.swaps)
    return Ordering(state.vertex_at, state.rank_of)
