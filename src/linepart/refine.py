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
Each interval walks its vertices best-first from a list sorted by live cut
reduction, and a swap re-keys only the vertices whose reduction changed.
Swaps are one-for-one, so part sizes never change, and a swap of unequal
weights is taken only if the boundary between the pair stays in its window
(``boundary.window_slack``) or moves no further from its ideal weight.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, insort
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

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
    """
    n = g.n
    ranks = o.rank_of
    indptr = g.adj_indptr
    deg = np.diff(indptr)
    proposed = ranks.copy()
    if g.edge_count:
        b = int(deg.max() - 1).bit_length()
        room = _KEY_BITS - b
        # Sources [s0, s0 + per_sort) sort together, keyed by src - s0, so
        # that every key stays below 2**_KEY_BITS.
        per_sort = min(n, (1 << room) // n) if room >= 0 else 0
        if per_sort == 0:
            raise ValueError("graph too large for packed median sort keys")
        row_start = np.repeat(indptr[:-1], deg)
        nbr_rank = ranks[g.adj_indices]
        keys = np.repeat(np.arange(n) % per_sort * np.int64(n), deg)
        keys += nbr_rank
        keys <<= b
        keys |= np.arange(len(keys)) - row_start
        for s0 in range(0, n, per_sort):
            keys[indptr[s0]:indptr[min(s0 + per_sort, n)]].sort()
        keys &= (1 << b) - 1
        keys += row_start  # a sorted arc's index: its row start plus its offset
        order = keys
        cw = np.cumsum(g.adj_weights[order])
        nonempty = np.flatnonzero(deg)
        lo = indptr[nonempty]
        hi = indptr[nonempty + 1] - 1
        prefix = cw[lo - 1]
        prefix[lo == 0] = 0.0
        half = (cw[hi] - prefix) / 2.0
        for _ in range(b):
            mid = (lo + hi) >> 1
            found = cw[mid] - prefix >= half
            np.copyto(hi, mid, where=found)
            np.copyto(lo, mid + 1, where=~found)
        proposed[nonempty] = nbr_rank[order[lo]]
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
    for rounds in range(1, max_rounds + 1):
        nxt = minla_round(g, current)
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
        """Reductions toward the paired parts (a, a+1), a in ``firsts``."""
        g = self.g
        paired = np.full(len(self.excess) - 1, -1, dtype=np.int64)
        for a in firsts:
            paired[a], paired[a + 1] = a + 1, a
        pu = self.part_of[g.edge_u]
        pv = self.part_of[g.edge_v]
        same = pu == pv
        to_paired = paired[pu] == pv  # symmetric: pairing is an involution
        idx = np.concatenate([g.edge_u[same], g.edge_v[same],
                              g.edge_u[to_paired], g.edge_v[to_paired]])
        deltas = np.concatenate([-g.edge_w[same], -g.edge_w[same],
                                 g.edge_w[to_paired], g.edge_w[to_paired]])
        return np.bincount(idx, weights=deltas, minlength=g.n)

    def weight_feasible(self, u: int, v: int) -> bool:
        """Would swapping u (part a) and v (part a+1) keep boundary a+1 in
        its window, or at least no further from its ideal weight?"""
        wu = self.g.vertex_weights[u]
        wv = self.g.vertex_weights[v]
        if wu == wv:
            return True
        old = self.excess[self.part_of[v]]
        new = old + wv - wu
        return abs(new) <= self.slack + self.slack_tol or abs(new) <= abs(old)

    def swap(self, u: int, v: int) -> dict[int, list[float]]:
        """Exchange u (in part a) and v (in part b); update the reductions.

        A mover's neighbors in its old part (now its paired part) gain 2w,
        those in its new part lose 2w, and the movers get fresh values.
        Returns the other vertices whose reduction changed, u's neighbors
        first, each mapped to its reductions [before, after] the swap. The
        updates go in arc order, u's arcs first, so a common neighbor of u
        and v takes u's change first.
        """
        g = self.g
        pa, pb = self.part_of.item(u), self.part_of.item(v)
        ru, rv = self.rank_of.item(u), self.rank_of.item(v)
        self.rank_of[u], self.rank_of[v] = rv, ru
        self.vertex_at[ru], self.vertex_at[rv] = v, u
        self.part_of[u], self.part_of[v] = pb, pa
        self.excess[pb] += g.vertex_weights[v] - g.vertex_weights[u]
        self.swaps += 1

        # (row, weights, own part, paired part, the other mover) per mover
        rows = tuple(
            (g.adj_indices[lo:hi], g.adj_weights[lo:hi], own, other, partner)
            for lo, hi, own, other, partner in (
                (g.adj_indptr[u], g.adj_indptr[u + 1], pb, pa, v),
                (g.adj_indptr[v], g.adj_indptr[v + 1], pa, pb, u),
            )
        )
        if len(rows[0][0]) + len(rows[1][0]) > _SHORT_ROWS:
            changed, fresh = self._update_long(rows)
        else:
            changed, fresh = self._update_short(rows)
        self.red[u], self.red[v] = fresh
        return changed

    def _update_short(self, rows) -> tuple[dict[int, list[float]], list[float]]:
        """``swap``'s updates in plain Python, which on short rows costs less
        than the dozens of small numpy calls of ``_update_long``. A mover's
        fresh value sums its weights in arc order, as ``np.add.reduce``
        does (``_weight_sum``)."""
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
                if x in changed:
                    changed[x][1] += d
                else:
                    changed[x] = [r, r + d]
            fresh.append(_weight_sum(to_other) - _weight_sum(to_own))
        if changed:
            red[list(changed)] = [after for _, after in changed.values()]
        return changed, fresh

    def _update_long(self, rows) -> tuple[dict[int, list[float]], list[float]]:
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
        after = red[nbr].tolist()
        return dict(zip(nbr.tolist(), map(list, zip(before.tolist(), after)))), fresh


def _weight_sum(ws: list[float]) -> float:
    """np.add.reduce of ws, bit for bit. Below 8 terms numpy's pairwise
    summation is one loop in order, which Python repeats more cheaply."""
    if len(ws) >= 8:
        return float(np.add.reduce(np.array(ws)))
    total = 0.0
    for w in ws:
        total += w
    return total


def _sorted_keys(verts: np.ndarray, red: np.ndarray) -> list[tuple[float, int]]:
    """(-reduction, id) of each vertex, best first."""
    order = np.lexsort((verts, -red))
    return list(zip((-red[order]).tolist(), verts[order].tolist()))


def _swap_interval_pair(
    state: _SwapState,
    range_a: tuple[int, int],
    range_b: tuple[int, int],
) -> int:
    """Local optimum between two intervals via best-partner swaps.

    Each interval keeps its vertices as (-reduction, id) keys in a list
    sorted across steps. A step walks the first list best-first; the first
    u with an improving, weight-feasible partner (gain r(u) + r(v) -
    2 w(u,v) above the float tolerance) swaps with its best partner, ties
    to the partner met first. A swap re-keys only the movers and the
    touched vertices ranked in either interval.
    """
    (a0, a1), (b0, b1) = range_a, range_b
    if a0 >= a1 or b0 >= b1:
        return 0
    g, red, tol = state.g, state.red, state.gain_tol
    verts_a, verts_b = state.vertex_at[a0:a1], state.vertex_at[b0:b1]
    red_a, red_b = red[verts_a], red[verts_b]
    # gain <= max r(u) + max r(v): skip the whole pair when nothing can help
    if red_a.max() + red_b.max() <= tol:
        return 0
    keys_a, keys_b = _sorted_keys(verts_a, red_a), _sorted_keys(verts_b, red_b)
    # Strictly improving swaps over a finite configuration space terminate;
    # the cap is a float-drift safety net only.
    cap = 1000 + 50 * (a1 - a0 + b1 - b0)
    swaps = 0
    while swaps < cap:
        chosen = None
        max_rv = -keys_b[0][0]
        for i, (neg_ru, u) in enumerate(keys_a):
            ru = -neg_ru
            if ru + max_rv <= tol:  # no later u can help either
                break
            best_gain = tol
            nbr, wt = g.neighbors(u)
            for j, (neg_rv, v) in enumerate(keys_b):
                rv = -neg_rv
                if ru + rv <= best_gain:  # gain <= r(u) + r(v)
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
        changed = state.swap(u, v)
        del keys_a[i], keys_b[j]
        insort(keys_a, (-red.item(v), v))
        insort(keys_b, (-red.item(u), u))
        rank_of = state.rank_of
        for x, (r_old, r_new) in changed.items():
            rank = rank_of.item(x)
            keys = keys_a if a0 <= rank < a1 else keys_b if b0 <= rank < b1 else None
            if keys is not None:
                del keys[bisect_left(keys, (-r_old, x))]
                insort(keys, (-r_new, x))
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
