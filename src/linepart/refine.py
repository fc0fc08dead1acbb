"""Semilocal order improvement: weighted-median iteration and rank swaps.

The median iteration drives the weighted linear-arrangement objective
sum |rank(u) - rank(v)| * w(u,v): every vertex proposes the weighted median
of its neighbors' ranks, then a global sort resolves collisions. Proposals
are simultaneous, so a single round may overshoot or cycle; the driver
keeps a round only while it lowers the objective. On a graph whose edge
weights are all 1 the weighted median of a row sorted by neighbor rank is
its middle arc, so a round there reads it by index, with no weight sums
or search, to the same bytes (``_MedianRound``).

Rank swaps improve the cut of the k-way chop directly. Round t pairs the
adjacent parts (a, a+1) with a = t (mod 2), so every boundary is visited
over two rounds. As in the paper's MapReduce step, the intervals of a part
pair exchange vertices in parallel: each step of a round swaps, in every
interval pair at once, the prefix of rank-paired vertices with the best
exact gain (``rank_swap_round``). Swaps are one-for-one, so part sizes
never change.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ._work import share
from .boundary import SplitPoints, window_slack
from .graph import Graph, Partition
from .ordering import Ordering

__all__ = [
    "MinLAState",
    "minla_objective",
    "minla_refine",
    "rank_swap_round",
]

log = logging.getLogger(__name__)

# Bits of one packed median sort key (see _MedianRound); 2·23 bits of vertex
# ids plus 15 of row offset keep a LiveJournal-sized graph in one sort.
_KEY_BITS = 63

# Arcs per block of a split median round. A round splits from two blocks'
# worth of arcs (2**17) on: on G(n, p) graphs in random order, 2 cores, the
# split and serial rounds cost the same from 120k to 240k arcs, and the
# split wins from there (10.0 against 7.7 ms at 360k arcs).
_BLOCK_ARCS = 1 << 16


def minla_objective(g: Graph, o: Ordering) -> float:
    """sum over edges of |rank(u) - rank(v)| * w(u, v).

    On unit edge weights the sum is taken in int64: every partial sum of
    the float formula is then an integer below 2**53, so the value is the
    same float."""
    r = o.rank_of
    span = np.abs(r[g.edge_u] - r[g.edge_v])
    if g.unit_edge_weights:
        return float(span.sum())
    return float((span * g.edge_w).sum())


class _MedianRound:
    """One propose-and-resort round per call, ``_MedianRound(g)(o)``.

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

    With unit weights (``Graph.unit_edge_weights``) the round skips the
    weights, the sum and the search and reads position row start + (d - 1)
    // 2 of each sorted row of d arcs. This is exact: cw holds integers
    there, so cw[p] - prefix is the count p - row start + 1, and the first p
    where it reaches d/2 is that middle position; parallel arcs share
    their neighbor's rank, so their tie order does not matter.

    Everything but nbr_rank is the same every round, so it is built once
    per graph: ``minla_refine`` runs all its rounds on one object, and
    ``combine`` hands one to every metric stage of its run. It holds two
    arrays of one entry per arc, the key without its neighbor rank,
    ((src % per_sort) * n << b) | off, and the int64 array the round
    sorts in. With unit weights it adds each nonempty row's middle arc;
    otherwise it adds each arc's row start and the float64 array the round
    sums in, plus each nonempty row's last arc for the search. It also
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
        row_start = np.repeat(indptr[:-1], deg)
        self.keys = np.arange(arcs)
        self.keys -= row_start  # each arc's offset within its row
        self.base = np.repeat(np.arange(n) % per_sort * np.int64(n), deg)
        self.base <<= b
        self.base |= self.keys
        self.row_lo = indptr[self.nonempty]
        # each block's rows, as a range of nonempty rows
        rows = np.searchsorted(self.row_lo, cuts).tolist()
        self.block_rows = list(zip(rows[:-1], rows[1:]))
        self.middle = self.cw = None
        if g.unit_edge_weights:
            # each nonempty row's middle arc, its median (see the class docstring)
            self.middle = self.row_lo + (deg[self.nonempty] - 1) // 2
        else:
            self.row_start = row_start
            self.cw = np.empty(arcs)
            self.row_hi = indptr[self.nonempty + 1] - 1

    def __call__(self, o: Ordering) -> Ordering:
        g = self.g
        n = g.n
        ranks = o.rank_of
        proposed = ranks.copy()
        if g.edge_count:
            b, keys, middle, cw = self.b, self.keys, self.middle, self.cw

            def sort_rows(i: int) -> None:
                lo, hi = self.blocks[i]
                k = keys[lo:hi]
                # mode="clip" writes straight into the slices; "raise" buffers them
                np.take(ranks, g.adj_indices[lo:hi], out=k, mode="clip")
                k <<= b
                k += self.base[lo:hi]
                k.sort()
                if middle is not None:  # unit weights: the median is the middle arc
                    r0, r1 = self.block_rows[i]
                    proposed[self.nonempty[r0:r1]] = (keys[middle[r0:r1]] >> b) % n
                else:
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
            if middle is None:
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


def minla_refine(
    g: Graph, o: Ordering, max_rounds: int, *, median_round: _MedianRound | None = None
) -> MinLAState:
    """Iterate median rounds (``_MedianRound``) while each lowers the objective.

    The first round that does not lower it (the permutation converged, the
    objective rose or stayed level, or the proposals cycled) is discarded
    and ends the run, as does max_rounds. The kept objective falls strictly
    every round, so the result is the best ordering seen and never worse
    than the input. ``median_round``, a ``_MedianRound`` of g, lets callers
    that refine g many times build the rounds' state once; without it this
    call builds its own.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    current = o
    obj = minla_objective(g, current)
    trace = [obj]
    stop = "cap"
    if median_round is None:
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


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges [starts[i], starts[i] + lengths[i]), laid end to end."""
    out = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    out += np.arange(len(out))
    return out


def _matching(k: int, intervals: int, round_index: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Round t's part pairs (a, a+1), a = t (mod 2), t + 2, ..., as their
    first parts, and one row per pair: part a's interval i meets part a+1's
    interval row[i]. One generator, seeded by (|seed|, t), draws every row."""
    firsts = np.arange(round_index % 2, k - 1, 2)
    rng = np.random.default_rng([abs(int(seed)), int(round_index)])
    return firsts, rng.permuted(np.tile(np.arange(intervals), (len(firsts), 1)), axis=1)


class _SwapRound:
    """A swap round's live state, moved one step at a time (``step``).

    ``red[v]``: the live cut reduction of moving v to its paired part (weight
    to it minus weight to its own). ``excess[p]``: part pair p's boundary's
    prefix weight minus its ideal. Interval pair c = p*r + i joins part a's
    interval i (interval 2c) to the one of part a+1 it meets (2c + 1); interval
    f spans ``size[f]`` ranks from ``lo[f]``. A step reads only ``active``
    interval pairs: those a move touched or held back while gaining."""

    def __init__(self, g: Graph, o: Ordering, splits: SplitPoints,
                 firsts: np.ndarray, perm: np.ndarray):
        self.g, self.firsts, self.r = g, firsts, perm.shape[1]
        self.vertex_at, self.rank_of = o.vertex_at.copy(), o.rank_of.copy()
        parts = Partition.from_contiguous(o, splits, g)
        self.part_of = parts.assignment
        k, total, q = splits.k, g.total_vertex_weight, splits.q
        self.excess = np.cumsum(parts.part_weights)[firsts] - (firsts + 1) * total / k
        self.slack, self.slack_tol = window_slack(total, k, splits.alpha)
        self.tol = 1e-12 * max(1.0, float(g.edge_w.max()) if g.edge_count else 1.0)
        self.red = self._initial_reductions()
        self.swaps = 0
        cut = [q[b, None] + np.arange(self.r + 1) * (q[b + 1] - q[b])[:, None] // self.r
               for b in (firsts, firsts + 1)]
        met = np.arange(len(firsts))[:, None], perm
        self.lo = np.stack([cut[0][:, :-1], cut[1][:, :-1][met]], axis=2).ravel()
        self.size = np.stack([np.diff(cut[0]), np.diff(cut[1])[met]], axis=2).ravel()
        self.pair_at = np.full(g.n, -1)  # each rank's interval pair
        self.pair_at[_ranges(self.lo, self.size)] = np.arange(len(self.size)).repeat(self.size) // 2
        self.active = np.ones(len(self.size) // 2, dtype=bool)
        self.slot = np.full(g.n, -1)
        self.pair_key = (self.part_of + firsts[0]) >> 1  # one per part pair; swaps keep it
        # a vertex's arcs inside its part pair, kept from its first pairing on
        self.row_at, self.row_len = np.full(g.n, -1), np.zeros(g.n, dtype=np.int64)
        self.kept_nbr, self.kept_w = np.empty_like(g.adj_indices), np.empty_like(g.adj_weights)
        self.kept = 0

    def _initial_reductions(self) -> np.ndarray:
        """One edge pass: -w for an edge inside a paired part, +w for one
        between the two parts of a pair. Shifted by the first pair's first
        part, the two parts of a pair differ in the lowest bit only."""
        g = self.g
        code = self.part_of + self.firsts[0]
        x = code[g.edge_u] ^ code[g.edge_v]
        e = np.flatnonzero(x <= 1)
        w = g.edge_w[e]
        w[x[e] == 0] *= -1.0
        return np.bincount(g.edge_u[e], w, g.n) + np.bincount(g.edge_v[e], w, g.n)

    def _keep_rows(self, xs: np.ndarray) -> None:
        """Keep the arcs of xs inside their part pairs, which no swap changes."""
        g = self.g
        start = g.adj_indptr[xs]
        deg = g.adj_indptr[xs + 1] - start
        arc = _ranges(start, deg)
        near = self.pair_key[g.adj_indices[arc]] == self.pair_key[xs].repeat(deg)
        count = np.bincount(np.arange(len(xs)).repeat(deg)[near], minlength=len(xs))
        arc = arc[near]
        end = self.kept + len(arc)
        self.kept_nbr[self.kept:end], self.kept_w[self.kept:end] = g.adj_indices[arc], g.adj_weights[arc]
        self.row_at[xs], self.row_len[xs] = self.kept + np.cumsum(count) - count, count
        self.kept = end

    def _feasible(self, p: np.ndarray, shift: np.ndarray) -> np.ndarray:
        """May part pair p's boundary move by ``shift`` (see rank_swap_round)?"""
        old = self.excess[p]
        new = np.abs(old + shift)
        return (new <= self.slack + self.slack_tol) | (new <= np.abs(old))

    def step(self) -> int:
        """Swap every active interval pair's best prefix at once; return the
        number of vertex pairs swapped, 0 once no pair gains."""
        g, tol, r = self.g, self.tol, self.r
        f = np.flatnonzero(self.active.repeat(2))
        size = self.size[f]
        verts = self.vertex_at[_ranges(self.lo[f], size)]
        red = self.red[verts]
        top = np.full(len(f), -np.inf)
        some = np.flatnonzero(size)
        top[some] = np.maximum.reduceat(red, (np.cumsum(size) - size)[some])
        # r(u) + r(v) <= r(u) + max r(v): the rest of an interval cannot pair
        cand = np.flatnonzero(red > np.repeat(tol - top[np.arange(len(f)) ^ 1], size))
        verts, red, group = verts[cand], red[cand], f.repeat(size)[cand]
        order = np.lexsort((verts, -red, group))  # (-reduction, id) per side
        verts, red, group = verts[order], red[order], group[order]

        # pair the two sides rank by rank while r(u) + r(v) > tol
        count = np.bincount(group, minlength=len(self.size)).reshape(-1, 2)
        first = (np.cumsum(count) - count.ravel()).reshape(-1, 2)
        both = np.minimum(count[:, 0], count[:, 1])
        iu, iv = _ranges(first[:, 0], both), _ranges(first[:, 1], both)
        pair = np.arange(len(both)).repeat(both)
        gain = red[iu] + red[iv]
        keep = np.flatnonzero(gain > tol)  # a prefix of each interval pair
        u, v, pair, gain = verts[iu[keep]], verts[iv[keep]], pair[keep], gain[keep]
        pos = iu[keep] - first[pair, 0]
        t = len(u)
        self.active[:] = False
        if not t:
            return 0

        # the arcs (src, nbr, w) from each mover into its part pair; mover
        # x < t is u[x], else v[x - t]
        movers = np.concatenate([u, v])
        self._keep_rows(movers[self.row_at[movers] < 0])
        start, deg = self.row_at[movers], self.row_len[movers]
        src = np.arange(2 * t).repeat(deg)
        arc = _ranges(start, deg)
        nbr, w = self.kept_nbr[arc], self.kept_w[arc]
        self.slot[movers] = np.arange(2 * t)
        dst = self.slot[nbr]
        self.slot[movers] = -1

        # each edge between two movers once: +2w if they are on the same
        # side, else -2w; inside an interval pair, from its later pair on
        e = np.flatnonzero((dst > src) & (w != 0.0))
        ea, eb = src[e] % t, dst[e] % t
        edge_gain = np.where((src[e] < t) == (dst[e] < t), 2.0, -2.0) * w[e]
        inner = pair[ea] == pair[eb]
        gain += np.bincount(np.maximum(ea, eb)[inner], edge_gain[inner], t)

        # every prefix priced exactly, one row per interval pair
        head = np.flatnonzero(pos == 0)
        length = np.diff(head, append=t)
        row = np.arange(len(head)).repeat(length)
        grid, shift = np.zeros((2, len(head), length.max()))
        grid[row, pos], shift[row, pos] = gain, g.vertex_weights[v] - g.vertex_weights[u]
        np.cumsum(grid, axis=1, out=grid)
        np.cumsum(shift, axis=1, out=shift)
        row_pp = pair[head] // r  # each row's part pair
        valid = np.arange(grid.shape[1]) < length[:, None]
        grid[~(valid & self._feasible(row_pp[:, None], shift))] = -np.inf
        best_pos = grid.argmax(axis=1)  # the first maximum
        best, best_shift = (x[np.arange(len(head)), best_pos] for x in (grid, shift))
        chosen = best > tol

        # a part pair's chosen prefixes, priced together; if they do not
        # gain or may not move the boundary, only the best of them moves
        pairs = len(self.firsts)
        in_prefix = chosen[row] & (pos <= best_pos[row])
        cross = ~inner & in_prefix[ea] & in_prefix[eb]
        joint = np.bincount(row_pp[chosen], best[chosen], pairs)
        joint += np.bincount(pair[ea[cross]] // r, edge_gain[cross], pairs)
        shift = np.bincount(row_pp[chosen], best_shift[chosen], pairs)
        move = chosen & ((joint > tol) & self._feasible(np.arange(pairs), shift))[row_pp]
        alone = np.flatnonzero(chosen & ~move)
        alone = alone[np.lexsort((alone, -best[alone], row_pp[alone]))]
        move[alone[np.diff(row_pp[alone], prepend=-1) != 0]] = True
        self.active[pair[head[chosen & ~move]]] = True
        moved = np.flatnonzero(move[row] & (pos <= best_pos[row]))

        # A neighbour y of a mover x gains 2w if it sits in x's old part and
        # loses 2w in the other, its own move left aside; a mover's own
        # reduction is then negated, as its own and paired parts trade.
        take = np.zeros(2 * t, dtype=bool)
        take[moved] = take[moved + t] = True
        arcs = np.flatnonzero(take[src])
        y, w = nbr[arcs], w[arcs]
        part_of, red = self.part_of, self.red
        np.add.at(red, y, np.where(part_of[y] == part_of[movers][src[arcs]], 2.0 * w, -2.0 * w))
        red[movers[take]] *= -1.0
        self.active[self.pair_at[self.rank_of[np.concatenate([movers[take], y])]]] = True
        u, v = u[moved], v[moved]
        ru, rv = self.rank_of[u], self.rank_of[v]
        self.vertex_at[ru], self.vertex_at[rv] = v, u
        self.rank_of[u], self.rank_of[v] = rv, ru
        shift = np.bincount((part_of[u] - self.firsts[0]) // 2, g.vertex_weights[v] - g.vertex_weights[u], pairs)
        part_of[u], part_of[v] = part_of[v], part_of[u]
        self.excess += shift
        self.active.reshape(-1, r)[shift != 0] = True  # other prefixes may now fit
        self.swaps += len(moved)
        return len(moved)


def rank_swap_round(
    g: Graph, o: Ordering, splits: SplitPoints, round_index: int, intervals: int, seed: int
) -> Ordering:
    """One round of interval-paired swaps between adjacent parts.

    Round t pairs the parts (a, a+1) with a = t (mod 2), cuts each part into
    ``intervals`` equal rank intervals and matches them one to one across
    the pair (``_matching``). A round with no pair (k = 1, or k = 2 on an
    odd round) returns ``o``. Steps repeat until no interval pair gains, or,
    with a warning, until 1000 + 50·m swaps, m the ranks of the part pairs:
    a float-drift cap, as the live reductions are kept up by repeated sums.
    Each step acts on every interval pair at once, from the live reductions:

    1. sort each side by (-reduction, id);
    2. pair the sides rank by rank while r(u) + r(v) > tol = 1e-12·max(1, max w);
    3. price each prefix exactly: the sum of r, plus 2w for each edge between
       two movers on the same side, minus 2w for each one across;
    4. take the best prefix (the first maximum) of those that keep the pair's
       boundary in its window (``boundary.window_slack``) or move it no
       further from its ideal weight, if it gains more than tol.

    The prefixes of a part pair are then priced together, over the edges
    between movers of different interval pairs; if the joint set does not
    gain more than tol or fails the boundary rule, only the part pair's best
    interval pair moves. A reduction reads only its vertex's own and paired
    part, so part pairs never interact and every step lowers the cut.
    """
    if intervals < 1:
        raise ValueError("interval count must be positive")
    if splits.n != g.n or o.n != g.n:
        raise ValueError("ordering/split points do not cover the graph")
    if splits.k - 1 <= round_index % 2:
        log.info("rankswap\tswaps\t0")
        return o
    state = _SwapRound(g, o, splits, *_matching(splits.k, intervals, round_index, seed))
    cap = 1000 + 50 * int(state.size.sum())
    while state.swaps < cap and state.step():
        pass
    if state.swaps >= cap:
        log.warning("swap round hit its swap cap (%d); float drift suspected", cap)
    log.info("rankswap\tswaps\t%d", state.swaps)
    return Ordering(state.vertex_at, state.rank_of)
