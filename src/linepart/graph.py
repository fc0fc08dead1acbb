"""Graph data model, similarity weighting, and partition quality metrics.

The graph is immutable after construction: an undirected multigraph collapsed
to simple form (parallel edges merged by weight summation, self-loops
dropped), stored both as a flat edge list and as a CSR adjacency with sorted
neighbor lists. Vertex weights are positive; edge weights are non-negative
and double as lengths where an operation needs a metric.
"""

from __future__ import annotations

import copy
import heapq
import logging
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ._work import share

if TYPE_CHECKING:
    from .boundary import SplitPoints
    from .ordering import Ordering

__all__ = [
    "Graph",
    "GraphFormatError",
    "Partition",
    "BalanceReport",
    "common_neighbors_similarity",
    "cut_weight",
    "balance_bounds",
    "check_balance",
    "cross_shard_rate",
    "query_weighted_graph",
]

log = logging.getLogger(__name__)

# Relative slack used when comparing aggregated float weights against bounds.
_REL_TOL = 1e-9

# Bits of a wedge probe's position in its chunk: a chunk holds 2**16 probes
# (fewer when n*n leaves less room in an int64), so its handful of int64
# arrays take 512 KiB each, and at most ``_work._MAX_WORKERS`` chunks are
# in flight.
_PROBE_BITS = 16

# Out-neighbours a vertex pairs in the similarity: its lowest-ranked ones.
# Only a vertex with more out-neighbours than this drops wedges, and under
# the (degree, id) orientation that is rare outside hub-heavy graphs.
_WEDGE_BUDGET = 16


class GraphFormatError(ValueError):
    """Malformed input data; message carries file name and line number."""


class Graph:
    """Immutable undirected graph with weighted vertices and edges.

    Vertices carry dense ids 0..n-1 assigned in first-seen input order;
    external string ids are preserved for I/O. Neighbor lists are sorted by
    vertex id.
    """

    def __init__(
        self,
        external_ids: Sequence[str],
        vertex_weights: np.ndarray,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        edge_w: np.ndarray,
        geo: np.ndarray | None = None,
    ):
        n = len(external_ids)
        self.n = n
        self.external_ids = list(external_ids)
        self.vertex_weights = np.asarray(vertex_weights, dtype=np.float64)
        if self.vertex_weights.shape != (n,):
            raise ValueError("vertex_weights must have one entry per vertex")
        if n and self.vertex_weights.min() <= 0:
            bad = int(np.argmin(self.vertex_weights))
            raise ValueError(
                f"vertex {self.external_ids[bad]!r} has non-positive weight "
                f"{self.vertex_weights[bad]}"
            )
        self.edge_u = np.asarray(edge_u, dtype=np.int64)
        self.edge_v = np.asarray(edge_v, dtype=np.int64)
        self.edge_w = np.asarray(edge_w, dtype=np.float64)
        m = len(self.edge_w)
        if len(self.edge_u) != m or len(self.edge_v) != m:
            raise ValueError("edge arrays must have equal length")
        if m:
            if self.edge_u.min() < 0 or self.edge_v.max() >= n:
                raise ValueError("edge endpoint out of range")
            if not (self.edge_u < self.edge_v).all():
                raise ValueError("edges must be stored with u < v")
            self._check_edge_weights(self.edge_w)
        if geo is not None:
            geo = np.asarray(geo, dtype=np.float64)
            if geo.shape != (n, 2):
                raise ValueError("geo must have shape (n, 2)")
            lat, lng = geo[:, 0], geo[:, 1]
            ok_lat = np.isnan(lat) | ((lat >= -90.0) & (lat <= 90.0))
            ok_lng = np.isnan(lng) | ((lng >= -180.0) & (lng <= 180.0))
            if not (ok_lat & ok_lng).all():
                bad = int(np.argmin(ok_lat & ok_lng))
                raise ValueError(
                    f"vertex {self.external_ids[bad]!r} has out-of-range "
                    f"coordinates {tuple(geo[bad])}"
                )
        self.geo = geo

        # CSR adjacency over both arc directions, neighbors sorted by id.
        # Vertex x's list holds first its reversed edges (neighbors < x),
        # then its forward edges (neighbors > x). With the edges in (u, v)
        # order, as from_arcs leaves them, forward arcs keep edge order and
        # reversed arcs take the order of one sort by (v, edge index), so
        # parallel edges keep their input order on both sides. Other edge
        # orders are stably sorted by (u, v) first. Transients are dropped
        # early: this build sets the loader's peak memory.
        u, v, rank = self.edge_u, self.edge_v, np.arange(m)
        eid = rank
        key = u * np.int64(n) + v
        if (key[1:] < key[:-1]).any():
            eid = np.argsort(key, kind="stable")
            u, v = u[eid], v[eid]
        del key
        lower = np.bincount(v, minlength=n)  # arcs to lower ids, per vertex
        higher = np.bincount(u, minlength=n)
        self.adj_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lower + higher, out=self.adj_indptr[1:])
        self.adj_indices = np.empty(2 * m, dtype=np.int64)
        self.adj_edge = np.empty(2 * m, dtype=np.int64)
        # forward arc i goes to i + (lower arcs of vertices <= u[i])
        at = np.cumsum(lower)[u]
        at += rank
        self.adj_indices[at], self.adj_edge[at] = v, eid
        # the j-th reversed arc in (v, i) order goes to j + (higher arcs of vertices < v)
        rev = v * np.int64(m)
        rev += rank
        rev = np.argsort(rev)
        at = (np.cumsum(higher) - higher)[v[rev]]
        at += rank
        self.adj_indices[at] = u[rev]
        self.adj_edge[at] = eid[rev]
        del at, rev
        self.adj_weights = self.edge_w[self.adj_edge]

        self.total_edge_weight = float(self.edge_w.sum())
        self.total_vertex_weight = float(self.vertex_weights.sum())
        self._unit_edge_weights = bool((self.edge_w == 1.0).all())
        self._ext_index: dict[str, int] | None = None

    # -- construction --------------------------------------------------

    @classmethod
    def from_arcs(
        cls,
        tails: Iterable[int],
        heads: Iterable[int],
        weights: Iterable[float],
        external_ids: Sequence[str],
        vertex_weights: np.ndarray | None = None,
        geo: np.ndarray | None = None,
    ) -> "Graph":
        """Build a graph from raw (possibly directed, duplicated) arcs.

        Arcs are symmetrized: each arc contributes its weight once to the
        undirected edge, duplicates merge by summation. Self-loops are
        dropped.
        """
        n = len(external_ids)
        tails = np.asarray(list(tails) if not isinstance(tails, np.ndarray) else tails, dtype=np.int64)
        heads = np.asarray(list(heads) if not isinstance(heads, np.ndarray) else heads, dtype=np.int64)
        weights = np.asarray(list(weights) if not isinstance(weights, np.ndarray) else weights, dtype=np.float64)
        lo = np.minimum(tails, heads)
        hi = np.maximum(tails, heads)
        keep = lo != hi  # intermediates are dropped early to lower the peak
        if not keep.all():
            lo, hi, weights = lo[keep], hi[keep], weights[keep]
        del keep
        if len(lo):
            key = lo * np.int64(n)
            key += hi
            del lo, hi
            edge_key, inverse = np.unique(key, return_inverse=True)
            del key
            edge_w = np.bincount(inverse, weights=weights, minlength=len(edge_key))
            del inverse
            edge_u, edge_v = np.divmod(edge_key, n)
            del edge_key
        else:
            edge_u = edge_v = np.zeros(0, dtype=np.int64)
            edge_w = np.zeros(0, dtype=np.float64)
        if vertex_weights is None:
            vertex_weights = np.ones(n, dtype=np.float64)
        return cls(external_ids, vertex_weights, edge_u, edge_v, edge_w, geo)

    def with_edge_weights(self, edge_w: np.ndarray) -> "Graph":
        """Same vertices and edge set, different edge weights.

        The edge set is unchanged, so the CSR adjacency is shared, not rebuilt.
        """
        edge_w = np.asarray(edge_w, dtype=np.float64)
        if edge_w.shape != self.edge_w.shape:
            raise ValueError("edge arrays must have equal length")
        if len(edge_w):
            self._check_edge_weights(edge_w)
        g = copy.copy(self)
        g.edge_w = edge_w
        g.adj_weights = edge_w[self.adj_edge]
        g.total_edge_weight = float(edge_w.sum())
        g._unit_edge_weights = bool((edge_w == 1.0).all())
        return g

    def _check_edge_weights(self, edge_w: np.ndarray) -> None:
        if edge_w.min() < 0:
            bad = int(np.argmin(edge_w))
            raise ValueError(
                f"edge ({self.external_ids[self.edge_u[bad]]!r}, "
                f"{self.external_ids[self.edge_v[bad]]!r}) has negative "
                f"weight {edge_w[bad]}"
            )

    # -- accessors ------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edge_w)

    @property
    def unit_edge_weights(self) -> bool:
        """Is every edge weight exactly 1.0 (true of an edgeless graph)?"""
        return self._unit_edge_weights

    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbor ids, edge weights) views, neighbors sorted by id."""
        lo, hi = self.adj_indptr[v], self.adj_indptr[v + 1]
        return self.adj_indices[lo:hi], self.adj_weights[lo:hi]

    @property
    def ext_index(self) -> dict[str, int]:
        if self._ext_index is None:
            self._ext_index = {ext: i for i, ext in enumerate(self.external_ids)}
        return self._ext_index

    def internal_id(self, external_id: str) -> int:
        try:
            return self.ext_index[external_id]
        except KeyError:
            raise KeyError(f"unknown vertex id {external_id!r}") from None

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


class Partition:
    """Assignment of every vertex to one of k parts, with cached part weights."""

    def __init__(self, assignment: np.ndarray, k: int, part_weights: np.ndarray):
        self.assignment = np.asarray(assignment, dtype=np.int64)
        self.k = int(k)
        self.part_weights = np.asarray(part_weights, dtype=np.float64)
        if len(self.part_weights) != self.k:
            raise ValueError("part_weights must have one entry per part")
        if len(self.assignment) and (
            self.assignment.min() < 0 or self.assignment.max() >= self.k
        ):
            raise ValueError("part id out of range")

    @classmethod
    def from_assignment(cls, assignment: np.ndarray, k: int, g: Graph) -> "Partition":
        assignment = np.asarray(assignment, dtype=np.int64)
        if len(assignment) != g.n:
            raise ValueError(
                f"partition covers {len(assignment)} vertices, graph has {g.n}"
            )
        part_weights = np.bincount(assignment, weights=g.vertex_weights, minlength=k)
        return cls(assignment, k, part_weights)

    @classmethod
    def from_contiguous(cls, ordering: "Ordering", splits: "SplitPoints", g: Graph) -> "Partition":
        """Parts are contiguous rank ranges of the ordering between splits."""
        q = splits.q
        k = len(q) - 1
        assignment = np.empty(g.n, dtype=np.int64)
        assignment[ordering.vertex_at[q[0] : q[-1]]] = np.repeat(np.arange(k), np.diff(q))
        return cls.from_assignment(assignment, k, g)

    @property
    def n(self) -> int:
        return len(self.assignment)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Partition)
            and self.k == other.k
            and np.array_equal(self.assignment, other.assignment)
        )

    def __repr__(self) -> str:
        return f"Partition(n={self.n}, k={self.k})"


@dataclass
class BalanceReport:
    """Outcome of an alpha-balance check, with per-part detail."""

    balanced: bool
    alpha: float
    target: float  # w(V) / k
    part_weights: np.ndarray
    deviations: np.ndarray  # (w_i - target) / target

    def rows(self) -> Iterable[tuple[int, float, float]]:
        for j in range(len(self.part_weights)):
            yield j, float(self.part_weights[j]), float(self.deviations[j])

    def __bool__(self) -> bool:
        return self.balanced


# -- similarity ---------------------------------------------------------


def common_neighbors_similarity(g: Graph) -> Graph:
    """Reweight every edge by the common-neighbor ratio of its endpoints,
    counting the common neighbours under a per-vertex wedge budget.

    For edge (u, v) the weight becomes t(u, v) / (deg u + deg v - t(u, v) - 2),
    where t(u, v) counts the triangles on the edge that the budget keeps;
    edges with no such triangle get weight 0. Input edge weights are
    ignored; only the adjacency structure matters.

    Triangles are listed by the degree-ordered wedge method (Schank &
    Wagner 2005; Latapy 2008): rank the vertices by (degree, id), orient
    every edge toward its higher-ranked end, and test each pair of a
    vertex's out-neighbours against the sorted edge keys. A per-vertex
    wedge budget, as in wedge sampling (Seshadhri, Pinar & Kolda 2013) but
    deterministic, bounds the pairs: each vertex pairs only its
    ``_WEDGE_BUDGET`` lowest-ranked out-neighbours, so a triangle counts
    exactly when its lowest-ranked vertex keeps both other ends. On a graph whose out-degrees are all at
    most the budget, t(u, v) = |N(u) & N(v)| and the weight is the exact
    ratio |N(u) & N(v)| / |(N(u) | N(v)) - {u, v}|. The cost is at most
    C(budget, 2) binary searches per vertex, against sum(C(outdeg, 2)).
    The pairs are probed in chunks of 2**_PROBE_BITS, each sorted by key
    before its search, and threads share the chunks (``_work.share``);
    the counts are integers, so the output does not depend on the thread
    count. Memory is O(m) plus one chunk per thread, at most 4 chunks of
    2**16 probes; a chunk holds each probe's two arcs, its key and its
    position, so a hit's arcs are read by position, not searched for.
    """
    n, m = g.n, g.edge_count
    deg = np.diff(g.adj_indptr)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(deg, kind="stable")] = np.arange(n)  # by (degree, id)

    # Out-lists: the CSR arcs toward a higher-ranked end, still sorted by id.
    src = np.repeat(np.arange(n), deg)
    up = rank[g.adj_indices] > rank[src]
    owner = src[up]
    del src
    out_deg = np.bincount(owner, minlength=n)
    budget = np.minimum(out_deg, _WEDGE_BUDGET)
    dropped = int((out_deg * (out_deg - 1) - budget * (budget - 1)).sum()) // 2
    # An over-budget list keeps its lowest-ranked arcs, still in id order.
    over = np.flatnonzero(out_deg[owner] > _WEDGE_BUDGET)
    slot = np.flatnonzero(up)[over]
    owner = owner[over]
    del out_deg, over
    by_rank = np.argsort(owner * np.int64(n) + rank[g.adj_indices[slot]])
    owner = owner[by_rank]  # lists stay grouped, each now by rank
    late = np.arange(len(owner)) - np.searchsorted(owner, owner) >= _WEDGE_BUDGET
    up[slot[by_rank[late]]] = False
    del owner, slot, by_rank, late
    out_v = g.adj_indices[up]
    out_e = g.adj_edge[up]
    del up

    # Out-arc p pairs with every later arc of the same list; pairs are
    # numbered consecutively, arc by arc, so a chunk is a range of numbers.
    pairs = np.repeat(np.cumsum(budget), budget) - 1 - np.arange(len(out_v))
    del budget
    pair_end = np.cumsum(pairs)
    pair_start = pair_end - pairs
    del pairs
    wedges = int(pair_end[-1]) if m else 0

    keys = g.edge_u * np.int64(n) + g.edge_v
    key_order = np.argsort(keys, kind="stable")
    keys = keys[key_order]

    # A probe's key is below n*n; it is packed above its position in the
    # chunk, so one int64 sort orders a chunk's probes by key.
    bits = min(_PROBE_BITS, 63 - (n * n).bit_length())
    chunk = 1 << bits
    tri = np.zeros(m, dtype=np.int64)
    tri_lock = threading.Lock()

    def probe(c: int) -> None:
        lo = c * chunk
        hi = min(lo + chunk, wedges)
        p0 = int(np.searchsorted(pair_end, lo, "right"))
        p1 = int(np.searchsorted(pair_end, hi - 1, "right")) + 1
        span = np.minimum(pair_end[p0:p1], hi) - np.maximum(pair_start[p0:p1], lo)
        arc = np.repeat(np.arange(p0, p1), span)
        mate = np.arange(lo, hi)
        mate -= pair_start[arc]
        mate += arc
        mate += 1
        want = out_v[arc]
        want *= n
        want += out_v[mate]
        want <<= bits
        want |= np.arange(hi - lo)
        want.sort()  # probes in key order walk the keys once
        pos = want & (chunk - 1)
        want >>= bits
        at = np.searchsorted(keys, want)
        at[at == m] = 0  # harmless: compared key then mismatches
        hit = keys[at] == want
        del want
        pos = pos[hit]  # each hit's position in the chunk, and so its two arcs
        ends = (out_e[arc[pos]], out_e[mate[pos]], key_order[at[hit]])
        # add.at, not bincount: a per-chunk bincount would cost O(m) each time.
        # The lock keeps each read-modify-write whole; integer counts add up
        # the same in any order of the chunks.
        with tri_lock:
            for e in ends:
                np.add.at(tri, e, 1)

    workers = share(probe, -(-wedges // chunk))
    log.info("similarity\tbudget\t%d\twedges\t%d\tdropped\t%d\ttriangles\t%d\tworkers\t%d",
             _WEDGE_BUDGET, wedges, dropped, int(tri.sum()) // 3, workers)

    # Within the budget, the same integers as a per-edge set intersection,
    # so the same float64 ratio.
    denom = deg[g.edge_u] + deg[g.edge_v] - tri - 2
    new_w = np.zeros(m, dtype=np.float64)
    np.divide(tri, denom, out=new_w, where=denom > 0)
    return g.with_edge_weights(new_w)


# -- metrics ------------------------------------------------------------


def cut_weight(g: Graph, p: Partition) -> tuple[float, float]:
    """(total weight of inter-part edges, that weight / total edge weight)."""
    if p.n != g.n:
        raise ValueError(f"partition covers {p.n} vertices, graph has {g.n}")
    a = p.assignment
    crossing = a[g.edge_u] != a[g.edge_v]
    absolute = float(g.edge_w[crossing].sum())
    fraction = absolute / g.total_edge_weight if g.total_edge_weight > 0 else 0.0
    return absolute, fraction


def balance_bounds(total_weight: float, k: int, alpha: float) -> tuple[float, float]:
    """(lo, hi): the part weights (1 -/+ alpha) * total_weight/k allows.

    This is the one alpha-balance rule: a part is balanced iff it is
    nonempty and its weight lies in [lo, hi]. Both ends are widened by the
    same relative tolerance, so float noise in aggregated weights never
    decides the verdict.
    """
    if not alpha >= 0:  # also rejects NaN
        raise ValueError("alpha must be non-negative")
    target = total_weight / k
    tol = _REL_TOL * max(1.0, target)
    return (1.0 - alpha) * target - tol, (1.0 + alpha) * target + tol


def check_balance(g: Graph, p: Partition, alpha: float) -> BalanceReport:
    """Is every part nonempty, with weight within (1 +/- alpha) * w(V)/k?"""
    lo, hi = balance_bounds(g.total_vertex_weight, p.k, alpha)
    target = g.total_vertex_weight / p.k
    w = p.part_weights
    # vertex weights are positive, so a part is nonempty iff its weight is
    balanced = bool(((w > 0) & (w >= lo) & (w <= hi)).all())
    deviations = (w - target) / target if target > 0 else np.zeros_like(w)
    return BalanceReport(balanced, alpha, target, w.copy(), deviations)


def cross_shard_rate(p: Partition, queries: Sequence[tuple[int, int]]) -> float:
    """Fraction of (src, dst) queries whose endpoints land in different parts."""
    if len(queries) == 0:
        return 0.0
    qs = np.asarray(queries, dtype=np.int64).reshape(-1, 2)
    if qs.min() < 0 or qs.max() >= p.n:
        bad = qs.flatten()[int(np.argmax((qs < 0) | (qs >= p.n)))]
        raise ValueError(f"query endpoint {int(bad)} is not a vertex")
    a = p.assignment
    return float(np.mean(a[qs[:, 0]] != a[qs[:, 1]]))


def _shortest_path_tree(g: Graph, src: int) -> tuple[np.ndarray, np.ndarray]:
    """Dijkstra from src; predecessor ties resolved to the smallest vertex id."""
    dist = np.full(g.n, np.inf)
    pred = np.full(g.n, -1, dtype=np.int64)
    settled = np.zeros(g.n, dtype=bool)
    dist[src] = 0.0
    heap: list[tuple[float, int]] = [(0.0, src)]
    indptr, indices, weights = g.adj_indptr, g.adj_indices, g.adj_weights
    while heap:
        d, x = heapq.heappop(heap)
        if settled[x]:
            continue
        settled[x] = True
        for pos in range(indptr[x], indptr[x + 1]):
            y = indices[pos]
            if settled[y]:
                continue
            nd = d + weights[pos]
            if nd < dist[y]:
                dist[y] = nd
                pred[y] = x
                heapq.heappush(heap, (nd, int(y)))
            elif nd == dist[y] and (pred[y] == -1 or x < pred[y]):
                pred[y] = x
    return dist, pred


def query_weighted_graph(
    g: Graph, queries: Sequence[tuple[int, int]]
) -> tuple[Graph, list[tuple[int, int]]]:
    """Reweight edges by shortest-path traffic implied by the queries.

    Each query contributes one shortest path (ties broken toward the
    lexicographically smallest predecessor id); every traversed edge's count
    increases by one. Edges on no path keep weight 0 but remain in the graph.
    Unreachable query pairs are skipped and returned in input order, not
    fatal. Memory is O(n + m + queries): the queries run grouped by source,
    and each source's tree is replaced when the next source starts.
    """
    qs = np.asarray(queries, dtype=np.int64).reshape(-1, 2)
    bad = (qs < 0) | (qs >= g.n)
    if bad.any():
        first = int(qs.ravel()[np.argmax(bad.ravel())])
        raise ValueError(f"query endpoint {first} is not a vertex")
    counts = np.zeros(g.edge_count, dtype=np.float64)
    unreachable: list[int] = []
    indptr, indices, edge_of = g.adj_indptr, g.adj_indices, g.adj_edge
    tree_src = -1
    # Grouped by source (stably), so one shortest-path tree is alive at a time.
    for i in np.argsort(qs[:, 0], kind="stable").tolist():
        src, dst = int(qs[i, 0]), int(qs[i, 1])
        if src == dst:
            continue
        if src != tree_src:
            tree_src, (dist, pred) = src, _shortest_path_tree(g, src)
        if not np.isfinite(dist[dst]):
            unreachable.append(i)
            continue
        y = dst
        while y != src:
            x = pred[y]
            row = indices[indptr[y] : indptr[y + 1]]
            pos = int(np.searchsorted(row, x))
            counts[edge_of[indptr[y] + pos]] += 1.0
            y = int(x)
    skipped = [(int(qs[i, 0]), int(qs[i, 1])) for i in sorted(unreachable)]
    return g.with_edge_weights(counts), skipped
