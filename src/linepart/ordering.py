"""Initial linear embeddings: random, space-filling-curve, and affinity orders.

An ordering is a permutation of vertex ids; contiguous rank ranges of a good
ordering make cheap, low-cut parts. The affinity ordering builds a bottom-up
clustering (every cluster links to its highest-similarity neighbor each
round, linked components merge) and sorts vertices by their root-to-leaf
label paths so each cluster occupies a contiguous stretch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph import Graph
from .hilbert import hilbert_index

__all__ = [
    "Ordering",
    "AffinityHierarchy",
    "random_ordering",
    "hilbert_ordering",
    "affinity_ordering",
]

log = logging.getLogger(__name__)

AFFINITY_ROUND_CAP = 30  # > log2 of any practical vertex count


@dataclass
class Ordering:
    """A permutation of vertex ids with rank lookup in both directions."""

    vertex_at: np.ndarray  # rank -> vertex id
    rank_of: np.ndarray  # vertex id -> rank

    @classmethod
    def from_vertex_at(cls, vertex_at: np.ndarray) -> "Ordering":
        vertex_at = np.asarray(vertex_at, dtype=np.int64)
        n = len(vertex_at)
        rank_of = np.empty(n, dtype=np.int64)
        rank_of[vertex_at] = np.arange(n)
        return cls(vertex_at, rank_of)

    @classmethod
    def from_rank_of(cls, rank_of: np.ndarray) -> "Ordering":
        rank_of = np.asarray(rank_of, dtype=np.int64)
        n = len(rank_of)
        vertex_at = np.empty(n, dtype=np.int64)
        vertex_at[rank_of] = np.arange(n)
        return cls(vertex_at, rank_of)

    @classmethod
    def identity(cls, n: int) -> "Ordering":
        ids = np.arange(n, dtype=np.int64)
        return cls(ids.copy(), ids.copy())

    @property
    def n(self) -> int:
        return len(self.vertex_at)

    def validate(self) -> None:
        n = self.n
        if sorted(self.vertex_at.tolist()) != list(range(n)):
            raise ValueError("vertex_at is not a permutation")
        if not np.array_equal(self.vertex_at[self.rank_of], np.arange(n)):
            raise ValueError("rank_of is not the inverse of vertex_at")

    def copy(self) -> "Ordering":
        return Ordering(self.vertex_at.copy(), self.rank_of.copy())

    def __eq__(self, other) -> bool:
        return isinstance(other, Ordering) and np.array_equal(
            self.vertex_at, other.vertex_at
        )


@dataclass
class AffinityHierarchy:
    """Bottom-up cluster tree produced by the affinity ordering.

    ``levels[i]`` maps each vertex to the representative (minimum member id)
    of its cluster after round i; level 0 is all singletons.
    """

    levels: list[np.ndarray] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.levels)

    def cluster_counts(self) -> list[int]:
        return [np.count_nonzero(np.bincount(level)) for level in self.levels]

    @cached_property
    def labels(self) -> list[tuple[int, ...]]:
        """Each vertex's representative path from root to leaf, derived from
        ``levels`` on first use: a vertex gains one entry per round in which
        its cluster merged (its representative at that level, last level
        first), plus its own id as the leaf."""
        levels = self.levels
        n = len(levels[0])
        size = np.stack([np.bincount(lv, minlength=n)[lv] for lv in levels])
        keep = np.ones(size.shape, dtype=bool)
        keep[1:] = size[1:] > size[:-1]
        vals = np.stack(levels[::-1]).T[keep[::-1].T].tolist()
        ends = np.cumsum(keep.sum(axis=0)).tolist()
        return [tuple(vals[a:b]) for a, b in zip([0] + ends, ends)]


def random_ordering(g: Graph, seed: int) -> Ordering:
    """Uniformly random permutation, fully determined by the seed."""
    rng = np.random.default_rng(seed)
    return Ordering.from_vertex_at(rng.permutation(g.n).astype(np.int64))


def hilbert_ordering(g: Graph, curve_order: int = 16) -> Ordering:
    """Rank vertices along the Hilbert curve over their coordinates.

    The geo bounding box is scaled onto the 2^curve_order grid per axis, so
    the result is invariant under translation and uniform scaling of all
    coordinates. Curve-index ties break by ascending vertex id.
    """
    if g.geo is None:
        if g.n == 0:
            return Ordering.identity(0)
        raise ValueError(f"vertex {g.external_ids[0]!r} has no coordinates")
    bad = np.isnan(g.geo).any(axis=1)
    if bad.any():
        v = int(np.argmax(bad))
        raise ValueError(f"vertex {g.external_ids[v]!r} has no coordinates")

    side = (1 << curve_order) - 1

    def to_cells(coord: np.ndarray) -> np.ndarray:
        span = coord.max() - coord.min()
        if span <= 0:
            return np.zeros(len(coord), dtype=np.int64)
        scaled = (coord - coord.min()) / span * side
        return np.clip(np.rint(scaled).astype(np.int64), 0, side)

    xs = to_cells(g.geo[:, 1])  # longitude -> x
    ys = to_cells(g.geo[:, 0])  # latitude  -> y
    idx = hilbert_index(xs, ys, curve_order)
    vertex_at = np.argsort(idx, kind="stable")
    return Ordering.from_vertex_at(vertex_at)


def affinity_ordering(
    g: Graph, max_rounds: int = AFFINITY_ROUND_CAP
) -> tuple[Ordering, AffinityHierarchy]:
    """Agglomerative affinity clustering order.

    Per round every cluster selects its highest-similarity neighbor (ties to
    the neighbor with the smaller minimum member id); connected components of
    the undirected selection graph merge. Each cluster selects at most one
    neighbor, so the components are found by pointer jumping along the
    selections. Cluster-pair similarity is the mean of edge similarities
    between their members that are adjacent in ``g``.
    Each merged cluster's minimum member id is prepended to its members'
    labels; the final order sorts label paths lexicographically, then by id.

    Clusters with no positive-similarity neighbor make no selection and
    survive unmerged, so a graph of several components keeps each component
    contiguous in the output.

    Every round that merges logs ``affinity round R clusters C merged M``
    (tab-separated): C clusters remain after round R, and M of the clusters
    it started with joined another.
    """
    n = g.n
    cluster = np.arange(n, dtype=np.int64)  # representative = min member id
    hierarchy = AffinityHierarchy(levels=[cluster.copy()])

    eu, ev, ew = g.edge_u, g.edge_v, g.edge_w
    for round_index in range(1, max_rounds + 1):
        cu = cluster[eu]
        cv = cluster[ev]
        cross = cu != cv
        if not cross.any():
            break
        a = np.minimum(cu[cross], cv[cross])
        b = np.maximum(cu[cross], cv[cross])
        del cu, cv
        a *= n
        a += b
        del b
        uniq, inverse = np.unique(a, return_inverse=True)
        del a
        sums = np.bincount(inverse, weights=ew[cross], minlength=len(uniq))
        counts = np.bincount(inverse, minlength=len(uniq))
        del inverse, cross
        means = sums / counts
        pos = means > 0
        if not pos.any():
            break
        pa = uniq[pos] // n
        pb = uniq[pos] % n
        pw = means[pos]
        del uniq, sums, counts, means, pos

        # Best neighbor per cluster: max similarity, ties to smaller rep id.
        best = np.zeros(n)  # every candidate similarity is positive
        np.maximum.at(best, pa, pw)
        np.maximum.at(best, pb, pw)
        pick = np.full(n, n, dtype=np.int64)
        top = pw == best[pa]
        np.minimum.at(pick, pa[top], pb[top])
        top = pw == best[pb]
        np.minimum.at(pick, pb[top], pa[top])
        sel_src = np.flatnonzero(pick < n)
        sel_dst = pick[sel_src]

        # Components of the selection graph by pointer jumping: its only cycles
        # are mutual pairs (a longer one needs equal similarities and x[i+1] <
        # x[i-1] all round), so 2^t > m jumps reach the pair, labelled by its min.
        # the sorted representatives; a plain np.unique imports numpy.ma
        reps = np.flatnonzero(np.bincount(cluster, minlength=n))
        comp_of_rep = np.full(n, -1, dtype=np.int64)
        m = len(reps)
        sel = np.arange(m)
        sel[np.searchsorted(reps, sel_src)] = np.searchsorted(reps, sel_dst)
        comp = sel
        for _ in range(m.bit_length()):
            comp = comp[comp]
        comp = np.minimum(comp, sel[comp])
        comp_of_rep[reps] = comp

        # New representative per component: minimum member id.
        comp_min = np.full(m, n, dtype=np.int64)
        np.minimum.at(comp_min, comp, reps)
        comp_size = np.bincount(comp, minlength=m)

        merged = comp_size[comp_of_rep[cluster]] >= 2
        if not merged.any():
            break
        cluster[merged] = comp_min[comp_of_rep[cluster[merged]]]
        hierarchy.levels.append(cluster.copy())
        log.info(
            "affinity\tround\t%d\tclusters\t%d\tmerged\t%d",
            round_index,
            np.count_nonzero(comp_size),
            comp_size[comp_size >= 2].sum(),
        )

    # Keys from the last level to level 0 (the ids): a cluster's members
    # share its representatives, so they come out contiguous.
    vertex_at = np.lexsort(hierarchy.levels)
    return Ordering.from_vertex_at(vertex_at), hierarchy

