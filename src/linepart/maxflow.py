"""Maximum flow by shortest augmenting paths, with float capacities.

Used for the two-terminal minimum cuts inside boundary windows. The network
is built once from arc arrays and kept as flat CSR lists: the arcs of
vertex u are ``arcs[first[u]:first[u + 1]]``. A network may hold several
disjoint components, each with its own source and sink, and solve them one
``max_flow`` call each: a call touches only the vertices its BFS labels,
so it costs the size of its component, not of the network. Capacities are
real-valued; residual arcs below a scale-relative epsilon count as
saturated so float drift cannot stall termination. Each augmenting path
is a shortest one, found by a BFS that stops once it labels the sink, so
the number of paths is bounded by the node and arc counts regardless of
capacity values [Edmonds & Karp, JACM 1972]. The last BFS of a completed
flow, which no longer reaches the sink, leaves ``level[v] >= 0`` exactly
on the vertices residual-reachable from the source: the minimal source
side of a minimum cut.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FlowNetwork"]


class FlowNetwork:
    """Residual network on vertices 0..n-1 from arc arrays.

    Edge i gives arc 2i, tail[i] -> head[i] with capacity cap[i], and its
    reverse arc 2i+1 with capacity cap_rev[i]. Each vertex lists its
    outgoing arcs in arc order. ``level[v]`` is the arc by which the last
    BFS reached v, -1 if it did not reach v; the source holds 0.
    """

    def __init__(self, n: int, tail, head, cap, cap_rev):
        tail = np.asarray(tail, dtype=np.int64)
        head = np.asarray(head, dtype=np.int64)
        origin = np.stack([tail, head], axis=1).ravel()
        to = np.stack([head, tail], axis=1).ravel()
        caps = np.stack([np.asarray(cap, float), np.asarray(cap_rev, float)], axis=1).ravel()
        self.n = n
        self.to: list[int] = to.tolist()
        self.cap: list[float] = caps.tolist()
        self.arcs: list[int] = np.argsort(origin, kind="stable").tolist()
        self.first: list[int] = np.concatenate(
            [[0], np.cumsum(np.bincount(origin, minlength=n))]
        ).tolist()
        self.eps = 1e-12 * max(1.0, float(caps.max()) if len(caps) else 0.0)
        self.level = [-1] * n

    def max_flow(
        self, s: int, t: int, max_augmentations: int | None = None, eps: float | None = None
    ) -> tuple[float, bool]:
        """Returns (flow value, budget_exceeded).

        The budget is exceeded only when the flow needs more than
        ``max_augmentations`` augmenting paths; the value then counts the
        first ``max_augmentations`` of them, and only those are pushed.
        When the flow completes, ``level[v] >= 0`` marks the vertices
        residual-reachable from s.
        ``eps`` (default ``self.eps``) is the saturation threshold; a
        network of several components passes each component's own. The
        marks of other components are left as they are. A call whose budget
        runs out clears the labels it set, so its component may be solved
        again with a larger budget; the flow then continues from the
        residual capacities left behind. A component may be solved again
        only with the same s and t: a completed call's marks stay set.
        """
        if eps is None:
            eps = self.eps
        flow = 0.0
        augmentations = 0
        level, to, cap = self.level, self.to, self.cap
        seen: list[int] = []  # the vertices the last BFS labelled
        while self._bfs(s, t, seen, eps):
            if augmentations == max_augmentations:
                for v in seen:
                    level[v] = -1
                return flow, True
            path = []  # arc indices from t back toward s
            v = t
            while v != s:
                path.append(level[v])
                v = to[level[v] ^ 1]  # the tail of the arc that reached v
            pushed = min(cap[a] for a in path)
            for a in path:
                cap[a] -= pushed
                cap[a ^ 1] += pushed
            flow += pushed
            augmentations += 1
        return flow, False

    def _bfs(self, s: int, t: int, seen: list[int], eps: float) -> bool:
        """Label the residual network from s, stopping once t is labelled.

        Unlabels only what the previous BFS (``seen``) labelled, then
        refills ``seen``. Each labelled vertex keeps the arc it was first
        reached by, so the arcs back from t form a shortest path.
        """
        level, arcs, first, to, cap = self.level, self.arcs, self.first, self.to, self.cap
        for v in seen:
            level[v] = -1
        seen.clear()
        level[s] = 0
        seen.append(s)
        for u in seen:  # seen is the queue: it grows as the loop walks it
            for a in arcs[first[u] : first[u + 1]]:
                v = to[a]
                if level[v] < 0 and cap[a] > eps:
                    level[v] = a
                    seen.append(v)
                    if v == t:
                        return True
        return False
