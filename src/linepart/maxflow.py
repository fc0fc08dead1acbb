"""Dinic maximum flow on small dense-ish networks with float capacities.

Used for the two-terminal minimum cuts inside boundary windows. The network
is built once from arc arrays and kept as flat CSR lists: the arcs of
vertex u are ``arcs[first[u]:first[u + 1]]``. A network may hold several
disjoint components, each with its own source and sink, and solve them one
``max_flow`` call each: a call touches only the vertices its BFS labels,
so it costs the size of its component, not of the network. Capacities are
real-valued; residual arcs below a scale-relative epsilon count as
saturated so float drift cannot stall termination. The number of BFS
phases is bounded by the node count regardless of capacity values. A BFS
stops once it labels the sink. The last BFS of a completed flow, which no
longer reaches the sink, leaves ``level[v] >= 0`` exactly on the vertices
residual-reachable from the source: the minimal source side of a minimum
cut.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FlowNetwork"]


class FlowNetwork:
    """Residual network on vertices 0..n-1 from arc arrays.

    Edge i gives arc 2i, tail[i] -> head[i] with capacity cap[i], and its
    reverse arc 2i+1 with capacity cap_rev[i]. Each vertex lists its
    outgoing arcs in arc order.
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
        self._it = [0] * n  # each labelled vertex's next arc slot in a phase

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
        level, it, first, cap = self.level, self._it, self.first, self.cap
        seen: list[int] = []  # the vertices the last BFS labelled
        while self._bfs(s, t, seen, eps):
            for v in seen:
                it[v] = first[v]
            while True:
                pushed, path = self._dfs(s, t, level, it, eps)
                if pushed <= 0.0:
                    break
                if augmentations == max_augmentations:
                    for v in seen:
                        level[v] = -1
                    return flow, True
                for a in path:
                    cap[a] -= pushed
                    cap[a ^ 1] += pushed
                flow += pushed
                augmentations += 1
        return flow, False

    def _bfs(self, s: int, t: int, seen: list[int], eps: float) -> bool:
        """Level the residual network from s, stopping once t is labelled.

        Unlabels only what the previous BFS (``seen``) labelled, then
        refills ``seen``. Every vertex nearer s than t is labelled before
        t is, so the level graph's paths to t are all there.
        """
        level, arcs, first, to, cap = self.level, self.arcs, self.first, self.to, self.cap
        for v in seen:
            level[v] = -1
        seen.clear()
        level[s] = 0
        seen.append(s)
        for u in seen:  # seen is the queue: it grows as the loop walks it
            next_level = level[u] + 1
            for a in arcs[first[u] : first[u + 1]]:
                v = to[a]
                if level[v] < 0 and cap[a] > eps:
                    level[v] = next_level
                    seen.append(v)
                    if v == t:
                        return True
        return False

    def _dfs(
        self, s: int, t: int, level: list[int], it: list[int], eps: float
    ) -> tuple[float, list[int]]:
        """One augmenting path along the level graph, iteratively: its
        bottleneck and its arcs from s toward t, or (0.0, []) if none is
        left. The caller pushes the flow."""
        arcs, first, to, cap = self.arcs, self.first, self.to, self.cap
        path: list[int] = []  # arc indices from s toward t
        u = s
        while True:
            if u == t:
                return min(cap[a] for a in path), path
            advanced = False
            end = first[u + 1]
            while it[u] < end:
                a = arcs[it[u]]
                v = to[a]
                if cap[a] > eps and level[v] == level[u] + 1:
                    path.append(a)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if not advanced:
                if u == s:
                    return 0.0, path
                level[u] = -1  # dead end; prune
                last = path.pop()
                u = to[last ^ 1]  # back to the tail of the last arc
