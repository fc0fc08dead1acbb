"""Dinic maximum flow on small dense-ish networks with float capacities.

Used for the two-terminal minimum cuts inside boundary windows. The network
is built once from arc arrays. Capacities are real-valued; residual arcs
below a scale-relative epsilon count as saturated so float drift cannot
stall termination. The number of BFS phases is bounded by the node count
regardless of capacity values. The last BFS of a completed flow, which no
longer reaches the sink, leaves ``level[v] >= 0`` exactly on the vertices
residual-reachable from the source: the minimal source side of a minimum
cut.
"""

from __future__ import annotations

from collections import deque

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
        arcs = np.argsort(origin, kind="stable").tolist()
        bounds = np.concatenate([[0], np.cumsum(np.bincount(origin, minlength=n))]).tolist()
        self.n = n
        self.to: list[int] = to.tolist()
        self.cap: list[float] = caps.tolist()
        self.adj = [arcs[bounds[u] : bounds[u + 1]] for u in range(n)]
        self.eps = 1e-12 * max(1.0, float(caps.max()) if len(caps) else 0.0)
        self.level = [-1] * n

    def max_flow(
        self, s: int, t: int, max_augmentations: int | None = None
    ) -> tuple[float, bool]:
        """Returns (flow value, budget_exceeded).

        The budget is exceeded only when the flow needs more than
        ``max_augmentations`` augmenting paths; the value then counts the
        first ``max_augmentations`` of them. When the flow completes,
        ``level[v] >= 0`` marks the vertices residual-reachable from s.
        """
        eps = self.eps
        flow = 0.0
        augmentations = 0
        level = self.level
        it = [0] * self.n
        while self._bfs(s, t, level, eps):
            it[:] = [0] * self.n
            while True:
                pushed = self._dfs(s, t, level, it, eps)
                if pushed <= 0.0:
                    break
                if augmentations == max_augmentations:
                    return flow, True
                flow += pushed
                augmentations += 1
        return flow, False

    def _bfs(self, s: int, t: int, level: list[int], eps: float) -> bool:
        for i in range(self.n):
            level[i] = -1
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for a in self.adj[u]:
                v = self.to[a]
                if level[v] < 0 and self.cap[a] > eps:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level[t] >= 0

    def _dfs(self, s: int, t: int, level: list[int], it: list[int], eps: float) -> float:
        """One augmenting path along the level graph, iteratively."""
        path: list[int] = []  # arc indices from s toward t
        u = s
        while True:
            if u == t:
                pushed = min(self.cap[a] for a in path)
                for a in path:
                    self.cap[a] -= pushed
                    self.cap[a ^ 1] += pushed
                return pushed
            advanced = False
            while it[u] < len(self.adj[u]):
                a = self.adj[u][it[u]]
                v = self.to[a]
                if self.cap[a] > eps and level[v] == level[u] + 1:
                    path.append(a)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if not advanced:
                if u == s:
                    return 0.0
                level[u] = -1  # dead end; prune
                last = path.pop()
                u = self.to[last ^ 1]  # back to the tail of the last arc
