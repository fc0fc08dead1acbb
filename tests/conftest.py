"""Shared builders and hypothesis strategies for the test suite."""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np

from linepart import _work
from linepart.graph import Graph
from linepart.ordering import Ordering


def make_graph(edges, n=None, weights=None, vertex_weights=None, geo=None) -> Graph:
    """Graph from an edge list of (u, v) pairs; unit weights by default."""
    us = [e[0] for e in edges]
    vs = [e[1] for e in edges]
    ws = list(weights) if weights is not None else [1.0] * len(edges)
    nn = n if n is not None else (max(max(us), max(vs)) + 1 if edges else 0)
    return Graph.from_arcs(
        np.array(us, dtype=np.int64),
        np.array(vs, dtype=np.int64),
        np.array(ws, dtype=np.float64),
        [str(i) for i in range(nn)],
        np.array(vertex_weights, dtype=np.float64) if vertex_weights is not None else None,
        geo,
    )


def force_workers(monkeypatch, workers: int) -> None:
    """Make ``_work.share`` see ``workers`` cores."""
    monkeypatch.setattr(_work, "core_count", lambda: workers)


def fail_block(monkeypatch, module, block: int) -> None:
    """Make block ``block`` of every ``share`` call in ``module`` raise
    RuntimeError("block failed") in place of its work."""
    share = module.share

    def failing_share(work, blocks):
        def work_or_fail(i):
            if i == block:
                raise RuntimeError("block failed")
            work(i)

        return share(work_or_fail, blocks)

    monkeypatch.setattr(module, "share", failing_share)


def path_graph(n: int) -> Graph:
    return make_graph([(i, i + 1) for i in range(n - 1)], n=n)


def random_graph(rng: np.random.Generator, n: int, m: int, weighted=False) -> Graph:
    eu = rng.integers(0, n, m)
    ev = rng.integers(0, n, m)
    keep = eu != ev
    w = rng.integers(1, 5, int(keep.sum())).astype(float) if weighted else np.ones(int(keep.sum()))
    return Graph.from_arcs(eu[keep], ev[keep], w, [str(i) for i in range(n)])


@st.composite
def small_graph_and_order(draw, max_n=10, max_m=20, weighted=False, vertex_weighted=False):
    """A small graph and a random ordering of it. ``weighted`` draws edge
    weights in [0, 9]; ``vertex_weighted`` draws vertex weights in [1e-3, 1e3]."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    edges = [e for e in draw(st.lists(pairs, min_size=m, max_size=m)) if e[0] != e[1]]
    if weighted:
        ws = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=9.0, allow_nan=False),
                min_size=len(edges),
                max_size=len(edges),
            )
        )
    else:
        ws = [1.0] * len(edges)
    vw = None
    if vertex_weighted:
        vw = draw(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=n, max_size=n))
    g = make_graph(edges, n=n, weights=ws, vertex_weights=vw)
    perm = draw(st.permutations(list(range(n))))
    return g, Ordering.from_vertex_at(np.array(perm, dtype=np.int64))
