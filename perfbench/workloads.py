"""Seeded input generators for the benchmark workloads.

The generators live here rather than in ``linepart.synth`` so that a change
to the library cannot silently change what the benchmark measures. Each
workload writes plain TSV files; the program under test sees nothing else.
Every edge list is simple (no self-loops, no duplicate pairs, unit weight),
so the loaded graph's edge count equals the number of rows written.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    alpha: float
    flags: tuple[str, ...]  # combine flags beyond --graph/--vertices/-k/--alpha/-o
    why: str


# geo-hilbert and cliques-dp cap the outer iterations. Uncapped, the number
# of passes varies from graph to graph (8-10 on geo-hilbert, 3-10 on
# cliques-dp) and run time with it; capped, each instance does a steadier
# amount of the same per-pass work and a run averages over more graphs. The
# cap costs some cut: up to 2% on geo-hilbert and up to 16% on cliques-dp
# in the instances measured.

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rmat-affinity", 64, 0.03, (),
            "hub-heavy power-law graph on the CLI defaults (affinity order, "
            "metric,swap,mincut): common-neighbour similarity does most of "
            "the work and the boundary windows are tiny",
        ),
        Workload(
            "geo-hilbert", 16, 0.05, ("--initial", "hilbert", "--max-iters", "4"),
            "random geometric graph with coordinates: similarity is bypassed "
            "and wide windows make median refinement and window mincut "
            "(max flow) dominate",
        ),
        Workload(
            "cliques-dp", 16, 0.05,
            ("--initial", "random", "--stages", "metric,swap,linopt,mincut,dp",
             "--blocks", "300", "--max-iters", "3"),
            "ring of cliques from a random order: the only workload that runs "
            "the contracted dp and the linopt window scan",
        ),
    )
}


@dataclass
class Inputs:
    """Generated files plus what the correctness gate needs to know."""

    edges: Path
    vertices: Path | None
    ids: np.ndarray  # external id (an integer) of every vertex
    edge_u: np.ndarray  # endpoints as external ids
    edge_v: np.ndarray


def _simple_edges(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop self-loops and duplicates; each pair once as (min, max), sorted."""
    keep = u != v
    lo = np.minimum(u[keep], v[keep])
    hi = np.maximum(u[keep], v[keep])
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
    return pairs[:, 0], pairs[:, 1]


def rmat_edges(scale: int, arcs: int, rng: np.random.Generator):
    """R-MAT arcs on 2^scale ids: one skewed quadrant choice per bit level,
    with quadrant probabilities (0.57, 0.19, 0.19, 0.05)."""
    u = np.zeros(arcs, dtype=np.int64)
    v = np.zeros(arcs, dtype=np.int64)
    for _ in range(scale):
        quad = rng.choice(4, size=arcs, p=[0.57, 0.19, 0.19, 0.05])
        u = (u << 1) | (quad >> 1)
        v = (v << 1) | (quad & 1)
    return _simple_edges(u, v)


def ring_of_cliques_edges(count: int, size: int):
    """``count`` cliques of ``size`` joined in a ring by single edges."""
    iu, iv = np.triu_indices(size, k=1)
    base = np.arange(count, dtype=np.int64)[:, None] * size
    u = (base + iu).ravel()
    v = (base + iv).ravel()
    ring_u = np.arange(count, dtype=np.int64) * size
    ring_v = (np.arange(count, dtype=np.int64) + 1) % count * size + size - 1
    return _simple_edges(np.concatenate([u, ring_u]), np.concatenate([v, ring_v]))


def geometric_points(n: int, mean_degree: float, rng: np.random.Generator):
    """Uniform points in a 1 x 1 degree box and the pairs closer than r.

    r is chosen so that a point away from the box edge has ``mean_degree``
    expected neighbours (n * pi * r^2 = mean_degree).
    """
    from scipy.spatial import cKDTree

    lat = 40.0 + rng.random(n)
    lng = -74.0 + rng.random(n)
    r = math.sqrt(mean_degree / (math.pi * n))
    pairs = cKDTree(np.stack([lat, lng], axis=1)).query_pairs(r, output_type="ndarray")
    u, v = _simple_edges(pairs[:, 0].astype(np.int64), pairs[:, 1].astype(np.int64))
    return lat, lng, u, v


def _write_edges(path: Path, u: np.ndarray, v: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"{a}\t{b}\n" for a, b in zip(u.tolist(), v.tolist())))


def generate(
    name: str, seed: int, instance: int, out_dir: Path, scale: float = 1.0
) -> Inputs:
    """Write instance ``instance`` of workload ``name`` for ``seed``.

    ``scale`` shrinks the vertex count for the smoke pass; 1.0 is the
    benchmark size.
    """
    # The name's CRC (stable, unlike the salted ``hash``) separates the
    # workloads' random streams for the same seed.
    rng = np.random.default_rng([seed, zlib.crc32(name.encode()), instance])
    out_dir.mkdir(parents=True, exist_ok=True)
    edges = out_dir / "edges.tsv"
    vertices = None
    if name == "rmat-affinity":
        log_n = max(6, round(14 + math.log2(scale)))
        u, v = rmat_edges(log_n, 16 << log_n, rng)
        ids = np.unique(np.concatenate([u, v]))
    elif name == "geo-hilbert":
        n = max(200, int(50_000 * scale))
        lat, lng, u, v = geometric_points(n, 10.0, rng)
        ids = np.arange(n, dtype=np.int64)
        vertices = out_dir / "vertices.tsv"
        with open(vertices, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("".join(
                f"{i}\t{a:.7f}\t{b:.7f}\n"
                for i, a, b in zip(ids.tolist(), lat.tolist(), lng.tolist())
            ))
    elif name == "cliques-dp":
        count = max(32, int(512 * scale))
        u, v = ring_of_cliques_edges(count, 16)
        # Relabel ids and shuffle rows, so the program's first-seen internal
        # ids (and with them the random initial order) depend on the seed.
        label = rng.permutation(count * 16).astype(np.int64)
        rows = rng.permutation(len(u))
        u, v = label[u[rows]], label[v[rows]]
        ids = np.sort(label)
    else:
        raise KeyError(f"unknown workload {name!r}")
    _write_edges(edges, u, v)
    return Inputs(edges, vertices, ids, u, v)


def properties(inputs: Inputs, w: Workload) -> dict:
    """Input properties the layers' costs depend on."""
    n = len(inputs.ids)
    index = np.searchsorted(inputs.ids, np.concatenate([inputs.edge_u, inputs.edge_v]))
    deg = np.bincount(index, minlength=n)
    return {
        "n": n,
        "m": len(inputs.edge_u),
        "max_degree": int(deg.max()),
        "wedges": int((deg * (deg - 1) // 2).sum()),
        "window_half_width": math.floor(w.alpha * n / (2 * w.k) + 1e-9),
    }
