"""File ingestion and emission.

All formats are UTF-8 text with ``#``-prefixed comment lines skipped on
input. Writers separate fields with one tab. Readers split a row on any run
of whitespace (tabs, spaces, or a mix), so ``a b`` and ``b  c 2`` load like
their tab-separated forms, and an id cannot contain whitespace:

* edge list: ``u <tab> v [<tab> weight]`` (weight defaults to 1)
* vertex metadata: ``id [<tab> weight] [<tab> lat <tab> lng]``
* partition: ``external_id <tab> part``
* ordering: ``external_id <tab> rank``
* queries: ``src <tab> dst``

Writers sort rows by external id and emit byte-identical output for
identical inputs. Path sinks are written atomically (temp file + rename) so
a failure never leaves partial output.
"""

from __future__ import annotations

import math
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .boundary import SplitPoints
from .graph import Graph, GraphFormatError, Partition
from .ordering import AffinityHierarchy, Ordering

__all__ = [
    "load_graph",
    "load_partition",
    "load_ordering",
    "load_queries",
    "write_graph",
    "write_partition",
    "write_ordering",
    "write_splits",
    "write_hierarchy",
]

Source = str | Path | IO[str]
Sink = str | Path | IO[str]


def _rows(source: Source) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for data rows; comments and blanks skip."""
    if isinstance(source, (str, Path)):
        fh = open(source, "r", encoding="utf-8")
        close = True
    else:
        fh, close = source, False
    try:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line.split()
    finally:
        if close:
            fh.close()


def _source_label(source: Source, fallback: str) -> str:
    return str(source) if isinstance(source, (str, Path)) else fallback


@contextmanager
def _open_sink(sink: Sink):
    """Write-through for file objects; atomic temp-and-rename for paths."""
    if not isinstance(sink, (str, Path)):
        yield sink
        return
    path = Path(sink)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent) if str(path.parent) else ".",
        prefix=f".{path.name}.",
        suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _parse_float(text: str, what: str, label: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise GraphFormatError(
            f"{label}:{lineno}: cannot parse {what} {text!r}"
        ) from None
    if not math.isfinite(value):
        raise GraphFormatError(f"{label}:{lineno}: {what} must be finite, got {text!r}")
    return value


def load_graph(edge_source: Source, vertex_source: Source | None = None) -> Graph:
    """Load an undirected graph from an edge list, plus optional vertex rows.

    Directed or duplicated input arcs are symmetrized and merged by weight
    summation; self-loop rows are ignored. Vertices named only in the edge
    list get weight 1 and no coordinates. Dense internal ids follow
    first-seen order (vertex file first, then edge endpoints).
    """
    ids: dict[str, int] = {}
    externals: list[str] = []
    weights: list[float] = []
    geo_rows: list[tuple[float, float] | None] = []

    def intern(ext: str) -> int:
        idx = ids.get(ext)
        if idx is None:
            idx = len(externals)
            ids[ext] = idx
            externals.append(ext)
            weights.append(1.0)
            geo_rows.append(None)
        return idx

    if vertex_source is not None:
        label = _source_label(vertex_source, "<vertices>")
        for lineno, fields in _rows(vertex_source):
            if len(fields) not in (1, 2, 3, 4):
                raise GraphFormatError(
                    f"{label}:{lineno}: expected 1-4 fields, got {len(fields)}"
                )
            v = intern(fields[0])
            if len(fields) in (2, 4):
                w = _parse_float(fields[1], "vertex weight", label, lineno)
                if w <= 0:
                    raise GraphFormatError(
                        f"{label}:{lineno}: vertex weight must be positive, got {w}"
                    )
                weights[v] = w
            if len(fields) >= 3:
                lat = _parse_float(fields[-2], "latitude", label, lineno)
                lng = _parse_float(fields[-1], "longitude", label, lineno)
                if not (-90.0 <= lat <= 90.0) or not (-180.0 <= lng <= 180.0):
                    raise GraphFormatError(
                        f"{label}:{lineno}: coordinates ({lat}, {lng}) out of range"
                    )
                geo_rows[v] = (lat, lng)

    tails: list[int] = []
    heads: list[int] = []
    arc_w: list[float] = []
    label = _source_label(edge_source, "<edges>")
    for lineno, fields in _rows(edge_source):
        if len(fields) not in (2, 3):
            raise GraphFormatError(
                f"{label}:{lineno}: expected 'u v [weight]', got {len(fields)} fields"
            )
        u = intern(fields[0])
        v = intern(fields[1])
        w = 1.0
        if len(fields) == 3:
            w = _parse_float(fields[2], "edge weight", label, lineno)
            if w < 0:
                raise GraphFormatError(
                    f"{label}:{lineno}: edge weight must be non-negative, got {w}"
                )
        tails.append(u)
        heads.append(v)
        arc_w.append(w)

    geo = None
    if any(row is not None for row in geo_rows):
        geo = np.full((len(externals), 2), np.nan)
        for i, row in enumerate(geo_rows):
            if row is not None:
                geo[i] = row
    return Graph.from_arcs(
        np.array(tails, dtype=np.int64),
        np.array(heads, dtype=np.int64),
        np.array(arc_w, dtype=np.float64),
        externals,
        np.array(weights, dtype=np.float64),
        geo,
    )


def _load_vertex_values(
    g: Graph, source: Source, label: str, field: str, what: str
) -> np.ndarray:
    """Per-vertex values from ``id <tab> integer`` rows; -1 where no row
    names the vertex. A value outside [0, n) is rejected at its line, so no
    part id or rank can exceed the vertex count."""
    values = np.full(g.n, -1, dtype=np.int64)
    for lineno, fields in _rows(source):
        if len(fields) != 2:
            raise GraphFormatError(
                f"{label}:{lineno}: expected 'id {field}', got {len(fields)} fields"
            )
        try:
            v = g.internal_id(fields[0])
        except KeyError:
            raise GraphFormatError(
                f"{label}:{lineno}: unknown vertex {fields[0]!r}"
            ) from None
        try:
            value = int(fields[1])
        except ValueError:
            raise GraphFormatError(
                f"{label}:{lineno}: cannot parse {what} {fields[1]!r}"
            ) from None
        if not 0 <= value < g.n:
            raise GraphFormatError(
                f"{label}:{lineno}: {what} {value} is outside [0, {g.n})"
            )
        values[v] = value
    return values


def load_partition(g: Graph, source: Source) -> Partition:
    label = _source_label(source, "<partition>")
    assignment = _load_vertex_values(g, source, label, "part", "part id")
    if (assignment < 0).any():
        v = int(np.argmin(assignment))
        raise GraphFormatError(
            f"{label}: vertex {g.external_ids[v]!r} has no part assignment"
        )
    k = int(assignment.max(initial=-1)) + 1
    return Partition.from_assignment(assignment, k, g)


def load_ordering(g: Graph, source: Source) -> Ordering:
    label = _source_label(source, "<ordering>")
    rank_of = _load_vertex_values(g, source, label, "rank", "rank")
    if sorted(rank_of.tolist()) != list(range(g.n)):
        raise GraphFormatError(f"{label}: ranks are not a permutation of 0..n-1")
    return Ordering.from_rank_of(rank_of)


def load_queries(g: Graph, source: Source) -> np.ndarray:
    """(m, 2) internal-id pairs; unknown endpoints raise with the line."""
    label = _source_label(source, "<queries>")
    pairs: list[tuple[int, int]] = []
    for lineno, fields in _rows(source):
        if len(fields) != 2:
            raise GraphFormatError(
                f"{label}:{lineno}: expected 'src dst', got {len(fields)} fields"
            )
        try:
            s = g.internal_id(fields[0])
            t = g.internal_id(fields[1])
        except KeyError as exc:
            raise GraphFormatError(f"{label}:{lineno}: {exc.args[0]}") from None
        pairs.append((s, t))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def write_graph(g: Graph, sink: Sink) -> None:
    """Edge list ``u v weight``, one row per undirected edge, sorted by
    (external u, external v) with each edge's endpoints in sorted order."""
    rows = []
    for e in range(g.edge_count):
        a = g.external_ids[g.edge_u[e]]
        b = g.external_ids[g.edge_v[e]]
        if b < a:
            a, b = b, a
        rows.append((a, b, g.edge_w[e]))
    rows.sort()
    with _open_sink(sink) as fh:
        for a, b, w in rows:
            fh.write(f"{a}\t{b}\t{w:.12g}\n")


def write_partition(g: Graph, p: Partition, sink: Sink) -> None:
    order = sorted(range(g.n), key=lambda v: g.external_ids[v])
    with _open_sink(sink) as fh:
        for v in order:
            fh.write(f"{g.external_ids[v]}\t{p.assignment[v]}\n")


def write_ordering(g: Graph, o: Ordering, sink: Sink) -> None:
    order = sorted(range(g.n), key=lambda v: g.external_ids[v])
    with _open_sink(sink) as fh:
        for v in order:
            fh.write(f"{g.external_ids[v]}\t{o.rank_of[v]}\n")


def write_splits(splits: SplitPoints, sink: Sink) -> None:
    """One boundary index per line, from q_0 = 0 through q_k = n."""
    with _open_sink(sink) as fh:
        for value in splits.q:
            fh.write(f"{value}\n")


def write_hierarchy(g: Graph, hierarchy: AffinityHierarchy, sink: Sink) -> None:
    """Debug dump: ``external_id <tab> label path`` (representatives joined
    by '/', mapped to external ids)."""
    order = sorted(range(g.n), key=lambda v: g.external_ids[v])
    with _open_sink(sink) as fh:
        for v in order:
            path = "/".join(g.external_ids[r] for r in hierarchy.labels[v])
            fh.write(f"{g.external_ids[v]}\t{path}\n")
