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

The graph loader parses its input in chunks of whole lines. A chunk with no
comment, no blank line and one field count on every row is parsed with
array operations; any other chunk, or one that fails a value check, goes
through the row loop, which words every format error, so an anomalous
chunk raises the same error at the same line either way.

Writers sort rows by external id and emit byte-identical output for
identical inputs. Path sinks are written atomically (temp file + rename) so
a failure never leaves partial output.
"""

from __future__ import annotations

import math
import os
import tempfile
from array import array
from contextlib import contextmanager, nullcontext
from itertools import filterfalse
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

# Input is read in runs of whole lines of about this many characters. Small
# runs keep each chunk's transient strings and buffers small enough that the
# allocator reuses them, so loading does not raise the process's peak memory.
_CHUNK_CHARS = 1 << 15
# The ASCII characters that str.split() splits on.
_ASCII_SPACE = np.array([chr(c).isspace() for c in range(128)])


def _chunks(source: Source) -> Iterator[tuple[int, list[str]]]:
    """Yield (number of the first line, lines) in runs of whole lines of
    about ``_CHUNK_CHARS`` characters, in file order."""
    path = isinstance(source, (str, Path))
    with open(source, "r", encoding="utf-8") if path else nullcontext(source) as fh:
        start = 1
        while lines := fh.readlines(_CHUNK_CHARS):
            yield start, lines
            start += len(lines)


def _line_rows(lines: list[str], start: int) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for data rows; comments and blanks skip."""
    for lineno, raw in enumerate(lines, start=start):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


def _rows(source: Source) -> Iterator[tuple[int, list[str]]]:
    for start, lines in _chunks(source):
        yield from _line_rows(lines, start)


def _uniform_tokens(lines: list[str]) -> tuple[list[str], int] | None:
    """(all fields in row order, fields per row) of a chunk whose lines all
    hold the same positive number of fields; None if any line is blank or
    differs, or the chunk has a ``#`` or a non-ASCII character."""
    text = "".join(lines)
    if not text.isascii() or "#" in text:
        return None
    space = _ASCII_SPACE[np.frombuffer(text.encode("ascii"), np.uint8)]
    field_start = ~space
    field_start[1:] &= space[:-1]
    line_end = np.cumsum(np.fromiter(map(len, lines), np.int64, len(lines)))
    line_start = np.concatenate([[0], line_end[:-1]])
    counts = np.add.reduceat(field_start, line_start, dtype=np.int64)
    fields = int(counts[0])
    if fields == 0 or (counts != fields).any():
        return None
    return text.split(), fields


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


def _floats(texts: list[str]) -> np.ndarray | None:
    """``float`` of every text, or None if one does not parse."""
    try:
        return np.fromiter(map(float, texts), np.float64, len(texts))
    except ValueError:
        return None


def _last_wins(out: np.ndarray, at: array, values: array) -> np.ndarray:
    """``out`` after ``out[at[i]] = values row i`` for every i in order:
    where a vertex has several rows, the last one wins."""
    at_rev = np.frombuffer(at, np.int64)[::-1]
    rows_rev = np.frombuffer(values).reshape(len(at_rev), *out.shape[1:])[::-1]
    _, last = np.unique(at_rev, return_index=True)
    out[at_rev[last]] = rows_rev[last]
    return out


class _GraphParts:
    """Interned ids, vertex values and arcs, filled chunk by chunk in file
    order. A chunk goes through ``*_chunk``, which parses it with array
    operations or declines it, or else through ``*_rows``, the row loop
    that words every format error. Values accumulate in growable arrays,
    so no per-chunk array outlives its chunk."""

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}  # first-seen order
        self.weighted, self.weights = array("q"), array("d")  # vertex weight rows
        self.placed, self.coords = array("q"), array("d")  # vertex (lat, lng) rows
        self.ends, self.arc_w = array("q"), array("d")  # u0 v0 u1 v1 ..., arc weights

    def parse(self, source: Source, label: str, chunk, rows) -> None:
        for start, lines in _chunks(source):
            uniform = _uniform_tokens(lines)
            if uniform is None or not chunk(*uniform):
                rows(lines, start, label)
            del uniform  # keep one chunk's fields alive at a time

    def intern_all(self, names: list[str]) -> bytes:
        """The ids of ``names`` as int64 bytes; unseen names are interned in
        first-seen order."""
        ids = self.ids
        fresh = dict.fromkeys(filterfalse(ids.__contains__, names))
        ids.update(zip(fresh, range(len(ids), len(ids) + len(fresh))))
        return np.fromiter(map(ids.__getitem__, names), np.int64, len(names)).tobytes()

    def vertex_chunk(self, tokens: list[str], fields: int) -> bool:
        if fields > 4:
            return False
        weight = coords = None
        if fields in (2, 4):
            weight = _floats(tokens[1::fields])
            if weight is None or not (np.isfinite(weight) & (weight > 0)).all():
                return False
        if fields >= 3:
            lat = _floats(tokens[fields - 2 :: fields])
            lng = _floats(tokens[fields - 1 :: fields])
            if lat is None or lng is None:
                return False
            if not ((np.abs(lat) <= 90.0) & (np.abs(lng) <= 180.0)).all():
                return False
            coords = np.stack([lat, lng], axis=1)
        v = self.intern_all(tokens[0::fields])
        if weight is not None:
            self.weighted.frombytes(v)
            self.weights.frombytes(weight.tobytes())
        if coords is not None:
            self.placed.frombytes(v)
            self.coords.frombytes(coords.tobytes())
        return True

    def vertex_rows(self, lines: list[str], start: int, label: str) -> None:
        ids = self.ids
        for lineno, fields in _line_rows(lines, start):
            if len(fields) not in (1, 2, 3, 4):
                raise GraphFormatError(
                    f"{label}:{lineno}: expected 1-4 fields, got {len(fields)}"
                )
            v = ids.setdefault(fields[0], len(ids))
            if len(fields) in (2, 4):
                w = _parse_float(fields[1], "vertex weight", label, lineno)
                if w <= 0:
                    raise GraphFormatError(
                        f"{label}:{lineno}: vertex weight must be positive, got {w}"
                    )
                self.weighted.append(v)
                self.weights.append(w)
            if len(fields) >= 3:
                lat = _parse_float(fields[-2], "latitude", label, lineno)
                lng = _parse_float(fields[-1], "longitude", label, lineno)
                if not (-90.0 <= lat <= 90.0) or not (-180.0 <= lng <= 180.0):
                    raise GraphFormatError(
                        f"{label}:{lineno}: coordinates ({lat}, {lng}) out of range"
                    )
                self.placed.append(v)
                self.coords.extend((lat, lng))

    def edge_chunk(self, tokens: list[str], fields: int) -> bool:
        if fields not in (2, 3):
            return False
        weight = np.ones(len(tokens) // fields)
        if fields == 3:
            weight = _floats(tokens[2::3])
            if weight is None or not (np.isfinite(weight) & (weight >= 0)).all():
                return False
            del tokens[2::3]
        self.ends.frombytes(self.intern_all(tokens))
        self.arc_w.frombytes(weight.tobytes())
        return True

    def edge_rows(self, lines: list[str], start: int, label: str) -> None:
        ids = self.ids
        for lineno, fields in _line_rows(lines, start):
            if len(fields) not in (2, 3):
                raise GraphFormatError(
                    f"{label}:{lineno}: expected 'u v [weight]', got {len(fields)} fields"
                )
            self.ends.append(ids.setdefault(fields[0], len(ids)))
            self.ends.append(ids.setdefault(fields[1], len(ids)))
            w = 1.0
            if len(fields) == 3:
                w = _parse_float(fields[2], "edge weight", label, lineno)
                if w < 0:
                    raise GraphFormatError(
                        f"{label}:{lineno}: edge weight must be non-negative, got {w}"
                    )
            self.arc_w.append(w)

    def graph(self) -> Graph:
        n = len(self.ids)
        weights = _last_wins(np.ones(n), self.weighted, self.weights)
        geo = None
        if self.placed:
            geo = _last_wins(np.full((n, 2), np.nan), self.placed, self.coords)
        ends = np.frombuffer(self.ends, np.int64)
        arc_w = np.frombuffer(self.arc_w)
        return Graph.from_arcs(ends[0::2], ends[1::2], arc_w, list(self.ids), weights, geo)


def load_graph(edge_source: Source, vertex_source: Source | None = None) -> Graph:
    """Load an undirected graph from an edge list, plus optional vertex rows.

    Directed or duplicated input arcs are symmetrized and merged by weight
    summation; self-loop rows are ignored. Vertices named only in the edge
    list get weight 1 and no coordinates. Dense internal ids follow
    first-seen order (vertex file first, then edge endpoints). Where vertex
    rows repeat an id, each value comes from the last row that gives it.
    """
    parts = _GraphParts()
    if vertex_source is not None:
        label = _source_label(vertex_source, "<vertices>")
        parts.parse(vertex_source, label, parts.vertex_chunk, parts.vertex_rows)
    label = _source_label(edge_source, "<edges>")
    parts.parse(edge_source, label, parts.edge_chunk, parts.edge_rows)
    return parts.graph()


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
    # every value already lies in [0, n) or is -1 for a vertex with no row
    if (rank_of < 0).any() or (np.bincount(rank_of, minlength=g.n) != 1).any():
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


def _write_by_id(g: Graph, values: list, sink: Sink) -> None:
    """One ``external_id <tab> values[v]`` row per vertex v, the rows
    sorted by external id, written at once."""
    ext = g.external_ids
    order = sorted(range(g.n), key=ext.__getitem__)
    with _open_sink(sink) as fh:
        fh.write("".join([f"{ext[v]}\t{values[v]}\n" for v in order]))


def write_partition(g: Graph, p: Partition, sink: Sink) -> None:
    _write_by_id(g, p.assignment.tolist(), sink)


def write_ordering(g: Graph, o: Ordering, sink: Sink) -> None:
    _write_by_id(g, o.rank_of.tolist(), sink)


def write_splits(splits: SplitPoints, sink: Sink) -> None:
    """One boundary index per line, from q_0 = 0 through q_k = n."""
    with _open_sink(sink) as fh:
        for value in splits.q:
            fh.write(f"{value}\n")


def write_hierarchy(g: Graph, hierarchy: AffinityHierarchy, sink: Sink) -> None:
    """Debug dump: ``external_id <tab> label path`` (representatives joined
    by '/', mapped to external ids)."""
    ext = g.external_ids
    _write_by_id(g, ["/".join(ext[r] for r in path) for path in hierarchy.labels], sink)
