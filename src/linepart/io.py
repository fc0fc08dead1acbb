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

Files are read in chunks of whole lines. A path is read with universal
newlines; a stream's lines end at each ``\n`` of the text it returns.

The graph loader parses a chunk from its bytes with array operations when
the chunk is ASCII, holds no ``#`` and no control character other than
whitespace, and has one field count on every non-blank line. In such a
chunk:

* an id that is a canonical decimal (only digits, no leading zero, at most
  18 of them) is keyed by its value; any other id (``007``, ``+5``,
  ``1e3``, a 19-digit one) is keyed by a code from a dict of names. The row
  loop keys ids the same way, and the keys are numbered in first-seen order
  at the end, so ``external_ids`` keep their exact strings;
* a value ``[+-]digits[.digits]`` of at most 18 characters whose digits
  read as an integer M <= 2**53 is parsed as ``M / 10**places``: both are
  exact doubles, so the one division gives the correctly rounded value
  that ``float`` returns (Clinger's fast path). Any other value in the
  chunk (``1e5``, ``nan``, longer mantissas) goes through ``float``.

A chunk that fails any of these conditions, a ``float`` call or a value
check goes through the row loop, which words every format error, so an
anomalous chunk raises the same error at the same line either way.

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

# Input is read in runs of whole lines of about this many characters, so a
# chunk's transient arrays stay a few MiB whatever the file's size.
_CHUNK_CHARS = 1 << 18
# The ASCII characters that str.split() splits on.
_ASCII_SPACE = np.array([chr(c).isspace() for c in range(128)])
# Longest token the byte path parses: 18 digits fit an int64.
_DIGITS = 18
# Leading spaces of a chunk's byte buffer, so every token has a full
# _DIGITS-wide window of bytes ending at its last character.
_PAD = _DIGITS
_P10 = 10 ** np.arange(_DIGITS + 1, dtype=np.int64)
# Powers of ten as float64; each is exact, as is every mantissa up to 2**53,
# so mantissa / 10**places is one correctly rounded division.
_F10 = np.array([float(10**k) for k in range(_DIGITS + 1)])
_FAST_MANTISSA = 1 << 53


def _chunks(source: Source) -> Iterator[tuple[int, str]]:
    """Yield (number of the first line, text) in runs of whole lines of
    about ``_CHUNK_CHARS`` characters, in file order. Every run but the last
    ends with a newline."""
    path = isinstance(source, (str, Path))
    with open(source, "r", encoding="utf-8") if path else nullcontext(source) as fh:
        start, carry = 1, ""
        while block := fh.read(_CHUNK_CHARS):
            cut = block.rfind("\n") + 1
            if not cut:
                carry += block
                continue
            text, carry = carry + block[:cut], block[cut:]
            yield start, text
            start += text.count("\n")
        if carry:
            yield start, carry


def _line_rows(text: str, start: int) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for data rows; comments and blanks skip."""
    for lineno, line in enumerate(text.split("\n"), start=start):
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            yield lineno, fields


def _rows(source: Source) -> Iterator[tuple[int, list[str]]]:
    for start, text in _chunks(source):
        yield from _line_rows(text, start)


class _Tokens:
    """A chunk's tokens: their bounds in ``buf``, the chunk's ASCII bytes
    after ``_PAD`` spaces, and the number of fields on each line. Tokens are
    numbered in file order."""

    def __init__(self, text: str, buf: np.ndarray, starts, ends, fields: int):
        self.text, self.buf, self.fields = text, buf, fields
        self.starts, self.ends = starts, ends

    def columns(self, first: int, stop: int) -> np.ndarray:
        """Numbers of the tokens in fields first..stop-1 of every row."""
        numbers = np.arange(len(self.starts)).reshape(-1, self.fields)
        return numbers[:, first:stop].ravel()

    def words(self, at: np.ndarray) -> list[str]:
        """The tokens numbered ``at`` (increasing) as strings."""
        words = self.text.split()
        if len(at) == len(words):
            return words
        return list(map(words.__getitem__, at.tolist()))

    def digits(self, ends: np.ndarray, size: np.ndarray):
        """(bytes, live, digit, value) of the tokens of ``size`` characters
        that end at ``ends``, right-aligned in up to ``_DIGITS`` columns,
        one row per column: the bytes, which of them lie in the token,
        which of those are digits, and the token's digits read as one
        integer (multiply-add, column by column)."""
        width = max(1, min(int(size.max()), _DIGITS))
        column = np.arange(width)[:, None]
        win = self.buf[ends - width + column]
        live = column >= width - size
        digit = win - np.uint8(48)
        is_digit = (digit < 10) & live
        digit *= is_digit
        value = digit[0].astype(np.int64)
        for row in digit[1:]:
            value *= 10
            value += row
        return win, live, is_digit, value

    def keys(self, codes_of, at: np.ndarray) -> np.ndarray:
        """The id key of every token numbered ``at``: its value if it is a
        canonical decimal, else its name's code from ``codes_of``."""
        starts, ends = self.starts[at], self.ends[at]
        size = ends - starts
        _, live, is_digit, keys = self.digits(ends, size)
        canonical = (is_digit == live).all(axis=0) & (size <= _DIGITS)
        canonical &= (self.buf[starts] != 48) | (size == 1)
        other = np.flatnonzero(~canonical)
        if len(other):
            keys[other] = codes_of(self.words(at[other]))
        return keys

    def floats(self, at: np.ndarray) -> np.ndarray | None:
        """``float`` of every token numbered ``at``, or None if one does not
        parse."""
        starts, ends = self.starts[at], self.ends[at]
        first = self.buf[starts]
        signed = (first == 43) | (first == 45)  # '+' or '-'
        size = ends - starts - signed
        win, live, is_digit, mantissa = self.digits(ends, size)
        is_dot = (win == 46) & live
        dots = is_dot.sum(axis=0)
        places = np.where(dots == 1, len(win) - 1 - is_dot.argmax(axis=0), 0)
        # the dot's column reads as a 0 digit: drop it
        mantissa = np.where(
            dots == 1,
            mantissa // _P10[places + 1] * _P10[places] + mantissa % _P10[places],
            mantissa,
        )
        fast = ((is_digit | is_dot) == live).all(axis=0) & (dots <= 1)
        fast &= (size > dots) & (size <= _DIGITS) & (mantissa <= _FAST_MANTISSA)
        value = mantissa / _F10[places]
        np.negative(value, out=value, where=first == 45)
        slow = np.flatnonzero(~fast)
        if len(slow):
            try:
                value[slow] = list(map(float, self.words(at[slow])))
            except ValueError:
                return None
        return value


def _uniform_tokens(text: str) -> _Tokens | None:
    """The tokens of a chunk whose non-blank lines all hold the same number
    of fields; None if the chunk has no field, a ``#``, a non-ASCII
    character or a control character that is not whitespace."""
    if not text.isascii() or "#" in text:
        return None
    buf = np.frombuffer(b" " * _PAD + text.encode("ascii") + b" ", np.uint8)
    sep = np.flatnonzero(buf <= 32)
    if not _ASCII_SPACE[buf[sep]].all():
        return None
    starts, ends = sep[:-1] + 1, sep[1:]
    token = ends > starts
    if not token.any():
        return None
    # line of each token: newlines up to the separator before it
    line = np.cumsum(buf[sep[:-1]] == 10)[token]
    fields = int(np.searchsorted(line, line[0], "right"))
    if len(line) % fields:
        return None
    rows = line.reshape(-1, fields)  # non-decreasing, so a row is one line
    if (rows[:, 0] != rows[:, -1]).any() or (rows[1:, 0] == rows[:-1, -1]).any():
        return None
    return _Tokens(text, buf, starts[token], ends[token], fields)


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


def _extend(store: array, values: np.ndarray) -> None:
    """Append the int64 or float64 ``values``, in row order, to ``store``."""
    store.frombytes(np.ascontiguousarray(values).reshape(-1).view(np.uint8))


def _last_wins(out: np.ndarray, at: np.ndarray, values: array) -> np.ndarray:
    """``out`` after ``out[at[i]] = values row i`` for every i in order:
    where a vertex has several rows, the last one wins."""
    at_rev = at[::-1]
    rows_rev = np.frombuffer(values).reshape(len(at_rev), *out.shape[1:])[::-1]
    _, last = np.unique(at_rev, return_index=True)
    out[at_rev[last]] = rows_rev[last]
    return out


def _first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct keys in order of first appearance, the index of every
    key among them). Keys that span no more values than there are keys are
    numbered through an array indexed by key; sparser ones are sorted."""
    count = len(keys)
    if not count:
        return keys, keys
    low = int(keys.min())
    span = int(keys.max()) - low + 1
    if span > count:
        distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)
        number = np.empty(len(order), dtype=np.int64)
        number[order] = np.arange(len(order))
        return distinct[order], number[inverse]
    keys = keys - low
    first = np.full(span, count, dtype=np.int64)
    np.minimum.at(first, keys, np.arange(count))
    new = np.zeros(count, dtype=bool)
    new[first[first < count]] = True
    distinct = keys[new]
    number = first  # reused: distinct key -> its index
    number[distinct] = np.arange(len(distinct))
    return distinct + low, number[keys]


class _GraphParts:
    """Id keys, vertex values and arcs, filled chunk by chunk in file order.
    A chunk goes through ``*_chunk``, which parses it with array operations
    or declines it, or else through ``*_rows``, the row loop that words
    every format error. An id's key is its value if it is a canonical
    decimal, else the negative code of its name; ``graph`` numbers the keys
    in first-seen order. Values accumulate in growable arrays, so no
    per-chunk array outlives its chunk."""

    def __init__(self) -> None:
        self.codes: dict[str, int] = {}  # name -> negative key, first-seen
        self.rows = array("q")  # key of every vertex row
        self.weighted, self.weights = array("q"), array("d")  # row numbers, weights
        self.placed, self.coords = array("q"), array("d")  # row numbers, (lat, lng)
        self.ends, self.arc_w = array("q"), array("d")  # u0 v0 u1 v1 ..., arc weights

    def parse(self, source: Source, label: str, chunk, rows) -> None:
        for start, text in _chunks(source):
            tokens = _uniform_tokens(text)
            if tokens is None or not chunk(tokens):
                rows(text, start, label)
            del tokens  # keep one chunk's arrays alive at a time

    def codes_of(self, names: list[str]) -> np.ndarray:
        """The codes of ``names``; unseen names get the next free ones."""
        codes = self.codes
        for name in filterfalse(codes.__contains__, names):
            codes[name] = ~len(codes)
        return np.fromiter(map(codes.__getitem__, names), np.int64, len(names))

    def key(self, name: str) -> int:
        """The key of an id read by the row loop, as the byte path keys it."""
        if (
            name.isdigit()
            and name.isascii()
            and len(name) <= _DIGITS
            and (name[0] != "0" or len(name) == 1)
        ):
            return int(name)
        return self.codes.setdefault(name, ~len(self.codes))

    def vertex_chunk(self, tokens: _Tokens) -> bool:
        fields = tokens.fields
        if fields > 4:
            return False
        if fields > 1:
            values = tokens.floats(tokens.columns(1, fields))
            if values is None:
                return False
            values = values.reshape(-1, fields - 1)
            weight, coords = values[:, 0], values[:, -2:]
            if fields in (2, 4) and not (np.isfinite(weight) & (weight > 0)).all():
                return False
            if fields >= 3 and not (np.abs(coords) <= (90.0, 180.0)).all():
                return False
        row = np.arange(len(self.rows), len(self.rows) + len(tokens.starts) // fields)
        _extend(self.rows, tokens.keys(self.codes_of, tokens.columns(0, 1)))
        if fields in (2, 4):
            _extend(self.weighted, row)
            _extend(self.weights, weight)
        if fields >= 3:
            _extend(self.placed, row)
            _extend(self.coords, coords)
        return True

    def vertex_rows(self, text: str, start: int, label: str) -> None:
        for lineno, fields in _line_rows(text, start):
            if len(fields) not in (1, 2, 3, 4):
                raise GraphFormatError(
                    f"{label}:{lineno}: expected 1-4 fields, got {len(fields)}"
                )
            row = len(self.rows)
            self.rows.append(self.key(fields[0]))
            if len(fields) in (2, 4):
                w = _parse_float(fields[1], "vertex weight", label, lineno)
                if w <= 0:
                    raise GraphFormatError(
                        f"{label}:{lineno}: vertex weight must be positive, got {w}"
                    )
                self.weighted.append(row)
                self.weights.append(w)
            if len(fields) >= 3:
                lat = _parse_float(fields[-2], "latitude", label, lineno)
                lng = _parse_float(fields[-1], "longitude", label, lineno)
                if not (-90.0 <= lat <= 90.0) or not (-180.0 <= lng <= 180.0):
                    raise GraphFormatError(
                        f"{label}:{lineno}: coordinates ({lat}, {lng}) out of range"
                    )
                self.placed.append(row)
                self.coords.extend((lat, lng))

    def edge_chunk(self, tokens: _Tokens) -> bool:
        if tokens.fields == 3:
            weight = tokens.floats(tokens.columns(2, 3))
            if weight is None or not (np.isfinite(weight) & (weight >= 0)).all():
                return False
        elif tokens.fields == 2:
            weight = np.ones(len(tokens.starts) // 2)
        else:
            return False
        _extend(self.ends, tokens.keys(self.codes_of, tokens.columns(0, 2)))
        _extend(self.arc_w, weight)
        return True

    def edge_rows(self, text: str, start: int, label: str) -> None:
        for lineno, fields in _line_rows(text, start):
            if len(fields) not in (2, 3):
                raise GraphFormatError(
                    f"{label}:{lineno}: expected 'u v [weight]', got {len(fields)} fields"
                )
            self.ends.append(self.key(fields[0]))
            self.ends.append(self.key(fields[1]))
            w = 1.0
            if len(fields) == 3:
                w = _parse_float(fields[2], "edge weight", label, lineno)
                if w < 0:
                    raise GraphFormatError(
                        f"{label}:{lineno}: edge weight must be non-negative, got {w}"
                    )
            self.arc_w.append(w)

    def graph(self) -> Graph:
        rows = len(self.rows)
        keys = np.concatenate(
            [np.frombuffer(self.rows, np.int64), np.frombuffer(self.ends, np.int64)]
        )
        self.rows = self.ends = None  # keys holds them now
        distinct, ids = _first_seen(keys)
        del keys
        code_names = list(self.codes)
        names = [code_names[~k] if k < 0 else str(k) for k in distinct.tolist()]
        n = len(names)
        weighted = ids[np.frombuffer(self.weighted, np.int64)]
        weights = _last_wins(np.ones(n), weighted, self.weights)
        geo = None
        if self.placed:
            placed = ids[np.frombuffer(self.placed, np.int64)]
            geo = _last_wins(np.full((n, 2), np.nan), placed, self.coords)
        ends = ids[rows:]
        return Graph.from_arcs(
            ends[0::2], ends[1::2], np.frombuffer(self.arc_w), names, weights, geo
        )


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
