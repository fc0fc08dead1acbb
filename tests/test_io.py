"""File format round trips, determinism, and atomic writes."""

import io as stdio
import sys
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import linepart.io as linepart_io
from linepart.boundary import SplitPoints
from linepart.graph import GraphFormatError, Partition
from linepart.io import (
    load_graph,
    load_ordering,
    load_partition,
    load_queries,
    write_graph,
    write_hierarchy,
    write_ordering,
    write_partition,
    write_splits,
)
from linepart.ordering import Ordering, affinity_ordering

from conftest import make_graph, random_graph


def test_partition_round_trip(tmp_path):
    g = make_graph([(0, 1), (1, 2), (2, 3)])
    p = Partition.from_assignment(np.array([0, 0, 1, 1]), 2, g)
    path = tmp_path / "part.tsv"
    write_partition(g, p, path)
    loaded = load_partition(g, path)
    assert loaded == p


def test_single_vertex_partition_row(tmp_path):
    g = make_graph([], n=1)
    g.external_ids[0] = "v0"
    p = Partition.from_assignment(np.array([0]), 1, g)
    buf = stdio.StringIO()
    write_partition(g, p, buf)
    assert buf.getvalue() == "v0\t0\n"


def test_ordering_round_trip(tmp_path):
    g = make_graph([(0, 1), (1, 2)], n=4)
    o = Ordering.from_vertex_at(np.array([2, 0, 3, 1]))
    path = tmp_path / "ord.tsv"
    write_ordering(g, o, path)
    assert load_ordering(g, path) == o


def test_graph_write_load_idempotent(tmp_path):
    g = load_graph(stdio.StringIO("b\ta\t2\na\tb\t1\nc\ta\t0.5\n"))
    p1 = tmp_path / "g1.tsv"
    p2 = tmp_path / "g2.tsv"
    write_graph(g, p1)
    g2 = load_graph(p1)
    write_graph(g2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert g2.edge_count == g.edge_count
    assert g2.total_edge_weight == g.total_edge_weight


def test_space_separated_rows_load_like_tab_separated():
    # fields split on any run of whitespace
    tabbed = load_graph(
        stdio.StringIO("a\tb\nb\tc\t2\n"), stdio.StringIO("a\t3\nc\t40.5\t-73.5\n")
    )
    spaced = load_graph(
        stdio.StringIO("a b\nb  c 2\n"), stdio.StringIO("a 3\nc \t40.5  -73.5\n")
    )
    assert spaced.external_ids == tabbed.external_ids
    assert spaced.vertex_weights.tolist() == tabbed.vertex_weights.tolist()
    assert spaced.edge_u.tolist() == tabbed.edge_u.tolist()
    assert spaced.edge_v.tolist() == tabbed.edge_v.tolist()
    assert spaced.edge_w.tolist() == tabbed.edge_w.tolist() == [1.0, 2.0]
    np.testing.assert_array_equal(spaced.geo, tabbed.geo)


def test_write_partition_sorted_and_deterministic(tmp_path):
    g = load_graph(stdio.StringIO("zz\tmm\nmm\taa\n"))
    p = Partition.from_assignment(np.array([0, 1, 1]), 2, g)
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    write_partition(g, p, a)
    write_partition(g, p, b)
    assert a.read_bytes() == b.read_bytes()
    names = [line.split("\t")[0] for line in a.read_text().splitlines()]
    assert names == sorted(names)


def test_write_splits(tmp_path):
    path = tmp_path / "splits.txt"
    write_splits(SplitPoints(np.array([0, 3, 7]), 0.1), path)
    assert path.read_text() == "0\n3\n7\n"


def test_atomic_write_no_partial_output(tmp_path):
    g = make_graph([(0, 1)])
    p = Partition.from_assignment(np.array([0, 1]), 2, g)
    target = tmp_path / "missing-dir" / "part.tsv"
    with pytest.raises(OSError):
        write_partition(g, p, target)
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []  # no stray temp files


def test_load_partition_errors():
    g = make_graph([(0, 1)])
    with pytest.raises(GraphFormatError, match=":1:.*unknown"):
        load_partition(g, stdio.StringIO("nope\t0\n"))
    with pytest.raises(GraphFormatError, match="no part assignment"):
        load_partition(g, stdio.StringIO("0\t0\n"))
    with pytest.raises(GraphFormatError, match=":2:"):
        load_partition(g, stdio.StringIO("0\t0\n1\tx\n"))


def test_load_ordering_requires_permutation():
    g = make_graph([(0, 1)], n=3)
    with pytest.raises(GraphFormatError, match="permutation"):
        load_ordering(g, stdio.StringIO("0\t0\n1\t0\n2\t2\n"))


@pytest.mark.parametrize("loader", [load_partition, load_ordering])
@pytest.mark.parametrize("value", ["99999999999999999999", "3", "-1"])
def test_id_value_outside_vertex_range_rejected_at_its_line(loader, value):
    # values must lie in [0, n): a 20-digit one no longer overflows the
    # int64 store, and no part id can ask for more than n parts
    g = make_graph([(0, 1)], n=3)
    rows = f"0\t0\n1\t1\n2\t{value}\n"
    with pytest.raises(GraphFormatError, match=rf":3: .* {value} is outside \[0, 3\)"):
        loader(g, stdio.StringIO(rows))


def test_id_value_at_top_of_range_accepted():
    g = make_graph([(0, 1)], n=3)
    p = load_partition(g, stdio.StringIO("0\t2\n1\t0\n2\t2\n"))
    assert p.k == 3 and p.assignment.tolist() == [2, 0, 2]
    o = load_ordering(g, stdio.StringIO("0\t2\n1\t0\n2\t1\n"))
    assert o.rank_of.tolist() == [2, 0, 1]


def test_load_queries():
    g = make_graph([(0, 1)])
    qs = load_queries(g, stdio.StringIO("0\t1\n1\t0\n"))
    assert qs.tolist() == [[0, 1], [1, 0]]
    with pytest.raises(GraphFormatError, match=":1:.*'9'"):
        load_queries(g, stdio.StringIO("0\t9\n"))


def test_load_rejects_non_finite_weights():
    with pytest.raises(GraphFormatError, match="finite"):
        load_graph(stdio.StringIO("a\tb\tnan\n"))
    with pytest.raises(GraphFormatError, match="finite"):
        load_graph(stdio.StringIO("a\tb\n"), stdio.StringIO("a\tinf\n"))


# --- chunked loader against the row loop ----------------------------------

# every (edges, vertices) input that load_graph reads above
LOADER_INPUTS = [
    ("b\ta\t2\na\tb\t1\nc\ta\t0.5\n", None),
    ("a\tb\nb\tc\t2\n", "a\t3\nc\t40.5\t-73.5\n"),
    ("a b\nb  c 2\n", "a 3\nc \t40.5  -73.5\n"),
    ("zz\tmm\nmm\taa\n", None),
    ("a\tb\tnan\n", None),
    ("a\tb\n", "a\tinf\n"),
    # field counts that differ by row but total a multiple of the first's
    ("a b\nc\nd e 2\n", None),
    ("a b 1\nc d 1 2\ne f\n", None),
    ("a b\n", "a 1 2 3\nb\nc 4 5\n"),
    # ids on both sides of the canonical-decimal rule
    ("0 007\n+5 -1\n1e3 0\n999999999999999999 9223372036854775808\n7 007\n", None),
    ("7 8\n", "007 2\n7 3\n0 1\n"),
    # values on both sides of the fast float path
    (
        "a b 1e5\nb c 1E5\nc d .5\nd e 5.\ne f -0.0\nf g +1.5\ng h 1234567890123456\n"
        "h i 9876543210987654\ni j 0.1000000000000000055511\nj k 1e-400\n",
        "a 1e5 .5 5.\nb +1.5 -0.0 +1.5\nc 1234567890123456 1e-400 -0.1000000000000000055511\n",
    ),
    ("a b\n", "a -0.0\n"),
    ("a b\n", "a 1e-400\n"),
    ("a b .\n", None),
    ("a b -\n", None),
    ("a b 1.2.3\n", None),
    # CRLF and lone CR line ends: a stream's lines end at "\n" only
    ("a b 2\r\nb c\r\nc a 1\r\n", "a 1\r\nb 2 1 1\r\n"),
    ("a b 2\rb c\r", None),
    ("a b\rb c\r", "a\rb\r"),
    # a non-ASCII id
    ("\u00e9 b\nb c\n", "b 2\n\u00e9 3\n"),
]


def load_result(edges: str, vertices: str | None):
    """The loaded graph's arrays as exact bytes, or the format error text."""
    try:
        g = load_graph(
            stdio.StringIO(edges), None if vertices is None else stdio.StringIO(vertices)
        )
    except GraphFormatError as exc:
        return str(exc)
    geo = None if g.geo is None else g.geo.tobytes()
    arrays = (g.edge_u, g.edge_v, g.edge_w, g.vertex_weights)
    return g.external_ids, [(a.dtype, a.tobytes()) for a in arrays], geo


def row_loop_and_chunked(monkeypatch, edges, vertices, chunk_chars):
    """load_result by the row loop alone, then by chunks of chunk_chars."""
    with monkeypatch.context() as m:
        m.setattr(linepart_io, "_uniform_tokens", lambda lines: None)
        rows = load_result(edges, vertices)
    with monkeypatch.context() as m:
        m.setattr(linepart_io, "_CHUNK_CHARS", chunk_chars)
        chunked = load_result(edges, vertices)
    return rows, chunked


@pytest.mark.parametrize("chunk_chars", [1, 3, 7, 1 << 20])
@pytest.mark.parametrize("edges, vertices", LOADER_INPUTS)
def test_chunked_loader_matches_row_loop(monkeypatch, edges, vertices, chunk_chars):
    rows, chunked = row_loop_and_chunked(monkeypatch, edges, vertices, chunk_chars)
    assert chunked == rows


def test_uniform_chunks_skip_the_row_loop(monkeypatch):
    def no_rows(*args):
        raise AssertionError("row loop used")

    monkeypatch.setattr(linepart_io._GraphParts, "edge_rows", no_rows)
    monkeypatch.setattr(linepart_io._GraphParts, "vertex_rows", no_rows)
    monkeypatch.setattr(linepart_io, "_CHUNK_CHARS", 12)
    g = load_graph(
        stdio.StringIO("a b 2\r\nb\tc 0.5\r\nc  d 1e-6"),
        stdio.StringIO("d 2 10 20\nb 1 -90 180\na 3 0.5 -0.25\n"),
    )
    assert g.external_ids == ["d", "b", "a", "c"]
    assert g.vertex_weights.tolist() == [2.0, 1.0, 3.0, 1.0]
    assert g.edge_w.tolist() == [1e-06, 2.0, 0.5]


def test_chunked_loader_reads_paths_with_crlf(tmp_path, monkeypatch):
    path = tmp_path / "edges.tsv"
    path.write_bytes(b"a\tb\r\nb\tc\t2\r\n# note\r\nc\ta\t0.5")
    monkeypatch.setattr(linepart_io, "_CHUNK_CHARS", 5)
    g = load_graph(path)
    assert g.external_ids == ["a", "b", "c"]
    assert g.edge_w.tolist() == [1.0, 0.5, 2.0]
    path.write_bytes(b"a\tb\r\nb\tc\t2\r\nc\ta\t-1\r\n")
    with pytest.raises(GraphFormatError, match=r"edges.tsv:3: edge weight must be non-negative"):
        load_graph(path)


@pytest.mark.parametrize("end", ["\r\n", "\r"])
@pytest.mark.parametrize("chunk_chars", [1, 7, 1 << 20])
def test_path_line_ends_load_like_the_row_loop(tmp_path, monkeypatch, end, chunk_chars):
    # a path is read with universal newlines: a lone CR ends a line too
    edges, vertices = tmp_path / "edges.tsv", tmp_path / "vertices.tsv"
    edges.write_bytes(end.join(["7 8 2", "8 x", "x 7 .5", ""]).encode())
    vertices.write_bytes(end.join(["x 2 1.5 -2.", "7 3", "8 1 0 0"]).encode())

    def result():
        g = load_graph(edges, vertices)
        arrays = (g.edge_u, g.edge_v, g.edge_w, g.vertex_weights, g.geo)
        return g.external_ids, [a.tobytes() for a in arrays]

    with monkeypatch.context() as m:
        m.setattr(linepart_io, "_uniform_tokens", lambda text: None)
        rows = result()
    monkeypatch.setattr(linepart_io, "_CHUNK_CHARS", chunk_chars)
    assert result() == rows
    assert rows[0] == ["x", "7", "8"]
    edges.write_bytes(end.join(["7 8", "8 x -1"]).encode())
    message = r"edges.tsv:2: edge weight must be non-negative, got -1.0"
    with pytest.raises(GraphFormatError, match=message):
        load_graph(edges)


@pytest.mark.parametrize("chunk_chars", [1, 2, 3, 5, 8, 13, 21, 34, 55, 1 << 10, 1 << 20])
def test_ids_keep_one_internal_id_across_paths_and_files(monkeypatch, chunk_chars):
    # "17" and "x" are first seen in a chunk with a comment, which the row
    # loop parses (unless the chunk is a single line), then again in
    # chunks the byte path parses, in the vertex file and the edge file;
    # "9" and "007" are first seen in the edge file
    vertices = "# ids\n17 2\nx 3\n" + "".join(f"{v} 1\n" for v in ["17", "5", "x", "5"])
    edges = "17 x\n# more\n9 17\n" + "5 007\n007 9\nx 5\n17 9\n" * 3
    monkeypatch.setattr(linepart_io, "_CHUNK_CHARS", chunk_chars)
    seen = []
    for name in ("vertex_rows", "edge_rows"):
        rows = getattr(linepart_io._GraphParts, name)

        def spy(self, text, start, label, rows=rows):
            seen.append(text)
            return rows(self, text, start, label)

        monkeypatch.setattr(linepart_io._GraphParts, name, spy)
    g = load_graph(stdio.StringIO(edges), stdio.StringIO(vertices))
    assert g.external_ids == ["17", "x", "5", "9", "007"]
    assert g.vertex_weights.tolist() == [1.0, 1.0, 1.0, 1.0, 1.0]
    named = {(g.external_ids[u], g.external_ids[v]) for u, v in zip(g.edge_u, g.edge_v)}
    assert named == {("17", "x"), ("17", "9"), ("x", "5"), ("5", "007"), ("9", "007")}
    assert g.edge_w.tolist() == [1.0, 4.0, 3.0, 3.0, 3.0]
    if chunk_chars >= len(vertices):
        assert seen[0] == vertices  # first seen by the row loop


def test_loader_peak_memory_is_bounded_by_the_graph(tmp_path):
    # a 20k-vertex geometric-style input with coordinates and ~100k edges
    rng = np.random.default_rng(7)
    n, m = 20_000, 100_000
    lat, lng = 40.0 + rng.random(n), -74.0 + rng.random(n)
    (tmp_path / "v.tsv").write_text(
        "".join(f"{i}\t{a:.7f}\t{b:.7f}\n" for i, a, b in zip(range(n), lat, lng))
    )
    u = rng.integers(0, n, m)
    v = (u + rng.integers(1, 50, m)) % n
    (tmp_path / "e.tsv").write_text(
        "".join(f"{a}\t{b}\n" for a, b in zip(u.tolist(), v.tolist()))
    )
    tracemalloc.start()
    try:
        g = load_graph(tmp_path / "e.tsv", tmp_path / "v.tsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (
        g.edge_u, g.edge_v, g.edge_w, g.adj_indptr, g.adj_indices, g.adj_edge,
        g.adj_weights, g.vertex_weights, g.geo,
    )
    kept = sum(a.nbytes for a in arrays)
    kept += sys.getsizeof(g.external_ids) + sum(map(sys.getsizeof, g.external_ids))
    assert peak <= 2.5 * kept, (peak, kept)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["", "+", "-"]),
            st.text("0123456789", max_size=20),
            st.one_of(st.none(), st.text("0123456789", max_size=20)),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_byte_path_floats_are_float(parts):
    # every decimal the byte path parses itself is exactly float()'s value
    texts = [sign + a + ("" if b is None else "." + b) for sign, a, b in parts]
    texts = [t for t in texts if t.lstrip("+-").strip(".")] or ["0"]
    tokens = linepart_io._uniform_tokens("\n".join(texts) + "\n")
    values = tokens.floats(tokens.columns(0, 1))
    expected = np.array([float(t) for t in texts])
    assert values.tobytes() == expected.tobytes(), texts


IDS = st.sampled_from([
    "a", "b", "c", "x1", "x2", "17", "-3", "v.v",
    "0", "007", "+5", "-1", "1e3", "999999999999999999", "9223372036854775808", "\u00e9",
])
SEPARATORS = st.sampled_from(["\t", " ", "  ", " \t", "\t\t"])
# decimals on both sides of the fast path: exponents, bare dots, signs, a
# 16-digit mantissa below and one above 2**53, more digits than float64 holds
EDGE_VALUES = [
    "1e5", "1E5", ".5", "5.", "+1.5", "1234567890123456", "9876543210987654",
    "0.1000000000000000055511",
]
GOOD_WEIGHTS = st.one_of(
    st.floats(1e-6, 1e6).map(repr),
    st.integers(1, 9).map(str),
    st.sampled_from(["1e-6", *EDGE_VALUES]),
)
BAD_WEIGHTS = st.sampled_from(
    ["nan", "inf", "-inf", "-1", "-2.5e-3", "x", "1e400", "", "0", "-0.0", "1e-400", "."]
)
LAT = st.one_of(
    st.floats(-90, 90).map(repr),
    st.sampled_from([
        ".5", "5.", "-0.0", "+1.5", "1e-400", "1E1", "12.34567890123456",
        "-0.1000000000000000055511",
    ]),
)
LNG = st.floats(-180, 180).map(repr)
BAD_COORDS = st.sampled_from(["90.5", "-181", "nan", "inf", "n/a"])
NOISE = st.sampled_from(["", "  ", "\t", "# comment", "  # indented comment"])


@st.composite
def table(draw, good_row, bad_row=None):
    """Rows of whitespace-joined fields with noise lines mixed in; maybe one
    bad row in the later half; CRLF or LF endings, maybe no final one."""
    rows = draw(st.lists(good_row, max_size=30))
    if bad_row is not None and draw(st.booleans()):
        at = draw(st.integers(len(rows) // 2, len(rows)))
        rows.insert(at, draw(bad_row))
    lines = []
    for fields in rows:
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(NOISE))
        sep = draw(SEPARATORS)
        lead, trail = draw(st.sampled_from(["", " "])), draw(st.sampled_from(["", "\t"]))
        lines.append(lead + sep.join(fields) + trail)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines)
    if lines and draw(st.booleans()):
        text += end
    return text


EDGE_ROWS = st.one_of(
    st.tuples(IDS, IDS),
    st.tuples(IDS, IDS, GOOD_WEIGHTS),
)
BAD_EDGE_ROWS = st.one_of(
    st.tuples(IDS, IDS, BAD_WEIGHTS).map(lambda r: [f for f in r if f]),
    st.tuples(IDS),
    st.tuples(IDS, IDS, GOOD_WEIGHTS, GOOD_WEIGHTS),
)
VERTEX_ROWS = st.one_of(
    st.tuples(IDS),
    st.tuples(IDS, GOOD_WEIGHTS),
    st.tuples(IDS, LAT, LNG),
    st.tuples(IDS, GOOD_WEIGHTS, LAT, LNG),
)
BAD_VERTEX_ROWS = st.one_of(
    st.tuples(IDS, BAD_WEIGHTS).map(lambda r: [f for f in r if f]),
    st.tuples(IDS, BAD_WEIGHTS, LAT, LNG).map(lambda r: [f for f in r if f]),
    st.tuples(IDS, BAD_COORDS, LNG),
    st.tuples(IDS, LAT, BAD_COORDS),
    st.tuples(IDS, GOOD_WEIGHTS, LAT, LNG, LNG),
)


@settings(max_examples=300, deadline=None)
@given(edges=table(EDGE_ROWS, BAD_EDGE_ROWS), chunk_chars=st.integers(1, 64))
def test_chunked_loader_matches_row_loop_on_random_edge_files(edges, chunk_chars):
    with pytest.MonkeyPatch.context() as monkeypatch:
        rows, chunked = row_loop_and_chunked(monkeypatch, edges, None, chunk_chars)
    assert chunked == rows


@settings(max_examples=300, deadline=None)
@given(
    vertices=table(VERTEX_ROWS, BAD_VERTEX_ROWS),
    edges=table(EDGE_ROWS),
    chunk_chars=st.integers(1, 64),
)
def test_chunked_loader_matches_row_loop_on_random_vertex_files(
    vertices, edges, chunk_chars
):
    with pytest.MonkeyPatch.context() as monkeypatch:
        rows, chunked = row_loop_and_chunked(monkeypatch, edges, vertices, chunk_chars)
        assert chunked == rows
        if isinstance(rows, str):
            return
        monkeypatch.setattr(linepart_io, "_CHUNK_CHARS", chunk_chars)
        g = load_graph(stdio.StringIO(edges), stdio.StringIO(vertices))
    # each value comes from the last vertex row that gives it
    weight, coords = {}, {}
    for line in vertices.splitlines():
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            if len(fields) in (2, 4):
                weight[fields[0]] = float(fields[1])
            if len(fields) >= 3:
                coords[fields[0]] = [float(fields[-2]), float(fields[-1])]
    assert g.vertex_weights.tolist() == [weight.get(v, 1.0) for v in g.external_ids]
    assert (g.geo is None) == (not coords)
    if coords:
        expected = [coords.get(v, [np.nan, np.nan]) for v in g.external_ids]
        np.testing.assert_array_equal(g.geo, expected)


# --- writers against one row per write call --------------------------------


def per_row_writes(g, values):
    """The rows as written one fh.write per vertex, in external-id order."""
    fh = stdio.StringIO()
    for v in sorted(range(g.n), key=lambda v: g.external_ids[v]):
        fh.write(f"{g.external_ids[v]}\t{values[v]}\n")
    return fh.getvalue()


def test_writers_match_per_row_writes():
    g = random_graph(np.random.default_rng(5), 40, 90)
    g.external_ids[:] = [f"id{(7 * v) % 40}" for v in range(40)]
    p = Partition.from_assignment(np.arange(40) % 3, 3, g)
    o = Ordering.from_vertex_at(np.random.default_rng(6).permutation(40))
    _, hierarchy = affinity_ordering(g)
    paths = ["/".join(g.external_ids[r] for r in label) for label in hierarchy.labels]
    for write, obj, values in [
        (write_partition, p, p.assignment),
        (write_ordering, o, o.rank_of),
        (write_hierarchy, hierarchy, paths),
    ]:
        buf = stdio.StringIO()
        write(g, obj, buf)
        assert buf.getvalue() == per_row_writes(g, values)
