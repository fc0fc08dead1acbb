"""File format round trips, determinism, and atomic writes."""

import io as stdio

import numpy as np
import pytest

from linepart.boundary import SplitPoints
from linepart.graph import GraphFormatError, Partition
from linepart.io import (
    load_graph,
    load_ordering,
    load_partition,
    load_queries,
    write_graph,
    write_ordering,
    write_partition,
    write_splits,
)
from linepart.ordering import Ordering

from conftest import make_graph


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
