"""Shortest-augmenting-path max flow against brute-force minimum cuts."""

import itertools

import numpy as np
import pytest

from linepart.maxflow import FlowNetwork


def random_network(rng, n, m, capacity):
    """Arc arrays on n vertices (0 the source, n-1 the sink); about a third
    of the forward and reverse capacities are zero."""
    tail = rng.integers(0, n, m)
    head = rng.integers(0, n, m)
    keep = tail != head
    tail, head = tail[keep], head[keep]
    cap = np.where(rng.random(len(tail)) < 0.3, 0.0, capacity(len(tail)))
    cap_rev = np.where(rng.random(len(tail)) < 0.6, 0.0, capacity(len(tail)))
    return tail, head, cap, cap_rev


def brute_min_cuts(n, tail, head, cap, cap_rev):
    """Every s-t cut as (capacity, source side), source 0 and sink n-1."""
    cuts = []
    for bits in range(1 << (n - 2)):
        side = np.array([True] + [bool((bits >> i) & 1) for i in range(n - 2)] + [False])
        value = cap[side[tail] & ~side[head]].sum() + cap_rev[side[head] & ~side[tail]].sum()
        cuts.append((float(value), side))
    return cuts


def test_flow_equals_brute_min_cut_with_float_capacities():
    rng = np.random.default_rng(3)

    def capacity(size):  # log-uniform over 1e-6 .. 1e6
        return 10.0 ** rng.uniform(-6, 6, size)

    for _ in range(150):
        n = int(rng.integers(2, 8))
        arrays = random_network(rng, n, int(rng.integers(0, 3 * n)), capacity)
        net = FlowNetwork(n, *arrays)
        flow, exceeded = net.max_flow(0, n - 1)
        best = min(value for value, _ in brute_min_cuts(n, *arrays))
        assert not exceeded
        # residuals at or below eps = 1e-12 * max(1, largest capacity) count
        # as saturated: each arc may leave up to eps of capacity unused
        eps = 1e-12 * max([1.0, *arrays[2], *arrays[3]])
        assert flow == pytest.approx(best, rel=1e-9, abs=2 * len(arrays[0]) * eps)


def test_source_side_is_smallest_min_cut_side_with_integer_capacities():
    rng = np.random.default_rng(4)

    def capacity(size):
        return rng.integers(1, 4, size).astype(float)

    for _ in range(150):
        n = int(rng.integers(2, 8))
        arrays = random_network(rng, n, int(rng.integers(0, 3 * n)), capacity)
        net = FlowNetwork(n, *arrays)
        flow, exceeded = net.max_flow(0, n - 1)
        cuts = brute_min_cuts(n, *arrays)
        best = min(value for value, _ in cuts)
        smallest = min((side for value, side in cuts if value == best), key=np.sum)
        assert not exceeded
        assert flow == best
        assert ((np.array(net.level) >= 0) == smallest).all()


def test_budget_of_one_augmentation_is_exceeded_by_two_paths():
    # s=0 -> 1 -> t=3 and s -> 2 -> t, each of capacity 1
    arrays = ([0, 1, 0, 2], [1, 3, 2, 3], [1.0] * 4, [0.0] * 4)
    assert FlowNetwork(4, *arrays).max_flow(0, 3, max_augmentations=1) == (1.0, True)
    assert FlowNetwork(4, *arrays).max_flow(0, 3) == (2.0, False)


def test_each_vertex_lists_its_arcs_in_arc_order():
    net = FlowNetwork(3, [1, 0, 1], [0, 2, 2], [1.0, 2.0, 3.0], [0.5, 0.0, 0.0])
    assert [net.arcs[net.first[u] : net.first[u + 1]] for u in range(3)] == [[1, 2], [0, 4], [3, 5]]
    assert net.to == [0, 1, 2, 0, 2, 1]
    assert net.cap == [1.0, 0.5, 2.0, 0.0, 3.0, 0.0]
    assert net.eps == 1e-12 * 3.0


def test_components_of_one_network_solve_one_at_a_time():
    # disjoint random networks, each at its own capacity scale, laid end to
    # end in one network and solved in turn with their own epsilon
    rng = np.random.default_rng(9)
    for _ in range(40):
        parts, offset = [], 0
        for _ in range(int(rng.integers(2, 6))):
            n = int(rng.integers(2, 8))
            scale = 2.0 ** int(rng.integers(-30, 30))  # sums stay exact

            def capacity(size):
                return scale * rng.integers(1, 4, size)

            arrays = random_network(rng, n, int(rng.integers(0, 3 * n)), capacity)
            parts.append((offset, n, arrays))
            offset += n
        net = FlowNetwork(offset, *(np.concatenate([a[i] + (o if i < 2 else 0)
                                                    for o, _, a in parts]) for i in range(4)))
        marks = []
        for o, n, arrays in parts:
            eps = 1e-12 * max([1.0, *arrays[2], *arrays[3]])
            flow, exceeded = net.max_flow(o, o + n - 1, eps=eps)
            cuts = brute_min_cuts(n, *arrays)
            best = min(value for value, _ in cuts)
            smallest = min((side for value, side in cuts if value == best), key=np.sum)
            assert not exceeded
            assert flow == best
            mark = np.array(net.level[o : o + n]) >= 0
            assert (mark == smallest).all()
            marks.append(mark)
        # a later component's flow left the earlier marks alone
        for (o, n, _), mark in zip(parts, marks):
            assert ((np.array(net.level[o : o + n]) >= 0) == mark).all()


def test_budget_that_the_flow_needs_exactly_is_not_exceeded():
    # two disjoint unit paths take two augmentations: a budget of two
    # completes the flow, a budget of one does not
    arrays = ([0, 1, 0, 2], [1, 3, 2, 3], [1.0] * 4, [0.0] * 4)
    assert FlowNetwork(4, *arrays).max_flow(0, 3, max_augmentations=2) == (2.0, False)
    assert FlowNetwork(4, *arrays).max_flow(0, 3, max_augmentations=1)[1] is True


def test_shortest_paths_keep_the_budget_at_the_path_count():
    # s=0 -> a=1 -> t=3 and s -> b=2 -> t at capacity 1000, plus a -> b at
    # capacity 1, listed before a -> t. Two shortest paths carry the whole
    # flow; a search that took the first arc out of a would push 1 along
    # s -> a -> b -> t and need a third path after it.
    arrays = ([0, 0, 1, 1, 2], [1, 2, 2, 3, 3], [1000.0, 1000.0, 1.0, 1000.0, 1000.0], [0.0] * 5)
    assert FlowNetwork(4, *arrays).max_flow(0, 3, max_augmentations=2) == (2000.0, False)
    assert FlowNetwork(4, *arrays).max_flow(0, 3, max_augmentations=1) == (1000.0, True)


def test_flow_after_an_exceeded_budget_completes_on_the_same_network():
    # A call that runs out of budget leaves no labels behind, so a second
    # call without a budget finishes the flow: the two values add up to the
    # minimum cut and the marks are its smallest source side.
    rng = np.random.default_rng(12)

    def capacity(size):
        return rng.integers(1, 4, size).astype(float)

    retried = 0
    for _ in range(200):
        n = int(rng.integers(2, 8))
        arrays = random_network(rng, n, int(rng.integers(0, 3 * n)), capacity)
        net = FlowNetwork(n, *arrays)
        first, exceeded = net.max_flow(0, n - 1, max_augmentations=1)
        if exceeded:
            assert net.level == [-1] * n
            retried += 1
        rest, exceeded_again = net.max_flow(0, n - 1)
        cuts = brute_min_cuts(n, *arrays)
        best = min(value for value, _ in cuts)
        smallest = min((side for value, side in cuts if value == best), key=np.sum)
        assert not exceeded_again
        assert first + rest == best
        if not exceeded:
            assert rest == 0.0
        assert ((np.array(net.level) >= 0) == smallest).all()
    assert retried > 20
