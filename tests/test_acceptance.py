"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
Criterion 10 (full LiveJournal) is a non-gating stretch run and only
executes when LIVEJOURNAL_EDGES points at the public edge list.
"""

import math
import os
import time

import numpy as np
import pytest

from linepart.boundary import (
    contract_blocks,
    dp_partition,
    make_split_points,
)
from linepart.graph import Partition, check_balance, common_neighbors_similarity, cut_weight
from linepart.ordering import Ordering, affinity_ordering, random_ordering
from linepart.pipeline import PipelineConfig, combine
from linepart.refine import rank_swap_round
from linepart.synth import disjoint_cliques, erdos_renyi, ring_of_cliques, rmat

from conftest import random_graph
from test_boundary import (
    WindowRow,
    exhaustive_contiguous_cut,
    linopt_split,
    make_figure_instance,
    mincut_sides,
    naive_split_cost,
    naive_window_cost,
    two_parts,
)

NONMETRIC = ("swap", "linopt", "mincut", "dp")


# -- shared suite runs for criteria 7 and 8 ----------------------------------


def _suite_graphs():
    er = erdos_renyi(1600, 0.004, seed=0)
    return [
        ("cliques-2x32", disjoint_cliques(2, 32), 2),
        ("cliques-4x32", disjoint_cliques(4, 32), 4),
        ("cliques-8x32", disjoint_cliques(8, 32), 8),
        ("er-1600-k2", er, 2),
        ("er-1600-k4", er, 4),
        ("er-1600-k8", er, 8),
        ("ring-8x200", ring_of_cliques(8, 200), 8),
        ("rmat-1024-k4", rmat(10, 1 << 13, seed=3), 4),
    ]


@pytest.fixture(scope="module")
def suite_runs():
    runs = []
    for name, g, k in _suite_graphs():
        for alpha in (0.0, 0.03, 0.1):
            cfg = PipelineConfig(k=k, alpha=alpha, seed=0, max_outer_iters=4)
            runs.append((name, g, alpha, cfg, combine(g, cfg)))
    return runs


# -- criteria ------------------------------------------------------------------


def test_criterion_01_dp_matches_exhaustive_oracle():
    rng = np.random.default_rng(12345)
    cases = 0
    start = time.perf_counter()
    while cases < 200:
        n = int(rng.integers(4, 17))
        g = random_graph(rng, n, int(rng.integers(n, 3 * n)), weighted=True)
        cg = contract_blocks(g, Ordering.identity(n), n)
        k = int(rng.choice([2, 3, 4]))
        alpha = float(rng.choice([0.0, 0.25]))
        res = dp_partition(cg, k, alpha)
        best = exhaustive_contiguous_cut(g, Ordering.identity(n), np.arange(n + 1), k, alpha)
        if res.feasible:
            assert res.cut_value == pytest.approx(best, abs=1e-9), (n, k, alpha)
        else:
            assert np.isinf(best), (n, k, alpha)
        cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"dp oracle suite took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: dp equals exhaustive search on {cases} instances "
          f"in {elapsed:.1f}s")


@pytest.fixture(scope="module")
def mincut_suite():
    """100 seeded windows with |W| <= 12, solved exactly by enumeration."""
    rng = np.random.default_rng(777)
    suite = []
    for _ in range(100):
        n = int(rng.integers(14, 22))
        g = random_graph(rng, n, int(rng.integers(8, 3 * n)), weighted=True)
        o = Ordering.from_vertex_at(rng.permutation(n))
        lo = int(rng.integers(1, 6))
        hi = lo + int(rng.integers(1, 13))
        hi = min(hi, n - 1)
        win = WindowRow(index=1, center=(lo + hi) // 2, lo=lo, hi=hi)
        members = [int(v) for v in o.vertex_at[lo:hi]]
        brute = min(
            naive_window_cost(
                g, o, lo, hi, [v for i, v in enumerate(members) if (bits >> i) & 1]
            )
            for bits in range(1 << len(members))
        )
        suite.append((g, o, win, mincut_sides(g, o, win, two_parts(g, win)), brute))
    return suite


def test_criterion_02_mincut_matches_bipartition_enumeration(mincut_suite):
    for g, o, win, res, brute in mincut_suite:
        assert res.cut == pytest.approx(brute, abs=1e-9)
        assert naive_window_cost(g, o, win.lo, win.hi, res.left) == pytest.approx(
            brute, abs=1e-9
        )
    print(f"\nPASS criterion 2: window min cut exact on {len(mincut_suite)} windows")


def test_criterion_03_linopt_matches_naive_scan():
    rng = np.random.default_rng(888)
    for _ in range(100):
        n = int(rng.integers(12, 26))
        g = random_graph(rng, n, int(rng.integers(8, 4 * n)), weighted=True)
        o = Ordering.from_vertex_at(rng.permutation(n))
        lo = int(rng.integers(1, 8))
        hi = min(lo + int(rng.integers(1, 14)), n - 1)
        win = WindowRow(index=1, center=(lo + hi) // 2, lo=lo, hi=hi)
        s = linopt_split(g, o, win, two_parts(g, win))
        best = min(naive_split_cost(g, o, win, c) for c in range(lo, hi + 1))
        assert naive_split_cost(g, o, win, s) == pytest.approx(best, abs=1e-9)
    print("\nPASS criterion 3: linear scan equals naive per-split evaluation "
          "on 100 windows")


def test_criterion_04_mincut_dominates_linopt(mincut_suite):
    for g, o, win, res, _brute in mincut_suite:
        s = linopt_split(g, o, win, two_parts(g, win))
        assert res.cut <= naive_split_cost(g, o, win, s) + 1e-9
    g, o, win = make_figure_instance()
    lin = naive_split_cost(g, o, win, linopt_split(g, o, win, two_parts(g, win)))
    cut = mincut_sides(g, o, win, two_parts(g, win)).cut
    assert (lin, cut) == (4.0, 1.0)
    print("\nPASS criterion 4: min cut dominates the scan on every window; "
          "hand-built window improves 4 -> 1")


def test_criterion_05_random_ordering_cut_matches_expected_ratio():
    for k in (2, 4, 8):
        fractions = []
        for seed in range(20):
            g = erdos_renyi(2000, 0.01, seed=seed)
            o = random_ordering(g, seed)
            splits = make_split_points(g, o, k, 0.0)
            p = Partition.from_contiguous(o, splits, g)
            fractions.append(cut_weight(g, p)[1])
        mean = float(np.mean(fractions))
        assert abs(mean - (1 - 1 / k)) < 0.05, (k, mean)
        print(f"\nPASS criterion 5 (k={k}): mean chop fraction {mean:.4f} "
              f"within 0.05 of {1 - 1/k:.4f}")


def test_criterion_06_affinity_separates_cliques_exactly():
    for c in (2, 4, 8):
        g = disjoint_cliques(c, 32)
        order, _ = affinity_ordering(common_neighbors_similarity(g))
        splits = make_split_points(g, order, c, 0.0)
        p = Partition.from_contiguous(order, splits, g)
        absolute, fraction = cut_weight(g, p)
        assert absolute == 0.0 and fraction == 0.0
    print("\nPASS criterion 6: affinity + balanced chop cuts 0 edges "
          "on 2/4/8 disjoint cliques")


def test_criterion_07_postprocessing_never_increases_cut(suite_runs):
    applications = 0
    for name, g, alpha, cfg, report in suite_runs:
        prev = None
        for rec in report.records:
            if prev is not None and rec.stage in NONMETRIC:
                assert rec.cut_weight <= prev + 1e-9, (name, alpha, rec.stage)
                applications += 1
            prev = rec.cut_weight
        assert report.final_cut_fraction <= report.initial_cut_fraction + 1e-12, name
    # per-application check of the swap round itself on suite graphs
    for name, g, k in _suite_graphs()[:4]:
        o = random_ordering(g, 1)
        splits = make_split_points(g, o, k, 0.0)
        for rnd in range(4):
            before = cut_weight(g, Partition.from_contiguous(o, splits, g))[0]
            o = rank_swap_round(g, o, splits, rnd, 8, seed=2)
            after = cut_weight(g, Partition.from_contiguous(o, splits, g))[0]
            assert after <= before + 1e-9, (name, rnd)
            applications += 1
    print(f"\nPASS criterion 7: cut monotone over {applications} postprocessing "
          "applications; every final cut <= initial chop")


def test_criterion_08_combine_outputs_balanced(suite_runs):
    for name, g, alpha, cfg, report in suite_runs:
        report_balance = check_balance(g, report.partition, alpha)
        assert report_balance.balanced, (name, alpha, report_balance.part_weights)
    print(f"\nPASS criterion 8: {len(suite_runs)} combine outputs satisfy "
          "check_balance at alpha in {0, 0.03, 0.1}")


def test_criterion_09_scalability_trend():
    scales = [(13, 1 << 16), (15, 1 << 18), (17, 1 << 20)]
    times = []
    edge_counts = []
    for scale, arcs in scales:
        g = rmat(scale, arcs, seed=1)
        cfg = PipelineConfig(k=2, alpha=0.03, seed=0, max_outer_iters=2,
                             minla_max_rounds=8)
        t0 = time.perf_counter()
        combine(g, cfg)
        times.append(time.perf_counter() - t0)
        edge_counts.append(g.edge_count)
    slope = (math.log(times[-1]) - math.log(times[0])) / (
        math.log(edge_counts[-1]) - math.log(edge_counts[0])
    )
    assert slope < 1.5, (times, slope)

    g = rmat(15, 1 << 18, seed=1)
    per_k = {}
    # k=2 and k=256 alternate, so drift in the machine's speed hits both
    for _ in range(3):
        for k in (2, 256):
            cfg = PipelineConfig(k=k, alpha=0.03, seed=0, max_outer_iters=2,
                                 minla_max_rounds=8)
            t0 = time.perf_counter()
            combine(g, cfg)
            per_k[k] = min(per_k.get(k, math.inf), time.perf_counter() - t0)
    gap = abs(per_k[2] - per_k[256]) / max(per_k.values())
    assert gap < 0.10, per_k
    print(f"\nPASS criterion 9: log-log slope {slope:.2f} < 1.5 over "
          f"{edge_counts} edges ({[round(t, 2) for t in times]}s); "
          f"k=2 vs k=256 runtime gap {gap:.1%} < 10%")


@pytest.mark.skipif(
    "LIVEJOURNAL_EDGES" not in os.environ,
    reason="stretch criterion: set LIVEJOURNAL_EDGES to the public edge list",
)
def test_criterion_10_livejournal_stretch():
    from linepart.io import load_graph

    g = load_graph(os.environ["LIVEJOURNAL_EDGES"])
    cfg = PipelineConfig(k=20, alpha=0.0, seed=0, max_outer_iters=3)
    report = combine(g, cfg)
    assert report.final_cut_fraction <= 0.35
    print(f"\nPASS criterion 10: LiveJournal k=20 cut fraction "
          f"{report.final_cut_fraction:.4f} <= 0.35")
