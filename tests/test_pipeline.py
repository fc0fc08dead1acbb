"""Combination driver tests: stage semantics, convergence, and guarantees."""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from linepart.boundary import apply_window_stage, make_split_points, make_windows
from linepart.graph import Partition, balance_bounds, check_balance, cut_weight
from linepart import pipeline, refine
from linepart.ordering import Ordering, random_ordering
from linepart.pipeline import STAGES, PipelineConfig, combine, run_stage
from linepart.synth import disjoint_cliques, erdos_renyi, ring_of_cliques, rmat

from conftest import make_graph, random_graph
from test_boundary import exhaustive_contiguous_cut, make_figure_instance, window_stage_case


NONMETRIC = ("swap", "linopt", "mincut", "dp")


def stage_cuts_monotone(records):
    prev = None
    for rec in records:
        if prev is not None and rec.stage in NONMETRIC:
            assert rec.cut_weight <= prev + 1e-9, (rec.stage, prev, rec.cut_weight)
        prev = rec.cut_weight


def test_disjoint_cliques_reach_zero_cut():
    for c in (2, 3):
        g = disjoint_cliques(c, 6)
        report = combine(g, PipelineConfig(k=c, alpha=0.0))
        assert report.final_cut_fraction == 0.0
        assert check_balance(g, report.partition, 0.0).balanced


def test_converged_state_exits_after_one_pass():
    g = disjoint_cliques(2, 6)
    report = combine(g, PipelineConfig(k=2, alpha=0.0))
    assert report.converged and report.stop == "converged"
    assert report.iterations == 1


def pass_end_cuts(report):
    """The cut weight at the end of each pass."""
    return [r.cut_weight for r in report.records[1:] if r.stage == report.records[-1].stage]


def test_pass_loop_stops_once_a_pass_stops_paying(caplog):
    # Passes 2-4 each lower the best pass-end cut by more than 0.1 %;
    # pass 5 lowers it by 3 of 3286 edges, less than that, and stops the run.
    g = rmat(10, 8 << 10, seed=0)
    cfg = PipelineConfig(k=8, alpha=0.05)
    with caplog.at_level("INFO", logger="linepart.pipeline"):
        rep = combine(g, cfg)
    ends = pass_end_cuts(rep)
    assert rep.stop == "no_gain" and rep.iterations == len(ends) == 5
    assert not rep.converged
    eps = pipeline._STOP_GAIN
    for p in range(1, 4):
        assert ends[p] < (1 - eps) * min(ends[:p]), ends
    assert (1 - eps) * min(ends[:4]) <= ends[4] < min(ends[:4])
    # the best pass end, here the last one, is returned
    assert cut_weight(g, rep.partition)[0] == min(ends) == ends[-1]
    assert "final state replaced by best intermediate state" not in rep.warnings
    assert "combine\tstop\tno_gain\tpasses\t5\treverted\t0" in caplog.messages
    # capped below that, the same run stops at its cap
    caplog.clear()
    with caplog.at_level("INFO", logger="linepart.pipeline"):
        capped = combine(g, PipelineConfig(k=8, alpha=0.05, max_outer_iters=3))
    assert (capped.stop, capped.iterations, pass_end_cuts(capped)) == ("cap", 3, ends[:3])
    assert "combine\tstop\tcap\tpasses\t3\treverted\t0" in caplog.messages


def test_pass_loop_never_stops_after_pass_one(monkeypatch):
    # A stop rule that any pass end meets still lets pass 2 run: pass 1 has
    # no earlier pass end to be compared with.
    monkeypatch.setattr(pipeline, "_STOP_GAIN", 1.0)
    g = rmat(10, 8 << 10, seed=0)
    rep = combine(g, PipelineConfig(k=8, alpha=0.05))
    assert (rep.stop, rep.iterations) == ("no_gain", 2)


def test_an_unbalanced_pass_end_is_no_bar_for_a_later_balanced_one():
    # Unequal vertex weights: pass 1 ends unbalanced below the balanced
    # pass 2. The stop rule compares pass 2 only with earlier balanced pass
    # ends, of which there are none, so the loop goes on to a balanced cut
    # below both.
    rng = np.random.default_rng(266)
    n = int(rng.integers(20, 60))
    iu, iv = np.triu_indices(n, 1)
    pick = rng.random(len(iu)) < 0.15
    g = make_graph(list(zip(iu[pick].tolist(), iv[pick].tolist())), n=n,
                   vertex_weights=rng.choice([1.0, 1.0, 2.0, 3.0], n))
    cfg = PipelineConfig(k=int(rng.integers(2, 6)), alpha=float(rng.choice([0.05, 0.1])),
                         initial_ordering="random")
    rep = combine(g, cfg)
    ends = [r for r in rep.records if r.stage == cfg.stages[-1]]
    assert not ends[0].balanced and ends[1].balanced
    assert ends[1].cut_weight > ends[0].cut_weight
    assert rep.iterations > 2
    got = cut_weight(g, rep.partition)[0]
    assert check_balance(g, rep.partition, cfg.alpha).balanced
    assert got == min(r.cut_weight for r in ends) < ends[0].cut_weight


def test_combine_deterministic():
    g = erdos_renyi(80, 0.1, seed=2)
    cfg = PipelineConfig(k=3, alpha=0.1, seed=11)
    r1 = combine(g, cfg)
    r2 = combine(g, cfg)
    assert np.array_equal(r1.partition.assignment, r2.partition.assignment)
    assert [rec.row() for rec in r1.records] == [rec.row() for rec in r2.records]


def test_final_cut_never_exceeds_initial_chop():
    rng = np.random.default_rng(42)
    stage_lists = [
        ("metric", "swap", "mincut"),
        ("swap",),
        ("metric", "linopt"),
        ("metric", "swap", "linopt", "mincut", "dp"),
    ]
    for stages in stage_lists:
        g = random_graph(rng, 60, 200)
        cfg = PipelineConfig(
            k=4, alpha=0.1, initial_ordering="random",
            stages=stages, seed=int(rng.integers(100)), max_outer_iters=4,
        )
        report = combine(g, cfg)
        assert report.final_cut_fraction <= report.initial_cut_fraction + 1e-12
        stage_cuts_monotone(report.records)
        assert check_balance(g, report.partition, 0.1).balanced


def test_figure_instance_linopt_then_mincut():
    g, o, _win = make_figure_instance()
    # alpha = 1.6 gives 4 ranks of slack per side: the window spans [1, 9)
    splits = make_split_points(g, o, 2, 1.6)
    cfg = PipelineConfig(k=2, alpha=1.6)

    o1, s1, _ = run_stage("linopt", g, o, splits, cfg)
    cut1 = cut_weight(g, Partition.from_contiguous(o1, s1, g))[0]
    assert s1.q.tolist() == [0, 2, 10]
    assert cut1 == 4.0

    o2, s2, _ = run_stage("mincut", g, o1, s1, cfg)
    cut2 = cut_weight(g, Partition.from_contiguous(o2, s2, g))[0]
    assert cut2 == 1.0  # strict improvement over the order-respecting optimum
    assert sorted(o2.vertex_at[1:5].tolist()) == [1, 3, 7, 8]


def test_linopt_stage_reaches_a_fixed_point():
    # per-window proposals are constant given the ordering, so repeated
    # application settles; once settled it stays settled
    rng = np.random.default_rng(3)
    g = random_graph(rng, 30, 80)
    o = Ordering.from_vertex_at(rng.permutation(30))
    splits = make_split_points(g, o, 3, 0.2)
    cfg = PipelineConfig(k=3, alpha=0.2)
    for _ in range(4):
        o, splits, _ = run_stage("linopt", g, o, splits, cfg)
    o2, s2, _ = run_stage("linopt", g, o, splits, cfg)
    assert np.array_equal(o.vertex_at, o2.vertex_at)
    assert np.array_equal(splits.q, s2.q)


def test_dp_stage_with_identity_blocks_matches_exhaustive():
    # combine gates the dp proposal, so the stage ends at the better of the
    # exhaustive optimum and the starting chop
    rng = np.random.default_rng(23)
    g = random_graph(rng, 12, 30)
    cfg = PipelineConfig(
        k=3, alpha=0.25, initial_ordering="random", stages=("dp",),
        seed=int(rng.integers(100)), max_outer_iters=1, dp_blocks=12,
    )
    o = random_ordering(g, cfg.seed)
    splits = make_split_points(g, o, 3, 0.25)
    report = combine(g, cfg)
    o2, s2 = report.ordering, report.splits
    assert np.array_equal(o2.vertex_at, o.vertex_at)  # dp never reorders
    value = cut_weight(g, Partition.from_contiguous(o2, s2, g))[0]
    assert value == report.records[1].cut_weight
    best = exhaustive_contiguous_cut(g, o, np.arange(13), 3, 0.25)
    start = cut_weight(g, Partition.from_contiguous(o, splits, g))[0]
    if np.isinf(best):
        assert np.array_equal(s2.q, splits.q)
    else:
        assert value == pytest.approx(min(best, start))


def window_pair_raising_the_cut():
    """30 vertices whose identity order, chopped at 10 and 20 (k = 3, alpha
    0.6), has windows [7, 13] and [17, 23]. Window 1 moves vertex 9 into
    part 1, trading its edge to 18 (weight 3) for its edge to 3 (2). Window
    2 moves vertex 18 into part 2, trading its edge to 25 (2) for its edge
    to 14 (1); it does not price the edge to 9, which lies in part 0. Each
    window lowers its own cut by 1, but 9 and 18 land in parts 1 and 2, so
    together they raise the cut from 5 to 6."""
    return make_graph([(9, 3), (9, 18), (18, 14), (18, 25)], n=30, weights=[2, 3, 1, 2])


def test_combine_rejects_a_cut_raising_proposal(monkeypatch):
    inputs = []

    def spy(stage, g, o, s, cfg=None, iteration=0, **kwargs):
        inputs.append((o.vertex_at.copy(), s.q.copy()))
        return run_stage(stage, g, o, s, cfg, iteration, **kwargs)

    monkeypatch.setattr(pipeline, "run_stage", spy)
    pair = window_pair_raising_the_cut()
    for method in ("linopt", "mincut"):  # each window lowers its own cut
        identity = Ordering.identity(30)
        _, _, diag = apply_window_stage(pair, identity, make_split_points(pair, identity, 3, 0.6),
                                        method)
        assert [row[:3] for row in diag] == [(1, 3.0, 2.0), (2, 2.0, 1.0)]
    cases = [
        # the coarse dp optimum cuts more than the refined rank-level splits
        (ring_of_cliques(16, 8), PipelineConfig(
            k=4, alpha=0.1, initial_ordering="random",
            stages=("metric", "swap", "linopt", "mincut", "dp"),
            seed=0, max_outer_iters=3, dp_blocks=20,
        ), {"dp"}),
        # two adjacent windows that each strictly lower their own cut raise
        # the cut together, from the identity order
        (pair, PipelineConfig(
            k=3, alpha=0.6, initial_ordering="random", stages=("linopt", "mincut"),
            max_outer_iters=2,
        ), {"linopt", "mincut"}),
    ]
    for g, cfg, expected in cases:
        if g is pair:
            monkeypatch.setattr(pipeline, "random_ordering", lambda g, seed: Ordering.identity(g.n))
        inputs.clear()
        report = combine(g, cfg)
        assert "final state replaced by best intermediate state" not in report.warnings
        assert len(inputs) == len(report.records) - 1
        # the state each stage starts from, and the one combine returns
        states = inputs[1:] + [(report.ordering.vertex_at, report.splits.q)]
        rejected = set()
        for i, rec in enumerate(report.records[1:]):
            if "rejected" not in rec.note:
                continue
            rejected.add(rec.stage)
            assert rec.note.startswith(f"{rec.stage} stage rejected: ")
            assert rec.changed == 0
            prev = report.records[i]
            assert (rec.cut_weight, rec.cut_fraction, rec.balanced) == (
                prev.cut_weight, prev.cut_fraction, prev.balanced
            )
            assert np.array_equal(states[i][0], inputs[i][0])
            assert np.array_equal(states[i][1], inputs[i][1])
        assert rejected == expected


def test_window_stages_start_from_in_window_splits(monkeypatch):
    # with unit weights and no dp, the chop and every window move keep each
    # split in its window, alpha*n/2k < 1 included
    handed = []

    def spy(g, o, s, method):
        wins = make_windows(g, o, s.k, s.alpha)
        handed.append(list(zip(wins.lo.tolist(), s.q[wins.index].tolist(), wins.hi.tolist())))
        return apply_window_stage(g, o, s, method)

    monkeypatch.setattr(pipeline, "apply_window_stage", spy)
    rng = np.random.default_rng(7)
    for case in range(30):
        n = int(rng.integers(10, 60))
        k, alpha = int(rng.integers(2, 6)), float(rng.choice([0.05, 0.1, 0.3]))
        cfg = PipelineConfig(
            k=k, alpha=alpha, initial_ordering="random",
            stages=("metric", "swap", "linopt", "mincut"), seed=case, max_outer_iters=3,
        )
        combine(random_graph(rng, n, 2 * n), cfg)
    assert handed
    for spans in handed:
        assert all(lo <= q <= hi for lo, q, hi in spans), spans


def test_infeasible_dp_skipped_with_warning():
    g = make_graph([(0, 1), (1, 2)], n=5)
    o = Ordering.identity(5)
    cfg = PipelineConfig(k=2, alpha=0.0, stages=("dp",), max_outer_iters=1)
    report = combine(g, cfg)
    assert any("dp stage skipped" in w for w in report.warnings)
    assert report.partition.k == 2


def test_metric_stage_resets_splits_only_on_reorder():
    g = make_graph([], n=8)  # edgeless: metric is a fixed point
    o = Ordering.identity(8)
    splits = make_split_points(g, o, 2, 0.5)
    moved = type(splits)(np.array([0, 3, 8]), 0.5)
    cfg = PipelineConfig(k=2, alpha=0.5)
    o2, s2, _ = run_stage("metric", g, o, moved, cfg)
    assert np.array_equal(s2.q, moved.q)  # no reorder, splits untouched


def test_ring_of_cliques_all_stages():
    g = ring_of_cliques(6, 10)
    cfg = PipelineConfig(
        k=6, alpha=0.1, stages=("metric", "swap", "linopt", "mincut", "dp")
    )
    report = combine(g, cfg)
    stage_cuts_monotone(report.records)
    # 6 bridge edges out of 6*45+6 = 276
    assert report.final_cut_fraction == pytest.approx(6 / 276)
    assert check_balance(g, report.partition, 0.1).balanced


def test_config_validation():
    g = make_graph([(0, 1)], n=4)
    with pytest.raises(ValueError, match="unknown stage"):
        combine(g, PipelineConfig(k=2, alpha=0.0, stages=("warp",)))
    with pytest.raises(ValueError, match="4 vertices into 9"):
        combine(g, PipelineConfig(k=9, alpha=0.0))
    with pytest.raises(ValueError, match="alpha"):
        combine(g, PipelineConfig(k=2, alpha=-0.1))
    with pytest.raises(ValueError, match="dp block count"):
        combine(g, PipelineConfig(k=2, alpha=0.0, stages=("dp",), dp_blocks=0))
    with pytest.raises(ValueError, match="initial ordering"):
        combine(g, PipelineConfig(k=2, alpha=0.0, initial_ordering="sorted"))
    with pytest.raises(ValueError, match="coordinates"):
        combine(g, PipelineConfig(k=2, alpha=0.0, initial_ordering="hilbert"))


def test_round_and_block_limits_fail_before_the_ordering(monkeypatch):
    # both used to raise only once a metric or dp stage ran, after the
    # initial ordering (on an affinity start, the similarity) was built
    built = []
    monkeypatch.setattr(pipeline, "_initial_ordering", lambda g, cfg: built.append(cfg))
    g = make_graph([(0, 1), (1, 2), (2, 3)], n=4)
    with pytest.raises(ValueError, match="minla_max_rounds must be at least 1"):
        combine(g, PipelineConfig(k=2, alpha=0.0, minla_max_rounds=0))
    with pytest.raises(ValueError, match="dp block count 5 exceeds the 4 vertices"):
        combine(g, PipelineConfig(k=2, alpha=0.0, stages=("dp",), dp_blocks=5))
    assert built == []


def test_random_and_hilbert_initial_orderings():
    geo = np.random.default_rng(1).uniform(-1, 1, size=(24, 2))
    g = make_graph([(i, (i + 1) % 24) for i in range(24)], n=24, geo=geo)
    for initial in ("random", "hilbert"):
        report = combine(
            g, PipelineConfig(k=2, alpha=0.1, initial_ordering=initial, seed=4)
        )
        assert report.final_cut_fraction <= report.initial_cut_fraction


def test_combine_edge_cases():
    # single part: nothing to cut, trivially balanced
    g = erdos_renyi(20, 0.3, 1)
    rep = combine(g, PipelineConfig(k=1, alpha=0.0))
    assert rep.final_cut_fraction == 0.0 and rep.converged

    # one part per vertex: every edge is cut
    path4 = make_graph([(0, 1), (1, 2), (2, 3)])
    rep = combine(path4, PipelineConfig(k=4, alpha=0.0))
    assert rep.final_cut_fraction == 1.0
    assert rep.partition.part_weights.tolist() == [1.0, 1.0, 1.0, 1.0]

    # no edges at all
    rep = combine(make_graph([], n=12), PipelineConfig(k=3, alpha=0.1))
    assert rep.final_cut_fraction == 0.0 and rep.converged


def test_combine_reports_the_state_it_returns():
    # The metric stage raises the cut on the last pass, so combine reverts
    # to the best pass-end state (iteration 1 here, not the initial chop).
    g = rmat(7, 600, seed=11)
    cfg = PipelineConfig(
        k=4, alpha=0.05, initial_ordering="random", stages=("metric", "swap"),
        seed=11, max_outer_iters=3,
    )
    rep = combine(g, cfg)
    assert "final state replaced by best intermediate state" in rep.warnings
    pass_ends = [r.cut_fraction for r in rep.records if r.stage == "swap"]
    assert rep.final_cut_fraction == min(pass_ends) < rep.initial_cut_fraction
    assert rep.final_cut_fraction < pass_ends[-1]
    assert rep.partition == Partition.from_contiguous(rep.ordering, rep.splits, g)
    assert cut_weight(g, rep.partition)[1] == rep.final_cut_fraction
    # The default run stops after a pass that raised the cut, and reverts.
    rep2 = combine(g, PipelineConfig(k=4, alpha=0.05, initial_ordering="random", seed=11))
    pass_ends = [r.cut_fraction for r in rep2.records if r.stage == "mincut"]
    assert rep2.stop == "no_gain" and pass_ends[-1] > pass_ends[-2]
    assert "final state replaced by best intermediate state" in rep2.warnings
    assert rep2.final_cut_fraction == min(pass_ends) < pass_ends[-1]
    assert rep2.partition == Partition.from_contiguous(rep2.ordering, rep2.splits, g)
    # without the revert, the last stage's state is the one returned
    rep3 = combine(g, PipelineConfig(k=4, alpha=0.05, initial_ordering="random", seed=0))
    pass_ends = [r.cut_fraction for r in rep3.records if r.stage == "mincut"]
    assert pass_ends[-1] == min(pass_ends)  # the last pass is the best
    assert "final state replaced by best intermediate state" not in rep3.warnings
    assert rep3.partition == Partition.from_contiguous(rep3.ordering, rep3.splits, g)
    assert rep3.final_cut_fraction == rep3.records[-1].cut_fraction


def test_combine_keeps_a_balanced_pass_end_over_a_lower_unbalanced_cut():
    # Unequal vertex weights and a tight alpha leave some pass-end states
    # unbalanced. combine returns, among the initial chop and the pass-end
    # states that cut no more than it, the lowest cut of the balanced ones,
    # or of all if none is balanced.
    rng = np.random.default_rng(7)
    traded = 0
    for case in range(40):
        n = int(rng.integers(20, 60))
        iu, iv = np.triu_indices(n, 1)
        pick = rng.random(len(iu)) < 0.15
        g = make_graph(list(zip(iu[pick].tolist(), iv[pick].tolist())), n=n,
                       vertex_weights=rng.choice([1.0, 1.0, 2.0, 3.0], n))
        cfg = PipelineConfig(k=int(rng.integers(2, 6)), alpha=float(rng.choice([0.05, 0.1])),
                             initial_ordering="random", seed=case, max_outer_iters=4)
        rep = combine(g, cfg)
        init = rep.records[0]
        ends = [init] + [r for r in rep.records[1:] if r.stage == cfg.stages[-1]]
        states = [(not r.balanced, r.cut_weight) for r in ends if r.cut_weight <= init.cut_weight]
        got = (not check_balance(g, rep.partition, cfg.alpha).balanced, cut_weight(g, rep.partition)[0])
        assert got == min(states), case
        traded += not got[0] and got[1] > min(cut for _, cut in states)
    assert traded >= 2


def test_combine_on_fractional_edge_weights():
    from linepart.graph import common_neighbors_similarity

    g = common_neighbors_similarity(erdos_renyi(60, 0.15, 7))
    rep = combine(g, PipelineConfig(k=3, alpha=0.2, initial_ordering="random", seed=2))
    assert rep.final_cut_fraction <= rep.initial_cut_fraction
    assert check_balance(g, rep.partition, 0.2).balanced
    stage_cuts_monotone(rep.records)


@st.composite
def combine_cases(draw):
    """A small graph, whether its vertex weights are unit, and a config.

    Edges join random vertex pairs, so some vertices stay isolated; edge
    weights are 0 or span 1e-6..1e6.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges = [e for e in pairs if e[0] != e[1]]
    weight = st.one_of(st.just(0.0), st.integers(-6, 6).map(lambda e: 10.0**e),
                       st.floats(min_value=1e-6, max_value=1e6))
    weights = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    unit = draw(st.booleans())
    vw = None if unit else draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0, 7.5]),
                                         min_size=n, max_size=n))
    k = draw(st.sampled_from([1, min(2, n), n, draw(st.integers(1, n))]))
    cfg = PipelineConfig(
        k=k,
        alpha=draw(st.sampled_from([0.0, 0.05, 0.3, 1.0, 1.5])),
        initial_ordering=draw(st.sampled_from(["random", "affinity"])),
        stages=tuple(draw(st.lists(st.sampled_from(STAGES), min_size=1, unique=True))),
        max_outer_iters=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 1000)),
    )
    return make_graph(edges, n=n, weights=weights, vertex_weights=vw), unit, cfg


PATH10_DP_MINCUT = (
    make_graph([(i, i + 1) for i in range(9)]),
    True,
    PipelineConfig(k=3, alpha=1.0, initial_ordering="random", stages=("dp", "mincut"),
                   max_outer_iters=3),
)


@settings(max_examples=300, deadline=None)
@given(case=combine_cases())
@example(case=PATH10_DP_MINCUT)
def test_combine_properties(case):
    # Weighted balance is not asserted: a degenerate window can still leave
    # a part out of the bound with non-unit vertex weights (ROADMAP item 6).
    g, unit, cfg = case
    rep = combine(g, cfg)
    assert sorted(rep.ordering.vertex_at.tolist()) == list(range(g.n))
    prev = None
    for rec in rep.records:
        # the never-raise rule, at combine's own float tolerance
        if prev is not None and rec.stage != "metric":
            assert rec.cut_weight <= prev * (1 + 1e-12) + 1e-12, rec.row()
        prev = rec.cut_weight
    assert rep.final_cut_fraction <= rep.initial_cut_fraction
    # why the pass loop stopped: a balanced pass end stops it when it is
    # not below (1 - eps) times the lowest earlier balanced pass end
    last = [r for r in rep.records if r.iteration == rep.iterations]
    if not any(r.changed for r in last):
        assert rep.converged
    ends = [r for r in rep.records if r.stage == cfg.stages[-1]]
    for p, end in enumerate(ends):
        earlier = [r.cut_weight for r in ends[:p] if r.balanced]
        stops = end.balanced and bool(earlier) and (
            end.cut_weight >= (1 - pipeline._STOP_GAIN) * min(earlier))
        if p < len(ends) - 1 or rep.stop != "converged":
            assert stops == (rep.stop == "no_gain" and p == len(ends) - 1), p
    if rep.stop == "cap":
        assert rep.iterations == cfg.max_outer_iters
    again = combine(g, cfg)
    assert again.partition.assignment.tobytes() == rep.partition.assignment.tobytes()
    assert again.ordering.vertex_at.tobytes() == rep.ordering.vertex_at.tobytes()
    assert [r.row() for r in again.records] == [r.row() for r in rep.records]
    if unit:
        lo, hi = balance_bounds(g.n, cfg.k, cfg.alpha)
        size_lo, size_hi = max(1, math.ceil(lo)), math.floor(hi)
        if cfg.k * size_lo <= g.n <= cfg.k * size_hi:
            assert check_balance(g, rep.partition, cfg.alpha).balanced, rep.partition.part_weights


@settings(max_examples=300, deadline=None)
@given(window_stage_case(alphas=(0.0, 0.05, 1.0)), st.sampled_from(["metric", "dp"]))
def test_metric_and_dp_stage_properties(case, stage):
    g, o, splits, _ = case
    k, alpha = splits.k, splits.alpha
    o2, s2, note = run_stage(stage, g, o, splits, PipelineConfig(k=k, alpha=alpha))
    o2.validate()
    q = s2.q
    assert len(q) == k + 1 and q[0] == 0 and q[-1] == g.n and (np.diff(q) > 0).all()
    reordered = not np.array_equal(o2.vertex_at, o.vertex_at)
    if stage == "metric":
        assert note == ""
        assert s2 == (make_split_points(g, o2, k, alpha) if reordered else splits)
    elif note:
        assert note == "dp stage skipped: no alpha-balanced contiguous partition"
        assert not reordered and s2 == splits
        assert exhaustive_contiguous_cut(g, o, np.arange(g.n + 1), k, alpha) == np.inf
    else:
        assert not reordered
        lo, hi = balance_bounds(g.total_vertex_weight, k, alpha)
        weights = Partition.from_contiguous(o2, s2, g).part_weights
        assert ((weights >= lo) & (weights <= hi)).all(), weights


def test_combine_builds_the_median_state_once(monkeypatch):
    built = []

    class CountedMedianRound(refine._MedianRound):
        def __init__(self, g):
            built.append(g)
            super().__init__(g)

    monkeypatch.setattr(refine, "_MedianRound", CountedMedianRound)
    g = ring_of_cliques(16, 8)
    cfg = PipelineConfig(k=4, alpha=0.1, initial_ordering="random", max_outer_iters=3)
    report = combine(g, cfg)
    assert sum(r.stage == "metric" for r in report.records) >= 2
    assert built == [g]
    built.clear()
    combine(g, PipelineConfig(k=4, alpha=0.1, initial_ordering="random", stages=("swap",)))
    assert built == []
