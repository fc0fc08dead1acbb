"""Driver that combines embedding, refinement, and boundary optimization.

One run weights the graph for affinity, embeds the vertices on a line, sets
the balanced split points, then repeats the configured stage list until a
full pass changes neither the ordering nor the splits, a pass after the
first stops paying (``_STOP_GAIN``), or the iteration cap is hit. Each
stage only proposes a new state (``run_stage``); ``combine`` prices a
proposal once, if it changed the state, and enforces the
never-raise rule: the metric stage optimizes the linear-arrangement
objective and may move the cut either way, while a proposal of any other
stage that raises the cut is rejected and the previous state kept. The
driver keeps the best pass-end state, balanced before unbalanced, so the
emitted partition never cuts more than the initial chop.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import refine
from .boundary import SplitPoints, apply_window_stage, contract_blocks, dp_partition, make_split_points
from .graph import Graph, Partition, check_balance, common_neighbors_similarity, cut_weight
from .ordering import Ordering, affinity_ordering, hilbert_ordering, random_ordering

__all__ = [
    "PipelineConfig",
    "StageRecord",
    "PipelineReport",
    "combine",
    "run_stage",
    "STAGES",
    "INITIAL_ORDERINGS",
]

log = logging.getLogger(__name__)

STAGES = ("metric", "swap", "linopt", "mincut", "dp")
INITIAL_ORDERINGS = ("random", "hilbert", "affinity")

# A balanced pass end after pass 1 that is not below (1 - _STOP_GAIN) times
# the lowest earlier balanced pass-end cut stops the pass loop.
_STOP_GAIN = 1e-3


@dataclass(frozen=True)
class PipelineConfig:
    k: int
    alpha: float
    initial_ordering: str = "affinity"
    stages: tuple[str, ...] = ("metric", "swap", "mincut")
    max_outer_iters: int = 10
    seed: int = 0
    swap_intervals: int = 8  # intervals per partition in a swap round
    dp_blocks: int | None = None  # None -> contract_blocks' default
    minla_max_rounds: int = 10

    def validate(self, g: Graph) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.k > g.n:
            raise ValueError(f"cannot split {g.n} vertices into {self.k} parts")
        if not self.alpha >= 0:  # also rejects NaN
            raise ValueError("alpha must be non-negative")
        if self.initial_ordering not in INITIAL_ORDERINGS:
            raise ValueError(f"unknown initial ordering {self.initial_ordering!r}")
        if not self.stages:
            raise ValueError("stage list must not be empty")
        for s in self.stages:
            if s not in STAGES:
                raise ValueError(f"unknown stage {s!r}")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")
        if self.swap_intervals < 1:
            raise ValueError("swap interval count must be positive")
        if self.dp_blocks is not None and self.dp_blocks < 1:
            raise ValueError("dp block count must be at least 1")
        if self.dp_blocks is not None and self.dp_blocks > g.n:
            raise ValueError(f"dp block count {self.dp_blocks} exceeds the {g.n} vertices")
        if self.minla_max_rounds < 1:
            raise ValueError("minla_max_rounds must be at least 1")


@dataclass
class StageRecord:
    iteration: int
    stage: str
    cut_weight: float
    cut_fraction: float
    balanced: bool
    changed: bool
    note: str = ""

    def row(self) -> str:
        return (
            f"{self.iteration}\t{self.stage}\t{self.cut_weight:.6g}"
            f"\t{self.cut_fraction:.4f}\t{int(self.balanced)}"
            f"\t{int(self.changed)}\t{self.note}"
        )


@dataclass
class PipelineReport:
    records: list[StageRecord]
    partition: Partition
    ordering: Ordering
    splits: SplitPoints
    # why the pass loop ended: "converged" (a pass changed nothing),
    # "no_gain" (the stop rule of ``combine``) or "cap" (max_outer_iters)
    stop: str
    iterations: int
    initial_cut_fraction: float
    final_cut_fraction: float
    warnings: list[str] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.stop == "converged"


def _state_cut(g: Graph, o: Ordering, s: SplitPoints) -> tuple[float, float, Partition]:
    part = Partition.from_contiguous(o, s, g)
    w, f = cut_weight(g, part)
    return w, f, part


def run_stage(
    stage: str,
    g: Graph,
    o: Ordering,
    s: SplitPoints,
    cfg: PipelineConfig | None = None,
    iteration: int = 0,
    *,
    median_round: refine._MedianRound | None = None,
) -> tuple[Ordering, SplitPoints, str]:
    """Apply one named stage to (ordering, splits) and return its proposal.

    Returns the proposed ordering, the proposed splits, and a note that is
    empty unless the stage was skipped. The proposal is not priced here:
    ``combine`` rejects a non-metric proposal that raises the cut. The
    metric stage runs its rounds on ``median_round`` if given (see
    ``refine.minla_refine``).
    """
    if cfg is None:
        cfg = PipelineConfig(k=s.k, alpha=s.alpha)
    note = ""
    if stage == "metric":
        st = refine.minla_refine(g, o, cfg.minla_max_rounds, median_round=median_round)
        if not np.array_equal(st.ordering.vertex_at, o.vertex_at):
            o = st.ordering
            # reordering invalidates previous boundary choices
            s = make_split_points(g, o, s.k, s.alpha)
    elif stage == "swap":
        for rnd in (2 * iteration, 2 * iteration + 1):
            o = refine.rank_swap_round(g, o, s, rnd, cfg.swap_intervals, cfg.seed)
    elif stage in ("linopt", "mincut"):
        o, s, _diag = apply_window_stage(g, o, s, stage)
    elif stage == "dp":
        res = dp_partition(contract_blocks(g, o, cfg.dp_blocks), s.k, s.alpha)
        if res.feasible:
            s = res.split_points(s.alpha)
        else:
            note = "dp stage skipped: no alpha-balanced contiguous partition"
            log.warning(note)
    else:
        raise ValueError(f"unknown stage {stage!r}")
    return o, s, note


def _initial_ordering(g: Graph, cfg: PipelineConfig) -> Ordering:
    if cfg.initial_ordering == "random":
        return random_ordering(g, cfg.seed)
    if cfg.initial_ordering == "hilbert":
        return hilbert_ordering(g)
    sim = common_neighbors_similarity(g)
    ordering, _hierarchy = affinity_ordering(sim)
    return ordering


def combine(g: Graph, cfg: PipelineConfig) -> PipelineReport:
    """Full pipeline: similarity, embedding, balanced splits, stage loop.

    Deterministic given (graph bytes, config, seed). The pass loop ends
    after a pass that changes neither the ordering nor the splits
    (``converged``); after a pass p >= 2 whose end state is balanced and
    cuts no less than (1 - ``_STOP_GAIN``) times the lowest earlier
    balanced pass-end cut (``no_gain``); or after ``max_outer_iters`` passes
    (``cap``). The final state is, among the initial chop and every
    pass-end state that cuts no more than it, the lowest cut of the
    balanced ones, or of all if none is balanced. So the reported cut never
    exceeds the initial ordering's chop, and an unequal-weight run ends
    unbalanced only if every such state is. Logs one line
    ``combine stop <reason> passes <n> reverted <0|1>``, reverted being 1
    when that state is not the last pass end.
    """
    cfg.validate(g)
    ordering = _initial_ordering(g, cfg)
    splits = make_split_points(g, ordering, cfg.k, cfg.alpha)

    # the median rounds' rank-free state, built once for every metric stage
    median_round = refine._MedianRound(g) if "metric" in cfg.stages else None
    records: list[StageRecord] = []
    warnings: list[str] = []
    w0, f0, part0 = _state_cut(g, ordering, splits)
    bal0 = check_balance(g, part0, cfg.alpha).balanced
    records.append(StageRecord(0, "init", w0, f0, bal0, True))
    log.info("combine\t%s", records[-1].row())

    # cw, cf, part, bal: the current state, priced when it was made
    cw, cf, part, bal = w0, f0, part0, bal0
    # (unbalanced, cut) of the best state cutting no more than the initial chop
    best_key = (not bal0, w0)
    best_state = (ordering.copy(), splits.copy(), f0, part0)
    stop = "cap"
    lowest_end = np.inf  # the lowest balanced pass-end cut so far
    iterations = 0
    for it in range(1, cfg.max_outer_iters + 1):
        iterations = it
        pass_start = (ordering.vertex_at.copy(), splits.q.copy())
        for stage in cfg.stages:
            o2, s2, note = run_stage(stage, g, ordering, splits, cfg, it, median_round=median_round)
            changed = not (
                np.array_equal(o2.vertex_at, ordering.vertex_at)
                and np.array_equal(s2.q, splits.q)
            )
            if changed:
                cw2, cf2, part2 = _state_cut(g, o2, s2)
                # the never-raise rule: only the metric stage may raise the cut
                if stage != "metric" and cw2 > cw * (1 + 1e-12) + 1e-12:
                    changed = False
                    note = f"{stage} stage rejected: proposal would raise the cut"
                    log.warning(note)
                else:
                    ordering, splits, cw, cf, part = o2, s2, cw2, cf2, part2
                    bal = check_balance(g, part, cfg.alpha).balanced
            records.append(StageRecord(it, stage, cw, cf, bal, changed, note))
            if note:
                warnings.append(note)
            log.info("combine\t%s", records[-1].row())
        if cw <= w0 and (not bal, cw) < best_key:
            best_key = (not bal, cw)
            best_state = (ordering.copy(), splits.copy(), cf, part)
        if np.array_equal(pass_start[0], ordering.vertex_at) and np.array_equal(
            pass_start[1], splits.q
        ):
            stop = "converged"
            break
        if bal:
            if cw >= (1 - _STOP_GAIN) * lowest_end:
                stop = "no_gain"
                break
            lowest_end = min(lowest_end, cw)

    final_f, partition = cf, part
    reverted = cw > w0 or (not bal, cw) > best_key
    if reverted:
        ordering, splits, final_f, partition = best_state
        warnings.append("final state replaced by best intermediate state")
    log.info("combine\tstop\t%s\tpasses\t%d\treverted\t%d", stop, iterations, reverted)

    return PipelineReport(
        records=records,
        partition=partition,
        ordering=ordering,
        splits=splits,
        stop=stop,
        iterations=iterations,
        initial_cut_fraction=f0,
        final_cut_fraction=final_f,
        warnings=warnings,
    )
