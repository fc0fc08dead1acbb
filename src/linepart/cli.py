"""Command-line toolkit binding the partitioning pipeline.

Subcommands: order, refine, postprocess, combine, evaluate, weigh-queries.
Data goes to files or stdout; logs go to stderr. Output files are written
atomically. Exit codes: 0 success, 1 validation error, 2 infeasibility.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

import numpy as np

from . import io
from .boundary import (
    DEFAULT_DP_BLOCKS,
    apply_window_stage,
    contract_blocks,
    dp_partition,
    make_split_points,
)
from .graph import (
    GraphFormatError,
    Partition,
    check_balance,
    common_neighbors_similarity,
    cross_shard_rate,
    cut_weight,
    query_weighted_graph,
)
from .ordering import affinity_ordering, hilbert_ordering, random_ordering
from .pipeline import INITIAL_ORDERINGS, STAGES, PipelineConfig, combine
from .refine import minla_refine, rank_swap_round

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

# PipelineConfig's defaults, which the run flags below take as their own
_DEFAULTS = {
    f.name: f.default
    for f in dataclasses.fields(PipelineConfig)
    if f.default is not dataclasses.MISSING
}


class _Infeasible(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linepart",
        description="Balanced k-way graph partitioning via linear embedding.",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p):
        p.add_argument("--graph", required=True, metavar="F", help="edge list file")
        p.add_argument(
            "--vertices", metavar="F", help="vertex metadata file (weights, geo)"
        )

    p = sub.add_parser("order", help="compute an initial linear embedding")
    add_graph_args(p)
    p.add_argument(
        "--method", required=True, choices=("random", "hilbert", "affinity")
    )
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument(
        "--hierarchy-out",
        metavar="F",
        help="with --method affinity: dump vertex label paths",
    )
    p.add_argument("-o", "--output", required=True, metavar="OUT")

    p = sub.add_parser("refine", help="improve an ordering by semilocal moves")
    add_graph_args(p)
    p.add_argument("--ordering", required=True, metavar="F")
    p.add_argument("--method", required=True, choices=("metric", "swap"))
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.0, metavar="A")
    p.add_argument(
        "--intervals", type=int, default=_DEFAULTS["swap_intervals"], metavar="R",
        help="intervals per partition for swap rounds (default %(default)s)",
    )
    p.add_argument(
        "--max-rounds", type=int, default=_DEFAULTS["minla_max_rounds"], metavar="N",
        help="round cap (default %(default)s)",
    )
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("-o", "--output", required=True, metavar="OUT")

    p = sub.add_parser(
        "postprocess", help="optimize boundaries within imbalance windows"
    )
    add_graph_args(p)
    p.add_argument("--ordering", required=True, metavar="F")
    p.add_argument("--method", required=True, choices=("linopt", "mincut", "dp"))
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True, metavar="A")
    p.add_argument(
        "--blocks", type=int, default=None, metavar="B",
        help=f"dp contraction block count (default min(n, {DEFAULT_DP_BLOCKS}))",
    )
    p.add_argument(
        "--ordering-out", metavar="F",
        help="write the resulting ordering here (only mincut changes it)",
    )
    p.add_argument("-o", "--output", required=True, metavar="OUT_SPLITS")

    p = sub.add_parser("combine", help="full pipeline to a partition")
    add_graph_args(p)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True, metavar="A")
    p.add_argument(
        "--stages", default=",".join(_DEFAULTS["stages"]), metavar="LIST",
        help=f"comma-separated subset of {','.join(STAGES)} (default %(default)s)",
    )
    p.add_argument(
        "--initial", default=_DEFAULTS["initial_ordering"], choices=INITIAL_ORDERINGS,
        help="initial embedding (default %(default)s)",
    )
    p.add_argument("--seed", type=int, default=_DEFAULTS["seed"], metavar="S",
                   help="random-order and swap seed (default %(default)s)")
    p.add_argument("--intervals", type=int, default=_DEFAULTS["swap_intervals"], metavar="R",
                   help="intervals per partition for swap rounds (default %(default)s)")
    p.add_argument(
        "--blocks", type=int, default=_DEFAULTS["dp_blocks"], metavar="B",
        help=f"dp contraction block count (default min(n, {DEFAULT_DP_BLOCKS}))",
    )
    p.add_argument("--max-rounds", type=int, default=_DEFAULTS["minla_max_rounds"], metavar="N",
                   help="metric-stage round cap (default %(default)s)")
    p.add_argument("--max-iters", type=int, default=_DEFAULTS["max_outer_iters"], metavar="N",
                   help="outer iteration cap (default %(default)s)")
    p.add_argument("--ordering-out", metavar="F")
    p.add_argument("-o", "--output", required=True, metavar="OUT_PARTITION")

    p = sub.add_parser("evaluate", help="cut, balance, and query metrics")
    add_graph_args(p)
    p.add_argument("--partition", required=True, metavar="F")
    p.add_argument("--queries", metavar="F")
    p.add_argument(
        "--alpha", type=float, default=None, metavar="A",
        help="also print the alpha-balance verdict",
    )

    p = sub.add_parser(
        "weigh-queries", help="reweight edges by shortest-path query traffic"
    )
    add_graph_args(p)
    p.add_argument("--queries", required=True, metavar="F")
    p.add_argument("-o", "--output", required=True, metavar="OUT_GRAPH")

    return parser


def _cmd_order(args) -> int:
    if args.hierarchy_out and args.method != "affinity":
        raise ValueError("--hierarchy-out requires --method affinity")
    g = io.load_graph(args.graph, args.vertices)
    if args.method == "random":
        ordering = random_ordering(g, args.seed)
    elif args.method == "hilbert":
        ordering = hilbert_ordering(g)
    else:
        ordering, hierarchy = affinity_ordering(common_neighbors_similarity(g))
        if args.hierarchy_out:
            io.write_hierarchy(g, hierarchy, args.hierarchy_out)
    io.write_ordering(g, ordering, args.output)
    return EXIT_OK


def _cmd_refine(args) -> int:
    g = io.load_graph(args.graph, args.vertices)
    ordering = io.load_ordering(g, args.ordering)
    splits = make_split_points(g, ordering, args.k, args.alpha)
    if args.method == "metric":
        state = minla_refine(g, ordering, args.max_rounds)
        for rnd, obj in enumerate(state.trace):
            print(f"round\t{rnd}\tobjective\t{obj:.6g}")
        ordering = state.ordering
    else:
        if args.k < 2:
            raise ValueError("swap refinement needs at least two parts (-k)")
        idle = 0
        for rnd in range(args.max_rounds):
            new_ordering = rank_swap_round(g, ordering, splits, rnd, args.intervals, args.seed)
            part = Partition.from_contiguous(new_ordering, splits, g)
            w, f = cut_weight(g, part)
            changed = not np.array_equal(new_ordering.vertex_at, ordering.vertex_at)
            print(f"round\t{rnd}\tcut_weight\t{w:.6g}\tcut_fraction\t{f:.4f}")
            ordering = new_ordering
            idle = 0 if changed else idle + 1
            if idle >= 2:  # a full even+odd cycle moved nothing
                break
    io.write_ordering(g, ordering, args.output)
    return EXIT_OK


def _cmd_postprocess(args) -> int:
    g = io.load_graph(args.graph, args.vertices)
    ordering = io.load_ordering(g, args.ordering)
    splits = make_split_points(g, ordering, args.k, args.alpha)
    if args.method == "dp":
        cg = contract_blocks(g, ordering, args.blocks)
        res = dp_partition(cg, args.k, args.alpha)
        if not res.feasible:
            raise _Infeasible(
                f"no alpha-balanced contiguous partition for k={args.k}, "
                f"alpha={args.alpha} at {cg.block_count} blocks"
            )
        print(f"cut_value\t{res.cut_value:.6g}")
        splits = res.split_points(args.alpha)
    else:
        ordering, splits, diagnostics = apply_window_stage(
            g, ordering, splits, args.method
        )
        for idx, old, new, moved in diagnostics:
            print(f"window\t{idx}\told\t{old:.6g}\tnew\t{new:.6g}\tmoved\t{moved}")
    io.write_splits(splits, args.output)
    if args.ordering_out:
        io.write_ordering(g, ordering, args.ordering_out)
    return EXIT_OK


def _cmd_combine(args) -> int:
    g = io.load_graph(args.graph, args.vertices)
    stages = tuple(s.strip() for s in args.stages.split(",") if s.strip())
    cfg = PipelineConfig(
        k=args.k,
        alpha=args.alpha,
        initial_ordering=args.initial,
        stages=stages,
        max_outer_iters=args.max_iters,
        seed=args.seed,
        swap_intervals=args.intervals,
        dp_blocks=args.blocks,
        minla_max_rounds=args.max_rounds,
    )
    report = combine(g, cfg)
    print("iter\tstage\tcut_weight\tcut_fraction\tbalanced\tchanged\tnote")
    for rec in report.records:
        print(rec.row())
    print(f"final_cut_fraction\t{report.final_cut_fraction:.4f}")
    print(f"converged\t{'true' if report.converged else 'false'}")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    io.write_partition(g, report.partition, args.output)
    if args.ordering_out:
        io.write_ordering(g, report.ordering, args.ordering_out)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    g = io.load_graph(args.graph, args.vertices)
    p = io.load_partition(g, args.partition)
    w, f = cut_weight(g, p)
    print(f"cut_weight\t{w:.6g}")
    print(f"cut_fraction\t{f:.4f}")
    report = check_balance(g, p, args.alpha if args.alpha is not None else 0.0)
    for j, weight, deviation in report.rows():
        print(f"part\t{j}\tweight\t{weight:.6g}\tdeviation\t{deviation:+.4f}")
    if args.alpha is not None:
        print(f"balanced\t{'true' if report.balanced else 'false'}\talpha\t{args.alpha:g}")
    if args.queries:
        queries = io.load_queries(g, args.queries)
        rate = cross_shard_rate(p, queries)
        print(f"cross_shard_rate\t{rate:.4f}")
    return EXIT_OK


def _cmd_weigh_queries(args) -> int:
    g = io.load_graph(args.graph, args.vertices)
    queries = io.load_queries(g, args.queries)
    weighted, skipped = query_weighted_graph(g, queries)
    if skipped:
        print(f"skipped {len(skipped)} unreachable query pairs:", file=sys.stderr)
        for s, t in skipped:
            print(f"  {g.external_ids[s]}\t{g.external_ids[t]}", file=sys.stderr)
    io.write_graph(weighted, args.output)
    return EXIT_OK


_HANDLERS = {
    "order": _cmd_order,
    "refine": _cmd_refine,
    "postprocess": _cmd_postprocess,
    "combine": _cmd_combine,
    "evaluate": _cmd_evaluate,
    "weigh-queries": _cmd_weigh_queries,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for bad flags; map the latter to 1
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(message)s",
    )
    try:
        return _HANDLERS[args.command](args)
    except _Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (GraphFormatError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
