#!/usr/bin/env python3
"""Probe combine's balance on small graphs with unequal vertex weights.

    python3 scripts/weighted_probe.py [--cases 80]

Case c draws, in this order and from one ``numpy.random.default_rng(12345)``
shared by all cases: n in [20, 80); a G(n, 0.15) graph (one uniform per
vertex pair of ``numpy.triu_indices(n, 1)``); vertex weights from
{1, 1, 2, 3}; k in [2, 6); alpha from {0.05, 0.1, 0.3}. ``combine`` then runs
with a random initial order and seed c, the default stages and
``max_outer_iters`` 4. The script prints one line per unbalanced output and
per stage rejection, then the counts, including the unbalanced outputs whose
order has no balanced contiguous chop at all.
"""

import argparse
import logging
import sys

import numpy as np

from linepart.graph import Graph, balance_bounds, check_balance
from linepart.pipeline import PipelineConfig, combine


def has_balanced_chop(weights: np.ndarray, k: int, alpha: float) -> bool:
    """Can ``weights``, in this order, be cut into k contiguous parts that
    all meet the alpha-balance rule?"""
    lo, hi = balance_bounds(float(weights.sum()), k, alpha)
    prefix = np.concatenate([[0.0], np.cumsum(weights)])
    reach = {0}  # prefix lengths that j balanced parts can end at
    for _ in range(k):
        reach = {end for start in reach for end in range(start + 1, len(prefix))
                 if lo <= prefix[end] - prefix[start] <= hi}
    return len(weights) in reach


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--cases", type=int, default=80)
    args = ap.parse_args()
    logging.disable(logging.WARNING)
    rng = np.random.default_rng(12345)
    unbalanced = rejections = no_chop = 0
    for case in range(args.cases):
        n = int(rng.integers(20, 80))
        iu, iv = np.triu_indices(n, 1)
        pick = rng.random(len(iu)) < 0.15
        vw = rng.choice([1.0, 1.0, 2.0, 3.0], n)
        k = int(rng.integers(2, 6))
        alpha = float(rng.choice([0.05, 0.1, 0.3]))
        g = Graph.from_arcs(iu[pick], iv[pick], np.ones(int(pick.sum())),
                            [str(i) for i in range(n)], vertex_weights=vw)
        cfg = PipelineConfig(k=k, alpha=alpha, initial_ordering="random", seed=case,
                             max_outer_iters=4)
        report = combine(g, cfg)
        for rec in report.records:
            if "rejected" in rec.note:
                rejections += 1
                print(f"case\t{case}\trejected\t{rec.iteration}\t{rec.stage}")
        if not check_balance(g, report.partition, alpha).balanced:
            unbalanced += 1
            chop = has_balanced_chop(vw[report.ordering.vertex_at], k, alpha)
            no_chop += not chop
            print(f"case\t{case}\tunbalanced\tn\t{n}\tk\t{k}\talpha\t{alpha}"
                  f"\tbalanced_chop\t{int(chop)}")
    print(f"cases\t{args.cases}\tunbalanced\t{unbalanced}\tno_balanced_chop\t{no_chop}"
          f"\trejections\t{rejections}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
