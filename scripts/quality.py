#!/usr/bin/env python3
"""Cut quality of ``linepart combine`` against another checkout.

The statistic, fixed before any run: per workload and seed, the ratio of
this checkout's mean final cut fraction over the seed's benchmark
instances to the mean of the checkout at DIR. A change keeps the cut if
the median ratio is at most 1.01 on every workload over 20 seeds
(``--seeds 20``); the script exits 1 otherwise.

For seeds 1..N it generates every benchmark instance of every workload
(the instance counts of ``perfbench/run.py``) with
``perfbench/workloads.py`` and runs ``linepart combine`` on each, in
process, with the workload's flags: one child process per checkout and
seed, with that checkout's ``src`` on the path. Per workload it prints the
median and quartiles of the ratios, the seeds better, worse and equal, and
the p-value of an exact two-sided sign test over the unequal seeds. Per
side it prints the unbalanced outputs and the stage rejections. ``--json
F`` writes all of it, with the per-seed mean cuts, as one JSON object.
``--initial affinity`` replaces every workload's initial ordering with the
affinity ordering, so a change to the similarity or the pass schedule is
judged on all three families from an affinity start.

    python3 scripts/quality.py --ref ../linepart-parent [--seeds 20] [--initial affinity] [--json F]
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import run as bench  # noqa: E402
import workloads  # noqa: E402

BOUND = 1.01  # the largest median ratio that keeps the cut
# One combine per argv line of the manifest, through the CLI with its
# ``combine`` wrapped to keep the report; prints one JSON line per run.
CHILD = """
import contextlib, io, json, logging, sys
from linepart import cli
from linepart.graph import check_balance
logging.disable(logging.WARNING)
combine, kept = cli.combine, {}
def keep(g, cfg):
    report = combine(g, cfg)
    kept.update(cut=report.final_cut_fraction,
                balanced=bool(check_balance(g, report.partition, cfg.alpha).balanced),
                rejections=sum("rejected" in rec.note for rec in report.records))
    return report
cli.combine = keep
with open(sys.argv[1], encoding="utf-8") as fh:
    argvs = json.load(fh)
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code:
        sys.exit(f"combine exited {code}: {argv}")
    print(json.dumps(kept))
"""


def run_side(src: Path, manifest: Path) -> list[dict]:
    """One JSON row per manifest entry, from a child with ``src`` on the path."""
    proc = subprocess.run([sys.executable, "-c", CHILD, str(manifest)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    if proc.returncode:
        sys.exit(f"child under {src} exited {proc.returncode}:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def sign_test(better: int, worse: int) -> float:
    """Exact two-sided sign test p-value of ``better`` against ``worse``."""
    n = better + worse
    tail = sum(math.comb(n, i) for i in range(min(better, worse) + 1))
    return min(1.0, 2 * tail / 2**n)


def summary(ratios: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(ratios, n=4) if len(ratios) > 1
                      else ratios * 3)
    better, worse = sum(r < 1 for r in ratios), sum(r > 1 for r in ratios)
    return {"median": median, "q1": q1, "q3": q3, "better": better, "worse": worse,
            "equal": len(ratios) - better - worse, "sign_p": sign_test(better, worse)}


def with_initial(argv: list[str], initial: str) -> list[str]:
    """``argv`` with its ``--initial`` flag, if any, replaced by ``initial``."""
    if "--initial" in argv:
        at = argv.index("--initial")
        argv = argv[:at] + argv[at + 2:]
    return argv + ["--initial", initial]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--ref", required=True, metavar="DIR",
                    help="root of the checkout to compare with")
    ap.add_argument("--seeds", type=int, default=20, metavar="N")
    ap.add_argument("--initial", choices=("affinity",),
                    help="initial ordering of every workload (default: the workload's own)")
    ap.add_argument("--json", metavar="F", help="also write the results as JSON here")
    args = ap.parse_args()
    sides = {"change": ROOT / "src", "ref": Path(args.ref).resolve() / "src"}
    if not (sides["ref"] / "linepart").is_dir():
        ap.error(f"{sides['ref']} holds no linepart package")

    names = list(workloads.WORKLOADS)
    runs = {name: {side: [] for side in sides} for name in names}  # per seed, per instance
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for seed in range(1, args.seeds + 1):
            argvs, owners = [], []
            for name, w in workloads.WORKLOADS.items():
                for i in range(bench.INSTANCES[name]):
                    inputs = workloads.generate(name, seed, i, work / name / str(i))
                    argv = bench.combine_argv(w, inputs, work / "partition.tsv")
                    if args.initial:
                        argv = with_initial(argv, args.initial)
                    argvs.append(argv)
                    owners.append(name)
            manifest = work / "manifest.json"
            manifest.write_text(json.dumps(argvs), encoding="utf-8")
            for side, src in sides.items():
                rows = run_side(src, manifest)
                for name in names:
                    runs[name][side].append([row for row, owner in zip(rows, owners)
                                             if owner == name])
            print(f"seed {seed} done", file=sys.stderr, flush=True)

    result = {"ref": str(Path(args.ref).resolve()), "seeds": args.seeds, "bound": BOUND,
              "initial": args.initial, "workloads": {}}
    print("workload\tmedian\tq1\tq3\tbetter\tworse\tequal\tsign_p"
          "\tunbalanced\tref_unbalanced\trejections\tref_rejections")
    for name in names:
        entry = {}
        for side in sides:
            seeds = runs[name][side]
            entry[side] = {
                "mean_cut": [statistics.fmean(r["cut"] for r in rows) for rows in seeds],
                "unbalanced": sum(not r["balanced"] for rows in seeds for r in rows),
                "rejections": sum(r["rejections"] for rows in seeds for r in rows),
            }
        entry["ratios"] = [a / b if b else (1.0 if a == b else math.inf)
                           for a, b in zip(entry["change"]["mean_cut"], entry["ref"]["mean_cut"])]
        entry.update(summary(entry["ratios"]))
        result["workloads"][name] = entry
        print(f"{name}\t{entry['median']:.5f}\t{entry['q1']:.5f}\t{entry['q3']:.5f}"
              f"\t{entry['better']}\t{entry['worse']}\t{entry['equal']}\t{entry['sign_p']:.3g}"
              f"\t{entry['change']['unbalanced']}\t{entry['ref']['unbalanced']}"
              f"\t{entry['change']['rejections']}\t{entry['ref']['rejections']}")
    result["ok"] = all(e["median"] <= BOUND for e in result["workloads"].values())
    print(f"median ratio <= {BOUND} on every workload: {'yes' if result['ok'] else 'NO'}")
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
