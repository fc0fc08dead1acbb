#!/usr/bin/env python3
"""Byte-identity check of ``linepart combine`` against another checkout.

Generates instances 0 and 1 of every benchmark workload at seeds 1 and 2
with ``perfbench/workloads.py``, runs ``linepart combine`` on each with the
workload's flags plus ``--ordering-out``, once with this checkout's ``src``
and once with ``DIR/src``, and prints the sha256 of the partition, the
ordering and stdout. It also loads each instance with ``io.load_graph``
under both trees and prints the sha256 of the loaded graph: its
``external_ids``, edge and CSR arrays, ``vertex_weights`` and ``geo``.
On instance 0 of every workload at seed 1 it also runs ``linepart order
--method random --seed 1`` and then ``linepart refine --method swap`` and
``linepart refine --method metric`` with the workload's k and alpha and
``--seed 1`` under both trees, and prints the sha256 of each refined
ordering and of stdout (the metric run prints every round's objective).
The metric run and the ``postprocess --method mincut`` run below repeat
on a copy of that instance's edge file with a third column of seeded
uniform weights in [0.1, 10), so the weighted-median search stays checked
next to the unit-weight shortcut, and a min cut with float capacities
stays checked too.
From the same random order it runs ``linepart postprocess --method dp`` at
``--blocks 300`` and at the default block count, and prints the exit code
and the sha256 of the splits file and stdout (which holds ``cut_value``),
or of stderr when the dp finds no balanced split and exits 2. From that
random order it also runs ``linepart postprocess --method mincut`` and
``--method linopt`` with ``--ordering-out``, and prints the sha256 of the
splits file, the ordering and stdout (which holds every window's row).
On rmat-affinity it repeats those two window runs at k = 1024, where the
half slack at the workload's alpha is under a rank and most windows are
degenerate (646 of 1023 hold no rank within their slack and take their
band's nearest rank), so the placement of degenerate windows stays checked.
Exits 1 on any mismatch.

    python3 scripts/parity.py --ref ../linepart-parent
"""

import argparse
import hashlib
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

SEEDS = (1, 2)
INSTANCES = (0, 1)
LARGE_K = 1024  # k of the extra rmat-affinity window rows
CLI = "import sys; from linepart.cli import main; sys.exit(main(sys.argv[1:]))"
GRAPH = """
import hashlib, sys
from linepart.io import load_graph
g = load_graph(*sys.argv[1:])
h = hashlib.sha256("\\n".join(g.external_ids).encode())
for name in ("edge_u", "edge_v", "edge_w", "adj_indptr", "adj_indices", "adj_edge",
             "adj_weights", "vertex_weights", "geo"):
    a = getattr(g, name)
    h.update(f"{name} {None if a is None else (a.dtype.str, a.shape)}".encode())
    if a is not None:
        h.update(a.tobytes())
print(h.hexdigest())
"""


def run(src: Path, argv: list[str], work: Path) -> subprocess.CompletedProcess:
    """One ``linepart`` command run with ``src`` on the path."""
    return subprocess.run(
        [sys.executable, "-c", CLI, *argv],
        env=dict(os.environ, PYTHONPATH=str(src)), cwd=work, capture_output=True,
    )


def run_cli(src: Path, argv: list[str], work: Path) -> bytes:
    """stdout of one ``linepart`` command; a failed run aborts the check."""
    proc = run(src, argv, work)
    if proc.returncode:
        sys.exit(f"{argv[0]} under {src} exited {proc.returncode}:\n{proc.stderr.decode()}")
    return proc.stdout


def sha256s(*blobs: bytes) -> list[str]:
    return [hashlib.sha256(b).hexdigest() for b in blobs]


def combine_digests(src: Path, argv: list[str], work: Path) -> list[str]:
    """sha256 of (partition, ordering, stdout) of one ``combine`` run."""
    part, order = work / "partition.tsv", work / "ordering.tsv"
    out = run_cli(src, [*argv, "--ordering-out", str(order), "-o", str(part)], work)
    return sha256s(part.read_bytes(), order.read_bytes(), out)


def refine_digests(
    src: Path, method: str, graph: list[str], k: int, alpha: float, work: Path
) -> list[str]:
    """sha256 of (refined ordering, stdout) of ``refine --method METHOD``
    over a seeded random order."""
    start, refined = work / "random.tsv", work / "refined.tsv"
    run_cli(src, ["order", "--method", "random", "--seed", "1", *graph, "-o", str(start)], work)
    out = run_cli(src, ["refine", "--method", method, *graph, "--ordering", str(start),
                        "-k", str(k), "--alpha", str(alpha), "--seed", "1",
                        "-o", str(refined)], work)
    return sha256s(refined.read_bytes(), out)


def weighted_copy(edges: Path, seed: int, out: Path) -> Path:
    """``edges`` with a third column of seeded uniform weights in [0.1, 10)."""
    rows = edges.read_text(encoding="utf-8").splitlines()
    weights = np.random.default_rng(seed).uniform(0.1, 10.0, len(rows)).tolist()
    out.write_text("".join(f"{row}\t{w!r}\n" for row, w in zip(rows, weights)), encoding="utf-8")
    return out


def dp_digests(
    src: Path, graph: list[str], k: int, alpha: float, blocks: int | None, work: Path
) -> list[str]:
    """Exit code and sha256 of (splits, stdout) of ``postprocess --method
    dp`` over a seeded random order, or of stderr if it exits 2."""
    start, splits = work / "random.tsv", work / "splits.txt"
    run_cli(src, ["order", "--method", "random", "--seed", "1", *graph, "-o", str(start)], work)
    splits.unlink(missing_ok=True)
    argv = ["postprocess", "--method", "dp", *graph, "--ordering", str(start),
            "-k", str(k), "--alpha", str(alpha), "-o", str(splits)]
    if blocks is not None:
        argv += ["--blocks", str(blocks)]
    proc = run(src, argv, work)
    if proc.returncode not in (0, 2):
        sys.exit(f"postprocess under {src} exited {proc.returncode}:\n{proc.stderr.decode()}")
    if proc.returncode:
        return [f"exit {proc.returncode}", *sha256s(proc.stderr)]
    return ["exit 0", *sha256s(splits.read_bytes(), proc.stdout)]


def window_digests(
    src: Path, method: str, graph: list[str], k: int, alpha: float, work: Path
) -> list[str]:
    """sha256 of (splits, ordering, stdout) of ``postprocess --method
    METHOD`` over a seeded random order."""
    start, splits, order = work / "random.tsv", work / "splits.txt", work / "ordering.tsv"
    run_cli(src, ["order", "--method", "random", "--seed", "1", *graph, "-o", str(start)], work)
    out = run_cli(src, ["postprocess", "--method", method, *graph, "--ordering", str(start),
                        "-k", str(k), "--alpha", str(alpha), "--ordering-out", str(order),
                        "-o", str(splits)], work)
    return sha256s(splits.read_bytes(), order.read_bytes(), out)


def graph_digest(src: Path, files: list[str]) -> str:
    """sha256 of the graph that ``io.load_graph(*files)`` loads."""
    proc = subprocess.run(
        [sys.executable, "-c", GRAPH, *files],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    )
    if proc.returncode:
        sys.exit(f"load_graph under {src} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--ref", required=True, metavar="DIR",
                    help="root of the checkout to compare with")
    args = ap.parse_args()
    ref_src = Path(args.ref).resolve() / "src"
    if not (ref_src / "linepart").is_dir():
        ap.error(f"{ref_src} holds no linepart package")

    same = total = 0
    methods = ("swap", "metric")
    refine_same = dict.fromkeys(methods, 0)
    refine_total = 0
    weighted = {"metric": refine_digests, "mincut": window_digests}
    weighted_same = dict.fromkeys(weighted, 0)
    dp_blocks = (300, None)
    dp_same = dp_total = 0
    windows = ("mincut", "linopt")
    window_same = dict.fromkeys(windows, 0)
    large_same = dict.fromkeys(windows, 0)
    large_total = 0

    def report(row: list[str], ours: list[str], theirs: list[str]) -> None:
        print("\t".join([*row, "same" if ours == theirs else "DIFF", *ours]), flush=True)
        if ours != theirs:
            print("\t".join([""] * len(row) + ["ref", *theirs]), flush=True)

    print("workload\tseed\tinstance\tverdict\tpartition\tordering\tstdout\tgraph")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for w, seed, instance in itertools.product(
            workloads.WORKLOADS.values(), SEEDS, INSTANCES
        ):
            inputs = workloads.generate(w.name, seed, instance, work / "in")
            files = [str(inputs.edges)]
            graph = ["--graph", str(inputs.edges)]
            if inputs.vertices is not None:
                files.append(str(inputs.vertices))
                graph += ["--vertices", str(inputs.vertices)]
            argv = ["combine", *graph, "-k", str(w.k), "--alpha", str(w.alpha), *w.flags]
            ours = combine_digests(ROOT / "src", argv, work)
            ours.append(graph_digest(ROOT / "src", files))
            theirs = combine_digests(ref_src, argv, work)
            theirs.append(graph_digest(ref_src, files))
            total += 1
            same += ours == theirs
            report([w.name, str(seed), str(instance)], ours, theirs)
            if (seed, instance) == (1, 0):
                refine_total += 1
                for method in methods:
                    ours = refine_digests(ROOT / "src", method, graph, w.k, w.alpha, work)
                    theirs = refine_digests(ref_src, method, graph, w.k, w.alpha, work)
                    refine_same[method] += ours == theirs
                    row = "refine" if method == "swap" else method
                    report([w.name, str(seed), row], ours, theirs)
                copy = ["--graph", str(weighted_copy(inputs.edges, seed, work / "weighted.tsv")),
                        *graph[2:]]
                for method, digests in weighted.items():
                    ours = digests(ROOT / "src", method, copy, w.k, w.alpha, work)
                    theirs = digests(ref_src, method, copy, w.k, w.alpha, work)
                    weighted_same[method] += ours == theirs
                    report([w.name, str(seed), f"{method} weighted"], ours, theirs)
                for blocks in dp_blocks:
                    ours = dp_digests(ROOT / "src", graph, w.k, w.alpha, blocks, work)
                    theirs = dp_digests(ref_src, graph, w.k, w.alpha, blocks, work)
                    dp_total += 1
                    dp_same += ours == theirs
                    report([w.name, str(seed), f"dp --blocks {blocks or 'default'}"], ours, theirs)
                for method in windows:
                    ours = window_digests(ROOT / "src", method, graph, w.k, w.alpha, work)
                    theirs = window_digests(ref_src, method, graph, w.k, w.alpha, work)
                    window_same[method] += ours == theirs
                    report([w.name, str(seed), method], ours, theirs)
                if w.name == "rmat-affinity":
                    large_total += 1
                    for method in windows:
                        ours = window_digests(ROOT / "src", method, graph, LARGE_K, w.alpha, work)
                        theirs = window_digests(ref_src, method, graph, LARGE_K, w.alpha, work)
                        large_same[method] += ours == theirs
                        report([w.name, str(seed), f"{method} -k {LARGE_K}"], ours, theirs)
    print(f"{same}/{total} identical")
    for method in methods:
        print(f"refine --method {method}: {refine_same[method]}/{refine_total} identical "
              "(refined ordering, stdout)")
    print(f"refine --method metric, weighted copy: {weighted_same['metric']}/{refine_total} "
          "identical (refined ordering, stdout)")
    print(f"postprocess --method mincut, weighted copy: {weighted_same['mincut']}/{refine_total} "
          "identical (splits, ordering, stdout)")
    print(f"postprocess --method dp: {dp_same}/{dp_total} identical "
          "(exit code, splits and stdout, or stderr)")
    for method in windows:
        print(f"postprocess --method {method}: {window_same[method]}/{refine_total} identical "
              "(splits, ordering, stdout)")
    for method in windows:
        print(f"postprocess --method {method} -k {LARGE_K}: {large_same[method]}/{large_total} "
              "identical (splits, ordering, stdout)")
    ok = (same == total and all(c == refine_total for c in refine_same.values())
          and all(c == refine_total for c in weighted_same.values())
          and dp_same == dp_total
          and all(c == refine_total for c in window_same.values())
          and all(c == large_total for c in large_same.values()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
