#!/usr/bin/env python3
"""Byte-identity check of ``linepart combine`` against another checkout.

Generates instances 0 and 1 of every benchmark workload at seeds 1 and 2
with ``perfbench/workloads.py``, runs ``linepart combine`` on each with the
workload's flags plus ``--ordering-out``, once with this checkout's ``src``
and once with ``DIR/src``, and prints the sha256 of the partition, the
ordering and stdout. It also loads each instance with ``io.load_graph``
under both trees and prints the sha256 of the loaded graph: its
``external_ids``, edge and CSR arrays, ``vertex_weights`` and ``geo``.
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

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

SEEDS = (1, 2)
INSTANCES = (0, 1)
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


def combine_digests(src: Path, argv: list[str], work: Path) -> list[str]:
    """sha256 of (partition, ordering, stdout) of one ``combine`` run."""
    part, order = work / "partition.tsv", work / "ordering.tsv"
    proc = subprocess.run(
        [sys.executable, "-c", CLI, *argv,
         "--ordering-out", str(order), "-o", str(part)],
        env=dict(os.environ, PYTHONPATH=str(src)), cwd=work, capture_output=True,
    )
    if proc.returncode:
        sys.exit(f"combine under {src} exited {proc.returncode}:\n{proc.stderr.decode()}")
    blobs = (part.read_bytes(), order.read_bytes(), proc.stdout)
    return [hashlib.sha256(b).hexdigest() for b in blobs]


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
    print("workload\tseed\tinstance\tverdict\tpartition\tordering\tstdout\tgraph")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for w, seed, instance in itertools.product(
            workloads.WORKLOADS.values(), SEEDS, INSTANCES
        ):
            inputs = workloads.generate(w.name, seed, instance, work / "in")
            files = [str(inputs.edges)]
            argv = ["combine", "--graph", str(inputs.edges)]
            if inputs.vertices is not None:
                files.append(str(inputs.vertices))
                argv += ["--vertices", str(inputs.vertices)]
            argv += ["-k", str(w.k), "--alpha", str(w.alpha), *w.flags]
            ours = combine_digests(ROOT / "src", argv, work)
            ours.append(graph_digest(ROOT / "src", files))
            theirs = combine_digests(ref_src, argv, work)
            theirs.append(graph_digest(ref_src, files))
            total += 1
            same += ours == theirs
            verdict = "same" if ours == theirs else "DIFF"
            print("\t".join([w.name, str(seed), str(instance), verdict, *ours]), flush=True)
            if ours != theirs:
                print("\t".join(["", "", "", "ref", *theirs]), flush=True)
    print(f"{same}/{total} identical")
    return 0 if same == total else 1


if __name__ == "__main__":
    sys.exit(main())
