#!/usr/bin/env python3
"""Check the benchmark itself in well under a minute.

    python3 perfbench/selftest.py

Run from the root of a source checkout. First it shows that the
correctness gate fires: a real ``combine`` run on a small ring of cliques
must pass, and an overweight part, a truncated partition file, a rerun with
different bytes and a nonzero exit status must each count as a failure.
Then it runs every workload at a small size, untraced and traced, and
checks that each reports every metric that ``BENCHMARK.json`` declares,
with no failed run.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import gate
import run
import workloads

# Small enough to finish in seconds. rmat-affinity needs more vertices: with
# k=64 and alpha=0.03 a graph of under about 2,100 vertices admits no
# alpha-balanced partition at all.
SMOKE_SCALE = {"rmat-affinity": 1 / 4, "geo-hilbert": 1 / 16, "cliques-dp": 1 / 16}


def gate_fires(root: Path) -> None:
    w = workloads.WORKLOADS["cliques-dp"]
    work = root / ".perfbench" / "selftest"
    inputs = workloads.generate(w.name, 0, 0, work, SMOKE_SCALE[w.name])
    part_path = work / "partition.tsv"
    code, _, _, _, stdout = run.run_child(root, run.combine_argv(w, inputs, part_path), work)
    good = part_path.read_bytes()

    def failures(exit_code=code, data=good, reference=good) -> list[str]:
        return gate.check(inputs, w.k, w.alpha, exit_code, data, stdout, reference)[1]

    assert not failures(), f"a correct run was refused: {failures()}"

    rows = good.decode().splitlines()
    ids, parts = gate.parse_partition(good)
    # Overweight: a third of part 1 moves to part 0, past the alpha bound.
    movers = set(ids[parts == 1][: max(1, (parts == 1).sum() // 3)].tolist())
    overweight = "".join(
        f"{i}\t{0 if i in movers else p}\n" for i, p in zip(ids.tolist(), parts.tolist())
    ).encode()
    # Rerun whose bytes differ: two vertices of different parts trade parts,
    # which keeps every part's size.
    a = int(ids[parts == 0][0])
    b = int(ids[parts == 1][0])
    swapped = "".join(
        f"{i}\t{1 if i == a else 0 if i == b else p}\n"
        for i, p in zip(ids.tolist(), parts.tolist())
    ).encode()
    cases = {
        "overweight part": failures(data=overweight, reference=None),
        "truncated file": failures(data="".join(r + "\n" for r in rows[: len(rows) // 2]).encode(),
                                   reference=None),
        "cut mid-row": failures(data=good[: len(good) // 2], reference=None),
        "rerun differs": failures(data=swapped),
        "nonzero exit": failures(exit_code=1),
    }
    code, _, _, _, _ = run.run_child(
        root, ["combine", "--graph", str(work / "missing.tsv"), "-k", "2",
               "--alpha", "0.1", "-o", str(work / "x.tsv")], work
    )
    cases["missing input"] = failures(exit_code=code)
    shutil.rmtree(work)
    for case, reasons in cases.items():
        assert reasons, f"gate did not fire on: {case}"
        print(f"gate fires\t{case}\t{'; '.join(reasons)}")


def smoke(root: Path) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {
        False: {m["name"] for m in spec["end_to_end"]},
        True: {m["name"] for m in spec["per_layer"]},
    }
    for name in workloads.WORKLOADS:
        for traced in (False, True):
            result = run.benchmark(root, name, 0, 1.0, traced, SMOKE_SCALE[name])
            assert result["correct"] and result["failed"] == 0, (name, traced, result)
            assert set(result["metrics"]) == declared[traced], (
                name, traced, set(result["metrics"]) ^ declared[traced]
            )
            print(f"smoke ok\t{name}\ttrace={int(traced)}\t{result['attempted']} runs")


def main() -> int:
    root = Path.cwd()
    gate_fires(root)
    smoke(root)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
