#!/usr/bin/env python3
"""linepart benchmark: fresh ``linepart combine`` processes on seeded graphs.

    python3 perfbench/run.py --workload rmat-affinity --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The workload's instances are generated from the seed (see
``workloads.py``) and each is run, one process at a time, as
``linepart combine`` with the CLI's defaults plus the workload's flags.
Every instance runs once, the first instance once more, and then the
instances repeat in turn until ``--seconds`` have passed. Every run goes
through the correctness gate (``gate.py``); reruns must reproduce the first
run's partition bytes.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end ones: median ``wall_s`` (spawn to exit), median ``setup_s``
(spawn until ``io.load_graph`` returns), median ``peak_rss_mb`` (the
child's ``ru_maxrss``) and ``cut_fraction`` (mean over the instances of the
recomputed final cut). ``failed``/``attempted`` give the fail rate.

With ``--trace 1`` only the first instance is used: it runs untraced for
half of ``--seconds``, then once more in this process with every layer's
public functions wrapped (``tracing.py``). The metrics are per layer, plus
``trace.overhead_s`` (traced minus median untraced ``pipeline.combine``);
the spans go to ``.perfbench/trace-<workload>-<seed>.json``.

Exits 2 without a result when the checkout holds no ``src/linepart``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import tracing
import workloads

HERE = Path(__file__).resolve().parent

# Instances per run. Run time and cut vary from graph to graph, most on
# cliques-dp, so a run averages over several; with the first instance's
# rerun, the counts keep one run near 25 s on 2 cores.
INSTANCES = {"rmat-affinity": 2, "geo-hilbert": 3, "cliques-dp": 7}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cut_fraction": "fraction"}


@dataclass
class Sample:
    instance: int
    wall_s: float
    setup_s: float | None
    combine_s: float | None
    peak_rss_mb: float
    cut: float | None
    reasons: list[str]


def combine_argv(w: workloads.Workload, inputs: workloads.Inputs, out: Path) -> list[str]:
    argv = ["combine", "--graph", str(inputs.edges)]
    if inputs.vertices is not None:
        argv += ["--vertices", str(inputs.vertices)]
    return argv + ["-k", str(w.k), "--alpha", str(w.alpha), *w.flags, "-o", str(out)]


def run_child(root: Path, argv: list[str], work: Path) -> tuple[int, float, dict, float, str]:
    """(exit code, wall s, marks, peak RSS MB, stdout) of one CLI process."""
    marks_path = work / "marks.json"
    marks_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with open(work / "stdout.txt", "w+", encoding="utf-8") as out, \
            open(work / "stderr.txt", "w", encoding="utf-8") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(marks_path), *argv],
            stdout=out, stderr=err, env=env, cwd=root,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    marks = {}
    if marks_path.exists():
        marks = json.loads(marks_path.read_text())
        if "loaded" in marks:
            marks["setup_s"] = marks["loaded"] - t0
    return proc.returncode, wall, marks, usage.ru_maxrss / 1024.0, stdout


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Bench:
    """One benchmark invocation: generated instances and their runs."""

    def __init__(self, root: Path, name: str, seed: int, scale: float = 1.0):
        self.root = root
        self.w = workloads.WORKLOADS[name]
        self.seed = seed
        self.scale = scale
        self.work = root / ".perfbench" / f"{name}-{seed}"
        self.samples: list[Sample] = []
        self.reference: dict[int, bytes] = {}

    def generate(self, count: int) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.inputs = [
            workloads.generate(self.w.name, self.seed, i, self.work / f"i{i}", self.scale)
            for i in range(count)
        ]
        for i, inp in enumerate(self.inputs):
            props = workloads.properties(inp, self.w)
            print(f"instance\t{i}\t" + "\t".join(f"{k}={v}" for k, v in props.items()))

    def run(self, i: int) -> Sample:
        inp = self.inputs[i]
        part_path = self.work / f"i{i}" / "partition.tsv"
        part_path.unlink(missing_ok=True)
        code, wall, marks, rss, stdout = run_child(
            self.root, combine_argv(self.w, inp, part_path), self.work
        )
        data = part_path.read_bytes() if part_path.exists() else None
        cut, reasons = gate.check(
            inp, self.w.k, self.w.alpha, code, data, stdout, self.reference.get(i)
        )
        if data is not None:
            self.reference.setdefault(i, data)
        s = Sample(i, wall, marks.get("setup_s"), marks.get("combine_s"), rss, cut, reasons)
        self.samples.append(s)
        print(
            f"run\tinstance={i}\twall_s={wall:.4f}\tsetup_s={s.setup_s}\t"
            f"combine_s={s.combine_s}\tpeak_rss_mb={rss:.1f}\tcut_fraction={cut}\t"
            + ("ok" if not reasons else "FAIL: " + "; ".join(reasons)),
            flush=True,
        )
        return s

    def run_for(self, seconds: float) -> None:
        """Each instance once, the first once more, then in turn until
        ``seconds`` have passed since the first run started."""
        start = time.monotonic()
        n = len(self.inputs)
        for j in itertools.count():
            if j > n and time.monotonic() - start >= seconds:
                break
            self.run(j % n)

    @property
    def good(self) -> list[Sample]:
        return [s for s in self.samples if not s.reasons]

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.reasons)

    def end_to_end(self) -> dict[str, float]:
        good = self.good
        first_cuts = {}
        for s in good:
            first_cuts.setdefault(s.instance, s.cut)
        series = {
            "wall_s": [s.wall_s for s in good],
            "setup_s": [s.setup_s for s in good],
            "peak_rss_mb": [s.peak_rss_mb for s in good],
            "cut_fraction": list(first_cuts.values()),
        }
        # The cut is deterministic per instance, so its mean over the
        # instances is the steadier figure; times and memory take the median.
        print("metric\tunit\tvalue\tq1\tmedian\tq3\tsamples")
        values = {}
        for name, vals in series.items():
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            values[name] = statistics.fmean(vals) if name == "cut_fraction" else med
            print(f"{name}\t{END_TO_END_UNITS[name]}\t{values[name]:.6g}\t{q1:.6g}"
                  f"\t{med:.6g}\t{q3:.6g}\t{len(vals)}")
        print(f"fail_rate\tfraction\t{self.failed / max(1, len(self.samples)):.6g}"
              f"\t({self.failed} of {len(self.samples)} runs)")
        return values

    def traced(self) -> dict[str, float]:
        """Run instance 0 in this process under the tracer; per-layer metrics."""
        src = str(self.root / "src")
        sys.path.insert(0, src)
        import linepart

        if not Path(linepart.__file__).resolve().is_relative_to(Path(src).resolve()):
            raise RuntimeError(f"imported {linepart.__file__}, not the checkout's")
        from linepart import cli

        inp = self.inputs[0]
        part_path = self.work / "i0" / "traced.tsv"
        tracer = tracing.Tracer()
        tracing.install(tracer)
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured):
                code = cli.main(combine_argv(self.w, inp, part_path))
        finally:
            tracer.restore()
        data = part_path.read_bytes() if part_path.exists() else None
        cut, reasons = gate.check(
            inp, self.w.k, self.w.alpha, code, data, captured.getvalue(), self.reference.get(0)
        )
        self.samples.append(Sample(0, 0.0, None, None, 0.0, cut, reasons))
        print("traced\t" + ("ok" if not reasons else "FAIL: " + "; ".join(reasons)))

        metrics = tracing.analyse(tracer)
        untraced = [s.combine_s for s in self.good if s.combine_s is not None]
        if untraced:
            metrics["trace.overhead_s"] = metrics["pipeline.combine.s"] - statistics.median(untraced)
        selfs = tracing.self_times(tracer.spans)
        print("layer\ttotal_s\tself_s")
        for name in sorted(selfs, key=selfs.get, reverse=True):
            total = sum(s.end - s.start for s in tracer.spans if s.name == name)
            print(f"{name}\t{total:.4f}\t{selfs[name]:.4f}")
        out = self.root / ".perfbench" / f"trace-{self.w.name}-{self.seed}.json"
        out.write_text(json.dumps({
            "workload": self.w.name,
            "seed": self.seed,
            "inputs": workloads.properties(inp, self.w),
            "metrics": metrics,
            "self_s": selfs,
            "spans": [vars(s) for s in tracer.spans],
        }))
        return metrics


def per_layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    return "fraction" if name.endswith("cut_fraction") else "count"


def benchmark(root: Path, name: str, seed: int, seconds: float, traced: bool,
              scale: float = 1.0) -> dict:
    """Run one workload; the result object printed as the last stdout line."""
    bench = Bench(root, name, seed, scale)
    # Compile the package's bytecode first, so no timed run pays for it.
    subprocess.run(
        [sys.executable, "-c", "import linepart.cli"],
        env=dict(os.environ, PYTHONPATH=str(root / "src")), cwd=root, check=True,
    )
    try:
        if traced:
            bench.generate(1)
            bench.run_for(seconds / 2)
            values = bench.traced()
            metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
        else:
            bench.generate(INSTANCES[name])
            bench.run_for(seconds)
            values = bench.end_to_end()
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    return {
        "correct": bench.failed == 0,
        "attempted": len(bench.samples),
        "failed": bench.failed,
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = Path.cwd()
    if not (root / "src" / "linepart" / "cli.py").is_file():
        print(f"error: {root} holds no src/linepart; run from a linepart checkout",
              file=sys.stderr)
        return 2
    result = benchmark(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
