"""Run one ``linepart`` CLI command in a fresh interpreter and note two times.

    python3 perfbench/child.py MARKS_JSON combine --graph edges.tsv ...

Behaves like ``linepart`` with the given arguments (same exit code, same
output). On exit it writes MARKS_JSON with ``loaded``, the CLOCK_MONOTONIC
reading when ``io.load_graph`` first returned (the parent subtracts its
spawn reading to get set-up time), and ``combine_s``, the wall time of
``pipeline.combine``. The two wrappers are each called once per run.
"""

import json
import sys
import time


def main() -> int:
    marks_path, argv = sys.argv[1], sys.argv[2:]
    from linepart import cli, io

    marks: dict[str, float] = {}
    load_graph, combine = io.load_graph, cli.combine

    def timed_load_graph(*args, **kwargs):
        g = load_graph(*args, **kwargs)
        marks.setdefault("loaded", time.monotonic())
        return g

    def timed_combine(*args, **kwargs):
        t0 = time.monotonic()
        report = combine(*args, **kwargs)
        marks["combine_s"] = time.monotonic() - t0
        return report

    io.load_graph, cli.combine = timed_load_graph, timed_combine
    try:
        return cli.main(argv)
    finally:
        with open(marks_path, "w", encoding="utf-8") as fh:
            json.dump(marks, fh)


if __name__ == "__main__":
    sys.exit(main())
