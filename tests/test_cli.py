"""Command-line surface tests: behaviors, formats, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from linepart import cli
from linepart.cli import main
from linepart.pipeline import PipelineConfig


K3 = "a\tb\nb\tc\na\tc\n"
TWO_CLIQUES = "".join(
    f"{u}\t{v}\n"
    for base in (0, 4)
    for u, v in [(base, base + 1), (base, base + 2), (base, base + 3),
                 (base + 1, base + 2), (base + 1, base + 3), (base + 2, base + 3)]
)


@pytest.fixture
def k3(tmp_path):
    p = tmp_path / "k3.tsv"
    p.write_text(K3)
    return p


@pytest.fixture
def cliques(tmp_path):
    p = tmp_path / "cliques.tsv"
    p.write_text(TWO_CLIQUES)
    return p


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_evaluate_prints_cut_fraction(tmp_path, capsys, k3):
    part = tmp_path / "part.tsv"
    part.write_text("a\t0\nb\t1\nc\t1\n")
    code, out, _ = run(capsys, "evaluate", "--graph", k3, "--partition", part)
    assert code == 0
    assert "cut_fraction\t0.6667" in out
    assert "cut_weight\t2" in out


def test_evaluate_balance_and_queries(tmp_path, capsys, k3):
    part = tmp_path / "part.tsv"
    part.write_text("a\t0\nb\t1\nc\t1\n")
    queries = tmp_path / "q.tsv"
    queries.write_text("a\tb\nb\tc\n")
    code, out, _ = run(
        capsys, "evaluate", "--graph", k3, "--partition", part,
        "--queries", queries, "--alpha", "0.2",
    )
    assert code == 0
    assert "balanced\tfalse\talpha\t0.2" in out  # part weight 1 < 0.8 * 1.5
    assert "cross_shard_rate\t0.5000" in out


def test_combine_two_cliques_zero_cut(tmp_path, capsys, cliques):
    out_path = tmp_path / "part.out"
    code, out, _ = run(
        capsys, "combine", "--graph", cliques, "-k", "2", "--alpha", "0",
        "-o", out_path,
    )
    assert code == 0
    assert "final_cut_fraction\t0.0000" in out
    rows = dict(line.split("\t") for line in out_path.read_text().splitlines())
    assert {rows[str(v)] for v in range(4)} != {rows[str(v)] for v in range(4, 8)}


def test_combine_byte_identical_reruns(tmp_path, capsys, cliques):
    a, b = tmp_path / "a.out", tmp_path / "b.out"
    for path in (a, b):
        code, _, _ = run(
            capsys, "combine", "--graph", cliques, "-k", "2", "--alpha", "0",
            "--seed", "7", "-o", path,
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_order_and_refine_round_trip(tmp_path, capsys, cliques):
    ord_path = tmp_path / "ord.tsv"
    code, _, _ = run(
        capsys, "order", "--method", "affinity", "--graph", cliques,
        "-o", ord_path, "--hierarchy-out", tmp_path / "hier.tsv",
    )
    assert code == 0
    assert len(ord_path.read_text().splitlines()) == 8
    refined = tmp_path / "refined.tsv"
    code, out, _ = run(
        capsys, "refine", "--method", "swap", "--graph", cliques,
        "--ordering", ord_path, "-k", "2", "-o", refined,
    )
    assert code == 0
    assert "cut_fraction\t0.0000" in out


def test_refine_metric_prints_trace(tmp_path, capsys, k3):
    ord_path = tmp_path / "ord.tsv"
    run(capsys, "order", "--method", "random", "--graph", k3, "--seed", "1",
        "-o", ord_path)
    out_path = tmp_path / "out.tsv"
    code, out, _ = run(
        capsys, "refine", "--method", "metric", "--graph", k3,
        "--ordering", ord_path, "-k", "2", "--max-rounds", "3", "-o", out_path,
    )
    assert code == 0
    assert out.startswith("round\t0\tobjective")


def test_postprocess_mincut_writes_splits_and_ordering(tmp_path, capsys, cliques):
    ord_path = tmp_path / "ord.tsv"
    run(capsys, "order", "--method", "random", "--graph", cliques, "--seed", "3",
        "-o", ord_path)
    splits_path = tmp_path / "splits.txt"
    new_ord = tmp_path / "ord2.tsv"
    code, out, _ = run(
        capsys, "postprocess", "--method", "mincut", "--graph", cliques,
        "--ordering", ord_path, "-k", "2", "--alpha", "0.5",
        "-o", splits_path, "--ordering-out", new_ord,
    )
    assert code == 0
    values = [int(x) for x in splits_path.read_text().split()]
    assert values[0] == 0 and values[-1] == 8 and len(values) == 3
    assert new_ord.exists()
    assert out.startswith("window\t1\t")


def test_postprocess_dp_infeasible_exit_code(tmp_path, capsys):
    g = tmp_path / "p3.tsv"
    g.write_text("a\tb\nb\tc\n")
    ord_path = tmp_path / "ord.tsv"
    run(capsys, "order", "--method", "random", "--graph", g, "--seed", "0",
        "-o", ord_path)
    code, _, err = run(
        capsys, "postprocess", "--method", "dp", "--graph", g,
        "--ordering", ord_path, "-k", "2", "--alpha", "0",
        "-o", tmp_path / "splits.txt",
    )
    assert code == 2
    assert "infeasible" in err
    assert not (tmp_path / "splits.txt").exists()


def test_postprocess_dp_alpha_one_writes_nonempty_optimal_splits(tmp_path, capsys, cliques):
    ord_path = tmp_path / "ord.tsv"
    run(capsys, "order", "--method", "random", "--graph", cliques, "--seed", "3",
        "-o", ord_path)
    splits_path = tmp_path / "splits.txt"
    code, out, _ = run(
        capsys, "postprocess", "--method", "dp", "--graph", cliques,
        "--ordering", ord_path, "-k", "3", "--alpha", "1", "-o", splits_path,
    )
    assert code == 0
    values = [int(x) for x in splits_path.read_text().split()]
    assert len(values) == 4 and values[0] == 0 and values[-1] == 8
    sizes = [b - a for a, b in zip(values, values[1:])]
    assert all(1 <= size <= 5 for size in sizes)  # (1 + alpha) * n / k = 5.33
    part = tmp_path / "part.tsv"
    rank_of = {line.split("\t")[0]: int(line.split("\t")[1])
               for line in ord_path.read_text().splitlines()}
    part.write_text("".join(
        f"{v}\t{sum(r >= q for q in values[1:-1])}\n" for v, r in rank_of.items()
    ))
    _, evaluated, _ = run(capsys, "evaluate", "--graph", cliques, "--partition", part)
    cut = next(line for line in out.splitlines() if line.startswith("cut_value\t"))
    assert cut.split("\t")[1] == evaluated.splitlines()[0].split("\t")[1]


def test_postprocess_dp_writes_unchanged_ordering(tmp_path, capsys, cliques):
    ord_path = tmp_path / "ord.tsv"
    run(capsys, "order", "--method", "random", "--graph", cliques, "--seed", "3",
        "-o", ord_path)
    new_ord = tmp_path / "ord2.tsv"
    code, _, _ = run(
        capsys, "postprocess", "--method", "dp", "--graph", cliques,
        "--ordering", ord_path, "-k", "2", "--alpha", "0.5",
        "-o", tmp_path / "splits.txt", "--ordering-out", new_ord,
    )
    assert code == 0
    assert new_ord.exists()
    assert new_ord.read_text() == ord_path.read_text()


def test_allow_empty_parts_flag_is_gone(tmp_path, capsys, cliques):
    ord_path = tmp_path / "ord.tsv"
    run(capsys, "order", "--method", "random", "--graph", cliques, "-o", ord_path)
    out = tmp_path / "splits.txt"
    code, _, _ = run(
        capsys, "postprocess", "--method", "dp", "--graph", cliques,
        "--ordering", ord_path, "-k", "3", "--alpha", "1",
        "--allow-empty-parts", "-o", out,
    )
    assert code == 1
    assert not out.exists()


def test_combine_dp_alpha_one_gives_k_nonempty_parts(tmp_path, capsys):
    g = tmp_path / "triangles.tsv"
    g.write_text("a\tb\nb\tc\na\tc\nx\ty\ny\tz\nx\tz\n")
    out = tmp_path / "part.tsv"
    code, _, err = run(
        capsys, "combine", "--graph", g, "--stages", "dp", "--alpha", "1",
        "-k", "3", "--initial", "random", "-o", out,
    )
    assert code == 0, err
    parts = [int(line.split("\t")[1]) for line in out.read_text().splitlines()]
    assert sorted(set(parts)) == [0, 1, 2]


@pytest.mark.parametrize("window", ["mincut", "linopt"])
def test_combine_dp_then_window_stage_stays_balanced(tmp_path, capsys, window):
    # the dp places a split outside its window; the window stage must not
    # move a neighbouring split across it
    g = tmp_path / "path.tsv"
    g.write_text("".join(f"{i}\t{i + 1}\n" for i in range(9)))
    out = tmp_path / "part.tsv"
    code, _, err = run(
        capsys, "combine", "--graph", g, "-k", "3", "--alpha", "1",
        "--initial", "random", "--stages", f"dp,{window}", "-o", out,
    )
    assert code == 0, err
    parts = [int(line.split("\t")[1]) for line in out.read_text().splitlines()]
    assert all(parts.count(p) <= 2 * 10 / 3 for p in range(3))


def test_evaluate_flags_empty_part_unbalanced(tmp_path, capsys, k3):
    part = tmp_path / "part.tsv"
    part.write_text("a\t0\nb\t2\nc\t2\n")  # part 1 is empty
    code, out, _ = run(
        capsys, "evaluate", "--graph", k3, "--partition", part, "--alpha", "1",
    )
    assert code == 0
    assert "part\t1\tweight\t0\t" in out
    assert "balanced\tfalse\talpha\t1" in out


def test_blocks_below_one_exit_one(tmp_path, capsys, cliques):
    ord_path = tmp_path / "ord.tsv"
    run(capsys, "order", "--method", "random", "--graph", cliques, "-o", ord_path)
    for blocks in ("0", "-2"):
        out = tmp_path / "splits.txt"
        code, _, err = run(
            capsys, "postprocess", "--method", "dp", "--graph", cliques,
            "--ordering", ord_path, "-k", "2", "--alpha", "0.5",
            "--blocks", blocks, "-o", out,
        )
        assert code == 1
        assert f"block_count must be in [1, 8], got {blocks}" in err
        assert not out.exists()
        for stages in ("dp", "metric,swap"):
            out = tmp_path / "part.tsv"
            code, _, err = run(
                capsys, "combine", "--graph", cliques, "-k", "2", "--alpha", "0.5",
                "--stages", stages, "--blocks", blocks, "-o", out,
            )
            assert code == 1
            assert "dp block count must be at least 1" in err
            assert not out.exists()


def test_combine_round_and_block_limits_exit_one(tmp_path, capsys, cliques):
    for flags, message in (
        (["--max-rounds", "0"], "minla_max_rounds must be at least 1"),
        (["--stages", "dp", "--blocks", "9"], "dp block count 9 exceeds the 8 vertices"),
    ):
        out = tmp_path / "part.tsv"
        code, _, err = run(capsys, "combine", "--graph", cliques, "-k", "2", "--alpha", "0.5",
                           *flags, "-o", out)
        assert code == 1
        assert message in err
        assert not out.exists()


def test_nan_alpha_exits_one(tmp_path, capsys):
    # a 4-vertex path: a NaN alpha once ran and marked every state unbalanced
    g = tmp_path / "path.tsv"
    g.write_text("a\tb\nb\tc\nc\td\n")
    order, part = tmp_path / "order.tsv", tmp_path / "part.tsv"
    assert run(capsys, "order", "--method", "random", "--graph", g, "-o", order)[0] == 0
    part.write_text("a\t0\nb\t0\nc\t1\nd\t1\n")
    for argv in (
        ["combine", "--graph", g, "-k", "2", "-o", tmp_path / "out.tsv"],
        ["postprocess", "--method", "mincut", "--graph", g, "--ordering", order, "-k", "2",
         "-o", tmp_path / "splits.txt"],
        ["evaluate", "--graph", g, "--partition", part],
    ):
        code, _, err = run(capsys, *argv, "--alpha", "nan")
        assert code == 1, argv[0]
        assert "alpha must be non-negative" in err
    assert not (tmp_path / "out.tsv").exists() and not (tmp_path / "splits.txt").exists()


def test_weigh_queries(tmp_path, capsys):
    g = tmp_path / "path.tsv"
    g.write_text("a\tb\nb\tc\nc\td\nx\ty\n")
    q = tmp_path / "q.tsv"
    q.write_text("a\tc\na\tx\n")
    out_path = tmp_path / "weighted.tsv"
    code, _, err = run(
        capsys, "weigh-queries", "--graph", g, "--queries", q, "-o", out_path,
    )
    assert code == 0
    assert "skipped 1 unreachable" in err
    rows = {tuple(line.split("\t")[:2]): line.split("\t")[2]
            for line in out_path.read_text().splitlines()}
    assert rows[("a", "b")] == "1"
    assert rows[("b", "c")] == "1"
    assert rows[("c", "d")] == "0"


def test_validation_errors_exit_one(tmp_path, capsys, k3):
    code, _, err = run(capsys, "evaluate", "--graph", tmp_path / "nope.tsv",
                       "--partition", tmp_path / "nope2.tsv")
    assert code == 1
    code, _, _ = run(capsys, "evaluate", "--graph", k3)  # missing --partition
    assert code == 1
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tb\t-3\n")
    code, _, err = run(capsys, "combine", "--graph", bad, "-k", "2",
                       "--alpha", "0", "-o", tmp_path / "x.out")
    assert code == 1
    assert "bad.tsv:1" in err
    assert not (tmp_path / "x.out").exists()


@pytest.mark.parametrize("value", ["99999999999999999999", "3"])
def test_out_of_range_part_or_rank_exits_one(tmp_path, capsys, k3, value):
    bad = tmp_path / "bad.tsv"
    bad.write_text(f"a\t0\nb\t{value}\nc\t1\n")
    out = tmp_path / "out.tsv"
    for argv in (
        ["evaluate", "--graph", k3, "--partition", bad],
        ["refine", "--method", "swap", "--graph", k3, "--ordering", bad,
         "-k", "2", "-o", out],
        ["postprocess", "--method", "mincut", "--graph", k3, "--ordering", bad,
         "-k", "2", "--alpha", "0.5", "-o", out],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith("error:")
        assert "bad.tsv:2: " in err and f"{value} is outside [0, 3)" in err
        assert not out.exists()


def test_combine_runs_without_scipy(tmp_path, cliques):
    # numpy is the only runtime dependency: a default (affinity-ordered)
    # combine in a fresh interpreter must not import scipy, nor numpy.ma,
    # which costs a fresh process 10-20 ms
    src = Path(__file__).resolve().parents[1] / "src"
    child = (
        "import sys\n"
        "from linepart.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert code == 0, code\n"
        "assert not loaded, loaded[:5]\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", child, "combine", "--graph", str(cliques),
         "-k", "2", "--alpha", "0", "-o", str(tmp_path / "part.out")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "part.out").exists()


def test_combine_verbose_logs_why_the_pass_loop_stopped(tmp_path, cliques):
    # -v adds one stop line to the log; stdout is the same with or without it
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    procs = [
        subprocess.run(
            [sys.executable, "-m", "linepart.cli", *flags, "combine", "--graph", str(cliques),
             "-k", "2", "--alpha", "0", "-o", str(tmp_path / "part.out")],
            env=env, capture_output=True, text=True,
        )
        for flags in ([], ["-v"])
    ]
    assert [p.returncode for p in procs] == [0, 0]
    assert procs[0].stdout == procs[1].stdout
    assert "converged\ttrue" in procs[0].stdout.splitlines()
    stops = [line for line in procs[1].stderr.splitlines() if line.startswith("combine\tstop")]
    assert stops == ["combine\tstop\tconverged\tpasses\t1\treverted\t0"]
    assert "combine\tstop" not in procs[0].stderr


@pytest.mark.parametrize(
    "script", sorted(p.name for p in (Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
)
def test_script_help_runs(script):
    # no test imports the scripts otherwise, so a removed library name
    # they use would go unnoticed
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / script), "--help"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_no_partial_output_on_failure(tmp_path, capsys, cliques):
    target = tmp_path / "no-such-dir" / "part.out"
    code, _, _ = run(capsys, "combine", "--graph", cliques, "-k", "2",
                     "--alpha", "0", "-o", target)
    assert code == 1
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["order", "--help"],
        ["refine", "--help"],
        ["postprocess", "--help"],
        ["combine", "--help"],
        ["evaluate", "--help"],
        ["weigh-queries", "--help"],
    ],
)
def test_help_exits_zero(capsys, argv):
    assert main(argv) == 0


def test_run_defaults_come_from_the_pipeline_config(tmp_path, capsys, cliques, monkeypatch):
    handed = []
    real = cli.combine

    def spy(g, cfg):
        handed.append(cfg)
        return real(g, cfg)

    monkeypatch.setattr(cli, "combine", spy)
    code, _, _ = run(capsys, "combine", "--graph", cliques, "-k", "2", "--alpha", "0.1",
                     "-o", tmp_path / "part.out")
    assert code == 0
    assert handed == [PipelineConfig(2, 0.1)]
    args = cli._build_parser().parse_args(
        ["refine", "--graph", "g", "--ordering", "o", "--method", "swap", "-k", "2", "-o", "x"]
    )
    defaults = PipelineConfig(2, 0.1)
    assert (args.intervals, args.max_rounds) == (defaults.swap_intervals, defaults.minla_max_rounds)


def test_help_documents_defaults(capsys):
    main(["combine", "--help"])
    out = capsys.readouterr().out
    assert "metric,swap,mincut" in out
    assert "affinity" in out