import hashlib
import itertools

import pytest

from lbcut.cli import main
from lbcut.formats import (
    parse_cut,
    parse_instance,
    serialize_cut,
    serialize_instance,
    serialize_source_graph,
)
from lbcut.graph import Graph
from lbcut.oracles import random_proper_interval_instance
from lbcut.reductions_fvs import gen_fvs
from test_reductions_fvs import threshold_edges, triangle_free_source


def write_instance(tmp_path, name="inst.gr", n=9, seed=3):
    inst, model = random_proper_interval_instance(n, seed=seed)
    path = tmp_path / name
    path.write_text(serialize_instance(inst, model))
    return path, inst, model


def triangle_source(tmp_path):
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3), (1, 3)])
    path = tmp_path / "src.gr"
    path.write_text(serialize_source_graph(g))
    return path


class TestSolve:
    def test_auto_uses_dp_and_verifies(self, tmp_path, capsys):
        path, inst, model = write_instance(tmp_path)
        code = main(["solve", str(path), "--print-cut"])
        out = capsys.readouterr().out
        assert "method dp" in out and "cost " in out and "verified yes" in out
        assert code in (0, 1)

    def test_exit_codes_follow_decision(self, tmp_path, capsys):
        from lbcut.dp import dp_solve
        path, inst, model = write_instance(tmp_path, seed=8)
        cost, _ = dp_solve(inst, model)
        code = main(["solve", str(path)])
        assert code == (0 if cost <= inst.beta else 1)

    def test_oracle_modes_agree(self, tmp_path, capsys):
        path, inst, model = write_instance(tmp_path, n=8, seed=5)
        results = {}
        for mode in ("dp", "subset", "branch"):
            assert main(["solve", str(path), "--mode", mode]) in (0, 1)
            out = capsys.readouterr().out
            results[mode] = [l for l in out.splitlines() if l.startswith("cost")][0]
        assert len(set(results.values())) == 1

    def test_file_named_dp(self, tmp_path, monkeypatch, capsys):
        write_instance(tmp_path, name="dp", n=8, seed=5)
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "dp"]) in (0, 1)
        assert "method dp" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["solve", "/nonexistent.gr"]) == 2

    def test_garbage_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.gr"
        bad.write_text("p lbc 2 1\nzz\n")
        assert main(["solve", str(bad)]) == 2


PATH_3 = "p lbc 3 2\ns 1\nt 3\nb 1\nl 2\ne 1 2\ne 2 3\n"


@pytest.mark.parametrize(
    "command, text, line",
    [
        ("solve", PATH_3.replace("b 1", "b zz"), 4),
        ("solve", PATH_3.replace("p lbc 3 2", "p lbc x 0"), 1),
        ("solve", PATH_3.replace("s 1", "s"), 2),
        ("source", "p graph 2 1\ne 1 x\n", 2),
        ("cut", "e 1 3\n", 1),
        ("cut", "e 1 x\n", 1),
        ("fvs", "v 1\nv x\n", 2),
        ("solve", PATH_3.replace("b 1", "b \xff").encode("latin-1"), 4),
        ("source", "p graph 2 2\ne 1 2\ne 2 1\n", 3),
        ("source", "p graph 2 1\ne 1 1\n", 2),
        ("solve", PATH_3.replace("e 2 3", "e 3 3"), 7),
        ("cut", "e 1 2\ne 2 2\n", 2),
        ("source", "p graph -3 0\n", 1),
        ("solve", PATH_3.replace("p lbc 3 2", "p lbc -3 2"), 1),
        # past Python's 4300-digit int-string limit
        ("solve", PATH_3 + "i 1 0 " + "1" * 5000 + "\n", 8),
        ("solve", PATH_3.replace("e 2 3", "e 2 " + "1" * 5000), "7: bad vertex id"),
        ("solve", PATH_3 + "c role " + "1" * 5000 + " x\n", "8: bad vertex id"),
        # a truncated generator record, not a free comment
        ("solve", PATH_3 + "c path p\n", "8: expected `c path <tag>"),
        ("solve", PATH_3 + "c role 3\n", "8: expected `c role <id> <tag>`"),
        ("solve", PATH_3 + "c param k\n", "8: expected `c param <key> <value>`"),
        # the rest also check the message, whose ids are 1-based as in the file
        ("source", "p graph 2 2\ne 1 2\ne 2 1\n", "3: duplicate edge (1, 2)"),
        ("source", "p graph 2 1\ne 1 1\n", "2: self-loop at vertex 1"),
        ("solve", PATH_3.replace("e 2 3", "e 3 3"), "7: self-loop at vertex 3"),
        ("cut", "e 1 3\n", "1: (1, 3) is not an edge of the instance"),
        ("cut", "e 1 2\ne 2 1\n", "2: duplicate edge (1, 2)"),
        ("fvs", "v 2\nv 2\n", "2: vertex 2 given twice"),
    ],
    ids=["b-zz", "p-lbc-x", "bare-s", "source-id", "cut-non-edge", "cut-id", "fvs-id",
         "not-utf-8", "source-repeated-edge", "source-self-loop", "solve-self-loop",
         "cut-self-loop", "p-graph-negative", "p-lbc-negative", "long-coordinate",
         "long-edge-id", "long-role-id", "truncated-path", "truncated-role", "truncated-param",
         "source-repeated-edge-ids",
         "source-self-loop-ids", "solve-self-loop-ids", "cut-non-edge-ids",
         "cut-repeated-edge", "fvs-repeated-vertex"],
)
def test_malformed_input_is_usage_error(tmp_path, capsys, command, text, line):
    bad = tmp_path / "bad.txt"
    if isinstance(text, bytes):
        bad.write_bytes(text)
    else:
        bad.write_text(text)
    inst = tmp_path / "inst.gr"
    inst.write_text(PATH_3)
    argv = {
        "solve": ["solve", str(bad)],
        "source": ["gen", "pw", "--source", str(bad), "-k", "2",
                   "-o", str(tmp_path / "out.gr")],
        "cut": ["verify", "cut", str(inst), "-f", str(bad)],
        "fvs": ["verify", "fvs", str(inst), "-f", str(bad)],
    }[command]
    assert main(argv) == 2
    assert f"line {line}" in capsys.readouterr().err



# PATH_3 with an interval model; the i lines are lines 8-10
@pytest.mark.parametrize(
    "intervals, message",
    [
        ("i 1 0 1\ni 2 1 2\ni 3 3 4\n",
         "error: adjacency mismatch at (2, 3): intervals [1,2] vs [3,4]"),
        ("i 1 0 1\ni 2 1 4\ni 3 2 3\n",
         "error: interval of 2 [1,4] strictly contains interval of 3 [2,3]"),
        ("i 1 0 1\ni 2 2 1\ni 3 2 3\n", "error: line 9: vertex 2: empty interval [2, 1]"),
        # an endpoint with more digits than str() converts is shown as a power of 2
        ("i 1 0 1\ni 2 1 2\ni 3 1e-99999 3\n",
         "error: interval of 3 [~2^-332189,3] strictly contains interval of 2 [1,2]"),
    ],
    ids=["adjacency-mismatch", "strict-containment", "empty-interval", "overlong-endpoint"],
)
def test_model_errors_name_1_based_ids(tmp_path, capsys, intervals, message):
    path = tmp_path / "inst.gr"
    path.write_text(PATH_3 + intervals)
    assert main(["solve", str(path), "--mode", "dp"]) == 2
    assert message in capsys.readouterr().err


def test_auto_mode_says_why_it_falls_back(tmp_path, capsys):
    path = tmp_path / "inst.gr"
    path.write_text(PATH_3 + "i 1 0 1\ni 2 1 2\ni 3 3 4\n")
    assert main(["solve", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("method branch\ncost 1\n")
    assert captured.err == (
        f"warning: {path}: interval model rejected: "
        "adjacency mismatch at (2, 3): intervals [1,2] vs [3,4]\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["forward-cut", "pw", "--clique", "2,x"], "--clique: bad integer 'x'"),
        (["random-pig", "-n", "5", "--beta-range", "1:x"],
         "--beta-range: bad integer 'x'"),
        (["random-pig", "-n", "5", "--lambda-range", "4:2"],
         "--lambda-range: empty range"),
        (["random-pig", "-n", "1"], "need at least two vertices"),
        (["solve", "--subset-cap", "0"], "--subset-cap must be positive, got 0"),
        (["solve", "--branch-cap", "-5", "--mode", "dp"],
         "--branch-cap must be positive, got -5"),
        (["bench", "--jobs", "0"], "--jobs must be positive, got 0"),
        (["bench", "--jobs", "-3"], "--jobs must be positive, got -3"),
        # int() would read these as 2, 2 and 30
        (["forward-cut", "pw", "--clique", "0_2,3"], "--clique: bad integer '0_2'"),
        (["forward-cut", "pw", "--clique", "\uff12,3"], "--clique: bad integer '\uff12'"),
        (["random-pig", "-n", "\uff130"], "argument -n: bad integer '\uff130'"),
        (["random-pig", "-n", "5", "--seed", "+1"], "argument --seed: bad integer '+1'"),
    ],
    ids=["clique-x", "beta-range-x", "lambda-range-empty", "random-pig-n1",
         "subset-cap-0", "branch-cap-negative", "bench-jobs-0", "bench-jobs-negative",
         "clique-underscore", "clique-fullwidth", "random-pig-n-fullwidth", "seed-plus"],
)
def test_malformed_option_is_usage_error(tmp_path, capsys, argv, message):
    if argv[0] == "forward-cut":
        src = triangle_source(tmp_path)
        hard = tmp_path / "hard.gr"
        assert main(["gen", "pw", "--source", str(src), "-k", "2", "-o", str(hard)]) == 0
        files = ["--instance", str(hard), "--source", str(src), "-k", "2"]
        argv = argv[:2] + files + argv[2:]
    if argv[0] in ("solve", "bench"):  # an interval instance, so the solver is reachable
        argv = argv[:1] + [str(write_instance(tmp_path)[0])] + argv[1:]
    else:
        argv = argv + ["-o", str(tmp_path / "out.txt")]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a bad option value itself
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "family, clique, message",
    [
        ("pw", "2,99", "vertex 99 out of range"),
        ("pw", "2", "expected 2 distinct vertices, got [2]"),
        ("fvs", "2,4", "vertices 2 and 4 are not adjacent"),
    ],
    ids=["pw-out-of-range", "pw-too-few", "fvs-not-adjacent"],
)
def test_clique_errors_name_1_based_ids(tmp_path, capsys, family, clique, message):
    src = tmp_path / "src.gr"
    if family == "pw":  # a triangle
        src.write_text(serialize_source_graph(Graph(3, [(0, 1), (0, 2), (1, 2)])))
        common = ["--source", str(src), "-k", "2"]
    else:  # parts {1, 2} and {3, 4}
        src.write_text(serialize_source_graph(Graph(4, [(0, 2), (0, 3), (1, 2)])))
        common = ["--source", str(src), "-k", "2", "--nu", "2"]
    hard = tmp_path / "hard.gr"
    assert main(["gen", family, *common, "-o", str(hard)]) == 0
    argv = ["forward-cut", family, "--instance", str(hard), *common,
            "--clique", clique, "-o", str(tmp_path / "cut.txt")]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen-pw", "random-pig"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.gr"
    argv = {
        "gen-pw": ["gen", "pw", "--source", str(triangle_source(tmp_path)), "-k", "2"],
        "random-pig": ["random-pig", "-n", "5"],
    }[command]
    assert main(argv + ["-o", str(out)]) == 2
    assert f"cannot write {out}" in capsys.readouterr().err


# SHA-256 of the path decomposition that README's `lbcut gen pw --source
# src.gr -k 2 -o hard.gr --pd pd.txt` writes (`triangle_source` is its
# src.gr), taken when bags were still frozensets: the file must not change
README_PD_SHA256 = "db48ef5f28cdff6b047286df24cd5a34ada21d2dd323a17bc932f6a9fd489f18"


class TestGenerateAndDecode:
    def test_pw_pipeline(self, tmp_path, capsys):
        src = triangle_source(tmp_path)
        inst_file = tmp_path / "hard.gr"
        pd_file = tmp_path / "pd.txt"
        cut_file = tmp_path / "cut.txt"
        assert (
            main(
                ["gen", "pw", "--source", str(src), "-k", "2",
                 "-o", str(inst_file), "--pd", str(pd_file)]
            )
            == 0
        )
        assert hashlib.sha256(pd_file.read_bytes()).hexdigest() == README_PD_SHA256
        assert (
            main(
                ["forward-cut", "pw", "--instance", str(inst_file), "--source",
                 str(src), "-k", "2", "--clique", "2,3", "-o", str(cut_file)]
            )
            == 0
        )
        assert main(["verify", "cut", str(inst_file), "-f", str(cut_file)]) == 0
        assert (
            main(["verify", "pathdecomp", str(inst_file), "-f", str(pd_file)]) == 0
        )
        assert (
            main(
                ["decode", "pw", "--instance", str(inst_file), "--source",
                 str(src), "-k", "2", "-f", str(cut_file)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "clique 2,3" in out

    def test_fvs_pipeline(self, tmp_path, capsys):
        g = Graph(4, [(0, 2), (0, 3), (1, 2)])
        src = tmp_path / "mc.gr"
        src.write_text(serialize_source_graph(g))
        inst_file = tmp_path / "hard.gr"
        w_file = tmp_path / "fvs.txt"
        cut_file = tmp_path / "cut.txt"
        common = ["--source", str(src), "-k", "2", "--nu", "2"]
        assert (
            main(["gen", "fvs", *common, "-o", str(inst_file), "--fvs", str(w_file)])
            == 0
        )
        assert main(["verify", "fvs", str(inst_file), "-f", str(w_file)]) == 0
        assert (
            main(
                ["forward-cut", "fvs", "--instance", str(inst_file), *common,
                 "--clique", "1,3", "-o", str(cut_file)]
            )
            == 0
        )
        assert main(["verify", "cut", str(inst_file), "-f", str(cut_file)]) == 0
        assert (
            main(
                ["decode", "fvs", "--instance", str(inst_file), *common,
                 "-f", str(cut_file)]
            )
            == 0
        )
        assert "clique 1,3" in capsys.readouterr().out

    def test_fvs_decode_refuses_non_clique(self, tmp_path, capsys):
        # every part at index 2 of a triangle-free source selects 2,4,6, which
        # is no clique: the 24-edge cut neither verifies nor decodes
        mc = triangle_free_source()
        src = tmp_path / "mc.gr"
        src.write_text(serialize_source_graph(mc.graph))
        inst_file = tmp_path / "hard.gr"
        cut_file = tmp_path / "cut.txt"
        common = ["--source", str(src), "-k", "3", "--nu", "2"]
        assert main(["gen", "fvs", *common, "-o", str(inst_file)]) == 0
        out = gen_fvs(mc)
        cut = set().union(*(threshold_edges(out, mc, i, 2) for i in (1, 2, 3)))
        cut_file.write_text(serialize_cut(cut))
        assert main(["verify", "cut", str(inst_file), "-f", str(cut_file)]) == 1
        assert main(["decode", "fvs", "--instance", str(inst_file), *common,
                     "-f", str(cut_file)]) == 1
        assert "no clique found" in capsys.readouterr().out

    def test_verify_cut_reports_witness_path(self, tmp_path, capsys):
        path, inst, model = write_instance(tmp_path, seed=2)
        empty = tmp_path / "cut.txt"
        empty.write_text("")
        code = main(["verify", "cut", str(path), "-f", str(empty)])
        out = capsys.readouterr().out
        if code == 1:
            assert "violated" in out
        else:
            assert "valid" in out


class TestRandomAndBench:
    def test_random_pig_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.gr", tmp_path / "b.gr"
        for target in (a, b):
            assert (
                main(["random-pig", "-n", "8", "--seed", "7", "-o", str(target)]) == 0
            )
        assert a.read_text() == b.read_text()
        parsed = parse_instance(a.read_text())
        assert parsed.model is not None

    def test_bench_emits_ordered_tsv(self, tmp_path, capsys):
        files = []
        for seed in (1, 2, 3):
            p, _, _ = write_instance(tmp_path, name=f"i{seed}.gr", seed=seed)
            files.append(str(p))
        assert main(["bench", *files]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("file\t")
        assert [l.split("\t")[0] for l in lines[1:]] == files
        for line in lines[1:]:
            assert line.split("\t")[5] == "dp"
        # the process pool merges its rows back into input order; only
        # time_ms, the last column, may differ from the serial run
        assert main(["bench", "--jobs", "2", *files]) == 0
        pooled = capsys.readouterr().out.strip().splitlines()
        assert pooled[0] == lines[0]
        assert [l.rsplit("\t", 1)[0] for l in pooled] == [l.rsplit("\t", 1)[0] for l in lines]

    def test_bench_and_solve_pass_the_same_oracle_budget(self, tmp_path, capsys, monkeypatch):
        import lbcut.cli as cli
        budgets = []

        def spy(inst, budget):
            budgets.append(budget)
            return 0

        monkeypatch.setattr(cli, "oracle_branch", spy)
        path, _, _ = write_instance(tmp_path, n=8, seed=5)
        main(["solve", str(path), "--mode", "branch"])
        main(["bench", "--mode", "branch", str(path)])
        assert len(budgets) == 2 and budgets[0] == budgets[1] == cli.OracleBudget()

    def test_bench_reports_undecodable_file_row(self, tmp_path, capsys):
        good, _, _ = write_instance(tmp_path, name="good.gr", seed=1)
        bad = tmp_path / "bad.gr"
        bad.write_bytes(PATH_3.replace("b 1", "b \xff").encode("latin-1"))
        assert main(["bench", str(bad), str(good)]) == 0
        rows = [l.split("\t") for l in capsys.readouterr().out.strip().splitlines()[1:]]
        assert [r[0] for r in rows] == [str(bad), str(good)]
        assert rows[0][6] == "InputError" and rows[1][5] == "dp"
