import json

import numpy as np
import pytest

import simrank as sr
from simrank import cli, diag
from simrank.cli import main

import tsv_reference
from conftest import SEVEN_EDGES, STAR_EDGES, make_graph


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.txt"
    path.write_text(STAR_EDGES)
    return str(path)


@pytest.fixture
def star_diag(tmp_path, star_file, capsys):
    out = str(tmp_path / "star.diag")
    assert main(["estimate-diag", "--graph", star_file, "--c", "0.8",
                 "--T", "80", "--L", "10", "--out", out]) == 0
    capsys.readouterr()
    return out


# stands for the --out path in a parameter table; each test fills it in
OUT = object()


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimateDiag:
    def test_round_trip(self, star_file, star_diag):
        D = sr.load_diagonal(star_diag)
        assert D.values == pytest.approx([23 / 75, 0.2, 0.2, 0.2], abs=1e-6)
        assert D.params["mode"] == "exact"

    def test_missing_graph_flag_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["estimate-diag", "--out", str(tmp_path / "d")])
        assert info.value.code == 2

    def test_unreadable_graph_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run(capsys, ["estimate-diag", "--graph", "nope.txt",
                                    "--out", str(tmp_path / "d")])
        assert code == 1
        assert "error:" in err

    def test_summary_reports_residual(self, capsys, star_file, tmp_path):
        code, out, _ = run(capsys, ["estimate-diag", "--graph", star_file,
                                    "--c", "0.8", "--T", "40", "--L", "8",
                                    "--out", str(tmp_path / "d")])
        assert code == 0
        assert "residual_norm=" in out

    def test_residual_read_off_kept_rows(self, capsys, monkeypatch, tmp_path):
        """With every row kept, estimate-diag computes each block's rows once
        and never calls residual_norm; at ROW_BUDGET = 0 it calls
        residual_norm once, which propagates every block again.  Both runs
        print the same stdout."""
        g = make_graph(np.random.default_rng(3), 30, 90)
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in g.edges))
        n = sr.load_edge_list(path.read_text()).n
        monkeypatch.setattr(diag, "BLOCK_BUDGET", 4 * n)
        blocks = len(list(diag.source_blocks(n)))
        rows, norms = [], []
        real_rows, real_norm = diag.weight_rows, cli.residual_norm
        monkeypatch.setattr(diag, "weight_rows",
                            lambda *args: rows.append(args[2]) or real_rows(*args))
        monkeypatch.setattr(cli, "residual_norm",
                            lambda *args: norms.append(args) or real_norm(*args))
        outs = []
        for budget, calls in ((2**20, blocks), (0, 4 * blocks)):
            monkeypatch.setattr(diag, "ROW_BUDGET", budget)
            rows.clear()
            norms.clear()
            code, out, _ = run(capsys, ["estimate-diag", "--graph", str(path),
                                        "--L", "3", "--out",
                                        str(tmp_path / "d")])
            assert code == 0
            assert (len(rows), len(norms)) == (calls, int(budget == 0))
            outs.append(out)
        assert outs[0] == outs[1] and "residual_norm=" in outs[0]

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_rerun_prints_identical_stdout(self, capsys, star_file, tmp_path,
                                           mode):
        outs = []
        for name in ("a", "b"):
            code, out, err = run(capsys, ["estimate-diag", "--graph", star_file,
                                          "--mode", mode, "--L", "3",
                                          "--out", str(tmp_path / name)])
            assert code == 0
            assert "time=" not in out and err.startswith("time=")
            outs.append(out)
        assert outs[0] == outs[1]


class TestQuery:
    def test_pair(self, capsys, star_file, star_diag):
        code, out, _ = run(capsys, ["query", "--graph", star_file,
                                    "--c", "0.8", "--T", "40",
                                    "--diag", star_diag, "pair", "1", "2"])
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.8, abs=1e-3)

    def test_pair_defaults_to_exact_estimate(self, capsys, star_file):
        code, out, _ = run(capsys, ["query", "--graph", star_file,
                                    "--c", "0.8", "--T", "40",
                                    "pair", "1", "2"])
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.8, abs=1e-2)

    def test_source_on_dangling_vertex(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        code, out, _ = run(capsys, ["query", "--graph", str(path),
                                    "source", "0"])
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 2
        assert lines[0].split("\t") == ["0", "1.000000"]
        assert lines[1].split("\t") == ["1", "0.000000"]

    def test_source_mc_column(self, capsys, star_file, star_diag):
        """Every walk from leaf 1 stands on the hub at odd steps and on a leaf
        at even ones, so the folded estimate at leaf 2 is the exact score."""
        code, out, _ = run(capsys, ["query", "--graph", star_file,
                                    "--c", "0.8", "--T", "40",
                                    "--diag", star_diag, "--estimator", "mc",
                                    "--R", "50", "source", "1"])
        rows = [line.split("\t") for line in out.splitlines()]
        assert code == 0 and [r[0] for r in rows] == ["0", "1", "2", "3"]
        assert float(rows[2][1]) == pytest.approx(0.8, abs=1e-3)

    def test_allpairs_covers_all_sources(self, capsys, star_file, star_diag,
                                         tmp_path):
        out_path = tmp_path / "ap.tsv"
        code, out, _ = run(capsys, ["query", "--graph", star_file,
                                    "--c", "0.8", "--T", "40",
                                    "--diag", star_diag, "allpairs",
                                    "--out", str(out_path)])
        assert code == 0
        rows = [line.split("\t") for line in out_path.read_text().splitlines()]
        assert out.strip() == f"rows={len(rows)}"
        assert {int(r[0]) for r in rows} == {0, 1, 2, 3}

    def test_allpairs_rejects_nan_threshold(self, capsys, monkeypatch,
                                            star_file, star_diag, tmp_path):
        """The threshold is checked before the diagonal is read or estimated
        and before --out is opened."""
        def untouched(*args, **kwargs):
            raise AssertionError("diagonal touched")
        monkeypatch.setattr(cli, "load_diagonal", untouched)
        monkeypatch.setattr(cli, "estimate_diagonal", untouched)
        out_path = tmp_path / "ap.tsv"
        for diag in (["--diag", star_diag], []):
            code, out, err = run(capsys, ["query", "--graph", star_file,
                                          "--c", "0.8", "--T", "40", *diag,
                                          "allpairs", "--threshold", "nan",
                                          "--out", str(out_path)])
            assert code == 1 and out == ""
            assert err.startswith("error: all-pairs threshold") and "nan" in err
            assert not out_path.exists()

    @pytest.mark.parametrize("R", ["0", "100"])
    def test_allpairs_refuses_mc_before_the_diagonal(
            self, capsys, monkeypatch, star_file, star_diag, tmp_path, R):
        """allpairs has exact scores only: --estimator mc is refused, not
        ignored, before the diagonal is read or estimated and before --out
        is opened."""
        def untouched(*args, **kwargs):
            raise AssertionError("diagonal touched")
        monkeypatch.setattr(cli, "load_diagonal", untouched)
        monkeypatch.setattr(cli, "estimate_diagonal", untouched)
        out_path = tmp_path / "ap.tsv"
        for diag in (["--diag", star_diag], []):
            code, out, err = run(capsys, ["query", "--graph", star_file,
                                          "--c", "0.8", "--T", "40", *diag,
                                          "allpairs", "--estimator", "mc",
                                          "--R", R, "--out", str(out_path)])
            assert code == 1 and out == ""
            assert err.startswith("error: allpairs") and "--estimator mc" in err
            assert not out_path.exists()

    @pytest.mark.parametrize("request_args", [["pair", "0", "1"],
                                              ["pair", "1", "1"],
                                              ["source", "1"]])
    @pytest.mark.parametrize("R", ["0", "-3"])
    def test_mc_walk_count_checked_before_the_diagonal(
            self, capsys, monkeypatch, star_file, star_diag, request_args, R):
        def untouched(*args, **kwargs):
            raise AssertionError("diagonal touched")
        monkeypatch.setattr(cli, "load_diagonal", untouched)
        monkeypatch.setattr(cli, "estimate_diagonal", untouched)
        for diag in (["--diag", star_diag], []):
            code, out, err = run(capsys, ["query", "--graph", star_file,
                                          "--c", "0.8", "--T", "40", *diag,
                                          *request_args, "--estimator", "mc",
                                          "--R", R])
            assert code == 1 and out == ""
            assert err == f"error: R must be >= 1, got {R}\n"

    def test_wrong_arity(self, capsys, star_file):
        code, _, err = run(capsys, ["query", "--graph", star_file, "pair", "1"])
        assert code == 1 and "vertex argument" in err

    def test_vertex_out_of_range(self, capsys, star_file):
        code, _, err = run(capsys, ["query", "--graph", star_file,
                                    "pair", "1", "9"])
        assert code == 1 and "out of range" in err

    def test_diag_size_mismatch_names_both_counts(self, capsys, star_diag,
                                                  tmp_path):
        small = tmp_path / "two.txt"
        small.write_text("0 1\n1 0\n")
        code, _, err = run(capsys, ["query", "--graph", str(small),
                                    "--diag", star_diag, "pair", "0", "1"])
        assert code == 1
        assert "4" in err and "2" in err

    def test_diag_estimated_at_other_c_is_rejected(self, capsys, star_file,
                                                   star_diag):
        code, out, err = run(capsys, ["query", "--graph", star_file,
                                      "--c", "0.6", "--diag", star_diag,
                                      "pair", "1", "2"])
        assert code == 1 and out == ""
        assert star_diag in err and "c=0.8" in err and "0.6" in err

    def test_diag_estimated_on_other_graph_is_rejected(self, capsys, tmp_path):
        """Two 3-vertex graphs: a diagonal of the cycle would score the pair
        (1, 2) of the other graph 0.120456, against 0.300000 from its own."""
        cycle, other = tmp_path / "cycle.txt", tmp_path / "other.txt"
        cycle.write_text("0 1\n1 2\n2 0\n")
        other.write_text("0 1\n0 2\n1 2\n")
        path = str(tmp_path / "cycle.diag")
        assert run(capsys, ["estimate-diag", "--graph", str(cycle),
                            "--out", path])[0] == 0
        code, out, err = run(capsys, ["query", "--graph", str(other),
                                      "--diag", path, "pair", "1", "2"])
        assert code == 1 and out == ""
        ours = diag.graph_hash(sr.load_edge_list(other.read_text()))
        theirs = diag.graph_hash(sr.load_edge_list(cycle.read_text()))
        assert path in err and theirs in err and ours in err
        assert run(capsys, ["query", "--graph", str(cycle), "--diag", path,
                            "pair", "1", "2"])[0] == 0

    def test_diag_without_graph_field_is_read(self, capsys, tmp_path,
                                              star_file, star_diag):
        """A file written before the graph field existed is not checked."""
        lines = (tmp_path / "star.diag").read_text().split("\n")
        assert lines[0].endswith(
            " graph=" + diag.graph_hash(sr.load_edge_list(STAR_EDGES)))
        old = tmp_path / "old.diag"
        old.write_text("\n".join([lines[0].rsplit(" ", 1)[0], *lines[1:]]))
        argv = ["query", "--graph", star_file, "--c", "0.8", "--T", "80",
                "pair", "1", "2"]
        want = run(capsys, [*argv, "--diag", star_diag])
        assert want[0] == 0
        assert run(capsys, [*argv, "--diag", str(old)]) == want

    @pytest.mark.parametrize("query_T", ["10", "20", "40"])
    def test_diag_header_T_must_cover_query_T(self, capsys, star_file,
                                              tmp_path, query_T):
        path = str(tmp_path / "t20.diag")
        assert run(capsys, ["estimate-diag", "--graph", star_file, "--c", "0.8",
                            "--T", "20", "--out", path])[0] == 0
        code, out, err = run(capsys, ["query", "--graph", star_file,
                                      "--c", "0.8", "--T", query_T,
                                      "--diag", path, "pair", "1", "2"])
        if int(query_T) <= 20:
            assert code == 0 and float(out) > 0.7
        else:
            assert code == 1 and out == ""
            assert path in err and "T=20" in err and "--T is 40" in err

    def test_exact_default_refused_above_work_limit(self, capsys, monkeypatch,
                                                    star_file, star_diag):
        # the star's n * (n + m) * T: its n^2 rows fit ROW_BUDGET, so the
        # estimate takes one W pass
        work = 4 * (4 + 6) * 40
        argv = ["query", "--graph", star_file, "--c", "0.8", "--T", "40",
                "pair", "1", "2"]
        monkeypatch.setattr(cli, "EXACT_DEFAULT_MAX_WORK", work - 1)
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert "estimate-diag --mode mc" in err and str(work) in err
        assert run(capsys, [*argv, "--diag", star_diag])[0] == 0
        monkeypatch.setattr(cli, "EXACT_DEFAULT_MAX_WORK", work)
        assert run(capsys, argv)[0] == 0
        # rows that do not fit are computed again in each of the L sweeps
        monkeypatch.setattr(diag, "ROW_BUDGET", 4 * 4 - 1)
        code, out, err = run(capsys, argv)
        assert code == 1 and str(3 * work) in err


class TestTopk:
    def test_star(self, capsys, star_file, star_diag):
        code, out, _ = run(capsys, ["topk", "--graph", star_file,
                                    "--c", "0.8", "--T", "40",
                                    "--diag", star_diag,
                                    "--source", "1", "--k", "2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert {line.split("\t")[0] for line in lines} == {"2", "3"}


    def test_mc_column(self, capsys, star_file, star_diag):
        code, out, _ = run(capsys, ["topk", "--graph", star_file,
                                    "--c", "0.8", "--T", "40",
                                    "--diag", star_diag, "--estimator", "mc",
                                    "--R", "50", "--source", "1", "--k", "2"])
        assert code == 0
        assert [line.split("\t")[0] for line in out.splitlines()] == ["2", "3"]


    @pytest.mark.parametrize("R", ["0", "-3"])
    def test_mc_walk_count_checked_before_the_diagonal(
            self, capsys, monkeypatch, star_file, star_diag, R):
        def untouched(*args, **kwargs):
            raise AssertionError("diagonal touched")
        monkeypatch.setattr(cli, "load_diagonal", untouched)
        monkeypatch.setattr(cli, "estimate_diagonal", untouched)
        for diag in (["--diag", star_diag], []):
            code, out, err = run(capsys, ["topk", "--graph", star_file,
                                          "--c", "0.8", "--T", "40", *diag,
                                          "--source", "1", "--k", "2",
                                          "--estimator", "mc", "--R", R])
            assert code == 1 and out == ""
            assert err == f"error: R must be >= 1, got {R}\n"

    @pytest.mark.parametrize("flags, message", [
        *(pytest.param(["topk", "--source", "1", "--k", "2",
                        f"--theta-floor={floor}"],
                       f"theta_floor must be finite, got {floor}", id=floor)
          for floor in ("nan", "inf", "-inf")),
        pytest.param(["topk", "--source", "1", "--k", "0"],
                     "k must be >= 1, got 0", id="k=0"),
        pytest.param(["topk", "--source", "1", "--k", "2", "--estimator", "mc",
                      "--R", "0"], "R must be >= 1, got 0", id="topk-mc-R=0"),
        pytest.param(["query", "allpairs", "--threshold", "nan", "--out", OUT],
                     "all-pairs threshold must be finite, got nan",
                     id="allpairs-threshold=nan"),
        pytest.param(["query", "pair", "0", "1", "--estimator", "mc",
                      "--R", "0"], "R must be >= 1, got 0", id="query-mc-R=0"),
        pytest.param(["estimate-diag", "--mode", "mc", "--R", "0",
                      "--out", OUT], "R must be >= 1, got 0",
                     id="estimate-diag-mc-R=0"),
        pytest.param(["join", "--theta", "1.2", "--out", OUT],
                     "theta must be in (0,1), got 1.2", id="join-theta=1.2"),
        pytest.param(["join", "--gamma", "1", "--out", OUT],
                     "gamma_acc must be in [0,1), got 1.0", id="join-gamma=1"),
        pytest.param(["join", "--beta-skip", "inf", "--out", OUT],
                     "--beta-skip must be finite, got inf",
                     id="join-beta-skip=inf")])
    def test_non_finite_theta_floor_checked_before_the_diagonal(
            self, capsys, monkeypatch, tmp_path, star_file, star_diag, flags,
            message):
        """Every subcommand's argument rules run before the diagonal is read
        or estimated and before --out is opened, with the message of the
        library function that owns the rule."""
        def untouched(*args, **kwargs):
            raise AssertionError("diagonal touched")
        monkeypatch.setattr(cli, "load_diagonal", untouched)
        monkeypatch.setattr(cli, "estimate_diagonal", untouched)
        missing = str(tmp_path / "missing.diag")
        out_path = tmp_path / "out"
        command, *rest = [str(out_path) if f is OUT else f for f in flags]
        diags = ([["--diag", star_diag], ["--diag", missing], []]
                 if command != "estimate-diag" else [[]])
        for diag in diags:
            code, out, err = run(capsys, [command, "--graph", star_file,
                                          "--c", "0.8", "--T", "40", *diag,
                                          *rest])
            assert code == 1 and out == ""
            assert err == f"error: {message}\n"
            assert not out_path.exists()


class TestJoin:
    def test_star_three_lines(self, capsys, star_file, star_diag):
        code, out, err = run(capsys, ["join", "--graph", star_file,
                                      "--c", "0.8", "--T", "40",
                                      "--diag", star_diag, "--theta", "0.5"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.endswith("\tfilter") for line in lines)
        assert err.startswith("{")  # stats summary on the side channel
        stats = json.loads(err)
        for key in ("J_L", "J_H", "verified", "samples", "lookahead_levels",
                    "settled_in", "settled_out", "left"):
            assert key in stats

    def test_look_ahead_settles_the_band(self, capsys, star_file, star_diag):
        # at c = 0.8 the three leaf pairs score 0.8: above theta = 0.7, but
        # the filter alone leaves them in the band, and the look-ahead
        # certifies them without a sample
        code, out, err = run(capsys, ["join", "--graph", star_file,
                                      "--c", "0.8", "--T", "40",
                                      "--diag", star_diag, "--theta", "0.7",
                                      "--gamma", "0"])
        assert code == 0
        assert out == "1\t2\tfilter\n1\t3\tfilter\n2\t3\tfilter\n"
        stats = json.loads(err)
        assert stats["settled_in"] == 3 and stats["settled_out"] == 0
        assert stats["lookahead_levels"] >= 1
        assert stats["samples"] == 0 and stats["left"] == 0

    @pytest.mark.parametrize("flag, value, name", [
        ("--theta", "nan", "theta"), ("--theta", "inf", "theta"),
        ("--theta", "1.2", "theta"),
        ("--gamma", "nan", "gamma"),
        ("--beta-skip", "nan", "beta-skip"),
    ])
    def test_non_finite_argument_rejected_before_the_diagonal(
            self, capsys, monkeypatch, star_file, star_diag, flag, value,
            name):
        def untouched(*args, **kwargs):
            raise AssertionError("diagonal touched")
        monkeypatch.setattr(cli, "load_diagonal", untouched)
        monkeypatch.setattr(cli, "estimate_diagonal", untouched)
        for diag in (["--diag", star_diag], []):
            code, out, err = run(capsys, ["join", "--graph", star_file,
                                          "--c", "0.8", "--T", "40", *diag,
                                          flag, value])
            assert code == 1 and out == ""
            assert err.startswith("error:") and name in err and value in err

    @pytest.mark.parametrize("flag, value", [("--p", "0.01"),
                                             ("--rmax", "1000")])
    def test_verification_flags_are_usage_errors(self, capsys, star_file,
                                                 star_diag, flag, value):
        with pytest.raises(SystemExit) as info:
            main(["join", "--graph", star_file, "--diag", star_diag,
                  flag, value])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""

    def test_negative_diagonal_entry_rejected(self, capsys, monkeypatch,
                                              star_file, star_diag, tmp_path):
        def untouched(*args, **kwargs):
            raise AssertionError("diagonal estimated")
        monkeypatch.setattr(cli, "estimate_diagonal", untouched)
        header, *values = (tmp_path / "star.diag").read_text().splitlines()
        values[1] = "-0.5"
        bad = tmp_path / "negative.diag"
        bad.write_text("\n".join([header, *values]) + "\n")
        code, out, err = run(capsys, ["join", "--graph", star_file,
                                      "--c", "0.8", "--T", "40",
                                      "--diag", str(bad), "--beta-skip", "0"])
        assert code == 1 and out == ""
        assert f"{bad}:3:" in err and "-0.5" in err


class TestOracleAndAccuracy:
    def test_pipeline(self, capsys, star_file, star_diag, tmp_path):
        ap = str(tmp_path / "ap.tsv")
        run(capsys, ["query", "--graph", star_file, "--c", "0.8", "--T", "40",
                     "--diag", star_diag, "allpairs", "--out", ap])
        code, out, _ = run(capsys, ["accuracy", "--graph", star_file,
                                    "--c", "0.8", "--scores", ap])
        assert code == 0
        assert float(out.strip()) <= 1e-3

    @pytest.mark.parametrize("body, line, message", [
        ("0\t1\tnan\n", 1, "expected a finite score, got 'nan'"),
        ("0\t1\t0.5\n0\t2\tinf\n", 2, "expected a finite score, got 'inf'"),
        ("0\t1\t-inf\n", 1, "expected a finite score, got '-inf'"),
        ("0\t1\t0.5\n1\t0\t0.5\n\n0\t1\t0.25\n", 4,
         "pair (0, 1) already listed on line 1"),
        ("x\t1\t0.5\n", 1, "expected integer vertex ids, got 'x' and '1'"),
        ("0\t1\t0.5\n0\t4\t0.5\n", 2,
         "vertex 4 out of range for graph with 4 vertices"),
    ], ids=["nan", "inf", "-inf", "duplicate", "x-id", "id-n"])
    def test_bad_score_lines_name_file_and_line(self, capsys, monkeypatch,
                                                star_file, tmp_path, body,
                                                line, message):
        """The score file is read and checked before the oracle runs."""
        def untouched(*args, **kwargs):
            raise AssertionError("oracle ran")
        monkeypatch.setattr(cli, "naive_simrank", untouched)
        path = tmp_path / "scores.tsv"
        path.write_text(body)
        code, out, err = run(capsys, ["accuracy", "--graph", star_file,
                                      "--scores", str(path)])
        assert code == 1 and out == ""
        assert err == f"error: {path}:{line}: {message}\n"

    def test_oracle_output(self, capsys, star_file, tmp_path):
        out_path = tmp_path / "orc.tsv"
        code, _, _ = run(capsys, ["oracle", "--graph", star_file,
                                  "--c", "0.8", "--out", str(out_path)])
        assert code == 0
        rows = out_path.read_text().splitlines()
        assert len(rows) == 16
        assert "1\t2\t0.800000" in rows

    @pytest.mark.parametrize("text", [
        STAR_EDGES, "".join(f"{u} {v}\n{v} {u}\n" for u, v in SEVEN_EDGES)],
        ids=["star", "seven"])
    def test_oracle_rows_match_the_per_entry_format(self, capsys, tmp_path,
                                                     text):
        path = tmp_path / "g.txt"
        path.write_text(text)
        code, out, _ = run(capsys, ["oracle", "--graph", str(path)])
        S = sr.naive_simrank(sr.load_edge_list(text), sr.Config())
        ref = "".join(f"{i}\t{j}\t{S[i, j]:.6f}\n"
                      for i in range(len(S)) for j in range(len(S)))
        assert code == 0 and out == ref

    def test_oracle_cap(self, capsys, star_file):
        code, _, err = run(capsys, ["oracle", "--graph", star_file,
                                    "--cap", "2"])
        assert code == 1 and "cap" in err


class TestScoreListingBytes:
    """oracle, query source and query allpairs print what the per-row
    formatting of tsv_reference prints, byte for byte."""

    @pytest.fixture(params=range(6))
    def random_graph(self, request, tmp_path, capsys):
        rng = np.random.default_rng([request.param, 15])
        n = int(rng.integers(2, 40))
        pairs = rng.integers(n, size=(int(rng.integers(1, 4 * n)), 2))
        text = "".join(f"{u} {v}\n" for u, v in pairs.tolist())
        if all(u == v for u, v in pairs.tolist()):
            text += "0 1\n"
        graph, diag = tmp_path / "g.txt", tmp_path / "g.diag"
        graph.write_text(text)
        assert main(["estimate-diag", "--graph", str(graph), "--L", "2",
                     "--out", str(diag)]) == 0
        capsys.readouterr()
        g = sr.load_edge_list(text)
        return str(graph), str(diag), g, sr.load_diagonal(str(diag))

    def test_oracle(self, capsys, tmp_path, random_graph):
        graph, _, g, _ = random_graph
        out = tmp_path / "orc.tsv"
        code, _, _ = run(capsys, ["oracle", "--graph", graph,
                                  "--out", str(out)])
        S = sr.naive_simrank(g, sr.Config())
        assert code == 0
        assert out.read_text() == tsv_reference.oracle_rows(S)

    @pytest.mark.parametrize("estimator", ["exact", "mc"])
    def test_source(self, capsys, random_graph, estimator):
        graph, diag, g, D = random_graph
        cfg = sr.Config()
        for i in range(0, g.n, 7):
            code, out, _ = run(capsys, ["query", "--graph", graph, "--diag",
                                        diag, "--estimator", estimator,
                                        "source", str(i)])
            col = (sr.mc_single_source(g, cfg, D, i, 100, cfg.rng())
                   if estimator == "mc" else sr.single_source(g, cfg, D, i))
            assert code == 0 and out == tsv_reference.source_rows(col)

    def test_allpairs_threshold_zero(self, capsys, tmp_path, random_graph):
        graph, diag, g, D = random_graph
        out = tmp_path / "ap.tsv"
        code, _, _ = run(capsys, ["query", "--graph", graph, "--diag", diag,
                                  "allpairs", "--threshold", "0",
                                  "--out", str(out)])
        cfg = sr.Config()
        columns = [sr.single_source(g, cfg, D, i) for i in range(g.n)]
        assert code == 0
        assert out.read_text() == tsv_reference.all_pairs_rows(columns, 0.0)


class TestReproducibility:
    def test_mc_commands_are_byte_identical(self, capsys, star_file, tmp_path):
        outs = []
        for run_id in (1, 2):
            d = str(tmp_path / f"d{run_id}")
            main(["estimate-diag", "--graph", star_file, "--mode", "mc",
                  "--R", "50", "--seed", "7", "--out", d])
            capsys.readouterr()
            code, out, _ = run(capsys, ["query", "--graph", star_file,
                                        "--diag", d, "--estimator", "mc",
                                        "--R", "50", "--seed", "7",
                                        "pair", "1", "2"])
            assert code == 0
            with open(d) as fh:
                outs.append((fh.read(), out))
        assert outs[0] == outs[1]


class TestParserReuse:
    def test_no_flag_carries_over_between_calls(self, capsys, monkeypatch,
                                                 star_file, star_diag):
        """One process runs four commands on the parser it built once; each
        prints what it prints with a parser of its own."""
        common = ["--graph", star_file, "--c", "0.8", "--T", "40"]
        argvs = [
            ["query", *common, "pair", "1", "2", "--diag", star_diag,
             "--estimator", "mc", "--R", "50", "--seed", "3"],
            ["query", *common, "pair", "1", "2"],
            ["topk", *common, "--source", "1", "--k", "2"],
            ["join", *common, "--theta", "0.5"],
        ]
        loads = []
        load = cli.load_diagonal
        monkeypatch.setattr(cli, "load_diagonal",
                            lambda path: loads.append(path) or load(path))
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: builds.append(1) or build())
        once = cli._parser
        once.cache_clear()
        try:
            shared = [run(capsys, argv) for argv in argvs]
            assert len(builds) == 1
            # only the first command names a diagonal file
            assert loads == [star_diag]
            monkeypatch.setattr(cli, "_parser", build)
            fresh = [run(capsys, argv) for argv in argvs]
        finally:
            once.cache_clear()
        assert shared == fresh
        assert all(code == 0 for code, _, _ in shared)

    def test_rebound_handler_is_called(self, capsys, monkeypatch, star_file):
        main(["query", "--graph", star_file, "pair", "1", "2"])
        capsys.readouterr()
        monkeypatch.setattr(cli, "cmd_topk", lambda args: print("stub") or 0)
        code, out, _ = run(capsys, ["topk", "--graph", star_file,
                                    "--source", "1", "--k", "2"])
        assert code == 0 and out == "stub\n"
