import numpy as np
import pytest

import simrank as sr
from simrank import cli
from simrank.cli import main

from conftest import SEVEN_EDGES, STAR_EDGES


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
            assert err.startswith("error: --threshold") and "nan" in err
            assert not out_path.exists()

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
        work = 4 * 6 * 40  # the star's n * m * T
        argv = ["query", "--graph", star_file, "--c", "0.8", "--T", "40",
                "pair", "1", "2"]
        monkeypatch.setattr(cli, "EXACT_DEFAULT_MAX_WORK", work - 1)
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert "estimate-diag --mode mc" in err and str(work) in err
        assert run(capsys, [*argv, "--diag", star_diag])[0] == 0
        monkeypatch.setattr(cli, "EXACT_DEFAULT_MAX_WORK", work)
        assert run(capsys, argv)[0] == 0


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


class TestJoin:
    def test_star_three_lines(self, capsys, star_file, star_diag):
        code, out, err = run(capsys, ["join", "--graph", star_file,
                                      "--c", "0.8", "--T", "40",
                                      "--diag", star_diag, "--theta", "0.5"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.endswith(("filter", "verified")) for line in lines)
        assert err.startswith("{")  # stats summary on the side channel


class TestOracleAndAccuracy:
    def test_pipeline(self, capsys, star_file, star_diag, tmp_path):
        ap = str(tmp_path / "ap.tsv")
        run(capsys, ["query", "--graph", star_file, "--c", "0.8", "--T", "40",
                     "--diag", star_diag, "allpairs", "--out", ap])
        code, out, _ = run(capsys, ["accuracy", "--graph", star_file,
                                    "--c", "0.8", "--scores", ap])
        assert code == 0
        assert float(out.strip()) <= 1e-3

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
            outs.append((open(d).read(), out))
        assert outs[0] == outs[1]
