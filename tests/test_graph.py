import io
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import simrank as sr
from simrank.graph import walk_positions, walk_steps, walk_trajectory

import edge_list_reference as reference
import walk_reference
from conftest import STAR_EDGES, make_graph


class TestParsing:
    def test_dense_renumbering_first_appearance(self):
        g = sr.load_edge_list("5 7\n7 5\n5 9\n")
        assert g.n == 3
        assert g.original_ids == [5, 7, 9]
        assert (0, 1) in g.edges and (1, 0) in g.edges and (0, 2) in g.edges

    def test_comments_blanks_and_crlf(self):
        g = sr.load_edge_list("# header\n\n0 1\r\n1 0\r\n   \n# tail\n")
        assert g.n == 2
        assert g.m == 2

    def test_self_loops_and_duplicates_dropped_and_counted(self):
        g = sr.load_edge_list("0 1\n0 1\n2 2\n1 0\n0 1\n")
        assert g.m == 2
        assert g.dropped_duplicates == 2
        assert g.dropped_self_loops == 1
        # self-loop-only vertex never appears
        assert g.n == 2

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(sr.GraphParseError, match="line 2"):
            sr.load_edge_list("0 1\n0 1 2\n")
        with pytest.raises(sr.GraphParseError, match="line 1"):
            sr.load_edge_list("a b\n")

    def test_negative_id_rejected(self):
        with pytest.raises(sr.GraphParseError, match="negative"):
            sr.load_edge_list("0 -1\n")

    def test_empty_input_rejected(self):
        with pytest.raises(sr.GraphParseError, match="empty"):
            sr.load_edge_list("# nothing\n")

    def test_accepts_file_object(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(STAR_EDGES)
        with open(path) as fh:
            g = sr.load_edge_list(fh)
        assert g.n == 4


def same(a, b) -> bool:
    """Equal values of equal types; arrays also of equal dtype and shape,
    sparse matrices array by array."""
    if sp.issparse(a):
        return (sp.issparse(b) and a.shape == b.shape
                and all(same(getattr(a, k), getattr(b, k))
                        for k in ("data", "indices", "indptr")))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and np.array_equal(a, b))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(map(same, a, b)))
    return type(a) is type(b) and a == b


# tokens around every rule of the reader: small ids (duplicates and
# self-loops), int() spellings, long tokens past the window of the
# vectorized reader, and, among the odd ones, ids of 2^63 and more and
# tokens int() refuses
VALID_SPELLINGS = ["-0", "+0", "+3", "007", "1_0", "1_2_3", "0_0",
                   str(2**63 - 1), "0" * 50 + "12", "0_" * 30 + "5",
                   "0" * 45 + "1" * 18, "1" + "_0" * 18, "9" + "_2" * 18]
ODD_SPELLINGS = ["-3", "-1_0", str(2**63), str(2**64), str(2**64 + 7),
                 "9" * 25, "1" + "0" * 45, "0" * 45 + "1" * 19, "+-1", "--1",
                 "1_", "_1", "1__0", "+", "-", "_", "a", "1a", "#1", "1#",
                 "0x1", "1.0", "1-2", "3+", "1+2", "0_-1", "9" + "_9" * 18,
                 "1" + "_0" * 19, "1" + "_0" * 20]
VALID_TOKENS = st.one_of(st.integers(0, 9).map(str),
                         st.integers(0, 2**63 - 1).map(str),
                         st.sampled_from(VALID_SPELLINGS))
ODD_TOKENS = st.one_of(st.integers(2**63, 2**70).map(str),
                       st.integers(-9, -1).map(str),
                       st.sampled_from(ODD_SPELLINGS))
SPACES = st.sampled_from([" ", "\t", "  ", " \t ", "\x0b", "\x0c", "\x1c",
                          "\x1f", "\r"])
COMMENTS = st.sampled_from(["", " ", "\t", "# comment", "  # indented", "#",
                            "#1 2", "\x1f#"])
ODD_LINES = st.one_of(
    st.sampled_from(["5", "1 2 3", "0 1 # inline", "0 1#"]),
    st.text(st.characters(max_codepoint=127, blacklist_characters="\n"),
            max_size=12))


def edge_lines(tokens, trails):
    return st.builds(lambda lead, u, gap, v, trail: lead + u + gap + v + trail,
                     st.sampled_from(["", " ", "\t"]), tokens, SPACES, tokens,
                     trails)


CLEAN_LINES = st.one_of(*[edge_lines(VALID_TOKENS,
                                     st.sampled_from(["", " ", "\t"]))] * 3,
                        COMMENTS)
NOISY_LINES = st.one_of(
    edge_lines(st.one_of(VALID_TOKENS, ODD_TOKENS),
               st.sampled_from(["", " ", "\t", " # note", "#x"])),
    COMMENTS, ODD_LINES)


@st.composite
def edge_texts(draw):
    """Mostly well-formed lists half the time, anything ASCII the rest."""
    if draw(st.booleans()):
        lines, endings = CLEAN_LINES, st.sampled_from(["\n", "\r\n"])
    else:
        lines = NOISY_LINES
        endings = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c",
                                   "\x1c", "\x1e"])
    text = "".join(line + draw(endings)
                   for line in draw(st.lists(lines, max_size=12)))
    return text + draw(st.sampled_from(["", "3 4", "# tail"]))


def edge_input(form: str, text: str):
    """text as a string, a text file, or a list of lines with or without
    their endings."""
    if form == "str":
        return text
    if form == "file":
        return io.StringIO(text)
    if form == "lines":
        return text.splitlines(keepends=True)
    return text.split("\n")


class TestParsingMatchesLineReader:
    """load_edge_list against the line-by-line reader it replaced."""

    @staticmethod
    def check(form: str, text: str) -> None:
        try:
            want = reference.load_edge_list(edge_input(form, text))
        except sr.GraphParseError as exc:
            with pytest.raises(sr.GraphParseError) as info:
                sr.load_edge_list(edge_input(form, text))
            assert str(info.value) == str(exc)
            return
        g = sr.load_edge_list(edge_input(form, text))
        n, ids, edges, loops, duplicates = want
        assert same([g.n, g.original_ids, g.dropped_self_loops,
                     g.dropped_duplicates], [n, ids, loops, duplicates])
        for name, value in reference.graph_arrays(n, edges).items():
            assert same(getattr(g, name), value), name

    @settings(max_examples=400, deadline=None)
    @given(text=edge_texts(),
           form=st.sampled_from(["str", "file", "lines", "split"]))
    def test_same_error_or_same_graph(self, text, form):
        self.check(form, text)

    @pytest.mark.parametrize("token", VALID_SPELLINGS + ODD_SPELLINGS)
    def test_every_spelling(self, token):
        for text in (f"4 {token}\n", f"# c\n{token}\t4\n1 2\n"):
            self.check("str", text)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_graph_from_pairs_matches_edge_by_edge_build(self, seed, n):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(0, 4 * n))
        pairs = rng.integers(n, size=(m, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        edges = [tuple(e) for e in pairs.tolist()]
        for given_edges in (edges, pairs):
            g = sr.Graph(n, given_edges)
            for name, value in reference.graph_arrays(n, edges).items():
                assert same(getattr(g, name), value), name

    @pytest.mark.parametrize("text, line, what", [
        ("0 1\n1 2 # note\n", 2, "expected 'u v'"),
        ("0\n1\n2\n3\n", 1, "expected 'u v'"),
        (f"0 1\n2 {2**63}\n", 2, "above 2^63 - 1"),
        (f"0 {2**63 - 1}\n1 {'0' * 60 + '9'}\n3 {'1' + '0' * 50}\n", 3,
         "above 2^63 - 1"),
        ("0 1\n1 -2\n", 2, "negative"),
        ("# c\n\n0 x\n", 3, "non-integer"),
    ])
    def test_traps(self, text, line, what):
        with pytest.raises(sr.GraphParseError,
                           match=f"line {line}: .*{re.escape(what)}"):
            sr.load_edge_list(text)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [{"c": 0.0}, {"c": 1.0}, {"T": 0},
                                        {"seed": -1}])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            sr.Config(**kwargs)

    def test_rng_reproducible(self):
        cfg = sr.Config(seed=5)
        assert cfg.rng().random() == cfg.rng().random()


class TestTransition:
    def test_star_in_structure(self, star):
        assert star.in_index[0] == [1, 2, 3]
        assert star.in_index[1] == [0]
        assert list(star.in_degree) == [3, 1, 1, 1]

    def test_columns_stochastic_up_to_dangling(self):
        rng = np.random.default_rng(0)
        g = make_graph(rng, 15, 30)
        sums = np.asarray(g.dense_P().sum(axis=0)).ravel()
        for j in range(g.n):
            expected = 1.0 if g.in_degree[j] > 0 else 0.0
            assert sums[j] == pytest.approx(expected, abs=1e-12)

    def test_transpose_is_cached_and_exact(self):
        g = make_graph(np.random.default_rng(1), 15, 30)
        assert g.PT is g.PT
        assert np.array_equal(g.PT.toarray(), g.dense_P().T)

    def test_step_matches_matrix(self, star):
        d = sr.step(star, sr.Distribution.point(0))
        x = star.dense_P() @ np.eye(4)[0]
        assert d.to_array(4) == pytest.approx(x, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), v=st.integers(0, 11))
    def test_step_never_creates_mass(self, seed, v):
        g = make_graph(np.random.default_rng(seed), 12, 24)
        d = sr.step(g, sr.Distribution.point(v))
        assert d.total_mass <= 1.0 + 1e-12
        assert all(mass >= 0 for mass in d.entries.values())
        if g.in_degree[v] > 0:
            assert d.total_mass == pytest.approx(1.0, abs=1e-12)


class TestWalks:
    def test_walk_positions_step_zero_and_conservation(self, star):
        hists = walk_positions(star, 1, 3, 50, np.random.default_rng(0))
        assert hists[0][1] == 50 and hists[0].sum() == 50
        # from a leaf every walk moves to the hub, then back to some leaf
        assert hists[1][0] == 50
        assert hists[2][0] == 0 and hists[2].sum() == 50

    def test_walk_positions_absorption_empties_histograms(self):
        g = sr.load_edge_list("0 1\n")
        hists = walk_positions(g, 1, 4, 20, np.random.default_rng(0))
        assert hists[0][1] == 20
        assert hists[1][0] == 20
        assert hists[2].sum() == 0 and hists[3].sum() == 0

    def test_walk_trajectory_truncates_on_absorption(self):
        g = sr.load_edge_list("0 1\n")
        assert walk_trajectory(g, 1, 5, np.random.default_rng(0)) == [1, 0]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_walk_positions_counts_monotone(self, seed):
        rng = np.random.default_rng(seed)
        g = make_graph(rng, 10, 15)
        hists = walk_positions(g, int(rng.integers(10)), 5, 30, rng)
        totals = [int(h.sum()) for h in hists]
        assert totals[0] == 30
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 12),
           R=st.integers(1, 40), steps=st.integers(1, 8))
    def test_walk_steps_of_one_source_replay_walk_positions(self, seed, n, R,
                                                            steps):
        rng = np.random.default_rng(seed)
        g = make_graph(rng, n, int(rng.integers(0, n * (n - 1) + 1)))
        u = int(rng.integers(n))
        hists = walk_reference.walk_positions(g, u, steps, R,
                                              np.random.default_rng(seed))
        batch = list(walk_steps(g, np.full(R, u), steps,
                                np.random.default_rng(seed)))
        assert len(batch) <= steps
        for t, hist in enumerate(hists):
            pos, walk = batch[t] if t < len(batch) else ([], [])
            assert np.array_equal(np.bincount(pos, minlength=n), hist)
            assert np.all(np.diff(walk) > 0)  # survivors stay in start order
        # the kernel's histograms, zero-padded after absorption, are the
        # reference's exactly
        got = walk_positions(g, u, steps, R, np.random.default_rng(seed))
        assert len(got) == steps
        for new, old in zip(got, hists):
            assert new.dtype == np.int64 and np.array_equal(new, old)

    def test_walk_steps_index_into_starts(self):
        g = sr.load_edge_list("0 1\n1 2\n")  # I(1) = {0}, I(2) = {1}
        got = [(p.tolist(), w.tolist())
               for p, w in walk_steps(g, np.array([2, 0, 1]), 4,
                                      np.random.default_rng(0))]
        # dense ids: 0, 1, 2 as given; the walk from 0 is absorbed first
        assert got == [([2, 0, 1], [0, 1, 2]), ([1, 0], [0, 2]), ([0], [0])]


class TestBfs:
    def test_star_distances(self, star):
        assert sr.bfs_distances(star, 1) == {1: 0, 0: 1, 2: 2, 3: 2}

    def test_truncation(self, star):
        assert sr.bfs_distances(star, 1, max_d=1) == {1: 0, 0: 1}

    def test_direction_ignored(self):
        g = sr.load_edge_list("0 1\n1 2\n")
        assert sr.bfs_distances(g, 2) == {2: 0, 1: 1, 0: 2}
