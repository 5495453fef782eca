import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import simrank as sr
from simrank.query import tsv_rows

from conftest import make_graph


@pytest.fixture
def star_exact(star, cfg08):
    return star, cfg08, sr.exact_diagonal(star, cfg08)


class TestSinglePair:
    def test_star_values(self, star_exact):
        g, cfg, D = star_exact
        slack = cfg.c ** cfg.T / (1 - cfg.c) + 1e-9
        assert abs(sr.single_pair(g, cfg, D, 1, 2) - 0.8) <= slack
        assert abs(sr.single_pair(g, cfg, D, 0, 1) - 0.0) <= slack
        assert abs(sr.single_pair(g, cfg, D, 2, 2) - 1.0) <= slack

    def test_seven_vertex_scores(self, seven):
        g, idx = seven
        cfg = sr.Config(c=0.6, T=11)
        D = sr.exact_diagonal(g, cfg)
        # converged references from the fixed-point oracle
        assert sr.single_pair(g, cfg, D, idx[1], idx[2]) == pytest.approx(
            0.27867, abs=2e-3)
        assert sr.single_pair(g, cfg, D, idx[5], idx[6]) == pytest.approx(
            0.27882, abs=2e-3)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        g = make_graph(rng, 12, 24)
        cfg = sr.Config(c=0.6, T=8)
        D = sr.exact_diagonal(g, cfg)
        i, j = int(rng.integers(12)), int(rng.integers(12))
        assert sr.single_pair(g, cfg, D, i, j) == pytest.approx(
            sr.single_pair(g, cfg, D, j, i), abs=1e-12)


# the 3-cycle 0 -> 1 -> 2 -> 0 with the chord 0 -> 2
CYCLE_EDGES = "0 1\n1 2\n2 0\n0 2\n"

# every query entry point, and every other function that takes a vertex,
# called with vertex v in one vertex slot
VERTEX_QUERIES = {
    "single_pair i": lambda g, cfg, D, v, rng: sr.single_pair(g, cfg, D, v, 0),
    "single_pair j": lambda g, cfg, D, v, rng: sr.single_pair(g, cfg, D, 0, v),
    "single_source": lambda g, cfg, D, v, rng: sr.single_source(g, cfg, D, v),
    "mc_single_pair i": lambda g, cfg, D, v, rng: sr.mc_single_pair(
        g, cfg, D, v, 0, 10, rng),
    "mc_single_pair j": lambda g, cfg, D, v, rng: sr.mc_single_pair(
        g, cfg, D, 0, v, 10, rng),
    "mc_single_pair i = j": lambda g, cfg, D, v, rng: sr.mc_single_pair(
        g, cfg, D, v, v, 10, rng),
    "mc_single_source": lambda g, cfg, D, v, rng: sr.mc_single_source(
        g, cfg, D, v, 10, rng),
    "topk_query": lambda g, cfg, D, v, rng: sr.topk_query(
        g, cfg, D, None, v, 2),
    "topk_query mc": lambda g, cfg, D, v, rng: sr.topk_query(
        g, cfg, D, None, v, 2, adaptive=(10, 10), rng=rng),
    "bfs_distances": lambda g, cfg, D, v, rng: sr.bfs_distances(g, v, 2),
    "build_gamma": lambda g, cfg, D, v, rng: sr.build_gamma(g, cfg, D, v),
    "build_alpha_beta": lambda g, cfg, D, v, rng: sr.build_alpha_beta(
        g, cfg, D, v, 2),
    "inner_estimates": lambda g, cfg, D, v, rng: sr.diag.inner_estimates(
        g, cfg, D, v, sr.EstimationConfig(R=10, mode="mc"), rng),
}


@pytest.mark.parametrize("query", VERTEX_QUERIES)
@pytest.mark.parametrize("v", [-1, -2, 3])
def test_out_of_range_vertex_is_refused_before_any_walk(query, v):
    # a negative id would otherwise index from the end: -1 read vertex 2
    g = sr.load_edge_list(CYCLE_EDGES)
    cfg = sr.Config(c=0.6, T=5)
    D = sr.exact_diagonal(g, cfg)
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match=f"vertex {v} out of range for "
                                         f"graph with 3 vertices"):
        VERTEX_QUERIES[query](g, cfg, D, v, rng)
    assert rng.random() == np.random.default_rng(4).random()  # nothing drawn


class TestSingleSource:
    def test_modes_agree_and_match_single_pair(self, random_graphs):
        cfg = sr.Config(c=0.6, T=9)
        g = random_graphs(1, 25, seed=13)[0]
        D = sr.exact_diagonal(g, cfg)
        col = sr.single_source(g, cfg, D, 3)
        for j in (0, 1, g.n - 1):
            assert col[j] == pytest.approx(sr.single_pair(g, cfg, D, 3, j),
                                           abs=1e-12)

    def test_dangling_source_is_self_only(self):
        g = sr.load_edge_list("0 1\n")
        cfg = sr.Config(c=0.6, T=11)
        D = sr.exact_diagonal(g, cfg)
        col = sr.single_source(g, cfg, D, 0)
        assert col[0] == pytest.approx(1.0, abs=1e-9)
        assert col[1] == pytest.approx(0.0, abs=1e-12)


class TestAllPairs:
    def test_rows_sorted_and_thresholded(self, star_exact):
        g, cfg, D = star_exact
        sink = io.StringIO()
        rows = sr.all_pairs(g, cfg, D, sink, threshold=0.5)
        lines = sink.getvalue().splitlines()
        assert rows == len(lines) == 10  # 4 diagonal + 6 leaf pairs
        keys = [tuple(map(int, line.split("\t")[:2])) for line in lines]
        assert keys == sorted(keys)
        scores = {tuple(map(int, line.split("\t")[:2])): float(line.split("\t")[2])
                  for line in lines}
        assert scores[(1, 2)] == pytest.approx(0.8, abs=1e-3)

    def test_zero_threshold_emits_everything(self, star_exact):
        g, cfg, D = star_exact
        sink = io.StringIO()
        assert sr.all_pairs(g, cfg, D, sink, threshold=0.0) == g.n * g.n

    def test_non_finite_threshold_is_rejected(self, star_exact):
        g, cfg, D = star_exact
        for threshold in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=str(threshold)):
                sr.all_pairs(g, cfg, D, io.StringIO(), threshold=threshold)


def _per_column_all_pairs(g, cfg, D, sink, threshold):
    """The per-source loop all_pairs replaced, kept as its byte reference."""
    rows = 0
    for i in range(g.n):
        col = sr.single_source(g, cfg, D, i)
        for j in range(g.n):
            score = float(col[j])
            if score >= threshold:
                sink.write(f"{i}\t{j}\t{score:.6f}\n")
                rows += 1
    return rows


def tiny_case(n):
    """A query case on n <= 2 vertices."""
    rng = np.random.default_rng(n)
    g = make_graph(rng, n, n - 1)
    return g, sr.Config(c=0.6, T=5), sr.DiagonalCorrection(
        rng.uniform(0.4, 1.0, n)), rng


@st.composite
def query_cases(draw):
    """A random digraph with n <= 30, c, T and a diagonal in [1-c, 1]."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 30))
    m = draw(st.integers(0, min(3 * n, n * (n - 1))))
    c = draw(st.floats(0.2, 0.9))
    T = draw(st.integers(1, 12))
    rng = np.random.default_rng(seed)
    g = make_graph(rng, n, m)
    D = sr.DiagonalCorrection(rng.uniform(1 - c, 1.0, n))
    return g, sr.Config(c=c, T=T), D, rng


class TestSourceColumns:
    @settings(max_examples=60, deadline=None)
    @given(case=query_cases())
    def test_single_source_equals_dense(self, case):
        """Every column, and every pair score read off it by single_pair."""
        g, cfg, D, _ = case
        S = sr.dense_truncated(g, cfg, D)
        for k in range(g.n):
            col = sr.single_source(g, cfg, D, k)
            assert col.shape == (g.n,)
            assert np.max(np.abs(col - S[:, k]), initial=0.0) <= 1e-12
            for j in range(g.n):
                assert abs(sr.single_pair(g, cfg, D, k, j) - S[k, j]) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(case=query_cases())
    @example(case=tiny_case(1))
    @example(case=tiny_case(2))
    def test_all_pairs_bytes_equal_per_column_loop(self, case):
        """The same bytes for every block size, n = 1 and n = 2 included."""
        g, cfg, D, _ = case
        for threshold in (0.0, 1e-4, 0.3):
            want = io.StringIO()
            want_rows = _per_column_all_pairs(g, cfg, D, want, threshold)
            for size in (1, 3, g.n):
                got = io.StringIO()
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(sr.diag, "BLOCK_BUDGET", size * g.n)
                    assert sr.all_pairs(g, cfg, D, got, threshold) == want_rows
                assert got.getvalue() == want.getvalue()

    def test_all_pairs_refills_one_stack(self, monkeypatch):
        """Every block folds layers of the one stack made for the first
        block, the last (narrower) block included."""
        rng = np.random.default_rng(3)
        g = make_graph(rng, 10, 30)
        cfg = sr.Config(c=0.6, T=4)
        D = sr.DiagonalCorrection(rng.uniform(0.4, 1.0, 10))
        monkeypatch.setattr(sr.diag, "BLOCK_BUDGET", 3 * 10)
        seen = []
        fold_series = sr.query.fold_series

        def recording(g, cfg, stack):
            seen.append(list(stack))  # kept alive: a fresh array can't reuse it
            return fold_series(g, cfg, stack)
        monkeypatch.setattr(sr.query, "fold_series", recording)
        sr.all_pairs(g, cfg, D, io.StringIO())
        assert [len(layers) for layers in seen] == [4] * 4
        assert [layers[0].shape[1] for layers in seen] == [3, 3, 3, 1]
        assert all(np.shares_memory(layer, seen[0][t])
                   for layers in seen for t, layer in enumerate(layers))


def percent_rows(ids, scores):
    """The rows "%d<TAB>...%.6f\n" % row, one row at a time (reference)."""
    fmt = "%d\t" * len(ids) + "%.6f\n"
    return "".join(fmt % row for row in zip(*ids, scores))


def near_half(k: int, ulps: int) -> float:
    """The float ulps steps away from the nearest float to (k + 1/2) / 1e6."""
    x = (k + 0.5) / 1e6
    toward = np.inf if ulps > 0 else -np.inf
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, toward))
    return x


SCORES = st.one_of(
    st.floats(0.0, 3.0),
    st.builds(near_half, st.integers(0, 3 * 10**6), st.integers(-4, 4)),
    st.builds(lambda x: -x, st.builds(near_half, st.integers(0, 10**6),
                                      st.integers(-4, 4))),
    # odd multiples of 1/128 are exact decimal ties, which '%.6f' rounds
    # half to even
    st.sampled_from([0.0, -0.0, -1e-300, -1e-9, -4e-7, -5e-7, -0.25,
                     1 / 128, 3 / 128, -5 / 128,
                     999.9999995, 1e3, 1e3 + 1e-9, 12345.678, -1e3,
                     float("inf"), -float("inf"), float("nan")]),
    st.floats(-1e-3, 0.0),
)


class TestTsvRows:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(0, 2**31 - 1),
                                   st.integers(0, 2**31 - 1), SCORES),
                         max_size=40))
    @example(rows=[])
    def test_equals_percent_format(self, rows):
        # a score the vectorized path takes not (non-finite or |x| >= 1e3)
        # sends the whole call to '%'; the rows without one take it
        for subset in (rows, [r for r in rows if abs(r[2]) < 1e3]):
            i, j, x = ([r[k] for r in subset] for k in range(3))
            ids = (np.array(i, dtype=np.int64), np.array(j, dtype=np.int64))
            scores = np.array(x, dtype=np.float64)
            assert tsv_rows(ids, scores) == percent_rows((i, j), x)
            assert tsv_rows(ids[1:], scores) == percent_rows((j,), x)

    def test_every_near_tie_of_a_range(self):
        # the floats within 4 ulps of (k + 1/2) / 1e6, for 20000 consecutive k
        base = (np.arange(123456, 143456) + 0.5) / 1e6
        x = np.concatenate([base + u * np.spacing(base) for u in range(-4, 5)])
        js = np.arange(len(x))
        assert tsv_rows((js,), x) == percent_rows((js.tolist(),), x.tolist())


class TestDenseTruncated:
    def test_matches_single_pair(self, random_graphs):
        cfg = sr.Config(c=0.6, T=7)
        g = random_graphs(1, 20, seed=17)[0]
        D = sr.exact_diagonal(g, cfg)
        S = sr.dense_truncated(g, cfg, D)
        for i in (0, 2):
            for j in (1, g.n - 1):
                assert S[i, j] == pytest.approx(
                    sr.single_pair(g, cfg, D, i, j), abs=1e-12)

    def test_truncation_underestimates_within_bound(self, random_graphs):
        for T in (3, 6, 11):
            cfg = sr.Config(c=0.6, T=T)
            g = random_graphs(1, 20, seed=19)[0]
            D = sr.exact_diagonal(g, cfg)
            diff = sr.naive_simrank(g, cfg) - sr.dense_truncated(g, cfg, D)
            assert diff.min() >= -1e-9
            assert diff.max() <= cfg.c ** T / (1 - cfg.c) + 1e-9
