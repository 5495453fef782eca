import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simrank as sr

from conftest import make_graph

# two in-link chains of length 6 from the root 0: 0->1->...->6, 0->7->...->12
TWO_CHAINS = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
              (0, 7), (7, 8), (8, 9), (9, 10), (10, 11), (11, 12)]


@pytest.fixture
def star_exact(star, cfg08):
    return star, cfg08, sr.exact_diagonal(star, cfg08)


@pytest.fixture(scope="module")
def bound_suite():
    """Graphs with exact diagonals and truncated score matrices, shared."""
    rng = np.random.default_rng(31)
    cfg = sr.Config(c=0.6, T=11)
    suite = []
    for _ in range(5):
        n = int(rng.integers(10, 31))
        g = make_graph(rng, n, 2 * n)
        D = sr.exact_diagonal(g, cfg)
        suite.append((g, D, sr.dense_truncated(g, cfg, D)))
    return cfg, suite


def ranked_row(row, u, k, theta_floor, allowed=None):
    """Reference ranking: drop u, keep scores > theta_floor, (-score, id), cut at k."""
    keep = [v for v in range(len(row)) if v != u and row[v] > theta_floor
            and (allowed is None or v in allowed)]
    keep.sort(key=lambda v: (-row[v], v))
    return [(v, float(row[v])) for v in keep[:k]]


@st.composite
def topk_cases(draw):
    """A random digraph on n <= 40 vertices with a query drawn on it.

    Some vertices b copy the in-links of another vertex a, so that
    s(u, a) = s(u, b) for every u and the tie rule gets exercised.
    """
    n = draw(st.integers(2, 40))
    m = draw(st.integers(0, min(n * (n - 1), 4 * n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = set(make_graph(rng, n, m).edges)
    for _ in range(draw(st.integers(0, n // 2))):
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        edges = {(w, x) for w, x in edges if x != b}
        edges |= {(w, b) for w, x in edges if x == a and w != b}
    g = sr.Graph(n, sorted(edges))
    u = draw(st.integers(0, n - 1))
    k = draw(st.integers(1, n + 1))
    theta_floor = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.3)))
    allowed = draw(st.none() | st.sets(st.integers(0, n - 1)))
    return g, u, k, theta_floor, allowed


class TestGamma:
    def test_step_zero_is_sqrt_diag(self, star_exact):
        g, cfg, D = star_exact
        for u in range(g.n):
            row = sr.build_gamma(g, cfg, D, u)
            assert row[0] == pytest.approx(np.sqrt(D.values[u]))

    def test_star_leaf_step_one(self, star_exact):
        g, cfg, D = star_exact
        row = sr.build_gamma(g, cfg, D, 1)
        assert row[1] == pytest.approx(np.sqrt(D.values[0]))  # all mass at hub

    def test_range(self, bound_suite):
        cfg, suite = bound_suite
        g, D, _ = suite[0]
        for u in range(g.n):
            row = sr.build_gamma(g, cfg, D, u)
            assert np.all(row >= 0) and np.all(row <= 1 + 1e-12)

    def test_mc_close_to_exact(self, bound_suite):
        cfg, suite = bound_suite
        g, D, _ = suite[0]
        rng = np.random.default_rng(0)
        for u in range(min(g.n, 5)):
            exact = sr.build_gamma(g, cfg, D, u)
            mc = sr.build_gamma(g, cfg, D, u, mode="mc", R=10000, rng=rng)
            assert np.max(np.abs(mc - exact)) <= 0.05


class TestAlphaBeta:
    def test_star_leaf(self, star_exact):
        g, cfg, D = star_exact
        ab = sr.build_alpha_beta(g, cfg, D, 1, d_max=3)
        assert ab.alpha[1, 1] == pytest.approx(D.values[0])
        assert ab.alpha[0, 0] == pytest.approx(D.values[1])

    def test_beta_recomputable_from_alpha(self, bound_suite):
        cfg, suite = bound_suite
        g, D, _ = suite[1]
        ab = sr.build_alpha_beta(g, cfg, D, 0, d_max=cfg.T)
        weights = cfg.c ** np.arange(cfg.T)
        for d in range(cfg.T + 1):
            manual = sum(
                weights[t] * ab.alpha[max(d - t, 0):min(d + t, cfg.T) + 1, t].max()
                for t in range(cfg.T))
            assert ab.beta[d] == pytest.approx(manual, abs=1e-12)

    def test_unreached_shells_are_zero(self, star_exact):
        g, cfg, D = star_exact
        ab = sr.build_alpha_beta(g, cfg, D, 1, d_max=6)
        assert np.all(ab.alpha[3:] == 0.0)  # star diameter is 2

    def test_l1_soundness(self, bound_suite):
        cfg, suite = bound_suite
        for g, D, S in suite:
            for u in range(0, g.n, 3):
                ab = sr.build_alpha_beta(g, cfg, D, u, d_max=cfg.T)
                dist = sr.bfs_distances(g, u, cfg.T)
                for v, d in dist.items():
                    if v != u:
                        assert S[u, v] <= ab.beta[d] + 1e-9


class TestL2Bound:
    def test_zero_rows(self):
        assert sr.l2_bound(np.zeros(5), np.zeros(5), 0.6) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sr.l2_bound(np.zeros(5), np.zeros(4), 0.6)

    def test_self_bound_dominates_self_score(self, bound_suite):
        cfg, suite = bound_suite
        g, D, S = suite[2]
        for u in range(g.n):
            row = sr.build_gamma(g, cfg, D, u)
            assert sr.l2_bound(row, row, cfg.c) >= S[u, u] - 1e-9

    def test_soundness(self, bound_suite):
        cfg, suite = bound_suite
        for g, D, S in suite:
            gamma = [sr.build_gamma(g, cfg, D, u) for u in range(g.n)]
            for u in range(g.n):
                for v in range(g.n):
                    assert sr.l2_bound(gamma[u], gamma[v], cfg.c) >= S[u, v] - 1e-9


class TestCandidateIndex:
    def test_star_leaves_find_each_other(self, star, cfg08):
        cand = sr.build_candidate_index(star, cfg08, rng=cfg08.rng())
        for leaf in (1, 2, 3):
            others = {1, 2, 3} - {leaf}
            assert others <= cand[leaf]

    def test_isolated_vertex_empty(self):
        g = sr.Graph(5, [(0, 1), (1, 0), (0, 2), (2, 0)])  # 3, 4 isolated
        cfg = sr.Config(c=0.6)
        cand = sr.build_candidate_index(g, cfg, rng=cfg.rng())
        assert cand[4] == set()


class TestIndexPersistence:
    def test_round_trip(self, tmp_path, star, cfg08):
        D = sr.exact_diagonal(star, cfg08)
        index = sr.build_bounds_index(star, cfg08, D, rng=cfg08.rng())
        path = str(tmp_path / "star.idx")
        sr.save_bounds_index(path, index)
        loaded = sr.load_bounds_index(path)
        assert np.array_equal(loaded.gamma, index.gamma)
        assert loaded.candidates == index.candidates
        assert loaded.params["T"] == cfg08.T

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus"
        path.write_bytes(b"not an index")
        with pytest.raises(ValueError, match="bounds index"):
            sr.load_bounds_index(str(path))

    @pytest.mark.parametrize("cut", ["drop_last", "garble"])
    def test_bad_candidate_file_names_file_and_line(self, tmp_path, star,
                                                    cfg08, cut):
        D = sr.exact_diagonal(star, cfg08)
        path = tmp_path / "star.idx"
        sr.save_bounds_index(str(path), sr.build_bounds_index(star, cfg08, D,
                                                              rng=cfg08.rng()))
        cand = tmp_path / "star.idx.cand"
        lines = cand.read_text().splitlines()
        if cut == "drop_last":
            lines = lines[:-1]
        else:
            lines[2] = "2: 1 x"
        cand.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"star\.idx\.cand:[34]: "):
            sr.load_bounds_index(str(path))


class TestTopkQuery:
    def test_star_leaf_query(self, star_exact):
        g, cfg, D = star_exact
        result = sr.topk_query(g, cfg, D, None, 1, 2)
        assert {v for v, _ in result} == {2, 3}
        for _, s in result:
            assert s == pytest.approx(0.8, abs=1e-3)

    def test_k_validation(self, star_exact):
        g, cfg, D = star_exact
        with pytest.raises(ValueError, match="k"):
            sr.topk_query(g, cfg, D, None, 1, 0)

    @settings(max_examples=300, deadline=None)
    @given(case=topk_cases(), c=st.floats(0.2, 0.9), T=st.integers(1, 15))
    def test_exact_path_ranks_the_dense_row(self, case, c, T):
        g, u, k, theta_floor, allowed = case
        cfg = sr.Config(c=c, T=T)
        D = sr.estimate_diagonal(g, cfg, sr.EstimationConfig(L=2))
        index = None
        if allowed is not None:
            index = sr.BoundsIndex(np.zeros((g.n, T)), {u: allowed})
        got = sr.topk_query(g, cfg, D, index, u, k, theta_floor=theta_floor)
        # the rule holds exactly on the column the query scores ...
        col = sr.single_source(g, cfg, D, u)
        assert got == ranked_row(col, u, k, theta_floor, allowed)
        # ... and that column is the oracle row.  Scores equal in the oracle
        # may differ in the last bits, so two such ranks may swap, and a
        # score equal to theta_floor may fall on either side of it
        row = sr.dense_truncated(g, cfg, D)[u]
        assert np.max(np.abs(col - row)) <= 1e-12
        ref = ranked_row(row, u, k, theta_floor, allowed)
        for (v, s), (w, s_ref) in zip(got, ref):
            assert abs(s - s_ref) <= 1e-12
            assert v == w or abs(row[v] - row[w]) <= 1e-12
        common = min(len(got), len(ref))
        for _, s in got[common:] + ref[common:]:
            assert abs(s - theta_floor) <= 1e-12

    def test_two_chains_find_the_far_twin(self):
        """Vertices 6 and 12 sit at undirected distance 12 > T and still meet
        at the root after 6 in-link steps: s = c^6 D_00 with D_00 = 1."""
        g = sr.Graph(13, TWO_CHAINS)
        cfg = sr.Config(c=0.6, T=11)
        D = sr.estimate_diagonal(g, cfg, sr.EstimationConfig(L=3))
        got = sr.topk_query(g, cfg, D, None, 6, 3)
        assert [v for v, _ in got] == [12]
        assert got[0][1] == pytest.approx(0.6 ** 6, abs=1e-12)
        assert sr.brute_force_topk(g, cfg, 6, 1)[0][0] == 12

    def test_matches_brute_force_when_separated(self, bound_suite):
        cfg, suite = bound_suite
        slack = cfg.c ** cfg.T / (1 - cfg.c)
        for g, D, _ in suite:
            k = 3
            oracle = sr.brute_force_topk(g, cfg, 0, k + 1)
            if len(oracle) <= k or oracle[k - 1][1] - oracle[k][1] <= 2 * slack:
                continue
            if oracle[k - 1][1] <= 2 * slack:
                continue
            got = sr.topk_query(g, cfg, D, None, 0, k)
            assert {v for v, _ in got} == {v for v, _ in oracle[:k]}

    def test_candidate_index_restricts_scan(self, star_exact):
        g, cfg, D = star_exact
        index = sr.build_bounds_index(g, cfg, D, rng=cfg.rng())
        result = sr.topk_query(g, cfg, D, index, 1, 2)
        assert {v for v, _ in result} == {2, 3}

    def test_adaptive_mc_scoring_deterministic(self, star_exact):
        g, cfg, D = star_exact
        first = sr.topk_query(g, cfg, D, None, 1, 2, adaptive=(10, 200),
                              rng=cfg.rng())
        second = sr.topk_query(g, cfg, D, None, 1, 2, adaptive=(10, 200),
                               rng=cfg.rng())
        assert first == second
        assert {v for v, _ in first} == {2, 3}

    def test_theta_floor_prunes_everything(self, star_exact):
        g, cfg, D = star_exact
        assert sr.topk_query(g, cfg, D, None, 1, 2, theta_floor=0.99) == []

    def test_ties_rank_ascending_id(self, star_exact):
        g, cfg, D = star_exact
        result = sr.topk_query(g, cfg, D, None, 1, 2)
        assert [v for v, _ in result] == [2, 3]
