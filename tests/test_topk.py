import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import simrank as sr
from simrank import diag, topk
from simrank.graph import walk_steps

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


def vector_gamma(g, cfg, D, u):
    """gamma(u, t) by per-vertex vector propagation (reference)."""
    out = np.zeros(cfg.T)
    x = np.zeros(g.n)
    x[u] = 1.0
    for t in range(cfg.T):
        out[t] = np.sqrt(float(np.sum(D.values * x * x)))
        x = g.P @ x
    return out


def trajectory_anchors(g, cfg, ks, P_walks, Q_walks, rng):
    """The per-walk anchor rule applied to walk_steps trajectories (reference)."""
    walks = 1 + Q_walks
    paths = [[] for _ in range(len(ks) * P_walks * walks)]
    for pos, walk in walk_steps(g, np.repeat(ks, P_walks * walks), cfg.T + 1,
                                rng):
        for v, w in zip(pos.tolist(), walk.tolist()):
            paths[w].append(v)
    anchors = {int(u): set() for u in ks}
    for r in range(len(ks) * P_walks):
        pilot, *probes = paths[r * walks:(r + 1) * walks]
        for t in range(1, len(pilot)):
            at_t = [w[t] for w in probes if len(w) > t]
            if len(at_t) - len(set(at_t)) >= 1:
                anchors[int(ks[r // P_walks])].add(pilot[t])
    return anchors


@st.composite
def index_cases(draw):
    """A random digraph with a walk budget that cuts it into blocks."""
    n = draw(st.integers(1, 30))
    m = draw(st.integers(0, min(n * (n - 1), 3 * n)))
    g = make_graph(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, m)
    cfg = sr.Config(c=0.6, T=draw(st.integers(1, 12)))
    P_walks, Q_walks = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    budget = P_walks * (1 + Q_walks) * draw(st.integers(1, n))
    return g, cfg, P_walks, Q_walks, budget, draw(st.integers(0, 10**6))


class TestGamma:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=index_cases(), d_seed=st.integers(0, 10**6),
           budget=st.integers(1, 1000))
    def test_table_equals_vector_propagation_bitwise(self, monkeypatch, case,
                                                      d_seed, budget):
        g, cfg, *_ = case
        monkeypatch.setattr(diag, "BLOCK_BUDGET", budget)
        d = np.random.default_rng(d_seed).uniform(1 - cfg.c, 1.0, g.n)
        D = diag.DiagonalCorrection(d)
        ref = np.vstack([vector_gamma(g, cfg, D, u) for u in range(g.n)])
        table = np.vstack([topk.gamma_table(g, cfg, D, ks)
                           for ks in diag.source_blocks(g.n)])
        assert np.array_equal(table, ref)
        rows = np.vstack([sr.build_gamma(g, cfg, D, u) for u in range(g.n)])
        assert np.array_equal(rows, ref)

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
    @settings(max_examples=60, deadline=None)
    @given(case=index_cases())
    def test_anchors_follow_the_per_walk_rule(self, case):
        g, cfg, P_walks, Q_walks, _, seed = case
        ks = np.arange(g.n)
        marks = topk.walk_anchors(g, cfg, ks, P_walks, Q_walks,
                                  np.random.default_rng(seed))
        got = {int(u): set() for u in ks}
        for u, a in marks.T.tolist():
            got[u].add(a)
        ref = trajectory_anchors(g, cfg, ks, P_walks, Q_walks,
                                 np.random.default_rng(seed))
        assert got == ref

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=index_cases())
    def test_candidates_share_an_anchor(self, monkeypatch, case):
        g, cfg, P_walks, Q_walks, budget, seed = case
        monkeypatch.setattr(topk, "WALK_BUDGET", budget)
        cand = sr.build_candidate_index(g, cfg, P_walks, Q_walks,
                                        np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        anchors = {}
        for ks in diag.source_blocks(g.n, budget // (P_walks * (1 + Q_walks))):
            anchors.update(trajectory_anchors(g, cfg, ks, P_walks, Q_walks, rng))
        ref = {u: {v for v in range(g.n) if v != u and anchors[u] & anchors[v]}
               for u in range(g.n)}
        assert cand == ref and list(cand) == list(range(g.n))

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
            index = sr.BoundsIndex({u: allowed})
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

    def test_mc_column_finds_the_far_twin(self):
        """The Monte-Carlo path ranks a whole column too: it reaches 12 at
        distance 12 > T and lists no zero-score vertex.  Every walk from 6
        runs down its chain to the root, so the estimate is exact here."""
        g = sr.Graph(13, TWO_CHAINS)
        cfg = sr.Config(c=0.6, T=11)
        D = sr.estimate_diagonal(g, cfg, sr.EstimationConfig(L=3))
        got = sr.topk_query(g, cfg, D, None, 6, 3, adaptive=(10, 1000),
                            rng=cfg.rng())
        assert [v for v, _ in got] == [12]
        assert got[0][1] == pytest.approx(0.6 ** 6, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(case=topk_cases(), R=st.integers(1, 50), seed=st.integers(0, 10**6))
    def test_mc_path_ranks_the_walk_column(self, case, R, seed):
        g, u, k, theta_floor, allowed = case
        cfg = sr.Config(c=0.6, T=11)
        D = sr.initial_guess(g, cfg)
        index = None if allowed is None else sr.BoundsIndex({u: allowed})
        got = sr.topk_query(g, cfg, D, index, u, k, theta_floor=theta_floor,
                            adaptive=(1, R), rng=np.random.default_rng(seed))
        col = sr.mc_single_source(g, cfg, D, u, R, np.random.default_rng(seed))
        assert got == ranked_row(col, u, k, theta_floor, allowed)

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

    def test_index_keeps_results_among_candidates(self):
        rng = np.random.default_rng(5)
        g = make_graph(rng, 40, 120)
        cfg = sr.Config(c=0.6, T=11)
        D = sr.estimate_diagonal(g, cfg, sr.EstimationConfig(L=2))
        index = sr.build_bounds_index(g, cfg, D, rng=cfg.rng())
        listed = 0
        for u in range(g.n):
            for adaptive in (None, (10, 100)):
                got = sr.topk_query(g, cfg, D, index, u, 5, adaptive=adaptive,
                                    rng=np.random.default_rng(u))
                assert {v for v, _ in got} <= index.candidates[u]
                listed += len(got)
        assert listed > 0

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
