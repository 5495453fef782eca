import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import simrank as sr
from simrank import mc
from simrank.graph import walk_positions, walk_steps
from simrank.join import check_join_args
from simrank.mc import meeting_time_samples

from conftest import make_graph, small_digraphs


def per_pair_meeting_times(g, cfg, i, j, R, rng):
    """c^tau for each pair of the walks that walk_steps draws for
    np.repeat([i, j], R) over T + 1 positions, read walk by walk: walk w
    pairs with walk R + w, tau is the first step at which both stand on
    one vertex, and a pair that never does scores 0."""
    paths = [[] for _ in range(2 * R)]
    for pos, walk in walk_steps(g, np.repeat([i, j], R), cfg.T + 1, rng):
        for w, v in zip(walk.tolist(), pos.tolist()):
            paths[w].append(v)
    values = np.zeros(R)
    for w in range(R):
        for tau, (a, b) in enumerate(zip(paths[w], paths[R + w])):
            if a == b:
                weight = 1.0
                for _ in range(tau):
                    weight *= cfg.c
                values[w] = weight
                break
    return values


def per_pair_verify(g, cfg, i, j, theta, p, R_max, rng):
    """verify_pair's chunked Hoeffding loop on per_pair_meeting_times, as a
    tuple."""
    bar = math.log(1.0 / p) / 2.0 * (cfg.c / (1.0 - cfg.c)) ** 2
    total = 0.0
    used = 0
    terminated = False
    while used < R_max:
        chunk = min(mc.VERIFY_CHUNK, R_max - used)
        draws = per_pair_meeting_times(g, cfg, i, j, chunk, rng)
        counts = used + 1 + np.arange(chunk)
        means = (total + np.cumsum(draws)) / counts
        ok = counts * (means - theta) ** 2 >= bar
        hit = int(np.argmax(ok)) if ok.any() else -1
        if hit >= 0:
            used += hit + 1
            total += float(np.sum(draws[:hit + 1]))
            terminated = True
            break
        used += chunk
        total += float(np.sum(draws))
    estimate = total / used if used else 0.0
    side = "similar" if estimate >= theta else "dissimilar"
    return (side if terminated else "undecided", side, estimate, used)


@pytest.fixture
def star_exact(star, cfg08):
    return star, cfg08, sr.exact_diagonal(star, cfg08)


class TestMcSinglePair:
    def test_same_vertex_is_one(self, star_exact):
        g, cfg, D = star_exact
        assert sr.mc_single_pair(g, cfg, D, 2, 2, 10, cfg.rng()) == 1.0

    def test_star_leaf_pair(self, star_exact):
        g, cfg, D = star_exact
        est = sr.mc_single_pair(g, cfg, D, 1, 2, 5000, cfg.rng())
        assert est == pytest.approx(0.8, abs=0.02)

    def test_disconnected_pair_is_zero(self):
        g = sr.load_edge_list("0 1\n1 0\n2 3\n3 2\n")
        cfg = sr.Config(c=0.6)
        D = sr.exact_diagonal(g, cfg)
        assert sr.mc_single_pair(g, cfg, D, 0, 2, 200, cfg.rng()) == 0.0

    def test_converges_to_deterministic_score(self, random_graphs):
        cfg = sr.Config(c=0.6, seed=8)
        g = random_graphs(1, 20, seed=8)[0]
        D = sr.exact_diagonal(g, cfg)
        exact = sr.single_pair(g, cfg, D, 0, 1)
        est = sr.mc_single_pair(g, cfg, D, 0, 1, 20000, cfg.rng())
        assert est == pytest.approx(exact, abs=0.02)

    @pytest.mark.parametrize("i, j", [(1, 2), (2, 2)])
    @pytest.mark.parametrize("R", [0, -3])
    def test_rejects_no_walks(self, star_exact, i, j, R):
        g, cfg, D = star_exact
        with pytest.raises(ValueError, match=f"R must be >= 1, got {R}"):
            sr.mc_single_pair(g, cfg, D, i, j, R, cfg.rng())


@st.composite
def walk_cases(draw):
    """A random digraph, a source on it, a walk count and a seed."""
    n = draw(st.integers(1, 25))
    m = draw(st.integers(0, min(n * (n - 1), 3 * n)))
    g = make_graph(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, m)
    cfg = sr.Config(c=draw(st.floats(0.1, 0.9)), T=draw(st.integers(1, 12)))
    return (g, cfg, draw(st.integers(0, n - 1)), draw(st.integers(1, 60)),
            draw(st.integers(0, 10**6)))


def pair_reference(g, cfg, dvals, i, j, R, rng):
    """sum_t c^t sum_w D_w cnt_i(w,t) cnt_j(w,t) / R^2 over the walks of
    walk_steps(g, np.repeat([i, j], R), T, rng), two full bincounts a step."""
    score = 0.0
    for t, (pos, walk) in enumerate(walk_steps(g, np.repeat([i, j], R), cfg.T,
                                               rng)):
        cnt_i = np.bincount(pos[walk < R], minlength=g.n)
        cnt_j = np.bincount(pos[walk >= R], minlength=g.n)
        score += cfg.c ** t * float(np.sum(dvals * cnt_i * cnt_j)) / (R * R)
    return score


# 1 <- 0 and 2 <- 0, so the two sides meet at 0 on step 1; then each walk
# goes to the dangling 4, where it is absorbed, or into the cycle 3 <-> 5
ONE_SIDE_ABSORBED = "0 1\n0 2\n4 0\n3 0\n5 3\n3 5\n"


class TestMcSinglePairWalks:
    @settings(max_examples=150, deadline=None)
    @given(case=walk_cases(), shift=st.integers(0, 23))
    def test_equals_the_two_histogram_sum_on_its_walks(self, case, shift):
        g, cfg, i, R, seed = case
        assume(g.n > 1)
        j = (i + 1 + shift % (g.n - 1)) % g.n  # any vertex but i
        d = np.random.default_rng([seed, 1]).uniform(1 - cfg.c, 1.0, g.n)
        got = sr.mc_single_pair(g, cfg, sr.DiagonalCorrection(d), i, j, R,
                                np.random.default_rng(seed))
        ref = pair_reference(g, cfg, d, i, j, R, np.random.default_rng(seed))
        assert abs(got - ref) <= 1e-12

    @pytest.mark.parametrize("R", [1, 2, 3])
    def test_one_side_absorbed_first(self, R):
        g = sr.load_edge_list(ONE_SIDE_ABSORBED)
        cfg = sr.Config(c=0.6, T=8)
        d = np.linspace(0.5, 1.0, g.n)
        i, j = g.original_ids.index(1), g.original_ids.index(2)
        lone = 0  # seeds on which one side outlives the other
        for seed in range(20):
            got = sr.mc_single_pair(g, cfg, sr.DiagonalCorrection(d), i, j, R,
                                    np.random.default_rng(seed))
            ref = pair_reference(g, cfg, d, i, j, R,
                                 np.random.default_rng(seed))
            assert abs(got - ref) <= 1e-12
            assert ref >= cfg.c * d[g.original_ids.index(0)]
            sides = [{bool(w) for w in walk >= R} for _, walk in walk_steps(
                g, np.repeat([i, j], R), cfg.T, np.random.default_rng(seed))]
            lone += len(sides[-1]) == 1
        assert lone > 0


class TestMcSingleSource:
    @settings(max_examples=100, deadline=None)
    @given(case=walk_cases())
    def test_equals_the_dense_series_on_its_walks(self, case):
        g, cfg, u, R, seed = case
        d = np.random.default_rng([seed, 1]).uniform(1 - cfg.c, 1.0, g.n)
        D = sr.DiagonalCorrection(d)
        got = sr.mc_single_source(g, cfg, D, u, R, np.random.default_rng(seed))
        # the same walks, folded as sum_t c^t (P^T)^t D h_t / R with dense P
        hists = walk_positions(g, u, cfg.T, R, np.random.default_rng(seed))
        PT = g.dense_P().T
        ref = np.zeros(g.n)
        for t, h in enumerate(hists):
            ref += cfg.c ** t * np.linalg.matrix_power(PT, t) @ (d * h / R)
        assert np.max(np.abs(got - ref)) <= 1e-12

    def test_mean_over_seeds_approaches_the_truncated_row(self, random_graphs):
        cfg = sr.Config(c=0.6, T=11)
        g = random_graphs(1, 20, seed=8)[0]
        D = sr.exact_diagonal(g, cfg)
        row = sr.dense_truncated(g, cfg, D)[3]
        mean = np.mean([sr.mc_single_source(g, cfg, D, 3, 100,
                                            np.random.default_rng(s))
                        for s in range(400)], axis=0)
        assert np.max(np.abs(mean - row)) <= 2e-3

    def test_rejects_no_walks(self, star_exact):
        g, cfg, D = star_exact
        with pytest.raises(ValueError, match="R must be >= 1"):
            sr.mc_single_source(g, cfg, D, 1, 0, cfg.rng())


class TestMeetingTimes:
    def test_same_vertex(self, star_exact):
        g, cfg, _ = star_exact
        assert np.all(meeting_time_samples(g, cfg, 1, 1, 5, cfg.rng()) == 1.0)

    def test_star_leaves_always_meet_at_hub(self, star_exact):
        g, cfg, _ = star_exact
        draws = meeting_time_samples(g, cfg, 1, 2, 100, cfg.rng())
        assert np.all(draws == cfg.c)  # both walks reach the hub at step 1

    def test_star_hub_leaf_never_meet(self, star_exact):
        g, cfg, _ = star_exact
        draws = meeting_time_samples(g, cfg, 0, 1, 100, cfg.rng())
        assert np.all(draws == 0.0)  # parity keeps the walks apart

    def test_mean_estimates_score(self, seven):
        g, idx = seven
        cfg = sr.Config(c=0.6, T=11)
        S = sr.naive_simrank(g, cfg)
        draws = meeting_time_samples(g, cfg, idx[1], idx[2], 50000, cfg.rng())
        assert draws.mean() == pytest.approx(S[idx[1], idx[2]], abs=0.01)

    def test_values_are_powers_of_c(self, random_graphs):
        cfg = sr.Config(c=0.6, T=6)
        g = random_graphs(1, 15, seed=21)[0]
        draws = meeting_time_samples(g, cfg, 0, 1, 500, cfg.rng())
        allowed = {0.0} | {cfg.c ** t for t in range(1, cfg.T + 1)}
        assert {float(v) for v in draws} <= allowed

    def test_one_draw_on_the_star(self, star_exact):
        g, cfg, _ = star_exact
        assert meeting_time_samples(g, cfg, 1, 2, 1, cfg.rng())[0] == cfg.c

    @pytest.mark.parametrize("v", [-1, -2, 4])  # the star has 4 vertices
    def test_refuses_ids_outside_the_graph(self, star_exact, v):
        g, cfg, _ = star_exact
        message = re.escape(
            f"vertex {v} out of range for graph with {g.n} vertices")
        for i, j in [(v, 2), (2, v)]:
            rng = cfg.rng()
            with pytest.raises(ValueError, match=message):
                meeting_time_samples(g, cfg, i, j, 4, rng)
            with pytest.raises(ValueError, match=message):
                sr.verify_pair(g, cfg, i, j, 0.5, 0.01, 1000, rng)
            # refused before any draw
            assert rng.random() == cfg.rng().random()


class TestVerifyPair:
    def test_decides_similar(self, star_exact):
        g, cfg, _ = star_exact
        res = sr.verify_pair(g, cfg, 1, 2, 0.5, 0.01, 1000, cfg.rng())
        assert res.decision == "similar"
        assert not res.undecided
        assert res.samples_used < 1000
        assert res.estimate == pytest.approx(0.8)

    def test_decides_dissimilar(self, star_exact):
        g, cfg, _ = star_exact
        res = sr.verify_pair(g, cfg, 0, 1, 0.3, 0.01, 1000, cfg.rng())
        assert res.decision == "dissimilar"
        assert res.estimate == 0.0

    def test_undecided_when_estimate_sits_on_theta(self, star_exact):
        # every draw equals c = 0.8 here, so theta = 0.8 can never separate
        g, cfg, _ = star_exact
        res = sr.verify_pair(g, cfg, 1, 2, 0.8, 0.01, 300, cfg.rng())
        assert res.undecided
        assert res.samples_used == 300
        assert res.estimate == pytest.approx(0.8)
        assert res.decision == "undecided"

    def test_argument_validation(self, star_exact):
        g, cfg, _ = star_exact
        with pytest.raises(ValueError, match="theta"):
            sr.verify_pair(g, cfg, 1, 2, 1.5, 0.01, 10, cfg.rng())
        with pytest.raises(ValueError, match="p"):
            sr.verify_pair(g, cfg, 1, 2, 0.5, 0.0, 10, cfg.rng())
        with pytest.raises(ValueError, match="R_max"):
            sr.verify_pair(g, cfg, 1, 2, 0.5, 0.01, 0, cfg.rng())

    @pytest.mark.parametrize("theta, p, R_max", [
        (1.0, 0.01, 10), (np.nan, 0.01, 10), (0.5, 0.0, 10),
        (0.5, np.nan, 10), (0.5, 0.01, 0)])
    def test_join_checks_the_same_rules(self, star_exact, theta, p, R_max):
        """The join checks theta with verification's rule and message, and
        has no p or R_max of its own."""
        g, cfg, _ = star_exact
        with pytest.raises(ValueError) as verify:
            sr.verify_pair(g, cfg, 1, 2, theta, p, R_max, cfg.rng())
        if str(verify.value).startswith("theta"):
            with pytest.raises(ValueError) as joined:
                check_join_args(theta)
            assert str(joined.value) == str(verify.value)
        else:
            check_join_args(theta)

    def test_stricter_p_needs_more_samples(self, seven):
        g, idx = seven
        cfg = sr.Config(c=0.6, T=11)
        loose = sr.verify_pair(g, cfg, idx[1], idx[2], 0.2, 0.1, 10**5,
                               cfg.rng())
        strict = sr.verify_pair(g, cfg, idx[1], idx[2], 0.2, 1e-4, 10**5,
                                cfg.rng())
        assert loose.samples_used < strict.samples_used
        assert loose.decision == strict.decision == "similar"


class TestVerifyPairs:
    """verify_pair and meeting_time_samples pinned bitwise, draws included,
    to the walk-by-walk references above."""

    def test_verify_pair_matches_the_per_pair_loop(self, seven, random_graphs):
        g7, idx = seven
        cfg = sr.Config(c=0.6, T=11)
        cases = [(g7, idx[a], idx[b], theta, p, R_max)
                 for a, b in [(1, 2), (5, 6), (3, 5), (2, 7), (4, 4)]
                 for theta, p, R_max in [(0.25, 0.01, 1000), (0.2, 0.1, 100),
                                         (0.24, 1e-3, 5000), (0.5, 0.01, 1),
                                         (0.1, 0.05, 63), (0.6, 0.1, 2000)]]
        g = random_graphs(1, 30, seed=5)[0]
        cases += [(g, i, j, 0.05, 0.01, 1000) for i, j in [(0, 1), (2, 9)]]
        for k, (h, i, j, theta, p, R_max) in enumerate(cases):
            rng_new = np.random.default_rng([71, k])
            rng_old = np.random.default_rng([71, k])
            res = sr.verify_pair(h, cfg, i, j, theta, p, R_max, rng_new)
            old = per_pair_verify(h, cfg, i, j, theta, p, R_max, rng_old)
            assert (res.decision, res.side, res.estimate,
                    res.samples_used) == old
            # the same number of draws left both streams in the same state
            assert rng_new.random() == rng_old.random()

    @settings(max_examples=100, deadline=None)
    @given(g=small_digraphs(), data=st.data(), R=st.integers(1, 64),
           T=st.integers(1, 12), c=st.sampled_from([0.6, 0.8]),
           seed=st.integers(0, 2**32 - 1))
    def test_meeting_time_samples_match_the_per_pair_sampler(self, g, data, R,
                                                             T, c, seed):
        i = data.draw(st.integers(0, g.n - 1))
        j = data.draw(st.one_of(st.just(i), st.integers(0, g.n - 1)))
        cfg = sr.Config(c=c, T=T)
        rng_new = np.random.default_rng(seed)
        rng_old = np.random.default_rng(seed)
        new = meeting_time_samples(g, cfg, i, j, R, rng_new)
        old = per_pair_meeting_times(g, cfg, i, j, R, rng_old)
        assert np.array_equal(new, old)
        assert rng_new.random() == rng_old.random()
