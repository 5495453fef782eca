import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simrank as sr
from simrank.diag import DiagonalCorrection
from simrank.join import MemoryCapExceeded, ResidualStore

from conftest import make_graph


@pytest.fixture(scope="module")
def join_suite():
    rng = np.random.default_rng(41)
    cfg = sr.Config(c=0.6, T=11)
    suite = []
    for _ in range(5):
        n = int(rng.integers(12, 41))
        g = make_graph(rng, n, 2 * n)
        suite.append((g, sr.exact_diagonal(g, cfg), sr.naive_simrank(g, cfg)))
    return cfg, suite


class TestFilter:
    def test_zero_diagonal_is_noop(self, star, cfg08):
        D = DiagonalCorrection(np.zeros(star.n))
        store = sr.gauss_southwell_filter(star, cfg08, D, theta=0.5)
        assert store.solution == {}
        assert store.stats["pushes"] == 0

    def test_star_join_sets(self, star, cfg08):
        D = sr.exact_diagonal(star, cfg08)
        store = sr.gauss_southwell_filter(star, cfg08, D, theta=0.5)
        S = sr.naive_simrank(star, cfg08)
        approx = store.dense_solution(star.n)
        gap = S - approx
        assert gap.min() >= -1e-9 and gap.max() <= 0.5 + 1e-9
        J_L = {(i, j) for (i, j), v in store.solution.items()
               if i < j and v >= 0.5}
        assert J_L == {(1, 2), (1, 3), (2, 3)}

    def test_invariant_and_residual_bound(self, join_suite):
        cfg, suite = join_suite
        for g, D, _ in suite:
            store = sr.gauss_southwell_filter(g, cfg, D, theta=0.2,
                                              gamma_acc=0.3)
            S = store.dense_solution(g.n)
            R = store.dense_residual(g.n)
            P = g.dense_P()
            lhs = np.diag(D.values) - (S - cfg.c * (P.T @ S @ P))
            assert np.max(np.abs(lhs - R)) <= 1e-9
            assert np.max(np.abs(R)) < store.eps

    def test_sandwich_and_containment(self, join_suite):
        cfg, suite = join_suite
        theta, gamma = 0.2, 0.5
        for g, D, S_true in suite:
            store = sr.gauss_southwell_filter(g, cfg, D, theta, gamma)
            gap = S_true - store.dense_solution(g.n)
            np.fill_diagonal(gap, 0.0)
            assert gap.min() >= -1e-9
            assert gap.max() <= (1 - gamma) * theta + 1e-6
            J = sr.brute_force_join(g, cfg, theta)
            J_L = {k for k, v in store.solution.items()
                   if k[0] < k[1] and v >= theta}
            J_H = {k for k, v in store.solution.items()
                   if k[0] < k[1] and v >= gamma * theta}
            assert J_L <= J <= J_H

    def test_push_count_within_termination_bound(self, join_suite):
        cfg, suite = join_suite
        for g, D, S_true in suite:
            store = sr.gauss_southwell_filter(g, cfg, D, theta=0.2)
            assert store.stats["relaxations"] <= S_true.sum() / store.eps

    def test_gamma_monotonicity(self, join_suite):
        cfg, suite = join_suite
        theta = 0.2
        g, D, _ = suite[0]
        sets = []
        for gamma in (0.0, 0.3, 0.6):
            store = sr.gauss_southwell_filter(g, cfg, D, theta, gamma)
            J_L = {k for k, v in store.solution.items()
                   if k[0] < k[1] and v >= theta}
            if gamma == 0.0:
                J_H = {(i, j) for i in range(g.n) for j in range(i + 1, g.n)}
            else:
                J_H = {k for k, v in store.solution.items()
                       if k[0] < k[1] and v >= gamma * theta}
            sets.append((J_L, J_H))
        for (lo_a, hi_a), (lo_b, hi_b) in zip(sets, sets[1:]):
            assert lo_a <= lo_b
            assert hi_b <= hi_a

    def test_memory_cap(self, join_suite):
        cfg, suite = join_suite
        g, D, _ = suite[0]
        with pytest.raises(MemoryCapExceeded) as info:
            sr.gauss_southwell_filter(g, cfg, D, theta=0.2, max_entries=3)
        assert info.value.stats["relaxations"] >= 1

    def test_argument_validation(self, star, cfg08):
        D = sr.exact_diagonal(star, cfg08)
        with pytest.raises(ValueError, match="gamma_acc"):
            sr.gauss_southwell_filter(star, cfg08, D, 0.5, gamma_acc=1.0)
        with pytest.raises(ValueError, match="theta"):
            sr.gauss_southwell_filter(star, cfg08, D, 0.0)


class TestStochasticThreshold:
    def test_allocated_entry_always_accumulates(self):
        store = ResidualStore(eps=1.0)
        store.residuals[(0, 1)] = 0.5
        rng = np.random.default_rng(0)
        assert sr.stochastic_threshold(store, 1, 0, 1e-9, 100.0, rng)
        assert store.residuals[(0, 1)] == pytest.approx(0.5 + 1e-9)

    def test_large_mass_always_allocates(self):
        store = ResidualStore(eps=1.0)
        rng = np.random.default_rng(0)
        assert sr.stochastic_threshold(store, 0, 1, 0.02, 100.0, rng)
        assert store.residuals[(0, 1)] == 0.02

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            sr.stochastic_threshold(ResidualStore(eps=1.0), 0, 1, -0.1, 100.0,
                                    np.random.default_rng(0))

    def test_dropped_mass_tail(self):
        # stream of 50 pushes of 0.002 to one entry; the dropped prefix
        # exceeds delta = ln(10)/beta with probability <= 0.1
        beta, a, trials = 100.0, 0.002, 4000
        delta = np.log(10.0) / beta
        rng = np.random.default_rng(0)
        exceed = 0
        for _ in range(trials):
            store = ResidualStore(eps=10.0)
            for _ in range(50):
                sr.stochastic_threshold(store, 0, 1, a, beta, rng)
            dropped = 50 * a - store.residuals.get((0, 1), 0.0)
            if dropped >= delta - 1e-12:
                exceed += 1
        assert exceed / trials <= 0.1 + 0.02


class TestJoin:
    def test_theta_above_max_is_empty(self, star, cfg08):
        D = sr.exact_diagonal(star, cfg08)
        res = sr.join(star, cfg08, D, theta=0.95)
        assert res.result == set()

    def test_star(self, star, cfg08):
        D = sr.exact_diagonal(star, cfg08)
        res = sr.join(star, cfg08, D, theta=0.5)
        assert res.result == {(1, 2), (1, 3), (2, 3)}
        assert res.J_L <= res.J_H

    def test_seven_vertex_example(self, seven):
        g, idx = seven
        cfg = sr.Config(c=0.6, T=11)
        D = sr.exact_diagonal(g, cfg)
        # four pairs score 0.239-0.247, 0.003-0.011 below theta, where the
        # default R_max = 1000 leaves a standard error near 7.5e-3; at 200k it
        # is near 5.3e-4, so the closest pair sits 6 standard errors out
        res = sr.join(g, cfg, D, theta=0.25, gamma_acc=0.5, p=0.01,
                      R_max=200_000, rng=cfg.rng())
        named = {tuple(sorted((g.original_ids[i], g.original_ids[j])))
                 for i, j in res.result}
        assert named == {(1, 2), (5, 6)}

    def test_seed_determinism(self, join_suite):
        cfg, suite = join_suite
        g, D, _ = suite[2]
        for gamma in (0.4, 0.0):
            first = sr.join(g, cfg, D, 0.2, gamma_acc=gamma, beta_skip=100.0,
                            rng=cfg.rng())
            second = sr.join(g, cfg, D, 0.2, gamma_acc=gamma, beta_skip=100.0,
                             rng=cfg.rng())
            assert first.result == second.result
            assert first.stats == second.stats

    def test_matches_oracle_with_verification(self, join_suite):
        cfg, suite = join_suite
        g, D, S_true = suite[3]
        res = sr.join(g, cfg, D, 0.2, gamma_acc=0.5, rng=cfg.rng())
        truth = sr.brute_force_join(g, cfg, 0.2)
        borderline = {(i, j) for (i, j) in res.result ^ truth
                      if abs(S_true[i, j] - 0.2) < 0.02}
        assert res.result ^ truth == borderline

    def test_p_validation(self, star, cfg08):
        D = sr.exact_diagonal(star, cfg08)
        with pytest.raises(ValueError, match="p"):
            sr.join(star, cfg08, D, 0.5, p=0.0)


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(2, 16))
    m = draw(st.integers(0, min(n * (n - 1), 3 * n)))
    return make_graph(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                      n, m)


class TestZeroGammaUpperSet:
    @settings(max_examples=60, deadline=None)
    @given(g=small_digraphs(), c=st.floats(0.2, 0.9),
           theta=st.floats(0.02, 0.9))
    def test_support_of_filter_holds_the_join(self, g, c, theta):
        cfg = sr.Config(c=c, T=11)
        D = sr.exact_diagonal(g, cfg)
        res = sr.join(g, cfg, D, theta, gamma_acc=0.0, R_max=64)
        store = sr.gauss_southwell_filter(g, cfg, D, theta, 0.0)
        support = {k for k, v in store.solution.items()
                   if k[0] < k[1] and v > 0.0}
        assert res.J_H == support
        assert sr.brute_force_join(g, cfg, theta + 1e-9) <= res.J_H
