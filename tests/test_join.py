import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simrank as sr
from simrank.diag import DiagonalCorrection
from simrank.join import (MemoryCapExceeded, ResidualStore, allocation_draw,
                          look_ahead)

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

    def test_memory_cap(self, join_suite, monkeypatch):
        cfg, suite = join_suite
        g, D, _ = suite[0]
        # the module, not the package attribute simrank.join (the function)
        monkeypatch.setattr(importlib.import_module("simrank.join"),
                            "MAX_ENTRIES", 3)
        with pytest.raises(MemoryCapExceeded) as info:
            sr.gauss_southwell_filter(g, cfg, D, theta=0.2)
        assert info.value.stats["relaxations"] >= 1

    def test_argument_validation(self, star, cfg08):
        D = sr.exact_diagonal(star, cfg08)
        with pytest.raises(ValueError, match="gamma_acc"):
            sr.gauss_southwell_filter(star, cfg08, D, 0.5, gamma_acc=1.0)
        with pytest.raises(ValueError, match="theta"):
            sr.gauss_southwell_filter(star, cfg08, D, 0.0)
        # verification needs theta < 1, so the join refuses it up front
        g = sr.load_edge_list("0 2\n0 3\n1 0\n")
        for theta in (1.0, 1.2, 5.0):
            with pytest.raises(ValueError, match=r"theta must be in \(0,1\)"):
                sr.join(g, cfg08, sr.exact_diagonal(g, cfg08), theta)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="theta"):
                sr.gauss_southwell_filter(star, cfg08, D, bad)
            with pytest.raises(ValueError, match="beta_skip"):
                sr.gauss_southwell_filter(star, cfg08, D, 0.5, beta_skip=bad)
        for value in (-0.05, np.nan):
            values = D.values.copy()
            values[2] = value
            with pytest.raises(ValueError, match="diagonal.*vertex 2"):
                sr.gauss_southwell_filter(star, cfg08,
                                          DiagonalCorrection(values), 0.5)
        with pytest.raises(ValueError, match="R_max must be >= 1, got 0"):
            sr.join(star, cfg08, D, 0.5, R_max=0)


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

    def test_one_push_rule_is_the_vectorized_draw(self):
        masses = np.array([0.0, 1e-4, 0.003, 0.009, 0.02, 0.5])
        kept = allocation_draw(masses, 100.0, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        one_by_one = [sr.stochastic_threshold(ResidualStore(eps=1.0), 0, 1,
                                              float(a), 100.0, rng)
                      for a in masses]
        assert kept.tolist() == one_by_one
        assert kept[-2:].all() and not kept[0]

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


# the oracle iterates from S = I, so it sits below the converged scores by
# about c^200 / (1 - c), near 7e-9 at c = 0.9
ORACLE_TOL = 1e-8


class TestZeroGammaUpperSet:
    """The filter sandwich and both join sets against the oracle, thresholding
    off, for any accuracy split.  J_H is S-tilde + R-tilde >=
    (1 - c(1-gamma)) theta, which at gamma = 0 is the filter's support."""

    @settings(max_examples=60, deadline=None)
    @given(g=small_digraphs(), c=st.floats(0.2, 0.9),
           theta=st.floats(0.02, 0.9),
           gamma=st.one_of(st.just(0.0),
                           st.floats(0.0, 0.9, exclude_max=True)))
    def test_support_of_filter_holds_the_join(self, g, c, theta, gamma):
        cfg = sr.Config(c=c, T=11)
        D = sr.exact_diagonal(g, cfg)
        S = sr.naive_simrank(g, cfg)
        res = sr.join(g, cfg, D, theta, gamma_acc=gamma, R_max=64)
        store = sr.gauss_southwell_filter(g, cfg, D, theta, gamma)
        off = ~np.eye(g.n, dtype=bool)
        gap = (S - store.dense_solution(g.n))[off]
        residual = store.dense_residual(g.n)
        assert gap.min() >= -ORACLE_TOL
        assert gap.max() < (1 - gamma) * theta + ORACLE_TOL
        # the residual itself is certain: S >= S-tilde + R-tilde
        assert (gap - residual[off]).min() >= -ORACLE_TOL
        # and what lies beyond it is below c (1-gamma) theta, which is what
        # lets J_H be cut on S-tilde + R-tilde
        assert (gap - residual[off]).max() < c * (1 - gamma) * theta + ORACLE_TOL
        held = store.dense_solution(g.n) + residual
        cut = (1.0 - c * (1.0 - gamma)) * theta
        rows, cols = np.nonzero(np.triu(held >= cut, k=1))
        upper = set(zip(rows.tolist(), cols.tolist()))
        assert res.J_H == upper
        if gamma == 0.0:
            assert upper == {k for k, v in store.solution.items()
                             if k[0] < k[1] and v > 0.0}
        assert res.J_L <= sr.brute_force_join(g, cfg, theta - 1e-9)
        assert sr.brute_force_join(g, cfg, theta + 1e-9) <= res.J_H


class TestThresholdedFilter:
    @settings(max_examples=40, deadline=None)
    @given(g=small_digraphs(), c=st.floats(0.2, 0.9),
           theta=st.floats(0.02, 0.9), gamma=st.floats(0.0, 0.9),
           beta=st.floats(1.0, 1000.0), seed=st.integers(0, 2**32 - 1))
    def test_dropped_mass_keeps_the_lower_set_sound(self, g, c, theta, gamma,
                                                    beta, seed):
        """Skipped allocations only lower S-tilde + R-tilde, so it stays
        below S and J_L stays inside the join."""
        cfg = sr.Config(c=c, T=11)
        D = sr.exact_diagonal(g, cfg)
        S = sr.naive_simrank(g, cfg)
        store = sr.gauss_southwell_filter(g, cfg, D, theta, gamma, beta,
                                          np.random.default_rng(seed))
        held = store.dense_solution(g.n) + store.dense_residual(g.n)
        assert (held <= S + ORACLE_TOL).all()
        res = sr.join(g, cfg, D, theta, gamma, beta, R_max=64,
                      rng=np.random.default_rng(seed))
        assert res.J_L <= sr.brute_force_join(g, cfg, theta - 1e-9)


class TestLookAhead:
    """look_ahead against the series of the same D, summed to T = 200 steps,
    thresholding off.  c stays at or below 0.8, where the terms past
    T = 200 sum to at most 2e-19 max(D)."""

    @settings(max_examples=60, deadline=None)
    @given(g=small_digraphs(), c=st.floats(0.2, 0.8),
           theta=st.floats(0.02, 0.9), gamma=st.sampled_from([0.0, 0.5]),
           exact=st.booleans(), levels=st.integers(1, 4),
           R_max=st.sampled_from([1, 1000]), wide=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_settled_pairs_lie_on_their_side(self, g, c, theta, gamma, exact,
                                             levels, R_max, wide, seed):
        cfg = sr.Config(c=c, T=levels)
        D = (sr.exact_diagonal(g, cfg) if exact else DiagonalCorrection(
            np.random.default_rng(seed).uniform(0.0, 1.0, g.n)))
        S = sr.dense_truncated(g, sr.Config(c=c, T=200), D)
        filt = sr.gauss_southwell_filter(g, cfg, D, theta, gamma)
        held = filt.dense_solution(g.n) + filt.dense_residual(g.n)
        # the join's band, or every pair the filter alone leaves below theta
        low = 0.0 if wide else (1.0 - c * (1.0 - gamma)) * theta
        band = np.argwhere(np.triu((held >= low) & (held < theta), k=1))
        ahead = look_ahead(g, cfg, filt, band, theta, R_max)
        s = S[band[:, 0], band[:, 1]]
        assert ahead.levels <= levels
        assert (ahead.lo >= held[band[:, 0], band[:, 1]]).all()
        assert (s[ahead.settled_in] >= theta - 1e-9).all()
        assert (s[ahead.settled_out] < theta + 1e-9).all()
        assert (ahead.lo <= s + 1e-9).all() and (s <= ahead.up + 1e-9).all()
        assert not (ahead.settled_in & ahead.settled_out).any()
