"""Acceptance checks: worked examples with known values plus oracle-equivalence
properties, each with an explicit runtime budget."""

import contextlib
import io
import time

import numpy as np
import pytest

import simrank as sr
from simrank.cli import main
from simrank.diag import EstimationConfig
from simrank.join import ResidualStore

from conftest import SEVEN_EDGES, STAR_EDGES, make_graph

CFG06 = sr.Config(c=0.6, T=11)

# SimRank scores of the 7-vertex example graph at c = 3/5: the exact rational
# solution of its 21 pair equations, rounded to 3 decimals (notes/decisions.md)
SEVEN_REFERENCE = {
    (1, 2): 0.279, (1, 3): 0.154, (1, 4): 0.148, (1, 5): 0.175,
    (1, 6): 0.079, (1, 7): 0.243, (2, 3): 0.134, (2, 4): 0.166,
    (2, 5): 0.147, (2, 6): 0.078, (2, 7): 0.247, (3, 4): 0.186,
    (3, 5): 0.239, (3, 6): 0.246, (3, 7): 0.117, (4, 5): 0.174,
    (4, 6): 0.208, (4, 7): 0.147, (5, 6): 0.279, (5, 7): 0.128,
    (6, 7): 0.069,
}


@contextlib.contextmanager
def budget(seconds: float):
    start = time.perf_counter()
    yield
    assert time.perf_counter() - start < seconds


@pytest.fixture(scope="module")
def star():
    return sr.load_edge_list(STAR_EDGES)


@pytest.fixture(scope="module")
def seven():
    lines = "\n".join(f"{u} {v}\n{v} {u}" for u, v in SEVEN_EDGES)
    g = sr.load_edge_list(lines)
    idx = {orig: dense for dense, orig in enumerate(g.original_ids)}
    return g, idx


def graph_suite(count, n_lo, n_hi, density, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(n_lo, n_hi + 1))
        m = min(max(n, int(density * n)), n * (n - 1))
        out.append(make_graph(rng, n, m))
    return out


def test_criterion_01_star_diagonal(star):
    """Exact-mode diagonal estimation recovers the known star-graph values."""
    with budget(1.0):
        cfg = sr.Config(c=0.8, T=80)
        D = sr.estimate_diagonal(star, cfg, EstimationConfig(L=10))
        assert np.max(np.abs(D.values - np.array([23 / 75, 0.2, 0.2, 0.2]))) \
            <= 1e-6


def test_criterion_02_star_scores(star):
    """Deterministic scores on the star graph hit {0, 4/5, 1} within the
    truncation slack."""
    with budget(1.0):
        cfg = sr.Config(c=0.8, T=40)
        D = sr.exact_diagonal(star, cfg)
        slack = cfg.c ** cfg.T / (1 - cfg.c) + 1e-9
        expected = {(1, 2): 0.8, (2, 3): 0.8, (1, 3): 0.8,
                    (0, 1): 0.0, (0, 2): 0.0, (0, 3): 0.0,
                    (1, 1): 1.0, (0, 0): 1.0}
        for (i, j), want in expected.items():
            assert abs(sr.single_pair(star, cfg, D, i, j) - want) <= slack


def test_criterion_03a_seven_vertex_reference_table(seven):
    """Converged oracle against the reference scores, to 3 decimals.

    The reference values are the exact solution of the SimRank equations of
    this graph at c = 3/5, solved in rationals and rounded to 3 decimals; see
    notes/decisions.md for the derivation.
    """
    with budget(1.0):
        g, idx = seven
        S = sr.naive_simrank(g, CFG06)
        worst = max(abs(S[idx[i], idx[j]] - ref)
                    for (i, j), ref in SEVEN_REFERENCE.items())
        assert worst <= 5e-4, f"largest deviation from the table: {worst:.4f}"


def test_criterion_03b_seven_vertex_linearized_consistency(seven):
    """Linearized scores with the exact diagonal track the converged oracle
    within 2e-3 on every pair of the 7-vertex example."""
    with budget(1.0):
        g, idx = seven
        S = sr.naive_simrank(g, CFG06)
        D = sr.exact_diagonal(g, CFG06)
        for i in range(1, 8):
            for j in range(i + 1, 8):
                lin = sr.single_pair(g, CFG06, D, idx[i], idx[j])
                assert abs(lin - S[idx[i], idx[j]]) <= 2e-3


def test_criterion_04_truncation_bound():
    """0 <= s_converged - s^(T) <= c^T/(1-c) on 20 random graphs at
    T in {3, 6, 11}."""
    with budget(30.0):
        for g in graph_suite(20, 10, 60, 2.0, seed=104):
            S_true = sr.naive_simrank(g, CFG06)
            for T in (3, 6, 11):
                cfg = sr.Config(c=0.6, T=T)
                D = sr.exact_diagonal(g, cfg)
                diff = S_true - sr.dense_truncated(g, cfg, D)
                assert diff.min() >= -1e-9
                assert diff.max() <= cfg.c ** T / (1 - cfg.c) + 1e-9


def test_criterion_05_diagonal_perturbation_bound():
    """A diagonal perturbation of sup-norm 0.01 moves no score by more than
    0.01/(1-c)."""
    with budget(10.0):
        rng = np.random.default_rng(105)
        for g in graph_suite(10, 10, 50, 2.0, seed=105):
            D = sr.exact_diagonal(g, CFG06)
            delta = 0.01 * rng.choice([-1.0, 1.0], size=g.n)
            D_pert = sr.DiagonalCorrection(D.values + delta)
            diff = np.abs(sr.dense_truncated(g, CFG06, D_pert)
                          - sr.dense_truncated(g, CFG06, D))
            assert diff.max() <= 0.01 / (1 - CFG06.c) + 1e-9


def test_criterion_06_mc_diagonal_accuracy():
    """MC-mode diagonal at (L=3, R=100) keeps the mean all-pairs error at or
    below 5e-3, and the median error over 5 seeds does not increase when R is
    raised to 1,000 and 10,000."""
    with budget(120.0):
        for g in graph_suite(5, 40, 100, 2.0, seed=106):
            S_true = sr.naive_simrank(g, CFG06)
            medians = []
            for R in (100, 1000, 10000):
                errs = []
                for seed in range(5):
                    cfg = sr.Config(c=0.6, T=11, seed=seed)
                    D = sr.estimate_diagonal(
                        g, cfg, EstimationConfig(L=3, R=R, mode="mc"))
                    errs.append(sr.mean_error(
                        sr.dense_truncated(g, cfg, D), S_true))
                medians.append(float(np.median(errs)))
            assert medians[0] <= 5e-3
            assert medians[0] >= medians[1] >= medians[2]


def test_criterion_07_bound_soundness():
    """Distance-indexed and norm upper bounds dominate every truncated score
    on 10 random graphs; zero violations allowed."""
    with budget(30.0):
        for g in graph_suite(10, 10, 40, 2.0, seed=107):
            D = sr.exact_diagonal(g, CFG06)
            S = sr.dense_truncated(g, CFG06, D)
            gamma = [sr.build_gamma(g, CFG06, D, u) for u in range(g.n)]
            for u in range(g.n):
                ab = sr.build_alpha_beta(g, CFG06, D, u, d_max=CFG06.T)
                dist = sr.bfs_distances(g, u, CFG06.T)
                for v, d in dist.items():
                    if v != u:
                        assert S[u, v] <= ab.beta[d] + 1e-9
                for v in range(g.n):
                    assert S[u, v] <= sr.l2_bound(gamma[u], gamma[v],
                                                  CFG06.c) + 1e-9


def test_criterion_08_topk_oracle_equivalence():
    """With exact bounds and deterministic scoring, top-k search returns the
    brute-force set whenever the kth/(k+1)th gap clears twice the truncation
    slack."""
    with budget(60.0):
        slack = CFG06.c ** CFG06.T / (1 - CFG06.c)
        checked = 0
        for g in graph_suite(20, 10, 60, 2.0, seed=108):
            D = sr.exact_diagonal(g, CFG06)
            for k in (1, 5, 10):
                for u in (0, g.n // 2):
                    oracle = sr.brute_force_topk(g, CFG06, u, k + 1)
                    if len(oracle) <= k:
                        continue
                    kth, next_best = oracle[k - 1][1], oracle[k][1]
                    if kth - next_best <= 2 * slack or kth <= 2 * slack:
                        continue
                    got = sr.topk_query(g, CFG06, D, None, u, k)
                    assert {v for v, _ in got} == {v for v, _ in oracle[:k]}
                    checked += 1
        assert checked >= 20


def test_criterion_09_filter_sandwich_containment_and_push_bound():
    """Thresholding off: the filter under-approximates within
    (1 - gamma) * theta, sandwiches the true join set, and relaxes at most
    Sigma / eps entries."""
    with budget(60.0):
        theta = 0.2
        for g in graph_suite(10, 10, 50, 2.0, seed=109):
            S_true = sr.naive_simrank(g, CFG06)
            D = sr.exact_diagonal(g, CFG06)
            # scores exactly on theta are float-rounding coin flips, so the
            # containment checks get a 1e-9 margin on each side
            J_wide = sr.brute_force_join(g, CFG06, theta - 1e-9)
            J_narrow = sr.brute_force_join(g, CFG06, theta + 1e-9)
            for gamma in (0.0, 0.5):
                store = sr.gauss_southwell_filter(g, CFG06, D, theta, gamma)
                gap = S_true - store.dense_solution()
                np.fill_diagonal(gap, 0.0)
                assert gap.min() >= -1e-9
                assert gap.max() <= (1 - gamma) * theta + 1e-6
                J_L = {k for k, v in store.solution.items()
                       if k[0] < k[1] and v >= theta}
                if gamma > 0:
                    J_H = {k for k, v in store.solution.items()
                           if k[0] < k[1] and v >= gamma * theta}
                else:
                    J_H = {(i, j) for i in range(g.n)
                           for j in range(i + 1, g.n)}
                assert J_L <= J_wide
                assert J_narrow <= J_H
                assert store.stats["relaxations"] <= S_true.sum() / store.eps


def test_criterion_10_thresholding_tail():
    """Empirical tail of the dropped mass stays within 1.5x of
    exp(-beta * delta) at the delta where that bound is 0.1."""
    with budget(30.0):
        beta, a, streams, pushes = 100.0, 0.002, 10000, 60
        delta = np.log(10.0) / beta  # exp(-beta*delta) = 0.1
        rng = np.random.default_rng(110)
        exceed = 0
        for _ in range(streams):
            store = ResidualStore(eps=10.0)
            for _ in range(pushes):
                sr.stochastic_threshold(store, 0, 1, a, beta, rng)
            dropped = pushes * a - store.residuals.get((0, 1), 0.0)
            if dropped >= delta - 1e-12:
                exceed += 1
        assert exceed / streams <= 1.5 * 0.1


def test_criterion_11_verification_error_rate(seven):
    """Over 1,000 seeded trials on pairs at least 0.05 away from theta, the
    verifier misclassifies at most p = 0.01 plus binomial 3 sigma."""
    with budget(60.0):
        cases = []
        g, idx = seven
        S = sr.naive_simrank(g, CFG06)
        for (i, j), theta in [((1, 2), 0.2), ((1, 2), 0.35), ((5, 6), 0.2),
                              ((2, 7), 0.3), ((3, 6), 0.18), ((1, 6), 0.15)]:
            s = S[idx[i], idx[j]]
            assert abs(s - theta) >= 0.05
            cases.append((idx[i], idx[j], theta, s >= theta))
        wrong = 0
        trials = 1000
        for t in range(trials):
            i, j, theta, truth = cases[t % len(cases)]
            res = sr.verify_pair(g, CFG06, i, j, theta, 0.01, 2000,
                                 np.random.default_rng([111, t]))
            if (res.side == "similar") != truth:
                wrong += 1
        sigma = np.sqrt(0.01 * 0.99 / trials)
        assert wrong / trials <= 0.01 + 3 * sigma


def test_criterion_12_join_end_to_end():
    """Filter plus verification at theta = 0.2 reaches pooled precision
    >= 0.95 and recall >= 0.90 against the brute-force join."""
    with budget(180.0):
        # c = 0.7 here: at c = 0.6 a common motif (a single-in-neighbor vertex
        # against a degree-3 vertex sharing it) scores exactly c/3 = theta, and
        # classifying a score sitting exactly on the threshold is a coin flip
        # for any sampler; no motif lands exactly on 0.2 at c = 0.7
        cfg_base = sr.Config(c=0.7, T=11)
        theta = 0.2
        tp = fp = fn = 0
        for g in graph_suite(10, 40, 100, 1.6, seed=112):
            D = sr.exact_diagonal(g, cfg_base)
            truth = sr.brute_force_join(g, cfg_base, theta)
            for seed in range(5):
                res = sr.join(g, sr.Config(c=0.7, T=11, seed=seed), D, theta,
                              gamma_acc=0.0, beta_skip=100.0)
                got = res.result
                tp += len(got & truth)
                fp += len(got - truth)
                fn += len(truth - got)
        assert tp / (tp + fp) >= 0.95
        assert tp / (tp + fn) >= 0.90


def test_criterion_13_cli_reproducibility(tmp_path):
    """Rerunning any CLI command with identical flags and seed reproduces its
    outputs byte for byte."""
    with budget(60.0):
        graph = tmp_path / "g.txt"
        rng = np.random.default_rng(113)
        g = make_graph(rng, 30, 60)
        graph.write_text("".join(f"{u} {v}\n" for u, v in g.edges))

        def run_all(tag):
            paths = {}
            stdouts = {}
            diag = tmp_path / f"d-{tag}"
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(["estimate-diag", "--graph", str(graph),
                             "--mode", "mc", "--R", "50", "--seed", "3",
                             "--out", str(diag)]) == 0
            paths["diag"] = diag.read_bytes()

            for name, argv in {
                "pair": ["query", "--graph", str(graph), "--diag", str(diag),
                         "--estimator", "mc", "--R", "40", "--seed", "3",
                         "pair", "0", "1"],
                "topk": ["topk", "--graph", str(graph), "--diag", str(diag),
                         "--source", "0", "--k", "5", "--estimator", "mc",
                         "--seed", "3"],
                "join": ["join", "--graph", str(graph), "--diag", str(diag),
                         "--theta", "0.2", "--gamma", "0.5", "--seed", "3"],
                "oracle": ["oracle", "--graph", str(graph)],
            }.items():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    assert main(argv) == 0
                stdouts[name] = buf.getvalue()

            ap = tmp_path / f"ap-{tag}"
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(["query", "--graph", str(graph), "--diag",
                             str(diag), "allpairs", "--out", str(ap)]) == 0
            paths["allpairs"] = ap.read_bytes()
            return paths, stdouts

        assert run_all("one") == run_all("two")
