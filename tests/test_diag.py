import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import simrank as sr
from simrank import diag
from simrank.diag import DiagonalCorrection, EstimationConfig, inner_estimates
from simrank.graph import walk_steps

import walk_reference
from conftest import make_graph


def dict_estimate_diagonal(g, cfg, L):
    """Exact Gauss-Seidel sweeps by per-vertex dict propagation (reference)."""
    D = sr.initial_guess(g, cfg)
    lo = 1.0 - cfg.c - diag.EXACT_CLAMP_SLACK
    hi = 1.0 + diag.EXACT_CLAMP_SLACK
    for _ in range(L):
        for k in range(g.n):
            dist = sr.Distribution.point(k)
            a = b = 0.0
            weight = 1.0
            for _ in range(cfg.T):
                a += weight * dist.entries.get(k, 0.0) ** 2
                b += weight * sum(mass * mass * D.values[w]
                                  for w, mass in dist.entries.items())
                dist = sr.step(g, dist)
                weight *= cfg.c
            if a <= 0.0:
                D.skipped += 1
                continue
            updated = D.values[k] + (1.0 - b) / a
            clamped = min(max(updated, lo), hi)
            if clamped != updated:
                D.clamped += 1
            D.values[k] = clamped
    return D


def recount_rows(g, cfg, ks, R, rng):
    """Dense MC rows: a per-source bincount of the same walk_steps walks."""
    W = np.zeros((len(ks), g.n))
    for t, (pos, walk) in enumerate(walk_steps(g, np.repeat(ks, R), cfg.T, rng)):
        for j in range(len(ks)):
            hist = np.bincount(pos[walk // R == j], minlength=g.n)
            W[j] += cfg.c ** t * (hist / R) ** 2
    return W


def hist_inner_estimates(g, cfg, D, k, R, rng):
    """MC (a, b) from the reference walk_positions histograms, one source."""
    a = b = 0.0
    weight = 1.0
    for hist in walk_reference.walk_positions(g, k, cfg.T, R, rng):
        p = hist / R
        a += weight * float(p[k]) ** 2
        b += weight * float(np.sum(p * p * D.values))
        weight *= cfg.c
    return a, b


def recount_estimate_diagonal(g, cfg, L, R):
    """MC Gauss-Seidel sweeps on recounted rows, one stream per block."""
    D = sr.initial_guess(g, cfg)
    lo = 1.0 - cfg.c - diag.MC_CLAMP_SLACK
    hi = 1.0 + diag.MC_CLAMP_SLACK
    size = max(1, diag.WALK_BUDGET // R)
    for sweep in range(L):
        for start in range(0, g.n, size):
            ks = np.arange(start, min(start + size, g.n))
            rng = np.random.default_rng([cfg.seed, sweep, start])
            for k, w in zip(ks, recount_rows(g, cfg, ks, R, rng)):
                updated = D.values[k] + (1.0 - w @ D.values) / w[k]
                clamped = min(max(updated, lo), hi)
                D.clamped += clamped != updated
                D.values[k] = clamped
    return D


@st.composite
def mc_cases(draw):
    """A random digraph, a set of sources on it, R, c, T and a seed."""
    n = draw(st.integers(1, 25))
    m = draw(st.integers(0, min(n * (n - 1), 3 * n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = make_graph(rng, n, m)
    ks = rng.permutation(n)[:draw(st.integers(1, n))]
    cfg = sr.Config(c=draw(st.floats(0.2, 0.9)), T=draw(st.integers(1, 12)),
                    seed=draw(st.integers(0, 1000)))
    return g, ks, draw(st.integers(1, 60)), cfg


@st.composite
def blocked_digraphs(draw):
    """A random digraph on n <= 40 vertices and a block size in 1..n."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(0, min(n * (n - 1), 4 * n)))
    g = make_graph(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, m)
    return g, draw(st.integers(1, n))


class TestEstimationConfig:
    def test_defaults(self):
        est = EstimationConfig()
        assert (est.L, est.R, est.mode) == (3, 100, "exact")

    @pytest.mark.parametrize("kwargs", [{"L": 0}, {"mode": "bogus"},
                                        {"mode": "mc", "R": 0}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            EstimationConfig(**kwargs)


class TestInitialGuess:
    def test_star(self, star, cfg08):
        D = sr.initial_guess(star, cfg08)
        assert D.values == pytest.approx([1 - 0.8 / 3, 0.2, 0.2, 0.2])

    def test_isolated_vertex_gets_one(self):
        g = sr.Graph(3, [(0, 1), (1, 0)])  # vertex 2 isolated
        D = sr.initial_guess(g, sr.Config(c=0.6))
        assert D.values[2] == 1.0


class TestExactEstimation:
    def test_star_converges_to_known_diagonal(self, star):
        cfg = sr.Config(c=0.8, T=80)
        D = sr.estimate_diagonal(star, cfg, EstimationConfig(L=10))
        assert D.values == pytest.approx([23 / 75, 0.2, 0.2, 0.2], abs=1e-6)
        assert D.clamped == 0 and D.skipped == 0

    def test_matches_oracle_on_random_graphs(self, random_graphs):
        cfg = sr.Config(c=0.6, T=40)
        for g in random_graphs(3, 25, seed=11):
            D = sr.estimate_diagonal(g, cfg, EstimationConfig(L=8))
            D_true = sr.exact_diagonal(g, cfg)
            assert D.values == pytest.approx(D_true.values, abs=1e-6)

    def test_residual_norm_small_after_estimation(self, random_graphs):
        cfg = sr.Config(c=0.6, T=30)
        g = random_graphs(1, 20, seed=1)[0]
        D = sr.estimate_diagonal(g, cfg, EstimationConfig(L=8))
        assert sr.residual_norm(g, cfg, D) < 1e-6

    def test_residual_norm_of_empty_graph_is_zero(self):
        g, cfg = sr.Graph(0, []), sr.Config(c=0.6, T=11)
        D = sr.estimate_diagonal(g, cfg, EstimationConfig())
        assert len(D) == 0
        assert sr.residual_norm(g, cfg, D) == 0.0
        assert D.residual == 0.0

    @pytest.mark.parametrize("L", [1, 3])
    def test_update_landing_on_a_bound_is_no_clamp(self, monkeypatch, L):
        """At slack 0 the upper bound is 1.0, and a vertex with no in-links
        starts at D_kk = 1 with the row e_k, so its update lands on the bound
        exactly: that is no clamp."""
        monkeypatch.setattr(diag, "EXACT_CLAMP_SLACK", 0.0)
        g = sr.Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 1)])
        cfg = sr.Config(c=0.6, T=8)
        D = sr.estimate_diagonal(g, cfg, EstimationConfig(L=L))
        ref = dict_estimate_diagonal(g, cfg, L)
        assert D.values[[0, 4]].tolist() == [1.0, 1.0]
        assert np.max(np.abs(D.values - ref.values)) <= 1e-12
        assert (D.clamped, D.skipped) == (ref.clamped, ref.skipped)

    def test_values_stay_in_clamp_range(self, random_graphs):
        cfg = sr.Config(c=0.9, T=20)
        for g in random_graphs(3, 20, seed=7):
            D = sr.estimate_diagonal(g, cfg, EstimationConfig(L=2))
            assert np.all(D.values >= 1 - cfg.c - 1e-9)
            assert np.all(D.values <= 1 + 1e-9)


class TestBlockKernel:
    """The blocked kernel against the dict reference and the dense series,
    with the block budget lowered so that a graph spans several blocks."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(gb=blocked_digraphs(), c=st.floats(0.2, 0.9),
           T=st.integers(1, 15), L=st.integers(1, 4))
    def test_matches_dict_propagation(self, monkeypatch, gb, c, T, L):
        g, size = gb
        monkeypatch.setattr(diag, "BLOCK_BUDGET", size * g.n)
        cfg = sr.Config(c=c, T=T)
        D = sr.estimate_diagonal(g, cfg, EstimationConfig(L=L))
        ref = dict_estimate_diagonal(g, cfg, L)
        assert np.max(np.abs(D.values - ref.values)) <= 1e-12
        assert (D.clamped, D.skipped) == (ref.clamped, ref.skipped)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(gb=blocked_digraphs(), c=st.floats(0.2, 0.9),
           T=st.integers(1, 15), seed=st.integers(0, 10**6))
    def test_residual_norm_matches_dense_series(self, monkeypatch, gb, c, T,
                                                seed):
        g, size = gb
        monkeypatch.setattr(diag, "BLOCK_BUDGET", size * g.n)
        cfg = sr.Config(c=c, T=T)
        rng = np.random.default_rng(seed)
        D = diag.DiagonalCorrection(rng.uniform(1 - c, 1.0, g.n))
        dense = np.max(np.abs(np.diag(sr.dense_truncated(g, cfg, D)) - 1.0))
        assert sr.residual_norm(g, cfg, D) == pytest.approx(dense, abs=1e-12)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(gb=blocked_digraphs(), c=st.floats(0.2, 0.9), T=st.integers(1, 15))
    def test_weight_rows_equal_unshared_loop(self, monkeypatch, gb, c, T):
        g, size = gb
        cfg = sr.Config(c=c, T=T)
        for ks in diag.source_blocks(g.n, size):
            X = np.zeros((g.n, len(ks)))
            X[ks, np.arange(len(ks))] = 1.0
            ref = np.zeros_like(X)
            weight = 1.0
            for t in range(T):
                ref += weight * (X * X)
                if t + 1 < T:
                    X = g.P @ X
                weight *= c
            assert np.array_equal(diag.weight_rows(g, cfg, ks), ref.T)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(gb=blocked_digraphs(), c=st.floats(0.2, 0.9),
           T=st.integers(1, 15), L=st.integers(1, 4), part=st.floats(0, 1))
    def test_kept_rows_leave_estimate_bit_identical(self, monkeypatch, gb, c,
                                                    T, L, part):
        """ROW_BUDGET at no block, one block, part of the blocks and all
        of them gives the same D bitwise."""
        g, size = gb
        monkeypatch.setattr(diag, "BLOCK_BUDGET", size * g.n)
        blocks = len(list(diag.source_blocks(g.n)))
        cfg = sr.Config(c=c, T=T)
        runs = []
        for kept in (0, 1, int(part * blocks), blocks):
            monkeypatch.setattr(diag, "ROW_BUDGET", kept * size * g.n)
            runs.append(sr.estimate_diagonal(g, cfg, EstimationConfig(L=L)))
        for D in runs[1:]:
            assert np.array_equal(D.values, runs[0].values)
            assert (D.clamped, D.skipped) == (runs[0].clamped, runs[0].skipped)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(gb=blocked_digraphs(), c=st.floats(0.2, 0.9),
           T=st.integers(1, 15), L=st.integers(1, 4), R=st.integers(1, 20))
    def test_residual_read_off_kept_rows(self, monkeypatch, gb, c, T, L, R):
        """With every row kept D.residual is residual_norm of the returned D
        bitwise; with one entry too few to keep them all, and in MC mode,
        it is None."""
        g, size = gb
        monkeypatch.setattr(diag, "BLOCK_BUDGET", size * g.n)
        cfg = sr.Config(c=c, T=T)
        monkeypatch.setattr(diag, "ROW_BUDGET", g.n * g.n)
        D = sr.estimate_diagonal(g, cfg, EstimationConfig(L=L))
        assert D.residual == sr.residual_norm(g, cfg, D)
        mc = sr.estimate_diagonal(g, cfg, EstimationConfig(L=L, R=R, mode="mc"))
        assert mc.residual is None
        monkeypatch.setattr(diag, "ROW_BUDGET", g.n * g.n - 1)
        assert sr.estimate_diagonal(g, cfg, EstimationConfig(L=L)).residual is None

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(gb=blocked_digraphs(), L=st.integers(1, 4), kept=st.integers(0, 40),
           slack=st.integers(-1, 40))
    def test_rows_computed_once_while_they_fit(self, monkeypatch, gb, L, kept,
                                               slack):
        """The leading blocks whose rows add up to at most ROW_BUDGET
        entries are computed once and every other block once per sweep: at
        a budget of n^2 entries that is one call per block whatever L is,
        at budget 0 it is L calls per block, and half a block keeps none."""
        g, size = gb
        sizes = [len(ks) * g.n for ks in diag.source_blocks(g.n, size)]
        blocks = len(sizes)
        for budget in (0, g.n * g.n, sizes[0] // 2,
                       max(0, kept * size * g.n + slack)):
            fit = int(np.searchsorted(np.cumsum(sizes), budget, side="right"))
            calls = []
            with monkeypatch.context() as mp:
                mp.setattr(diag, "BLOCK_BUDGET", size * g.n)
                mp.setattr(diag, "ROW_BUDGET", budget)
                real = diag.weight_rows
                mp.setattr(diag, "weight_rows",
                           lambda *args: calls.append(args[2]) or real(*args))
                sr.estimate_diagonal(g, sr.Config(c=0.6, T=5),
                                     EstimationConfig(L=L))
            assert len(calls) == blocks + (L - 1) * (blocks - fit)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=mc_cases(), L=st.integers(1, 4), budget=st.integers(1, 200))
    def test_mc_rows_drawn_in_every_sweep(self, monkeypatch, case, L, budget):
        """MC rows are never kept: walk_rows runs L times per block and D is
        the budget-0 estimate bitwise."""
        g, _, R, cfg = case
        est = EstimationConfig(L=L, R=R, mode="mc")
        blocks = len(list(diag.source_blocks(g.n, max(1, budget // R))))
        calls = []
        with monkeypatch.context() as mp:
            mp.setattr(diag, "WALK_BUDGET", budget)
            mp.setattr(diag, "ROW_BUDGET", 0)
            ref = sr.estimate_diagonal(g, cfg, est)
            mp.setattr(diag, "ROW_BUDGET", 2**20)
            real = diag.walk_rows
            mp.setattr(diag, "walk_rows",
                       lambda *args: calls.append(args[2]) or real(*args))
            D = sr.estimate_diagonal(g, cfg, est)
        assert len(calls) == L * blocks
        assert np.array_equal(D.values, ref.values)
        assert (D.clamped, D.skipped) == (ref.clamped, ref.skipped)

    def test_blocks_cover_every_vertex_in_order(self, monkeypatch):
        monkeypatch.setattr(diag, "BLOCK_BUDGET", 30)
        blocks = list(diag.source_blocks(7))
        assert [len(b) for b in blocks] == [4, 3]
        assert np.array_equal(np.concatenate(blocks), np.arange(7))
        monkeypatch.setattr(diag, "BLOCK_BUDGET", 3)
        assert [len(b) for b in diag.source_blocks(7)] == [1] * 7


class TestWalkRows:
    """MC rows of a block of sources against dense per-source recounts."""

    @settings(max_examples=60, deadline=None)
    @given(case=mc_cases())
    def test_rows_equal_dense_recount(self, case):
        g, ks, R, cfg = case
        W = diag.walk_rows(g, cfg, ks, R, np.random.default_rng(cfg.seed))
        ref = recount_rows(g, cfg, ks, R, np.random.default_rng(cfg.seed))
        assert W.shape == ref.shape
        assert np.max(np.abs(W.toarray() - ref)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(case=mc_cases(), d_seed=st.integers(0, 10**6))
    def test_one_source_block_matches_inner_estimates(self, case, d_seed):
        g, ks, R, cfg = case
        k = int(ks[0])
        d = np.random.default_rng(d_seed).uniform(1 - cfg.c, 1.0, g.n)
        D = diag.DiagonalCorrection(d)
        W = diag.walk_rows(g, cfg, np.array([k]), R, np.random.default_rng(0))
        a, b = W[0, k], W[0].toarray()[0] @ d
        ref = hist_inner_estimates(g, cfg, D, k, R, np.random.default_rng(0))
        got = inner_estimates(g, cfg, D, k, EstimationConfig(mode="mc", R=R),
                              np.random.default_rng(0))
        for pair in (ref, got):
            assert abs(a - pair[0]) <= 1e-12 and abs(b - pair[1]) <= 1e-12

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=mc_cases(), L=st.integers(1, 3), budget=st.integers(1, 200))
    def test_estimate_matches_recount_sweeps(self, monkeypatch, case, L,
                                             budget):
        g, _, R, cfg = case
        monkeypatch.setattr(diag, "WALK_BUDGET", budget)
        D = sr.estimate_diagonal(g, cfg, EstimationConfig(L=L, R=R, mode="mc"))
        ref = recount_estimate_diagonal(g, cfg, L, R)
        assert np.max(np.abs(D.values - ref.values)) <= 1e-12
        assert (D.clamped, D.skipped) == (ref.clamped, 0)


class TestInnerEstimates:
    def test_exact_star_first_vertex(self, star):
        # from the hub: (P^t e_0)_0 alternates 1, 0, 1, 0, ...
        cfg = sr.Config(c=0.8, T=4)
        D = sr.initial_guess(star, cfg)
        a, _ = inner_estimates(star, cfg, D, 0, EstimationConfig())
        assert a == pytest.approx(1 + cfg.c**2)

    def test_mc_approaches_exact(self, star):
        cfg = sr.Config(c=0.8, T=11)
        D = sr.initial_guess(star, cfg)
        a_ex, b_ex = inner_estimates(star, cfg, D, 1, EstimationConfig())
        a_mc, b_mc = inner_estimates(star, cfg, D, 1,
                                     EstimationConfig(mode="mc", R=20000),
                                     np.random.default_rng(0))
        assert a_mc == pytest.approx(a_ex, abs=0.02)
        assert b_mc == pytest.approx(b_ex, abs=0.02)


class TestMcEstimation:
    def test_star_close_to_exact(self, star):
        cfg = sr.Config(c=0.8, T=20)
        D = sr.estimate_diagonal(star, cfg,
                                 EstimationConfig(L=5, R=2000, mode="mc"))
        assert D.values == pytest.approx([23 / 75, 0.2, 0.2, 0.2], abs=0.05)

    def test_seed_determinism(self, random_graphs):
        g = random_graphs(1, 20, seed=5)[0]
        cfg = sr.Config(c=0.6, seed=42)
        est = EstimationConfig(L=2, R=50, mode="mc")
        D1 = sr.estimate_diagonal(g, cfg, est)
        D2 = sr.estimate_diagonal(g, cfg, est)
        assert np.array_equal(D1.values, D2.values)
        D3 = sr.estimate_diagonal(g, sr.Config(c=0.6, seed=43), est)
        assert not np.array_equal(D1.values, D3.values)

    def test_high_c_estimate_stays_loadable(self, tmp_path):
        # at c = 0.98 the MC clamp floor 1 - c - 0.05 is below 0, and few
        # walks put updates there; the true correction is at least 1 - c
        g = make_graph(np.random.default_rng(5), 30, 90)
        D = sr.estimate_diagonal(g, sr.Config(c=0.98, T=40, seed=1),
                                 EstimationConfig(L=2, R=4, mode="mc"))
        assert D.clamped > 0
        assert D.values.min() >= 0.0
        path = tmp_path / "high-c.diag"
        sr.save_diagonal(path, D)
        assert np.array_equal(sr.load_diagonal(path).values, D.values)


class TestPersistence:
    def test_round_trip_exact(self, tmp_path, star, cfg08):
        D = sr.estimate_diagonal(star, cfg08, EstimationConfig(L=5))
        path = tmp_path / "star.diag"
        sr.save_diagonal(path, D)
        loaded = sr.load_diagonal(path)
        assert np.array_equal(loaded.values, D.values)
        assert loaded.params["c"] == 0.8
        assert loaded.params["mode"] == "exact"
        assert loaded.params["L"] == 5

    def test_header_format(self, tmp_path, star, cfg08):
        D = sr.estimate_diagonal(star, cfg08, EstimationConfig(L=5))
        path = tmp_path / "star.diag"
        sr.save_diagonal(path, D)
        header = path.read_text().splitlines()[0]
        assert header.startswith("simrank-diag v1 n=4 c=0.8 T=40 L=5")

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bogus"
        path.write_text("something else\n1.0\n")
        with pytest.raises(ValueError, match="not a diagonal file"):
            sr.load_diagonal(path)

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.one_of(st.floats(0.0, 2.0),
                                     st.floats(0.0, exclude_min=True,
                                               allow_infinity=False),
                                     st.just(0.0)),
                           max_size=40),
           c=st.floats(0.05, 0.95), T=st.integers(1, 50))
    def test_round_trip_random_values(self, tmp_path_factory, values, c, T):
        D = DiagonalCorrection(np.array(values, dtype=float),
                               params={"c": c, "T": T, "L": 3, "R": None,
                                       "seed": 0, "mode": "mc"})
        path = tmp_path_factory.mktemp("diag") / "d.diag"
        sr.save_diagonal(path, D)
        # the bytes of the value-by-value writer
        header = (f"simrank-diag v1 n={len(values)} c={c} T={T} L=3 R=None "
                  f"mode=mc seed=0\n")
        assert path.read_text() == header + "".join(f"{v:.17g}\n"
                                                    for v in values)
        loaded = sr.load_diagonal(path)
        assert loaded.values.dtype == np.float64
        assert np.array_equal(loaded.values.view(np.int64),
                              D.values.view(np.int64))
        assert loaded.params == D.params

    def test_lines_after_the_values_are_ignored(self, tmp_path):
        path = tmp_path / "long.diag"
        path.write_text("simrank-diag v1 n=2 c=0.8 T=40 L=5 R=100 mode=exact "
                        "seed=0\n0.5\n0.25\nnot a value\n-1\n")
        assert sr.load_diagonal(path).values.tolist() == [0.5, 0.25]
        path.write_text("simrank-diag v1 n=2 c=0.8 T=40 L=5 R=100 mode=exact "
                        "seed=0\n0.5\n0.25")
        assert sr.load_diagonal(path).values.tolist() == [0.5, 0.25]

    @pytest.mark.parametrize("n, body, line", [
        ("4", "0.5\n0.2\n", 4),               # truncated
        ("4", "0.5\n0.2\nnan?\n0.2\n", 4),    # garbled value
        ("4", "0.5\n\n0.2\n0.2\n", 3),        # blank value line
        ("-4", "", 1),                        # garbled header
        ("4", "0.5\n-0.5\n0.2\n0.2\n", 3),   # negative value
        ("4", "0.5\n0.2\nnan\n0.2\n", 4),    # not a number
        ("4", "inf\n0.2\n0.2\n0.2\n", 2),    # infinite value
        ("4", "0.5\n-0.5\nx\n", 3),           # first fault of a short file
        ("4", "0.5\n0.2\n0.2\n", 5),          # one value short, no blank
        ("2", "0.5\n\n", 3),                   # blank line as a value
    ])
    def test_bad_lines_name_file_and_line(self, tmp_path, n, body, line):
        path = tmp_path / "cut.diag"
        path.write_text(f"simrank-diag v1 n={n} c=0.8 T=40 L=5 R=100 "
                        "mode=exact seed=0\n" + body)
        with pytest.raises(ValueError, match=rf"cut\.diag:{line}: "):
            sr.load_diagonal(path)
