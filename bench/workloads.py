"""Seeded inputs and the three benchmark workloads.

Every workload is one user session against the library: set up (parse, P,
diagonal, index), serve a seeded closed-loop mix of pair, source and top-k
requests, then run the two batch requests (all-pairs export and join).  The
workloads differ in graph family and size and in the path each request takes:

* serve-exact  - uniform digraph, exact diagonal, exact scoring (API calls)
* mc-powerlaw  - Chung-Lu power-law in-degree, MC diagonal, bounds index,
                 MC pair and top-k scoring (API calls)
* cli-batch    - sparse uniform digraph, every request is an in-process
                 ``simrank.cli.main`` call on temp files

The benchmark owns the seed; the program only sees the generated edge-list
text.  Library functions are looked up on their modules at call time, so the
tracer's patches take effect.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
from dataclasses import dataclass

import numpy as np

# import_module, not "import simrank.join as join": the package rebinds the
# attribute simrank.join to the join() function
cli, diag, graph, join, mc, query, topk = (
    importlib.import_module(f"simrank.{name}")
    for name in ("cli", "diag", "graph", "join", "mc", "query", "topk"))

C = 0.6
T = 11
K = 10
THETA = 0.25


# ---------------------------------------------------------------- graphs

def uniform_edges(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m distinct directed edges u != v, endpoints uniform over n vertices."""
    return _distinct(n, m, lambda k: rng.integers(n, size=k),
                     lambda k: rng.integers(n, size=k))


def chung_lu_edges(n: int, m: int, rng: np.random.Generator,
                   exponent: float = 2.2) -> np.ndarray:
    """m distinct edges with power-law in-degree (Chung-Lu weights) and
    uniform sources."""
    w = np.arange(1, n + 1, dtype=float) ** (-1.0 / (exponent - 1.0))
    w /= w.sum()
    return _distinct(n, m, lambda k: rng.integers(n, size=k),
                     lambda k: rng.choice(n, size=k, p=w))


def _distinct(n, m, draw_u, draw_v) -> np.ndarray:
    keys = np.empty(0, dtype=np.int64)
    while True:
        k = 2 * m
        u, v = draw_u(k), draw_v(k)
        fresh = (u * n + v)[u != v]
        keys = np.concatenate([keys, fresh])
        _, first = np.unique(keys, return_index=True)
        if len(first) >= m:
            keys = keys[np.sort(first)[:m]]
            return np.stack([keys // n, keys % n], axis=1)


def edge_text(edges: np.ndarray) -> str:
    return "".join(f"{u} {v}\n" for u, v in edges.tolist())


def graph_stats(g) -> dict:
    return {"n": g.n, "m": g.m, "max_in_degree": int(g.in_degree.max()),
            "no_in_links": int(np.sum(g.in_degree == 0))}


# ---------------------------------------------------------------- requests

@dataclass(frozen=True)
class Request:
    rid: int
    kind: str          # "pair" | "source" | "topk"
    u: int
    v: int = -1


def request_stream(g, seed: int, counts: dict[str, int]):
    """Endless mix: kinds in a smooth weighted round-robin over ``counts``, so
    the first sum(counts) requests hold exactly counts[kind] of each kind;
    vertices seeded.  Half the pairs are siblings (a shared in-neighbour), so
    pair scores are mostly non-zero."""
    rng = np.random.default_rng([seed, 1])
    total = sum(counts.values())
    credit = dict.fromkeys(counts, 0)
    rid = 0
    while True:
        rid += 1
        for k in credit:
            credit[k] += counts[k]
        kind = max(credit, key=credit.get)
        credit[kind] -= total
        u = int(rng.integers(g.n))
        if kind != "pair":
            yield Request(rid, kind, u)
            continue
        v = u
        if rng.random() < 0.5 and g.in_index[u]:
            w = g.in_index[u][int(rng.integers(len(g.in_index[u])))]
            sibs = [x for x in g.out_index[w] if x != u]
            if sibs:
                v = sibs[int(rng.integers(len(sibs)))]
        while v == u:
            v = int(rng.integers(g.n))
        yield Request(rid, kind, u, v)


# ---------------------------------------------------------------- workloads

@dataclass
class Spec:
    """``requests`` and ``reps`` fix the work of one timed run, so every commit
    serves the same requests and reports each statistic over the same number
    of samples.  They are sample counts, not a model of user traffic.  Pair
    and source requests get >= 100 each, for a p90 tail.  mc-powerlaw top-k
    gets 150, since its cost per source is heavy-tailed; top-k at 0.1-0.5 s a
    query on cli-batch and serve-exact gets fewer (tails p83 of 60 and p69 of
    32) to keep a run under ~50 s."""

    name: str
    why: str
    family: str                  # "uniform" | "chung-lu"
    n: int
    m: int
    requests: dict[str, int]     # requests of each kind per timed run at --seconds 10
    reps: dict[str, int]         # set-ups / all-pairs exports / joins per timed run
    trace_requests: int          # fixed request count of a traced run
    join_gamma: float = 0.5      # API join's accuracy split (cli-batch: CLI default)

    def scaled(self, n: int, m: int) -> "Spec":
        return Spec(**{**self.__dict__, "n": n, "m": m})


SPECS = {
    # the three joins split the work differently: gamma=0.9 is all filter,
    # 0.5 filter plus verification, and the CLI default 0 all verification
    "serve-exact": Spec(
        "serve-exact",
        "exact diagonal (dict step kernel), exact top-k bounds path and a "
        "filter-only join on a uniform digraph, n=1000, m=4000",
        "uniform", 1000, 4000,
        requests={"pair": 1000, "source": 1000, "topk": 32},
        reps={"setup": 1, "allpairs": 2, "join": 3},
        trace_requests=100, join_gamma=0.9),
    "mc-powerlaw": Spec(
        "mc-powerlaw",
        "MC diagonal, bounds index, MC pair and top-k on skewed in-degrees: "
        "walk layer and join filter, n=3000, m=15000",
        "chung-lu", 3000, 15000,
        requests={"pair": 500, "source": 500, "topk": 150},
        reps={"setup": 2, "allpairs": 2, "join": 1},
        trace_requests=300),
    "cli-batch": Spec(
        "cli-batch",
        "every request through simrank.cli.main: diagonal file save/load, "
        "TSV output and the gamma=0 join default, n=300, m=600",
        "uniform", 300, 600,
        requests={"pair": 200, "source": 200, "topk": 60},
        reps={"setup": 4, "allpairs": 10, "join": 1},
        trace_requests=100),
}


def make_text(spec: Spec, seed: int) -> str:
    rng = np.random.default_rng([seed, 0])
    if spec.family == "uniform":
        edges = uniform_edges(spec.n, spec.m, rng)
    else:
        edges = chung_lu_edges(spec.n, spec.m, rng)
    return edge_text(edges)


class ApiSession:
    """serve-exact and mc-powerlaw: direct library calls."""

    def __init__(self, spec: Spec, text: str, seed: int, workdir: str):
        self.spec = spec
        self.text = text
        self.seed = seed
        self.workdir = workdir
        self.mc = spec.name == "mc-powerlaw"
        self.cfg = graph.Config(c=C, T=T, seed=seed)

    def setup(self):
        g = graph.load_edge_list(self.text)
        g.P  # noqa: B018 - build the transition matrix as part of set-up
        if self.mc:
            est = diag.EstimationConfig(L=1, R=100, mode="mc")
        else:
            est = diag.EstimationConfig(L=3, mode="exact")
        D = diag.estimate_diagonal(g, self.cfg, est)
        index = None
        if self.mc:
            index = topk.build_bounds_index(g, self.cfg, D, rng=self.cfg.rng())
        self.g, self.D, self.index = g, D, index

    def serve(self, req: Request):
        g, cfg, D = self.g, self.cfg, self.D
        if req.kind == "pair":
            if self.mc:
                rng = np.random.default_rng([self.seed, 2, req.rid])
                return mc.mc_single_pair(g, cfg, D, req.u, req.v, 100, rng)
            return query.single_pair(g, cfg, D, req.u, req.v)
        if req.kind == "source":
            return query.single_source(g, cfg, D, req.u)
        if self.mc:
            rng = np.random.default_rng([self.seed, 2, req.rid])
            return topk.topk_query(g, cfg, D, self.index, req.u, K,
                                   adaptive=(10, 100), rng=rng)
        return topk.topk_query(g, cfg, D, None, req.u, K)

    def allpairs(self) -> str:
        path = os.path.join(self.workdir, "allpairs.tsv")
        with open(path, "w") as fh:
            query.all_pairs(self.g, self.cfg, self.D, fh)
        return path

    def join(self):
        res = join.join(self.g, self.cfg, self.D, THETA,
                        gamma_acc=self.spec.join_gamma, beta_skip=100.0,
                        rng=self.cfg.rng())
        return res.J_L, res.verified


class CliFailure(RuntimeError):
    pass


class CliSession:
    """cli-batch: each request is one in-process ``simrank.cli.main`` call."""

    def __init__(self, spec: Spec, text: str, seed: int, workdir: str):
        self.workdir = workdir
        self.graph_path = os.path.join(workdir, "graph.txt")
        self.diag_path = os.path.join(workdir, "graph.diag")
        with open(self.graph_path, "w") as fh:
            fh.write(text)
        self.common = ["--graph", self.graph_path, "--seed", str(seed)]

    def _run(self, argv: list[str]) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise CliFailure(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def setup(self):
        self._run(["estimate-diag", *self.common, "--out", self.diag_path])

    def serve(self, req: Request):
        with_diag = [*self.common, "--diag", self.diag_path]
        if req.kind == "pair":
            return self._run(["query", "pair", str(req.u), str(req.v),
                              *with_diag])
        if req.kind == "source":
            return self._run(["query", "source", str(req.u), *with_diag])
        return self._run(["topk", "--source", str(req.u), "--k", str(K),
                          *with_diag])

    def allpairs(self) -> str:
        path = os.path.join(self.workdir, "allpairs.tsv")
        self._run(["query", "allpairs", *self.common, "--diag",
                   self.diag_path, "--out", path])
        return path

    def join(self) -> str:
        path = os.path.join(self.workdir, "join.tsv")
        self._run(["join", *self.common, "--diag", self.diag_path,
                   "--theta", str(THETA), "--out", path])
        return path


def session(spec: Spec, text: str, seed: int, workdir: str):
    cls = CliSession if spec.name == "cli-batch" else ApiSession
    return cls(spec, text, seed, workdir)
