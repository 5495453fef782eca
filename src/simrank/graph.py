"""Directed graph storage and the in-link transition operator.

Vertices are renumbered densely in first-appearance order; original ids are
kept in a side table.  The transition matrix P is column-stochastic up to
dangling columns: column v spreads mass uniformly over the in-neighbors I(v),
and a vertex with no in-links absorbs walks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

ABSORBED = None


class GraphParseError(ValueError):
    pass


@dataclass(frozen=True)
class Config:
    """Decay factor, truncation depth and RNG seed shared by all estimators."""

    c: float = 0.6
    T: int = 11
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise ValueError(f"decay factor c must be in (0,1), got {self.c}")
        if self.T < 1:
            raise ValueError(f"truncation depth T must be >= 1, got {self.T}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


class Graph:
    """Immutable directed graph indexed by in-neighborhood.

    An edge (u, v) means u -> v, so I(v) gains u.  No self-loops or duplicate
    edges survive ingestion.
    """

    def __init__(self, n: int, edges: list[tuple[int, int]],
                 original_ids: list[int] | None = None,
                 dropped_self_loops: int = 0, dropped_duplicates: int = 0):
        self.n = n
        self.edges = sorted(set(edges))
        self.original_ids = original_ids if original_ids is not None else list(range(n))
        self.dropped_self_loops = dropped_self_loops
        self.dropped_duplicates = dropped_duplicates

        ins: list[list[int]] = [[] for _ in range(n)]
        outs: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            if u == v:
                raise ValueError("self-loop survived ingestion")
            ins[v].append(u)
            outs[u].append(v)
        self.in_index = [sorted(a) for a in ins]
        self.out_index = [sorted(a) for a in outs]
        self.in_degree = np.array([len(a) for a in self.in_index], dtype=np.int64)

        # CSR views of the in-index for vectorized walk simulation
        self.in_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.in_degree, out=self.in_ptr[1:])
        self.in_adj = np.fromiter(
            (u for a in self.in_index for u in a), dtype=np.int64,
            count=int(self.in_ptr[-1]))

        self._P = None
        self._PT = None

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def P(self) -> sp.csr_matrix:
        """Transition matrix of the transposed graph: P[i, j] = 1/|I(j)| for i in I(j)."""
        if self._P is None:
            cols = np.repeat(np.arange(self.n), self.in_degree)
            self._P = sp.csr_matrix((1.0 / self.in_degree[cols], (self.in_adj, cols)),
                                    shape=(self.n, self.n))
        return self._P

    @property
    def PT(self) -> sp.csr_matrix:
        """P transposed, in CSR form, built once."""
        if self._PT is None:
            self._PT = self.P.T.tocsr()
        return self._PT

    def dense_P(self) -> np.ndarray:
        return self.P.toarray()


@dataclass
class Distribution:
    """Sparse non-negative vector over vertices, e.g. P^t e_u or its MC estimate."""

    entries: dict[int, float] = field(default_factory=dict)

    @property
    def total_mass(self) -> float:
        return float(sum(self.entries.values()))

    @classmethod
    def point(cls, v: int) -> "Distribution":
        return cls({v: 1.0})

    def to_array(self, n: int) -> np.ndarray:
        x = np.zeros(n)
        for v, mass in self.entries.items():
            x[v] = mass
        return x


def load_edge_list(stream) -> Graph:
    """Parse "u v" lines into a Graph.

    Accepts a file object, a string, or any iterable of lines.  '#' lines are
    comments; CRLF tolerated.  Self-loops and duplicates are dropped (counted
    on the returned Graph).  Raises GraphParseError on malformed input or an
    empty graph.
    """
    if isinstance(stream, str):
        lines = stream.splitlines()
    else:
        lines = stream

    remap: dict[int, int] = {}
    original: list[int] = []
    raw_edges: list[tuple[int, int]] = []
    self_loops = 0

    def dense(orig: int) -> int:
        if orig not in remap:
            remap[orig] = len(original)
            original.append(orig)
        return remap[orig]

    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {text!r}")
        try:
            u_orig, v_orig = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer vertex in {text!r}") from None
        if u_orig < 0 or v_orig < 0:
            raise GraphParseError(f"line {lineno}: negative vertex id in {text!r}")
        if u_orig == v_orig:
            self_loops += 1
            continue
        raw_edges.append((dense(u_orig), dense(v_orig)))

    if not original:
        raise GraphParseError("empty graph: no vertices found")

    seen = set()
    edges = []
    duplicates = 0
    for e in raw_edges:
        if e in seen:
            duplicates += 1
        else:
            seen.add(e)
            edges.append(e)

    return Graph(len(original), edges, original,
                 dropped_self_loops=self_loops, dropped_duplicates=duplicates)


def step(g: Graph, d: Distribution) -> Distribution:
    """Apply P exactly: mass at v splits uniformly over I(v); dangling mass is absorbed."""
    out: dict[int, float] = {}
    for v, mass in d.entries.items():
        nbrs = g.in_index[v]
        if not nbrs:
            continue
        share = mass / len(nbrs)
        for u in nbrs:
            out[u] = out.get(u, 0.0) + share
    return Distribution(out)


def sample_step(g: Graph, v: int, rng: np.random.Generator):
    """One random in-link step from v; ABSORBED (None) if I(v) is empty."""
    nbrs = g.in_index[v]
    if not nbrs:
        return ABSORBED
    return nbrs[int(rng.integers(len(nbrs)))]


def walk_positions(g: Graph, source: int, steps: int, R: int,
                   rng: np.random.Generator) -> list[np.ndarray]:
    """Simulate R in-link walks from source for `steps` steps, vectorized.

    Returns, for t = 0..steps-1, an int64 count vector of length n over the
    surviving walks' positions (absorbed walks excluded from later steps).
    """
    hists: list[np.ndarray] = []
    pos = np.full(R, source, dtype=np.int64)
    for _ in range(steps):
        hists.append(np.bincount(pos, minlength=g.n).astype(np.int64))
        deg = g.in_degree[pos]
        alive = deg > 0
        pos = pos[alive]
        deg = deg[alive]
        if pos.size == 0:
            hists.extend(np.zeros(g.n, dtype=np.int64)
                         for _ in range(steps - len(hists)))
            break
        idx = g.in_ptr[pos] + (rng.random(pos.size) * deg).astype(np.int64)
        pos = g.in_adj[idx]
    return hists


def walk_steps(g: Graph, starts: np.ndarray, steps: int,
               rng: np.random.Generator):
    """Walk one in-link walk from each vertex of starts, all at once.

    Yields, for t = 0..steps-1, the positions of the walks still alive at
    step t and their indices into starts, both in start order.  A walk at a
    vertex without in-links is absorbed and dropped from the next step on.
    Each step draws rng.random(alive) in start order, as walk_positions does.
    """
    pos = np.asarray(starts, dtype=np.int64)
    walk = np.arange(len(pos))
    for t in range(steps):
        yield pos, walk
        if t + 1 == steps:
            return
        deg = g.in_degree[pos]
        if not deg.all():
            alive = np.flatnonzero(deg)
            if alive.size == 0:
                return
            pos, walk, deg = pos[alive], walk[alive], deg[alive]
        pos = g.in_adj[g.in_ptr[pos] + (rng.random(pos.size) * deg).astype(np.int64)]


def walk_trajectory(g: Graph, source: int, steps: int,
                    rng: np.random.Generator) -> list[int]:
    """Positions of a single walk at t = 0..steps; truncated early on absorption."""
    path = [source]
    v = source
    for _ in range(steps):
        v = sample_step(g, v, rng)
        if v is ABSORBED:
            break
        path.append(v)
    return path


def bfs_distances(g: Graph, source: int, max_d: int | None = None) -> dict[int, int]:
    """Hop distances over the undirected edge set, truncated at max_d."""
    dist = {source: 0}
    frontier = [source]
    d = 0
    while frontier and (max_d is None or d < max_d):
        d += 1
        nxt = []
        for v in frontier:
            for w in g.in_index[v]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
            for w in g.out_index[v]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist
