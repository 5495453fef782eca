import numpy as np
import pytest
from hypothesis import strategies as st

import simrank as sr

STAR_EDGES = "0 1\n0 2\n0 3\n1 0\n2 0\n3 0\n"

# small undirected example graph on vertices 1..7, both directions ingested
SEVEN_EDGES = [(1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4),
               (3, 7), (4, 5), (4, 7), (5, 7), (6, 7)]


@pytest.fixture
def star():
    return sr.load_edge_list(STAR_EDGES)


@pytest.fixture
def cfg08():
    return sr.Config(c=0.8, T=40)


@pytest.fixture
def seven():
    lines = "\n".join(f"{u} {v}\n{v} {u}" for u, v in SEVEN_EDGES)
    g = sr.load_edge_list(lines)
    idx = {orig: dense for dense, orig in enumerate(g.original_ids)}
    return g, idx


def make_graph(rng: np.random.Generator, n: int, m: int) -> sr.Graph:
    """Random simple directed graph with exactly m edges (no self-loops)."""
    edges = set()
    while len(edges) < m:
        u, v = rng.integers(n, size=2)
        if u != v:
            edges.add((int(u), int(v)))
    return sr.Graph(n, sorted(edges))


@st.composite
def small_digraphs(draw):
    """A random digraph on 2..16 vertices with up to 3n edges, so often with
    vertices that have no in-links and absorb walks."""
    n = draw(st.integers(2, 16))
    m = draw(st.integers(0, min(n * (n - 1), 3 * n)))
    return make_graph(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                      n, m)


@pytest.fixture
def random_graphs():
    def build(count: int, n_max: int, density: float = 2.0, seed: int = 0,
              n_min: int = 8):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            n = int(rng.integers(n_min, n_max + 1))
            m = min(max(n, int(density * n)), n * (n - 1))
            out.append(make_graph(rng, n, m))
        return out
    return build
