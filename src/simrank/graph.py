"""Directed graph storage and the in-link transition operator.

Vertices are renumbered densely in first-appearance order; original ids are
kept in a side table.  The transition matrix P is column-stochastic up to
dangling columns: column v spreads mass uniformly over the in-neighbors I(v),
and a vertex with no in-links absorbs walks, which run on ``walk_steps``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from operator import methodcaller

import numpy as np
import scipy.sparse as sp


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

    An edge (u, v) means u -> v, so I(v) gains u.  edges is an array or a
    sequence of (u, v) pairs over 0..n-1; duplicates are merged and counted
    in dropped_duplicates, and a self-loop is refused.  The arrays
    in_degree, in_ptr and in_adj (I(v) is in_adj[in_ptr[v]:in_ptr[v + 1]],
    ascending) are built here by one sort, P and PT on first use, and the
    list forms edges, in_index and out_index (read from the rows of P)
    once, on first access.
    """

    def __init__(self, n: int, edges, original_ids: list[int] | None = None,
                 dropped_self_loops: int = 0):
        self.n = n
        self.original_ids = original_ids if original_ids is not None else list(range(n))
        self.dropped_self_loops = dropped_self_loops

        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if pairs.size and not (pairs.min() >= 0 and pairs.max() < n):
            raise ValueError(f"edge endpoint outside 0..{n - 1}")
        # one key v * n + u per distinct edge, ascending: by v, then by u
        keys = np.sort(pairs[:, 1] * n + pairs[:, 0])
        distinct = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
        v, self.in_adj = np.divmod(keys[distinct], n)
        self.dropped_duplicates = len(keys) - len(v)
        if np.any(self.in_adj == v):
            raise ValueError("self-loop survived ingestion")

        self.in_degree = np.bincount(v, minlength=n).astype(np.int64, copy=False)
        self.in_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.in_degree, out=self.in_ptr[1:])

        self._P = None
        self._PT = None

    @property
    def m(self) -> int:
        return len(self.in_adj)

    @cached_property
    def edges(self) -> list[tuple[int, int]]:
        """The edges (u, v) in ascending order, read from the rows of P."""
        P = self.P
        u = np.repeat(np.arange(self.n), np.diff(P.indptr))
        return list(zip(u.tolist(), P.indices.tolist()))

    @cached_property
    def in_index(self) -> list[list[int]]:
        """I(v) as an ascending list, for every v."""
        return _split(self.in_adj, self.in_ptr)

    @cached_property
    def out_index(self) -> list[list[int]]:
        """Row u of P: the out-neighbors of u, ascending, for every u."""
        return _split(self.P.indices, self.P.indptr)

    @property
    def P(self) -> sp.csr_matrix:
        """Transition matrix of the transposed graph: P[i, j] = 1/|I(j)| for i in I(j)."""
        if self._P is None:
            self._P = self.PT.T.tocsr()
        return self._P

    @property
    def PT(self) -> sp.csr_matrix:
        """P transposed, in CSR form straight from in_ptr and in_adj: row v
        holds 1/|I(v)| at the columns I(v)."""
        if self._PT is None:
            rows = np.repeat(np.arange(self.n), self.in_degree)
            self._PT = sp.csr_matrix((1.0 / self.in_degree[rows], self.in_adj,
                                      self.in_ptr), shape=(self.n, self.n))
        return self._PT

    def dense_P(self) -> np.ndarray:
        return self.P.toarray()


def check_vertex(g: Graph, v: int) -> None:
    """Raise ValueError unless v is a vertex index of g, 0 <= v < n; a query
    calls it first, so a negative id does not wrap to the end of an array."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for graph with {g.n} vertices")


def check_theta(theta: float) -> None:
    """Raise ValueError unless the threshold theta is in (0, 1); nan fails."""
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0,1), got {theta}")


def check_walk_count(R: int) -> None:
    """Raise ValueError unless a walk estimator's R is at least 1."""
    if not R >= 1:
        raise ValueError(f"R must be >= 1, got {R}")


def _split(adj: np.ndarray, ptr: np.ndarray) -> list[list[int]]:
    """[adj[ptr[v]:ptr[v + 1]] for every v], as lists of ints."""
    flat = adj.tolist()
    bounds = ptr.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


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


# ASCII whitespace of str.split() and str.strip(), the line break aside
_SPACES = " \t\v\f\r\x1c\x1d\x1e\x1f"
_SPLIT = re.compile(f"[{_SPACES}]+")
# the grammar int() accepts for a token, restricted to ASCII digits
_INT = re.compile(r"[+-]?[0-9](?:_?[0-9])*")
# ASCII line breaks of str.splitlines() besides "\n"
_STR_BREAKS = "\r\v\f\x1c\x1d\x1e"
_ID_LIMIT = np.uint64(2**63)
# a value at or above this is past _ID_LIMIT after one more digit
_TENTH_LIMIT = np.uint64(2**63 // 10 + 1)
# bytes of a token read by Horner's rule: the last 40 hold 20 digits
_WINDOW = 40


def load_edge_list(stream) -> Graph:
    """Parse "u v" lines into a Graph.

    Accepts a string (its lines are those of str.splitlines()), a text file
    object, or any other iterable of lines.  A line that is blank or whose
    first non-space character is '#' is skipped; every other line holds
    exactly two ASCII decimal ids, each non-negative and below 2^63 (an
    optional sign and single '_' between digits are read as int() reads
    them).  CRLF is tolerated.  Self-loops and duplicates are dropped and
    counted on the returned Graph; vertices are renumbered densely in
    first-appearance order.

    The text is read whole and parsed in one vectorized pass into an
    (m, 2) int64 array.  Raises GraphParseError naming the first malformed
    line, or on an empty graph.
    """
    pairs = _parse_pairs(_lines_text(stream))
    loops = pairs[:, 0] == pairs[:, 1]
    pairs = pairs[~loops]
    if not len(pairs):
        raise GraphParseError("empty graph: no vertices found")
    ids, first, inverse = np.unique(pairs.ravel(), return_index=True,
                                    return_inverse=True)
    order = np.argsort(first)  # ids by first appearance
    dense = np.empty_like(order)
    dense[order] = np.arange(len(order))
    return Graph(len(ids), dense[inverse].reshape(-1, 2), ids[order].tolist(),
                 dropped_self_loops=int(loops.sum()))


def _lines_text(stream) -> str:
    """The input as one string whose lines, split at "\n", are its lines."""
    if isinstance(stream, str):
        if stream.isascii() and not any(ch in stream for ch in _STR_BREAKS):
            return stream
        return "\n".join(stream.splitlines())
    if hasattr(stream, "read"):
        return stream.read()
    # a line break inside an item is whitespace within the item's line
    return "\n".join(map(methodcaller("replace", "\n", " "), stream))


def _parse_pairs(text: str) -> np.ndarray:
    """The (k, 2) int64 ids of the edge lines of text, in order.

    Works on the bytes of text at once: a token is a run of bytes other than
    ASCII whitespace, and every rule of load_edge_list is a mask over tokens.
    Only the first line that breaks a rule is looked at on its own, to name
    it.
    """
    b = np.frombuffer(text.encode("utf-8", "surrogatepass") + b"\n",
                      dtype=np.uint8)
    # "\t\n\v\f\r" are 9-13, "\x1c"-"\x1f" and " " are 28-32 (uint8 wraps)
    space = ((b - 9) < 5) | ((b - 28) < 5)
    edge = np.diff(space.view(np.int8), prepend=np.int8(1))
    is_start = edge == -1
    # token starts and line breaks, in text order; the last mark is the
    # final "\n", so is_break[i - 1] holds for the first mark too
    marks = np.flatnonzero(is_start | (b == ord("\n")))
    is_break = b[marks] == ord("\n")
    token = np.flatnonzero(~is_break)
    starts = marks[token]
    length = np.flatnonzero(edge == 1) - starts  # b ends in "\n"
    line = np.cumsum(is_break)[token]  # 0-based line numbers
    lead = is_break[token - 1]  # first token of its line
    comment = np.zeros(len(marks) + 1, dtype=bool)
    comment[line[lead & (b[starts] == ord("#"))]] = True
    data = ~comment[line]
    wrong = np.bincount(line)[line] != 2

    # a byte neither space nor digit is wrong unless it is a sign that starts
    # its token before a digit, or an '_' between digits
    odd = np.flatnonzero(~space & ((b - ord("0")) >= 10))
    if odd.size:
        c, after = b[odd], (b[odd + 1] - ord("0")) < 10
        holder = np.searchsorted(starts, odd, side="right") - 1
        fine = (((c == ord("+")) | (c == ord("-")))
                & (odd == starts[holder]) & after)
        fine |= (c == ord("_")) & ((b[odd - 1] - ord("0")) < 10) & after
        wrong[holder[~fine]] = True

    value, huge = _token_values(b, starts, length, data)
    wrong |= huge | (value >= _ID_LIMIT)
    wrong |= (b[starts] == ord("-")) & (value > 0)
    wrong &= data
    if wrong.any():
        k = int(line[np.argmax(wrong)])
        lines = text.split("\n")
        raise GraphParseError(f"line {k + 1}: {_line_error(lines[k])}")
    return value[data].astype(np.int64).reshape(-1, 2)


def _token_values(b: np.ndarray, starts: np.ndarray, length: np.ndarray,
                  data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The uint64 value of each data token's digits (0 elsewhere), and a
    mask of the tokens known to be past 2^63 whatever their value reads.

    Horner's rule, one byte position at a time for all data tokens together,
    over at most the last _WINDOW bytes of each.  The window holds at least
    _WINDOW / 2 digits, as '_' stands only between digits, so a token with a
    digit other than 0 before its window is past 2^63; so is one whose
    value reaches 2^63 with a further digit.
    """
    ids = np.flatnonzero(data)
    ends = starts[ids] + length[ids]
    size = np.minimum(length[ids], _WINDOW)
    first = ends - size
    run = np.zeros(len(ids), dtype=np.uint64)
    huge = np.zeros(len(ids), dtype=bool)
    for pos in range(int(size.max(initial=0))):
        digit = b.take(first + pos, mode="clip") - np.uint8(ord("0"))
        step = (digit < 10) & (size > pos)
        huge |= step & (run >= _TENTH_LIMIT)
        run = np.where(step, run * np.uint64(10) + digit, run)
    long = np.flatnonzero(size < length[ids])
    if long.size:
        # a digit 1-9 between the token's start and its window
        nonzero = np.flatnonzero((b - ord("1")) < 9)
        at = np.searchsorted(nonzero, starts[ids[long]])
        at = nonzero[np.minimum(at, len(nonzero) - 1)]
        huge[long] |= (at >= starts[ids[long]]) & (at < first[long])
    value = np.zeros(len(starts), dtype=np.uint64)
    value[ids] = run
    past = np.zeros(len(starts), dtype=bool)
    past[ids] = huge
    return value, past


def _line_error(line: str) -> str | None:
    """What is wrong with one line of an edge list, or None if nothing is."""
    text = line.strip(_SPACES)
    if not text or text.startswith("#"):
        return None
    parts = _SPLIT.split(text)
    if len(parts) != 2:
        return f"expected 'u v', got {text!r}"
    try:
        if not all(map(_INT.fullmatch, parts)):
            raise ValueError
        u, v = int(parts[0]), int(parts[1])  # refuses over 4300 digits
    except ValueError:
        return f"non-integer vertex in {text!r}"
    if u < 0 or v < 0:
        return f"negative vertex id in {text!r}"
    if max(u, v) >= 2**63:
        return f"vertex id above 2^63 - 1 in {text!r}"
    return None


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


def walk_steps(g: Graph, starts: np.ndarray, steps: int,
               rng: np.random.Generator):
    """Walk one in-link walk from each vertex of starts, all at once.

    Yields, for t = 0..steps-1, the positions of the walks still alive at
    step t and their indices into starts, both in start order.  A walk at a
    vertex without in-links is absorbed and dropped from the next step on.
    Each step but the last draws rng.random(k), one u per moving walk in
    start order, and moves the walk at v to I(v)[floor(u |I(v)|)].
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


def walk_positions(g: Graph, source: int, steps: int, R: int,
                   rng: np.random.Generator) -> list[np.ndarray]:
    """For t = 0..steps-1, the int64 position counts (length n) of the R
    ``walk_steps`` walks from source alive at step t; zero once all are
    absorbed."""
    hists = [np.bincount(pos, minlength=g.n)
             for pos, _ in walk_steps(g, np.full(R, source), steps, rng)]
    hists.extend(np.zeros(g.n, dtype=np.int64) for _ in range(steps - len(hists)))
    return hists


def walk_trajectory(g: Graph, source: int, steps: int,
                    rng: np.random.Generator) -> list[int]:
    """Positions of a single walk at t = 0..steps; truncated early on absorption."""
    return [int(pos[0]) for pos, _ in walk_steps(g, [source], steps + 1, rng)]


def bfs_distances(g: Graph, source: int, max_d: int | None = None) -> dict[int, int]:
    """Hop distances over the undirected edge set, truncated at max_d."""
    check_vertex(g, source)
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
