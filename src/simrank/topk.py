"""Top-k similarity search.

``topk_query`` ranks one column of the truncated series and keeps the best k
of it with a partial sort.  Exact scoring takes the column from
``single_source`` in O(T m); Monte-Carlo scoring takes the unbiased walk
estimate ``mc_single_source``, O(R T) walk steps plus O(T m).  No vertex is
left out for being far from u (s^(T)(u,v) can be positive up to undirected
distance 2(T-1)), and nothing is pruned, so the result is the ranking of the
column itself.  The walk-based candidate index (``build_candidate_index``)
can restrict a query to the vertices that share an anchor with u.

The pruning bounds of Kusumoto et al. (SIGMOD 2014) remain as functions that
acceptance criterion 07 checks for soundness: a distance-indexed bound
beta(u, d) built from per-step maxima alpha(u, d, t) (``build_alpha_beta``),
and a norm bound sum_t c^t gamma(u,t) gamma(v,t) with
gamma(u,t) = ||sqrt(D) P^t e_u|| (``build_gamma``, ``l2_bound``).  No query
uses them: one full column costs less than the pruned scan they served.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .diag import WALK_BUDGET, DiagonalCorrection, propagate, source_blocks
from .graph import Config, Graph, bfs_distances, check_vertex, walk_steps
from .mc import mc_single_source
from .query import single_source

DEFAULT_P_WALKS = 10
DEFAULT_Q_WALKS = 5


@dataclass
class AlphaBeta:
    u: int
    alpha: np.ndarray  # (d_max+1, T); row 0 is the query vertex itself
    beta: np.ndarray   # (d_max+1,)


@dataclass
class BoundsIndex:
    candidates: dict[int, set[int]]


def build_gamma(g: Graph, cfg: Config, D: DiagonalCorrection,
                u: int) -> np.ndarray:
    """Row gamma(u, t) = ||sqrt(D) P^t e_u|| for t = 0..T-1."""
    dvals = D.as_array()
    return np.array([np.sqrt(np.sum(dvals * x * x))
                     for x in propagate(g, cfg, u)])


def build_alpha_beta(g: Graph, cfg: Config, D: DiagonalCorrection, u: int,
                     d_max: int) -> AlphaBeta:
    """alpha(u,d,t) = max over w at distance d of D_ww (P^t e_u)_w, and beta rows.

    beta(u,d) = sum_t c^t max_{d-t <= d' <= d+t} alpha(u,d',t); sound for the
    truncated score of any v at undirected distance d because step-t walk
    positions stay within distance t of their start.
    """
    dvals = D.as_array()
    dist_map = bfs_distances(g, u, d_max)
    dist_arr = np.full(g.n, -1, dtype=np.int64)
    for w, d in dist_map.items():
        dist_arr[w] = d

    alpha = np.zeros((d_max + 1, cfg.T))
    for t, x in enumerate(propagate(g, cfg, u)):
        supp = np.nonzero(x)[0]
        known = supp[dist_arr[supp] >= 0]
        np.maximum.at(alpha[:, t], dist_arr[known], dvals[known] * x[known])

    beta = np.zeros(d_max + 1)
    weights = cfg.c ** np.arange(cfg.T)
    for d in range(d_max + 1):
        acc = 0.0
        for t in range(cfg.T):
            # rows d-t..d+t, clipped to 0..d_max
            acc += weights[t] * float(np.max(alpha[max(d - t, 0):d + t + 1, t]))
        beta[d] = acc
    return AlphaBeta(u, alpha, beta)


def l2_bound(gamma_u: np.ndarray, gamma_v: np.ndarray, c: float) -> float:
    """sum_t c^t gamma(u,t) gamma(v,t); admissible for s^(T)(u,v)."""
    if len(gamma_u) != len(gamma_v):
        raise ValueError("gamma rows must have equal length")
    weights = c ** np.arange(len(gamma_u))
    return float(np.sum(weights * gamma_u * gamma_v))


def build_candidate_index(g: Graph, cfg: Config, P_walks: int = DEFAULT_P_WALKS,
                          Q_walks: int = DEFAULT_Q_WALKS,
                          rng: np.random.Generator | None = None) -> dict[int, set[int]]:
    """Anchor-sharing candidate map.

    Per vertex, P_walks rounds: one pilot walk and Q_walks probe walks; the
    pilot's step-t vertex becomes an anchor whenever two probes coincide at
    step t.  Candidates of u are all v sharing an anchor with u: the support
    of A A^T off the diagonal, with A the 0/1 vertex-by-anchor matrix.
    """
    if rng is None:
        rng = cfg.rng()
    n = g.n
    size = max(1, WALK_BUDGET // (P_walks * (1 + Q_walks)))
    marks = [walk_anchors(g, cfg, ks, P_walks, Q_walks, rng)
             for ks in source_blocks(n, size)]
    us, anchors = np.concatenate(marks, axis=1)
    A = sp.csr_matrix((np.ones(len(us)), (us, anchors)), shape=(n, n))
    AT = A.T.tocsr()
    ids = list(range(n))  # one int object per vertex, shared by every set
    candidates: dict[int, set[int]] = {}
    for ks in source_blocks(n, size):
        S = A[ks[0]:ks[-1] + 1] @ AT
        for j, u in enumerate(ks.tolist()):
            members = S.indices[S.indptr[j]:S.indptr[j + 1]].tolist()
            row = set(map(ids.__getitem__, members))
            row.discard(u)
            candidates[u] = row.copy()  # a copy is sized to its contents
    return candidates


def walk_anchors(g: Graph, cfg: Config, ks: np.ndarray, P_walks: int,
                 Q_walks: int, rng: np.random.Generator) -> np.ndarray:
    """The (vertex, anchor) marks of the candidate index rule for ks, as a
    2 x m array that may repeat a pair.

    All P_walks * (1 + Q_walks) walks of every vertex run together through
    ``walk_steps`` for t = 0..T: vertex ks[i] owns P_walks consecutive rounds
    of 1 + Q_walks consecutive walks, the first of a round being its pilot.
    At step t >= 1 a round whose pilot is alive marks the pilot's position
    when two of its alive probes stand on one vertex.
    """
    n = g.n
    walks = 1 + Q_walks
    out = [np.empty((2, 0), dtype=np.int64)]
    starts = np.repeat(ks, P_walks * walks)
    for t, (pos, walk) in enumerate(walk_steps(g, starts, cfg.T + 1, rng)):
        if t == 0:
            continue
        rnd = walk // walks
        pilot = walk % walks == 0
        key = np.sort(rnd[~pilot] * n + pos[~pilot])
        collided = np.zeros(len(ks) * P_walks, dtype=bool)
        collided[key[1:][key[1:] == key[:-1]] // n] = True
        marked = pilot.copy()
        marked[pilot] = collided[rnd[pilot]]
        out.append(np.stack([ks[rnd[marked] // P_walks], pos[marked]]))
    return np.concatenate(out, axis=1)


def build_bounds_index(g: Graph, cfg: Config, D: DiagonalCorrection,
                       rng: np.random.Generator | None = None) -> BoundsIndex:
    """The candidate index of ``build_candidate_index`` at its default walk
    counts, drawn on rng.

    D is unread.  The call shape and the BoundsIndex wrapper remain because
    the benchmark's mc-powerlaw workload builds its index with
    ``build_bounds_index(g, cfg, D, rng=...)`` and reads
    ``index.candidates``.
    """
    return BoundsIndex(build_candidate_index(g, cfg, rng=rng))


def topk_query(g: Graph, cfg: Config, D: DiagonalCorrection,
               index: BoundsIndex | None, u: int, k: int,
               theta_floor: float = 0.0,
               adaptive: tuple[int, int] | None = None,
               rng: np.random.Generator | None = None) -> list[tuple[int, float]]:
    """Up to k (vertex, score) pairs v != u, by descending score, ties by ascending id.

    Ranks one truncated column: it drops u, keeps only
    ``index.candidates[u]`` when an index is given, keeps scores strictly
    above theta_floor (so at the default 0.0 no zero-score vertex is listed),
    and returns the best k, a tie at the kth place going to the lower id.
    k < 1 or a non-finite theta_floor raises ValueError before any work.

    With adaptive=None the column is the exact ``single_source(g, cfg, D, u)``.
    With adaptive=(R_lo, R_hi) it is ``mc_single_source`` from R_hi walks
    drawn on rng (default ``cfg.rng()``), and R_lo is unread: the pair is the
    shape the benchmark's mc-powerlaw workload passes.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not np.isfinite(theta_floor):
        raise ValueError(f"theta_floor must be finite, got {theta_floor}")
    check_vertex(g, u)
    allowed = None if index is None else index.candidates.get(u, set())
    if adaptive is None:
        col = single_source(g, cfg, D, u)
    else:
        col = mc_single_source(g, cfg, D, u, adaptive[1],
                               rng if rng is not None else cfg.rng())
    return _rank_column(col, u, k, theta_floor, allowed)


def _rank_column(col: np.ndarray, u: int, k: int, theta_floor: float,
                 allowed: set[int] | None) -> list[tuple[int, float]]:
    """The best k entries v != u of col above theta_floor, by (-score, id)."""
    keep = col > theta_floor
    keep[u] = False
    if allowed is not None:
        mask = np.zeros(len(col), dtype=bool)
        mask[list(allowed)] = True
        keep &= mask
    ids = np.flatnonzero(keep)
    scores = col[ids]
    if len(ids) > k:
        # every entry tied with the kth score stays in, so the id order
        # below decides who takes the last places
        kth = np.partition(scores, len(ids) - k)[len(ids) - k]
        top = scores >= kth
        ids, scores = ids[top], scores[top]
    order = np.lexsort((ids, -scores))[:k]
    return [(int(v), float(s)) for v, s in zip(ids[order], scores[order])]
