"""Top-k similarity search.

Exact scoring ranks one column: ``single_source`` gives s^(T)(u, .) for every
vertex in O(T m), and ``topk_query`` keeps the best k of it with a partial
sort.  No vertex is left out for being far from u (s^(T)(u,v) can be positive
up to undirected distance 2(T-1)), and nothing is pruned, so the result is the
ranking of the truncated column itself.

Monte-Carlo scoring (``adaptive``) is what the pruning bounds of Kusumoto et
al. (SIGMOD 2014) are for, on graphs where a full column costs too much: a
distance-indexed bound beta(u, d) built from per-step maxima alpha(u, d, t),
and a norm bound sum_t c^t gamma(u,t) gamma(v,t) with
gamma(u,t) = ||sqrt(D) P^t e_u||.  That path scans BFS shells in ascending
distance up to d = T, keeps a size-k min-heap, and prunes shells via beta and
individual vertices via the norm bound.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .diag import WALK_BUDGET, DiagonalCorrection, propagate, source_blocks
from .graph import Config, Graph, bfs_distances, walk_positions, walk_steps
from .mc import mc_single_pair
from .query import single_source

DEFAULT_P_WALKS = 10
DEFAULT_Q_WALKS = 5
INDEX_MAGIC = b"SRBIDX1\n"


@dataclass
class AlphaBeta:
    u: int
    alpha: np.ndarray  # (d_max+1, T); row 0 is the query vertex itself
    beta: np.ndarray   # (d_max+1,)


@dataclass
class BoundsIndex:
    gamma: np.ndarray                      # (n, T)
    candidates: dict[int, set[int]]
    params: dict = field(default_factory=dict)


def gamma_table(g: Graph, cfg: Config, D: DiagonalCorrection,
                ks: np.ndarray) -> np.ndarray:
    """Exact rows gamma(u, t) = ||sqrt(D) P^t e_u|| for t = 0..T-1, one per u in ks."""
    dvals = D.as_array()
    out = np.empty((len(ks), cfg.T))
    for t, X in enumerate(propagate(g, cfg, ks)):
        XT = np.ascontiguousarray(X.T)
        out[:, t] = np.sqrt(np.sum(dvals * XT * XT, axis=1))
    return out


def build_gamma(g: Graph, cfg: Config, D: DiagonalCorrection, u: int,
                mode: str = "exact", R: int = 100,
                rng: np.random.Generator | None = None) -> np.ndarray:
    """Row gamma(u, t) for t = 0..T-1; exact mode is gamma_table's one-vertex case."""
    if mode == "exact":
        return gamma_table(g, cfg, D, np.array([u]))[0]
    dvals = D.as_array()
    out = np.zeros(cfg.T)
    if rng is None:
        rng = cfg.rng()
    for t, hist in enumerate(walk_positions(g, u, cfg.T, R, rng)):
        p = hist / R
        out[t] = np.sqrt(float(np.sum(dvals * p * p)))
    return out


def build_alpha_beta(g: Graph, cfg: Config, D: DiagonalCorrection, u: int,
                     d_max: int, mode: str = "exact", R: int = 100,
                     rng: np.random.Generator | None = None) -> AlphaBeta:
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
    if mode == "exact":
        x = np.zeros(g.n)
        x[u] = 1.0
        P = g.P
        for t in range(cfg.T):
            supp = np.nonzero(x)[0]
            known = supp[dist_arr[supp] >= 0]
            np.maximum.at(alpha[:, t], dist_arr[known], dvals[known] * x[known])
            x = P @ x
    else:
        if rng is None:
            rng = cfg.rng()
        for t, hist in enumerate(walk_positions(g, u, cfg.T, R, rng)):
            supp = np.nonzero(hist)[0]
            known = supp[dist_arr[supp] >= 0]
            np.maximum.at(alpha[:, t], dist_arr[known],
                          dvals[known] * hist[known] / R)

    beta = np.zeros(d_max + 1)
    weights = cfg.c ** np.arange(cfg.T)
    for d in range(d_max + 1):
        acc = 0.0
        for t in range(cfg.T):
            lo = max(d - t, 0)
            hi = min(d + t, d_max)
            acc += weights[t] * float(np.max(alpha[lo:hi + 1, t]))
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
                       mode: str = "exact", R: int = 100,
                       P_walks: int = DEFAULT_P_WALKS,
                       Q_walks: int = DEFAULT_Q_WALKS,
                       rng: np.random.Generator | None = None) -> BoundsIndex:
    if rng is None:
        rng = cfg.rng()
    if mode == "exact":
        gamma = np.vstack([gamma_table(g, cfg, D, ks) for ks in source_blocks(g.n)])
    else:
        gamma = np.vstack([build_gamma(g, cfg, D, u, mode, R, rng)
                           for u in range(g.n)])
    candidates = build_candidate_index(g, cfg, P_walks, Q_walks, rng)
    return BoundsIndex(gamma, candidates,
                       params={"R_gamma": R, "P_walks": P_walks,
                               "Q_walks": Q_walks, "T": cfg.T})


def save_bounds_index(path: str, index: BoundsIndex) -> None:
    """Binary gamma table with a versioned header; candidates as text sidecar."""
    n, T = index.gamma.shape
    p = index.params
    with open(path, "wb") as fh:
        fh.write(INDEX_MAGIC)
        fh.write(struct.pack("<5q", n, T, p.get("R_gamma", 0),
                             p.get("P_walks", 0), p.get("Q_walks", 0)))
        fh.write(np.ascontiguousarray(index.gamma, dtype=np.float64).tobytes())
    with open(path + ".cand", "w") as fh:
        for u in range(n):
            members = " ".join(str(v) for v in sorted(index.candidates.get(u, ())))
            fh.write(f"{u}: {members}".rstrip() + "\n")


def load_bounds_index(path: str) -> BoundsIndex:
    with open(path, "rb") as fh:
        magic = fh.read(len(INDEX_MAGIC))
        if magic != INDEX_MAGIC:
            raise ValueError(f"not a bounds index file: {path}")
        head = fh.read(40)
        if len(head) != 40:
            raise ValueError(f"{path}: header holds {len(head)} of 40 bytes")
        n, T, R_gamma, P_walks, Q_walks = struct.unpack("<5q", head)
        raw = fh.read(n * T * 8)
        if len(raw) != n * T * 8:
            raise ValueError(f"{path}: gamma table holds {len(raw)} of "
                             f"{n * T * 8} bytes")
        gamma = np.frombuffer(raw, dtype=np.float64).reshape(n, T)
    cand_path = path + ".cand"
    candidates: dict[int, set[int]] = {}
    with open(cand_path) as fh:
        for u, line in enumerate(fh):
            head, colon, tail = line.partition(":")
            tokens = tail.split()
            if not colon or head.strip() != str(u) or u >= n \
                    or not all(tok.isdecimal() and int(tok) < n for tok in tokens):
                raise ValueError(f"{cand_path}:{u + 1}: expected 'u: v ...' "
                                 f"for vertex {u} of {n}, got {line.rstrip()!r}")
            candidates[u] = {int(tok) for tok in tokens}
    if len(candidates) != n:
        raise ValueError(f"{cand_path}:{len(candidates) + 1}: file ends after "
                         f"{len(candidates)} of {n} vertices")
    return BoundsIndex(gamma.copy(), candidates,
                       params={"R_gamma": R_gamma, "P_walks": P_walks,
                               "Q_walks": Q_walks, "T": T})


def topk_query(g: Graph, cfg: Config, D: DiagonalCorrection,
               index: BoundsIndex | None, u: int, k: int,
               theta_floor: float = 0.0,
               adaptive: tuple[int, int] | None = None,
               rng: np.random.Generator | None = None) -> list[tuple[int, float]]:
    """Up to k (vertex, score) pairs v != u, by descending score, ties by ascending id.

    Exact scoring (adaptive=None) ranks the truncated column
    ``single_source(g, cfg, D, u)``: it drops u, keeps only
    ``index.candidates[u]`` when an index is given, keeps scores strictly
    above theta_floor (so at the default 0.0 no zero-score vertex is listed),
    and returns the best k, a tie at the kth place going to the lower id.

    With adaptive=(R_lo, R_hi), scores come from the MC estimator at R_lo,
    then R_hi when the cheap estimate exceeds half the current kth score.
    This path scans BFS shells up to d_max = T and prunes with the alpha/beta
    and norm bounds (the index's gamma rows when given).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    allowed = None if index is None else index.candidates.get(u, set())
    if adaptive is None:
        return _rank_column(single_source(g, cfg, D, u), u, k, theta_floor,
                            allowed)
    if rng is None:
        rng = cfg.rng()
    d_max = cfg.T
    dist_map = bfs_distances(g, u, d_max)
    shells: dict[int, list[int]] = {}
    for v, d in dist_map.items():
        if v == u or d == 0:
            continue
        if allowed is not None and v not in allowed:
            continue
        shells.setdefault(d, []).append(v)
    for members in shells.values():
        members.sort()

    ab = build_alpha_beta(g, cfg, D, u, d_max)
    gamma_cache: dict[int, np.ndarray] = {}

    def gamma_of(v: int) -> np.ndarray:
        if index is not None:
            return index.gamma[v]
        if v not in gamma_cache:
            gamma_cache[v] = build_gamma(g, cfg, D, v)
        return gamma_cache[v]

    R_lo, R_hi = adaptive

    def score_of(v: int, kth: float | None) -> float:
        rough = mc_single_pair(g, cfg, D, u, v, R_lo, rng)
        if kth is None or rough > 0.5 * kth:
            return mc_single_pair(g, cfg, D, u, v, R_hi, rng)
        return rough

    # min-heap over (score, -v): the root is the lowest score, with the
    # largest id losing ties, so final ties rank by ascending id
    heap: list[tuple[float, int]] = []
    for d in range(1, d_max + 1):
        kth = heap[0][0] if len(heap) == k else None
        if kth is not None and ab.beta[d] <= kth:
            break
        if ab.beta[d] <= theta_floor:
            break
        for v in shells.get(d, ()):
            if kth is not None and l2_bound(gamma_of(u), gamma_of(v), cfg.c) <= kth:
                continue
            s = score_of(v, kth)
            entry = (s, -v)
            if len(heap) < k:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)
            kth = heap[0][0] if len(heap) == k else None
    ranked = sorted(heap, key=lambda e: (-e[0], -e[1]))
    return [(-neg_v, s) for s, neg_v in ranked]


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
