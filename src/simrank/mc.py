"""Monte-Carlo estimators and adaptive pair verification.

Two families: estimation over the series expansion from batches of in-link
walks (one pair or one source column from one batch each), and
first-meeting-time sampling of coupled walks, where the score equals
E[c^tau] for the first step tau at which the walks coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diag import DiagonalCorrection
from .graph import Config, Graph, check_vertex, walk_positions, walk_steps
from .query import fold_series

VERIFY_CHUNK = 64
# samples per slice of a verify_pairs round: the round's undecided pairs go
# through meeting_times and the stopping rule in slices of
# max(1, VERIFY_BUDGET // chunk) pairs, so its arrays stay near 2^13 entries
# however many pairs a join sends to verification
VERIFY_BUDGET = 2**13


def check_walk_count(R: int) -> None:
    """Raise ValueError unless a walk estimator's R is at least 1."""
    if not R >= 1:
        raise ValueError(f"R must be >= 1, got {R}")


def check_verify_args(theta: float, p: float, R_max: int) -> None:
    """Raise ValueError naming the first verification argument out of range:
    theta and p must be in (0, 1) and R_max at least 1; nan fails each."""
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0,1), got {theta}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0,1), got {p}")
    if not R_max >= 1:
        raise ValueError(f"R_max must be >= 1, got {R_max}")


def mc_single_pair(g: Graph, cfg: Config, D: DiagonalCorrection,
                   i: int, j: int, R: int, rng: np.random.Generator) -> float:
    """sum_t c^t sum_w D_ww count_i(w,t) count_j(w,t) / R^2 from one batch.

    The R walks from i and the R from j run together on ``walk_steps``, i's
    first, so each step's alive walks split at the first index >= R.  Each
    step counts i's positions in one bincount and reads the count at every
    position of j: O(R T) walk steps plus one length-n bincount per step.
    The loop stops once either side is absorbed, as every later term is 0.
    """
    check_walk_count(R)
    check_vertex(g, i)
    check_vertex(g, j)
    if i == j:
        return 1.0
    dvals = D.as_array()
    score = 0.0
    weight = 1.0
    for pos, walk in walk_steps(g, np.repeat([i, j], R), cfg.T, rng):
        split = int(np.searchsorted(walk, R))
        if split == 0 or split == walk.size:
            break
        pos_j = pos[split:]
        hist_i = np.bincount(pos[:split], minlength=g.n)
        score += weight * float(dvals[pos_j] @ hist_i[pos_j])
        weight *= cfg.c
    return score / (R * R)


def mc_single_source(g: Graph, cfg: Config, D: DiagonalCorrection, u: int,
                     R: int, rng: np.random.Generator) -> np.ndarray:
    """Unbiased estimate of the truncated column S e_u from R walks.

    With h_t the step-t position counts of R in-link walks from u, the
    estimate is sum_t c^t (P^T)^t D h_t / R, folded by ``query.fold_series``:
    E[h_t / R] = P^t e_u and the fold is linear.  O(R T) walk steps plus
    T-1 sparse products P^T x.
    """
    check_walk_count(R)
    check_vertex(g, u)
    scale = D.as_array() / R
    return fold_series(g, cfg, [scale * h
                                for h in walk_positions(g, u, cfg.T, R, rng)])


def meeting_time_samples(g: Graph, cfg: Config, i: int, j: int, R: int,
                         rng: np.random.Generator) -> np.ndarray:
    """R independent draws of c^tau, tau the first step at which coupled walks
    from i and j meet; 0 if one is absorbed or they do not meet within T."""
    return meeting_times(g, cfg, np.full(R, i, dtype=np.int64),
                         np.full(R, j, dtype=np.int64), rng)


def meeting_times(g: Graph, cfg: Config, pos_a: np.ndarray, pos_b: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """One draw of c^tau per entry of the start arrays pos_a, pos_b.

    Entries may mix any pairs; all coupled walks step together, drawing a's
    steps then b's from rng.  A pair starting on one vertex scores 1 and draws
    nothing.
    """
    values = np.zeros(pos_a.size)
    met = pos_a == pos_b
    values[met] = 1.0
    keep = ~met
    pos_a, pos_b = pos_a[keep], pos_b[keep]
    active = np.flatnonzero(keep)
    weight = 1.0
    for _ in range(cfg.T):
        deg_a = g.in_degree[pos_a]
        deg_b = g.in_degree[pos_b]
        alive = (deg_a > 0) & (deg_b > 0)
        pos_a, pos_b, active = pos_a[alive], pos_b[alive], active[alive]
        if active.size == 0:
            break
        deg_a, deg_b = deg_a[alive], deg_b[alive]
        pos_a = g.in_adj[g.in_ptr[pos_a] + (rng.random(active.size) * deg_a).astype(np.int64)]
        pos_b = g.in_adj[g.in_ptr[pos_b] + (rng.random(active.size) * deg_b).astype(np.int64)]
        weight *= cfg.c
        met = pos_a == pos_b
        values[active[met]] = weight
        keep = ~met
        pos_a, pos_b, active = pos_a[keep], pos_b[keep], active[keep]
    return values


@dataclass
class VerifyResult:
    decision: str            # "similar" | "dissimilar" | "undecided"
    side: str                # side of theta the estimate landed on
    estimate: float
    samples_used: int

    @property
    def undecided(self) -> bool:
        return self.decision == "undecided"


def verify_pair(g: Graph, cfg: Config, i: int, j: int, theta: float,
                p: float, R_max: int, rng: np.random.Generator) -> VerifyResult:
    """Adaptive thresholding of s(i,j) against theta: verify_pairs on one pair."""
    return verify_pairs(g, cfg, [(i, j)], theta, p, R_max, rng)[0]


def verify_pairs(g: Graph, cfg: Config, pairs, theta: float, p: float,
                 R_max: int, rng: np.random.Generator) -> list[VerifyResult]:
    """Adaptive thresholding of s(i,j) against theta for every (i, j) in pairs.

    Each round draws min(VERIFY_CHUNK, R_max - R) meeting-time samples for
    every still-undecided pair, in pair order, with one meeting_times call per
    slice of at most VERIFY_BUDGET samples.  Each pair keeps its own running
    mean s^(R) (which averages c**tau, not tau) and stops at the first R with
    R * (s^(R) - theta)^2 >= log(1/p)/2 * (c/(1-c))^2.  Similar iff
    s^(R) >= theta; hitting R_max without stopping flags the result undecided
    while still reporting the side.  For one pair the draws, and so the
    result, are those of sampling that pair alone, chunk by chunk.
    """
    check_verify_args(theta, p, R_max)
    ij = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    bar = math.log(1.0 / p) / 2.0 * (cfg.c / (1.0 - cfg.c)) ** 2
    total = np.zeros(len(ij))
    used = np.zeros(len(ij), dtype=np.int64)
    terminated = np.zeros(len(ij), dtype=bool)
    drawn = 0  # samples drawn so far for each undecided pair
    undecided = np.arange(len(ij))
    while drawn < R_max and undecided.size:
        chunk = min(VERIFY_CHUNK, R_max - drawn)
        counts = drawn + 1 + np.arange(chunk)
        step = max(1, VERIFY_BUDGET // chunk)
        for lo in range(0, undecided.size, step):
            rows = undecided[lo:lo + step]
            draws = meeting_times(
                g, cfg, np.repeat(ij[rows, 0], chunk),
                np.repeat(ij[rows, 1], chunk), rng).reshape(-1, chunk)
            means = (total[rows, None] + np.cumsum(draws, axis=1)) / counts
            ok = counts * (means - theta) ** 2 >= bar
            hit = ok.any(axis=1)
            for r in np.flatnonzero(hit):
                stop = int(np.argmax(ok[r])) + 1
                used[rows[r]] = drawn + stop
                total[rows[r]] += float(np.sum(draws[r, :stop]))
            terminated[rows[hit]] = True
            # each row is contiguous, so its sum is that of the 1-D chunk
            total[rows[~hit]] += np.sum(draws[~hit], axis=1)
        drawn += chunk
        undecided = undecided[~terminated[undecided]]
    used[undecided] = drawn

    results = []
    for k in range(len(ij)):
        estimate = float(total[k] / used[k])
        side = "similar" if estimate >= theta else "dissimilar"
        decision = side if terminated[k] else "undecided"
        results.append(VerifyResult(decision, side, estimate, int(used[k])))
    return results
