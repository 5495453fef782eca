"""Monte-Carlo estimators and adaptive pair verification.

Two families, both on the walks of ``graph.walk_steps``: estimation over
the series expansion from batches of in-link walks (one pair or one source
column from one batch each), and first-meeting-time sampling of pairs of
walks, where the score equals E[c^tau] for the first step tau at which the
two walks coincide.  The join does not verify by sampling; verify_pair
thresholds one pair on its own, checked by acceptance criterion 11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diag import DiagonalCorrection
from .graph import (Config, Graph, check_theta, check_vertex,
                    check_walk_count, walk_positions, walk_steps)
from .query import fold_series

VERIFY_CHUNK = 64


def check_verify_args(theta: float, p: float, R_max: int) -> None:
    """Raise ValueError naming the first verification argument out of range:
    theta and p must be in (0, 1) and R_max at least 1; nan fails each."""
    check_theta(theta)
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
    dvals = D.as_array(g.n)
    if i == j:
        return 1.0
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
    scale = D.as_array(g.n) / R
    return fold_series(g, cfg, [scale * h
                                for h in walk_positions(g, u, cfg.T, R, rng)])


def meeting_time_samples(g: Graph, cfg: Config, i: int, j: int, R: int,
                         rng: np.random.Generator) -> np.ndarray:
    """R independent draws of c^tau, tau the first step at which an in-link
    walk from i and one from j stand on one vertex; 0 if either is absorbed
    first or they do not meet within T steps, and 1 when i == j.

    The R walks from i and the R from j run together on ``walk_steps`` for
    T + 1 positions, i's first, so walk w pairs with walk R + w.  Every walk
    alive draws until it is absorbed, whether or not its pair has met; the
    two walks of a pair are independent and later steps do not move tau.
    """
    check_vertex(g, i)
    check_vertex(g, j)
    values = np.zeros(R)
    at = np.empty(2 * R, dtype=np.int64)
    weight = 1.0
    for pos, walk in walk_steps(g, np.repeat([i, j], R), cfg.T + 1, rng):
        at.fill(-1)  # absorbed walks stand nowhere
        at[walk] = pos
        values[(at[:R] == at[R:]) & (at[:R] >= 0) & (values == 0.0)] = weight
        weight *= cfg.c
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
    """Adaptive thresholding of s(i,j) against theta.

    Draws meeting_time_samples in chunks of min(VERIFY_CHUNK, R_max - R)
    and keeps the running mean s^(R) (which averages c**tau, not tau),
    stopping at the first R with R * (s^(R) - theta)^2 >=
    log(1/p)/2 * (c/(1-c))^2.  Similar iff s^(R) >= theta; hitting R_max
    without stopping flags the result undecided while still reporting the
    side.
    """
    check_verify_args(theta, p, R_max)
    bar = math.log(1.0 / p) / 2.0 * (cfg.c / (1.0 - cfg.c)) ** 2
    total = 0.0
    used = 0
    terminated = False
    while used < R_max and not terminated:
        chunk = min(VERIFY_CHUNK, R_max - used)
        draws = meeting_time_samples(g, cfg, i, j, chunk, rng)
        counts = used + 1 + np.arange(chunk)
        means = (total + np.cumsum(draws)) / counts
        ok = counts * (means - theta) ** 2 >= bar
        terminated = bool(ok.any())
        stop = int(np.argmax(ok)) + 1 if terminated else chunk
        total += float(np.sum(draws[:stop]))
        used += stop
    estimate = total / used
    side = "similar" if estimate >= theta else "dissimilar"
    return VerifyResult(side if terminated else "undecided", side, estimate,
                        used)
