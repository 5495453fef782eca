"""Deterministic truncated queries from the series expansion.

Given a diagonal correction D, the similarity matrix expands as
S = sum_t c^t P^{T t} D P^t; truncating at T terms under-estimates each score
by at most c^T / (1 - c).
"""

from __future__ import annotations

import numpy as np

from .diag import DiagonalCorrection
from .graph import Config, Graph

DEFAULT_OUTPUT_THRESHOLD = 1e-4


def single_pair(g: Graph, cfg: Config, D: DiagonalCorrection,
                i: int, j: int) -> float:
    """s^(T)(i,j) = sum_{t<T} c^t (P^t e_i)^T D (P^t e_j)."""
    dvals = D.as_array()
    P = g.P
    x = np.zeros(g.n)
    y = np.zeros(g.n)
    x[i] = 1.0
    y[j] = 1.0
    score = 0.0
    weight = 1.0
    for _ in range(cfg.T):
        score += weight * float(np.dot(x * dvals, y))
        x = P @ x
        y = P @ y
        weight *= cfg.c
    return score


def single_source(g: Graph, cfg: Config, D: DiagonalCorrection, i: int,
                  memory_mode: str = "fast") -> np.ndarray:
    """The length-n column S e_i truncated at T terms.

    "low" recomputes the reverse sweep per term: O(T^2 m) time, O(n) extra.
    "fast" stores all T forward vectors: O(T m) time, O(T n) extra.
    """
    if memory_mode not in ("low", "fast"):
        raise ValueError(f"memory_mode must be 'low' or 'fast', got {memory_mode!r}")
    dvals = D.as_array()
    P, PT = g.P, g.PT

    if memory_mode == "low":
        result = np.zeros(g.n)
        x = np.zeros(g.n)
        x[i] = 1.0
        weight = 1.0
        for t in range(cfg.T):
            back = dvals * x
            for _ in range(t):
                back = PT @ back
            result += weight * back
            x = P @ x
            weight *= cfg.c
        return result

    forwards = []
    x = np.zeros(g.n)
    x[i] = 1.0
    for _ in range(cfg.T):
        forwards.append(dvals * x)
        x = P @ x
    acc = forwards[-1]
    for t in range(cfg.T - 2, -1, -1):
        acc = forwards[t] + cfg.c * (PT @ acc)
    return acc


def all_pairs(g: Graph, cfg: Config, D: DiagonalCorrection, sink,
              threshold: float = DEFAULT_OUTPUT_THRESHOLD) -> int:
    """Stream "i<TAB>j<TAB>score" rows for entries >= threshold, sorted by (i, j).

    One single-source column is alive at a time; returns the row count.
    threshold 0 emits every entry.
    """
    rows = 0
    for i in range(g.n):
        col = single_source(g, cfg, D, i)
        for j in range(g.n):
            score = float(col[j])
            if score >= threshold:
                sink.write(f"{i}\t{j}\t{score:.6f}\n")
                rows += 1
    return rows


def dense_truncated(g: Graph, cfg: Config, D: DiagonalCorrection) -> np.ndarray:
    """Full truncated matrix sum_{t<T} c^t P^{T t} D P^t; small n only."""
    P = g.dense_P()
    term = np.diag(D.as_array())
    S = np.zeros((g.n, g.n))
    weight = 1.0
    for _ in range(cfg.T):
        S += weight * term
        term = P.T @ term @ P
        weight *= cfg.c
    return S
