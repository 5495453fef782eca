"""Deterministic truncated queries from the series expansion.

Given a diagonal correction D, the similarity matrix expands as
S = sum_t c^t P^{T t} D P^t; truncating at T terms under-estimates each score
by at most c^T / (1 - c).
"""

from __future__ import annotations

import numpy as np

from .diag import DiagonalCorrection, propagate, source_blocks
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


def source_columns(g: Graph, cfg: Config, D: DiagonalCorrection,
                   ks: np.ndarray | int) -> np.ndarray:
    """The n x len(ks) block whose column j is S e_{ks[j]} truncated at T terms.

    One forward pass keeps the stack D P^t E_ks for t < T (T n len(ks)
    doubles), then the Horner pass acc = D P^t E_ks + c P^T acc folds it from
    t = T-1 down to 0: T-1 sparse products each way, O(T m) per source.  A
    scalar ks gives the length-n column S e_ks.
    """
    dvals = D.as_array()
    if np.ndim(ks) > 0:
        dvals = dvals[:, None]
    stack = [dvals * X for X in propagate(g, cfg, ks)]
    PT = g.PT
    acc = stack.pop()
    while stack:
        acc = PT @ acc
        acc *= cfg.c
        acc += stack.pop()
    return acc


def single_source(g: Graph, cfg: Config, D: DiagonalCorrection,
                  i: int) -> np.ndarray:
    """The length-n column S e_i truncated at T terms: ``source_columns``'s
    one-source case, O(T m) time and O(T n) extra memory."""
    return source_columns(g, cfg, D, i)


def all_pairs(g: Graph, cfg: Config, D: DiagonalCorrection, sink,
              threshold: float = DEFAULT_OUTPUT_THRESHOLD) -> int:
    """Stream "i<TAB>j<TAB>score" rows for entries >= threshold, sorted by (i, j).

    Sources go through ``source_columns`` in the blocks of
    ``diag.source_blocks``, so the kernel's extra memory stays near
    T * BLOCK_BUDGET doubles for any n; each block's rows are written in one
    call.  threshold 0 emits every entry; a non-finite threshold raises
    ValueError.  Returns the row count.
    """
    if not np.isfinite(threshold):
        raise ValueError(f"all-pairs threshold must be finite, got {threshold}")
    rows = 0
    for ks in source_blocks(g.n):
        block = np.ascontiguousarray(source_columns(g, cfg, D, ks).T)
        parts = []
        for i, col in zip(ks.tolist(), block):
            js = np.flatnonzero(col >= threshold)
            # one format string per source, i written in, (j, score) interleaved
            fields = [None] * (2 * len(js))
            fields[0::2] = js.tolist()
            fields[1::2] = col[js].tolist()
            parts.append(f"{i}\t%d\t%.6f\n" * len(js) % tuple(fields))
            rows += len(js)
        sink.write("".join(parts))
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
