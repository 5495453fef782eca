"""Brute-force ground truth on small graphs.

Dense fixed-point iteration of s(i,j) = c/(|I(i)||I(j)|) sum s(i',j') with unit
diagonal.  Everything here is an oracle for tests and the CLI `oracle`
subcommand; speed is irrelevant and the vertex cap keeps memory bounded.
"""

from __future__ import annotations

import numpy as np

from .diag import DiagonalCorrection, header_params
from .graph import Config, Graph

DEFAULT_CAP = 5000
CONVERGENCE_TOL = 1e-12
MAX_ITERATIONS = 200


class OracleCapExceeded(RuntimeError):
    pass


def _check_cap(g: Graph, cap: int):
    if g.n > cap:
        raise OracleCapExceeded(f"graph has {g.n} vertices, oracle cap is {cap}")


def naive_simrank(g: Graph, cfg: Config, iterations: int | None = None,
                  cap: int = DEFAULT_CAP) -> np.ndarray:
    """Iterate S <- (c P^T S P) with unit diagonal, from S = I.

    iterations=None runs to convergence (successive max-diff < 1e-12, at most
    200 sweeps); a non-negative integer runs exactly that many sweeps.
    """
    _check_cap(g, cap)
    P = g.dense_P()
    S = np.eye(g.n)
    rounds = MAX_ITERATIONS if iterations is None else iterations
    for _ in range(rounds):
        S_next = cfg.c * (P.T @ S @ P)
        np.fill_diagonal(S_next, 1.0)
        delta = np.max(np.abs(S_next - S))
        S = S_next
        if iterations is None and delta < CONVERGENCE_TOL:
            break
    return S


def exact_diagonal(g: Graph, cfg: Config, cap: int = DEFAULT_CAP) -> DiagonalCorrection:
    """D = S - c P^T S P evaluated on the converged naive matrix."""
    _check_cap(g, cap)
    P = g.dense_P()
    S = naive_simrank(g, cfg, cap=cap)
    D = S - cfg.c * (P.T @ S @ P)
    return DiagonalCorrection(
        values=np.diag(D).copy(),
        params=header_params(cfg, T=None, mode="oracle"))


def brute_force_join(g: Graph, cfg: Config, theta: float,
                     cap: int = DEFAULT_CAP) -> set[tuple[int, int]]:
    """All unordered pairs (i, j), i < j, with converged score >= theta."""
    S = naive_simrank(g, cfg, cap=cap)
    out = set()
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if S[i, j] >= theta:
                out.add((i, j))
    return out


def brute_force_topk(g: Graph, cfg: Config, source: int, k: int,
                     cap: int = DEFAULT_CAP) -> list[tuple[int, float]]:
    """k best vertices v != source by converged score, ties by ascending id."""
    S = naive_simrank(g, cfg, cap=cap)
    others = [(v, float(S[source, v])) for v in range(g.n) if v != source]
    others.sort(key=lambda pair: (-pair[1], pair[0]))
    return others[:k]


def mean_error(S_est: np.ndarray, S_true: np.ndarray) -> float:
    """ME = (1/n^2) sum |S_est - S_true| over all ordered pairs."""
    n = S_true.shape[0]
    return float(np.abs(S_est - S_true).sum() / (n * n))
