"""Linearized SimRank: diagonal correction estimation, deterministic and
Monte-Carlo queries, top-k search over one column, and threshold joins."""

from .diag import (DiagonalCorrection, EstimationConfig, estimate_diagonal,
                   initial_guess, load_diagonal, residual_norm, save_diagonal)
from .graph import (Config, Distribution, Graph, GraphParseError,
                    bfs_distances, load_edge_list, step)
from .join import (JoinResult, ResidualStore, gauss_southwell_filter, join,
                   stochastic_threshold)
from .mc import VerifyResult, mc_single_pair, mc_single_source, verify_pair
from .oracle import (OracleCapExceeded, brute_force_join, brute_force_topk,
                     exact_diagonal, mean_error, naive_simrank)
from .query import all_pairs, dense_truncated, single_pair, single_source
from .topk import (AlphaBeta, BoundsIndex, build_alpha_beta,
                   build_bounds_index, build_candidate_index, build_gamma,
                   l2_bound, topk_query)

__version__ = "0.1.0"

__all__ = [
    "Config", "Graph", "Distribution", "GraphParseError", "load_edge_list",
    "step", "bfs_distances",
    "naive_simrank", "exact_diagonal", "brute_force_join", "brute_force_topk",
    "mean_error", "OracleCapExceeded",
    "DiagonalCorrection", "EstimationConfig", "estimate_diagonal",
    "initial_guess", "residual_norm", "save_diagonal", "load_diagonal",
    "single_pair", "single_source", "all_pairs", "dense_truncated",
    "mc_single_pair", "mc_single_source",
    "verify_pair", "VerifyResult",
    "AlphaBeta", "BoundsIndex", "build_gamma", "build_alpha_beta", "l2_bound",
    "build_candidate_index", "build_bounds_index", "topk_query",
    "ResidualStore", "JoinResult", "stochastic_threshold",
    "gauss_southwell_filter", "join",
    "__version__",
]
