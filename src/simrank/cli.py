"""Command-line front end.

Subcommands: estimate-diag, query (pair | source | allpairs), topk, join,
oracle, accuracy.  All randomness flows from --seed (default 0, never
entropy), so rerunning a command with identical flags reproduces its output
byte for byte.  Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .diag import (DiagonalCorrection, EstimationConfig, estimate_diagonal,
                   load_diagonal, residual_norm, save_diagonal)
from .graph import Config, Graph, load_edge_list
from .join import join
from .mc import mc_single_pair, mc_single_source
from .oracle import naive_simrank
from .query import (DEFAULT_OUTPUT_THRESHOLD, all_pairs, single_pair,
                    single_source, tsv_rows)
from .topk import topk_query

# largest n*m*T for which a command without --diag estimates the diagonal
# exactly (L=3): about one second on a 2-vCPU Xeon, at ~4 ns per unit
EXACT_DEFAULT_MAX_WORK = 250_000_000


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", required=True, help="edge list file, 'u v' per line")
    parser.add_argument("--c", type=float, default=0.6, help="decay factor")
    parser.add_argument("--T", type=int, default=11, help="truncation depth")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")


def _load_graph(args) -> tuple[Graph, Config]:
    with open(args.graph) as fh:
        g = load_edge_list(fh)
    return g, Config(c=args.c, T=args.T, seed=args.seed)


def _diagonal(args, g: Graph, cfg: Config) -> DiagonalCorrection:
    """From --diag when given, else an exact-mode estimate at the defaults,
    refused above EXACT_DEFAULT_MAX_WORK."""
    if getattr(args, "diag", None):
        D = load_diagonal(args.diag)
        if len(D) != g.n:
            raise ValueError(
                f"diagonal file has {len(D)} values but graph has {g.n} vertices")
        c = D.params.get("c")
        if c is not None and c != cfg.c:
            raise ValueError(
                f"diagonal file {args.diag} was estimated at c={c}, "
                f"but --c is {cfg.c}")
        # a diagonal estimated at T_e < T leaves an error of order
        # c^T_e / (1 - c), above the query's own truncation bound
        T = D.params.get("T")
        if T is not None and T < cfg.T:
            raise ValueError(
                f"diagonal file {args.diag} was estimated at T={T}, "
                f"but --T is {cfg.T}; it needs T >= {cfg.T}")
        return D
    work = g.n * g.m * cfg.T
    if work > EXACT_DEFAULT_MAX_WORK:
        raise ValueError(
            f"without --diag the diagonal is estimated exactly, and n*m*T = "
            f"{work} exceeds {EXACT_DEFAULT_MAX_WORK}; estimate it with "
            f"'estimate-diag --mode mc --out FILE' and pass --diag FILE")
    return estimate_diagonal(g, cfg, EstimationConfig(L=3, mode="exact"))


def cmd_estimate_diag(args) -> int:
    g, cfg = _load_graph(args)
    est_cfg = EstimationConfig(L=args.L, R=args.R, mode=args.mode)
    start = time.perf_counter()
    D = estimate_diagonal(g, cfg, est_cfg)
    elapsed = time.perf_counter() - start
    save_diagonal(args.out, D)
    summary = (f"n={g.n} m={g.m} mode={args.mode} L={args.L} "
               f"clamped={D.clamped} skipped={D.skipped} time={elapsed:.3f}s")
    if args.mode == "exact":
        summary += f" residual_norm={residual_norm(g, cfg, D):.3e}"
    print(summary)
    return 0


def cmd_query(args) -> int:
    g, cfg = _load_graph(args)
    expected = {"pair": 2, "source": 1, "allpairs": 0}[args.submode]
    if len(args.vertices) != expected:
        raise ValueError(
            f"query {args.submode} takes {expected} vertex argument(s), "
            f"got {len(args.vertices)}")
    for v in args.vertices:
        _check_vertex(g, v)
    if args.submode == "allpairs":
        if not args.out:
            raise ValueError("allpairs requires --out")
        if not np.isfinite(args.threshold):
            raise ValueError(f"--threshold must be finite, got {args.threshold}")
    D = _diagonal(args, g, cfg)
    rng = cfg.rng()
    mc = args.estimator == "mc"

    if args.submode == "pair":
        i, j = args.vertices
        s = (mc_single_pair(g, cfg, D, i, j, args.R, rng) if mc
             else single_pair(g, cfg, D, i, j))
        print(f"{s:.6f}")
    elif args.submode == "source":
        (i,) = args.vertices
        col = (mc_single_source(g, cfg, D, i, args.R, rng) if mc
               else single_source(g, cfg, D, i))
        sys.stdout.write("".join(map("{}\t{:.6f}\n".format, range(g.n),
                                     col.tolist())))
    else:  # allpairs
        with open(args.out, "w") as fh:
            rows = all_pairs(g, cfg, D, fh, threshold=args.threshold)
        print(f"rows={rows}")
    return 0


def cmd_topk(args) -> int:
    g, cfg = _load_graph(args)
    _check_vertex(g, args.source)
    D = _diagonal(args, g, cfg)
    # topk_query draws its Monte-Carlo column from adaptive[1] walks
    adaptive = (args.R, args.R) if args.estimator == "mc" else None
    ranked = topk_query(g, cfg, D, None, args.source, args.k,
                        theta_floor=args.theta_floor, adaptive=adaptive,
                        rng=cfg.rng())
    for v, s in ranked:
        print(f"{v}\t{s:.6f}")
    return 0


def cmd_join(args) -> int:
    g, cfg = _load_graph(args)
    D = _diagonal(args, g, cfg)
    beta_skip = None if args.beta_skip <= 0 else args.beta_skip
    result = join(g, cfg, D, args.theta, gamma_acc=args.gamma,
                  beta_skip=beta_skip, p=args.p, R_max=args.rmax,
                  rng=cfg.rng())
    sink = open(args.out, "w") if args.out else sys.stdout
    try:
        for i, j in sorted(result.result):
            source = "filter" if (i, j) in result.J_L else "verified"
            sink.write(f"{i}\t{j}\t{source}\n")
    finally:
        if args.out:
            sink.close()
    print(json.dumps(result.stats, sort_keys=True), file=sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    g, cfg = _load_graph(args)
    S = naive_simrank(g, cfg, cap=args.cap)
    sink = open(args.out, "w") if args.out else sys.stdout
    js = list(range(g.n))
    try:
        for i, row in enumerate(S.tolist()):
            sink.write(tsv_rows(i, js, row))
    finally:
        if args.out:
            sink.close()
    return 0


def cmd_accuracy(args) -> int:
    g, cfg = _load_graph(args)
    S_true = naive_simrank(g, cfg, cap=args.cap)
    S_est = np.zeros((g.n, g.n))
    with open(args.scores) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            parts = text.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{args.scores}:{lineno}: expected 'i<TAB>j<TAB>score'")
            i, j, s = int(parts[0]), int(parts[1]), float(parts[2])
            _check_vertex(g, i)
            _check_vertex(g, j)
            S_est[i, j] = s
    me = float(np.abs(S_est - S_true).sum() / (g.n * g.n))
    print(f"{me:.9f}")
    return 0


def _check_vertex(g: Graph, v: int) -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for graph with {g.n} vertices")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="simrank",
                                  description="Linearized SimRank toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate-diag", help="estimate the diagonal correction")
    _add_common(p)
    p.add_argument("--L", type=int, default=3, help="Gauss-Seidel sweeps")
    p.add_argument("--R", type=int, default=100, help="walks per estimate (mc mode)")
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--out", required=True, help="output diagonal file")
    p.set_defaults(func=cmd_estimate_diag)

    p = sub.add_parser("query", help="similarity scores for pairs or sources")
    _add_common(p)
    p.add_argument("submode", choices=("pair", "source", "allpairs"))
    p.add_argument("vertices", type=int, nargs="*",
                   help="i j for pair, i for source, none for allpairs")
    p.add_argument("--diag", help="diagonal file (default: exact estimate)")
    p.add_argument("--estimator", choices=("exact", "mc"), default="exact")
    p.add_argument("--R", type=int, default=100, help="walks per mc estimate")
    p.add_argument("--out", help="output file (allpairs)")
    p.add_argument("--threshold", type=float, default=DEFAULT_OUTPUT_THRESHOLD,
                   help="allpairs emission threshold")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("topk", help="top-k most similar vertices")
    _add_common(p)
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theta-floor", type=float, default=0.0, dest="theta_floor")
    p.add_argument("--diag", help="diagonal file (default: exact estimate)")
    p.add_argument("--estimator", choices=("exact", "mc"), default="exact")
    p.add_argument("--R", type=int, default=100,
                   help="walks for the mc column")
    p.set_defaults(func=cmd_topk)

    p = sub.add_parser("join", help="all pairs above a similarity threshold")
    _add_common(p)
    p.add_argument("--theta", type=float, default=0.2)
    p.add_argument("--gamma", type=float, default=0.0,
                   help="accuracy split in [0,1); larger lowers the filter "
                        "tolerance (1-c)(1-gamma)theta, so the filter does more "
                        "work and fewer pairs go to verification")
    p.add_argument("--beta-skip", type=float, default=100.0, dest="beta_skip",
                   help="thresholding rate; <= 0 disables thresholding")
    p.add_argument("--p", type=float, default=0.01,
                   help="verification failure probability")
    p.add_argument("--rmax", type=int, default=1000,
                   help="verification sample cap")
    p.add_argument("--diag", help="diagonal file (default: exact estimate)")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_join)

    p = sub.add_parser("oracle", help="converged scores by fixed-point iteration")
    _add_common(p)
    p.add_argument("--cap", type=int, default=5000, help="vertex cap")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("accuracy", help="mean error of a score file vs the oracle")
    _add_common(p)
    p.add_argument("--scores", required=True,
                   help="TSV 'i<TAB>j<TAB>score'; missing entries count as 0")
    p.add_argument("--cap", type=int, default=5000, help="oracle vertex cap")
    p.set_defaults(func=cmd_accuracy)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # runtime failure -> exit 1 with a message
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
