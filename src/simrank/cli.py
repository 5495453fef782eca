"""Command-line front end.

Subcommands: estimate-diag, query (pair | source | allpairs), topk, join,
oracle, accuracy.  All randomness flows from --seed (default 0, never
entropy), so rerunning a command with identical flags reproduces its output
byte for byte.  Exit codes: 0 success, 1 runtime failure, 2 usage error.

main builds the argument parser once per process, on its first call, and
reuses it for every later call: parse_args keeps no state in the parser, so
no flag carries over from one call to the next.  Subcommand "x-y" runs
cmd_x_y.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time

import numpy as np

from .diag import (DiagonalCorrection, EstimationConfig, estimate_diagonal,
                   load_diagonal, residual_norm, rows_fit, save_diagonal,
                   source_blocks)
from .graph import (Config, Graph, check_vertex, check_walk_count,
                    load_edge_list)
from .join import DEFAULT_BETA_SKIP, DEFAULT_GAMMA_ACC, check_join_args, join
from .mc import mc_single_pair, mc_single_source
from .oracle import DEFAULT_CAP, mean_error, naive_simrank
from .query import (DEFAULT_OUTPUT_THRESHOLD, all_pairs, check_threshold,
                    single_pair, single_source, tsv_rows)
from .topk import DEFAULT_THETA_FLOOR, check_topk_args, topk_query

# largest passes*n*(n+m)*T for which a command without --diag estimates the
# diagonal exactly, passes the W passes of EstimationConfig(): 1 when
# diag.rows_fit(n), else L; n^2 prices the dense n x block arrays.
# On a 2-vCPU Xeon uniform n=1000, m=22700 (2.6e8) took 0.11 s; uniform
# n=4073, m=2840 (9.3e8) took 1.2 s and a 4767-vertex path (1.5e9) 1.9 s
EXACT_DEFAULT_MAX_WORK = 800_000_000


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", required=True, help="edge list file, 'u v' per line")
    parser.add_argument("--c", type=float, default=Config.c, help="decay factor")
    parser.add_argument("--T", type=int, default=Config.T, help="truncation depth")
    parser.add_argument("--seed", type=int, default=Config.seed, help="RNG seed")


def _load_graph(args) -> tuple[Graph, Config]:
    with open(args.graph) as fh:
        g = load_edge_list(fh)
    return g, Config(c=args.c, T=args.T, seed=args.seed)


def _diagonal(args, g: Graph, cfg: Config) -> DiagonalCorrection:
    """From --diag when given, else an exact-mode estimate at the defaults,
    refused above EXACT_DEFAULT_MAX_WORK."""
    if getattr(args, "diag", None):
        D = load_diagonal(args.diag)
        D.as_array(g.n)  # raises unless D has a value per vertex
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
    est_cfg = EstimationConfig()
    passes = 1 if rows_fit(g.n) else est_cfg.L
    work = passes * g.n * (g.n + g.m) * cfg.T
    if work > EXACT_DEFAULT_MAX_WORK:
        raise ValueError(
            f"without --diag the diagonal is estimated exactly, and "
            f"passes*n*(n+m)*T = {work} exceeds {EXACT_DEFAULT_MAX_WORK}; "
            f"estimate it with 'estimate-diag --mode mc --out FILE' and pass "
            f"--diag FILE")
    return estimate_diagonal(g, cfg, est_cfg)


def _sink(path):
    """The --out file opened for writing, or stdout, left open by ``with``."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def cmd_estimate_diag(args) -> int:
    g, cfg = _load_graph(args)
    est_cfg = EstimationConfig(L=args.L, R=args.R, mode=args.mode)
    start = time.perf_counter()
    D = estimate_diagonal(g, cfg, est_cfg)
    elapsed = time.perf_counter() - start
    save_diagonal(args.out, D)
    summary = (f"n={g.n} m={g.m} mode={args.mode} L={args.L} "
               f"clamped={D.clamped} skipped={D.skipped}")
    if args.mode == "exact":
        # read off the kept rows when they all fit, else one more W pass
        residual = (D.residual if D.residual is not None
                    else residual_norm(g, cfg, D))
        summary += f" residual_norm={residual:.3e}"
    print(summary)
    # stdout is the same on every rerun; the elapsed time goes to stderr
    print(f"time={elapsed:.3f}s", file=sys.stderr)
    return 0


def cmd_query(args) -> int:
    g, cfg = _load_graph(args)
    expected = {"pair": 2, "source": 1, "allpairs": 0}[args.submode]
    if len(args.vertices) != expected:
        raise ValueError(
            f"query {args.submode} takes {expected} vertex argument(s), "
            f"got {len(args.vertices)}")
    for v in args.vertices:
        check_vertex(g, v)
    if args.submode == "allpairs":
        if not args.out:
            raise ValueError("allpairs requires --out")
        check_threshold(args.threshold)
        if args.estimator == "mc":
            raise ValueError("allpairs has no Monte-Carlo estimator; "
                             "drop --estimator mc")
    mc = args.estimator == "mc"
    if mc:
        check_walk_count(args.R)
    D = _diagonal(args, g, cfg)
    rng = cfg.rng()

    if args.submode == "pair":
        i, j = args.vertices
        s = (mc_single_pair(g, cfg, D, i, j, args.R, rng) if mc
             else single_pair(g, cfg, D, i, j))
        print(f"{s:.6f}")
    elif args.submode == "source":
        (i,) = args.vertices
        col = (mc_single_source(g, cfg, D, i, args.R, rng) if mc
               else single_source(g, cfg, D, i))
        sys.stdout.write(tsv_rows((np.arange(g.n),), col))
    else:  # allpairs
        with open(args.out, "w") as fh:
            rows = all_pairs(g, cfg, D, fh, threshold=args.threshold)
        print(f"rows={rows}")
    return 0


def cmd_topk(args) -> int:
    g, cfg = _load_graph(args)
    check_vertex(g, args.source)
    check_topk_args(args.k, args.theta_floor)
    mc = args.estimator == "mc"
    if mc:
        check_walk_count(args.R)
    D = _diagonal(args, g, cfg)
    # topk_query draws its Monte-Carlo column from adaptive[1] walks
    adaptive = (args.R, args.R) if mc else None
    ranked = topk_query(g, cfg, D, None, args.source, args.k,
                        theta_floor=args.theta_floor, adaptive=adaptive,
                        rng=cfg.rng())
    for v, s in ranked:
        print(f"{v}\t{s:.6f}")
    return 0


def cmd_join(args) -> int:
    g, cfg = _load_graph(args)
    if not np.isfinite(args.beta_skip):
        raise ValueError(f"--beta-skip must be finite, got {args.beta_skip}")
    beta_skip = None if args.beta_skip <= 0 else args.beta_skip
    check_join_args(args.theta, args.gamma, beta_skip)
    D = _diagonal(args, g, cfg)
    result = join(g, cfg, D, args.theta, gamma_acc=args.gamma,
                  beta_skip=beta_skip, rng=cfg.rng())
    # every pair is certified; the third column stays for readers of the
    # three-column format until the benchmark's re-cut drops it
    with _sink(args.out) as sink:
        for i, j in sorted(result.result):
            sink.write(f"{i}\t{j}\tfilter\n")
    print(json.dumps(result.stats, sort_keys=True), file=sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    g, cfg = _load_graph(args)
    S = naive_simrank(g, cfg, cap=args.cap)
    js = np.arange(g.n)
    with _sink(args.out) as sink:
        for ks in source_blocks(g.n):
            sink.write(tsv_rows((np.repeat(ks, g.n), np.tile(js, len(ks))),
                                S[ks].ravel()))
    return 0


def cmd_accuracy(args) -> int:
    g, cfg = _load_graph(args)
    S_est = _read_scores(args.scores, g)
    S_true = naive_simrank(g, cfg, cap=args.cap)
    print(f"{mean_error(S_est, S_true):.9f}")
    return 0


def _read_scores(path, g: Graph) -> np.ndarray:
    """The n x n matrix of a 'i<TAB>j<TAB>score' file, 0 where no line names
    the pair; blank lines are skipped.  A line with ids that are not vertex
    indices of g, a score that is not finite, or a pair listed before raises
    ValueError naming its line."""
    S = np.zeros((g.n, g.n))
    first = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            parts = text.split("\t")
            where = f"{path}:{lineno}:"
            if len(parts) != 3:
                raise ValueError(f"{where} expected 'i<TAB>j<TAB>score'")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(
                    f"{where} expected integer vertex ids, got "
                    f"{parts[0]!r} and {parts[1]!r}") from None
            try:
                s = float(parts[2])
            except ValueError:
                s = np.nan
            if not np.isfinite(s):
                raise ValueError(
                    f"{where} expected a finite score, got {parts[2]!r}")
            try:
                check_vertex(g, i)
                check_vertex(g, j)
            except ValueError as exc:
                raise ValueError(f"{where} {exc}") from None
            if (i, j) in first:
                raise ValueError(f"{where} pair ({i}, {j}) already listed "
                                 f"on line {first[i, j]}")
            first[i, j] = lineno
            S[i, j] = s
    return S


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="simrank",
                                  description="Linearized SimRank toolkit")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate-diag", help="estimate the diagonal correction")
    _add_common(p)
    p.add_argument("--L", type=int, default=EstimationConfig.L, help="Gauss-Seidel sweeps")
    p.add_argument("--R", type=int, default=EstimationConfig.R,
                   help="walks per estimate (mc mode)")
    p.add_argument("--mode", choices=("exact", "mc"), default=EstimationConfig.mode)
    p.add_argument("--out", required=True, help="output diagonal file")

    p = sub.add_parser("query", help="similarity scores for pairs or sources")
    _add_common(p)
    p.add_argument("submode", choices=("pair", "source", "allpairs"))
    p.add_argument("vertices", type=int, nargs="*",
                   help="i j for pair, i for source, none for allpairs")
    p.add_argument("--diag", help="diagonal file (default: exact estimate)")
    p.add_argument("--estimator", choices=("exact", "mc"), default="exact",
                   help="mc for pair and source only")
    p.add_argument("--R", type=int, default=100, help="walks per mc estimate")
    p.add_argument("--out", help="output file (allpairs)")
    p.add_argument("--threshold", type=float, default=DEFAULT_OUTPUT_THRESHOLD,
                   help="allpairs emission threshold")

    p = sub.add_parser("topk", help="top-k most similar vertices")
    _add_common(p)
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theta-floor", type=float, default=DEFAULT_THETA_FLOOR, dest="theta_floor")
    p.add_argument("--diag", help="diagonal file (default: exact estimate)")
    p.add_argument("--estimator", choices=("exact", "mc"), default="exact")
    p.add_argument("--R", type=int, default=100,
                   help="walks for the mc column")

    p = sub.add_parser("join", help="all pairs above a similarity threshold")
    _add_common(p)
    p.add_argument("--theta", type=float, default=0.2,
                   help="similarity threshold in (0,1)")
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA_ACC,
                   help="accuracy split in [0,1); larger lowers the filter "
                        "tolerance (1-c)(1-gamma)theta, so the filter does more "
                        "work and leaves a narrower band to the look-ahead")
    p.add_argument("--beta-skip", type=float, default=DEFAULT_BETA_SKIP,
                   dest="beta_skip",
                   help="thresholding rate; <= 0 disables thresholding")
    p.add_argument("--diag", help="diagonal file (default: exact estimate)")
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("oracle", help="converged scores by fixed-point iteration")
    _add_common(p)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="vertex cap")
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("accuracy", help="mean error of a score file vs the oracle")
    _add_common(p)
    p.add_argument("--scores", required=True,
                   help="TSV 'i<TAB>j<TAB>score'; missing entries count as 0")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="oracle vertex cap")
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The build_parser tree of this process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up on each call, so that a rebinding of a cmd_* function (a
    # test's stub, a tracer's span) reaches the parser built once
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # runtime failure -> exit 1 with a message
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
