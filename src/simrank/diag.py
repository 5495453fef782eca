"""Diagonal correction estimation.

The correction matrix D is the diagonal matrix making S = c P^T S P + D hold
for the true similarity matrix.  It is characterized by S^L(D)_kk = 1 for all
k, where S^L(Theta) = sum_t c^t P^{T t} Theta P^t.  We solve that condition by
Gauss-Seidel sweeps: each visit updates D_kk by (1 - S^L(D)_kk) /
S^L(E^(k,k))_kk, with the two inner quantities evaluated either by exact
truncated propagation or by Monte-Carlo walk histograms.

Both modes work a block of sources at a time.  The row
W[k, :] = sum_{t<T} c^t (P^t e_k)^2 does not depend on D, so
S^L(E^(k,k))_kk = W[k, k] and S^L(D)_kk = W[k, :] . diag(D).  Exact mode
computes a block's rows with sparse P @ X (``weight_rows``); MC mode walks R
walks from every source of the block together and counts (source, position)
keys per step, so P^t e_k becomes the empirical frequency and the rows come
out sparse (``walk_rows``).  The block's updates then run in vertex order
against the values updated so far (true Gauss-Seidel), the same loop for
both modes: W[k, k] is read for the whole block at once, and each vertex
takes one row dot.  The first exact sweep keeps the rows of the first blocks
that fit ROW_BUDGET entries and later sweeps read them instead of
propagating again; when they cover every block, the residual
max_k |S^L(D)_kk - 1| of the result is read off them too, so a graph whose
rows all fit takes one W pass for the estimate and its residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .graph import Config, Graph, walk_steps

EXACT_CLAMP_SLACK = 1e-9
MC_CLAMP_SLACK = 0.05
# entries in each dense block array of the exact kernel: a block holds
# max(1, BLOCK_BUDGET // n) sources, so its arrays stay near 2^15 entries
# (n once n exceeds that) instead of the n^2 of propagating all sources at once
BLOCK_BUDGET = 2**15
# exact rows kept across sweeps and for the residual, at any L: 2^20 float64
# entries (8 MB), every row of a graph with n <= 1024
ROW_BUDGET = 2**20
# walks in flight in one MC block: a block holds max(1, WALK_BUDGET // R) sources
WALK_BUDGET = 2**15


@dataclass
class DiagonalCorrection:
    """diag(D) as ``values``, with the estimate's parameters and counters.

    ``residual`` is max_k |S^L(D)_kk - 1| of the values as estimate_diagonal
    returned them, bitwise equal to ``residual_norm``.  Exact mode reads it
    off the rows it kept when they cover every block; it is None where it
    was not computed: MC mode, rows recomputed per sweep, a loaded file.
    """

    values: np.ndarray
    params: dict = field(default_factory=dict)
    clamped: int = 0
    skipped: int = 0
    residual: float | None = None

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class EstimationConfig:
    L: int = 3
    R: int = 100
    mode: str = "exact"  # "exact" | "mc"

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if self.mode not in ("exact", "mc"):
            raise ValueError(f"mode must be 'exact' or 'mc', got {self.mode!r}")
        if self.mode == "mc" and self.R < 1:
            raise ValueError(f"R must be >= 1 in mc mode, got {self.R}")

    @property
    def clamp_slack(self) -> float:
        return EXACT_CLAMP_SLACK if self.mode == "exact" else MC_CLAMP_SLACK


def initial_guess(g: Graph, cfg: Config) -> DiagonalCorrection:
    """diag(D) = 1 - c * sum_i P_ik^2; one pass over in-degrees.

    Column k of P holds |I(k)| entries of 1/|I(k)|, so the column sum of
    squares is 1/|I(k)| (0 for an isolated column, giving D_kk = 1).
    """
    values = np.ones(g.n)
    nonzero = g.in_degree > 0
    values[nonzero] -= cfg.c / g.in_degree[nonzero]
    return DiagonalCorrection(values, params=_params(cfg, None, "initial"))


def source_blocks(n: int, size: int | None = None):
    """Vertices 0..n-1 in consecutive blocks of size, by default
    max(1, BLOCK_BUDGET // n)."""
    if size is None:
        size = max(1, BLOCK_BUDGET // max(n, 1))
    for start in range(0, n, size):
        yield np.arange(start, min(start + size, n))


def propagate(g: Graph, cfg: Config, ks: np.ndarray | int):
    """Yield the dense n x len(ks) array P^t E_ks for t = 0..T-1: its column
    j is P^t e_{ks[j]}.  A scalar source yields the length-n vector P^t e_ks,
    which keeps the one-source case on sparse matrix-vector products."""
    if np.ndim(ks) == 0:
        X = np.zeros(g.n)
        X[ks] = 1.0
    else:
        X = np.zeros((g.n, len(ks)))
        X[ks, np.arange(len(ks))] = 1.0
    for t in range(cfg.T):
        yield X
        if t + 1 < cfg.T:
            X = g.P @ X


def weight_rows(g: Graph, cfg: Config, ks: np.ndarray) -> np.ndarray:
    """W[j, :] = sum_{t<T} c^t (P^t e_{ks[j]})^2, one row per source in ks."""
    W = np.zeros((g.n, len(ks)))
    weight = 1.0
    for X in propagate(g, cfg, ks):
        W += weight * (X * X)
        weight *= cfg.c
    return np.ascontiguousarray(W.T)


def walk_rows(g: Graph, cfg: Config, ks: np.ndarray, R: int,
              rng: np.random.Generator) -> sp.csr_matrix:
    """Sparse W[j, :] = sum_{t<T} c^t (h_t / R)^2, with h_t the step-t
    position counts of R walks from ks[j]; the walks of all sources run
    together on ``walk_steps``, R consecutive walks per source, and draw in
    its order."""
    n = g.n
    row_of_walk = np.repeat(np.arange(len(ks)) * n, R)
    keys, vals = [], []
    weight = 1.0
    for pos, walk in walk_steps(g, np.repeat(ks, R), cfg.T, rng):
        key = row_of_walk[walk] + pos
        key.sort()
        edge = np.ones(len(key) + 1, dtype=bool)  # run boundaries of equal keys
        np.not_equal(key[1:], key[:-1], out=edge[1:-1])
        bounds = np.flatnonzero(edge)
        counts = bounds[1:] - bounds[:-1]
        keys.append(key[bounds[:-1]])
        vals.append(weight * (counts / R) ** 2)
        weight *= cfg.c
    key = np.concatenate(keys)
    return sp.csr_matrix((np.concatenate(vals), (key // n, key % n)),
                         shape=(len(ks), n))


def _block_rows(g: Graph, cfg: Config, est_cfg: EstimationConfig,
                ks: np.ndarray, seed):
    """The rows W[j, :] of ks by ``weight_rows`` (exact; seed unread) or by
    ``walk_rows`` on np.random.default_rng(seed), which keeps a Generator."""
    if est_cfg.mode == "exact":
        return weight_rows(g, cfg, ks)
    return walk_rows(g, cfg, ks, est_cfg.R, np.random.default_rng(seed))


def _block_diagonal(W, ks: np.ndarray) -> np.ndarray:
    """W[j, ks[j]] for every row j of a dense or a CSR block of rows; a CSR
    row without that entry gives 0.0."""
    if sp.issparse(W):
        rows = np.repeat(np.arange(len(ks)), np.diff(W.indptr))
        hit = W.indices == ks[rows]
        return np.bincount(rows[hit], weights=W.data[hit], minlength=len(ks))
    return W[np.arange(len(ks)), ks]


def inner_estimates(g: Graph, cfg: Config, D: DiagonalCorrection, k: int,
                    est_cfg: EstimationConfig,
                    rng: np.random.Generator | None = None) -> tuple[float, float]:
    """Truncated (a, b) with a ~ S^L(E^(k,k))_kk and b ~ S^L(D)_kk.

    a = sum_t c^t (P^t e_k)_k^2 and b = sum_t c^t sum_w (P^t e_k)_w^2 D_ww;
    both are read off the one-source row W[k, :] of ``weight_rows`` (exact)
    or ``walk_rows`` (mc, squared empirical frequencies of R walks).
    """
    ks = np.array([k])
    W = _block_rows(g, cfg, est_cfg, ks, rng if rng is not None else cfg.seed)
    d = D.as_array()
    b = W.data @ d[W.indices] if sp.issparse(W) else W[0] @ d
    return float(_block_diagonal(W, ks)[0]), float(b)


def estimate_diagonal(g: Graph, cfg: Config,
                      est_cfg: EstimationConfig) -> DiagonalCorrection:
    """L Gauss-Seidel sweeps over k = 0..n-1 from the initial guess.

    In exact mode, at any L, the rows of the first blocks that fit
    ROW_BUDGET entries are kept from the first sweep, so a graph whose n^2
    rows fit takes one W pass; the other blocks are computed again in every
    sweep.  The extra memory is at most 8 * ROW_BUDGET bytes plus one block,
    and D is the same bitwise as with no rows kept.  When every block was
    kept, D.residual is max_k |W[k, :] . diag(D) - 1| from those rows,
    bitwise equal to ``residual_norm``; otherwise it is None.  MC rows are
    drawn afresh on every (sweep, block) stream, and D.residual is None.
    """
    D = initial_guess(g, cfg)
    d = D.values
    # never below 0: the true correction is at least 1 - c > 0, and
    # load_diagonal and the join reject a negative one
    lo = max(1.0 - cfg.c - est_cfg.clamp_slack, 0.0)
    hi = 1.0 + est_cfg.clamp_slack
    clamped = skipped = 0
    exact = est_cfg.mode == "exact"
    blocks = list(source_blocks(
        g.n, None if exact else max(1, WALK_BUDGET // est_cfg.R)))
    # exact rows do not depend on D, so later sweeps and the residual can
    # read them; a block holds at least one entry, so no room keeps nothing
    room = ROW_BUDGET if exact else 0
    kept = []
    for sweep in range(est_cfg.L):
        for b, ks in enumerate(blocks):
            if b < len(kept):
                W = kept[b]
            else:
                # mc: one stream per (sweep, block), named by its first vertex
                W = _block_rows(g, cfg, est_cfg, ks,
                                [cfg.seed, sweep, int(ks[0])])
                if b == len(kept) and W.size <= room:
                    kept.append(W)
                    room -= W.size
            # each row's dot is taken when the loop reaches it, so it reads
            # the values updated so far (Gauss-Seidel)
            if sp.issparse(W):
                ptr, cols, vals = W.indptr.tolist(), W.indices, W.data
                dots = (vals[i:j].dot(d[cols[i:j]])
                        for i, j in zip(ptr, ptr[1:]))
            else:
                dots = (w.dot(d) for w in W)
            for k, a, dot in zip(ks.tolist(), _block_diagonal(W, ks).tolist(),
                                 dots):
                if a <= 0.0:
                    skipped += 1
                    continue
                updated = d.item(k) + (1.0 - dot) / a
                value = min(max(updated, lo), hi)
                if value != updated:
                    clamped += 1
                d[k] = value
    D.clamped, D.skipped = clamped, skipped
    if exact and len(kept) == len(blocks):
        D.residual = max((float(np.max(np.abs(W @ d - 1.0))) for W in kept),
                         default=0.0)
    D.params = _params(cfg, est_cfg, est_cfg.mode)
    return D


def residual_norm(g: Graph, cfg: Config, D: DiagonalCorrection) -> float:
    """max_k |S^L(D)_kk - 1| with S^L truncated at T, exact, block by block;
    0.0 on a graph with no vertices."""
    dvals = D.as_array()
    return max((float(np.max(np.abs(weight_rows(g, cfg, ks) @ dvals - 1.0)))
                for ks in source_blocks(g.n)), default=0.0)


def _params(cfg: Config, est_cfg: EstimationConfig | None, mode: str) -> dict:
    return {
        "c": cfg.c,
        "T": cfg.T,
        "L": est_cfg.L if est_cfg else None,
        "R": est_cfg.R if est_cfg else None,
        "seed": cfg.seed,
        "mode": mode,
    }


def save_diagonal(path, D: DiagonalCorrection) -> None:
    """Write D as a header line and one %.17g value per line."""
    p = D.params
    header = ("simrank-diag v1 n={n} c={c} T={T} L={L} R={R} "
              "mode={mode} seed={seed}").format(
        n=len(D.values), c=p.get("c"), T=p.get("T"), L=p.get("L"),
        R=p.get("R"), mode=p.get("mode"), seed=p.get("seed"))
    with open(path, "w") as fh:
        fh.write(header + "\n"
                 + "".join(map("{:.17g}\n".format, D.as_array().tolist())))


def load_diagonal(path) -> DiagonalCorrection:
    """Read a save_diagonal file; a malformed one, or one holding a negative
    or non-finite value, raises ValueError naming its line.

    The n values after the header are parsed with float() in one pass and
    range-checked with one mask; lines after them are ignored.  Only a file
    that fails is read again line by line, to name the line.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        fields = header.split()
        if fields[:2] != ["simrank-diag", "v1"]:
            raise ValueError(f"not a diagonal file: header {header!r}")
        params = {}
        for item in fields[2:]:
            key, _, raw = item.partition("=")
            params[key] = raw
        try:
            n = int(params.pop("n"))
            if n < 0:
                raise ValueError
            typed = {key: _typed(key, raw) for key, raw in params.items()}
        except (KeyError, ValueError):
            raise ValueError(f"{path}:1: bad diagonal header {header!r}") from None
        lines = fh.read().split("\n", n)
    if len(lines) <= n and not lines[-1]:
        lines.pop()  # the empty rest after a final line break is no line
    lines = lines[:n]
    try:
        values = np.fromiter(map(float, lines), dtype=float, count=n)
    except ValueError:  # a line that is no number, or fewer than n lines
        values = None
    # the true correction lies in [1-c, 1]; the join's soundness proof needs
    # D >= 0, and nan fails both comparisons
    if values is None or not np.all((values >= 0.0) & (values < np.inf)):
        _raise_at_bad_line(path, lines, n)
    return DiagonalCorrection(values, params=typed)


def _raise_at_bad_line(path, lines: list[str], n: int) -> None:
    """Raise the ValueError of the first of the value lines (file line 2 on)
    that is not a finite non-negative number, or of a file that ends before
    n of them."""
    for k, line in enumerate(lines):
        try:
            value = float(line)
        except ValueError:
            raise ValueError(
                f"{path}:{k + 2}: expected a number, got {line.strip()!r}") from None
        if not 0.0 <= value < np.inf:
            raise ValueError(
                f"{path}:{k + 2}: diagonal values must be finite and "
                f"non-negative, got {line.strip()!r}")
    raise ValueError(
        f"{path}:{len(lines) + 2}: file ends after {len(lines)} of {n} values")


def _typed(key: str, raw: str):
    if raw == "None":
        return None
    if key in ("T", "L", "R", "seed"):
        return int(raw)
    if key == "c":
        return float(raw)
    return raw
