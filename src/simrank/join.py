"""Threshold similarity join.

A residual filter solves S = c P^T S P + D to accuracy
(1-c)(1-gamma_acc) theta in rounds of sparse matrix products, the
matrix-based iteration of Yu et al. applied to the residual system: every
round moves all residual entries that reach the tolerance into the solution
S-tilde at once and spreads c P^T R_sel P of them back into the residual
R-tilde.  It yields a lower set J_L (certain members) and an upper set J_H
(possible members, the support of S-tilde at gamma_acc = 0).  The band J_H
minus J_L then goes through a look-ahead: a few sparse frontier products
that add later terms of the residual series to each pair's lower bound and
shrink its upper bound, certifying pairs into J_L or dropping them.  Its
verdict is final: the pairs it leaves are counted and kept out of the
result, so the result is exactly J_L.  Optional stochastic thresholding
drops small fresh residual entries to bound memory, with an exponential
tail on the total mass dropped per entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .diag import DiagonalCorrection
from .graph import Config, Graph, check_theta

MAX_ENTRIES = 2 * 10**8
# the look-ahead stops after a level whose product with R-tilde stores more
# than this many entries per pair left
LOOK_AHEAD_ENTRIES = 1000
DEFAULT_BETA_SKIP = 100.0
DEFAULT_GAMMA_ACC = 0.0


class MemoryCapExceeded(RuntimeError):
    """Raised when the filter outgrows the entry cap; stats attached."""

    def __init__(self, message: str, stats: dict):
        super().__init__(message)
        self.stats = stats


def check_join_args(theta: float, gamma_acc: float = DEFAULT_GAMMA_ACC,
                    beta_skip: float | None = None) -> None:
    """Raise ValueError naming the first join argument that is out of range.

    Every comparison is written so that nan fails it: theta in (0, 1),
    gamma_acc in [0, 1) and beta_skip (when set) finite and positive.
    """
    check_theta(theta)
    if not 0.0 <= gamma_acc < 1.0:
        raise ValueError(f"gamma_acc must be in [0,1), got {gamma_acc}")
    if beta_skip is not None and not 0.0 < beta_skip < math.inf:
        raise ValueError(
            f"beta_skip must be positive and finite, got {beta_skip}")


def allocation_draw(a, beta_skip: float, rng: np.random.Generator):
    """Whether fresh entries receiving masses a get allocated.

    Each is allocated with probability min(1, beta_skip * a), one uniform draw
    per entry; a skipped entry drops its mass.  Over draws on masses summing
    to A, all skipped with probability at most exp(-beta_skip * A), so the
    dropped total at one entry exceeds delta with probability at most
    exp(-beta_skip * delta).  The single rule of both the filter's rounds
    and stochastic_threshold.
    """
    # a uniform draw in [0, 1) is below min(1, x) exactly when it is below x
    return rng.random(np.shape(a)) < beta_skip * np.asarray(a)


@dataclass
class ResidualStore:
    """Residuals on unordered pairs i <= j, fed one push at a time.

    The one-push form of the filter's allocation rule, for checking its tail
    entry by entry through stochastic_threshold; the filter itself works on
    sparse matrices.  A key present in residuals counts as allocated.
    """

    eps: float
    residuals: dict[tuple[int, int], float] = field(default_factory=dict)
    stats: dict = field(default_factory=lambda: {"allocations": 0, "skips": 0})


def stochastic_threshold(store: ResidualStore, i: int, j: int, a: float,
                         beta_skip: float,
                         rng: np.random.Generator) -> bool:
    """Route mass a toward entry (i, j), possibly skipping the allocation.

    An already-allocated entry always accumulates.  A fresh entry is allocated
    by allocation_draw; on a skip the mass is dropped.
    """
    if a < 0:
        raise ValueError(f"pushed mass must be non-negative, got {a}")
    key = (i, j) if i <= j else (j, i)
    if key in store.residuals:
        store.residuals[key] += a
        return True
    if allocation_draw(a, beta_skip, rng):
        store.stats["allocations"] += 1
        store.residuals[key] = a
        return True
    store.stats["skips"] += 1
    return False


def _rows(A: sp.csr_matrix) -> np.ndarray:
    """The row of each stored entry of CSR matrix A."""
    return np.repeat(np.arange(A.shape[0], dtype=A.indices.dtype),
                     np.diff(A.indptr))


def _select(A: sp.csr_matrix, rows: np.ndarray,
            mask: np.ndarray) -> sp.csr_matrix:
    """The stored entries of CSR matrix A where mask holds; rows = _rows(A)."""
    indptr = np.zeros(A.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[mask], minlength=A.shape[0]), out=indptr[1:])
    return sp.csr_matrix((A.data[mask], A.indices[mask], indptr),
                         shape=A.shape)


def _drop(A: sp.csr_matrix, mask: np.ndarray) -> None:
    """Remove the stored entries of CSR matrix A where mask holds, in place.

    Stored zeros go too; in the filter every entry that carries mass is
    positive.
    """
    A.data[mask] = 0.0
    A.eliminate_zeros()


def _symmetric(U: sp.csr_matrix) -> sp.csr_matrix:
    """The symmetric matrix whose upper triangle is U."""
    return (U + sp.triu(U, k=1).T).tocsr()


def _upper(A: sp.csr_matrix) -> sp.csr_matrix:
    """The upper triangle (i <= j) of CSR matrix A, as a new CSR matrix."""
    rows = _rows(A)
    return _select(A, rows, A.indices >= rows)


def _keys(A: sp.csr_matrix) -> np.ndarray:
    """Row-major linear index of each stored entry of A, ascending when A
    has sorted indices."""
    return _rows(A).astype(np.int64) * A.shape[1] + A.indices


def _fresh(Q: sp.csr_matrix, R: sp.csr_matrix,
           S: sp.csr_matrix) -> np.ndarray:
    """Mask of the stored entries of Q outside the supports of R and S.

    All three have sorted indices, and S is not empty.
    """
    held = _keys(R + S)
    q = _keys(Q)
    return held[np.minimum(np.searchsorted(held, q), len(held) - 1)] != q


def _spread(g: Graph, cfg: Config, R_sel: sp.csr_matrix, R: sp.csr_matrix,
            S: sp.csr_matrix, beta_skip: float | None,
            rng: np.random.Generator | None, stats: dict) -> sp.csr_matrix:
    """The upper triangle of c P^T R_sel P, R_sel given by its upper triangle.

    With beta_skip set, the entries outside the supports of R and S go
    through allocation_draw and the skipped ones are dropped.  A function of
    its own so that the full product and its masks are freed when it
    returns: the full product is the largest array of a round.
    """
    Q = g.PT @ (_symmetric(R_sel) @ g.P)
    Q.sort_indices()
    Q = _upper(Q)
    Q.data *= cfg.c
    stats["pushes"] += Q.nnz
    if beta_skip is not None:
        fresh = _fresh(Q, R, S)
        kept = allocation_draw(Q.data[fresh], beta_skip, rng)
        stats["allocations"] += int(kept.sum())
        stats["skips"] += int(kept.size - kept.sum())
        fresh[fresh] = ~kept
        _drop(Q, fresh)
    return Q


@dataclass
class FilterResult:
    """Upper triangles (i <= j) of S-tilde and R-tilde when the filter stops.

    S and R are CSR; every stored value is non-negative.  eps is the
    tolerance the filter ran to, stats its counters.
    """

    eps: float
    S: sp.csr_matrix
    R: sp.csr_matrix
    stats: dict

    @property
    def solution(self) -> dict[tuple[int, int], float]:
        """S-tilde as {(i, j): value} over its stored entries, i <= j; built
        on each access."""
        return dict(zip(zip(_rows(self.S).tolist(), self.S.indices.tolist()),
                        self.S.data.tolist()))

    def dense_solution(self) -> np.ndarray:
        """S-tilde as a dense symmetric n x n array over the vertices."""
        return _symmetric(self.S).toarray()

    def dense_residual(self) -> np.ndarray:
        """R-tilde as a dense symmetric n x n array over the vertices."""
        return _symmetric(self.R).toarray()


def gauss_southwell_filter(g: Graph, cfg: Config, D: DiagonalCorrection,
                           theta: float, gamma_acc: float = DEFAULT_GAMMA_ACC,
                           beta_skip: float | None = None,
                           rng: np.random.Generator | None = None) -> FilterResult:
    """Run the residual filter to tolerance eps = (1-c)(1-gamma_acc) theta.

    Starts from S-tilde = 0, R-tilde = D and works in rounds.  A round takes
    every entry with R-tilde >= eps as R_sel, sets S-tilde += R_sel and
    R-tilde <- R-tilde - R_sel + c P^T R_sel P (entry (a, b) of the product
    gathers R_sel[i, j] / (|I(a)||I(b)|) over i in I(a), j in I(b)), and the
    filter stops when no entry reaches eps.  Both matrices are symmetric
    and only their upper triangles are stored; the product is taken of the
    full R_sel and cut back to its upper triangle.

    With beta_skip set, the product's fresh entries, those outside the
    supports of R-tilde and S-tilde, pass through allocation_draw once per
    round on the round's mass for the entry.  With D >= 0 no stored entry
    cancels to zero, so the two supports are the allocated entries.

    The name is that of the Gauss-Southwell relaxation this filter started
    as; it is kept because callers and the acceptance criteria use it.
    Counters, each summed over rounds: ``rounds``; ``relaxations``, the
    entries of the full matrix moved into S-tilde (an off-diagonal stored
    entry stands for two); ``total_pushed``, the mass they carried;
    ``pushes``, the stored entries of each product; ``allocations`` and
    ``skips``, its fresh entries kept and dropped; and ``max_entries``, the
    most entries of R-tilde and S-tilde stored at once.  More than
    MAX_ENTRIES stored raises MemoryCapExceeded.
    """
    check_join_args(theta, gamma_acc, beta_skip)
    dvals = D.as_array(g.n)
    bad = ~(np.isfinite(dvals) & (dvals >= 0.0))
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise ValueError(f"diagonal must be finite and non-negative, "
                         f"got {dvals[k]} at vertex {k}")
    if beta_skip is not None and rng is None:
        rng = cfg.rng()

    eps = (1.0 - cfg.c) * (1.0 - gamma_acc) * theta
    n = g.n
    ks = np.flatnonzero(dvals)
    R = sp.csr_matrix((dvals[ks], (ks, ks)), shape=(n, n))
    S = sp.csr_matrix((n, n))
    stats = {"rounds": 0, "relaxations": 0, "pushes": 0, "allocations": 0,
             "skips": 0, "max_entries": R.nnz, "total_pushed": 0.0}
    while True:
        rows = _rows(R)
        # R-tilde >= 0 throughout, since D >= 0 and P >= 0
        sel = R.data >= eps
        if not sel.any():
            break
        R_sel = _select(R, rows, sel)
        _drop(R, sel)
        S = S + R_sel
        off = rows[sel] != R_sel.indices
        stats["rounds"] += 1
        stats["relaxations"] += int(sel.sum() + off.sum())
        stats["total_pushed"] += float(R_sel.data.sum() + R_sel.data[off].sum())
        R = R + _spread(g, cfg, R_sel, R, S, beta_skip, rng, stats)
        entries = R.nnz + S.nnz
        stats["max_entries"] = max(stats["max_entries"], entries)
        if entries > MAX_ENTRIES:
            raise MemoryCapExceeded(
                f"filter exceeded {MAX_ENTRIES} stored entries", stats)
    return FilterResult(eps, S, R, stats)


@dataclass
class LookAhead:
    """Bounds on S for each band pair when the look-ahead stops.

    lo and up bound a pair's score at the last level run for it (up with
    thresholding off); a pair with lo >= theta is settled in, one with up <
    theta settled out, and the rest are left.  levels counts the sparse
    products taken.
    """

    lo: np.ndarray
    up: np.ndarray
    settled_in: np.ndarray
    settled_out: np.ndarray
    levels: int

    @property
    def left(self) -> np.ndarray:
        return ~(self.settled_in | self.settled_out)


def look_ahead(g: Graph, cfg: Config, filt: FilterResult, band,
               theta: float) -> LookAhead:
    """Settle band pairs (i, j), i < j, by the terms t >= 1 of the invariant.

    With F_t = (P^t e_i)^T and G_t = (P^t e_j)^T, the frontier rows after t
    steps, S_ij - (S-tilde + R-tilde)_ij = sum_{t>=1} c^t F_t (R-tilde + X)
    G_t^T, every term non-negative (see join), so level l gives

        lo_l = (S-tilde + R-tilde)_ij + sum_{1<=t<=l} c^t F_t R-tilde G_t^T,

    a lower bound on S_ij with or without thresholding.  The row sums of
    F_t never grow with t, as P is column-substochastic, so with X = 0 the
    remaining terms are at most c^{l+1} max(R-tilde) |F_l|_1 |G_l|_1 / (1-c),
    and up_l is lo_l plus that.  Level 0 reads the filter's state alone.
    Each level takes one product of the stacked frontier rows of every
    endpoint left with P^T and one with the symmetric R-tilde, for all pairs
    at once.  The look-ahead stops when no pair is left, after cfg.T levels,
    or after a level whose product with R-tilde stores more than
    LOOK_AHEAD_ENTRIES entries per pair left.  An empty band returns before
    anything is built.

    Ties: up to rounding, a pair scoring exactly theta never settles out,
    as its up stays at or above theta; it settles in only if lo reaches
    theta, and is left otherwise.
    """
    band = np.asarray(band, dtype=np.int64).reshape(-1, 2)
    if not len(band):
        none = np.zeros(0, dtype=bool)
        return LookAhead(np.zeros(0), np.zeros(0), none, none, 0)
    i, j = band[:, 0], band[:, 1]
    lo = np.asarray(filt.S[i, j] + filt.R[i, j]).ravel()
    tail = cfg.c * float(filt.R.data.max(initial=0.0)) / (1.0 - cfg.c)
    up = lo + tail
    settled_in, settled_out = lo >= theta, up < theta
    left = np.flatnonzero(~(settled_in | settled_out))
    if not left.size:
        return LookAhead(lo, up, settled_in, settled_out, 0)

    R = _symmetric(filt.R)
    verts, ends = np.unique(band[left].ravel(), return_inverse=True)
    ends = ends.reshape(-1, 2)
    F = sp.csr_matrix((np.ones(len(verts)), verts, np.arange(len(verts) + 1)),
                      shape=(len(verts), g.n))
    levels = 0
    while left.size and levels < cfg.T:
        F = F @ g.PT
        A = F @ R
        levels += 1
        weight = cfg.c ** levels
        gain = A[ends[:, 0]].multiply(F[ends[:, 1]]).sum(axis=1)
        lo[left] += weight * np.asarray(gain).ravel()
        mass = np.asarray(F.sum(axis=1)).ravel()
        up[left] = lo[left] + weight * tail * mass[ends[:, 0]] * mass[ends[:, 1]]
        settled_in[left] = lo[left] >= theta
        settled_out[left] = up[left] < theta
        if A.nnz > left.size * LOOK_AHEAD_ENTRIES:
            break
        keep = ~(settled_in[left] | settled_out[left])
        left = left[keep]
        rows, ends = np.unique(ends[keep].ravel(), return_inverse=True)
        ends = ends.reshape(-1, 2)
        F = F[rows]
    return LookAhead(lo, up, settled_in, settled_out, levels)


@dataclass
class JoinResult:
    """The join's sets and counters; the result is J_L.  verified is always
    empty and stats["verified"] and stats["samples"] always 0, kept for the
    benchmark's readers until its re-cut removes them."""

    J_L: set[tuple[int, int]]
    J_H: set[tuple[int, int]]
    verified: set[tuple[int, int]]
    stats: dict

    @property
    def result(self) -> set[tuple[int, int]]:
        return set(self.J_L)


def _pairs(A: sp.csr_matrix, keep: np.ndarray) -> set[tuple[int, int]]:
    """Off-diagonal (i, j), i < j, of the upper-triangular CSR A where keep
    holds for its stored value."""
    rows = _rows(A)
    mask = keep & (rows < A.indices)
    return set(zip(rows[mask].tolist(), A.indices[mask].tolist()))


def join(g: Graph, cfg: Config, D: DiagonalCorrection, theta: float,
         gamma_acc: float = DEFAULT_GAMMA_ACC, beta_skip: float | None = None,
         rng: np.random.Generator | None = None) -> JoinResult:
    """Unordered vertex pairs with similarity >= theta, every one certified.

    J_H holds the off-diagonal pairs with S-tilde + R-tilde >=
    (1 - c(1-gamma_acc)) theta, read from the filter's state when it stops,
    with D >= 0 (the filter rejects any other D) and eps =
    (1-c)(1-gamma_acc) theta.  J_L holds the pairs with S-tilde + R-tilde >=
    theta and the band pairs (J_H minus those) that look_ahead certifies.
    The result is J_L.

    Invariant: S = c P^T S P + D and S-tilde = c P^T S-tilde P + D - R-tilde
    - X, where X >= 0 is the mass thresholding dropped (0 with it off), so
    S - S-tilde = sum_t c^t P^{Tt} (R-tilde + X) P^t.  Every term is
    non-negative, as D >= 0 makes every residual and every pushed mass
    non-negative.

    J_L is sound, with or without thresholding: the t = 0 term alone gives
    S - S-tilde >= R-tilde, so S >= S-tilde + R-tilde >= theta, and a
    certified pair has a partial sum of the series at or above theta.

    J_H is complete with thresholding off: at termination every residual is
    below eps, and P is column-substochastic, so each entry of
    P^{Tt} R-tilde P^t is below eps too.  The terms t >= 1 then give
    S - (S-tilde + R-tilde) < c eps / (1-c) = c(1-gamma_acc) theta, and
    S >= theta implies S-tilde + R-tilde > (1 - c(1-gamma_acc)) theta.
    With beta_skip set, the dropped mass X adds to the gap, so completeness
    holds with high probability: per entry the dropped total exceeds delta
    with probability at most exp(-beta_skip * delta), the tail of
    allocation_draw that acceptance criterion 10 checks.

    At gamma_acc = 0 the bound is (1-c) theta = eps, and J_H is the support
    of S-tilde: every stored entry of S-tilde was moved there from a
    residual >= eps, and an entry outside it holds a residual below eps.

    The band J_H minus {S-tilde + R-tilde >= theta} goes through
    look_ahead, which settles pairs by later terms of the same series.  Its
    settle-out bound leaves out X like J_H's cut does, but with less slack:
    J_H's cut allows c eps / (1-c) for the terms t >= 1, the look-ahead only
    c^{l+1} max(R-tilde) / (1-c) beyond level l.  So with thresholding on, a
    pair is dropped wrongly only when X at the entries its walks meet
    exceeds that smaller margin, which criterion 10's tail makes improbable
    as it does for J_H.  The look-ahead's verdict is final: the pairs it
    leaves are kept out of the result and counted in stats["left"], so the
    result is exactly as sound as J_L.  A pair scoring exactly theta is in
    it only if the look-ahead's lower bound reaches theta, and rounding can
    settle it out.  Deterministic under a fixed seed.
    """
    check_join_args(theta, gamma_acc, beta_skip)
    filt = gauss_southwell_filter(g, cfg, D, theta, gamma_acc, beta_skip, rng)
    held = filt.S + filt.R
    J_L = _pairs(held, held.data >= theta)
    J_H = _pairs(held, held.data >= (1.0 - cfg.c * (1.0 - gamma_acc)) * theta)

    band = np.array(sorted(J_H - J_L), dtype=np.int64).reshape(-1, 2)
    ahead = look_ahead(g, cfg, filt, band, theta)
    J_L |= set(map(tuple, band[ahead.settled_in].tolist()))

    stats = dict(filt.stats)
    stats.update({"J_L": len(J_L), "J_H": len(J_H),
                  "lookahead_levels": ahead.levels,
                  "settled_in": int(ahead.settled_in.sum()),
                  "settled_out": int(ahead.settled_out.sum()),
                  "left": int(ahead.left.sum()),
                  "verified": 0, "samples": 0})
    return JoinResult(J_L, J_H, set(), stats)
