"""Threshold similarity join.

A Gauss-Southwell residual filter solves S = c P^T S P + D entrywise to
accuracy (1-c)(1-gamma_acc) theta, producing a lower set J_L (certain members)
and an upper set J_H (possible members, S-tilde > 0 at gamma_acc = 0).  Pairs
in J_H minus J_L go through one batched Monte-Carlo verification.  Optional
stochastic thresholding drops tiny residual allocations to bound memory, with
an exponential tail on the total mass dropped per entry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .diag import DiagonalCorrection
from .graph import Config, Graph
from .mc import verify_pairs

DEFAULT_MAX_ENTRIES = 2 * 10**8
DEFAULT_BETA_SKIP = 100.0


class MemoryCapExceeded(RuntimeError):
    """Raised when the residual store outgrows the entry cap; stats attached."""

    def __init__(self, message: str, stats: dict):
        super().__init__(message)
        self.stats = stats


@dataclass
class ResidualStore:
    """Sparse symmetric state of the filter, stored on unordered pairs i <= j.

    residuals holds R-tilde, solution holds S-tilde; a key present in
    residuals counts as allocated for thresholding purposes even after its
    value is drained to zero.  The worklist is a FIFO queue with lazy
    deletion: popped keys are revalidated against eps.
    """

    eps: float
    residuals: dict[tuple[int, int], float] = field(default_factory=dict)
    solution: dict[tuple[int, int], float] = field(default_factory=dict)
    stats: dict = field(default_factory=lambda: {
        "relaxations": 0, "pushes": 0, "allocations": 0, "skips": 0,
        "max_entries": 0, "total_pushed": 0.0})
    _fifo: deque = field(default_factory=deque)
    _queued: set = field(default_factory=set)

    def enqueue(self, key: tuple[int, int]) -> None:
        if key in self._queued:
            return
        self._queued.add(key)
        self._fifo.append(key)

    def pop(self) -> tuple[int, int] | None:
        """Next key with |residual| >= eps, or None when the worklist drains."""
        while self._fifo:
            key = self._fifo.popleft()
            self._queued.discard(key)
            if abs(self.residuals.get(key, 0.0)) >= self.eps:
                return key
        return None

    def accumulate(self, key: tuple[int, int], a: float) -> None:
        self.residuals[key] = self.residuals.get(key, 0.0) + a
        self.stats["max_entries"] = max(self.stats["max_entries"],
                                        len(self.residuals))
        if abs(self.residuals[key]) >= self.eps:
            self.enqueue(key)

    def dense_solution(self, n: int) -> np.ndarray:
        S = np.zeros((n, n))
        for (i, j), v in self.solution.items():
            S[i, j] = v
            S[j, i] = v
        return S

    def dense_residual(self, n: int) -> np.ndarray:
        R = np.zeros((n, n))
        for (i, j), v in self.residuals.items():
            R[i, j] = v
            R[j, i] = v
        return R


def stochastic_threshold(store: ResidualStore, i: int, j: int, a: float,
                         beta_skip: float,
                         rng: np.random.Generator) -> bool:
    """Route mass a toward entry (i, j), possibly skipping the allocation.

    An already-allocated entry always accumulates.  A fresh entry is allocated
    with probability min(1, beta_skip * a); on a skip the mass is dropped.
    Over a stream of values summing to A, the dropped total exceeds delta with
    probability at most exp(-beta_skip * delta).
    """
    if a < 0:
        raise ValueError(f"pushed mass must be non-negative, got {a}")
    key = (i, j) if i <= j else (j, i)
    if key in store.residuals:
        store.accumulate(key, a)
        return True
    if rng.random() < min(1.0, beta_skip * a):
        store.stats["allocations"] += 1
        store.accumulate(key, a)
        return True
    store.stats["skips"] += 1
    return False


def gauss_southwell_filter(g: Graph, cfg: Config, D: DiagonalCorrection,
                           theta: float, gamma_acc: float = 0.0,
                           beta_skip: float | None = None,
                           rng: np.random.Generator | None = None,
                           max_entries: int = DEFAULT_MAX_ENTRIES) -> ResidualStore:
    """Run the residual filter to tolerance eps = (1-c)(1-gamma_acc) theta.

    Starts from S-tilde = 0, R-tilde = D and repeatedly relaxes a pair whose
    residual reaches eps: the residual moves into the solution and c times it
    spreads to the out-neighbor pairs, i.e. all (a, b) with i in I(a), j in
    I(b), each weighted 1/(|I(a)||I(b)|).  With beta_skip set, every push
    passes through stochastic_threshold.  Only unordered pairs are stored; a
    relaxation of an off-diagonal pair stands for both mirror entries, which
    is why a push landing on the diagonal from one carries double weight.
    """
    if not 0.0 <= gamma_acc < 1.0:
        raise ValueError(f"gamma_acc must be in [0,1), got {gamma_acc}")
    if theta <= 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    if beta_skip is not None and beta_skip <= 0:
        raise ValueError(f"beta_skip must be positive, got {beta_skip}")
    if beta_skip is not None and rng is None:
        rng = cfg.rng()

    eps = (1.0 - cfg.c) * (1.0 - gamma_acc) * theta
    store = ResidualStore(eps=eps)
    dvals = D.as_array()
    for k in range(g.n):
        if dvals[k] != 0.0:
            store.accumulate((k, k), float(dvals[k]))

    out = g.out_index
    in_deg = g.in_degree

    def push(a: int, b: int, w: float) -> None:
        store.stats["pushes"] += 1
        if beta_skip is None:
            key = (a, b) if a <= b else (b, a)
            store.accumulate(key, w)
        else:
            stochastic_threshold(store, a, b, w, beta_skip, rng)

    while True:
        key = store.pop()
        if key is None:
            break
        i, j = key
        r = store.residuals[key]
        store.solution[key] = store.solution.get(key, 0.0) + r
        store.residuals[key] = 0.0
        if i == j:
            store.stats["relaxations"] += 1
            store.stats["total_pushed"] += abs(r)
            for ai, a in enumerate(out[i]):
                wa = cfg.c * r / in_deg[a]
                for b in out[i][ai:]:
                    push(a, b, wa / in_deg[b])
        else:
            # one unordered pop covers both mirror entries
            store.stats["relaxations"] += 2
            store.stats["total_pushed"] += 2 * abs(r)
            for a in out[i]:
                wa = cfg.c * r / in_deg[a]
                for b in out[j]:
                    w = wa / in_deg[b]
                    push(a, b, 2.0 * w if a == b else w)
        if len(store.residuals) > max_entries:
            raise MemoryCapExceeded(
                f"residual store exceeded {max_entries} entries", store.stats)
    return store


@dataclass
class JoinResult:
    J_L: set[tuple[int, int]]
    J_H: set[tuple[int, int]]
    verified: set[tuple[int, int]]
    stats: dict

    @property
    def result(self) -> set[tuple[int, int]]:
        return self.J_L | self.verified


def join(g: Graph, cfg: Config, D: DiagonalCorrection, theta: float,
         gamma_acc: float = 0.0, beta_skip: float | None = None,
         p: float = 0.01, R_max: int = 1000,
         rng: np.random.Generator | None = None,
         max_entries: int = DEFAULT_MAX_ENTRIES) -> JoinResult:
    """All unordered vertex pairs with similarity >= theta (whp).

    J_L holds the off-diagonal pairs with S-tilde >= theta, reported as-is.
    J_H holds those with S-tilde >= gamma_acc * theta, or S-tilde > 0 when
    gamma_acc = 0.  J_H is sound: with D >= 0 the filter only moves non-negative
    residual mass into S-tilde, and at termination every residual is below
    eps = (1-c)(1-gamma_acc) theta.  Since P is column-substochastic, each
    entry of P^{Tt} R P^t is below eps too, so
    S - S-tilde = sum_t c^t P^{Tt} R P^t < eps / (1-c) = (1-gamma_acc) theta,
    and S >= theta implies S-tilde > gamma_acc * theta (> 0 at gamma_acc = 0).
    This is exact with thresholding off.  With beta_skip set, a skipped
    allocation drops its mass, so the statement holds with high probability:
    per entry the dropped total exceeds delta with probability at most
    exp(-beta_skip * delta), the tail of stochastic_threshold that acceptance
    criterion 10 checks.

    Pairs in J_H minus J_L are resolved by one verify_pairs call on rng in
    sorted order, and accepted when the estimate lands on the similar side at
    stopping.  Deterministic under a fixed seed.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0,1), got {p}")
    if rng is None:
        rng = cfg.rng()
    store = gauss_southwell_filter(g, cfg, D, theta, gamma_acc, beta_skip,
                                   rng, max_entries)
    J_L, J_H = set(), set()
    cut = gamma_acc * theta
    for key, value in store.solution.items():
        if key[0] == key[1]:
            continue
        # with D >= 0 every stored entry was relaxed with a residual >= eps,
        # so at cut = 0 this keeps exactly the support of S-tilde
        if value >= cut:
            J_H.add(key)
            if value >= theta:
                J_L.add(key)

    uncertain = sorted(J_H - J_L)
    checked = (verify_pairs(g, cfg, uncertain, theta, p, R_max, rng)
               if uncertain else [])
    verified = {pair for pair, res in zip(uncertain, checked)
                if res.side == "similar"}

    stats = dict(store.stats)
    stats.update({"J_L": len(J_L), "J_H": len(J_H),
                  "verified": len(verified),
                  "samples": sum(res.samples_used for res in checked)})
    return JoinResult(J_L, J_H, verified, stats)
