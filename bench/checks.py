"""Request logging, references and correctness checks.

Outputs are streamed to files in the run's work directory while the workload
runs, so the process's peak memory does not grow with the number of requests
served.  All checks run after the workload, outside every timed region.

References:
* exact workloads (serve-exact, cli-batch): the converged ``naive_simrank``
  matrix.  A truncated score with diagonal D differs from it by at most
  c^T/(1-c) + max|D - D*|/(1-c), where D* = diag(S - c P^T S P); that is the
  score tolerance.
* mc-powerlaw: the truncated series sum_t c^t P^{Tt} D P^t on the workload's
  own D, computed here in column blocks from ``g.P``.  Exact outputs must match
  it to rounding; MC estimates (R=100 walks) within MC_TOL.
"""

from __future__ import annotations

import math
import os
from array import array

import numpy as np

import simrank.oracle as oracle
from workloads import C, K, T, THETA

ALLPAIRS_THRESHOLD = 1e-4
PRINT_TOL = 5e-7          # CLI and TSV scores carry 6 decimals
EXACT_TOL = 1e-9          # same series, different summation order
MC_TOL = 0.25             # R=100 MC pair estimate; observed max error ~0.1
VERIFY_MARGIN = 0.05      # meeting-time verification, ~5 sigma at R_max=1000
MC_JOIN_TOL = 0.15        # MC-diagonal series vs sampled true SimRank
BLOCK = 128


class OutputLog:
    """Per-kind request outputs: small fields in arrays, vectors on disk."""

    def __init__(self, workdir: str, n: int):
        self.n = n
        self.rid = {k: array("q") for k in ("pair", "source", "topk")}
        self.u = {k: array("q") for k in ("pair", "source", "topk")}
        self.latency = {k: array("d") for k in ("pair", "source", "topk")}
        self.pair_v = array("q")
        self.pair_score = array("d")
        self.failures: list[tuple[int, str, str]] = []
        self.paths = {k: os.path.join(workdir, f"{k}.bin")
                      for k in ("source", "topk")}
        self.files = {k: open(p, "wb") for k, p in self.paths.items()}

    def record(self, req, latency_s: float, out) -> None:
        self.rid[req.kind].append(req.rid)
        self.u[req.kind].append(req.u)
        self.latency[req.kind].append(latency_s * 1e3)
        if req.kind == "pair":
            self.pair_v.append(req.v)
            self.pair_score.append(float(out))
        elif req.kind == "source":
            col = np.asarray(out, dtype=np.float64)
            if col.shape != (self.n,):
                col = np.full(self.n, np.nan)
                self.failures.append((req.rid, "source", "wrong length"))
            self.files["source"].write(col.tobytes())
        else:
            rec = np.full((K, 2), np.nan)
            rec[:, 0] = -1
            ranked = list(out)
            if len(ranked) > K:
                self.failures.append((req.rid, "topk", f"{len(ranked)} > k"))
                ranked = ranked[:K]
            for slot, (v, s) in enumerate(ranked):
                rec[slot] = (v, s)
            self.files["topk"].write(rec.tobytes())

    def fail(self, req, message: str) -> None:
        self.failures.append((req.rid, req.kind, message))

    def close(self) -> None:
        for fh in self.files.values():
            fh.close()

    def sources(self) -> np.ndarray:
        return np.fromfile(self.paths["source"]).reshape(-1, self.n)

    def topks(self) -> np.ndarray:
        return np.fromfile(self.paths["topk"]).reshape(-1, K, 2)


# ---------------------------------------------------------------- parsing

def parse_cli(kind: str, text: str, n: int):
    """CLI stdout to the API's output shape."""
    if kind == "pair":
        return float(text)
    rows = np.fromstring(text, sep=" ").reshape(-1, 2)
    if kind == "source":
        if rows.shape[0] != n or np.any(rows[:, 0] != np.arange(n)):
            raise ValueError("source output is not one row per vertex")
        return rows[:, 1]
    return [(int(v), float(s)) for v, s in rows]


def read_allpairs(path: str) -> np.ndarray:
    with open(path) as fh:
        return np.fromstring(fh.read(), sep=" ").reshape(-1, 3)


def read_join_tsv(path: str):
    J_L, verified = set(), set()
    with open(path) as fh:
        for line in fh:
            i, j, source = line.split("\t")
            (J_L if source.strip() == "filter" else verified).add((int(i), int(j)))
    return J_L, verified


def read_diagonal(path: str) -> np.ndarray:
    with open(path) as fh:
        fh.readline()
        return np.array([float(x) for x in fh])


# ---------------------------------------------------------------- references

def truncated_series(P, d: np.ndarray, c: float, steps: int) -> np.ndarray:
    """Dense sum_{t<steps} c^t P^{Tt} diag(d) P^t, built in column blocks."""
    n = P.shape[0]
    PT = P.T.tocsr()
    S = np.empty((n, n))
    for lo in range(0, n, BLOCK):
        cols = np.arange(lo, min(lo + BLOCK, n))
        X = np.zeros((n, len(cols)))
        X[cols, np.arange(len(cols))] = 1.0
        terms = []
        for _ in range(steps):
            terms.append(d[:, None] * X)
            X = P @ X
        acc = terms[-1]
        for t in range(steps - 2, -1, -1):
            acc = terms[t] + c * (PT @ acc)
        S[:, cols] = acc
    return S


class Reference:
    """Reference scores and tolerances for one workload's checks."""

    def __init__(self, workload: str, g, D: np.ndarray, cfg):
        self.n = g.n
        series = truncated_series(g.P, D, C, T)
        self.diag_residual = float(np.max(np.abs(np.diag(series) - 1.0)))
        tail = C ** T / (1.0 - C)
        if workload == "mc-powerlaw":
            self.S = series
            self.tol = {"pair": MC_TOL, "source": EXACT_TOL, "topk": MC_TOL}
            self.filter_tol = tail * max(1.0, float(D.max())) + EXACT_TOL
            self.verify_tol = MC_JOIN_TOL
        else:
            self.S = oracle.naive_simrank(g, cfg)
            Pd = g.dense_P()
            d_star = np.diag(self.S - C * (Pd.T @ self.S @ Pd))
            tol = tail + float(np.max(np.abs(D - d_star))) / (1.0 - C) + EXACT_TOL
            if workload == "cli-batch":
                tol += PRINT_TOL
            self.tol = {"pair": tol, "source": tol, "topk": tol}
            self.filter_tol = tol
            self.verify_tol = tol + VERIFY_MARGIN
        self.allpairs_tol = self.tol["source"] + PRINT_TOL


class Checks:
    """Runs every check; collects failures, score errors and quality ratios."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self.failures: list[tuple[int, str, str]] = []
        self.score_err = 0.0
        self.recalls: list[float] = []
        self.precision = self.recall = float("nan")

    def _err(self, errs: np.ndarray) -> None:
        if errs.size:
            self.score_err = max(self.score_err, float(np.nanmax(errs)))

    def requests(self, log: OutputLog, candidates=None) -> None:
        S, tol = self.ref.S, self.ref.tol
        u = np.frombuffer(log.u["pair"], dtype=np.int64)
        v = np.frombuffer(log.pair_v, dtype=np.int64)
        err = np.abs(np.frombuffer(log.pair_score) - S[u, v])
        self._flag(log.rid["pair"], "pair", ~(err <= tol["pair"]), err)
        self._err(err)

        u = np.frombuffer(log.u["source"], dtype=np.int64)
        err = np.abs(log.sources() - S[u]).max(axis=1) if u.size else np.zeros(0)
        self._flag(log.rid["source"], "source", ~(err <= tol["source"]), err)
        self._err(err)

        u = np.frombuffer(log.u["topk"], dtype=np.int64)
        recs = log.topks() if u.size else np.zeros((0, K, 2))
        errs = []
        for rid, src, rec in zip(log.rid["topk"], u, recs):
            why, err = self._topk(int(src), rec, candidates)
            if why:
                self.failures.append((rid, "topk", why))
            errs.append(err)
        self._err(np.array(errs))

    def _flag(self, rids, kind, bad: np.ndarray, err: np.ndarray) -> None:
        for idx in np.flatnonzero(bad):
            self.failures.append((rids[idx], kind, f"score error {err[idx]:.3g}"))

    def _topk(self, u: int, rec: np.ndarray, candidates) -> tuple[str, float]:
        S, tol = self.ref.S, self.ref.tol["topk"]
        used = rec[:, 0] >= 0
        ids = rec[used, 0].astype(np.int64)
        scores = rec[used, 1]
        if used[len(ids):].any():
            return "gap in ranking", math.nan
        if len(set(ids.tolist())) != len(ids) or np.any(ids == u) \
                or np.any((ids < 0) | (ids >= self.ref.n)):
            return "invalid vertex ids", math.nan
        if np.any(np.diff(scores) > 1e-12):
            return "scores not descending", math.nan
        err = np.abs(scores - S[u, ids]) if len(ids) else np.zeros(1)
        row = np.delete(S[u], u)
        positive = np.sort(row[row > 0])[::-1]
        if positive.size:
            kth = positive[min(K, positive.size) - 1]
            hits = int(np.sum(S[u, ids] >= kth - 1e-12))
            self.recalls.append(min(hits, K, positive.size) / min(K, positive.size))
        if not np.all(err <= tol):
            return f"score error {float(np.max(err)):.3g}", float(np.max(err))
        if candidates is not None:
            if not set(ids.tolist()) <= candidates.get(u, set()):
                return "vertex outside the candidate index", float(np.max(err))
        else:
            rest = np.ones(self.ref.n, dtype=bool)
            rest[ids] = False
            rest[u] = False
            floor = scores[-1] if len(ids) == K else 0.0
            if np.any(S[u, rest] > floor + tol):
                return "a better vertex was left out", float(np.max(err))
        return "", float(np.max(err))

    def allpairs(self, path: str, rid: int) -> None:
        S, tol, n = self.ref.S, self.ref.allpairs_tol, self.ref.n
        rows = read_allpairs(path)
        i, j = rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64)
        why = ""
        if np.any((i < 0) | (i >= n) | (j < 0) | (j >= n)):
            self.failures.append((rid, "allpairs", "vertex id out of range"))
            return
        key = i * n + j
        err = np.abs(rows[:, 2] - S[i, j])
        present = np.zeros(n * n, dtype=bool)
        present[key] = True
        missing = int(np.sum((S.ravel() >= ALLPAIRS_THRESHOLD + tol) & ~present))
        if np.any(np.diff(key) <= 0):
            why = "rows not sorted by (i, j)"
        elif np.any(rows[:, 2] < ALLPAIRS_THRESHOLD - PRINT_TOL):
            why = "row below the output threshold"
        elif not np.all(err <= tol):
            why = f"score error {float(np.max(err)):.3g}"
        elif missing:
            why = f"{missing} entries above the threshold missing"
        if why:
            self.failures.append((rid, "allpairs", why))
        self._err(err)

    def join(self, J_L: set, verified: set, rid: int) -> None:
        ref, n = self.ref, self.ref.n
        truth = ref.S >= THETA
        result = J_L | verified
        why = ""
        pairs = np.array(sorted(result), dtype=np.int64).reshape(-1, 2)
        if np.any(pairs[:, 0] >= pairs[:, 1]) or np.any((pairs < 0) | (pairs >= n)):
            self.failures.append((rid, "join", "pair not (i < j) in range"))
            return
        for group, slack in ((J_L, ref.filter_tol), (verified, ref.verify_tol)):
            low = [p for p in group if ref.S[p] < THETA - slack]
            if low:
                why = f"{len(low)} returned pairs far below theta, e.g. {low[0]}"
        upper = np.triu(ref.S >= THETA + ref.verify_tol, 1)
        missed = [p for p in zip(*np.nonzero(upper)) if tuple(map(int, p)) not in result]
        if missed:
            why = f"{len(missed)} pairs far above theta missing"
        if why:
            self.failures.append((rid, "join", why))
        true_pairs = int(np.sum(np.triu(truth, 1)))
        hit = int(sum(truth[p] for p in result))
        self.precision = hit / len(result) if result else 1.0
        self.recall = hit / true_pairs if true_pairs else 1.0
