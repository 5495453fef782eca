"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps the library functions that one module calls from
another, plus the public entry points, by rebinding every name under which
the function object appears in the loaded ``simrank`` modules (so
``simrank.diag.step`` and ``simrank.graph.step`` both record).  Per-step
helpers such as ``sample_step`` are left alone.  ``Graph.P`` records a span
only when it builds the matrix.

Each call appends one span (name, start, end, parent span, request id) to
flat arrays kept in memory; ``save`` writes them out at the end.  A span's
self time is its duration minus its children's.  Counters come from the
returned objects (``D.clamped``, ``JoinResult.stats``, the BFS ball size) and
repeat exactly under one seed.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

SPANS = {
    "graph": ["load_edge_list", "P", "step", "walk_positions",
              "walk_trajectory", "bfs_distances"],
    "diag": ["estimate_diagonal", "inner_estimates", "residual_norm",
             "save_diagonal", "load_diagonal"],
    "query": ["single_pair", "single_source", "all_pairs"],
    "mc": ["mc_single_pair", "verify_pair", "meeting_time_samples"],
    "topk": ["topk_query", "build_alpha_beta", "build_gamma",
             "build_candidate_index", "build_bounds_index"],
    "join": ["join", "gauss_southwell_filter"],
    "cli": ["main", "cmd_estimate_diag", "cmd_query", "cmd_topk", "cmd_join"],
    "oracle": ["naive_simrank"],
}
COUNTED = {"topk": ["l2_bound"]}     # too cheap for a span; calls only

JOIN_STATS = ("relaxations", "pushes", "allocations", "skips", "J_L", "J_H",
              "samples")
SUMMED = ("graph.step.nnz", "diag.clamped", "diag.skipped", "query.all_pairs.rows",
          "mc.verify_pair.samples", "mc.verify_pair.undecided", "topk.l2_bound.calls",
          *(f"join.{k}" for k in JOIN_STATS))

# name -> (unit, better) for every metric that is not <span>.calls / <span>.s
COUNTERS = {
    "graph.step.nnz": ("count", "lower"),
    "graph.bfs_distances.ball": ("count", "lower"),
    "diag.clamped": ("count", "lower"),
    "diag.skipped": ("count", "lower"),
    "query.all_pairs.rows": ("count", "lower"),
    "mc.verify_pair.samples": ("count", "lower"),
    "mc.verify_pair.undecided": ("count", "lower"),
    "topk.l2_bound.calls": ("count", "lower"),
    "topk.scored_per_query": ("count", "lower"),
    "topk.score_ratio": ("ratio", "lower"),
    "topk.candidates_mean": ("count", "lower"),
    "join.verify.s": ("s", "lower"),
    **{f"join.{k}": ("count", "higher" if k == "J_L" else "lower") for k in JOIN_STATS},
    "join.uncertain": ("count", "lower"),
    "join.verify_yield": ("ratio", "higher"),
    "join.max_entries": ("count", "lower"),
    "cli.self.s": ("s", "lower"),
    "diag.residual_max": ("abs", "lower"),
    "query.score_err_max": ("abs", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def metric_specs() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its (unit, better)."""
    out = {}
    for module, names in SPANS.items():
        for fn in names:
            out[f"{module}.{fn}.calls"] = ("count", "lower")
            out[f"{module}.{fn}.s"] = ("s", "lower")
    out.update(COUNTERS)
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.rid = array("q")
        self.request = 0
        self.counts: Counter = Counter()
        self.scored: set[tuple[int, int]] = set()
        self.topk_ball = 0
        self.max_entries = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        import simrank.graph as graph
        modules = [m for name, m in list(sys.modules.items())
                   if name == "simrank" or name.startswith("simrank.")]
        wrappers = [(module, fn, self._span) for module, names in SPANS.items()
                    for fn in names if fn != "P"]
        wrappers += [(module, fn, self._counting) for module, names in COUNTED.items()
                     for fn in names]
        for module, fn, make in wrappers:
            original = getattr(sys.modules[f"simrank.{module}"], fn)
            wrapper = make(f"{module}.{fn}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, attr, value))
                        setattr(m, attr, wrapper)
        prop = graph.Graph.P
        build = self._span("graph.P", prop.fget)
        self._undo.append((graph.Graph, "P", prop))
        graph.Graph.P = property(lambda g: g._P if g._P is not None else build(g))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def _counting(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.rid.append(self.request)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, idx, args, result)
            return result
        return wrapper

    def parent_name(self, idx: int) -> str | None:
        p = self.parent[idx]
        return self.names[self.name_id[p]] if p >= 0 else None

    # ------------------------------------------------------------ results

    def metrics(self) -> dict[str, float]:
        nid = np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested],
                               minlength=len(dur))
        self_time = dur - children
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        busy = np.bincount(nid, weights=self_time, minlength=k)
        by_name = {name: (int(calls[i]), float(busy[i]))
                   for i, name in enumerate(self.names)}

        out: dict[str, float] = {}
        for module, names in SPANS.items():
            for fn in names:
                n_calls, secs = by_name.get(f"{module}.{fn}", (0, 0.0))
                out[f"{module}.{fn}.calls"] = n_calls
                out[f"{module}.{fn}.s"] = secs
        c = self.counts
        out.update({name: c[name] for name in SUMMED})
        out["graph.bfs_distances.ball"] = (c["graph.bfs_distances.ball"]
                                           / max(out["graph.bfs_distances.calls"], 1))
        out["topk.scored_per_query"] = len(self.scored) / max(out["topk.topk_query.calls"], 1)
        out["topk.score_ratio"] = len(self.scored) / max(self.topk_ball, 1)
        out["topk.candidates_mean"] = (c["topk.candidates_total"]
                                       / max(c["topk.candidates_vertices"], 1))
        ids = {name: i for i, name in enumerate(self.names)}
        verify = nested & (nid == ids.get("mc.verify_pair", -1))
        verify[verify] = nid[parent[verify]] == ids.get("join.join", -1)
        out["join.verify.s"] = float(dur[verify].sum())
        uncertain = c["join.J_H"] - c["join.J_L"]
        out["join.uncertain"] = uncertain
        out["join.verify_yield"] = c["join.verified"] / uncertain if uncertain else 0.0
        out["join.max_entries"] = self.max_entries
        cli_ids = [i for i, name in enumerate(self.names) if name.startswith("cli.")]
        out["cli.self.s"] = float(busy[cli_ids].sum()) if cli_ids else 0.0
        out["trace.spans"] = len(dur)
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            request=np.frombuffer(self.rid, dtype=np.int64))


# ---------------------------------------------------------------- counters

def _step(tr, idx, args, result):
    tr.counts["graph.step.nnz"] += len(args[1].entries)


def _bfs(tr, idx, args, result):
    tr.counts["graph.bfs_distances.ball"] += len(result)
    if tr.parent_name(idx) == "topk.topk_query":
        tr.topk_ball += len(result)


def _diag(tr, idx, args, result):
    tr.counts["diag.clamped"] += result.clamped
    tr.counts["diag.skipped"] += result.skipped


def _all_pairs(tr, idx, args, result):
    tr.counts["query.all_pairs.rows"] += result


def _scored(tr, idx, args, result):
    if tr.parent_name(idx) == "topk.topk_query":
        tr.scored.add((tr.parent[idx], args[4]))


def _verify(tr, idx, args, result):
    tr.counts["mc.verify_pair.samples"] += result.samples_used
    tr.counts["mc.verify_pair.undecided"] += int(result.undecided)


def _join(tr, idx, args, result):
    for key in (*JOIN_STATS, "verified"):
        tr.counts[f"join.{key}"] += result.stats[key]
    tr.max_entries = max(tr.max_entries, result.stats["max_entries"])


def _candidates(tr, idx, args, result):
    tr.counts["topk.candidates_total"] += sum(len(s) for s in result.values())
    tr.counts["topk.candidates_vertices"] += len(result)


HOOKS = {
    "graph.step": _step,
    "graph.bfs_distances": _bfs,
    "diag.estimate_diagonal": _diag,
    "query.all_pairs": _all_pairs,
    "query.single_pair": _scored,
    "mc.mc_single_pair": _scored,
    "mc.verify_pair": _verify,
    "join.join": _join,
    "topk.build_candidate_index": _candidates,
}
