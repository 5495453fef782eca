"""The line-by-line edge-list reader and graph build that load_edge_list and
Graph replace, kept as the reference of the differential tests.

load_edge_list is the old reader with one rule added: an id of 2^63 or more
is refused, naming its line.  graph_arrays is the old per-edge build of the
in-index, the CSR arrays and P.
"""

import numpy as np
import scipy.sparse as sp

from simrank.graph import GraphParseError


def load_edge_list(stream):
    """(n, original_ids, edges, self_loops, duplicates) of the input, with
    edges in first-appearance order, or GraphParseError."""
    if isinstance(stream, str):
        lines = stream.splitlines()
    else:
        lines = stream

    remap: dict[int, int] = {}
    original: list[int] = []
    raw_edges: list[tuple[int, int]] = []
    self_loops = 0

    def dense(orig: int) -> int:
        if orig not in remap:
            remap[orig] = len(original)
            original.append(orig)
        return remap[orig]

    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {text!r}")
        try:
            u_orig, v_orig = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer vertex in {text!r}") from None
        if u_orig < 0 or v_orig < 0:
            raise GraphParseError(f"line {lineno}: negative vertex id in {text!r}")
        if max(u_orig, v_orig) >= 2**63:
            raise GraphParseError(
                f"line {lineno}: vertex id above 2^63 - 1 in {text!r}")
        if u_orig == v_orig:
            self_loops += 1
            continue
        raw_edges.append((dense(u_orig), dense(v_orig)))

    if not original:
        raise GraphParseError("empty graph: no vertices found")

    seen = set()
    edges = []
    duplicates = 0
    for e in raw_edges:
        if e in seen:
            duplicates += 1
        else:
            seen.add(e)
            edges.append(e)
    return len(original), original, edges, self_loops, duplicates


def graph_arrays(n: int, edges) -> dict:
    """Every array of the graph on 0..n-1 with these edges, built edge by
    edge."""
    edges = sorted(set(edges))
    ins: list[list[int]] = [[] for _ in range(n)]
    outs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        ins[v].append(u)
        outs[u].append(v)
    in_index = [sorted(a) for a in ins]
    out_index = [sorted(a) for a in outs]
    in_degree = np.array([len(a) for a in in_index], dtype=np.int64)
    in_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(in_degree, out=in_ptr[1:])
    in_adj = np.fromiter((u for a in in_index for u in a), dtype=np.int64,
                         count=int(in_ptr[-1]))
    cols = np.repeat(np.arange(n), in_degree)
    P = sp.csr_matrix((1.0 / in_degree[cols], (in_adj, cols)), shape=(n, n))
    return {"edges": edges, "m": len(edges), "in_index": in_index,
            "out_index": out_index, "in_degree": in_degree, "in_ptr": in_ptr,
            "in_adj": in_adj, "P": P, "PT": P.T.tocsr()}
