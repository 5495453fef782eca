"""Deterministic truncated queries from the series expansion.

Given a diagonal correction D, the similarity matrix expands as
S = sum_t c^t P^{T t} D P^t; truncating at T terms under-estimates each score
by at most c^T / (1 - c).
"""

from __future__ import annotations

import numpy as np

from .diag import DiagonalCorrection, propagate, source_blocks
from .graph import Config, Graph, check_vertex

DEFAULT_OUTPUT_THRESHOLD = 1e-4


def single_pair(g: Graph, cfg: Config, D: DiagonalCorrection,
                i: int, j: int) -> float:
    """s^(T)(i,j) = sum_{t<T} c^t (P^t e_i)^T D (P^t e_j), over the two
    ``propagate`` streams of i and j."""
    check_vertex(g, i)
    check_vertex(g, j)
    dvals = D.as_array()
    score = 0.0
    weight = 1.0
    for x, y in zip(propagate(g, cfg, i), propagate(g, cfg, j)):
        score += weight * float(np.dot(x * dvals, y))
        weight *= cfg.c
    return score


def fold_series(g: Graph, cfg: Config, stack: list[np.ndarray]) -> np.ndarray:
    """sum_t c^t (P^T)^t stack[t] by the Horner pass acc = stack[t] + c P^T acc
    from t = len(stack)-1 down to 0; consumes stack.

    Every column query ends here: the exact stack D P^t E_ks of
    ``all_pairs`` (one column in ``single_source``) and the walk stack
    D h_t / R of ``mc.mc_single_source``.
    """
    PT = g.PT
    acc = stack.pop()
    while stack:
        acc = PT @ acc
        acc *= cfg.c
        acc += stack.pop()
    return acc


def tsv_rows(ids, scores) -> str:
    """The rows "id<TAB>...<TAB>score\n" for the parallel integer columns of
    ids and the float scores, as one string: byte for byte what
    "%d\t...\t%.6f\n" % row gives, row by row.  The ids are vertex
    indices: non-negative and below 2^32.

    Vectorized: each field is written one digit position at a time into a
    (rows, width) byte array, leading zeros are masked off and one boolean
    compress joins the rows, which are decoded from it without a bytes
    copy; each row-length temporary is dropped once read.  The six decimals
    are floor(|x| 1e6 + 0.5); an entry whose |x| 1e6 lies within 1e-6 of a
    half-integer, where the float product can fall on the wrong side of the
    tie that '%.6f' breaks on the exact binary value, is rounded by '%.6f'
    itself.  A score that is not finite or has |x| >= 1e3 sends the whole
    call through the '%' format string.
    """
    ids = [np.asarray(col) for col in ids]
    scores = np.asarray(scores, dtype=np.float64)
    if not len(scores):
        return ""
    mag = np.abs(scores)
    if not (mag < 1e3).all():
        fields = [None] * ((len(ids) + 1) * len(scores))
        for k, col in enumerate(ids):
            fields[k::len(ids) + 1] = col.tolist()
        fields[len(ids)::len(ids) + 1] = scores.tolist()
        return ("%d\t" * len(ids) + "%.6f\n") * len(scores) % tuple(fields)

    scaled = mag * 1e6
    rounded = scaled + 0.5
    np.floor(rounded, out=rounded)
    q = rounded.astype(np.uint32)
    rounded -= scaled  # within 1e-6 of +-1/2 at a near tie
    del scaled
    np.abs(rounded, out=rounded)
    near = np.flatnonzero(np.abs(rounded - 0.5) < 1e-6)
    del rounded
    if near.size:
        q[near] = [int(("%.6f" % x).replace(".", "")) for x in mag[near].tolist()]
    del mag
    whole = q // np.uint32(10**6)
    frac = q - whole * np.uint32(10**6)
    del q
    cols = [col.astype(np.uint32) for col in ids]
    widths = [_digits(v) for v in cols]
    whole_width = _digits(whole)
    # ids and their tabs, the sign, the whole part, '.', 6 decimals, '\n'
    width = sum(widths) + len(widths) + 1 + whole_width + 8
    out = np.empty((len(scores), width), dtype=np.uint8)
    keep = np.ones((len(scores), width), dtype=bool)
    at = 0
    for v, w in zip(cols, widths):
        at = _put_digits(out, keep, at, v, w)
        out[:, at] = ord("\t")
        at += 1
    out[:, at] = ord("-")
    keep[:, at] = np.signbit(scores)
    at = _put_digits(out, keep, at + 1, whole, whole_width)
    del whole
    out[:, at] = ord(".")
    at = _put_digits(out, keep, at + 1, frac, 6, pad=True)
    del frac
    out[:, at] = ord("\n")
    text = out[keep]
    del out, keep
    return str(text, "ascii")


def _digits(v: np.ndarray) -> int:
    """Decimal digits of the largest entry of v."""
    return len(str(int(v.max())))


def _put_digits(out: np.ndarray, keep: np.ndarray, at: int, v: np.ndarray,
                width: int, pad: bool = False) -> int:
    """Write the uint32 column v in decimal into out[:, at:at+width],
    right-aligned, masking off leading zeros in keep unless pad; overwrites
    v and returns the column after the field."""
    ten = np.uint32(10)
    for pos in range(at + width - 1, at - 1, -1):
        if not pad and pos < at + width - 1:
            keep[:, pos] = v > 0
        rest = v // ten  # a scalar divisor; np.divmod is ten times slower
        v -= rest * ten
        v += ord("0")
        out[:, pos] = v
        v = rest
    return at + width


def single_source(g: Graph, cfg: Config, D: DiagonalCorrection,
                  i: int) -> np.ndarray:
    """The length-n column S e_i truncated at T terms: the one-column case
    of ``all_pairs``'s kernel, the stack D P^t e_i for t < T folded by
    ``fold_series``.  O(T m) time and O(T n) extra memory."""
    check_vertex(g, i)
    dvals = D.as_array()
    return fold_series(g, cfg, [dvals * x for x in propagate(g, cfg, i)])


def all_pairs(g: Graph, cfg: Config, D: DiagonalCorrection, sink,
              threshold: float = DEFAULT_OUTPUT_THRESHOLD) -> int:
    """Stream "i<TAB>j<TAB>score" rows for entries >= threshold, sorted by (i, j).

    Sources go in the blocks of ``diag.source_blocks``: the forward stack
    D P^t E_ks for t < T, folded by ``fold_series``; ``single_source`` is
    the kernel's one-column case.  The stack is one T x n x (block size)
    array made once and refilled by every block, so the kernel's extra
    memory stays near T * BLOCK_BUDGET doubles for any n, and the export
    does not free and allocate T block-sized arrays per block (the
    allocator can hand freed memory back to the kernel, and every page of
    it then faults in again).
    Each block's rows come from one ``np.nonzero`` over the transposed
    view of the block (no copy) and are written by one ``tsv_rows`` call,
    so the writer's extra memory is O(rows of one block).  threshold 0
    emits every entry; a non-finite threshold raises ValueError.  Returns
    the row count.
    """
    if not np.isfinite(threshold):
        raise ValueError(f"all-pairs threshold must be finite, got {threshold}")
    dvals = D.as_array()[:, None]
    stack = None
    rows = 0
    for ks in source_blocks(g.n):
        if stack is None:  # the first block is the widest
            stack = np.empty((cfg.T, g.n, len(ks)))
        layers = list(stack[:, :, :len(ks)])
        for X, layer in zip(propagate(g, cfg, ks), layers):
            np.multiply(dvals, X, out=layer)
        C = fold_series(g, cfg, layers).T
        r, js = np.nonzero(C >= threshold)
        sink.write(tsv_rows((ks[r], js), C[r, js]))
        rows += len(js)
    return rows


def dense_truncated(g: Graph, cfg: Config, D: DiagonalCorrection) -> np.ndarray:
    """Full truncated matrix sum_{t<T} c^t P^{T t} D P^t; small n only."""
    P = g.dense_P()
    term = np.diag(D.as_array())
    S = np.zeros((g.n, g.n))
    weight = 1.0
    for _ in range(cfg.T):
        S += weight * term
        term = P.T @ term @ P
        weight *= cfg.c
    return S
