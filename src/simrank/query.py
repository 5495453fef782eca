"""Deterministic truncated queries from the series expansion.

Given a diagonal correction D, the similarity matrix expands as
S = sum_t c^t P^{T t} D P^t; truncating at T terms under-estimates each score
by at most c^T / (1 - c).
"""

from __future__ import annotations

import os
import queue
from collections import deque
from contextlib import closing
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .diag import DiagonalCorrection, propagate, source_blocks
from .graph import Config, Graph, check_vertex

DEFAULT_OUTPUT_THRESHOLD = 1e-4
# rows per tsv_rows call of the all-pairs writer: two writers running at once
# hold their row-length temporaries together, and 2^13 rows were slower
WRITER_ROWS = 2**14


def check_threshold(threshold: float) -> None:
    """Raise ValueError unless the all-pairs emission threshold is finite."""
    if not np.isfinite(threshold):
        raise ValueError(f"all-pairs threshold must be finite, got {threshold}")


def single_pair(g: Graph, cfg: Config, D: DiagonalCorrection,
                i: int, j: int) -> float:
    """s^(T)(i,j) = sum_{t<T} c^t (P^t e_i)^T D (P^t e_j): entry j of the
    column ``single_source(g, cfg, D, i)``."""
    check_vertex(g, i)
    check_vertex(g, j)
    return float(single_source(g, cfg, D, i)[j])


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
    dvals = D.as_array(g.n)
    return fold_series(g, cfg, [dvals * x for x in propagate(g, cfg, i)])


def all_pairs(g: Graph, cfg: Config, D: DiagonalCorrection, sink,
              threshold: float = DEFAULT_OUTPUT_THRESHOLD) -> int:
    """Stream "i<TAB>j<TAB>score" rows for entries >= threshold, sorted by (i, j).

    Sources go in the blocks of ``diag.source_blocks``: the forward stack
    D P^t E_ks for t < T, folded by ``fold_series``; ``single_source`` is
    the kernel's one-column case.  Each block's rows come from one
    ``np.nonzero`` over the transposed view of the block (no copy) and are
    formatted by ``tsv_rows`` WRITER_ROWS rows at a time.

    The blocks run on ``_workers`` threads.  There are as many T x n x
    (block size) stacks, made once by the calling thread and refilled by
    every block (the allocator could hand freed memory back to the kernel,
    and every page of it would then fault in again).  A block holds its
    stack until its rows are formatted: at T = 1 the folded block is the
    stack's own layer.  At most workers + 1 blocks are in flight, and the
    calling thread writes their rows to sink in block order, so the bytes
    do not depend on the thread count.  The extra memory is workers * T *
    BLOCK_BUDGET doubles for the stacks, plus one WRITER_ROWS-row
    ``tsv_rows`` call per worker, for any n.  Below 4 blocks, or on one
    CPU, there is one worker: the blocks run on the calling thread and no
    thread starts.

    threshold 0 emits every entry; a non-finite threshold raises
    ValueError.  An error raised on any block is raised here, after every
    thread has stopped.  Returns the row count.
    """
    check_threshold(threshold)
    dvals = D.as_array(g.n)[:, None]
    blocks = list(source_blocks(g.n))
    width = len(blocks[0]) if blocks else 0  # the first block is the widest
    g.P, g.PT  # noqa: B018 - built here: the threads only read them
    workers = _workers(len(blocks))
    # made here, not in the threads: memory freed in a thread's allocator
    # arena stays there, out of the calling thread's reach
    stacks = queue.SimpleQueue()
    for _ in range(workers):
        stacks.put(np.empty((cfg.T, g.n, width)))

    def export(ks):
        """The texts of block ks's rows and their count, on a stack taken
        from stacks for as long as the rows are formatted."""
        stack = stacks.get()
        try:
            layers = list(stack[:, :, :len(ks)])
            for X, layer in zip(propagate(g, cfg, ks), layers):
                np.multiply(dvals, X, out=layer)
            C = fold_series(g, cfg, layers).T
            r, js = np.nonzero(C >= threshold)
            texts = []
            for a in range(0, len(js), WRITER_ROWS):
                rs, cs = r[a:a + WRITER_ROWS], js[a:a + WRITER_ROWS]
                texts.append(tsv_rows((ks[rs], cs), C[rs, cs]))
            return texts, len(js)
        finally:
            stacks.put(stack)

    rows = 0
    with closing(_in_order(export, blocks, workers)) as results:
        for texts, count in results:
            for text in texts:
                sink.write(text)
            rows += count
    return rows


def _workers(blocks: int) -> int:
    """Workers for an export of that many blocks: one per CPU, at most one
    per two blocks (below 4 blocks a second thread costs more than it
    saves), at least one."""
    return max(1, min(_cpus(), blocks // 2))


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _in_order(fn, items, workers: int):
    """fn(item) for every item, yielded in item order.  With workers > 1 the
    calls run on that many threads, with at most workers + 1 items submitted
    and not yet yielded; the threads have stopped once the generator is done
    or closed.  With one worker they run on the calling thread."""
    if workers == 1:
        yield from map(fn, items)
        return
    pool = ThreadPoolExecutor(workers)
    pending = deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def dense_truncated(g: Graph, cfg: Config, D: DiagonalCorrection) -> np.ndarray:
    """Full truncated matrix sum_{t<T} c^t P^{T t} D P^t; small n only."""
    P = g.dense_P()
    term = np.diag(D.as_array(g.n))
    S = np.zeros((g.n, g.n))
    weight = 1.0
    for _ in range(cfg.T):
        S += weight * term
        term = P.T @ term @ P
        weight *= cfg.c
    return S
