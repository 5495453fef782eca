"""The per-row score formatting that query.tsv_rows replaced, kept as the
byte reference of the CLI's score listings."""

import numpy as np


def tsv_rows(i, js, scores):
    """The rows "i<TAB>j<TAB>score" for the parallel sequences js and scores,
    scores to 6 decimals, in one format string."""
    fields = [None] * (2 * len(js))
    fields[0::2] = js
    fields[1::2] = scores
    return f"{i}\t%d\t%.6f\n" * len(js) % tuple(fields)


def source_rows(col):
    """`query source` output: "j<TAB>score" for every j."""
    return "".join(map("{}\t{:.6f}\n".format, range(len(col)), col.tolist()))


def oracle_rows(S):
    """`oracle` output: every entry of the dense matrix S, row by row."""
    js = list(range(len(S)))
    return "".join(tsv_rows(i, js, row) for i, row in enumerate(S.tolist()))


def all_pairs_rows(columns, threshold):
    """`query allpairs` output from the columns S e_i, i = 0..n-1: the
    entries >= threshold, one column at a time."""
    parts = []
    for i, col in enumerate(columns):
        js = np.flatnonzero(col >= threshold)
        parts.append(tsv_rows(i, js.tolist(), col[js].tolist()))
    return "".join(parts)
