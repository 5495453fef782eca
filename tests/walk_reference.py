"""The single-source walk loop that graph.walk_positions replaced, kept as
the reference of the walk kernel's draw order and histograms."""

import numpy as np


def walk_positions(g, source, steps, R, rng):
    """For t = 0..steps-1, the int64 position counts over the R in-link
    walks from source still alive at step t; zero vectors once all are
    absorbed.  Each step draws rng.random(alive), one uniform per walk that
    moves, in walk order, after the last step too."""
    hists = []
    pos = np.full(R, source, dtype=np.int64)
    for _ in range(steps):
        hists.append(np.bincount(pos, minlength=g.n).astype(np.int64))
        deg = g.in_degree[pos]
        alive = deg > 0
        pos = pos[alive]
        deg = deg[alive]
        if pos.size == 0:
            hists.extend(np.zeros(g.n, dtype=np.int64)
                         for _ in range(steps - len(hists)))
            break
        idx = g.in_ptr[pos] + (rng.random(pos.size) * deg).astype(np.int64)
        pos = g.in_adj[idx]
    return hists
