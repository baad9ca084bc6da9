"""Local multiway merging and the batch-merge kernel.

``local_multiway_merge`` is phase 3 of the rank-splitting engine: every
processor reads the blocks of its staged pieces in one call and merges
its R run pieces into its final slice, reading and writing each element
once.  ``batch_merge`` is the striped engine's kernel: drain every
buffered element strictly below a bound in the total order (key, run,
position), leaving later elements buffered.

Both merge by one array sort.  Concatenated in run order, and each run in
position order, the elements sorted stably by key are in the total order;
the batch merge sorts by (key, tag) instead, with a tag that grows with
run and position, so its buffer may be in any order.
"""
from __future__ import annotations

import numpy as np

from .core import PHASE_LOCAL_MERGE, concat, sort_order
from .redistribute import Staged
from .vdisk import OutputLayout


def local_multiway_merge(cluster, staged: list[Staged]) -> OutputLayout:
    """Merge every processor's staged pieces into its output slice; the
    layout lists the PEs' output blocks in PE order.

    Each staged block is due for freeing once the merge has consumed its
    last element.  A streaming merge would free it there, between two
    output writes; instead each PE frees and writes in two calls each,
    split at the output block after which the stream holds the most
    blocks, so its peak occupancy, its per-disk charges and its block ids
    are those of the stream.
    """
    cfg = cluster.cfg
    B = cfg.B
    out_lbs: list[np.ndarray] = []
    for t, table in enumerate(staged):
        count = -(-(table.start + table.length) // B)
        n = int(table.length.sum())
        if n % B:
            raise RuntimeError(
                f"output slice of PE {t} is {n} elements, not a block multiple")
        data = cluster.read_blocks(t, table.ids, PHASE_LOCAL_MERGE)
        # Piece i is data[at[i]:end[i]]; in elems it starts shift[i] earlier.
        at = (np.cumsum(count) - count) * B + table.start
        end = at + table.length
        shift = at - (np.cumsum(table.length) - table.length)
        elems = concat([data[a:b] for a, b in zip(at.tolist(), end.tolist())])
        # Each block's last element's index + 1 in elems.
        piece = np.repeat(np.arange(len(count)), count)
        ends = np.minimum(np.arange(B, (len(piece) + 1) * B, B),
                          end[piece]) - shift[piece]
        order = np.argsort(elems["key"], kind="stable")
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        # A block falls due before output block (rank of its last element
        # + 1) // B; after output block j the stream has written j + 1
        # blocks and freed #(due <= j).
        due = (rank[ends - 1] + 1) // B
        nb = n // B
        occupancy = np.arange(1, nb + 1) - np.cumsum(
            np.bincount(due, minlength=nb + 1)[:nb])
        split = int(np.argmax(occupancy)) + 1 if nb else 0
        early = due < split
        merged = elems[order]
        out_blocks = cluster.alloc_blocks(t, nb)
        for frees, lo, hi in ((early, 0, split), (~early, split, nb)):
            if frees.any():
                cluster.free_blocks(t, table.ids[frees])
            if hi > lo:
                cluster.write_blocks(t, out_blocks[lo:hi], merged[lo * B:hi * B],
                                     PHASE_LOCAL_MERGE)
        cluster.counters.overhead[PHASE_LOCAL_MERGE] += len(table.ids) * B - n
        out_lbs.append(out_blocks)
    return OutputLayout("canonical",
                        np.repeat(np.arange(cfg.P), list(map(len, out_lbs))),
                        np.concatenate(out_lbs))


def batch_merge(elems: np.ndarray, tags: np.ndarray,
                bound: tuple[int, int] | None = None):
    """Split buffered elements at ``bound`` in the total order (key, tag).

    ``tags`` is an ``int64`` column that orders ties: the striped engine
    tags each element with its run's offset plus its position, so (key,
    tag) is the order (key, run, position).  Returns the elements strictly
    below the ``bound`` (key, tag) in that order, and the rest with their
    tags, also in that order; ``None`` drains everything.
    """
    order = sort_order(elems["key"], tags)
    elems, tags = elems[order], tags[order]
    n = len(elems)
    if bound is not None:
        # What lies below the bound is a prefix of the order: every smaller
        # key, then those ties whose tag precedes the bound's.
        key, tag = bound
        keys = elems["key"]
        lo = int(keys.searchsorted(np.uint64(key), "left"))
        hi = int(keys.searchsorted(np.uint64(key), "right"))
        n = lo + int(tags[lo:hi].searchsorted(tag))
    return elems[:n], elems[n:], tags[n:]
