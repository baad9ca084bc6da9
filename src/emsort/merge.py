"""Local multiway merging and the batch-merge kernel.

``local_multiway_merge`` is phase 3 of the rank-splitting engine: every
processor merges its R staged run segments into its final slice, reading
and writing each element once.  ``batch_merge`` is the striped engine's
kernel: drain every buffered element strictly below a bound in the total
order (key, run, position), leaving later elements buffered.

Both merge by one array sort.  Concatenated in run order, and each run in
position order, the elements sorted stably by key are in the total order;
the batch merge sorts by (key, tag) instead, with a tag that grows with
run and position, so its buffer may be in any order.
"""
from __future__ import annotations

import numpy as np

from .core import PHASE_LOCAL_MERGE, concat
from .redistribute import StagedRun
from .vdisk import OutputLayout


def local_multiway_merge(cluster, staged: list[list[StagedRun]]) -> OutputLayout:
    """Merge every processor's staged segments into its output slice.

    Each staged block is freed once the merge has consumed its last
    element, interleaved with the output writes as a streaming merge would,
    so disk occupancy follows the stream.
    """
    cfg = cluster.cfg
    B = cfg.B
    per_pe: list[list[int]] = []
    for t in range(cfg.P):
        pieces = []
        held: list[tuple[int, int]] = []    # (pe, lb) of every block read
        ends: list[int] = []                # its last element's index + 1
        n = 0
        for seg in staged[t]:
            for ref in seg.refs:
                end = ref.start + ref.length
                lbs = ref.blocks[:-(-end // B)]
                pieces.append(cluster.read_blocks(ref.pe, lbs, PHASE_LOCAL_MERGE)
                              [ref.start:end])
                held.extend((ref.pe, lb) for lb in lbs)
                ends.extend(n + min(i * B, end) - ref.start
                            for i in range(1, len(lbs) + 1))
                n += ref.length
        if n % B:
            raise RuntimeError(
                f"output slice of PE {t} is {n} elements, not a block multiple")
        elems = concat(pieces)
        order = np.argsort(elems["key"], kind="stable")
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        # A block is freed before output block (rank of its last element + 1) // B.
        due = ((rank[np.array(ends, dtype=np.intp) - 1] + 1) // B).tolist()
        frees: dict[tuple[int, int], list[int]] = {}
        for k, (pe, lb) in zip(due, held):
            frees.setdefault((k, pe), []).append(lb)
        merged = elems[order]
        out_blocks = cluster.alloc_blocks(t, n // B)
        done = 0
        for k, pe in sorted(frees.keys() | {(n // B, t)}):
            cluster.write_blocks(t, out_blocks[done:k], merged[done * B:k * B],
                                 PHASE_LOCAL_MERGE)
            cluster.free_blocks(pe, frees.get((k, pe), ()))
            done = k
        cluster.counters.add_overhead(PHASE_LOCAL_MERGE, len(held) * B - n)
        per_pe.append(out_blocks)
    return OutputLayout("canonical", per_pe=per_pe, stripe=None)


def batch_merge(elems: np.ndarray, tags: np.ndarray,
                bound: tuple[int, int] | None = None):
    """Split buffered elements at ``bound`` in the total order (key, tag).

    ``tags`` is an ``int64`` column that orders ties: the striped engine
    tags each element with its run's offset plus its position, so (key,
    tag) is the order (key, run, position).  Returns the elements strictly
    below the ``bound`` (key, tag) in that order, and the rest with their
    tags, also in that order; ``None`` drains everything.
    """
    order = np.lexsort((tags, elems["key"]))
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
