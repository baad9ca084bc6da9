"""Local multiway merging and the batch-merge kernel.

``local_multiway_merge`` is phase 3 of the rank-splitting engine: every
processor merges its R staged run segments into its final slice, reading
and writing each element once.  ``batch_merge`` is the kernel shared with
the striped engine: drain every buffered element strictly below a bound in
the total order (key, run, position), leaving later elements buffered.

Both merge by one array sort: concatenated in run order, and each run in
position order, the elements sorted stably by key are in the total order.
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
                for i, lb in enumerate(ref.blocks[:-(-end // B)]):
                    data = cluster.read_block(ref.pe, lb, PHASE_LOCAL_MERGE)
                    pieces.append(data[max(ref.start - i * B, 0):min(end - i * B, B)])
                    n += len(pieces[-1])
                    held.append((ref.pe, lb))
                    ends.append(n)
        if n % B:
            raise RuntimeError(
                f"output slice of PE {t} is {n} elements, not a block multiple")
        elems = concat(pieces)
        order = np.argsort(elems["key"], kind="stable")
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        # A block is freed before output block (rank of its last element + 1) // B.
        due = ((rank[np.array(ends, dtype=np.intp) - 1] + 1) // B).tolist()
        frees = sorted(zip(due, held), reverse=True)
        merged = elems[order]
        out_blocks: list[int] = []
        for k in range(n // B + 1):
            while frees and frees[-1][0] == k:
                cluster.deallocate_block(*frees.pop()[1])
            if k < n // B:
                lb = cluster.alloc_block(t)
                cluster.write_block(t, lb, merged[k * B:(k + 1) * B],
                                    PHASE_LOCAL_MERGE)
                out_blocks.append(lb)
        cluster.counters.add_overhead(PHASE_LOCAL_MERGE, len(held) * B - n)
        per_pe.append(out_blocks)
    return OutputLayout("canonical", per_pe=per_pe, stripe=None)


def batch_merge(buffers: list[np.ndarray], offsets: list[int],
                bound: tuple[int, int, int] | None = None) -> np.ndarray:
    """Pop everything strictly below ``bound`` from the run buffers, merged.

    ``buffers[j]`` holds the unconsumed prefix of run j starting at run
    position ``offsets[j]``; both are updated in place.  ``bound`` is an
    order key (key, run, position); ``None`` drains everything.
    """
    lengths = [len(buf) for buf in buffers]
    starts = np.cumsum([0] + lengths).tolist()
    elems = concat(buffers)
    order = np.argsort(elems["key"], kind="stable")
    n = len(elems)
    if bound is not None:
        # What lies below the bound is a prefix of the merged order: every
        # smaller key, then those ties that precede the bound's (run,
        # position), which among ties is concatenation order.
        key, run, pos = bound
        keys = elems["key"][order]
        lo = int(keys.searchsorted(np.uint64(key), "left"))
        hi = int(keys.searchsorted(np.uint64(key), "right"))
        edge = starts[run] + min(max(pos - offsets[run], 0), lengths[run])
        n = lo + int(order[lo:hi].searchsorted(edge))
    run_of = np.repeat(np.arange(len(buffers)), lengths)
    taken = np.bincount(run_of[order[:n]], minlength=len(buffers)).tolist()
    for j, k in enumerate(taken):
        if k:
            buffers[j] = elems[starts[j] + k:starts[j + 1]]
            offsets[j] += k
    return elems[order[:n]]
