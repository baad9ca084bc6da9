"""Local multiway merging and the batch-merge kernel.

``local_multiway_merge`` is phase 3 of the rank-splitting engine: every
processor reads the blocks of its staged pieces in one call and merges
its R run pieces into its final slice, reading and writing each element
once.  ``batch_merge`` is the striped engine's kernel: sort a window's
buffered elements in the total order (key, run, position) and cut them at
each batch's bound, the elements past the last cut staying buffered.
Both free their input blocks and write their output blocks with
``free_and_write``, in one call each, charging the peak of the streaming
merge those calls stand for.  Both work in columns their caller makes
once: the local merge reads every PE's blocks into one column and moves
the pieces together inside it, and ``batch_merge`` sorts into the
columns the striped pass hands it.

Both merge by one array sort.  Concatenated in run order, and each run in
position order, the elements sorted stably by key are in the total order;
the batch merge sorts by (key, tag) instead, with a tag that grows with
run and position, so its buffer may be in any order.  The local merge
skips the sort when each piece starts at or above where the one before
it ends, as on sorted or shifted input with the shuffle off.
"""
from __future__ import annotations

import numpy as np

from .core import ELEM, PHASE_LOCAL_MERGE, ROW, sort_order
from .redistribute import Staged
from .vdisk import OutputLayout


def local_multiway_merge(cluster, staged: list[Staged]) -> OutputLayout:
    """Merge every processor's staged pieces into its output slice; the
    layout lists the PEs' output blocks in PE order.

    Each staged block is due for freeing once the merge has consumed its
    last element.  A streaming merge would free it there, between two
    output writes; :func:`free_and_write` frees and writes in one call
    each with the stream's peak occupancy, per-disk charges and block ids.
    """
    cfg = cluster.cfg
    B = cfg.B
    out_lbs: list[np.ndarray] = []
    # Every PE reads into, and joins its pieces inside, one column sized by
    # the most blocks a PE holds; a PE whose pieces need a sort gathers it
    # into a second column, made for the first such PE.
    size = B * max((len(table.ids) for table in staged), default=0)
    read, ordered = np.empty(size, ELEM), None
    rows = read.view(ROW)
    for t, table in enumerate(staged):
        count = -(-(table.start + table.length) // B)
        n = int(table.length.sum())
        if n % B:
            raise RuntimeError(
                f"output slice of PE {t} is {n} elements, not a block multiple")
        pe_in = np.full(len(table.ids), t)
        cluster.read_blocks(pe_in, table.ids, PHASE_LOCAL_MERGE,
                            read[:len(table.ids) * B])
        # Piece i is read at at[i] and moves left to to[i], where the
        # pieces before it end: it takes at least as many blocks as
        # elements, so no move reaches a piece not moved yet.
        at = (np.cumsum(count) - count) * B + table.start
        to = np.cumsum(table.length) - table.length
        for a, w, m in zip(at.tolist(), to.tolist(), table.length.tolist()):
            if a != w:
                rows[w:w + m] = rows[a:a + m]
        elems = read[:n]
        # Each block's last element's index + 1 in elems.
        piece = np.repeat(np.arange(len(count)), count)
        ends = np.minimum(np.arange(B, (len(piece) + 1) * B, B),
                          (at + table.length)[piece]) - (at - to)[piece]
        # A block falls due before output block (rank of its last element
        # + 1) // B, the stream's step j writing output block j.  Sorted
        # pieces that each start at or above where the one before ends are
        # their own stable sort, each element's rank its index.
        keys = elems["key"]
        heads = to[table.length > 0][1:]
        if (keys[heads] >= keys[heads - 1]).all():
            due = ends // B
        else:
            # Not core.sort_order: timsort merges R sorted pieces in near-
            # linear time.  Two sorted runs of 16,384 keys take 0.23 ms
            # against 0.81 ms with distinct keys, and 0.10 ms against
            # 0.85 ms with 8 (numpy 2.4.6, 2 vCPUs).
            order = np.argsort(keys, kind="stable")
            # The ranks of the blocks' last elements, in rank order, and
            # the block of each: every block holds an element of its
            # piece, so the last elements ascend with the block.
            last = np.zeros(n, bool)
            last[ends - 1] = True
            rank = np.flatnonzero(last[order])
            due = np.empty(len(ends), np.int64)
            due[np.searchsorted(ends - 1, order[rank])] = (rank + 1) // B
            if ordered is None:
                ordered = np.empty(size, ELEM)
            elems = np.take(elems, order, out=ordered[:n], mode="clip")
        nb = n // B
        out_blocks = cluster.alloc_blocks(t, nb)
        free_and_write(cluster, pe_in, table.ids, due,
                       np.full(nb, t), out_blocks, np.arange(nb), elems,
                       PHASE_LOCAL_MERGE)
        cluster.counters.overhead[PHASE_LOCAL_MERGE] += len(table.ids) * B - n
        out_lbs.append(out_blocks)
    return OutputLayout("canonical",
                        np.repeat(np.arange(cfg.P), list(map(len, out_lbs))),
                        np.concatenate(out_lbs))


def free_and_write(cluster, pe_in, ids_in, due, pe, ids, step, elems,
                   phase: int) -> None:
    """Free the blocks ``ids_in`` of the PEs ``pe_in`` and write ``elems``
    as the blocks ``ids`` of the PEs ``pe``, ``B`` each, in one call each,
    charging every PE the peak block count of the stream they stand for.

    Step ``s`` of the stream frees the blocks due at ``s``, then writes
    the blocks of step ``s``; ``step`` ascends, and a block due after the
    last step is freed at the end.  The PEs are ``int64`` columns, one per
    block.
    """
    S = int(step[-1]) + 1 if len(step) else 0
    P, width = cluster.cfg.P, S + 1
    held = (np.bincount(pe * width + step, minlength=P * width)
            - np.bincount(pe_in * width + np.minimum(due, S),
                          minlength=P * width)).reshape(P, width)
    # Taken before the free lowers ``live``; the blocks freed at the end
    # (column S) come after every write.
    top = cluster.live + held[:, :S].cumsum(1).max(1, initial=0)
    if len(ids_in):
        cluster.free_blocks(pe_in, ids_in)
    if len(ids):
        cluster.write_blocks(pe, ids, elems, phase)
    np.maximum(cluster.peak, top, out=cluster.peak)


def batch_merge(elems: np.ndarray, tags: np.ndarray, bound_keys: np.ndarray,
                bound_tags: np.ndarray, out: np.ndarray, out_tags: np.ndarray,
                order: np.ndarray) -> np.ndarray:
    """Sort buffered elements in the total order (key, tag) into ``out``,
    their tags into ``out_tags``, and cut them at each bound.

    ``tags`` is an ``int64`` column that orders ties: the striped engine
    tags each element with its run over its position, so (key, tag) is the
    order (key, run, position).  The bounds are ascending (key, tag)
    pairs, a ``uint64`` and an ``int64`` column.  ``out`` is an element
    column as long as ``elems``, whose words are the sort's scratch, and
    ``out_tags`` and ``order`` are ``int64`` columns as long; ``order``
    is left holding the sort's order.  Returns, per bound, how many
    elements lie strictly below it.
    """
    order = sort_order(elems["key"], tags, order,
                       out.view(np.int64)[:len(out)])
    # ``clip`` never clips the order, and writes straight into the columns.
    np.take(elems, order, out=out, mode="clip")
    np.take(tags, order, out=out_tags, mode="clip")
    keys = out["key"]
    cuts = keys.searchsorted(bound_keys, "left")
    ends = keys.searchsorted(bound_keys, "right")
    # Only a bound whose key the buffer holds cuts its ties, by tag.
    for b in np.flatnonzero(ends > cuts).tolist():
        lo = int(cuts[b])
        cuts[b] = lo + int(out_tags[lo:ends[b]].searchsorted(bound_tags[b]))
    return cuts
