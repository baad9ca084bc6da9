"""Local multiway merging and the batch-merge kernel.

``local_multiway_merge`` is phase 3 of the rank-splitting engine: every
processor reads the blocks of its staged pieces in one call and merges
its R run pieces into its final slice, reading and writing each element
once.  ``batch_merge`` is the striped engine's kernel: sort a window's
buffered elements in the total order (key, run, position) and cut them at
each batch's bound, the elements past the last cut staying buffered.
Both free their input blocks and write their output blocks with
``free_and_write``, in one call each, charging the peak of the streaming
merge those calls stand for.

Both merge by one array sort.  Concatenated in run order, and each run in
position order, the elements sorted stably by key are in the total order;
the batch merge sorts by (key, tag) instead, with a tag that grows with
run and position, so its buffer may be in any order.  The local merge
skips the sort when each piece starts at or above where the one before
it ends, as on sorted or shifted input with the shuffle off.
"""
from __future__ import annotations

import numpy as np

from .core import ELEM, PHASE_LOCAL_MERGE, sort_order
from .redistribute import Staged
from .vdisk import OutputLayout

#: An element as one raw 16-byte row.
_ROW = np.dtype((np.void, ELEM.itemsize))


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
    # Every PE reads into, joins into and sorts into the same two columns,
    # sized by the most blocks a PE holds.
    size = B * max((len(table.ids) for table in staged), default=0)
    read, joined = np.empty(size, ELEM), np.empty(size, ELEM)
    for t, table in enumerate(staged):
        count = -(-(table.start + table.length) // B)
        n = int(table.length.sum())
        if n % B:
            raise RuntimeError(
                f"output slice of PE {t} is {n} elements, not a block multiple")
        pe_in = np.full(len(table.ids), t)
        data = cluster.read_blocks(pe_in, table.ids, PHASE_LOCAL_MERGE,
                                   read[:len(table.ids) * B])
        # Piece i is data[at[i]:end[i]]; in elems it starts shift[i] earlier.
        at = (np.cumsum(count) - count) * B + table.start
        end = at + table.length
        shift = at - (np.cumsum(table.length) - table.length)
        elems = joined[:n]
        # Joined as raw 16-byte rows: a structured copy goes field by field.
        rows = data.view(_ROW)
        np.concatenate([rows[:0]] + [rows[a:b] for a, b in zip(at.tolist(),
                                                               end.tolist())],
                       out=elems.view(_ROW))
        # Each block's last element's index + 1 in elems.
        piece = np.repeat(np.arange(len(count)), count)
        ends = np.minimum(np.arange(B, (len(piece) + 1) * B, B),
                          end[piece]) - shift[piece]
        # A block falls due before output block (rank of its last element
        # + 1) // B, the stream's step j writing output block j.  Sorted
        # pieces that each start at or above where the one before ends are
        # their own stable sort, each element's rank its index.
        keys = elems["key"]
        heads = (at - shift)[table.length > 0][1:]
        if (keys[heads] >= keys[heads - 1]).all():
            due = ends // B
        else:
            # Not core.sort_order: timsort merges R sorted pieces in near-
            # linear time.  Two sorted runs of 16,384 keys take 0.23 ms
            # against 0.81 ms with distinct keys, and 0.10 ms against
            # 0.85 ms with 8 (numpy 2.4.6, 2 vCPUs).
            order = np.argsort(keys, kind="stable")
            rank = np.empty(n, dtype=np.intp)
            rank[order] = np.arange(n)
            due = (rank[ends - 1] + 1) // B
            elems = np.take(elems, order, out=read[:n], mode="clip")
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


def batch_merge(elems: np.ndarray, tags: np.ndarray, bounds):
    """Sort buffered elements in the total order (key, tag) and cut them at
    each of ``bounds``.

    ``tags`` is an ``int64`` column that orders ties: the striped engine
    tags each element with its run over its position, so (key, tag) is the
    order (key, run, position).  ``bounds`` are ascending (key, tag) pairs,
    ``None`` standing for one past everything.  Returns the elements and
    their tags in that order and, per bound, how many lie strictly below
    it.
    """
    order = sort_order(elems["key"], tags)
    elems, tags = elems[order], tags[order]
    keys = elems["key"]
    cuts = np.array([len(keys) if b is None else _below(keys, tags, *b)
                     for b in bounds], np.int64)
    return elems, tags, cuts


def _below(keys: np.ndarray, tags: np.ndarray, key: int, tag: int) -> int:
    """How many of the sorted pairs (keys, tags) lie below (key, tag): every
    smaller key, then those ties whose tag precedes ``tag``."""
    lo = int(keys.searchsorted(np.uint64(key), "left"))
    hi = int(keys.searchsorted(np.uint64(key), "right"))
    return lo + int(tags[lo:hi].searchsorted(tag))
