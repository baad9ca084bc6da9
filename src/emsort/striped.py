"""Globally striped mergesort engine.

Runs are stored round-robin across all P*D disks of the cluster, each
reserved as one stripe and held as a :class:`~emsort.runform.Run`, the
type the canonical engine's runs have too.  A merge pass is driven by the prediction sequence
— the block minima in sorted order, which is exactly the order the merger
will exhaust blocks — and by a prefetch schedule derived from it
(``schedule.prefetch_schedule``): scheduling fetches is the time reversal
of scheduling buffered writes.  Merging itself proceeds in batches of
M/(2B) blocks, each bounded by the smallest key of the next unfetched
block, which caps buffered leftovers at one block per run.  The
prediction sequence fixes every batch in advance, so the host moves them
in windows of whole batches holding at most ``runform.WINDOW`` = 2**15
fetched elements (32 batches of 64 blocks of 16 at ``M = 2048``), the
bound of run formation's windows too: a window is a slice of the pass's
``(pe, lb)`` columns in prediction order, read with one call and sorted
with one ``batch_merge`` that cuts it at every batch's bound.  Each
batch's output is the prefix of that sort up to its cut, because every
element fetched later lies at or above the bound; the one-block leftover
check is made for every batch.  The window's blocks are freed, and its
full output blocks written on a slice of the output stripe's columns,
with one call each, and each PE's peak block count is that of the
batch-by-batch stream.  The coordinator's traffic is charged per PE for
the whole pass.  A window is read into an element column behind the
leftovers of the window before, which move to the front of the columns
once the window's output is written; ``striped_sort`` makes these
columns once (:func:`merge_buffers`), and run formation's windows use
them too.  Run formation takes its memory loads in
windows as well (``runform.windows``): a window is read with one call,
sorted with one ``internal_parallel_sort``, given its stripes with one
``alloc_stripe`` call, and freed and written as the load-by-load stream
would.
"""
from __future__ import annotations

import numpy as np

from .core import (
    PHASE_RUN_FORMATION,
    PHASE_STRIPED_MERGE,
    ROW,
    derive_seed,
    sort_order,
)
from .merge import batch_merge, free_and_write
from .net import charge_volume, gather_splitters
from .runform import (
    WINDOW, PeBlocks, Run, internal_parallel_sort, window_blocks,
    window_buffers, windows,
)
from .schedule import prefetch_schedule, verify_schedule

COORDINATOR = 0


def _charge_moves(cluster, src, dst, phase: int) -> None:
    """Charge ``B`` elements of communication for every block that moves
    from PE ``src[i]`` to another PE ``dst[i]``; either may be one PE for
    all blocks."""
    P = cluster.cfg.P
    moves = np.bincount(np.ravel(src * P + dst), minlength=P * P)
    charge_volume(cluster, cluster.cfg.B * moves, phase)


def _run_start_disk(cluster, salt: int, index: int) -> int:
    if not cluster.cfg.randomize:
        return 0
    return derive_seed(cluster.cfg.seed, salt, index) % cluster.cfg.total_disks


def form_striped_runs(cluster, pe_blocks: PeBlocks, buffers) -> list[Run]:
    """Sort memory-sized chunks of the input into striped runs.

    Each run is one memory load: PE p reads share p of it, and the load
    (the shares joined in PE order) is sorted and written striped over all
    disks.  The loads go in windows (``runform.windows``): a window is
    read with one call, sorted with one ``internal_parallel_sort``, given
    its stripes by one ``alloc_stripe`` and freed and written by
    ``free_and_write`` as the load-by-load stream would leave each PE's
    blocks.  ``buffers`` are the columns of :func:`merge_buffers`, whose
    first three are long enough for every window.  Costs 2N element I/O
    plus the internal sort's communication.
    """
    cfg = cluster.cfg
    P, B = cfg.P, cfg.B
    ids = np.array(pe_blocks, np.int64)             # [pe, input block]
    runs: list[Run] = []
    for first, w, share in windows(cfg):
        length = P * share
        read, out, order = (c[:w * length] for c in buffers[:3])
        pes_in, lbs_in = window_blocks(cfg, ids, first, w, share)
        lbs_in = lbs_in.reshape(-1)
        data = internal_parallel_sort(cluster, cluster.read_blocks(
            pes_in, lbs_in, PHASE_RUN_FORMATION, read).reshape(w, length),
            out, order)
        if length % B:
            raise RuntimeError(
                f"striped run length {length} is not a block multiple")
        nb = length // B
        pes, lbs = cluster.alloc_stripe(
            [_run_start_disk(cluster, 2, j) for j in range(first, first + w)],
            nb)
        # Load j of the window frees its input blocks, and writes its
        # stripe, at step j: each load reads and writes nb blocks.
        step = np.repeat(np.arange(w), nb)
        free_and_write(cluster, pes_in, lbs_in, step, pes, lbs, step,
                       data.reshape(-1), PHASE_RUN_FORMATION)
        # Every PE writes its own sorted share, so cross-PE traffic is
        # charged from the PE holding a block's last element to its owner.
        holders = np.arange(B - 1, length, B) // share
        _charge_moves(cluster, np.tile(holders, w), pes, PHASE_RUN_FORMATION)
        minima = data["key"][:, ::B].copy()
        runs.extend(Run(length, pes[j * nb:(j + 1) * nb],
                               lbs[j * nb:(j + 1) * nb], minima[j])
                    for j in range(w))
    return runs


def build_prediction_sequence(cluster, runs: list[Run]):
    """Order every block of ``runs`` by (min key, run, block position).

    Returns three columns in that order: each block's minimum, its PE, and
    its index in the runs' blocks joined in run order, each run in
    position order.  The coordinator gathers every remote block's minimum
    (two control values per block: key and position tag) from the PE that
    holds the block.
    """
    minima = np.concatenate([run.minima for run in runs])
    pes = np.concatenate([run.pes for run in runs])
    gather_splitters(cluster, 2 * np.bincount(pes, minlength=cluster.cfg.P),
                     PHASE_STRIPED_MERGE)
    # A block's index is its run's offset plus its position, so equal
    # minima in index order are in the tie order (run, position).  The
    # sort's scratch words then take the minima in order, and the joined
    # minima the PEs.
    keys = np.empty(len(minima), np.uint64)
    at = sort_order(minima, np.broadcast_to(np.int64(0), minima.shape),
                    words=keys.view(np.int64))
    np.take(minima, at, out=keys, mode="clip")
    return keys, np.take(pes, at, out=minima.view(np.int64), mode="clip"), at


def _window_blocks(cfg) -> int:
    """Blocks in a merge pass's window: the most whole batches of M/(2B)
    blocks that hold at most ``WINDOW`` elements, and at least one."""
    batch = max(1, cfg.merge_arity)
    return max(1, WINDOW // (batch * cfg.B)) * batch


def merge_buffers(cfg) -> list[np.ndarray]:
    """Columns for every window of run formation and of the merge passes
    of a striped sort of ``cfg``: the elements as read and as sorted,
    their order, and their tags as read and as sorted.  A merge window is
    read behind the leftovers of the one before, at most a block per run
    of a pass and a block short of full output.  The first three are
    ``runform.window_buffers`` long enough for run formation's windows
    too."""
    runs, blocks = min(cfg.R, cfg.merge_arity), cfg.N // cfg.B
    read, out, order = window_buffers(
        cfg.P, windows(cfg),
        cfg.B * (min(_window_blocks(cfg), blocks) + runs + 1))
    return [read, out, order, np.empty_like(order), np.empty_like(order)]


def striped_merge_pass(cluster, runs: list[Run], start_disk: int,
                       buffers) -> Run:
    """Merge up to ``merge_arity`` striped runs into one striped run.

    The coordinator fetches blocks per the prefetch schedule (remote reads
    are charged as communication) in batches of M/(2B) blocks, and merges
    each batch into a stripe reserved from ``start_disk``.  The host takes
    the batches in windows, each the most whole batches whose blocks hold
    at most ``WINDOW`` (2**15) elements, and at least one batch: a window
    is read with one call on its slice of the prediction sequence's
    ``(pe, lb)`` columns, sorted once with its leftovers, cut at every
    batch's bound, and freed and written with one call each, charging
    each PE the peak of the batch-by-batch stream.  The traffic is
    charged per PE from the whole pass.  The pass costs one read and one
    write per element; its I/O steps are the schedule length plus the
    output's round-robin step count.  ``buffers`` are the columns of
    :func:`merge_buffers`.
    """
    cfg = cluster.cfg
    B, D_total = cfg.B, cfg.total_disks
    if len(runs) > cfg.merge_arity:
        raise ValueError(
            f"merging {len(runs)} runs exceeds the arity {cfg.merge_arity}")
    keys, pes, at = build_prediction_sequence(cluster, runs)
    lbs = np.concatenate([run.lbs for run in runs])[at]
    disks = pes * cfg.D
    disks += lbs % cfg.D
    W = max(D_total, cfg.merge_arity)
    n_steps = verify_schedule(disks, prefetch_schedule(disks, W, D_total), W)
    del disks

    # An element's tag is its run over its position in the run, so (key,
    # tag) is the order (key, run, position) and ``tag >> shift`` its run.
    # A block's tag is its index in the runs joined, less its run's offset
    # there, all times B, plus its run over the shift.  Batch k drains
    # what lies below the first block of batch k + 1.
    R = len(runs)
    shift = max(run.length for run in runs).bit_length()
    first = np.cumsum([0] + [len(run.lbs) for run in runs])
    offset = ((np.arange(R) << shift) - B * first[:-1])[
        np.searchsorted(first[1:], at, "right")]
    heads = at
    heads *= B
    heads += offset
    L = len(heads)
    del offset
    batch_blocks = cfg.merge_arity
    window = _window_blocks(cfg)
    elems, merged, order, tags, merged_tags = buffers
    lanes = np.arange(B)

    length = sum(run.length for run in runs)
    out_pes, out_lbs = cluster.alloc_stripe(start_disk, length // B)
    minima = np.empty(len(out_lbs), np.uint64)
    written = 0
    # The first ``rest`` of ``elems`` and ``tags`` are the merged elements
    # short of a full block (the first ``tail``), which precede every later
    # element, then those not merged yet; each window is read behind them.
    rest = tail = 0
    held = np.zeros(R, np.int64)    # each run's elements fetched, not merged
    for lo in range(0, L, window):
        hi = min(lo + window, L)
        n = rest + (hi - lo) * B
        cluster.read_blocks(pes[lo:hi], lbs[lo:hi], PHASE_STRIPED_MERGE,
                            elems[rest:n])
        np.add(heads[lo:hi, None], lanes, out=tags[rest:n].reshape(-1, B))
        batch = np.arange(hi - lo) // batch_blocks
        nb = int(batch[-1]) + 1
        # The pass's last batch has no bound: it drains everything.
        bound = np.arange(lo + batch_blocks, hi + batch_blocks, batch_blocks)
        bound = bound[bound < L]
        cuts = batch_merge(elems[:n], tags[:n], keys[bound], heads[bound],
                           merged[:n], merged_tags[:n], order[:n])
        if len(cuts) < nb:
            cuts = np.append(cuts, n)
        out = int(cuts[-1])
        # Each run's leftover after each batch: what it fetched less what
        # it merged, the batch of a merged element found from the cuts.
        merged_in = merged_tags[tail:out] >> shift
        merged_in += np.repeat(np.arange(0, nb * R, R),
                               np.diff(cuts, prepend=tail))
        left = held + (B * np.bincount(batch * R + (heads[lo:hi] >> shift),
                                       minlength=nb * R)
                       - np.bincount(merged_in, minlength=nb * R)
                       ).reshape(nb, R).cumsum(0)
        if left.max() > B:
            raise RuntimeError(
                f"batch leftover of {left.max()} elements exceeds a block")
        held = left[-1]
        full = out // B
        # An output block is written by the batch that fills it.
        free_and_write(cluster, pes[lo:hi], lbs[lo:hi], batch,
                       out_pes[written:written + full],
                       out_lbs[written:written + full],
                       np.repeat(np.arange(nb), np.diff(cuts // B, prepend=0)),
                       merged[:full * B], PHASE_STRIPED_MERGE)
        minima[written:written + full] = merged["key"][:full * B:B]
        written += full
        tail = out - full * B
        # What is left moves to the front of the columns, as raw rows.
        rest = n - full * B
        elems.view(ROW)[:rest] = merged.view(ROW)[full * B:n]
        tags[:rest] = merged_tags[full * B:n]
    if tail:
        raise RuntimeError(f"striped run length {written * B + tail} "
                           "is not a block multiple")
    _charge_moves(cluster, pes, COORDINATOR, PHASE_STRIPED_MERGE)
    _charge_moves(cluster, COORDINATOR, out_pes, PHASE_STRIPED_MERGE)
    cluster.counters.steps[PHASE_STRIPED_MERGE] += \
        n_steps + -(-written // D_total)
    return Run(length, out_pes, out_lbs, minima)


def striped_sort(cluster, pe_blocks: PeBlocks):
    """Sort the whole input with the striped engine.

    Returns (final run, passes).  Runs are merged ``merge_arity`` at a
    time until one remains; a leftover group of one run is carried into
    the next pass unchanged.
    """
    cfg = cluster.cfg
    # One set of columns for every window of run formation and of the
    # merge passes.
    buffers = merge_buffers(cfg)
    runs = form_striped_runs(cluster, pe_blocks, buffers)
    if not runs:                # an empty input forms no run
        empty = np.empty(0, np.int64)
        return Run(0, empty, empty, np.empty(0, np.uint64)), 0
    arity = cfg.merge_arity
    passes = 0
    while len(runs) > 1:
        merged: list[Run] = []
        for g0 in range(0, len(runs), arity):
            group = runs[g0:g0 + arity]
            if len(group) == 1:
                merged.append(group[0])
                continue
            start = _run_start_disk(cluster, 3, passes * len(runs) + g0)
            merged.append(striped_merge_pass(cluster, group, start, buffers))
        runs = merged
        passes += 1
    return runs[0], passes
