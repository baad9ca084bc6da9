"""Run formation: turn memory-sized stretches of the input into sorted runs.

Each processor shuffles the IDs of its local input blocks once (seeded, so
the permutation is reproducible) and successive runs consume consecutive
chunks of m/B of them.  A run is one memory load of the whole cluster
(M = P*m elements, the last run possibly shorter): the processors
cooperatively sort the load so that processor 0 ends up with the globally
smallest chunk and so on, and each chunk is written back over the very
blocks it was read from.  A load is one array, the processors' shares
joined in processor order.  The host takes the loads in windows
(:func:`windows`): the most consecutive full loads holding at most
:data:`WINDOW` = 2**14 elements, and at least one, with a short last load
alone; the striped merge's windows of batches share that bound.  A
window is one ``(loads, P*share)`` array, read with one call on the PE
and block-id columns of the whole cluster, sorted row by row with one
call, and written back with one call; the exchange that sorting
implies is charged once per window, from where each element came from
and which chunk it lands in.

Both engines hold a sorted run as a :class:`Run`: a PE and a block-id
column in run order and each block's first key.  A run formed here lists
the PEs in ascending order, share/B blocks each, and its block minima,
every B-th key, are the sample that seeds the splitter search.

The shuffle is what makes each run a random subset of the local blocks:
downstream, the rank cuts of such runs sit close to their slice boundaries,
which is what keeps redistribution volume low on adversarial inputs.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    ELEM, MachineConfig, PHASE_RUN_FORMATION, derive_seed, rows_increase,
    sort_order,
)
from .net import charge_volume, gather_splitters

#: Elements a window holds at most, of run formation's memory loads or of a
#: striped merge pass's batches: the host reads, sorts and writes a
#: window's whole loads or batches together.
WINDOW = 1 << 14

#: Per processor, its input block ids in order: a list or an ``int64`` column.
PeBlocks = Sequence["np.ndarray | Sequence[int]"]


@dataclass
class Run:
    """A sorted run stored as blocks on the PEs' disks: block ``g`` is
    block ``lbs[g]`` of PE ``pes[g]``, both ``int64`` columns in run
    order, and ``minima[g]`` is its first key."""

    length: int
    pes: np.ndarray
    lbs: np.ndarray
    minima: np.ndarray


def run_layout(cfg: MachineConfig) -> list[tuple[int, int]]:
    """(length, per-processor share) for each run of the configured input."""
    layout = []
    remaining = cfg.N
    while remaining > 0:
        length = min(cfg.M, remaining)
        layout.append((length, length // cfg.P))
        remaining -= length
    return layout


def shuffle_block_ids(cfg: MachineConfig, pe: int, blocks) -> np.ndarray:
    """Seeded random permutation of one processor's input block IDs (a list
    or an ``int64`` column), as an ``int64`` column."""
    ids = np.asarray(blocks, np.int64)
    if not cfg.randomize or len(ids) < 2:
        return ids
    rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, 1, pe)))
    return ids[rng.permutation(len(ids))]


def windows(cfg: MachineConfig) -> list[tuple[int, int, int]]:
    """(first run, runs, per-processor share) of each window of run
    formation: the most consecutive full memory loads that hold at most
    :data:`WINDOW` elements, and at least one; a short last load is a window
    of its own."""
    full, rest = divmod(cfg.N, cfg.M)
    per = max(1, WINDOW // cfg.M)
    out = [(j, min(per, full - j), cfg.m) for j in range(0, full, per)]
    if rest:
        out.append((full, 1, rest // cfg.P))
    return out


def window_blocks(cfg: MachineConfig, ids: np.ndarray, first: int, w: int,
                  share: int) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of a window of ``w`` loads from run ``first`` on, each
    processor contributing ``share`` elements to a load: a PE column, and
    the ids as a ``[load, processor, block]`` array in the same order.
    ``ids[p]`` lists processor p's input blocks in the order that runs
    consume them, m/B to a full load."""
    take = share // cfg.B
    base = first * (cfg.m // cfg.B)
    lbs = ids[:, base:base + w * take].reshape(cfg.P, w, take)
    return (np.tile(np.repeat(np.arange(cfg.P), take), w),
            np.ascontiguousarray(lbs.swapaxes(0, 1)))


def window_buffers(P: int, wins, size: int = 0) -> list[np.ndarray]:
    """Columns for the largest of the windows ``wins`` (as :func:`windows`
    gives them) on ``P`` processors, and at least ``size`` long, which
    every window reuses through its prefixes: the elements as read and as
    sorted, and their order."""
    size = max([size] + [P * w * share for _, w, share in wins])
    return [np.empty(size, ELEM), np.empty(size, ELEM),
            np.empty(size, np.int64)]


def internal_parallel_sort(cluster, loads: np.ndarray, out: np.ndarray,
                           order: np.ndarray) -> np.ndarray:
    """Sort a window of memory loads, each across the processors.

    ``loads`` holds one load per row, each the processors' equal unsorted
    shares joined in processor order.  Returns each row in (key, serial)
    order, whose share p is the sorted chunk p ends up with, with the
    data exchange charged to run formation.  The chunk cuts are exact
    rank splits of each row in the order (key, processor, serial).  The
    sorted rows are gathered into ``out``, an element column of
    ``loads.size`` entries, and ``order``, an ``int64`` column as long,
    holds their order (:func:`window_buffers` makes both).

    The rows are sorted once by (key, serial), and the chunks are slices
    of that order.  Only a group of equal keys that crosses a cut is
    sorted again, by small-integer stable sorts over the group alone: by
    processor, which gives each element its rank and so its chunk, then
    by chunk.  Each element's processor and chunk give the exchanged
    volumes, summed over the rows, and the cut positions every processor
    learns.  Two passes are skipped where they change nothing.  A window
    whose rows strictly increase is returned as read, each chunk its
    processor's share.  A row whose shares' serials are banded (share p's
    below share p + 1's, as in every generated input) has its (key,
    processor, serial) order once sorted by (key, serial), so no group in
    it is sorted again.
    """
    P = cluster.cfg.P
    m = cluster.cfg.m
    w, total = loads.shape
    if total > P * m:
        raise MemoryError(f"a share of a {total}-element load exceeds m={m}")
    if total % P:
        raise ValueError("load size is not divisible by processor count")
    if total == 0:
        return np.empty((w, 0), ELEM)
    share = total // P
    # Every processor learns every cut position: each contributes its
    # P - 1 cuts of every row as control traffic.
    gather_splitters(cluster, np.full(P, w * (P - 1)), PHASE_RUN_FORMATION)
    if rows_increase(loads["key"]):     # each chunk stays where it is
        return loads
    # The sort's scratch words lie in ``out``, dead before the gather.
    order = sort_order(loads["key"], loads["serial"], order,
                       out.view(np.int64)[:total * w])
    keys = loads["key"].reshape(-1)
    cuts = (np.arange(0, w * total, total)[:, None]
            + np.arange(share, total, share)).ravel()
    tied = cuts[keys[order[cuts - 1]] == keys[order[cuts]]]
    if len(tied):   # a banded row is in (key, processor, serial) order
        serials = loads["serial"].reshape(w, P, share)
        banded = (serials.max(2)[:, :-1] < serials.min(2)[:, 1:]).all(1)
        tied = tied[~banded[tied // total]]
    if len(tied):
        keys = keys[order]
        small = np.min_scalar_type(P)
        hi = 0
        for cut in tied.tolist():
            if cut < hi:        # its group was split at an earlier cut
                continue
            first = cut - cut % total
            lo = first + int(keys[first:first + total].searchsorted(
                keys[cut], "left"))
            hi = first + int(keys[first:first + total].searchsorted(
                keys[cut], "right"))
            # The group is in serial order.  Ranked by (processor, serial)
            # its elements fill the chunks it spans; then it is laid out by
            # (chunk, serial).
            source = ((order[lo:hi] - first) // share).astype(small)
            chunk = np.empty(hi - lo, small)
            chunk[np.argsort(source, kind="stable")] = \
                np.arange(lo - first, hi - first) // share
            order[lo:hi] = order[lo:hi][np.argsort(chunk, kind="stable")]
    del keys    # a copy when tied, dropped before the sorted rows are made
    # ``clip`` never clips the order, and writes straight into ``out``.
    ordered = np.take(loads.reshape(-1), order, out=out, mode="clip")
    # volume[c, q]: the elements of chunk c that came from processor q.
    # Over the share, an element's flat position is q plus P times its
    # row, so the order becomes each element's lane c * P + q.
    lanes = order.reshape(w, P, share)      # [row, chunk, position]
    lanes //= share
    lanes += (np.arange(0, P * P, P)
              - np.arange(0, w * P, P)[:, None])[:, :, None]
    volume = np.bincount(order, minlength=P * P).reshape(P, P)
    charge_volume(cluster, volume.T, PHASE_RUN_FORMATION)
    return ordered.reshape(w, total)


def form_runs(cluster, pe_blocks: PeBlocks) -> list[Run]:
    """Form all runs in place.

    ``pe_blocks[p]`` lists processor p's input blocks in input order (a
    list or an ``int64`` column); each holds the same count and
    N = count * B * P.  Each window of loads (:func:`windows`) is read
    with one call, sorted with one :func:`internal_parallel_sort` and
    written over the same blocks with one call.  Returns a :class:`Run`
    per load, each PE's blocks in ascending id order.
    """
    cfg = cluster.cfg
    P, B = cfg.P, cfg.B
    order = np.stack([shuffle_block_ids(cfg, p, pe_blocks[p])
                      for p in range(P)])
    runs: list[Run] = []
    wins = windows(cfg)
    buffers = window_buffers(P, wins)
    for first, w, share in wins:
        read, out, index = (c[:w * P * share] for c in buffers)
        pes, ids = window_blocks(cfg, order, first, w, share)
        data = internal_parallel_sort(cluster, cluster.read_blocks(
            pes, ids.reshape(-1), PHASE_RUN_FORMATION, read).reshape(
                w, P * share), out, index)
        lbs = np.sort(ids, axis=2).reshape(w, -1)
        cluster.write_blocks(pes, lbs.reshape(-1), data, PHASE_RUN_FORMATION)
        minima = data["key"][:, ::B].copy()
        nb = lbs.shape[1]
        runs.extend(Run(P * share, pes[j * nb:(j + 1) * nb], lbs[j],
                        minima[j]) for j in range(w))
    return runs
