"""Run formation: turn memory-sized stretches of the input into sorted runs.

Each processor shuffles the IDs of its local input blocks once (seeded, so
the permutation is reproducible) and successive runs consume consecutive
chunks of m/B of them.  A run is one memory load of the whole cluster
(M = P*m elements, the last run possibly shorter): the processors
cooperatively sort the load so that processor 0 ends up with the globally
smallest chunk and so on, and each chunk is written back over the very
blocks it was read from.  A load is one array, the processors' shares
joined in processor order: it is read with one call on the PE and block-id
columns of the whole cluster, sorted once, and written back with one call,
and the exchange that sorting implies is charged from where each element
came from and which chunk it lands in.  Every K-th element of the run is
retained as a sample for splitter seeding, as a column of keys: sample i
sits at run position K*i.

The shuffle is what makes each run a random subset of the local blocks:
downstream, the rank cuts of such runs sit close to their slice boundaries,
which is what keeps redistribution volume low on adversarial inputs.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ELEM, MachineConfig, PHASE_RUN_FORMATION, derive_seed, sort_order,
)
from .net import charge_volume, gather_splitters

#: Per processor, its input block ids in order: a list or an ``int64`` column.
PeBlocks = Sequence["np.ndarray | Sequence[int]"]


@dataclass
class RunDescriptor:
    """Where a formed run lives and how to address it by rank."""

    length: int
    share: int                    # elements per processor
    block_size: int
    blocks: np.ndarray            # [processor, b]: ``int64`` block ids in order
    # Every K-th element's key, in position order: sample i is at K*i.
    sample_keys: np.ndarray = field(
        default_factory=lambda: np.empty(0, np.uint64))

    def locate(self, pos: int) -> tuple[int, int, int]:
        """Map a run-global position to (pe, logical block, offset)."""
        pe, lp = divmod(pos, self.share)
        b, off = divmod(lp, self.block_size)
        return pe, int(self.blocks[pe, b]), off


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


def internal_parallel_sort(cluster, load: np.ndarray) -> np.ndarray:
    """Sort one memory load across processors.

    ``load`` is the processors' equal unsorted shares joined in processor
    order.  Returns it in (key, serial) order as one array, whose share p
    is the sorted chunk p ends up with, with the single data exchange
    charged to run formation.  The chunk cuts are exact rank splits in the
    order (key, processor, serial).

    The load is sorted once by (key, serial), and the chunks are slices of
    that order.  Only a group of equal keys that crosses a cut is sorted
    again, by small-integer stable sorts over the group alone: by
    processor, which gives each element its rank and so its chunk, then by
    chunk.  Each element's processor and chunk give the exchanged volumes
    and the cut positions every processor learns.
    """
    P = cluster.cfg.P
    m = cluster.cfg.m
    total = len(load)
    if total > P * m:
        raise MemoryError(f"a share of a {total}-element load exceeds m={m}")
    if total % P:
        raise ValueError("load size is not divisible by processor count")
    if total == 0:
        return np.empty(0, ELEM)
    share = total // P
    order = sort_order(load["key"], load["serial"])
    small = np.min_scalar_type(P)
    source = (order // share).astype(small)
    ordered = load[order]
    del order
    keys = ordered["key"]
    cuts = np.arange(share, total, share)
    tied = cuts[keys[cuts - 1] == keys[cuts]].tolist()
    if tied:
        keys = np.ascontiguousarray(keys)
        hi = 0
        for cut in tied:
            if cut < hi:        # its group was split at an earlier cut
                continue
            lo = int(keys.searchsorted(keys[cut], "left"))
            hi = int(keys.searchsorted(keys[cut], "right"))
            # The group is in serial order.  Ranked by (processor, serial)
            # its elements fill the chunks it spans; then it is laid out by
            # (chunk, serial).
            chunk = np.empty(hi - lo, small)
            chunk[np.argsort(source[lo:hi], kind="stable")] = \
                np.arange(lo, hi) // share
            regroup = np.argsort(chunk, kind="stable")
            ordered[lo:hi] = ordered[lo:hi][regroup]
            source[lo:hi] = source[lo:hi][regroup]
    # volume[c, q]: the elements of chunk c that came from processor q.
    volume = np.stack([np.bincount(source[p * share:(p + 1) * share],
                                   minlength=P) for p in range(P)])
    # Every processor learns every cut position: each contributes its
    # P - 1 cuts as control traffic.
    gather_splitters(cluster, np.full(P, P - 1), PHASE_RUN_FORMATION)
    charge_volume(cluster, volume.T, PHASE_RUN_FORMATION)
    return ordered


def form_runs(cluster, pe_blocks: PeBlocks) -> list[RunDescriptor]:
    """Form all runs in place.

    ``pe_blocks[p]`` lists processor p's input blocks in input order (a
    list or an ``int64`` column); each holds the same count and
    N = count * B * P.  Each run is read with one call and written with
    one.  Returns a descriptor per run, including the every-K-th sample
    of the sorted load.
    """
    cfg = cluster.cfg
    B, K = cfg.B, cfg.sample_rate
    order = np.stack([shuffle_block_ids(cfg, p, pe_blocks[p])
                      for p in range(cfg.P)])
    runs: list[RunDescriptor] = []
    base = 0
    for length, share in run_layout(cfg):
        take = share // B
        ids = order[:, base:base + take]
        base += take
        pes = np.repeat(np.arange(cfg.P), take)
        data = internal_parallel_sort(
            cluster, cluster.read_blocks(pes, ids.ravel(), PHASE_RUN_FORMATION))
        chunk = np.sort(ids)
        cluster.write_blocks(pes, chunk.ravel(), data, PHASE_RUN_FORMATION)
        runs.append(RunDescriptor(length, share, B, chunk,
                                  data["key"][::K].copy()))
    return runs
