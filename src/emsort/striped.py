"""Globally striped mergesort engine.

Runs are stored round-robin across all P*D disks of the cluster.  A merge
pass is driven by the prediction sequence — the block minima in sorted
order, which is exactly the order the merger will exhaust blocks — and by
a prefetch schedule derived from it: scheduling fetches is the time
reversal of scheduling buffered writes, so we simulate a greedy write
buffer over the reversed sequence and flip the step numbers.  Merging
itself proceeds in batches, each bounded by the smallest key of the next
unfetched block, which caps buffered leftovers at one block per run.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ELEM,
    PHASE_RUN_FORMATION,
    PHASE_STRIPED_MERGE,
    concat,
    derive_seed,
)
from .merge import batch_merge
from .net import gather_splitters
from .runform import internal_parallel_sort

COORDINATOR = 0


@dataclass
class StripedRun:
    """A sorted run striped round-robin over the cluster's disks."""

    length: int
    start_disk: int
    blocks: list[tuple[int, int]] = field(default_factory=list)  # (pe, lb)
    minima: list[int] = field(default_factory=list)  # smallest key per block

    def disk_of(self, index: int, disks_per_pe: int) -> int:
        pe, lb = self.blocks[index]
        return pe * disks_per_pe + lb % disks_per_pe


class _StripedWriter:
    """Emits a sorted element stream as a new striped run."""

    def __init__(self, cluster, start_disk: int, writer_pe: int, phase: str):
        self.cluster = cluster
        self.start_disk = start_disk
        self.writer_pe = writer_pe
        self.phase = phase
        self.tail = np.empty(0, ELEM)
        self.blocks: list[tuple[int, int]] = []
        self.minima: list[int] = []
        self.length = 0

    def append(self, elems: np.ndarray) -> None:
        """Write every whole block of the tail plus ``elems``, round-robin
        from the next disk; keep the rest as the tail."""
        cluster = self.cluster
        cfg = cluster.cfg
        B, D = cfg.B, cfg.D
        data = concat([self.tail, elems])
        full = len(data) - len(data) % B
        first = len(self.blocks)
        for g in range(first, first + full // B):
            pe, disk = divmod((self.start_disk + g) % cfg.total_disks, D)
            self.blocks.append((pe, cluster.alloc_block_on(pe, disk)))
        rows = data[:full].reshape(-1, B)
        for pe in range(cfg.P):
            mine = [g for g in range(full // B) if self.blocks[first + g][0] == pe]
            cluster.write_blocks(pe, [self.blocks[first + g][1] for g in mine],
                                 rows[mine], self.phase)
            if pe != self.writer_pe:
                cluster.counters.add_sent(self.phase, self.writer_pe, B * len(mine))
                cluster.counters.add_received(self.phase, pe, B * len(mine))
        self.minima.extend(data["key"][:full:B].tolist())
        self.length += full
        self.tail = data[full:]

    def finish(self) -> StripedRun:
        if len(self.tail):
            raise RuntimeError(
                f"striped run length {self.length + len(self.tail)} is not "
                f"a block multiple")
        return StripedRun(length=self.length, start_disk=self.start_disk,
                          blocks=self.blocks, minima=self.minima)


def _run_start_disk(cluster, salt: int, index: int) -> int:
    if not cluster.cfg.randomize:
        return 0
    return derive_seed(cluster.cfg.seed, salt, index) % cluster.cfg.total_disks


def form_striped_runs(cluster, pe_blocks: list[list[int]]) -> list[StripedRun]:
    """Sort memory-sized chunks of the input into striped runs.

    Chunk p of every run is read and sorted by PE p (one cooperative
    internal sort per run), then written striped over all disks; the
    consumed input blocks are freed.  Costs 2N element I/O plus the
    internal sort's communication.
    """
    cfg = cluster.cfg
    B, share = cfg.B, cfg.m
    local = cfg.N // cfg.P
    runs: list[StripedRun] = []
    offset = 0  # elements of each PE's band consumed so far
    index = 0
    while offset < local:
        take = min(share, local - offset)
        loads = []
        for p in range(cfg.P):
            lbs = pe_blocks[p][offset // B:(offset + take) // B]
            loads.append(cluster.read_blocks(p, lbs, PHASE_RUN_FORMATION))
            cluster.free_blocks(p, lbs)
        pieces = internal_parallel_sort(cluster, loads, PHASE_RUN_FORMATION)
        writer = _StripedWriter(cluster, _run_start_disk(cluster, 2, index),
                                COORDINATOR, PHASE_RUN_FORMATION)
        # Every PE writes its own sorted piece, so cross-PE traffic is
        # charged from the piece's holder to the block's disk owner.
        for p, piece in enumerate(pieces):
            writer.writer_pe = p
            writer.append(piece)
        runs.append(writer.finish())
        offset += take
        index += 1
    return runs


def build_prediction_sequence(cluster, runs: list[StripedRun]):
    """Return block descriptors sorted by (min key, run, block position).

    The coordinator gathers every remote block's minimum (two control
    values per block: key and position tag).
    """
    contributions: list[list[int]] = [[] for _ in range(cluster.cfg.P)]
    entries = []
    for j, run in enumerate(runs):
        for g, (pe, _lb) in enumerate(run.blocks):
            contributions[pe].extend((run.minima[g], g))
            entries.append((run.minima[g], j, g))
    gather_splitters(cluster, contributions, PHASE_STRIPED_MERGE)
    entries.sort()
    return entries


def prefetch_schedule(disks: list[int], W: int, D_total: int) -> list[int]:
    """Assign a fetch step to each block of a prediction sequence.

    ``disks[i]`` is the disk of the i-th block in consumption order; the
    returned ``steps[i]`` is its 0-based fetch step.  At most one block is
    fetched per disk per step and at most W fetched blocks are ever
    unconsumed.  The schedule is the time reversal of a greedy buffered
    write of the reversed sequence: admit requests into a W-slot buffer in
    order, and each step retire one block from every disk with a pending
    request.
    """
    if W < D_total:
        raise ValueError(f"buffer of {W} blocks cannot serve {D_total} disks")
    if any(d < 0 or d >= D_total for d in disks):
        raise ValueError("disk index out of range")
    L = len(disks)
    queues: list[deque[int]] = [deque() for _ in range(D_total)]
    write_step = [0] * L
    admitted = L - 1  # reversed order: admit L-1, L-2, ...
    buffered = 0
    step = 0
    while True:
        while admitted >= 0 and buffered < W:
            queues[disks[admitted]].append(admitted)
            admitted -= 1
            buffered += 1
        if buffered == 0:
            break
        step += 1
        for queue in queues:
            if queue:
                write_step[queue.popleft()] = step
                buffered -= 1
    return [step - s for s in write_step]


def verify_schedule(disks: list[int], steps: list[int], W: int) -> int:
    """Replay a fetch schedule; return its step count.

    Raises ValueError if two fetches share a disk in one step, a block is
    consumed before it is fetched, or more than W fetched blocks are ever
    unconsumed.  Consumption is in sequence order and happens after each
    step's fetches land.
    """
    L = len(disks)
    if L == 0:
        return 0
    by_step: dict[int, list[int]] = {}
    for i, s in enumerate(steps):
        by_step.setdefault(s, []).append(i)
    fetched = [False] * L
    occupancy = 0
    consumed = 0
    for s in range(max(steps) + 1):
        batch = by_step.get(s, ())
        used = set()
        for i in batch:
            if disks[i] in used:
                raise ValueError(f"step {s} fetches disk {disks[i]} twice")
            used.add(disks[i])
            fetched[i] = True
        occupancy += len(batch)
        if occupancy > W:
            raise ValueError(f"step {s} buffers {occupancy} > {W} blocks")
        while consumed < L and fetched[consumed]:
            consumed += 1
            occupancy -= 1
    if consumed < L:
        raise ValueError(f"block {consumed} is never fetched")
    return max(steps) + 1


def naive_steps(disks: list[int], W: int) -> int:
    """Steps taken by an in-order greedy fetcher with the same buffer.

    Each step it fetches the longest prefix of unfetched blocks that
    touches each disk at most once and fits the buffer, then the merger
    consumes everything fetched.
    """
    L = len(disks)
    fetched = 0
    steps = 0
    while fetched < L:
        steps += 1
        used: set[int] = set()
        occupancy = 0
        while fetched < L and disks[fetched] not in used and occupancy < W:
            used.add(disks[fetched])
            occupancy += 1
            fetched += 1
    return steps


def striped_merge_pass(cluster, runs: list[StripedRun],
                       start_disk: int) -> StripedRun:
    """Merge up to ``merge_arity`` striped runs into one striped run.

    The coordinator fetches blocks per the prefetch schedule (remote reads
    are charged as communication), merges in batches of M/(2B) blocks, and
    writes the output striped from ``start_disk``.  The pass costs one
    read and one write per element; its I/O steps are the schedule length
    plus the output's round-robin step count.
    """
    cfg = cluster.cfg
    B, D_total = cfg.B, cfg.total_disks
    if len(runs) > cfg.merge_arity:
        raise ValueError(
            f"merging {len(runs)} runs exceeds the arity {cfg.merge_arity}")
    entries = build_prediction_sequence(cluster, runs)
    disks = [runs[j].disk_of(g, cfg.D) for (_k, j, g) in entries]
    W = max(D_total, cfg.merge_arity)
    steps = prefetch_schedule(disks, W, D_total)
    n_steps = verify_schedule(disks, steps, W)

    batch_blocks = max(1, cfg.M // (2 * B))
    buffers = [np.empty(0, ELEM) for _ in runs]
    offsets = [0] * len(runs)
    writer = _StripedWriter(cluster, start_disk, COORDINATOR,
                            PHASE_STRIPED_MERGE)
    L = len(entries)
    for lo in range(0, L, batch_blocks):
        hi = min(lo + batch_blocks, L)
        fetched: list[list[np.ndarray]] = [[] for _ in runs]
        for (_k, j, g) in entries[lo:hi]:
            pe, lb = runs[j].blocks[g]
            fetched[j].append(cluster.read_blocks(pe, [lb], PHASE_STRIPED_MERGE))
            if pe != COORDINATOR:
                cluster.counters.add_sent(PHASE_STRIPED_MERGE, pe, B)
                cluster.counters.add_received(PHASE_STRIPED_MERGE,
                                              COORDINATOR, B)
            cluster.free_blocks(pe, [lb])
        for j, blocks in enumerate(fetched):
            if blocks:
                buffers[j] = concat([buffers[j], *blocks])
        if hi < L:
            key, j, g = entries[hi]
            bound = (key, j, g * B)
        else:
            bound = None
        writer.append(batch_merge(buffers, offsets, bound))
        leftover = max((len(buf) for buf in buffers), default=0)
        if leftover > B:
            raise RuntimeError(
                f"batch leftover of {leftover} elements exceeds a block")
    out = writer.finish()
    cluster.counters.add_steps(PHASE_STRIPED_MERGE,
                               n_steps + -(-len(out.blocks) // D_total))
    return out


def striped_sort(cluster, pe_blocks: list[list[int]]):
    """Sort the whole input with the striped engine.

    Returns (final run, passes).  Runs are merged ``merge_arity`` at a
    time until one remains; a leftover group of one run is carried into
    the next pass unchanged.
    """
    runs = form_striped_runs(cluster, pe_blocks)
    arity = cluster.cfg.merge_arity
    passes = 0
    while len(runs) > 1:
        merged: list[StripedRun] = []
        for g0 in range(0, len(runs), arity):
            group = runs[g0:g0 + arity]
            if len(group) == 1:
                merged.append(group[0])
                continue
            start = _run_start_disk(cluster, 3, passes * len(runs) + g0)
            merged.append(striped_merge_pass(cluster, group, start))
        runs = merged
        passes += 1
    return runs[0], passes
