"""Run formation: turn memory-sized stretches of the input into sorted runs.

Each processor shuffles the IDs of its local input blocks once (seeded, so
the permutation is reproducible) and successive runs consume consecutive
chunks of m/B of them.  A run is one memory load of the whole cluster
(M = P*m elements, the last run possibly shorter): the processors
cooperatively sort the load so that processor 0 ends up with the globally
smallest chunk and so on, and each chunk is written back over the very
blocks it was read from.  While writing, every K-th element of the run is
retained as a sample for splitter seeding, as a column of keys beside a
column of run positions.

The shuffle is what makes each run a random subset of the local blocks:
downstream, the rank cuts of such runs sit close to their slice boundaries,
which is what keeps redistribution volume low on adversarial inputs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    ELEM, MachineConfig, PHASE_RUN_FORMATION, concat, derive_seed, sort_order,
)
from .net import all_to_all_v, gather_splitters


@dataclass
class RunDescriptor:
    """Where a formed run lives and how to address it by rank."""

    index: int
    length: int
    share: int                    # elements per processor
    block_size: int
    blocks: list[list[int]]       # per processor, logical block ids in order
    # Every K-th element's key and run position, in position order.
    sample_keys: np.ndarray = field(
        default_factory=lambda: np.empty(0, np.uint64))
    sample_pos: np.ndarray = field(
        default_factory=lambda: np.empty(0, np.int64))

    def locate(self, pos: int) -> tuple[int, int, int]:
        """Map a run-global position to (pe, logical block, offset)."""
        pe, lp = divmod(pos, self.share)
        b, off = divmod(lp, self.block_size)
        return pe, self.blocks[pe][b], off


def run_layout(cfg: MachineConfig) -> list[tuple[int, int]]:
    """(length, per-processor share) for each run of the configured input."""
    layout = []
    remaining = cfg.N
    while remaining > 0:
        length = min(cfg.M, remaining)
        layout.append((length, length // cfg.P))
        remaining -= length
    return layout


def shuffle_block_ids(cfg: MachineConfig, pe: int, blocks: list[int]) -> list[int]:
    """Seeded random permutation of one processor's input block IDs."""
    if not cfg.randomize or len(blocks) < 2:
        return list(blocks)
    rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, 1, pe)))
    return [blocks[k] for k in rng.permutation(len(blocks))]


def _by_key_then_serial(elems: np.ndarray) -> np.ndarray:
    """``elems`` in (key, serial) order."""
    return elems[sort_order(elems["key"], elems["serial"])]


def internal_parallel_sort(cluster, loads: list[np.ndarray],
                           phase: str = PHASE_RUN_FORMATION) -> list[np.ndarray]:
    """Sort one memory load across processors.

    ``loads[p]`` is processor p's unsorted share.  Returns equal-size sorted
    chunks, chunk p preceding chunk p+1, with the single data exchange
    charged to ``phase``.  Local sorts order elements by (key, serial); the
    chunk cuts are exact rank splits in the order (key, processor, position),
    so chunk sizes match the shares.
    """
    P = len(loads)
    m = cluster.cfg.m
    for load in loads:
        if len(load) > m:
            raise MemoryError(f"load of {len(load)} elements exceeds m={m}")
    total = sum(len(load) for load in loads)
    if total == 0:
        return [np.empty(0, ELEM) for _ in range(P)]
    if total % P:
        raise ValueError("load size is not divisible by processor count")
    share = total // P
    locals_sorted = [_by_key_then_serial(load) for load in loads]
    # A stable sort by key of the processor-ordered concatenation is the
    # order (key, processor, position); count each processor's elements per
    # chunk of ``share`` ranks.
    keys = np.concatenate([lst["key"] for lst in locals_sorted])
    source = np.repeat(np.arange(P), [len(lst) for lst in locals_sorted])
    ranked = source[np.argsort(keys, kind="stable")]
    counts = np.bincount(np.arange(total) // share * P + ranked, minlength=P * P)
    cutpos = [[0] * P] + np.cumsum(counts.reshape(P, P), axis=0).tolist()
    # Every processor learns every cut position (control traffic).
    gather_splitters(cluster, [[cutpos[p][q] for p in range(1, P)]
                               for q in range(P)], phase)
    payloads = [[[(None, locals_sorted[q][cutpos[p][q]:cutpos[p + 1][q]])]
                 for p in range(P)] for q in range(P)]
    received = all_to_all_v(cluster, payloads, phase)
    return [_by_key_then_serial(concat([piece for src in row
                                        for _tag, piece in src]))
            for row in received]


def form_runs(cluster, pe_blocks: list[list[int]]) -> list[RunDescriptor]:
    """Form all runs in place.

    ``pe_blocks[p]`` lists processor p's input blocks in input order; each
    holds the same count and N = count * B * P.  Returns a descriptor per
    run, including the every-K-th sample gathered during write-back.
    """
    cfg = cluster.cfg
    B, K = cfg.B, cfg.sample_rate
    order = [shuffle_block_ids(cfg, p, pe_blocks[p]) for p in range(cfg.P)]
    layout = run_layout(cfg)
    runs: list[RunDescriptor] = []
    base = 0
    for i, (length, share) in enumerate(layout):
        take = share // B
        chunk = [sorted(order[p][base:base + take]) for p in range(cfg.P)]
        loads = [cluster.read_blocks(p, order[p][base:base + take],
                                     PHASE_RUN_FORMATION)
                 for p in range(cfg.P)]
        base += take
        chunks = internal_parallel_sort(cluster, loads, PHASE_RUN_FORMATION)
        keys = []
        for p, sorted_chunk in enumerate(chunks):
            cluster.write_blocks(p, chunk[p], sorted_chunk, PHASE_RUN_FORMATION)
            g = -(-(p * share) // K) * K  # first sampled position in chunk
            keys.append(sorted_chunk["key"][g - p * share::K])
        runs.append(RunDescriptor(i, length, share, B, chunk, np.concatenate(keys),
                                  np.arange(0, length, K, dtype=np.int64)))
    return runs
