"""Phase 2: exact run splitting and the budgeted external all-to-all.

Every formed run is cut at the global ranks t*N/P, so that processor t is
assigned, per run, exactly the subsegment holding its slice of the final
order.  The cuts come from multiway selection seeded by the run samples.

The data exchange is organized around flows: one flow per (source,
destination, run) triple, covering the position-contiguous piece of the
run's cut that must change processors.  Flows are cut at block boundaries
and greedily packed into sub-rounds so that every processor's per-round
send and receive volumes fit in memory next to one working block.  A
destination writes each arriving piece straight to fresh blocks — only a
flow's final block can be ragged, and it is sentinel-padded — so nothing
is buffered across rounds and the padding is at most one block per flow.
Run subsegments that are already local are left in place and recorded by
reference, so a fully canonical input incurs zero I/O and zero
communication here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PHASE_ALL_TO_ALL, PHASE_SELECTION, concat, sentinels
from .net import all_to_all_v, gather_splitters
from .runform import RunDescriptor
from .selection import DiskAccessor, select_all_ranks


class PlanError(Exception):
    pass


@dataclass
class SplitterMatrix:
    """Cut positions per boundary (rows 0..P) and run, plus search stats."""

    pos: list[list[int]]
    rounds: int
    touched: int
    blocks_read: int
    fallbacks: int

    @property
    def boundaries(self) -> int:
        return len(self.pos) - 1


@dataclass
class SegRef:
    """A position-contiguous piece of a staged run segment on one PE."""

    pe: int
    blocks: list[int] | np.ndarray
    start: int              # element offset into blocks[0]
    length: int


@dataclass
class StagedRun:
    run: int
    length: int
    refs: list[SegRef]


@dataclass
class Redistribution:
    matrix: SplitterMatrix
    v_moved: int
    k: int
    partners: list[int]
    staged: list[list[StagedRun]]       # [dest][run]
    peak_footprint: list[int]


def compute_splitters(cluster, runs: list[RunDescriptor]) -> SplitterMatrix:
    """Exact cuts of every run at the ranks t*N/P, shared with all PEs."""
    cfg = cluster.cfg
    P = cfg.P
    total = sum(run.length for run in runs)
    # Samples travel to the selecting task: control traffic, 2 values each,
    # from the PE that holds the sampled position.
    contrib = [[np.empty(0, np.uint64)] for _ in range(P)]
    for run in runs:
        words = np.empty(2 * len(run.sample_pos), np.uint64)
        words[0::2] = run.sample_keys
        words[1::2] = run.sample_pos
        cuts = 2 * np.searchsorted(run.sample_pos, np.arange(P + 1) * run.share)
        for p in range(P):
            contrib[p].append(words[cuts[p]:cuts[p + 1]])
    gather_splitters(cluster, [np.concatenate(parts) for parts in contrib],
                     PHASE_SELECTION)

    acc = DiskAccessor(cluster, runs, PHASE_SELECTION)
    ranks = [t * (total // P) for t in range(1, P)]
    results = select_all_ranks(acc, ranks,
                               [(run.sample_keys, run.sample_pos) for run in runs],
                               cfg.sample_rate)
    pos = [[0] * len(runs)]
    pos.extend(res.positions for res in results)
    pos.append([run.length for run in runs])
    flat = [v for row in pos[1:-1] for v in row]
    gather_splitters(cluster, [flat if p == 0 else [] for p in range(P)],
                     PHASE_SELECTION)
    return SplitterMatrix(pos,
                          sum(r.rounds for r in results),
                          sum(r.touched for r in results),
                          acc.blocks_read,
                          sum(1 for r in results if r.fell_back))


def _cut_pieces(runs: list[RunDescriptor], matrix: SplitterMatrix
                ) -> list[tuple[int, int, int, int, int]]:
    """Every piece (src, dest, run, lo, hi) of the runs' cuts: the part of
    dest's cut ``[lo, hi)`` of a run that src holds, in a fixed order.  A
    piece with ``src == dest`` stays in place; any other is a flow."""
    pieces = []
    for t in range(matrix.boundaries):
        for j, run in enumerate(runs):
            lo, hi = matrix.pos[t][j], matrix.pos[t + 1][j]
            if lo < hi:
                for q in range(lo // run.share, (hi - 1) // run.share + 1):
                    pieces.append((q, t, j, max(lo, q * run.share),
                                   min(hi, (q + 1) * run.share)))
    return pieces


def per_run_moved(runs: list[RunDescriptor], matrix: SplitterMatrix) -> list[int]:
    """Elements of each run that change processors."""
    out = [0] * len(runs)
    for q, t, j, a, b in _cut_pieces(runs, matrix):
        if q != t:
            out[j] += b - a
    return out


def _local_ref(run: RunDescriptor, pe: int, lo: int, hi: int) -> SegRef:
    b0 = (lo - pe * run.share) // run.block_size
    b1 = (hi - 1 - pe * run.share) // run.block_size
    start = (lo - pe * run.share) - b0 * run.block_size
    return SegRef(pe, run.blocks[pe][b0:b1 + 1], start, hi - lo)


def _schedule_flows(flows: list[tuple[int, int, int, int, int]],
                    eff: int, B: int, P: int
                    ) -> tuple[int, list[list[tuple[int, int, int]]]]:
    """Pack flow blocks into sub-rounds of ≤ ``eff`` elements per PE.

    Blocks of one flow are placed in non-decreasing rounds (first fit), so
    pieces of a flow arrive in position order.  A flow's full blocks are
    placed by count, round by round; only its short final block is fitted
    on its own.  Returns the round count and, per flow, its pieces as
    (round, lo, hi) element ranges; every piece is a whole number of blocks
    except a flow's final piece.
    """
    if flows and eff < B:
        raise PlanError(
            f"per-round budget of {eff} elements is below one block ({B})")
    send_load: list[list[int]] = []
    recv_load: list[list[int]] = []
    # Loads only grow, so a round that a full block misses stays missed by
    # every later full block of the same sender or receiver.  So a round
    # takes a flow's full blocks by count, and no full block tries a round
    # before the first one with a block of room for its sender and receiver.
    send_room = [0] * P
    recv_room = [0] * P
    pieces: list[list[tuple[int, int, int]]] = []
    for q, t, _j, lo, hi in flows:
        mine: list[tuple[int, int, int]] = []
        c = lo
        left = (hi - lo) // B           # the flow's full blocks still to place
        r = max(send_room[q], recv_room[t]) if left else 0
        while c < hi:
            if r == len(send_load):
                send_load.append([0] * P)
                recv_load.append([0] * P)
            send, recv = send_load[r], recv_load[r]
            room = eff - max(send[q], recv[t])
            if left:
                vol = min(left, room // B) * B
                left -= vol // B
            else:                       # the short final block, first fit
                vol = hi - c if hi - c <= room else 0
            if vol:
                send[q] += vol
                recv[t] += vol
                if mine and mine[-1][0] == r:
                    mine[-1] = (r, mine[-1][1], c + vol)
                else:
                    mine.append((r, c, c + vol))
                c += vol
                while send_room[q] < len(send_load) \
                        and send_load[send_room[q]][q] > eff - B:
                    send_room[q] += 1
                while recv_room[t] < len(recv_load) \
                        and recv_load[recv_room[t]][t] > eff - B:
                    recv_room[t] += 1
            if left:
                r = max(r + 1, send_room[q], recv_room[t])
            elif not vol:
                r += 1
        pieces.append(mine)
    return len(send_load), pieces


def external_all_to_all(cluster, runs: list[RunDescriptor],
                        matrix: SplitterMatrix) -> Redistribution:
    """Execute the redistribution; returns per-PE staged run segments."""
    cfg = cluster.cfg
    P, B = cfg.P, cfg.B
    pos = matrix.pos

    pieces = _cut_pieces(runs, matrix)
    flows = [piece for piece in pieces if piece[0] != piece[1]]
    # (position, SegRef) of the piece of each (dest, run) cut that its
    # holder already has.
    kept = {(t, j): (a, _local_ref(runs[j], t, a, b))
            for q, t, j, a, b in pieces if q == t}
    v_moved = sum(b - a for _q, _t, _j, a, b in flows)
    partners = [len({t for q, t, *_ in flows if q == p}) for p in range(P)]
    # Each round leaves one working block of memory beside its payload.
    k, flow_pieces = _schedule_flows(flows, cfg.m - B, B, P)

    by_round: list[list[tuple[int, int, int]]] = [[] for _ in range(k)]
    for f, mine in enumerate(flow_pieces):
        for r, a, b in mine:
            by_round[r].append((f, a, b))

    # refs_at[(t, j)]: (position, SegRef) of every arriving piece.
    refs_at: dict[tuple[int, int], list[tuple[int, SegRef]]] = {}
    peak = [0] * P
    reads = 0
    padding = 0

    for r in range(k):
        payloads: list[list[list]] = [[[] for _ in range(P)] for _ in range(P)]
        sent_vol = [0] * P
        for f, a, b in sorted(by_round[r],
                              key=lambda e: (flows[e[0]][0], flows[e[0]][2], e[1])):
            q, t, j, _lo, _hi = flows[f]
            ref = _local_ref(runs[j], q, a, b)
            data = cluster.read_blocks(q, ref.blocks, PHASE_ALL_TO_ALL)
            reads += len(ref.blocks)
            payloads[q][t].append(((j, a), data[ref.start:ref.start + ref.length]))
            sent_vol[q] += b - a
        received = all_to_all_v(cluster, payloads, PHASE_ALL_TO_ALL)
        cluster.counters.add_steps(PHASE_ALL_TO_ALL, 1)
        for t in range(P):
            arrived = sum(len(parcel[1]) for src in received[t] for parcel in src)
            footprint = max(arrived, sent_vol[t] + B)
            peak[t] = max(peak[t], footprint)
            if footprint > cfg.m:
                raise PlanError(f"round {r} footprint {footprint} exceeds "
                                f"m={cfg.m} on PE {t}")
            for src in received[t]:
                for (j, lo), elems in src:
                    pad = -len(elems) % B
                    padded = concat([elems, sentinels(pad)]) if pad else elems
                    padding += pad
                    blocks = cluster.alloc_blocks(t, len(padded) // B)
                    cluster.write_blocks(t, blocks, padded, PHASE_ALL_TO_ALL)
                    refs_at.setdefault((t, j), []).append(
                        (lo, SegRef(t, blocks, 0, len(elems))))

    # Every flow ships whole, so the flows read v_moved elements.
    amplification = reads * B - v_moved
    cluster.counters.add_overhead(PHASE_ALL_TO_ALL, padding + amplification)

    # Original run blocks with nothing locally kept are dead now.
    empty = np.empty(0, np.int64)
    for q in range(P):
        ids = np.concatenate([empty] + [np.asarray(run.blocks[q], np.int64)
                                        for run in runs])
        live = np.concatenate([empty] + [np.asarray(ref.blocks, np.int64)
                                         for (t, _j), (_a, ref) in kept.items()
                                         if t == q])
        cluster.free_blocks(q, ids[~np.isin(ids, live)])

    staged: list[list[StagedRun]] = []
    for t in range(P):
        per_run = []
        for j in range(len(runs)):
            lo, hi = pos[t][j], pos[t + 1][j]
            placed = list(refs_at.get((t, j), ()))
            if (t, j) in kept:
                placed.append(kept[(t, j)])
            placed.sort(key=lambda e: e[0])
            cursor = lo
            for at, ref in placed:
                if at != cursor:
                    raise PlanError(f"staged run {j} on PE {t} jumps from "
                                    f"{cursor} to {at}")
                cursor += ref.length
            if cursor != hi:
                raise PlanError(f"staged run {j} on PE {t} ends at {cursor}, "
                                f"expected {hi}")
            per_run.append(StagedRun(j, hi - lo, [ref for _, ref in placed]))
        staged.append(per_run)
    return Redistribution(matrix, v_moved, k, partners, staged, peak)
