"""Phase 2: exact run splitting and the budgeted external all-to-all.

Every formed run (a :class:`~emsort.runform.Run` whose PEs ascend, share/B
blocks each) is cut at the global ranks t*N/P, so that processor t is
assigned, per run, exactly the subsegment holding its slice of the final
order.  The cuts come from multiway selection seeded by the runs' block
minima, every B-th key.

The data exchange is one table of pieces: the part of each destination's
cut of a run that one source holds.  A piece that changes processors is a
flow; flows are cut at block boundaries and greedily packed into
sub-rounds so that every processor's per-round send and receive volumes
fit in memory next to one working block.  Each round reads all its pieces'
blocks in one call, charges its (P, P) volume matrix, and writes every
arriving piece straight to fresh blocks in one call — only a flow's final
block can be ragged, and it is sentinel-padded — so nothing is buffered
across rounds and the padding is at most one block per flow.  Every round
is read into one element column, sized by the largest round, and laid
out for its write in place: each piece moves left to where its write
starts and its ragged tail is padded, so no round joins its pieces into
a second array.  Pieces
already on their destination stay in place, so a fully canonical input
incurs zero I/O and zero communication here.  What each PE then holds is
one table of its pieces' blocks, in (run, position) order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ELEM, PHASE_ALL_TO_ALL, PHASE_SELECTION, ROW, sentinels
from .net import charge_volume, gather_splitters
from .runform import Run
from .selection import DiskAccessor, select_all_ranks


class PlanError(Exception):
    pass


@dataclass
class SplitterMatrix:
    """Cut positions per boundary (rows 0..P) and run, plus search stats."""

    pos: list[list[int]]
    rounds: int
    touched: int

    @property
    def boundaries(self) -> int:
        return len(self.pos) - 1


@dataclass
class Staged:
    """The run pieces staged on one PE, in (run, position) order: piece
    ``i`` is ``length[i]`` elements of run ``run[i]`` from run position
    ``pos[i]``, stored from element ``start[i]`` of the first of its
    ``ceil((start[i] + length[i]) / B)`` blocks, the next ones of ``ids``.
    All five are ``int64`` columns."""

    ids: np.ndarray
    run: np.ndarray
    pos: np.ndarray
    start: np.ndarray
    length: np.ndarray


@dataclass
class Redistribution:
    v_moved: int
    k: int
    partners: list[int]
    staged: list[Staged]                # per destination PE
    peak_footprint: list[int]


def compute_splitters(cluster, runs: list[Run]) -> SplitterMatrix:
    """Exact cuts of every run at the ranks t*N/P, shared with all PEs."""
    P, B = cluster.cfg.P, cluster.cfg.B
    total = sum(run.length for run in runs)
    # Block minima travel to the selecting task: control traffic, 2 values
    # each (key and position), from the PE that holds the block.
    pes = np.concatenate([np.empty(0, np.int64)] + [run.pes for run in runs])
    gather_splitters(cluster, 2 * np.bincount(pes, minlength=P),
                     PHASE_SELECTION)

    acc = DiskAccessor(cluster, runs)
    ranks = [t * (total // P) for t in range(1, P)]
    results = select_all_ranks(acc, ranks, [run.minima for run in runs], B)
    pos = [[0] * len(runs)]
    pos.extend(res.positions for res in results)
    pos.append([run.length for run in runs])
    # PE 0 shares the P - 1 inner cuts of every run.
    gather_splitters(cluster, [(P - 1) * len(runs)] + [0] * (P - 1),
                     PHASE_SELECTION)
    return SplitterMatrix(pos, sum(r.rounds for r in results),
                          sum(r.touched for r in results))


def _cut_pieces(runs: list[Run], matrix: SplitterMatrix
                ) -> list[tuple[int, int, int, int, int]]:
    """Every piece (src, dest, run, lo, hi) of the runs' cuts: the part of
    dest's cut ``[lo, hi)`` of a run that src holds, in a fixed order.  A
    piece with ``src == dest`` stays in place; any other is a flow."""
    pieces = []
    for t in range(matrix.boundaries):
        for j, run in enumerate(runs):
            lo, hi = matrix.pos[t][j], matrix.pos[t + 1][j]
            if lo < hi:
                share = run.length // matrix.boundaries
                for q in range(lo // share, (hi - 1) // share + 1):
                    pieces.append((q, t, j, max(lo, q * share),
                                   min(hi, (q + 1) * share)))
    return pieces


def per_run_moved(runs: list[Run], matrix: SplitterMatrix) -> list[int]:
    """Elements of each run that change processors."""
    out = [0] * len(runs)
    for q, t, j, a, b in _cut_pieces(runs, matrix):
        if q != t:
            out[j] += b - a
    return out


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


def _ranges(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``arange(f, f + c)`` for each pair of ``first`` and ``count``, joined."""
    return (np.repeat(first - np.cumsum(count) + count, count)
            + np.arange(int(count.sum())))


def external_all_to_all(cluster, runs: list[Run],
                        matrix: SplitterMatrix) -> Redistribution:
    """Execute the redistribution; returns each PE's staged pieces."""
    cfg = cluster.cfg
    P, B = cfg.P, cfg.B

    pieces = _cut_pieces(runs, matrix)
    flows = [piece for piece in pieces if piece[0] != piece[1]]
    v_moved = sum(b - a for _q, _t, _j, a, b in flows)
    partners = [len({t for q, t, *_ in flows if q == p}) for p in range(P)]
    # Each round leaves one working block of memory beside its payload.
    k, flow_pieces = _schedule_flows(flows, cfg.m - B, B, P)

    # The exchange as int64 columns, one row per piece: the pieces kept in
    # place (round -1), then the shipped ones by (round, source, dest, run,
    # position).
    rows = sorted([(-1, q, t, j, a, b) for q, t, j, a, b in pieces if q == t]
                  + [(r, q, t, j, a, b)
                     for (q, t, j, _lo, _hi), mine in zip(flows, flow_pieces)
                     for r, a, b in mine])
    rnd, src, dest, run, lo, hi = np.array(rows, np.int64).reshape(-1, 6).T
    kept = rnd < 0
    length = hi - lo

    # Every run block in (run, position) order; each piece's source blocks
    # are a range of them, from element ``start`` of the first.
    sizes = np.array([len(seg.lbs) for seg in runs], np.int64)
    ids = np.concatenate([np.empty(0, np.int64)] + [seg.lbs for seg in runs])
    holder = np.concatenate([np.empty(0, np.int64)]
                            + [seg.pes for seg in runs])
    src_first = (np.cumsum(sizes) - sizes)[run] + lo // B
    start = lo % B
    nread = (start + length - 1) // B + 1

    # A destination writes each arriving piece to fresh blocks, sentinel-
    # padding a flow's ragged final block.  It takes them all in one call,
    # in (round, source, run, position) order: allocation charges nothing,
    # and nothing else allocates on it before the last round.
    nwrite = np.where(kept, 0, -(-length // B))
    by_dest = np.argsort(dest, kind="stable")
    slot = np.empty_like(nwrite)
    slot[by_dest] = np.cumsum(nwrite[by_dest]) - nwrite[by_dest] + len(ids)
    totals = np.zeros(P, np.int64)
    np.add.at(totals, dest, nwrite)
    ids = np.concatenate([ids] + [cluster.alloc_blocks(t, n)
                                  for t, n in enumerate(totals.tolist()) if n])

    peak = np.zeros(P, np.int64)
    pad = sentinels(1).view(ROW)[0]
    cuts = np.searchsorted(rnd, np.arange(k + 1)).tolist()
    # Every round reads into, and is laid out for its write in, one column
    # sized by the largest round's reads.
    size = B * max((int(nread[a:b].sum()) for a, b in zip(cuts, cuts[1:])),
                   default=0)
    buffer = np.empty(size, ELEM)
    rows = buffer.view(ROW)
    for r in range(k):
        i = slice(cuts[r], cuts[r + 1])
        cluster.read_blocks(np.repeat(src[i], nread[i]),
                            ids[_ranges(src_first[i], nread[i])],
                            PHASE_ALL_TO_ALL, buffer[:int(nread[i].sum()) * B])
        volume = np.zeros((P, P), np.int64)
        np.add.at(volume, (src[i], dest[i]), length[i])
        charge_volume(cluster, volume, PHASE_ALL_TO_ALL)
        cluster.counters.steps[PHASE_ALL_TO_ALL] += 1
        footprint = np.maximum(volume.sum(0), volume.sum(1) + B)
        np.maximum(peak, footprint, out=peak)
        if footprint.max() > cfg.m:
            t = int((footprint > cfg.m).argmax())
            raise PlanError(f"round {r} footprint {footprint[t]} exceeds "
                            f"m={cfg.m} on PE {t}")
        # Each piece moves left from where it was read to where its write
        # starts, and its ragged tail is padded.  A piece takes no more
        # blocks written than read, so no move or padding reaches a piece
        # not moved yet; an overlapping move of raw rows copies forward,
        # with no temporary.
        at = (np.cumsum(nread[i]) - nread[i]) * B + start[i]
        to = (np.cumsum(nwrite[i]) - nwrite[i]) * B
        for a, w, n in zip(at.tolist(), to.tolist(), length[i].tolist()):
            if a != w:
                rows[w:w + n] = rows[a:a + n]
            rows[w + n:w - (-n // B) * B] = pad
        cluster.write_blocks(np.repeat(dest[i], nwrite[i]),
                             ids[_ranges(slot[i], nwrite[i])],
                             buffer[:int(nwrite[i].sum()) * B],
                             PHASE_ALL_TO_ALL)

    # Every flow ships whole, so the flows read and write v_moved elements
    # besides the partial blocks and the padding.
    cluster.counters.overhead[PHASE_ALL_TO_ALL] += \
        int(nread[~kept].sum() + nwrite.sum()) * B - 2 * v_moved

    # Original run blocks with nothing locally kept are dead now.
    dead = np.ones(len(holder), bool)
    dead[_ranges(src_first[kept], nread[kept])] = False
    cluster.free_blocks(holder[dead], ids[:len(holder)][dead])

    # Each PE's staged pieces, kept and arrived, by (run, position).
    first = np.where(kept, src_first, slot)
    count = np.where(kept, nread, nwrite)
    start[~kept] = 0
    order = np.lexsort((lo, run, dest))
    bounds = np.searchsorted(dest[order], np.arange(P + 1)).tolist()
    staged = []
    for t in range(P):
        o = order[bounds[t]:bounds[t + 1]]
        staged.append(Staged(ids[_ranges(first[o], count[o])], run[o], lo[o],
                             start[o], length[o]))
    return Redistribution(v_moved, k, partners, staged, peak.tolist())
