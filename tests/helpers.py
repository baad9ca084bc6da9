"""Shared test utilities: cluster construction, oracle sorting, block
occupancy, an in-memory selection accessor, the scalar element and image
codec that the disk images are checked against, the element-at-a-time,
block-at-a-time, per-batch, per-rank, per-block and step-by-step kernels
and the scalar fingerprint that the array kernels are checked against, and
the per-PE dict block store and the list-based counters that the slab
store and the counter arrays are checked against."""
from __future__ import annotations

import heapq
from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter
from unittest import mock

import numpy as np

from emsort import runform, striped
from emsort.core import (
    ALL_PHASES, ELEM, INF_KEY, MAX_KEY, PHASE_LOCAL_MERGE, PHASE_RUN_FORMATION,
    PHASE_STRIPED_MERGE, RECEIVED, SENT, Element, MachineConfig, sentinel_mask,
)
from emsort.harness import GeneratedInput, InputSpec, generate_input
from emsort.merge import batch_merge as array_batch_merge
from emsort.net import charge_volume, gather_splitters
from emsort.redistribute import PlanError, Staged
from emsort.runform import Run, internal_parallel_sort as array_internal_parallel_sort
from emsort.schedule import (
    prefetch_schedule as array_prefetch_schedule,
    verify_schedule as array_verify_schedule,
)
from emsort.selection import sampled_starts, select_all_ranks
from emsort.striped import (
    COORDINATOR, _run_start_disk,
    build_prediction_sequence as array_prediction_sequence,
)
from emsort.vdisk import Cluster, DiskError, OutputLayout


def build(P: int = 2, D: int = 2, B: int = 4, m: int = 32, N: int = 128,
          **kw) -> Cluster:
    return Cluster(MachineConfig(P=P, D=D, B=B, m=m, N=N, **kw))


def fill(cluster: Cluster, kind: str = "random", seed: int = 0) -> GeneratedInput:
    return generate_input(cluster, InputSpec(kind, cluster.cfg.N, seed))


def formation_window(cfg: MachineConfig, loads: int | None):
    """A patch of run formation's window to ``loads`` whole memory loads
    of ``cfg`` (``None`` keeps the default)."""
    size = runform.WINDOW if loads is None else loads * cfg.M
    return mock.patch.object(runform, "WINDOW", size)


def windowed(cfg: MachineConfig, batches: int | None):
    """A patch of the striped merge pass's window to ``batches`` whole
    batches of ``cfg`` (``None`` keeps the default), and the batches it
    then holds."""
    batch = max(1, cfg.M // (2 * cfg.B)) * cfg.B
    size = striped.WINDOW if batches is None else batches * batch
    return mock.patch.object(striped, "WINDOW", size), max(1, size // batch)


def sort_window(cluster: Cluster, loads: np.ndarray) -> np.ndarray:
    """The array kernel ``internal_parallel_sort`` of the ``(w, P·share)``
    window ``loads``, into buffers that :func:`runform.window_buffers`
    makes for it, as run formation passes them."""
    w, total = loads.shape
    _, out, order = runform.window_buffers(
        cluster.cfg.P, [(0, w, total // cluster.cfg.P)])
    return array_internal_parallel_sort(cluster, loads, out, order)


def concat(parts) -> np.ndarray:
    """The contiguous element arrays ``parts`` joined in order, as one
    read-only array: a join of their buffers.  ``np.concatenate`` pays
    several microseconds per structured array, which dominates at one call
    per block."""
    return np.frombuffer(b"".join(parts), ELEM)


def merge_window(elems: np.ndarray, tags: np.ndarray, bounds):
    """The array kernel ``batch_merge`` of a buffer and its ``int64`` tags
    cut at ``bounds``, ascending (key, tag) pairs of which the last may be
    ``None`` for one past everything, into fresh columns: the elements
    and their tags in (key, tag) order, and per bound how many lie
    strictly below it."""
    n = len(elems)
    out, out_tags = np.empty(n, ELEM), np.empty(n, np.int64)
    inner = [b for b in bounds if b is not None]
    cuts = array_batch_merge(
        elems, tags, np.array([k for k, _ in inner], np.uint64),
        np.array([t for _, t in inner], np.int64), out, out_tags,
        np.empty(n, np.int64))
    return out, out_tags, np.append(cuts, np.full(len(bounds) - len(inner), n))


def on(pe: int, lbs):
    """The PE and id columns of the blocks ``lbs`` of one PE, as a block
    call takes them: ``cl.peek_blocks(*on(pe, lbs))``."""
    return np.full(len(lbs), pe, np.int64), lbs


def elements(tuples) -> np.ndarray:
    """An element array of ``(key, serial)`` tuples."""
    return np.array(tuples, dtype=ELEM)


def input_elements(cluster: Cluster, gen: GeneratedInput) -> list[Element]:
    """All input elements as generated (setup-time snapshot, unmetered)."""
    out: list[Element] = []
    for pe, blocks in enumerate(gen.pe_blocks):
        out.extend(cluster.peek_blocks(*on(pe, blocks)).tolist())
    return out


def addresses(columns) -> list[tuple[int, int]]:
    """Every block of an output layout or a striped run as ``(pe, lb)``,
    in order."""
    return list(zip(columns.pes.tolist(), columns.lbs.tolist()))


def output_elements(cluster: Cluster, layout: OutputLayout) -> list[Element]:
    out: list[Element] = []
    for pe, lb in addresses(layout):
        out.extend(cluster.peek_blocks(*on(pe, [lb])).tolist())
    return out


COUNTER_NAMES = ("blocks_read", "blocks_written", "elements_sent",
                 "elements_received", "control_values", "io_steps",
                 "overhead_elements")


def counter_state(cluster) -> dict:
    """Every counter of a cluster or a :class:`ReferenceCluster`, laid out
    as :class:`ReferenceCounters` holds them, for equality checks: per
    counter, a dict by phase of ``[pe][disk]`` block counts, of per-PE
    traffic lists, or of numbers."""
    c = cluster.counters
    if isinstance(c, ReferenceCounters):
        return {name: getattr(c, name) for name in COUNTER_NAMES}
    lists = (c.blocks.transpose(1, 0, 3, 2).tolist()     # [rw][phase][pe][d]
             + c.traffic.transpose(1, 0, 2).tolist()     # [kind][phase][pe]
             + [c.steps.tolist(), c.overhead.tolist()])
    return {name: dict(zip(ALL_PHASES, values))
            for name, values in zip(COUNTER_NAMES, lists)}


def charge_move(cluster, phase: int, src: int, dst: int, n: int) -> None:
    """Charge ``n`` elements sent from PE ``src`` to PE ``dst``, one move
    at a time."""
    traffic = cluster.counters.traffic[phase]
    traffic[SENT, src] += n
    traffic[RECEIVED, dst] += n


def is_allocated(cluster: Cluster, pe: int, lb: int) -> bool:
    """Whether ``lb`` on ``pe`` holds a block."""
    try:
        cluster.peek_blocks(*on(pe, [lb]))
    except DiskError:
        return False
    return True


def live_blocks(cluster: Cluster, pe: int) -> list[int]:
    """The logical ids of every block ``pe`` holds, ascending."""
    top = int(cluster.next_slot[pe].max()) * cluster.cfg.D
    return [lb for lb in range(top) if is_allocated(cluster, pe, lb)]


def alloc_reference(next_slot: list[int], n: int) -> list[int]:
    """The ids that ``n`` one-block allocations hand out, given each disk's
    next free slot: each on the disk with the fewest slots handed out, the
    lowest such disk first.  Advances ``next_slot`` in place."""
    D = len(next_slot)
    out = []
    for _ in range(n):
        d = next_slot.index(min(next_slot))
        out.append(next_slot[d] * D + d)
        next_slot[d] += 1
    return out


def alloc_on_reference(next_slot: list[int], disk: int) -> int:
    """The id of one fresh block on ``disk``, given each disk's next free
    slot.  Advances ``next_slot`` in place."""
    lb = next_slot[disk] * len(next_slot) + disk
    next_slot[disk] += 1
    return lb


def stored_elements(cluster: Cluster) -> int:
    """Non-sentinel elements held on all disks."""
    elems = concat([cluster.peek_blocks(*on(pe, live_blocks(cluster, pe)))
                    for pe in range(cluster.cfg.P)])
    return int(np.count_nonzero(~sentinel_mask(elems)))


class MemoryAccessor:
    """Selection's element access over in-memory sorted runs of ``(key,
    serial)`` tuples; counts distinct touches."""

    def __init__(self, runs: list[list[Element]]):
        self.runs = runs
        self.lengths = [len(run) for run in runs]
        self.touched = 0
        self._memo: dict[tuple[int, int], tuple[int, int, int]] = {}

    def reset_memo(self) -> None:
        self._memo.clear()

    def order_key(self, run: int, pos: int) -> tuple[int, int, int]:
        got = self._memo.get((run, pos))
        if got is not None:
            return got
        if pos >= self.lengths[run]:
            okey = (INF_KEY, run, pos)
        else:
            self.touched += 1
            okey = (self.runs[run][pos][0], run, pos)
        self._memo[(run, pos)] = okey
        return okey


def oracle_agrees(inputs: list[Element], outputs: list[Element]) -> bool:
    """Output must be the input multiset in key order.

    Equal keys may appear in any serial order (the engines break ties by
    run and position, not by serial), so compare the key sequence against
    the oracle's and the (key, serial) multisets for identity.
    """
    if len(inputs) != len(outputs):
        return False
    oracle = sorted(elem[0] for elem in inputs)
    if oracle != [elem[0] for elem in outputs]:
        return False
    return sorted(inputs) == sorted(outputs)


def _splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & MAX_KEY
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MAX_KEY
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MAX_KEY
    return z ^ (z >> 31)


def checksum128(pairs) -> tuple[int, int]:
    """The fingerprint one element at a time in Python ints: the count of
    ``(key, serial)`` pairs and the sum mod 2**128 of ``sm(key)
    ^ (sm(serial mod 2**64) << 64) ^ (sm(key ^ C) << 32)``."""
    total = count = 0
    for key, serial in pairs:
        total += (_splitmix64(key) ^ (_splitmix64(serial & MAX_KEY) << 64)
                  ^ (_splitmix64(key ^ 0xD6E8FEB86659FD93) << 32))
        count += 1
    return count, total % (1 << 128)


def element_to_bytes(elem: Element) -> bytes:
    """The 16-byte image row of an element: the key, then the serial as a
    two's-complement int64, both little-endian."""
    key, serial = elem
    return key.to_bytes(8, "little") + serial.to_bytes(8, "little", signed=True)


def element_from_bytes(data: bytes) -> Element:
    """The element of a 16-byte image row; inverse of
    :func:`element_to_bytes`."""
    return (int.from_bytes(data[:8], "little"),
            int.from_bytes(data[8:16], "little", signed=True))


def int64_bytes(values) -> bytes:
    """``values`` as little-endian two's-complement 8-byte ints."""
    return b"".join(v.to_bytes(8, "little", signed=True) for v in values)


def int64_values(data: bytes) -> list[int]:
    """The little-endian 8-byte ints of ``data``."""
    return [int.from_bytes(data[i:i + 8], "little", signed=True)
            for i in range(0, len(data), 8)]


def image_bytes(blocks: dict[int, bytes]) -> bytes:
    """A disk image of the encoded blocks ``blocks[slot]``: the block count,
    the slots in increasing order, then the blocks in that order."""
    slots = sorted(blocks)
    return int64_bytes([len(slots), *slots]) + b"".join(blocks[s] for s in slots)


def image_slots(data: bytes) -> list[int]:
    """The slot column of a disk image."""
    n = int64_values(data[:8])[0]
    return int64_values(data[8:8 + 8 * n])


def encode_block(block: list[Element]) -> bytes:
    return b"".join(map(element_to_bytes, block))


# --- reference kernels: heapq merges over lists of element tuples ------------

def _exchange_pieces(cluster, pieces, phase: int):
    """Deliver ``pieces[src][dst]`` as ``received[dst][src]``, charging
    the moved volume."""
    charge_volume(cluster, [list(map(len, row)) for row in pieces], phase)
    return [list(row) for row in zip(*pieces)]


def internal_parallel_sort(cluster,
                           loads: list[list[Element]]) -> list[list[Element]]:
    """Sort one memory load across processors.

    ``loads[p]`` is processor p's unsorted share.  Returns equal-size sorted
    chunks, chunk p preceding chunk p+1, with the single data exchange
    charged to run formation.  Local sorts order elements by (key, serial);
    the chunk cuts are exact rank splits, so chunk sizes match the shares.
    """
    P = len(loads)
    m = cluster.cfg.m
    for load in loads:
        if len(load) > m:
            raise MemoryError(f"load of {len(load)} elements exceeds m={m}")
    locals_sorted = [sorted(load) for load in loads]
    total = sum(len(lst) for lst in locals_sorted)
    if total == 0:
        return [[] for _ in range(P)]
    if total % P:
        raise ValueError("load size is not divisible by processor count")
    share = total // P
    acc = MemoryAccessor(locals_sorted)
    results = select_all_ranks(acc, [p * share for p in range(1, P)])
    cutpos = ([[0] * P] + [res.positions for res in results]
              + [[len(lst) for lst in locals_sorted]])
    # Every processor learns every cut position: its own P - 1 cuts are
    # control traffic to every other processor.
    gather_splitters(cluster, [P - 1] * P, PHASE_RUN_FORMATION)
    pieces = [[locals_sorted[q][cutpos[p][q]:cutpos[p + 1][q]]
               for p in range(P)] for q in range(P)]
    received = _exchange_pieces(cluster, pieces, PHASE_RUN_FORMATION)
    return [list(heapq.merge(*received[p])) for p in range(P)]


def _iter_staged(cluster, pe: int, table: Staged, pieces, phase: int,
                 stats: dict):
    """Yield the ``pieces`` of a PE's staged table in order; free each
    block once consumed."""
    B = cluster.cfg.B
    first = 0
    for i, (start, length) in enumerate(zip(table.start.tolist(),
                                            table.length.tolist())):
        count = -(-(start + length) // B)
        if i in pieces:
            for lb in table.ids[first:first + count].tolist():
                data = cluster.read_blocks(*on(pe, [lb]), phase)
                stats["reads"] += 1
                take = min(length, B - start)
                yield from data[start:start + take]
                length -= take
                start = 0
                cluster.free_blocks(*on(pe, [lb]))
        first += count


def local_multiway_merge(cluster, staged: list[Staged]) -> OutputLayout:
    """Merge every processor's staged pieces into its output slice."""
    cfg = cluster.cfg
    B = cfg.B
    per_pe: list[list[int]] = []
    for t, table in enumerate(staged):
        stats = {"reads": 0}
        runs = table.run.tolist()
        streams = [_iter_staged(cluster, t, table,
                                {i for i, run in enumerate(runs) if run == j},
                                PHASE_LOCAL_MERGE, stats)
                   for j in dict.fromkeys(runs)]
        # Stream order equals run order, so key-only merging realizes the
        # total order (key, run, position).
        merged = heapq.merge(*streams, key=itemgetter(0))
        out_blocks: list[int] = []
        buf: list[Element] = []
        written = 0
        for elem in merged:
            buf.append(elem)
            if len(buf) == B:
                [lb] = cluster.alloc_blocks(t, 1)
                cluster.write_blocks(*on(t, [lb]), buf, PHASE_LOCAL_MERGE)
                out_blocks.append(lb)
                written += B
                buf = []
        if buf:
            raise RuntimeError(
                f"output slice of PE {t} is {written + len(buf)} elements, "
                f"not a block multiple")
        consumed = int(table.length.sum())
        cluster.counters.overhead[PHASE_LOCAL_MERGE] += \
            stats["reads"] * B - consumed
        per_pe.append(out_blocks)
    return OutputLayout("canonical",
                        [pe for pe, lbs in enumerate(per_pe) for _lb in lbs],
                        [lb for lbs in per_pe for lb in lbs])


def batch_merge(buffers: list[list[Element]], offsets: list[int],
                bound: tuple[int, int, int] | None = None) -> list[Element]:
    """Pop everything strictly below ``bound`` from the run buffers, merged.

    ``buffers[j]`` holds the unconsumed prefix of run j starting at run
    position ``offsets[j]``; both are updated in place.  ``bound`` is an
    order key (key, run, position); ``None`` drains everything.
    """
    heap: list[tuple[int, int, int]] = []
    idx = [0] * len(buffers)
    for j, buf in enumerate(buffers):
        if buf:
            heapq.heappush(heap, (buf[0][0], j, offsets[j]))
    out: list[Element] = []
    while heap:
        key, j, p = heap[0]
        if bound is not None and (key, j, p) >= bound:
            break
        heapq.heappop(heap)
        out.append(buffers[j][idx[j]])
        idx[j] += 1
        if idx[j] < len(buffers[j]):
            heapq.heappush(heap, (buffers[j][idx[j]][0], j, p + 1))
    for j, taken in enumerate(idx):
        if taken:
            del buffers[j][:taken]
            offsets[j] += taken
    return out


# --- reference kernels: the block-at-a-time striped engine --------------------

@dataclass
class ReferenceStripedRun:
    """A sorted run striped round-robin over the cluster's disks."""

    length: int
    start_disk: int
    blocks: list[tuple[int, int]] = field(default_factory=list)  # (pe, lb)
    minima: list[int] = field(default_factory=list)  # smallest key per block

    def disk_of(self, index: int, disks_per_pe: int) -> int:
        pe, lb = self.blocks[index]
        return pe * disks_per_pe + lb % disks_per_pe


class _StripedWriter:
    """Emits a sorted element stream as a new striped run, allocating one
    block at a time in stripe order."""

    def __init__(self, cluster, start_disk: int, writer_pe: int, phase: int):
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
            self.blocks.append(
                (pe, alloc_on_reference(cluster.next_slot[pe], disk)))
        rows = data[:full].reshape(-1, B)
        for pe in range(cfg.P):
            mine = [g for g in range(full // B) if self.blocks[first + g][0] == pe]
            lbs = [self.blocks[first + g][1] for g in mine]
            cluster.write_blocks(*on(pe, lbs), rows[mine], self.phase)
            if pe != self.writer_pe:
                charge_move(cluster, self.phase, self.writer_pe, pe,
                            B * len(mine))
        self.minima.extend(data["key"][:full:B].tolist())
        self.length += full
        self.tail = data[full:]

    def finish(self) -> ReferenceStripedRun:
        if len(self.tail):
            raise RuntimeError(
                f"striped run length {self.length + len(self.tail)} is not "
                f"a block multiple")
        return ReferenceStripedRun(length=self.length, start_disk=self.start_disk,
                                   blocks=self.blocks, minima=self.minima)


def form_striped_runs(cluster, pe_blocks: list[list[int]]) -> list[ReferenceStripedRun]:
    """Sort memory-sized chunks of the input into striped runs."""
    cfg = cluster.cfg
    B, share = cfg.B, cfg.m
    local = cfg.N // cfg.P
    runs: list[ReferenceStripedRun] = []
    offset = 0
    index = 0
    while offset < local:
        take = min(share, local - offset)
        loads = []
        for p in range(cfg.P):
            lbs = pe_blocks[p][offset // B:(offset + take) // B]
            loads.append(cluster.read_blocks(*on(p, lbs), PHASE_RUN_FORMATION))
            cluster.free_blocks(*on(p, lbs))
        data = sort_window(cluster, concat(loads)[None])[0]
        writer = _StripedWriter(cluster, _run_start_disk(cluster, 2, index),
                                COORDINATOR, PHASE_RUN_FORMATION)
        for p, piece in enumerate(np.split(data, cfg.P)):
            writer.writer_pe = p
            writer.append(piece)
        runs.append(writer.finish())
        offset += take
        index += 1
    return runs


def build_prediction_sequence(cluster, runs: list[ReferenceStripedRun]):
    """Block descriptors (min key, run, block position), sorted."""
    sizes = [0] * cluster.cfg.P
    entries = []
    for j, run in enumerate(runs):
        for g, (pe, _lb) in enumerate(run.blocks):
            sizes[pe] += 2              # the block's minimum and position
            entries.append((run.minima[g], j, g))
    gather_splitters(cluster, sizes, PHASE_STRIPED_MERGE)
    entries.sort()
    return entries


def prefetch_schedule(disks: list[int], W: int, D_total: int) -> list[int]:
    """Fetch steps of a prediction sequence by simulating the greedy
    buffered write of the reversed sequence step by step: admit requests
    into a W-slot buffer in order, one deque per disk, and each step retire
    one block from every disk with a pending request."""
    if W < D_total:
        raise ValueError(f"buffer of {W} blocks cannot serve {D_total} disks")
    if len(disks) and (min(disks) < 0 or max(disks) >= D_total):
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
    """Replay a fetch schedule step by step; return its step count.  Raises
    ValueError on a disk fetched twice in one step, a block never fetched,
    or more than W fetched blocks unconsumed."""
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


def optimal_steps(disks: list[int], W: int) -> int:
    """The fewest steps of any fetch schedule of ``disks``, by breadth-first
    search over the sets of fetched blocks under the rules
    ``verify_schedule`` checks: a step fetches blocks of distinct disks,
    the buffer then holds at most W fetched blocks not yet consumed, and
    the merger consumes the longest fetched prefix at the step's end."""
    L = len(disks)
    done = (1 << L) - 1
    frontier = seen = {0}
    steps = 0
    while done not in frontier:
        steps += 1
        reached = set()
        for fetched in frontier:
            consumed = 0
            while fetched >> consumed & 1:
                consumed += 1
            room = W - (bin(fetched).count("1") - consumed)
            waiting = defaultdict(list)
            for i in range(L):
                if not fetched >> i & 1:
                    waiting[disks[i]].append(1 << i)
            for picks in product(*([0] + blocks for blocks in waiting.values())):
                if 0 < sum(map(bool, picks)) <= room:
                    reached.add(fetched | sum(picks))
        frontier = reached - seen
        seen = seen | reached
    return steps


def striped_merge_pass(cluster, runs: list[ReferenceStripedRun],
                       start_disk: int) -> ReferenceStripedRun:
    """Merge striped runs into one, fetching, freeing and allocating one
    block per call, in prediction order."""
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
    buffers: list[list[Element]] = [[] for _ in runs]
    offsets = [0] * len(runs)
    writer = _StripedWriter(cluster, start_disk, COORDINATOR,
                            PHASE_STRIPED_MERGE)
    L = len(entries)
    for lo in range(0, L, batch_blocks):
        hi = min(lo + batch_blocks, L)
        for (_k, j, g) in entries[lo:hi]:
            pe, lb = runs[j].blocks[g]
            buffers[j].extend(
                cluster.read_blocks(*on(pe, [lb]), PHASE_STRIPED_MERGE).tolist())
            if pe != COORDINATOR:
                charge_move(cluster, PHASE_STRIPED_MERGE, pe, COORDINATOR, B)
            cluster.free_blocks(*on(pe, [lb]))
        if hi < L:
            key, j, g = entries[hi]
            bound = (key, j, g * B)
        else:
            bound = None
        writer.append(np.array(batch_merge(buffers, offsets, bound), ELEM))
        leftover = max((len(buf) for buf in buffers), default=0)
        if leftover > B:
            raise RuntimeError(
                f"batch leftover of {leftover} elements exceeds a block")
    out = writer.finish()
    cluster.counters.steps[PHASE_STRIPED_MERGE] += \
        n_steps + -(-len(out.blocks) // D_total)
    return out


def striped_sort(cluster, pe_blocks: list[list[int]]):
    """Sort the whole input with the block-at-a-time striped engine;
    returns (final run, passes)."""
    runs = form_striped_runs(cluster, pe_blocks)
    arity = cluster.cfg.merge_arity
    passes = 0
    while len(runs) > 1:
        merged: list[ReferenceStripedRun] = []
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


# --- reference kernel: the per-batch striped merge pass ------------------------

def _write_stripe_per_pe(cluster, pes: np.ndarray, lbs: np.ndarray,
                         elems: np.ndarray, senders, phase: int) -> None:
    """Write ``elems`` to the blocks ``(pes, lbs)`` with one boolean mask
    and one ``write_blocks`` call per PE, and charge each block sent from
    ``senders`` (per block or one for all) to another owner."""
    P, B = cluster.cfg.P, cluster.cfg.B
    rows = elems.reshape(-1, B)
    for pe in range(P):
        mine = pes == pe
        if mine.any():
            cluster.write_blocks(*on(pe, lbs[mine].tolist()), rows[mine], phase)
    traffic = np.bincount(senders * P + pes, minlength=P * P).tolist()
    for k, blocks in enumerate(traffic):
        src, dst = divmod(k, P)
        if blocks and src != dst:
            charge_move(cluster, phase, src, dst, B * blocks)


def per_batch_striped_merge_pass(cluster, runs: list[Run], start_disk: int,
                                 buffers=None) -> Run:
    """Merge striped runs into one, finding each batch's blocks per PE with
    a mask over the batch and charging the coordinator's traffic per PE per
    batch: one read, free and write call per PE per batch of M/(2B)
    blocks.  ``buffers``, the array pass's columns, is not used."""
    cfg = cluster.cfg
    P, B, D_total = cfg.P, cfg.B, cfg.total_disks
    if len(runs) > cfg.merge_arity:
        raise ValueError(
            f"merging {len(runs)} runs exceeds the arity {cfg.merge_arity}")
    keys, run_of, pos = array_prediction_sequence(cluster, runs)
    first = np.cumsum([0] + [len(run.lbs) for run in runs])
    at = first[run_of] + pos
    pes = np.concatenate([run.pes for run in runs])[at]
    lbs = np.concatenate([run.lbs for run in runs])[at]
    disks = pes * cfg.D + lbs % cfg.D
    W = max(D_total, cfg.merge_arity)
    steps = array_prefetch_schedule(disks, W, D_total)
    n_steps = array_verify_schedule(disks, steps, W)

    length = sum(run.length for run in runs)
    out_pes, out_lbs = cluster.alloc_stripe(start_disk, length // B)
    minima = np.empty(len(out_lbs), np.uint64)
    written = 0
    tail = np.empty(0, ELEM)
    pending, tags = np.empty(0, ELEM), np.empty(0, np.int64)
    batch_blocks = max(1, cfg.M // (2 * B))
    L = len(at)
    for lo in range(0, L, batch_blocks):
        hi = min(lo + batch_blocks, L)
        parts, part_tags = [pending], [tags]
        for pe in range(P):
            mine = lo + np.flatnonzero(pes[lo:hi] == pe)
            if not len(mine):
                continue
            ids = lbs[mine].tolist()
            parts.append(cluster.read_blocks(*on(pe, ids), PHASE_STRIPED_MERGE))
            part_tags.append((at[mine, None] * B + np.arange(B)).ravel())
            if pe != COORDINATOR:
                charge_move(cluster, PHASE_STRIPED_MERGE, pe, COORDINATOR,
                            B * len(ids))
            cluster.free_blocks(*on(pe, ids))
        bound = (int(keys[hi]), int(at[hi]) * B) if hi < L else None
        merged, tags, cuts = merge_window(
            concat(parts), np.concatenate(part_tags), [bound])
        n = int(cuts[0])
        out, pending, tags = merged[:n], merged[n:], tags[n:]
        held = np.bincount(np.searchsorted(first * B, tags, "right"))
        if len(held) and held.max() > B:
            raise RuntimeError(
                f"batch leftover of {held.max()} elements exceeds a block")
        data = concat([tail, out])
        full = len(data) // B
        _write_stripe_per_pe(cluster, out_pes[written:written + full],
                             out_lbs[written:written + full], data[:full * B],
                             COORDINATOR, PHASE_STRIPED_MERGE)
        minima[written:written + full] = data["key"][:full * B:B]
        written += full
        tail = data[full * B:]
    if len(tail):
        raise RuntimeError(f"striped run length {written * B + len(tail)} "
                           "is not a block multiple")
    cluster.counters.steps[PHASE_STRIPED_MERGE] += \
        n_steps + -(-written // D_total)
    return Run(length, out_pes, out_lbs, minima)


# --- reference kernels: the per-rank and per-block canonical planners ----------

def sampled_init(samples: list[list[tuple[int, int]]], K: int, r: int
                 ) -> tuple[list[int], int]:
    """Starting splitters from per-run samples of every K-th element.

    ``samples[j]`` lists ``(key, position)`` pairs of run ``j`` in position
    order (position 0 always sampled).  Returns per-run start positions and
    the step ``K``: the start is the position of the last sample preceding
    the sample of rank ``r // K``, run by run.
    """
    if K < 1:
        raise ValueError("K < 1")
    flat = [(key, j, p) for j, entries in enumerate(samples) for key, p in entries]
    flat.sort()
    init = [0] * len(samples)
    if not flat or r == 0:
        return init, K
    x = flat[min(r // K, len(flat) - 1)]
    for key, j, p in flat:
        if (key, j, p) > x:
            break
        init[j] = p
    return init, K


def sample_columns(samples: list[list[tuple[int, int]]]) -> list[np.ndarray]:
    """Per-run ``(key, position)`` sample lists as the ``uint64`` key
    columns that ``sampled_starts`` takes; the positions must be 0, K,
    2K, ..."""
    return [np.array([key for key, _p in entries], np.uint64)
            for entries in samples]


def array_sampled_init(samples: list[list[tuple[int, int]]], K: int, r: int
                       ) -> tuple[list[int], int]:
    """``sampled_starts`` called as :func:`sampled_init` is: tuple-list
    samples, one rank, the step returned beside the starts."""
    return sampled_starts(sample_columns(samples), K, [r])[0], K


def schedule_flows(flows: list[tuple[int, int, int, int, int]],
                   eff: int, B: int, P: int
                   ) -> tuple[int, list[list[tuple[int, int, int]]]]:
    """Pack flow blocks into sub-rounds of ≤ ``eff`` elements per PE.

    Blocks of one flow are placed in non-decreasing rounds (first fit), so
    pieces of a flow arrive in position order.  Returns the round count and,
    per flow, its pieces as (round, lo, hi) element ranges; every piece is a
    whole number of blocks except a flow's final piece.
    """
    if flows and eff < B:
        raise PlanError(
            f"per-round budget of {eff} elements is below one block ({B})")
    send_load: list[list[int]] = []
    recv_load: list[list[int]] = []
    pieces: list[list[tuple[int, int, int]]] = []
    for q, t, _j, lo, hi in flows:
        mine: list[tuple[int, int, int]] = []
        r = 0
        c = lo
        while c < hi:
            vol = min(B, hi - c)
            while True:
                if r == len(send_load):
                    send_load.append([0] * P)
                    recv_load.append([0] * P)
                if send_load[r][q] + vol <= eff and recv_load[r][t] + vol <= eff:
                    break
                r += 1
            send_load[r][q] += vol
            recv_load[r][t] += vol
            if mine and mine[-1][0] == r:
                mine[-1] = (r, mine[-1][1], c + vol)
            else:
                mine.append((r, c, c + vol))
            c += vol
        pieces.append(mine)
    return len(send_load), pieces


# --- reference model: the list-based counters and the per-PE dict block store --

class ReferenceCounters:
    """The counters that :class:`~emsort.core.PhaseCounters` had before
    its arrays: per phase, nested lists of block I/O per (pe, disk) and of
    traffic per pe, and one number of steps and of overhead, charged one
    (phase, pe, disk) or (phase, pe) at a time."""

    def __init__(self, P: int, D: int):
        self.blocks_read = {ph: [[0] * D for _ in range(P)] for ph in ALL_PHASES}
        self.blocks_written = {ph: [[0] * D for _ in range(P)] for ph in ALL_PHASES}
        self.elements_sent = {ph: [0] * P for ph in ALL_PHASES}
        self.elements_received = {ph: [0] * P for ph in ALL_PHASES}
        self.control_values = {ph: [0] * P for ph in ALL_PHASES}
        self.io_steps = {ph: 0 for ph in ALL_PHASES}
        self.overhead_elements = {ph: 0 for ph in ALL_PHASES}

    def note_read(self, phase: int, pe: int, disk: int, blocks: int = 1) -> None:
        self.blocks_read[phase][pe][disk] += blocks

    def note_write(self, phase: int, pe: int, disk: int, blocks: int = 1) -> None:
        self.blocks_written[phase][pe][disk] += blocks

    def add_sent(self, phase: int, pe: int, n: int) -> None:
        self.elements_sent[phase][pe] += n

    def add_received(self, phase: int, pe: int, n: int) -> None:
        self.elements_received[phase][pe] += n

    def add_control(self, phase: int, pe: int, n: int) -> None:
        self.control_values[phase][pe] += n

    def add_steps(self, phase: int, n: int) -> None:
        self.io_steps[phase] += n

    def add_overhead(self, phase: int, n: int) -> None:
        self.overhead_elements[phase] += n

    def charge_volume(self, volume, phase: int) -> None:
        """``net.charge_volume``, one (src, dst) pair at a time."""
        for src, row in enumerate(volume):
            for dst, n in enumerate(row):
                if src != dst:
                    self.add_sent(phase, src, n)
                    self.add_received(phase, dst, n)

    def gather_splitters(self, sizes, phase: int) -> None:
        """``net.gather_splitters``' charge, one PE at a time."""
        for pe, n in enumerate(sizes):
            self.add_control(phase, pe, sum(sizes) - n)


class _ReferencePE:
    """Block storage of one PE: logical block id -> block."""

    def __init__(self, d: int):
        self.blocks: dict[int, bytes] = {}   # B elements, ELEM-encoded
        self.next_slot = [0] * d
        self.peak_allocated = 0


class ReferenceCluster:
    """The block store that :class:`~emsort.vdisk.Cluster` had before its
    slab: one ``bytes`` object per block in a dict per PE, one Python step
    per block.  A call walks its ``(pe, lb)`` pairs in order.
    It refuses what the slab store refuses, with the same
    :class:`DiskError` text, and otherwise gives the same blocks, counters,
    peaks and next slots."""

    def __init__(self, cfg: MachineConfig):
        self.cfg = cfg
        self.counters = ReferenceCounters(cfg.P, cfg.D)
        self.arrays = [_ReferencePE(cfg.D) for _ in range(cfg.P)]

    @property
    def next_slot(self) -> list[list[int]]:
        return [arr.next_slot for arr in self.arrays]

    def peak_allocated(self, pe: int) -> int:
        return self.arrays[pe].peak_allocated

    def live(self, pe: int) -> list[int]:
        return sorted(self.arrays[pe].blocks)

    def _check_pe(self, pe) -> None:
        if not 0 <= pe < self.cfg.P:
            raise DiskError(f"pe={pe} is outside [0, {self.cfg.P})")

    def _pairs(self, pe, lbs) -> list[tuple[int, int]]:
        lbs = [int(lb) for lb in lbs]
        pe = np.asarray(pe)
        if pe.shape != (len(lbs),):
            raise DiskError(f"pe of shape {pe.shape} for block ids of shape "
                            f"({len(lbs)},): give one pe per block id")
        for p in pe.tolist():
            self._check_pe(p)
        return list(zip(pe.tolist(), lbs))

    @staticmethod
    def _first_repeat(pairs) -> int | None:
        seen = set()
        for i, pair in enumerate(pairs):
            if pair in seen:
                return i
            seen.add(pair)
        return None

    def alloc_blocks(self, pe: int, n: int) -> np.ndarray:
        self._check_pe(pe)
        return np.array(alloc_reference(self.arrays[pe].next_slot, n),
                        np.int64)

    def alloc_stripe(self, start_disk: int, n: int):
        D = self.cfg.D
        places = [divmod((start_disk + g) % self.cfg.total_disks, D)
                  for g in range(n)]
        return (np.array([pe for pe, _ in places], np.int64),
                np.array([alloc_on_reference(self.arrays[pe].next_slot, disk)
                          for pe, disk in places], np.int64))

    def free_blocks(self, pe, lbs) -> None:
        pairs = self._pairs(pe, lbs)
        i = self._first_repeat(pairs)
        if i is not None:
            raise DiskError("free of a block twice in one batch on "
                            f"pe={pairs[i][0]}")
        missing = [(lb, p) for p, lb in pairs if lb not in self.arrays[p].blocks]
        if missing:
            lb, p = min(missing)
            raise DiskError(f"free of unallocated block pe={p} lb={lb}")
        for p, lb in pairs:
            del self.arrays[p].blocks[lb]

    def read_blocks(self, pe, lbs, phase: int) -> np.ndarray:
        if phase not in ALL_PHASES:
            raise IndexError(f"phase {phase!r} is not a counter index")
        pairs = self._pairs(pe, lbs)
        data = self._peek(pairs)
        self._charge(self.counters.note_read, phase, pairs)
        return data

    def write_blocks(self, pe, lbs, elems, phase: int) -> None:
        if phase not in ALL_PHASES:
            raise IndexError(f"phase {phase!r} is not a counter index")
        pairs = self._pairs(pe, lbs)
        self._store(pairs, elems)
        self._charge(self.counters.note_write, phase, pairs)

    def seed_blocks(self, pe, lbs, elems) -> None:
        self._store(self._pairs(pe, lbs), elems)

    def peek_blocks(self, pe, lbs) -> np.ndarray:
        return self._peek(self._pairs(pe, lbs))

    def _peek(self, pairs) -> np.ndarray:
        for p, lb in pairs:
            if lb not in self.arrays[p].blocks:
                raise DiskError(f"read of unallocated block pe={p} lb={lb}")
        return concat([self.arrays[p].blocks[lb] for p, lb in pairs])

    def _store(self, pairs, elems) -> None:
        B, D = self.cfg.B, self.cfg.D
        raw = np.asarray(elems, ELEM).tobytes()
        size = B * ELEM.itemsize
        if len(raw) != len(pairs) * size:
            raise DiskError(f"store of {len(raw) // ELEM.itemsize} elements "
                            f"to {len(pairs)} blocks; block size is {B}")
        for p, lb in pairs:
            if lb < 0:
                raise DiskError(f"write of negative block id pe={p} lb={lb}")
        i = self._first_repeat(pairs)
        if i is not None:
            raise DiskError("write of a block twice in one batch on "
                            f"pe={pairs[i][0]}")
        for i, (p, lb) in enumerate(pairs):
            arr = self.arrays[p]
            arr.blocks[lb] = raw[i * size:(i + 1) * size]
            if lb // D >= arr.next_slot[lb % D]:
                arr.next_slot[lb % D] = lb // D + 1
        for arr in self.arrays:
            arr.peak_allocated = max(arr.peak_allocated, len(arr.blocks))

    def _charge(self, note, phase: int, pairs) -> None:
        D = self.cfg.D
        counts: dict[tuple[int, int], int] = {}
        for p, lb in pairs:
            counts[p, lb % D] = counts.get((p, lb % D), 0) + 1
        for (p, d), n in counts.items():
            note(phase, p, d, n)
