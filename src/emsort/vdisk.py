"""Virtual per-PE disk arrays with exact block-level accounting.

Every PE owns D disks addressed by a growing logical block id; logical block
``lb`` maps to ``(disk = lb % D, slot = lb // D)`` so sequential allocations
stripe round-robin over the PE's disks; ``alloc_stripe`` reserves a run
striped over every disk of the cluster in one call.

:class:`Cluster` keeps every block of the machine in one store: a slab of
rows of ``B`` elements, an ``int64`` map from ``(lb, pe)`` (laid out as
``lb * P + pe``) to a slab row or ``-1``, and a stack of free rows, so the
slab grows with the live blocks, not with the ids handed out.  Its calls
speak in runs of blocks: a column of ids and a column of their PEs, both
``int64`` and as long, so one call can touch blocks of every PE.  Each
call costs a few array operations, not a Python step per block.  Engine
reads and writes are charged to a phase, the first index of the shared
:class:`~emsort.core.PhaseCounters` arrays, one ``(D, P)`` count matrix
per call; input materialization and verification use the uncounted
``seed_blocks`` / ``peek_blocks`` so the engine I/O identities stay exact.
A write stores a copy of its elements; a read hands back the blocks joined
as one read-only copy, or gathers them into the caller's element column.
A refused run raises before it changes anything;
that includes a PE that is not such a column, a PE outside ``[0, P)`` and
a phase outside ``[0, len(PHASE_NAMES))`` (``IndexError``).  A finished
sort's :class:`OutputLayout` names its output blocks the way a striped run
does: a PE column and a block-id column.
"""
from __future__ import annotations

import itertools
import mmap
import os
from dataclasses import dataclass

import numpy as np

from .core import (
    ELEM,
    READ,
    WRITE,
    DiskError,
    MachineConfig,
    PhaseCounters,
    refuse_phase,
)
from .images import IMAGE, file_size, read_slots

#: ``mmap`` flags for private anonymous memory where the platform has them.
_PRIVATE = ({"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS}
            if hasattr(mmap, "MAP_PRIVATE") else {})


class Cluster:
    """The simulated machine: config, one block store for all PEs,
    counters.

    ``next_slot[pe, d]`` is disk ``d`` of ``pe``'s next free slot, and
    ``live[pe]`` and ``peak[pe]`` count the blocks ``pe`` holds now and at
    most so far.

    Block ``lb`` of ``pe`` has the key ``lb * P + pe``: ``_row[key]`` is
    its slab row, or ``-1``.  A key also gives the block's disk cell
    ``key % (P * D) = d * P + pe`` and its slot ``key // (P * D)``, the
    layout of ``_next``, which ``next_slot`` views PE by PE.
    """

    def __init__(self, cfg: MachineConfig):
        self.cfg = cfg
        self.counters = PhaseCounters(cfg.P, cfg.D)
        self._next = np.zeros(cfg.D * cfg.P, np.int64)
        self.next_slot = self._next.reshape(cfg.D, cfg.P).T
        self.live = np.zeros(cfg.P, np.int64)
        self.peak = np.zeros(cfg.P, np.int64)
        self._block = np.dtype((np.void, cfg.B * ELEM.itemsize))
        self._slab = np.empty(0, self._block)
        self._row = np.empty(0, np.int64)
        self._free = np.empty(0, np.int64)      # rows _free[:_nfree] are free
        self._nfree = 0

    # -- allocation ----------------------------------------------------------

    def alloc_blocks(self, pe: int, n: int) -> np.ndarray:
        """Reserve ``n`` fresh logical block ids on ``pe`` (no I/O charged),
        each on the disk with the fewest slots handed out, lowest disk first:
        the ``n`` smallest ids at or above their disk's next free slot, as
        an ``int64`` column."""
        self._check_pe(pe)
        D = self.cfg.D
        free = self.next_slot[pe]
        slots = free.tolist()
        low, top = min(slots), max(slots)
        # Below slot ``top`` the ids lie on disks behind the others; the
        # least filled disk alone has one in each of the first n slots.
        ids = np.arange(low * D, min(top, low + n) * D)
        ids = ids[ids // D >= free[ids % D]][:n]
        lbs = np.concatenate((ids, np.arange(top * D, top * D + n - len(ids))))
        # Each disk's ids are consecutive slots from its next free one.
        free += np.bincount(lbs % D, minlength=D)
        return lbs

    def alloc_stripe(self, start_disk,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
        """Reserve a stripe of ``n`` fresh ids over all ``P*D`` disks (no
        I/O charged) from each start disk of ``start_disk``, an int or a
        column, one stripe after another: block ``g`` of a stripe goes on
        global disk ``(start + g) mod P*D``, that is PE ``disk // D``,
        local disk ``disk % D``, at the disk's next free slots in order.
        Returns the PE and the id of each block as ``int64`` columns,
        stripe after stripe: the ids of ``n`` one-block allocations per
        stripe in stripe order, as consecutive calls would hand out."""
        P, D, total = self.cfg.P, self.cfg.D, self.cfg.total_disks
        first = np.asarray(start_disk, np.int64).reshape(-1, 1) % total
        # Per stripe and global disk: n // total blocks, one more on n % total.
        put = n // total + ((np.arange(total) - first) % total < n % total)
        cell = np.arange(total) % D * P + np.arange(total) // D
        # A stripe's first free slot on each disk, after the earlier ones.
        slot = self._next[cell] + np.cumsum(put, 0) - put
        q = first + np.arange(n)
        turn = q // total
        disk = q - turn * total             # q % total, without the slower %
        rank = turn - (disk < first)        # stripe blocks before it on disk
        pes, d = np.divmod(disk, D)
        at = disk + np.arange(0, slot.size, total)[:, None]
        lbs = (np.take(slot, at) + rank) * D + d
        self._next[cell] += put.sum(0)
        self._grow(int(self._next.max()) * len(self._next))
        return pes.reshape(-1), lbs.reshape(-1)

    def free_blocks(self, pe, lbs) -> None:
        """Release blocks (no I/O charged; supports in-place accounting)."""
        lbs, pe, keys = self._ids(pe, lbs)
        self._refuse_repeats("free", keys, pe)
        rows = self._rows(keys)
        if len(rows) and np.minimum.reduce(rows) < 0:
            P = self.cfg.P
            key = int(keys[rows < 0].min())
            raise DiskError(f"free of unallocated block pe={key % P} "
                            f"lb={key // P}")
        self._row[keys] = -1
        self._free[self._nfree:self._nfree + len(rows)] = rows
        self._nfree += len(rows)
        self.live -= np.bincount(pe, minlength=self.cfg.P)

    # -- counted I/O ---------------------------------------------------------

    def read_blocks(self, pe, lbs, phase: int, out=None) -> np.ndarray:
        """The blocks ``lbs`` of ``pe`` joined as one read-only array, or
        gathered into ``out``, a writeable C-contiguous element column of
        their ``B`` elements each, and ``out`` returned."""
        refuse_phase(phase)
        counts = self.counters.blocks[phase, READ]  # refuses a phase too high
        lbs, pe, keys = self._ids(pe, lbs)
        data = self._gather(lbs, pe, keys, out)
        self._charge(counts, keys)
        return data

    def write_blocks(self, pe, lbs, elems, phase: int) -> None:
        """Store ``elems`` as the blocks ``lbs`` of ``pe``, ``B`` each."""
        refuse_phase(phase)
        counts = self.counters.blocks[phase, WRITE]
        lbs, pe, keys = self._ids(pe, lbs)
        self._store(lbs, pe, keys, np.asarray(elems, ELEM))
        self._charge(counts, keys)

    # -- uncounted paths (setup / verification only) ---------------------------

    def seed_blocks(self, pe, lbs, elems) -> None:
        """Store ``elems`` (an element array, or a list of ``(key, serial)``
        tuples) as the blocks ``lbs`` of ``pe`` without charging I/O."""
        lbs, pe, keys = self._ids(pe, lbs)
        self._store(lbs, pe, keys, np.asarray(elems, ELEM))

    def peek_blocks(self, pe, lbs) -> np.ndarray:
        """The blocks ``lbs`` of ``pe`` joined as one read-only array,
        uncounted."""
        return self._gather(*self._ids(pe, lbs))

    def loaded_elements(self) -> np.ndarray:
        """Every element :meth:`load_images` has just stored, as one
        read-only view of the store, uncounted."""
        elems = self._slab[:int(self.live.sum())].view(ELEM)
        elems.flags.writeable = False
        return elems

    # -- the store -------------------------------------------------------------

    def _check_pe(self, pe) -> None:
        if not 0 <= pe < self.cfg.P:
            raise DiskError(f"pe={pe} is outside [0, {self.cfg.P})")

    def _ids(self, pe, lbs):
        """``lbs`` and ``pe`` as ``int64`` columns, and the blocks' keys;
        raises :class:`DiskError` unless ``pe`` is a column as long as
        ``lbs``, or naming the first PE outside ``[0, P)``."""
        lbs = np.asarray(lbs, np.int64)
        pe = np.asarray(pe, np.int64)
        P = self.cfg.P
        if pe.shape != lbs.shape:
            raise DiskError(f"pe of shape {pe.shape} for block ids of shape "
                            f"{lbs.shape}: give one pe per block id")
        if len(pe) and np.maximum.reduce(pe.view(np.uint64)) >= P:
            self._check_pe(int(pe[(pe.view(np.uint64) >= P).argmax()]))
        keys = lbs * P
        keys += pe
        return lbs, pe, keys

    def _refuse_repeats(self, verb: str, keys: np.ndarray, pe) -> None:
        """Raise :class:`DiskError` if a block appears twice, naming the PE
        of its first repeat."""
        if len(keys) < 2:
            return
        ordered = np.sort(keys)
        if np.logical_and.reduce(ordered[1:] != ordered[:-1]):
            return
        _, first = np.unique(keys, return_index=True)
        repeat = np.ones(len(keys), bool)
        repeat[first] = False
        raise DiskError(f"{verb} of a block twice in one batch on "
                        f"pe={pe[repeat.argmax()]}")

    def _rows(self, keys: np.ndarray) -> np.ndarray:
        """The slab row of each block, ``-1`` where none is stored."""
        if len(keys) and np.maximum.reduce(keys.view(np.uint64)) >= len(self._row):
            inside = keys.view(np.uint64) < len(self._row)  # negative ids too
            rows = np.full(len(keys), -1, np.int64)
            rows[inside] = self._row[keys[inside]]
            return rows
        return self._row[keys]

    def _gather(self, lbs: np.ndarray, pe, keys: np.ndarray,
                out=None) -> np.ndarray:
        rows = self._rows(keys)
        if len(rows) and np.minimum.reduce(rows) < 0:
            i = int((rows < 0).argmax())
            raise DiskError(f"read of unallocated block pe={pe[i]} "
                            f"lb={lbs[i]}")
        size = len(rows) * self.cfg.B
        data = np.empty(size, ELEM) if out is None else out
        if not (data.dtype == ELEM and data.shape == (size,)
                and data.flags.c_contiguous and data.flags.writeable):
            raise DiskError(f"read of {size} elements into an array of shape "
                            f"{data.shape} and dtype {data.dtype}: give a "
                            "writeable C-contiguous element column")
        # ``clip`` never clips these rows; the default mode would gather
        # into a buffer and copy that into ``data``.
        np.take(self._slab, rows, out=data.view(self._block), mode="clip")
        data.flags.writeable = out is not None
        return data

    def _store(self, lbs: np.ndarray, pe, keys: np.ndarray,
               elems: np.ndarray) -> None:
        """Store ``elems`` as the blocks ``lbs`` of ``pe``."""
        B = self.cfg.B
        n = len(lbs)
        if elems.size != n * B:
            raise DiskError(f"store of {elems.size} elements to {n} blocks; "
                            f"block size is {B}")
        if not n:
            return
        if np.minimum.reduce(lbs) < 0:
            i = int((lbs < 0).argmax())
            raise DiskError(f"write of negative block id pe={pe[i]} "
                            f"lb={lbs[i]}")
        self._refuse_repeats("write", keys, pe)
        if (top := int(np.maximum.reduce(keys)) + 1) > len(self._row):
            self._grow(top)
        rows = self._row[keys]
        fresh = rows < 0
        k = int(np.count_nonzero(fresh))
        if k:
            new = self._pop(k)
            if k == n:                  # only fresh ids, the common case
                rows, fresh = new, slice(None)
            else:
                rows[fresh] = new
            self._row[keys[fresh]] = new
            self.live += np.bincount(pe[fresh], minlength=self.cfg.P)
            np.maximum(self.peak, self.live, out=self.peak)
        self._slab[rows] = np.ascontiguousarray(elems).reshape(-1).view(self._block)
        # A written id counts as handed out: only one that no allocation
        # handed out passes its disk's next free slot and raises it.
        slots, cells = np.divmod(keys, len(self._next))
        if np.logical_or.reduce(slots >= self._next[cells]):
            np.maximum.at(self._next, cells, slots + 1)

    def _grow(self, top: int) -> None:
        """Grow the block map over its first ``top`` ids, twofold at least."""
        if top > len(self._row):
            grown = np.full(max(top, 2 * len(self._row)), -1, np.int64)
            grown[:len(self._row)] = self._row
            self._row = grown

    def _pop(self, k: int) -> np.ndarray:
        """``k`` free rows, growing the slab when fewer are free."""
        self._reserve(k)
        self._nfree -= k
        return self._free[self._nfree:self._nfree + k]

    def _reserve(self, k: int) -> None:
        """Grow the slab until ``k`` rows are free: to at least twice its
        size and twice the input's ``N / B`` blocks.  New rows go under the
        free ones, so freed rows are reused first.

        The slab is private anonymous memory mapped for it alone, so a row
        costs memory only once written, and dropping a slab hands its
        memory back without moving the C allocator's thresholds for the
        many smaller arrays of a sort."""
        if k <= self._nfree:
            return
        old = len(self._slab)
        cap = max(old + k - self._nfree, 2 * old, 2 * self.cfg.N // self.cfg.B)
        slab = np.frombuffer(mmap.mmap(-1, cap * self._block.itemsize,
                                       **_PRIVATE), self._block)
        slab[:old] = self._slab
        free = np.empty(cap, np.int64)
        free[:cap - old] = np.arange(cap - 1, old - 1, -1)
        free[cap - old:cap - old + self._nfree] = self._free[:self._nfree]
        self._slab, self._free = slab, free
        self._nfree += cap - old

    def _charge(self, counts: np.ndarray, keys: np.ndarray) -> None:
        """Add one block per key to its disk cell ``key % (P * D)`` of the
        ``(D, P)`` counter view ``counts``."""
        cells = len(self._next)
        counts += np.bincount(keys % cells, minlength=cells).reshape(
            self.cfg.D, self.cfg.P)

    def peak_allocated(self, pe: int) -> int:
        return int(self.peak[pe])

    # -- persistence -----------------------------------------------------------

    def save_images(self, directory: str, generation: int) -> None:
        """Write one image per disk, named by :data:`IMAGE`, in one call
        each: the count ``n`` of the disk's live blocks and their ``n``
        slots in increasing order, as little-endian ``int64``, then their
        rows, the stored blocks' own bytes gathered in one call."""
        os.makedirs(directory, exist_ok=True)
        P, D, width = self.cfg.P, self.cfg.D, self._block.itemsize
        for pe, d in itertools.product(range(P), range(D)):
            rows = self._row[d * P + pe::D * P]         # slot -> row
            slots = np.flatnonzero(rows >= 0)
            rows, n = rows[slots], len(slots)
            image = np.empty(8 + n * (8 + width), np.uint8)
            image[:8 + 8 * n].view("<i8")[:] = np.append(n, slots)
            # ``clip`` gathers straight into ``out``, as in :meth:`_gather`.
            np.take(self._slab, rows, out=image[8 + 8 * n:].view(self._block),
                    mode="clip")
            name = IMAGE.format(pe=pe, d=d, generation=generation)
            with open(os.path.join(directory, name), "wb") as fh:
                fh.write(image)

    @classmethod
    def load_images(cls, directory: str, cfg: MachineConfig,
                    generation: int, limit: int = 1 << 63) -> "Cluster":
        """Rebuild a cluster from the images :meth:`save_images` wrote: the
        blocks at their slots, each disk's next free slot one past its last
        and each PE's peak its live count.  Raises :class:`DiskError`
        naming the image for a missing image, a header :func:`read_slots`
        refuses (a slot at or above ``limit`` or ``2**63 / (P*D)`` too), or
        rows that end early.  The rows are read straight into the slab."""
        cluster = cls(cfg)
        P, D, width = cfg.P, cfg.D, cluster._block.itemsize
        limit = min(limit, (1 << 63) // (P * D))
        paths = [os.path.join(directory, IMAGE.format(pe=pe, d=d,
                                                      generation=generation))
                 for pe, d in itertools.product(range(P), range(D))]
        sizes = [file_size(path, "image") for path in paths]
        # A valid image's size gives its block count: the slab hands out
        # rows 0, 1, ... for the images' blocks in order.
        cluster._pop(sum(max(size - 8, 0) // (8 + width) for size in sizes))
        images, start = [], 0
        for path, size in zip(paths, sizes):
            with open(path, "rb") as fh:
                slots = read_slots(fh, path, size, width, limit)
                body = cluster._slab[start:start + len(slots)]
                if fh.readinto(body.view(np.uint8)) != body.nbytes:
                    raise DiskError(f"{path}: ends inside its rows")
            images.append(slots)
            start += len(slots)
        counts = np.array(list(map(len, images)), np.int64)
        pe, d = np.divmod(np.repeat(np.arange(P * D), counts), D)
        keys = (np.concatenate(images) * D + d) * P + pe
        cluster._row = np.full(int(keys.max(initial=-1)) + 1, -1, np.int64)
        cluster._row[keys] = np.arange(len(keys))
        cluster.next_slot[:] = np.reshape(
            [s[-1] + 1 if len(s) else 0 for s in images], (P, D))
        cluster.live[:] = cluster.peak[:] = counts.reshape(P, D).sum(1)
        return cluster


@dataclass
class OutputLayout:
    """Where a finished sort left its output: output block ``g``, in key
    order, is block ``lbs[g]`` of PE ``pes[g]``, both ``int64`` columns.

    The canonical engine leaves each PE's slice on that PE, so ``pes`` does
    not decrease; the striped engine stripes the blocks round robin over
    all ``P*D`` disks.
    """

    engine: str
    pes: np.ndarray
    lbs: np.ndarray

    def __post_init__(self) -> None:
        self.pes = np.asarray(self.pes, np.int64)
        self.lbs = np.asarray(self.lbs, np.int64)

    def save(self, path: str) -> None:
        """Write ``pes`` then ``lbs`` as little-endian ``int64``."""
        with open(path, "wb") as fh:
            fh.write(np.concatenate((self.pes, self.lbs)).astype("<i8"))

    @classmethod
    def load(cls, path: str, engine: str, blocks: int,
             P: int) -> "OutputLayout":
        """The ``blocks`` blocks :meth:`save` wrote to ``path``; raises
        :class:`DiskError` naming ``path`` for a missing file, a size other
        than 16 bytes per block, or a block :meth:`check_ids` refuses."""
        size = file_size(path, "layout")
        if size != 16 * blocks:
            raise DiskError(f"{path}: {size} bytes, not 16 for each of "
                            f"{blocks} blocks")
        ids = np.fromfile(path, "<i8")
        layout = cls(engine, ids[:blocks], ids[blocks:])
        try:
            layout.check_ids(P)
        except DiskError as exc:
            raise DiskError(f"{path}: {exc}") from None
        return layout

    def check_ids(self, P: int) -> None:
        """Raise :class:`DiskError` naming the first block whose PE is not
        in ``[0, P)`` or whose block id is negative."""
        bad = np.flatnonzero((self.pes < 0) | (self.pes >= P) | (self.lbs < 0))
        if bad.size:
            g = int(bad[0])
            raise DiskError(f"layout block {g} is pe={self.pes[g]} "
                            f"lb={self.lbs[g]}: the pe must be in [0, {P}) "
                            "and the lb non-negative")
