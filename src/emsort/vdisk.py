"""Virtual per-PE disk arrays with exact block-level accounting.

Every PE owns D disks addressed by a growing logical block id; logical block
``lb`` maps to ``(disk = lb % D, slot = lb // D)`` so sequential allocations
stripe round-robin over the PE's disks; ``alloc_stripe`` reserves a run
striped over every disk of the cluster in one call.  :class:`Cluster` speaks
in runs of blocks on one PE: a list of ids and one element array of ``B``
elements per id.  Engine reads and writes are charged to a named phase in
the shared :class:`~emsort.core.PhaseCounters`, once per disk a run
touches; input materialization and verification use the uncounted
``seed_blocks`` / ``peek_blocks`` so the engine I/O identities stay exact.
A stored block is a read-only copy of what was written; a read hands back
the blocks joined as one read-only array.  A refused run raises before it
changes anything.  A finished sort's :class:`OutputLayout` names its output
blocks the way a striped run does: a PE column and a block-id column.
"""
from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    ALL_PHASES,
    ELEM,
    MAX_KEY,
    SENTINEL_SERIAL,
    MachineConfig,
    PhaseCounters,
    concat,
    sentinel_mask,
)

class DiskError(Exception):
    pass


class _PEArray:
    """Block storage of one PE: logical block id -> block."""

    def __init__(self, d: int):
        self.blocks: dict[int, bytes] = {}   # B elements, ELEM-encoded
        self.next_slot = [0] * d
        self.peak_allocated = 0


class Cluster:
    """The simulated machine: config, per-PE disk arrays, counters."""

    def __init__(self, cfg: MachineConfig):
        self.cfg = cfg
        self.counters = PhaseCounters(cfg.P, cfg.D)
        self.arrays = [_PEArray(cfg.D) for _ in range(cfg.P)]

    # -- allocation ----------------------------------------------------------

    def alloc_blocks(self, pe: int, n: int) -> list[int]:
        """Reserve ``n`` fresh logical block ids on ``pe`` (no I/O charged),
        each on the disk with the fewest slots handed out, lowest disk first:
        the ``n`` smallest ids at or above their disk's next free slot."""
        free = self.arrays[pe].next_slot
        D, top = len(free), max(free)
        lbs = sorted(s * D + d for d, nxt in enumerate(free)
                     for s in range(nxt, min(top, nxt + n)))[:n]
        lbs += range(top * D, top * D + n - len(lbs))
        for lb in lbs[-D:]:     # each disk's last id is among the last D
            free[lb % D] = max(free[lb % D], lb // D + 1)
        return lbs

    def alloc_stripe(self, start_disk: int,
                     n: int) -> tuple[np.ndarray, np.ndarray]:
        """Reserve ``n`` fresh ids striped over all ``P*D`` disks (no I/O
        charged): block ``g`` goes on global disk ``(start_disk + g) mod
        P*D``, that is PE ``disk // D``, local disk ``disk % D``, at the
        disk's next free slots in order.  Returns the PE and the id of each
        block as ``int64`` columns: the ids of ``n`` one-block allocations
        in stripe order."""
        D = self.cfg.D
        total = self.cfg.total_disks
        first = start_disk % total
        q = np.arange(first, first + n)
        disk = q % total
        rank = q // total - (disk < first)  # stripe blocks before it on disk
        base = np.array([s for arr in self.arrays for s in arr.next_slot])
        for g, count in enumerate(np.bincount(disk, minlength=total).tolist()):
            self.arrays[g // D].next_slot[g % D] += count
        return disk // D, (base[disk] + rank) * D + disk % D

    def free_blocks(self, pe: int, lbs: Sequence[int]) -> None:
        """Release blocks (no I/O charged; supports in-place accounting)."""
        blocks = self.arrays[pe].blocks
        ids = set(lbs)
        if len(ids) < len(lbs):
            raise DiskError(f"free of a block twice in one batch on pe={pe}")
        if not ids <= blocks.keys():
            raise DiskError(f"free of unallocated block pe={pe} "
                            f"lb={min(ids - blocks.keys())}")
        for lb in ids:
            del blocks[lb]

    # -- counted I/O ---------------------------------------------------------

    def read_blocks(self, pe: int, lbs: Sequence[int], phase: str) -> np.ndarray:
        """The blocks ``lbs`` of ``pe`` joined as one read-only array."""
        if phase not in ALL_PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        data = self.peek_blocks(pe, lbs)
        self._charge(self.counters.note_read, phase, pe, lbs)
        return data

    def write_blocks(self, pe: int, lbs: Sequence[int], elems, phase: str) -> None:
        """Store ``elems`` as the blocks ``lbs`` of ``pe``, ``B`` each."""
        if phase not in ALL_PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        self.seed_blocks(pe, lbs, elems)
        self._charge(self.counters.note_write, phase, pe, lbs)

    # -- uncounted paths (setup / verification only) ---------------------------

    def seed_blocks(self, pe: int, lbs: Sequence[int], elems) -> None:
        """Store ``elems`` (an element array, or a list of ``(key, serial)``
        tuples) as the blocks ``lbs`` of ``pe`` without charging I/O."""
        self._store(pe, lbs, np.asarray(elems, ELEM).tobytes())

    def _store(self, pe: int, lbs: Sequence[int], raw: bytes) -> None:
        """Store the element bytes ``raw`` as the blocks ``lbs`` of ``pe``."""
        B, D = self.cfg.B, self.cfg.D
        size = B * ELEM.itemsize
        if len(raw) != len(lbs) * size:
            raise DiskError(f"store of {len(raw) // ELEM.itemsize} elements "
                            f"to {len(lbs)} blocks of pe={pe}; block size is {B}")
        arr = self.arrays[pe]
        blocks, free = arr.blocks, arr.next_slot
        for i, lb in enumerate(lbs):
            # A bytes slice is a fresh copy, so each block owns its memory.
            blocks[lb] = raw[i * size:(i + 1) * size]
            if lb // D >= free[lb % D]:
                free[lb % D] = lb // D + 1
        arr.peak_allocated = max(arr.peak_allocated, len(blocks))

    def peek_blocks(self, pe: int, lbs: Sequence[int]) -> np.ndarray:
        """The blocks ``lbs`` of ``pe`` joined as one read-only array,
        uncounted."""
        blocks = self.arrays[pe].blocks
        try:
            return concat(list(map(blocks.__getitem__, lbs)))
        except KeyError as exc:
            raise DiskError(f"read of unallocated block pe={pe} "
                            f"lb={exc.args[0]}") from None

    def _charge(self, note, phase: str, pe: int, lbs: Sequence[int]) -> None:
        """Charge one block per id in ``lbs`` to its disk, once per disk."""
        D = self.cfg.D
        if len(lbs) == 1:           # the selection probes' one-block reads
            note(phase, pe, lbs[0] % D, 1)
            return
        counts = [0] * D
        for lb in lbs:
            counts[lb % D] += 1
        for d, n in enumerate(counts):
            if n:
                note(phase, pe, d, n)

    # -- occupancy -----------------------------------------------------------

    def peak_allocated(self, pe: int) -> int:
        return self.arrays[pe].peak_allocated

    # -- persistence -----------------------------------------------------------

    def save_images(self, directory: str) -> None:
        """Write one ``pe<p>_disk<d>.bin`` per disk; slot ``s`` occupies bytes
        ``[s*B*elem_size, (s+1)*B*elem_size)``, holes zero-filled.  See
        :func:`_encode_elements` for the element layout; at ``elem_size``
        16 a row is the element's own bytes, so the stored blocks are
        written as they are."""
        os.makedirs(directory, exist_ok=True)
        B, D, es = self.cfg.B, self.cfg.D, self.cfg.elem_size
        for pe, arr in enumerate(self.arrays):
            for d in range(D):
                used = sorted(lb for lb in arr.blocks if lb % D == d)
                slots = range(d, used[-1] + 1 if used else 0, D)
                if es == ELEM.itemsize:
                    hole = bytes(B * es)
                    image = b"".join(arr.blocks.get(lb, hole) for lb in slots)
                else:
                    image = np.zeros((len(slots), B, es), dtype=np.uint8)
                    image[[lb // D for lb in used]] = _encode_elements(
                        self.peek_blocks(pe, used), es).reshape(-1, B, es)
                with open(os.path.join(directory, f"pe{pe}_disk{d}.bin"),
                          "wb") as fh:
                    fh.write(image)

    @classmethod
    def load_images(cls, directory: str, cfg: MachineConfig) -> "Cluster":
        """Rebuild a cluster from the images :meth:`save_images` wrote; every
        slot is seeded, holes as blocks of ``(0, 0)``.  Raises
        :class:`DiskError` for a missing image, a partial block, or a row
        that :meth:`save_images` would not write back byte for byte.

        Only a row wider than 16 bytes can be refused: decoding keeps every
        byte of a narrower row, so encoding writes it back.  At
        ``elem_size`` 16 the image bytes are the elements themselves."""
        cluster = cls(cfg)
        B, es = cfg.B, cfg.elem_size
        for pe in range(cfg.P):
            for d in range(cfg.D):
                path = os.path.join(directory, f"pe{pe}_disk{d}.bin")
                try:
                    with open(path, "rb") as fh:
                        raw = fh.read()
                except FileNotFoundError:
                    raise DiskError(f"{path}: image is missing") from None
                if len(raw) % (B * es):
                    raise DiskError(f"{path}: size is not a whole number of blocks")
                lbs = range(d, len(raw) // (B * es) * cfg.D, cfg.D)
                if es == ELEM.itemsize:
                    cluster._store(pe, lbs, raw)
                    continue
                rows = np.frombuffer(raw, np.uint8).reshape(-1, es)
                elems = _decode_elements(rows)
                # Decoding keeps a row's first 16 bytes; encoding writes the
                # rest as all 0xff for a sentinel and as zeros otherwise.
                tails, sentinels = rows[:, ELEM.itemsize:], sentinel_mask(elems)
                bad = np.flatnonzero(np.where(
                    sentinels, (tails != 0xFF).any(axis=1), tails.any(axis=1)))
                if bad.size:
                    i = bad[0]
                    why = ("reads as a sentinel but its payload is not all 0xff"
                           if sentinels[i]
                           else "has payload bytes past the 8-byte serial")
                    raise DiskError(f"{path}: row {i} {why}")
                cluster.seed_blocks(pe, lbs, elems)
        return cluster


def _encode_elements(elems: np.ndarray, elem_size: int) -> np.ndarray:
    """``(len(elems), elem_size)`` image rows: the little-endian key, then a
    payload of ``elem_size - 8`` bytes holding the serial's low bytes (two's
    complement, zero-filled past the eighth), or all ``0xff`` for a
    sentinel."""
    rows = np.zeros((len(elems), max(elem_size, 16)), dtype=np.uint8)
    rows[:, :16] = np.ascontiguousarray(elems).view(np.uint8).reshape(-1, 16)
    rows[sentinel_mask(elems), 16:] = 0xFF
    return rows[:, :elem_size]


def _decode_elements(rows: np.ndarray) -> np.ndarray:
    """The elements of ``(n, elem_size)`` image rows: a ``MAX_KEY`` key with
    an all-``0xff`` payload is a sentinel, any other payload's first eight
    bytes are the serial, little-endian.  Inverse of
    :func:`_encode_elements` on every row that it can write."""
    n, elem_size = rows.shape
    raw = np.zeros((n, 16), dtype=np.uint8)
    raw[:, :min(elem_size, 16)] = rows[:, :16]
    elems = raw.view(ELEM)[:, 0]
    sentinel = (elems["key"] == MAX_KEY) & (rows[:, 8:] == 0xFF).all(axis=1)
    elems["serial"][sentinel] = SENTINEL_SERIAL
    return elems


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

    def check_ids(self, P: int) -> None:
        """Raise :class:`DiskError` naming the first block whose PE is not
        in ``[0, P)`` or whose block id is negative."""
        bad = np.flatnonzero((self.pes < 0) | (self.pes >= P) | (self.lbs < 0))
        if bad.size:
            g = int(bad[0])
            raise DiskError(f"layout block {g} is pe={self.pes[g]} "
                            f"lb={self.lbs[g]}: the pe must be in [0, {P}) "
                            "and the lb non-negative")
