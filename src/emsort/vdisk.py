"""Virtual per-PE disk arrays with exact block-level accounting.

Every PE owns D disks addressed by a growing logical block id; logical block
``lb`` maps to ``(disk = lb % D, slot = lb // D)`` so sequential allocations
stripe round-robin over the PE's disks.  All engine reads and writes go
through :class:`Cluster`, which charges them to a named phase in the shared
:class:`~emsort.core.PhaseCounters`.  Input materialization and verification
use the uncounted ``seed_block`` / ``peek_block`` paths so the engine I/O
identities stay exact.  A stored block is a read-only copy of what was
written, and reads return it as is.
"""
from __future__ import annotations

import os
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

BlockAddr = tuple[int, int]  # (pe, logical block id)


class DiskError(Exception):
    pass


class _PEArray:
    """Block storage of one PE: D dicts of slot -> block."""

    def __init__(self, pe: int, d: int):
        self.pe = pe
        self.D = d
        self.slots: list[dict[int, np.ndarray]] = [{} for _ in range(d)]
        self.next_slot = [0] * d
        self.allocated = 0
        self.peak_allocated = 0

    def locate(self, lb: int) -> tuple[int, int]:
        return lb % self.D, lb // self.D


class Cluster:
    """The simulated machine: config, per-PE disk arrays, counters."""

    def __init__(self, cfg: MachineConfig):
        self.cfg = cfg
        self.counters = PhaseCounters(cfg.P, cfg.D)
        self.arrays = [_PEArray(pe, cfg.D) for pe in range(cfg.P)]

    # -- allocation ----------------------------------------------------------

    def alloc_block(self, pe: int) -> int:
        """Reserve a fresh logical block id on ``pe``, round-robin over disks
        (no I/O charged)."""
        free = self.arrays[pe].next_slot
        return self.alloc_block_on(pe, free.index(min(free)))

    def alloc_block_on(self, pe: int, disk: int) -> int:
        """Reserve a fresh logical block id on a specific disk of ``pe``."""
        arr = self.arrays[pe]
        lb = arr.next_slot[disk] * arr.D + disk
        arr.next_slot[disk] += 1
        return lb

    # -- counted I/O ---------------------------------------------------------

    def read_block(self, pe: int, lb: int, phase: str) -> np.ndarray:
        """The stored block itself: a read-only array of ``B`` elements."""
        if phase not in ALL_PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        arr = self.arrays[pe]
        disk, slot = arr.locate(lb)
        try:
            block = arr.slots[disk][slot]
        except KeyError:
            raise DiskError(f"read of unallocated block pe={pe} lb={lb}") from None
        self.counters.note_read(phase, pe, disk)
        return block

    def write_block(self, pe: int, lb: int, block, phase: str) -> None:
        if phase not in ALL_PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        self.counters.note_write(phase, pe, self.seed_block(pe, lb, block))

    def deallocate_block(self, pe: int, lb: int) -> None:
        """Release a block slot (no I/O charged; supports in-place accounting)."""
        arr = self.arrays[pe]
        disk, slot = arr.locate(lb)
        if slot not in arr.slots[disk]:
            raise DiskError(f"deallocate of unallocated block pe={pe} lb={lb}")
        del arr.slots[disk][slot]
        arr.allocated -= 1

    # -- uncounted paths (setup / verification only) ---------------------------

    def seed_block(self, pe: int, lb: int, block) -> int:
        """Store a read-only copy of ``block`` (an element array, or a list of
        ``(key, serial)`` tuples) without charging I/O; returns its disk."""
        # frombuffer over fresh bytes: a read-only copy, and cheaper than
        # ndarray.copy for a block-sized structured array.
        block = np.frombuffer(np.asarray(block, ELEM).tobytes(), ELEM)
        if len(block) != self.cfg.B:
            raise DiskError(f"store of {len(block)} elements to pe={pe} lb={lb}; "
                            f"block size is {self.cfg.B}")
        arr = self.arrays[pe]
        disk, slot = arr.locate(lb)
        if slot not in arr.slots[disk]:
            arr.allocated += 1
            arr.peak_allocated = max(arr.peak_allocated, arr.allocated)
        arr.next_slot[disk] = max(arr.next_slot[disk], slot + 1)
        arr.slots[disk][slot] = block
        return disk

    def peek_block(self, pe: int, lb: int) -> np.ndarray:
        arr = self.arrays[pe]
        disk, slot = arr.locate(lb)
        try:
            return arr.slots[disk][slot]
        except KeyError:
            raise DiskError(f"peek of unallocated block pe={pe} lb={lb}") from None

    # -- occupancy -----------------------------------------------------------

    def peak_allocated(self, pe: int) -> int:
        return self.arrays[pe].peak_allocated

    # -- persistence -----------------------------------------------------------

    def save_images(self, directory: str) -> None:
        """Write one ``pe<p>_disk<d>.bin`` per disk; slot ``s`` occupies bytes
        ``[s*B*elem_size, (s+1)*B*elem_size)``, holes zero-filled.  See
        :func:`_encode_elements` for the element layout."""
        os.makedirs(directory, exist_ok=True)
        B, es = self.cfg.B, self.cfg.elem_size
        for arr in self.arrays:
            for d, slots in enumerate(arr.slots):
                path = os.path.join(directory, f"pe{arr.pe}_disk{d}.bin")
                top = max(slots) + 1 if slots else 0
                image = np.zeros((top, B, es), dtype=np.uint8)
                if slots:
                    used = sorted(slots)
                    elems = concat([slots[s] for s in used])
                    image[used] = _encode_elements(elems, es).reshape(-1, B, es)
                image.tofile(path)

    @classmethod
    def load_images(cls, directory: str, cfg: MachineConfig) -> "Cluster":
        """Rebuild a cluster from the images :meth:`save_images` wrote; every
        slot is seeded, holes as blocks of ``(0, 0)``.  Raises
        :class:`DiskError` for a missing image, a partial block, or a row
        that :meth:`save_images` would not write back byte for byte."""
        cluster = cls(cfg)
        B, es = cfg.B, cfg.elem_size
        for pe in range(cfg.P):
            for d in range(cfg.D):
                path = os.path.join(directory, f"pe{pe}_disk{d}.bin")
                try:
                    data = np.fromfile(path, dtype=np.uint8)
                except FileNotFoundError:
                    raise DiskError(f"{path}: image is missing") from None
                if data.size % (B * es):
                    raise DiskError(f"{path}: size is not a whole number of blocks")
                rows = data.reshape(-1, es)
                elems = _decode_elements(rows)
                bad = np.flatnonzero(
                    (_encode_elements(elems, es) != rows).any(axis=1))
                if bad.size:
                    i = bad[0]
                    why = ("reads as a sentinel but its payload is not all 0xff"
                           if sentinel_mask(elems[i:i + 1])[0]
                           else "has payload bytes past the 8-byte serial")
                    raise DiskError(f"{path}: row {i} {why}")
                for s in range(len(elems) // B):
                    cluster.seed_block(pe, s * cfg.D + d, elems[s * B:(s + 1) * B])
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
    """Where a finished sort left its output.

    canonical engine: ``per_pe[i]`` lists PE i's output blocks in key order.
    striped engine:   ``stripe`` lists (pe, lb) globally in key order.
    """

    engine: str
    per_pe: list[list[int]] | None = None
    stripe: list[BlockAddr] | None = None

    def iter_blocks(self):
        if self.per_pe is not None:
            for pe, blocks in enumerate(self.per_pe):
                for lb in blocks:
                    yield pe, lb
        else:
            assert self.stripe is not None
            yield from self.stripe
