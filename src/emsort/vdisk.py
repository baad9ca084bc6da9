"""Virtual per-PE disk arrays with exact block-level accounting.

Every PE owns D disks addressed by a growing logical block id; logical block
``lb`` maps to ``(disk = lb % D, slot = lb // D)`` so sequential allocations
stripe round-robin over the PE's disks.  All engine reads and writes go
through :class:`Cluster`, which charges them to a named phase in the shared
:class:`~emsort.core.PhaseCounters`.  Input materialization and verification
use the uncounted ``seed_block`` / ``peek_block`` paths so the engine I/O
identities stay exact.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .core import (
    ALL_PHASES,
    MAX_KEY,
    Element,
    MachineConfig,
    PhaseCounters,
    element_columns,
    sentinel,
)

BlockAddr = tuple[int, int]  # (pe, logical block id)


class DiskError(Exception):
    pass


class _PEArray:
    """Block storage of one PE: D dicts of slot -> block."""

    def __init__(self, pe: int, d: int):
        self.pe = pe
        self.D = d
        self.slots: list[dict[int, list[Element]]] = [{} for _ in range(d)]
        self.next_slot = [0] * d
        self.allocated = 0
        self.peak_allocated = 0

    def locate(self, lb: int) -> tuple[int, int]:
        return lb % self.D, lb // self.D

    def note_slot(self, lb: int) -> None:
        disk, slot = self.locate(lb)
        if slot >= self.next_slot[disk]:
            self.next_slot[disk] = slot + 1

    def _bump(self) -> None:
        if self.allocated > self.peak_allocated:
            self.peak_allocated = self.allocated


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
        arr = self.arrays[pe]
        disk = min(range(arr.D), key=lambda d: (arr.next_slot[d], d))
        return self.alloc_block_on(pe, disk)

    def alloc_block_on(self, pe: int, disk: int) -> int:
        """Reserve a fresh logical block id on a specific disk of ``pe``."""
        arr = self.arrays[pe]
        lb = arr.next_slot[disk] * arr.D + disk
        arr.next_slot[disk] += 1
        return lb

    def reserve(self, pe: int, count: int) -> list[int]:
        return [self.alloc_block(pe) for _ in range(count)]

    # -- counted I/O ---------------------------------------------------------

    def read_block(self, pe: int, lb: int, phase: str) -> list[Element]:
        if phase not in ALL_PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        arr = self.arrays[pe]
        disk, slot = arr.locate(lb)
        try:
            block = arr.slots[disk][slot]
        except KeyError:
            raise DiskError(f"read of unallocated block pe={pe} lb={lb}") from None
        self.counters.note_read(phase, pe, disk)
        return list(block)

    def write_block(self, pe: int, lb: int, block: list[Element], phase: str) -> None:
        if phase not in ALL_PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        if len(block) != self.cfg.B:
            raise DiskError(
                f"write of {len(block)} elements to pe={pe} lb={lb}; block size is {self.cfg.B}"
            )
        arr = self.arrays[pe]
        disk, slot = arr.locate(lb)
        if slot not in arr.slots[disk]:
            arr.allocated += 1
            arr._bump()
        arr.note_slot(lb)
        arr.slots[disk][slot] = list(block)
        self.counters.note_write(phase, pe, disk)

    def deallocate_block(self, pe: int, lb: int) -> None:
        """Release a block slot (no I/O charged; supports in-place accounting)."""
        arr = self.arrays[pe]
        disk, slot = arr.locate(lb)
        if slot not in arr.slots[disk]:
            raise DiskError(f"deallocate of unallocated block pe={pe} lb={lb}")
        del arr.slots[disk][slot]
        arr.allocated -= 1

    # -- uncounted paths (setup / verification only) ---------------------------

    def seed_block(self, pe: int, lb: int, block: list[Element]) -> None:
        if len(block) != self.cfg.B:
            raise DiskError(f"seed of {len(block)} elements; block size is {self.cfg.B}")
        arr = self.arrays[pe]
        disk, slot = arr.locate(lb)
        if slot not in arr.slots[disk]:
            arr.allocated += 1
            arr._bump()
        arr.note_slot(lb)
        arr.slots[disk][slot] = list(block)

    def peek_block(self, pe: int, lb: int) -> list[Element]:
        arr = self.arrays[pe]
        disk, slot = arr.locate(lb)
        try:
            return list(arr.slots[disk][slot])
        except KeyError:
            raise DiskError(f"peek of unallocated block pe={pe} lb={lb}") from None

    def is_allocated(self, pe: int, lb: int) -> bool:
        arr = self.arrays[pe]
        disk, slot = arr.locate(lb)
        return slot in arr.slots[disk]

    # -- occupancy -----------------------------------------------------------

    def allocated_blocks(self, pe: int) -> int:
        return self.arrays[pe].allocated

    def peak_allocated(self, pe: int) -> int:
        return self.arrays[pe].peak_allocated

    def blocks_per_disk(self, pe: int) -> list[int]:
        return [len(s) for s in self.arrays[pe].slots]

    def total_elements(self, drop_sentinels: bool = True) -> int:
        """Count elements currently stored on all disks."""
        from .core import is_sentinel

        total = 0
        for arr in self.arrays:
            for slots in arr.slots:
                for block in slots.values():
                    if drop_sentinels:
                        total += sum(1 for e in block if not is_sentinel(e))
                    else:
                        total += len(block)
        return total

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
                    elems = [e for s in used for e in slots[s]]
                    image[used] = _encode_elements(elems, es).reshape(-1, B, es)
                image.tofile(path)

    @classmethod
    def load_images(cls, directory: str, cfg: MachineConfig) -> "Cluster":
        """Rebuild a cluster from the images :meth:`save_images` wrote; every
        slot is seeded, holes as blocks of ``(0, 0)``.  Raises
        :class:`DiskError` for a missing image or a partial block."""
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
                elems = _decode_elements(data.reshape(-1, es))
                for s in range(len(elems) // B):
                    cluster.seed_block(pe, s * cfg.D + d, elems[s * B:(s + 1) * B])
        return cluster


def _encode_elements(elems: list[Element], elem_size: int) -> np.ndarray:
    """``(len(elems), elem_size)`` image rows: the little-endian key, then a
    payload of ``elem_size - 8`` bytes holding the serial modulo
    ``2**(8*(elem_size-8))``, or all ``0xff`` when the serial is negative
    (a sentinel)."""
    try:
        keys, serials = element_columns(elems)
        wide = []
    except OverflowError:       # a serial loaded from an image need not fit int64
        wide = [(i, s) for i, (_k, s) in enumerate(elems) if not -2**63 <= s < 2**63]
        keys, serials = element_columns(
            [(k, s if -2**63 <= s < 2**63 else 0) for k, s in elems])
    rows = np.zeros((len(elems), max(elem_size, 16)), dtype=np.uint8)
    rows[:, :8] = keys.astype("<u8").view(np.uint8).reshape(-1, 8)
    rows[:, 8:16] = serials.astype("<i8").view(np.uint8).reshape(-1, 8)
    rows[serials < 0, 8:] = 0xFF
    payload = elem_size - 8
    for i, s in wide:
        rows[i, 8:elem_size] = 0xFF if s < 0 else np.frombuffer(
            (s % (1 << 8 * payload)).to_bytes(payload, "little"), np.uint8)
    return rows[:, :elem_size]


def _decode_elements(rows: np.ndarray) -> list[Element]:
    """Inverse of :func:`_encode_elements` on ``(n, elem_size)`` image rows:
    a ``MAX_KEY`` key with an all-``0xff`` payload is a sentinel, any other
    payload is the serial, little-endian."""
    n, elem_size = rows.shape
    keys = np.ascontiguousarray(rows[:, :8]).view("<u8")[:, 0]
    low = np.zeros((n, 8), dtype=np.uint8)
    low[:, :elem_size - 8] = rows[:, 8:16]
    elems = list(zip(keys.tolist(), low.view("<u8")[:, 0].tolist()))
    for i in np.flatnonzero(rows[:, 16:].any(axis=1)).tolist():
        elems[i] = (elems[i][0], int.from_bytes(rows[i, 8:].tobytes(), "little"))
    for i in np.flatnonzero((keys == MAX_KEY) & (rows[:, 8:] == 0xFF).all(axis=1)).tolist():
        elems[i] = sentinel()
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
