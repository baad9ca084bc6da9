"""The byte format of a persisted disk image.

An image holds one disk's live blocks in slot order: the block count ``n``
and the ``n`` slots, strictly increasing, as little-endian ``int64``, then
the blocks' ``n * B`` rows of ``elem_size`` bytes (:func:`encode_elements`).
Its name, :data:`IMAGE`, carries the generation of the store it belongs to.
"""
from __future__ import annotations

import os
import re

import numpy as np

from .core import ELEM, MAX_KEY, SENTINEL_SERIAL, DiskError, sentinel_mask

#: The image of disk ``d`` of ``pe`` in store generation ``generation``;
#: :data:`IMAGE_NAME` matches every image name, its group the generation.
IMAGE = "pe{pe}_disk{d}.g{generation}.bin"
IMAGE_NAME = re.compile(r"pe\d+_disk\d+\.g(\d+)\.bin")


def file_size(path: str, what: str) -> int:
    """The size of the file at ``path``; :class:`DiskError` if it is
    missing, naming it as the ``what``."""
    try:
        return os.path.getsize(path)
    except FileNotFoundError:
        raise DiskError(f"{path}: {what} is missing") from None


def read_slots(fh, path: str, size: int, width: int,
               limit: int) -> np.ndarray:
    """The slot column of the image open in ``fh``, left at its first row;
    raises :class:`DiskError` unless its ``size`` bytes are exactly a count
    ``n >= 0``, ``n`` slots rising strictly from 0 to below ``limit``, and
    ``n`` rows of ``width`` bytes."""
    count = np.zeros(1, "<i8")
    if fh.readinto(count) != 8:
        raise DiskError(f"{path}: {size} bytes hold no block count")
    n = int(count[0])
    need = 8 + n * (8 + width)
    if n < 0:
        raise DiskError(f"{path}: negative block count {n}")
    if size != need:
        raise DiskError(f"{path}: {n} blocks need {need} bytes, the image "
                        f"has {size}" if size < need else
                        f"{path}: {size - need} bytes past its {n} blocks")
    slots = np.empty(n, "<i8")
    fh.readinto(slots)
    bad = np.flatnonzero((np.diff(slots, prepend=-1) <= 0) | (slots >= limit))
    if bad.size:
        i = bad[0]
        raise DiskError(f"{path}: slot {i} is {slots[i]}; slots must increase "
                        f"strictly from 0 up to below {limit}")
    return slots


def encode_elements(elems: np.ndarray, elem_size: int) -> np.ndarray:
    """``(len(elems), elem_size)`` image rows: the little-endian key, then a
    payload of ``elem_size - 8`` bytes holding the serial's low bytes (two's
    complement, zero-filled past the eighth), or all ``0xff`` for a
    sentinel."""
    rows = np.zeros((len(elems), max(elem_size, 16)), dtype=np.uint8)
    rows[:, :16] = np.ascontiguousarray(elems).view(np.uint8).reshape(-1, 16)
    rows[sentinel_mask(elems), 16:] = 0xFF
    return rows[:, :elem_size]


def decode_elements(rows: np.ndarray, path: str) -> np.ndarray:
    """The elements of ``(n, elem_size)`` image rows: a ``MAX_KEY`` key with
    an all-``0xff`` payload is a sentinel, any other payload's first eight
    bytes are the serial, little-endian.  Inverse of
    :func:`encode_elements` on every row that it can write; raises
    :class:`DiskError` naming ``path`` and the first row it cannot, one
    whose bytes past the 16th are not all ``0xff`` for a sentinel and all
    zero otherwise.  Decoding keeps every byte of a narrower row."""
    n, elem_size = rows.shape
    raw = np.zeros((n, 16), dtype=np.uint8)
    raw[:, :min(elem_size, 16)] = rows[:, :16]
    elems = raw.view(ELEM)[:, 0]
    sentinel = (elems["key"] == MAX_KEY) & (rows[:, 8:] == 0xFF).all(axis=1)
    elems["serial"][sentinel] = SENTINEL_SERIAL
    tails, sentinels = rows[:, ELEM.itemsize:], sentinel_mask(elems)
    bad = np.flatnonzero(np.where(
        sentinels, (tails != 0xFF).any(axis=1), tails.any(axis=1)))
    if bad.size:
        i = bad[0]
        why = ("reads as a sentinel but its payload is not all 0xff"
               if sentinels[i] else "has payload bytes past the 8-byte serial")
        raise DiskError(f"{path}: row {i} {why}")
    return elems
