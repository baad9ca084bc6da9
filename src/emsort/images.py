"""The byte format of a persisted disk image.

An image holds one disk's live blocks in slot order: the block count ``n``
and the ``n`` slots, strictly increasing, as little-endian ``int64``, then
the blocks' ``n * B`` rows, each the 16 bytes of an element
(:data:`~emsort.core.ELEM`: the key, then the serial, both little-endian).
Its name, :data:`IMAGE`, carries the generation of the store it belongs to.
"""
from __future__ import annotations

import os
import re

import numpy as np

from .core import DiskError

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
