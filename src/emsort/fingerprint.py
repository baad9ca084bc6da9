"""The order-independent content fingerprint that verification checks an
output against: every input is hashed when it is generated or loaded, and
every output when it is verified.

:func:`checksum128` hashes its columns in chunks of
:data:`FINGERPRINT_CHUNK` elements through three scratch columns allocated
once per call, with the splitmix64 finalizer applied in place: a call
holds no temporary of its input's length, and its sums are exact at any
length.
"""
from __future__ import annotations

import numpy as np

#: Elements :func:`checksum128` hashes at a time.
FINGERPRINT_CHUNK = 1 << 14


def _mix(x: np.ndarray, z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``z`` set to the splitmix64 finalizer of every entry of ``x`` (the
    scalar ``core._splitmix64``) in wrapping ``uint64`` arithmetic, in
    place; ``t`` is scratch of ``z``'s length."""
    np.add(x, 0x9E3779B97F4A7C15, out=z)
    z ^= np.right_shift(z, 30, out=t)
    z *= 0xBF58476D1CE4E5B9
    z ^= np.right_shift(z, 27, out=t)
    z *= 0x94D049BB133111EB
    z ^= np.right_shift(z, 31, out=t)
    return z


def _words(column, dtype) -> np.ndarray:
    """``column`` as ``uint64`` words: a view of an array of 64-bit
    integers, strided or not, else its conversion to ``dtype``."""
    if not (isinstance(column, np.ndarray)
            and column.dtype in (np.int64, np.uint64)):
        column = np.asarray(column, dtype)
    return column.view(np.uint64)


def checksum128(keys, serials) -> tuple[int, int]:
    """Order-independent fingerprint of the elements ``zip(keys, serials)``:
    (count, sum of mixed hashes mod 2**128).

    An element hashes to ``sm(key) ^ (sm(serial mod 2**64) << 64)
    ^ (sm(key ^ C) << 32)`` with ``sm`` the splitmix64 finalizer: a low and
    a high 64-bit word.  Equal multisets of elements produce equal
    fingerprints regardless of arrangement; a single changed key or payload
    changes the sum.

    A chunk's high words are only needed mod 2**64, since they are shifted
    by 64 in a sum mod 2**128, so one wrapping sum takes them.  Its low
    words are summed exactly, from their wrapping sum and the sum of their
    high halves: the low halves of at most 2**32 words sum below 2**64.
    """
    keys, serials = _words(keys, np.uint64), _words(serials, np.int64)
    n = len(keys)
    scratch = np.empty((3, min(n, FINGERPRINT_CHUNK)), np.uint64)
    low = high = 0
    for i in range(0, n, FINGERPRINT_CHUNK):
        key = keys[i:i + FINGERPRINT_CHUNK]
        a, z, t = scratch[:, :len(key)]
        mix = _mix(np.bitwise_xor(key, 0xD6E8FEB86659FD93, out=a), a, t)
        z = _mix(key, z, t)
        z ^= np.left_shift(mix, 32, out=t)          # the low words
        wrapped = int(z.sum())
        halves = int(np.right_shift(z, 32, out=t).sum()) << 32
        low += halves + ((wrapped - halves) & 0xFFFFFFFFFFFFFFFF)
        z = _mix(serials[i:i + FINGERPRINT_CHUNK], z, t)
        z ^= np.right_shift(mix, 32, out=mix)       # the high words
        high += int(z.sum())
    return n, (low + (high << 64)) & ((1 << 128) - 1)
