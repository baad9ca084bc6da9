"""Shared types for the sorting-cluster simulator: elements, machine
configuration, and per-phase I/O / communication counters.

An element is a record of :data:`ELEM`: an unsigned 64-bit sort ``key`` and
a signed 64-bit ``serial``, an opaque payload stand-in.  Its 16 bytes are
also the row of a persisted disk image, so ``elem_size`` has the one value
16.  Blocks and every other run of elements are numpy arrays of that one
dtype; ``.tolist()`` gives ``(key, serial)`` tuples.  The key 2**64 - 1
with serial -1 is reserved for sentinel padding; generators never emit
that key as a data key.

Within one merge or selection instance the full order on elements is the
lexicographic order on ``(key, origin_run, origin_position)``, which is total
because no two elements share an origin; selection compares those triples as
plain tuples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

#: The element record; every block is a read-only array of ``B`` of them.
ELEM = np.dtype([("key", "<u8"), ("serial", "<i8")])

#: An element as one raw 16-byte row.  numpy copies a row whole where it
#: copies an element field by field, and moves an overlapping slice of
#: rows left in place, where a slice of elements goes through a temporary.
ROW = np.dtype((np.void, ELEM.itemsize))

MAX_KEY = (1 << 64) - 1
#: First component of a conceptual +infinity order key; compares above every
#: element key including stored sentinels.
INF_KEY = 1 << 64

SENTINEL_SERIAL = -1

#: A phase is the first index of every counter array; ``PHASE_NAMES[phase]``
#: is the name that reports print for it.
PHASE_NAMES = ("setup", "run_formation", "selection", "all_to_all",
               "local_merge", "striped_merge")
(PHASE_SETUP, PHASE_RUN_FORMATION, PHASE_SELECTION, PHASE_ALL_TO_ALL,
 PHASE_LOCAL_MERGE, PHASE_STRIPED_MERGE) = range(len(PHASE_NAMES))


def refuse_phase(phase: int) -> None:
    """Raise :class:`IndexError` for a negative phase, which numpy would
    count from the end of a counter array; indexing with the phase
    refuses one past the last."""
    if phase < 0:
        raise IndexError(f"phase {phase} is not in [0, {len(PHASE_NAMES)})")


#: Phases that belong to the engines proper.  ``setup`` covers input
#: materialization and is excluded from engine I/O totals.
ENGINE_PHASES = (
    PHASE_RUN_FORMATION,
    PHASE_SELECTION,
    PHASE_ALL_TO_ALL,
    PHASE_LOCAL_MERGE,
    PHASE_STRIPED_MERGE,
)

#: Phases moving payload data in the canonical engine; selection probes are
#: reported separately so the 4N identity can be stated crisply.
DATA_PHASES = (
    PHASE_RUN_FORMATION,
    PHASE_ALL_TO_ALL,
    PHASE_LOCAL_MERGE,
    PHASE_STRIPED_MERGE,
)

RNG_NAME = "pcg64"


def sentinels(n: int) -> np.ndarray:
    """An array of ``n`` sentinel elements."""
    return np.full(n, np.array((MAX_KEY, SENTINEL_SERIAL), ELEM))


def sentinel_mask(elems: np.ndarray) -> np.ndarray:
    """Which entries of an element array are sentinels."""
    return (elems["key"] == MAX_KEY) & (elems["serial"] == SENTINEL_SERIAL)


def rows_increase(keys: np.ndarray) -> bool:
    """Whether every row of ``keys`` strictly increases; 16 keys of each
    row first, so that most rows out of order cost no whole pass."""
    return all((r[..., 1:] > r[..., :-1]).all() for r in (keys[..., :16], keys))


def sort_order(keys: np.ndarray, ties: np.ndarray, out=None,
               words=None) -> np.ndarray:
    """The permutation that sorts each row of ``keys`` by key, equal keys
    by ``ties``, as indices into the flattened array, row after row: for
    one row exactly ``np.lexsort((ties, keys))``.  ``keys`` is one row
    ``(n,)`` or rows ``(w, n)`` of ``uint64``, and ``ties`` is an
    ``int64`` array of its shape.  The order is written into ``out`` and
    ``out`` returned; ``out`` and ``words``, the scratch of the packed
    words below, are ``int64`` columns of ``keys.size`` entries, fresh
    ones when not given.  The flat index is filled into ``out`` in place
    (:func:`_fill_index`), so a given ``out`` needs no temporary as long.

    Rows whose keys already strictly increase need no sort.  Otherwise each
    element becomes one ``int64`` word (row, key − min, tie − min, flat
    index), high bits to low, and one SIMD value sort of the words, which
    are distinct, puts the indices in ``lexsort``'s order; the row in the
    high bits keeps every row apart.  When key and tie spans do not both
    fit beside the row and the index, the word keeps the key's high bits
    and no tie, and only the elements whose (row, high bits) equal a
    neighbour's are sorted again, by a second value sort of (collision
    group, low key bits, tie − min, position) or, when that does not fit
    either, by ``lexsort`` on those elements alone.
    """
    size = keys.size
    order = _fill_index(np.empty(size, np.int64) if out is None else out)
    if rows_increase(keys):
        return order
    shift = (size - 1).bit_length()     # the flat index, in the low bits
    room = 63 - shift - (size // keys.shape[-1] - 1).bit_length()
    lo = keys.min()
    key_bits = int(keys.max() - lo).bit_length()
    if narrow := key_bits <= room:      # else no tie span can fit: unread
        tlo = int(ties.min())
        tie_bits = (int(ties.max()) - tlo).bit_length()
        narrow = key_bits + tie_bits <= room
    cut = 0 if narrow else max(0, key_bits - room)  # key bits left out
    words = np.empty(size, np.int64) if words is None else words
    high = words.view(np.uint64)
    np.subtract(keys, lo, out=high.reshape(keys.shape))
    high >>= cut
    words <<= shift + tie_bits if narrow else shift
    order |= words
    if narrow:
        np.subtract(ties, tlo, out=words.reshape(ties.shape))
        words <<= shift
        order |= words
    if keys.ndim > 1 and len(keys) > 1:
        order.reshape(len(keys), -1)[...] |= (
            np.arange(len(keys))[:, None] << shift + room)
    order.sort()
    if narrow:
        order &= (1 << shift) - 1
        return order
    np.right_shift(order, shift, out=words)  # (row, high key bits)
    order &= (1 << shift) - 1
    _sort_collisions(order, words, keys.reshape(-1), ties.reshape(-1),
                     int(lo), cut)
    return order


def _fill_index(out: np.ndarray) -> np.ndarray:
    """``out`` holding ``0, 1, ..., len(out) - 1``: its first ``2**12``
    entries from ``np.arange``, then each filled prefix plus its length
    written after it, about ``log2(len(out) / 2**12)`` adds with no
    temporary longer than ``2**12``, whatever the length's factors."""
    size = len(out)
    k = min(size, 1 << 12)
    out[:k] = np.arange(k)
    while k < size:
        c = min(k, size - k)
        np.add(out[:c], k, out=out[k:k + c])
        k += c
    return out


def _sort_collisions(order: np.ndarray, high: np.ndarray, keys: np.ndarray,
                     ties: np.ndarray, lo: int, cut: int) -> None:
    """Put in order, in place, each run of sorted positions of ``order``
    whose ``high`` words are equal, by (low ``cut`` bits of key − ``lo``,
    tie), equal pairs by position; ``high`` is spent.  The elements of a
    run are in index order, so the position keeps ``lexsort``'s
    stability."""
    size = len(order)
    tied = np.zeros(size + 1, bool)         # position p - 1 ties with p
    np.equal(high[1:], high[:-1], out=tied[1:-1])
    if not tied.any():
        return
    at = np.flatnonzero(tied[:-1] | tied[1:])
    index = order[at]
    low = keys[index] - np.uint64(lo)
    low &= np.uint64((1 << cut) - 1)
    tie = ties[index]
    del index
    tlo = int(tie.min())
    tie_bits = (int(tie.max()) - tlo).bit_length()
    shift = (size - 1).bit_length()
    word = high[:len(at)]
    np.cumsum(~tied[at], out=word)          # collision group
    if int(word[-1]).bit_length() + cut + tie_bits + shift > 63:
        order[at] = order[at[np.lexsort((tie, low, word))]]
        return
    word <<= cut
    word |= low.view(np.int64)
    word <<= tie_bits
    tie -= tlo
    word |= tie
    word <<= shift
    word |= at
    word.sort()
    word &= (1 << shift) - 1
    order[at] = order[word]


@dataclass(frozen=True)
class MachineConfig:
    """Cluster shape and problem size.

    P  -- number of processing elements (PEs)
    D  -- disks per PE
    B  -- block size in elements
    m  -- internal memory per PE in elements
    N  -- total number of elements (after padding to a multiple of B*P)
    """

    P: int
    D: int
    B: int
    m: int
    N: int
    seed: int = 0
    randomize: bool = True
    elem_size: int = 16

    def __post_init__(self) -> None:
        for f in fields(self):      # ``f.type`` is the annotation's text
            value = getattr(self, f.name)
            if type(value).__name__ != f.type:
                raise TypeError(f"{f.name} must be {f.type}, got {value!r}")

    @property
    def M(self) -> int:
        return self.P * self.m

    @property
    def R(self) -> int:
        return 0 if self.N == 0 else math.ceil(self.N / self.M)

    @property
    def total_disks(self) -> int:
        return self.P * self.D

    @property
    def blocks_per_pe(self) -> int:
        return self.N // (self.P * self.B) if self.P and self.B else 0

    @property
    def merge_arity(self) -> int:
        """Maximum runs merged per striped pass: half the global memory in
        blocks, the other half being reserved for write buffers and
        per-run leftovers."""
        return self.M // (2 * self.B) if self.B else 0

    def striped_passes(self) -> int:
        if self.R <= 1:
            return 0
        a = self.merge_arity
        if a < 2:
            raise ValueError("merge arity < 2; striped engine infeasible")
        passes = 0
        runs = self.R
        while runs > 1:
            runs = math.ceil(runs / a)
            passes += 1
        return passes


def validate_config(cfg: MachineConfig, engine: str = "canonical") -> list[str]:
    """Return a list of violated constraints (empty when the config is usable).

    The canonical engine additionally needs one buffer block per run during
    the final local merge, hence R*B <= m.  The striped engine instead needs
    a merge arity of at least 2 whenever more than one run exists.  Every
    engine needs ``elem_size`` to be the 16 bytes of :data:`ELEM`, the only
    row a persisted image holds.
    """
    bad: list[str] = []
    if cfg.P < 1:
        bad.append("P < 1")
    if cfg.D < 1:
        bad.append("D < 1")
    if cfg.B < 1:
        bad.append("B < 1")
    if cfg.m < cfg.B:
        bad.append("m < B")
    if cfg.N < 0:
        bad.append("N < 0")
    if cfg.elem_size != ELEM.itemsize:
        bad.append(f"elem_size != {ELEM.itemsize}")
    if cfg.m and cfg.B and cfg.m % cfg.B != 0:
        bad.append("m % B != 0")
    if cfg.P and cfg.B and cfg.N % (cfg.B * cfg.P) != 0:
        bad.append("N % (B*P) != 0")
    if engine == "canonical":
        if cfg.B and cfg.M and cfg.R * cfg.B > cfg.m:
            bad.append("R*B > m")
        # An all-to-all round carries up to m - B elements per PE beside one
        # working block, which needs m >= 2B once P >= 2; P*B <= m covers it.
        if cfg.B and cfg.m and cfg.P * cfg.B > cfg.m:
            bad.append("P*B > m")
    elif engine == "striped":
        if cfg.M and cfg.R > 1 and cfg.merge_arity < 2:
            bad.append("merge arity < 2")
    else:
        bad.append(f"unknown engine {engine!r}")
    return bad


_BOOL_WORDS = {"on": True, "true": True, "1": True, "yes": True,
               "off": False, "false": False, "0": False, "no": False}

def parse_config_text(text: str) -> dict[str, object]:
    """Parse ``key=value`` lines into a MachineConfig field dict.

    Blank lines and ``#`` comments are ignored; keys must be MachineConfig
    field names, and each value is read as that field's type.
    """
    types = {f.name: f.type for f in fields(MachineConfig)}
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if types[key] == "bool":
            try:
                out[key] = _BOOL_WORDS[value.lower()]
            except KeyError:
                raise ValueError(f"line {lineno}: bad boolean {value!r}") from None
        else:
            try:
                out[key] = int(value)
            except ValueError:
                raise ValueError(f"line {lineno}: {key} must be an integer, "
                                 f"got {value!r}") from None
    return out


def load_config(path: str, overrides: dict[str, object] | None = None) -> MachineConfig:
    with open(path, "r", encoding="utf-8") as fh:
        values = parse_config_text(fh.read())
    if overrides:
        values.update(overrides)
    return MachineConfig(**values)  # type: ignore[arg-type]


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def derive_seed(seed: int, *tags: int) -> int:
    """Stable per-purpose sub-seed derivation."""
    x = seed & 0xFFFFFFFFFFFFFFFF
    for t in tags:
        x = _splitmix64(x ^ (t & 0xFFFFFFFFFFFFFFFF))
    return x


class DiskError(Exception):
    """A bad block access or disk image."""


#: Second indices of :attr:`PhaseCounters.blocks` and
#: :attr:`PhaseCounters.traffic`.
READ, WRITE = 0, 1
SENT, RECEIVED, CONTROL = 0, 1, 2


class PhaseCounters:
    """Exact per-phase accounting: four ``int64`` arrays, each indexed
    first by phase (``PHASE_*``).

    ``blocks[phase, READ | WRITE, disk, pe]`` counts block I/O per disk,
    in the layout of the cluster's disk cells ``disk * P + pe``;
    ``traffic[phase, SENT | RECEIVED | CONTROL, pe]`` counts elements sent
    and received and control values received; ``steps[phase]`` counts
    parallel I/O steps; ``overhead[phase]`` tallies instrumented overhead
    elements (sentinel padding, partial-block waste, boundary re-reads)
    used by the accounting identities."""

    def __init__(self, P: int, D: int):
        n = len(PHASE_NAMES)
        self.blocks = np.zeros((n, 2, D, P), np.int64)
        self.traffic = np.zeros((n, 3, P), np.int64)
        self.steps = np.zeros(n, np.int64)
        self.overhead = np.zeros(n, np.int64)

    def element_io(self, B: int, phases=ENGINE_PHASES) -> int:
        """Elements read and written in ``phases``, ``B`` per block."""
        return B * int(self.blocks[list(phases)].sum())
