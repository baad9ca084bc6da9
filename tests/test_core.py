"""Configuration, element encoding, fingerprints, and phase counters."""
from __future__ import annotations

import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from emsort.core import (
    CONTROL, DATA_PHASES, ELEM, INF_KEY, MAX_KEY, MachineConfig,
    PHASE_ALL_TO_ALL, PHASE_LOCAL_MERGE, PHASE_NAMES, PHASE_RUN_FORMATION,
    PHASE_SELECTION, PHASE_SETUP, READ, RECEIVED, SENT, SENTINEL_SERIAL, WRITE,
    PhaseCounters, derive_seed, parse_config_text, sentinel_mask, sentinels,
    sort_order, validate_config,
)
from emsort.fingerprint import FINGERPRINT_CHUNK, checksum128
from emsort.net import charge_volume, gather_splitters
from emsort.vdisk import Cluster

from helpers import (
    ALL_PHASES, ReferenceCluster, checksum128 as scalar_checksum128,
    counter_state, element_from_bytes, element_to_bytes,
    elements as element_array, on, sentinel,
)

elements = st.tuples(st.integers(0, MAX_KEY - 1), st.integers(0, 2**63 - 1))


def test_sentinel_is_recognized_and_maximal():
    s = sentinel()
    assert sentinels(2).tolist() == [s, s]
    assert sentinel_mask(element_array([s, (MAX_KEY, 0), (0, -1)])).tolist() == [
        True, False, False]
    assert s[0] == MAX_KEY
    assert INF_KEY > MAX_KEY


def test_machine_config_derived_quantities():
    cfg = MachineConfig(P=4, D=2, B=16, m=256, N=8192)
    assert cfg.M == 1024
    assert cfg.R == 8
    assert cfg.total_disks == 8
    assert cfg.blocks_per_pe == 128
    assert cfg.merge_arity == 32
    assert MachineConfig(P=1, D=1, B=1, m=1, N=0).R == 0


@pytest.mark.parametrize("field, value, reason", [
    ("P", "2", "P must be int, got '2'"),
    ("N", np.int64(8), f"N must be int, got {np.int64(8)!r}"),
    ("B", 1.0, "B must be int, got 1.0"),
    ("elem_size", False, "elem_size must be int, got False"),
    ("randomize", 1, "randomize must be bool, got 1"),
])
def test_machine_config_refuses_a_value_of_the_wrong_type(field, value, reason):
    with pytest.raises(TypeError) as refusal:
        MachineConfig(**{**dict(P=2, D=2, B=4, m=32, N=64), field: value})
    assert str(refusal.value) == reason


def test_striped_passes_counts():
    cfg = MachineConfig(P=2, D=2, B=4, m=32, N=256)     # R=4, arity=8
    assert cfg.striped_passes() == 1
    cfg = MachineConfig(P=2, D=2, B=4, m=32, N=1024)    # R=16, arity=8
    assert cfg.striped_passes() == 2
    cfg = MachineConfig(P=2, D=2, B=4, m=32, N=64)      # R=1
    assert cfg.striped_passes() == 0


def test_validate_config_accepts_grid_point():
    cfg = MachineConfig(P=4, D=2, B=16, m=256, N=8192)
    assert validate_config(cfg, "canonical") == []
    assert validate_config(cfg, "striped") == []


@pytest.mark.parametrize("fields,expected", [
    (dict(P=0, D=2, B=4, m=32, N=0), "P < 1"),
    (dict(P=2, D=0, B=4, m=32, N=0), "D < 1"),
    (dict(P=2, D=2, B=4, m=2, N=0), "m < B"),
    (dict(P=2, D=2, B=4, m=30, N=0), "m % B != 0"),
    (dict(P=2, D=2, B=4, m=32, N=100), "N % (B*P) != 0"),
    (dict(P=2, D=2, B=4, m=32, N=2048), "R*B > m"),
    (dict(P=8, D=2, B=64, m=256, N=0), "P*B > m"),
])
def test_validate_config_flags_violations(fields, expected):
    assert expected in validate_config(MachineConfig(**fields), "canonical")


def test_validate_config_striped_needs_arity_two():
    cfg = MachineConfig(P=1, D=2, B=16, m=16, N=64)     # R=4, arity=0
    assert "merge arity < 2" in validate_config(cfg, "striped")
    assert validate_config(cfg, "bogus") == ["unknown engine 'bogus'"]


def test_parse_config_text_round_trip():
    text = """
    # cluster shape
    P = 4
    D = 2
    B = 16     # elements
    m = 256
    N = 8192
    randomize = off
    seed = 42
    """
    values = parse_config_text(text)
    cfg = MachineConfig(**values)
    assert (cfg.P, cfg.D, cfg.B, cfg.m, cfg.N) == (4, 2, 16, 256, 8192)
    assert cfg.randomize is False and cfg.seed == 42


@pytest.mark.parametrize("line", ["bogus", "Q=4", "randomize=maybe", "P=four"])
def test_parse_config_text_rejects_bad_lines(line):
    with pytest.raises(ValueError):
        parse_config_text(line)


def test_element_byte_round_trip():
    for elem in [(0, 0), (MAX_KEY - 1, 12345), (7, 2**63 - 1), sentinel()]:
        data = element_to_bytes(elem)
        assert len(data) == 16
        assert element_from_bytes(data) == elem


def test_derive_seed_is_stable_and_spreads():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    seen = {derive_seed(9, tag) for tag in range(1000)}
    assert len(seen) == 1000
    assert derive_seed(9, 1, 2) != derive_seed(9, 2, 1)


#: Sort keys, the extremes often; ties, duplicates and the sentinel serial
#: often.
sort_keys = st.one_of(st.sampled_from([0, 1, MAX_KEY - 1, MAX_KEY]),
                      st.integers(0, MAX_KEY))
sort_ties = st.one_of(st.just(SENTINEL_SERIAL), st.integers(0, 3),
                      st.integers(-2**63, 2**63 - 1))


@st.composite
def sort_inputs(draw):
    """Keys of one shape, and as many ties."""
    shape = draw(st.sampled_from(["empty", "one", "increasing", "nondecreasing",
                                  "equal", "few", "distinct", "random"]))
    n = {"empty": 0, "one": 1}.get(shape, draw(st.integers(2, 40)))
    if shape in ("increasing", "distinct"):
        keys = sorted(draw(st.sets(sort_keys, min_size=n, max_size=n)))
        if shape == "distinct":
            keys = draw(st.permutations(keys))
    elif shape == "equal":
        keys = [draw(sort_keys)] * n
    elif shape in ("nondecreasing", "few"):
        pool = draw(st.lists(sort_keys, min_size=1, max_size=3))
        keys = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        if shape == "nondecreasing":
            keys = sorted(keys)
    else:
        keys = draw(st.lists(sort_keys, min_size=n, max_size=n))
    ties = draw(st.lists(sort_ties, min_size=n, max_size=n))
    return np.array(keys, np.uint64), np.array(ties, np.int64)


def keys_ties(keys, ties):
    return np.array(keys, np.uint64), np.array(ties, np.int64)


def sorted_by(keys, ties, buffers: bool) -> np.ndarray:
    """``sort_order(keys, ties)``, into columns of the caller's holding
    stale words when ``buffers``; those columns must carry the order."""
    if not buffers:
        return sort_order(keys, ties)
    out, words = (np.full(keys.size, -7, np.int64) for _ in range(2))
    got = sort_order(keys, ties, out, words)
    assert got is out
    return got


BUFFERS = pytest.mark.parametrize("buffers", [False, True],
                                  ids=["fresh", "given"])


# One example per path of ``sort_order``.
@BUFFERS
@given(sort_inputs())
@example(keys_ties([], []))                                 # empty
@example(keys_ties([1, 5, 9, 2**64 - 1], [3, 2, 1, 0]))     # strictly increasing
@example(keys_ties([5, 1, 9, 3, 0], [0, 0, 0, 0, 0]))       # narrow: distinct keys
@example(keys_ties([2, 1, 2, 1, 2, 2], [5, -3, 1, 7, 0, -2**40]))  # narrow: ties
@example(keys_ties([1, 1, 2, 2], [5, 3, 9, -9]))  # nondecreasing, ties unsorted
@example(keys_ties([3, 3, 1, 3, 1] * 8, [0, 0, 4, 0, 4] * 8))  # repeated pairs
@example(keys_ties([1, 0, 1, 0],
                   [2**59 - 1, -2**59, -2**59, 2**59 - 1]))  # widest narrow word
@example(keys_ties([1, 0, 1, 0, 1], [2**63 - 1, 2**63 - 2, 2**63 - 3,
                                     2**63 - 1, 2**63 - 5]))  # ties near 2**63
@example(keys_ties([1, 0, 1, 0],
                   [2**61 + 3, 2**61 - 3, 2**61 - 3, 2**61 + 3]))  # near 2**61
@example(keys_ties([1, 0, 1, 0],
                   [2**59, -2**59, -2**59, 2**59]))  # one bit past: equal keys
@example(keys_ties([2**64 - 1, 0, 2**63, 2**40],
                   [0, 0, 0, 0]))               # wide keys, high bits distinct
@example(keys_ties([2, 1, 2, 0, 2**64 - 1],
                   [5, 3, 1, 0, 0]))            # high bits collide: value sort
@example(keys_ties([2, 1, 2, 0, 2**64 - 1],
                   [2**63 - 1, -2**63, 0, 5, 0]))  # collided, ties ~2**64: lexsort
@example(keys_ties([1, 1, 0, 1, 0],
                   [2**63 - 1, -2**63, 0, -2**63 + 1, -1]))  # lexsort, span ~2**64
def test_sort_order_is_lexsort(buffers, drawn):
    keys, ties = drawn
    got = sorted_by(keys, ties, buffers)
    assert got.dtype == np.intp
    assert got.tolist() == np.lexsort((ties, keys)).tolist()


def seeded_randoms(n: int) -> list[random.Random]:
    return [random.Random(seed) for seed in range(n)]


@BUFFERS
@given(sort_inputs(), st.lists(st.randoms(use_true_random=False),
                              min_size=1, max_size=4))
@example(keys_ties([], []), seeded_randoms(3))                      # empty
@example(keys_ties([5, 1, 9, 3, 0, 3], [0, 0, 0, 1, 0, 1]),
         seeded_randoms(3))                 # narrow
@example(keys_ties([2**64 - 1, 0, 2**63, 2**40], [0, 1, 2, 3]),
         seeded_randoms(4))                 # wide keys, high bits distinct
@example(keys_ties([2, 1, 2, 0, 2**64 - 1], [5, 3, 1, 0, 0]),
         seeded_randoms(3))                 # high bits collide in each row
@example(keys_ties([2, 1, 2, 0, 2**64 - 1], [2**63 - 1, -2**63, 0, 5, 0]),
         seeded_randoms(2))                 # collided, ties ~2**64: lexsort
def test_sort_order_sorts_each_row_as_lexsort(buffers, drawn, shufflers):
    """Rows holding the same keys and ties in other orders: each row's
    part of the order is that row's ``lexsort``, shifted to its place in
    the flattened rows, so no run of equal keys crosses a row."""
    keys, ties = drawn
    rows = []
    for rnd in shufflers:
        perm = list(range(len(keys)))
        rnd.shuffle(perm)
        rows.append(perm)
    rows = np.array(rows, np.intp).reshape(len(shufflers), len(keys))
    got = sorted_by(keys[rows], ties[rows], buffers)
    assert got.dtype == np.intp
    n = len(keys)
    assert got.tolist() == [j * n + i for j, row in enumerate(rows)
                            for i in np.lexsort((ties[row], keys[row])).tolist()]


@BUFFERS
def test_sort_order_sorts_a_band_and_an_outlier_without_lexsort(buffers,
                                                                monkeypatch):
    """Keys in a narrow band plus one far outlier collide in their high
    bits; the second value sort, not ``lexsort``, puts them in order."""
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 2**20, 4097).astype(np.uint64)
    keys[1234] = 2**64 - 1
    ties = np.arange(len(keys))
    want = np.lexsort((ties, keys)).tolist()
    monkeypatch.setattr(np, "lexsort", mock.Mock(side_effect=AssertionError))
    assert sorted_by(keys, ties, buffers).tolist() == want


def fingerprint(tuples) -> tuple[int, int]:
    elems = element_array(tuples)
    return checksum128(elems["key"], elems["serial"])


@given(st.lists(elements, max_size=50), st.randoms())
def test_checksum128_is_order_independent(elems, rnd):
    shuffled = list(elems)
    rnd.shuffle(shuffled)
    assert fingerprint(elems) == fingerprint(shuffled)


@given(st.lists(elements, min_size=1, max_size=50), st.data())
def test_checksum128_detects_single_change(elems, data):
    idx = data.draw(st.integers(0, len(elems) - 1))
    key, serial = elems[idx]
    changed = list(elems)
    changed[idx] = ((key + 1) % MAX_KEY, serial)
    assert fingerprint(elems) != fingerprint(changed)


def test_checksum128_known_answer():
    """Pinned to the value of the scalar definition, one element at a time:
    h = sm(key) ^ (sm(serial mod 2**64) << 64) ^ (sm(key ^ C) << 32)."""
    elems = [(0, 0), (1, 7), (2**63, 1), (2**63 + 12345, 2**40 + 3),
             (MAX_KEY - 1, 2**63 - 1), (MAX_KEY, 0), sentinel()]
    assert fingerprint(elems) == (
        7, 0x4D522E59859C40B8767B19E2984B3A19)
    assert fingerprint([]) == (0, 0)


def drawn_elements(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    elems = np.empty(n, ELEM)
    elems["key"] = rng.integers(0, 2**64, n, dtype=np.uint64)
    elems["serial"] = rng.integers(-2**63, 2**63, n, dtype=np.int64)
    return elems


@pytest.mark.parametrize("n", [0, 1, FINGERPRINT_CHUNK - 1, FINGERPRINT_CHUNK,
                               FINGERPRINT_CHUNK + 1, 3 * FINGERPRINT_CHUNK + 5])
def test_checksum128_matches_the_scalar_fingerprint_at_chunk_edges(n):
    elems = drawn_elements(n, n)
    keys, serials = elems["key"].copy(), elems["serial"].copy()
    assert checksum128(keys, serials) == scalar_checksum128(elems.tolist())


def test_checksum128_is_exact_when_every_word_carries():
    """All-ones keys with serial -1: every element hashes to the same two
    words, so each chunk's wrapping sums overflow thousands of times."""
    n = 3 * FINGERPRINT_CHUNK + 5
    keys = np.full(n, MAX_KEY, np.uint64)
    serials = np.full(n, SENTINEL_SERIAL, np.int64)
    assert checksum128(keys, serials) == scalar_checksum128(
        [sentinel()] * n)


def test_checksum128_reads_strided_fields_lists_and_int64_keys():
    elems = drawn_elements(2 * FINGERPRINT_CHUNK + 3, 7)
    elems["key"][:100] >>= 1                   # some keys that fit int64
    want = scalar_checksum128(elems.tolist())
    assert checksum128(elems["key"], elems["serial"]) == want
    assert checksum128(elems["key"].tolist(), elems["serial"].tolist()) == want
    every_third = elems[::3]
    assert checksum128(every_third["key"], every_third["serial"]) == (
        scalar_checksum128(every_third.tolist()))
    head = elems[:100]
    assert checksum128(head["key"].astype(np.int64), head["serial"]) == (
        scalar_checksum128(head.tolist()))


@pytest.mark.parametrize("layout", ["columns", "fields"])
def test_checksum128_allocates_no_input_sized_temporary(layout):
    """One call on 2**18 elements (4 MB) peaks below 1 MB: its scratch is
    three chunk-sized columns whatever the input's length."""
    elems = drawn_elements(1 << 18, 3)
    keys, serials = ((elems["key"].copy(), elems["serial"].copy())
                     if layout == "columns" else (elems["key"], elems["serial"]))
    tracemalloc.start()
    try:
        checksum128(keys, serials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_phase_counters_aggregation():
    c = PhaseCounters(2, 2)
    rf, sel, a2a = PHASE_RUN_FORMATION, PHASE_SELECTION, PHASE_ALL_TO_ALL
    c.blocks[rf, READ, 0, 0] += 3          # [phase, rw, disk, pe]
    c.blocks[rf, READ, 1, 1] += 2
    c.blocks[rf, WRITE, 1, 0] += 5
    c.blocks[sel, READ, 0, 0] += 1
    c.blocks[a2a, WRITE, 0, 1] += 4
    c.blocks[PHASE_SETUP, WRITE, 1, 1] += 7
    assert c.blocks[rf, READ].sum() == 5
    assert c.blocks[rf, READ, :, 0].sum() == 3
    assert c.blocks[rf, WRITE].sum() == 5
    assert c.element_io(4, (PHASE_RUN_FORMATION,)) == 40
    assert c.element_io(4) == 4 * (5 + 5 + 1 + 4)
    assert c.element_io(4, DATA_PHASES) == 4 * (5 + 5 + 4)
    assert c.element_io(4, ALL_PHASES) == 4 * (5 + 5 + 1 + 4 + 7)
    assert c.blocks[rf, READ].T.tolist() == [[3, 0], [0, 2]]
    assert c.blocks[a2a, WRITE].T.tolist() == [[0, 0], [4, 0]]


def test_phase_counters_communication():
    c = PhaseCounters(2, 1)
    a2a, sel, lm = PHASE_ALL_TO_ALL, PHASE_SELECTION, PHASE_LOCAL_MERGE
    c.traffic[a2a, SENT, 0] += 10
    c.traffic[a2a, RECEIVED, 1] += 10
    c.traffic[sel, CONTROL, 0] += 6
    c.overhead[lm] += 3
    c.steps[a2a] += 2
    c.traffic[a2a, SENT, 0] += 99
    assert c.traffic[:, SENT].sum() == 109
    assert c.traffic[sel, SENT].sum() == 0
    assert c.traffic[a2a, RECEIVED].tolist() == [0, 10]
    assert c.traffic[sel, CONTROL].tolist() == [6, 0]
    assert c.overhead[lm] == 3
    assert c.steps[a2a] == 2
    n = len(ALL_PHASES)
    assert [(a.shape, a.dtype) for a in (c.blocks, c.traffic, c.steps,
                                         c.overhead)] == [
        ((n, 2, 1, 2), np.int64), ((n, 3, 2), np.int64), ((n,), np.int64),
        ((n,), np.int64)]
    assert list(ALL_PHASES) == list(range(n))
    assert PHASE_NAMES[PHASE_SELECTION] == "selection"


@st.composite
def charge_programs(draw):
    """A machine shape and calls that charge every counter: reads and
    writes of up to six blocks (often one) on one PE or several,
    moved-volume matrices, splitter gathers, steps and overhead."""
    P, D = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    calls = []
    for _ in range(draw(st.integers(1, 20))):
        kind = draw(st.sampled_from(["read", "write", "volume", "gather",
                                     "steps", "overhead"]))
        phase = draw(st.sampled_from(ALL_PHASES))
        if kind in ("read", "write"):
            lbs = draw(st.lists(st.integers(0, 7), min_size=1, max_size=6,
                                unique=True))
            pe = draw(st.integers(0, P - 1).map(
                lambda p: np.full(len(lbs), p, np.int64)) | st.lists(
                st.integers(0, P - 1), min_size=len(lbs),
                max_size=len(lbs)).map(lambda pes: np.array(pes, np.int64)))
            calls.append((kind, phase, pe, lbs))
        elif kind == "volume":
            calls.append((kind, phase, draw(st.lists(
                st.lists(st.integers(0, 50), min_size=P, max_size=P),
                min_size=P, max_size=P))))
        elif kind == "gather":
            calls.append((kind, phase, draw(
                st.lists(st.integers(0, 5), min_size=P, max_size=P))))
        else:
            calls.append((kind, phase, draw(st.integers(0, 9))))
    return MachineConfig(P=P, D=D, B=1, m=8, N=0), calls


@settings(max_examples=150, deadline=None)
@given(charge_programs())
def test_counter_arrays_match_the_list_counters(program):
    """After every charge, the four arrays hold what the list-based
    reference counters hold."""
    cfg, calls = program
    cl, ref = Cluster(cfg), ReferenceCluster(cfg)
    for store in (cl, ref):
        for pe in range(cfg.P):
            store.seed_blocks(*on(pe, list(range(8))),
                              [(pe, lb) for lb in range(8)])
    for kind, phase, *args in calls:
        if kind == "read":
            assert (cl.read_blocks(*args, phase).tolist()
                    == ref.read_blocks(*args, phase).tolist())
        elif kind == "write":
            elems = [(i, i) for i in range(len(args[1]))]
            cl.write_blocks(*args, elems, phase)
            ref.write_blocks(*args, elems, phase)
        elif kind == "volume":
            charge_volume(cl, args[0], phase)
            ref.counters.charge_volume(args[0], phase)
        elif kind == "gather":
            gather_splitters(cl, args[0], phase)
            ref.counters.gather_splitters(args[0], phase)
        elif kind == "steps":
            cl.counters.steps[phase] += args[0]
            ref.counters.add_steps(phase, args[0])
        else:
            cl.counters.overhead[phase] += args[0]
            ref.counters.add_overhead(phase, args[0])
        assert counter_state(cl) == counter_state(ref)
