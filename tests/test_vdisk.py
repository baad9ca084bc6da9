"""Virtual disk arrays: allocation, counted block-run I/O, occupancy,
persistence."""
from __future__ import annotations

import copy
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emsort.core import (
    ELEM, MAX_KEY, PHASE_NAMES, READ, WRITE, MachineConfig,
    PHASE_RUN_FORMATION, PHASE_SETUP, sentinel,
)
from emsort.vdisk import Cluster, DiskError, OutputLayout

from helpers import (
    ReferenceCluster, addresses, alloc_on_reference, alloc_reference, build,
    counter_state, element_from_bytes, elements, encode_block, image_bytes,
    int64_bytes, is_allocated, live_blocks, on,
)


def block_of(start: int, n: int) -> list[tuple[int, int]]:
    return [(start + i, start + i) for i in range(n)]


def test_write_read_round_trip_and_counters():
    cl = build(P=2, D=2, B=4)
    lbs = cl.alloc_blocks(0, 3)
    data = block_of(10, 12)
    cl.write_blocks(*on(0, lbs), data, PHASE_RUN_FORMATION)
    assert cl.read_blocks(*on(0, lbs), PHASE_RUN_FORMATION).tolist() == data
    assert cl.read_blocks(*on(0, lbs[::-1]), PHASE_RUN_FORMATION).tolist() == (
        data[8:] + data[4:8] + data[:4])
    assert cl.read_blocks(*on(0, []), PHASE_RUN_FORMATION).tolist() == []
    formation = cl.counters.blocks[PHASE_RUN_FORMATION]
    assert formation[WRITE, :, 0].tolist() == [2, 1]
    assert formation[READ, :, 0].tolist() == [4, 2]
    assert formation[READ, :, 1].sum() == 0


def charges(cl, call) -> list[tuple[int, int, int, int, int]]:
    """The block counts ``call`` adds, per (phase, read or write, pe,
    disk) that it touches."""
    before = cl.counters.blocks.copy()
    call()
    delta = cl.counters.blocks - before
    return [(ph, rw, pe, d, int(delta[ph, rw, d, pe]))
            for ph, rw, d, pe in np.argwhere(delta).tolist()]


def test_a_batch_charges_each_disk_once():
    cl = build(P=2, D=2, B=4)
    lbs = cl.alloc_blocks(1, 5)                    # disks 0, 1, 0, 1, 0
    assert charges(cl, lambda: cl.write_blocks(
        *on(1, lbs), block_of(0, 20), PHASE_RUN_FORMATION)) == [
        (PHASE_RUN_FORMATION, WRITE, 1, 0, 3),
        (PHASE_RUN_FORMATION, WRITE, 1, 1, 2)]
    assert charges(cl, lambda: cl.read_blocks(*on(1, lbs[1:]), PHASE_SETUP)) == [
        (PHASE_SETUP, READ, 1, 0, 2), (PHASE_SETUP, READ, 1, 1, 2)]
    assert charges(cl, lambda: cl.read_blocks(*on(1, lbs[3:4]), PHASE_SETUP)) == [
        (PHASE_SETUP, READ, 1, 1, 1)]
    assert charges(cl, lambda: cl.read_blocks(
        np.array([1, 1]), lbs[:2], PHASE_SETUP)) == [
        (PHASE_SETUP, READ, 1, 0, 1), (PHASE_SETUP, READ, 1, 1, 1)]


@pytest.mark.parametrize("n", [1, 3])
def test_read_returns_a_read_only_copy(n):
    cl = build()
    lbs = cl.alloc_blocks(0, n)
    data = elements(block_of(0, 4 * n))
    cl.write_blocks(*on(0, lbs), data, PHASE_RUN_FORMATION)
    data[0] = (999, 999)                  # the cluster stored its own copy
    got = cl.read_blocks(*on(0, lbs), PHASE_RUN_FORMATION)
    with pytest.raises(ValueError):
        got[0] = (999, 999)
    cl.write_blocks(*on(0, lbs), block_of(50, 4 * n), PHASE_RUN_FORMATION)
    assert got.tolist() == block_of(0, 4 * n)    # a later write leaves it be
    assert cl.peek_blocks(*on(0, lbs)).tolist() == block_of(50, 4 * n)


def test_a_read_into_out_fills_and_returns_it():
    """A read into the caller's ``out`` returns ``out`` itself, writeable,
    holding the bytes a read without it returns, and charges the same."""
    cl = build(P=2, D=2, B=4)
    lbs = cl.alloc_blocks(1, 3)
    cl.write_blocks(*on(1, lbs), block_of(10, 12), PHASE_RUN_FORMATION)
    args = (*on(1, lbs[[2, 0, 1]]), PHASE_RUN_FORMATION)
    got = {}
    without = charges(cl, lambda: got.update(fresh=cl.read_blocks(*args)))
    out = elements(block_of(90, 12))
    with_out = charges(cl, lambda: got.update(out=cl.read_blocks(*args, out)))
    assert got["out"] is out and out.flags.writeable
    assert out.tobytes() == got["fresh"].tobytes()
    assert with_out == without != []


BAD_OUT = {
    "one element short": lambda: np.empty(11, ELEM),
    "one element too many": lambda: np.empty(13, ELEM),
    "rows of the right length": lambda: np.empty((3, 4), ELEM),
    "16-byte words of another dtype": lambda: np.empty(12, np.complex128),
    "a strided column": lambda: np.empty(24, ELEM)[::2],
    "a read-only column": lambda: np.frombuffer(bytes(12 * 16), ELEM),
}


@pytest.mark.parametrize("case", sorted(BAD_OUT))
def test_a_read_into_a_bad_out_is_refused(case):
    """An ``out`` that is not a writeable C-contiguous element column of
    the read's length is refused before any counter moves, and left as
    it was."""
    cl = build(P=2, D=2, B=4)
    lbs = cl.alloc_blocks(1, 3)
    cl.write_blocks(*on(1, lbs), block_of(10, 12), PHASE_RUN_FORMATION)
    out = BAD_OUT[case]()
    before, kept = store_state(cl), out.tobytes()
    with pytest.raises(DiskError, match="read of 12 elements into"):
        cl.read_blocks(*on(1, lbs), PHASE_RUN_FORMATION, out)
    assert store_state(cl) == before
    assert out.tobytes() == kept


def test_alloc_blocks_stripes_round_robin():
    cl = build(P=1, D=3, B=4, m=36)
    lbs = cl.alloc_blocks(0, 9)
    cl.write_blocks(*on(0, lbs), block_of(0, 36), PHASE_SETUP)
    assert sorted(lb % 3 for lb in live_blocks(cl, 0)) == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    assert sorted(lb % 3 for lb in lbs[:3]) == [0, 1, 2]
    assert lbs.dtype == np.int64
    assert cl.alloc_blocks(0, 0).tolist() == []


def test_alloc_stripe_places_each_block_on_its_disk():
    cl = build(P=2, D=3)
    pes, lbs = cl.alloc_stripe(4, 8)        # global disks 4 5 0 1 2 3 4 5
    assert pes.tolist() == [1, 1, 0, 0, 0, 1, 1, 1]
    assert lbs.tolist() == [1, 2, 0, 1, 2, 0, 4, 5]
    assert cl.next_slot.tolist() == [[1, 1, 1], [1, 2, 2]]
    pes, lbs = cl.alloc_stripe(0, 0)
    assert (pes.tolist(), lbs.tolist()) == ([], [])
    pes, lbs = cl.alloc_stripe(6, 1)        # start_disk wraps to 0
    assert (pes.tolist(), lbs.tolist()) == ([0], [3])


@given(st.sampled_from([(2, 3), (3, 2), (1, 4)]),
       st.lists(st.tuples(st.integers(0, 13), st.integers(0, 9)), max_size=3),
       st.lists(st.integers(0, 13), max_size=5), st.integers(0, 17))
def test_alloc_stripe_of_many_starts_is_consecutive_calls(shape, before,
                                                         starts, n):
    """One call with a column of start disks hands out the ids, and leaves
    the next free slots, of one call per start in order, from disks left
    uneven by earlier stripes; ``n`` is often not a multiple of P*D."""
    P, D = shape
    one, many = build(P=P, D=D), build(P=P, D=D)
    for cl in (one, many):
        for start, length in before:
            cl.alloc_stripe(start, length)
    pes, lbs = many.alloc_stripe(np.array(starts, np.int64), n)
    singles = [one.alloc_stripe(start, n) for start in starts]
    assert pes.dtype == lbs.dtype == np.int64
    assert pes.tolist() == [pe for p, _l in singles for pe in p.tolist()]
    assert lbs.tolist() == [lb for _p, ls in singles for lb in ls.tolist()]
    assert many.next_slot.tolist() == one.next_slot.tolist()


@given(st.integers(1, 4),
       st.lists(st.one_of(st.tuples(st.just("stripe"), st.integers(0, 9),
                                    st.integers(0, 12)),
                          st.tuples(st.just("blocks"), st.just(0),
                                    st.integers(0, 12))),
                max_size=12))
def test_alloc_blocks_matches_one_block_allocations(D, ops):
    """From disks left uneven by stripes, ``alloc_blocks(pe, n)`` hands out
    the ids of ``n`` one-block allocations, and ``alloc_stripe(start, n)``
    those of one-block allocations on the stripe's disks in order."""
    cl = build(P=2, D=D)
    next_slot = [[0] * D for _ in range(2)]
    for op, start, n in ops:
        if op == "stripe":
            pes, lbs = cl.alloc_stripe(start, n)
            places = [divmod((start + g) % (2 * D), D) for g in range(n)]
            assert pes.tolist() == [pe for pe, _disk in places]
            assert lbs.tolist() == [alloc_on_reference(next_slot[pe], disk)
                                    for pe, disk in places]
        else:
            assert (cl.alloc_blocks(1, n).tolist()
                    == alloc_reference(next_slot[1], n))
        assert cl.next_slot.tolist() == next_slot


def store_state(cl):
    """Everything a refused batch must leave as it was."""
    return (copy.deepcopy(counter_state(cl)),
            [(live_blocks(cl, pe), cl.peak_allocated(pe),
              cl.next_slot[pe].tolist()) for pe in range(cl.cfg.P)],
            [cl.peek_blocks(*on(pe, live_blocks(cl, pe))).tolist()
             for pe in range(cl.cfg.P)])


REFUSED = {
    "read of a freed id": lambda cl, lbs, freed: cl.read_blocks(
        *on(0, [lbs[0], freed, lbs[2]]), PHASE_RUN_FORMATION),
    "read of an id never handed out": lambda cl, lbs, freed: cl.read_blocks(
        *on(0, lbs + [999]), PHASE_RUN_FORMATION),
    "read in an unknown phase": lambda cl, lbs, freed: cl.read_blocks(
        *on(0, lbs), len(PHASE_NAMES)),
    "read in phase -1": lambda cl, lbs, freed: cl.read_blocks(*on(0, lbs), -1),
    "peek of a freed id": lambda cl, lbs, freed: cl.peek_blocks(*on(0, [freed])),
    "write of one element short": lambda cl, lbs, freed: cl.write_blocks(
        *on(0, lbs + [freed]), block_of(7, 4 * 4 - 1), PHASE_RUN_FORMATION),
    "write of one block too many": lambda cl, lbs, freed: cl.write_blocks(
        *on(0, lbs + [freed]), block_of(7, 4 * 5), PHASE_RUN_FORMATION),
    "write in an unknown phase": lambda cl, lbs, freed: cl.write_blocks(
        *on(0, lbs), block_of(7, 4 * 3), len(PHASE_NAMES)),
    "write in phase -1": lambda cl, lbs, freed: cl.write_blocks(
        *on(0, lbs), block_of(7, 4 * 3), -1),
    "seed of one element short": lambda cl, lbs, freed: cl.seed_blocks(
        *on(0, [freed, 50]), block_of(7, 7)),
    "free of a freed id": lambda cl, lbs, freed: cl.free_blocks(
        *on(0, lbs + [freed])),
    "free of a duplicate id": lambda cl, lbs, freed: cl.free_blocks(
        *on(0, [lbs[0], lbs[1], lbs[0]])),
    "write of a negative id": lambda cl, lbs, freed: cl.write_blocks(
        *on(0, [freed, -2]), block_of(7, 4 * 2), PHASE_RUN_FORMATION),
    "write of a duplicate id": lambda cl, lbs, freed: cl.write_blocks(
        *on(0, [freed, lbs[0], freed]), block_of(7, 4 * 3), PHASE_RUN_FORMATION),
    "write of a column one PE short": lambda cl, lbs, freed: cl.write_blocks(
        np.zeros(1, np.int64), lbs, block_of(7, 4 * 3), PHASE_RUN_FORMATION),
    "free of a column with a freed id": lambda cl, lbs, freed: cl.free_blocks(
        np.array([0, 0, 1]), [lbs[0], freed, 0]),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_a_refused_batch_changes_nothing(case):
    cl = build(P=2, D=2, B=4)
    lbs = cl.alloc_blocks(0, 4).tolist()
    cl.write_blocks(*on(0, lbs), block_of(0, 16), PHASE_RUN_FORMATION)
    cl.read_blocks(*on(0, lbs[:2]), PHASE_RUN_FORMATION)
    freed = lbs.pop(1)
    cl.free_blocks(*on(0, [freed]))
    before = store_state(cl)
    error = IndexError if "phase" in case else DiskError
    with pytest.raises(error):
        REFUSED[case](cl, lbs, freed)
    assert store_state(cl) == before


OUTSIDE_CALLS = {
    "read": lambda cl, pe, lbs: cl.read_blocks(pe, lbs, PHASE_RUN_FORMATION),
    "write": lambda cl, pe, lbs: cl.write_blocks(
        pe, lbs, block_of(7, 4 * len(lbs)), PHASE_RUN_FORMATION),
    "free": lambda cl, pe, lbs: cl.free_blocks(pe, lbs),
    "seed": lambda cl, pe, lbs: cl.seed_blocks(
        pe, lbs, block_of(7, 4 * len(lbs))),
    "peek": lambda cl, pe, lbs: cl.peek_blocks(pe, lbs),
}


def two_blocks_each():
    """A two-PE machine whose PEs hold their blocks 0 and 1."""
    cl = build(P=2, D=2, B=4)
    for p in range(2):
        cl.write_blocks(*on(p, cl.alloc_blocks(p, 2)), block_of(10 * p, 8),
                        PHASE_RUN_FORMATION)
    return cl


@pytest.mark.parametrize("pe", [-1, 2])
@pytest.mark.parametrize("call", sorted(OUTSIDE_CALLS))
def test_a_pe_outside_the_machine_is_refused(call, pe):
    """A PE of -1 or P is refused with a DiskError that names it, on every
    block-run call, before anything changes; it is not read as another
    PE's block."""
    cl = two_blocks_each()
    before = store_state(cl)
    column = np.array([1, pe], np.int64)        # one good PE, then the bad one
    with pytest.raises(DiskError, match=rf"^pe={pe} is outside \[0, 2\)$"):
        OUTSIDE_CALLS[call](cl, column, [0, 1])
    assert store_state(cl) == before


@pytest.mark.parametrize("form", ["bare int", "column one short"])
@pytest.mark.parametrize("call", sorted(OUTSIDE_CALLS))
def test_a_pe_that_is_not_a_column_as_long_as_the_ids_is_refused(call, form):
    """The PE of a block call is an ``int64`` column, one entry per block
    id: a bare int or a column of another length is refused with a
    DiskError on every block-run call, before anything changes."""
    cl = two_blocks_each()
    before = store_state(cl)
    pe = 1 if form == "bare int" else np.ones(1, np.int64)
    with pytest.raises(DiskError, match="give one pe per block id"):
        OUTSIDE_CALLS[call](cl, pe, [0, 1])
    assert store_state(cl) == before


STORE_CALLS = ("write", "seed", "read", "peek", "free")


@st.composite
def store_programs(draw):
    """A small machine and a sequence of calls on its block store.  Ids
    come from a small range with a few negative and never handed out ones,
    so calls rewrite live ids, touch unallocated blocks and name a block
    twice in one free; a PE is now and then outside the machine or a bare
    int, which is refused, and a store now and then one element off.  A
    ``live`` call names blocks live when it runs, so frees succeed between
    writes and slab rows are reused."""
    P, D = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    B = draw(st.integers(1, 2))
    pe = st.sampled_from(list(range(P)) * 6 + [-1, P])
    lb = st.sampled_from(list(range(8)) * 3 + [-2, -1, 30])
    pairs = st.lists(st.tuples(pe, lb), max_size=4)
    form = st.sampled_from(["column"] * 4 + ["int"])
    live = st.tuples(st.just("live"), st.sampled_from(STORE_CALLS), form,
                     st.integers(0, 20), st.integers(1, 6),
                     st.lists(st.tuples(st.integers(0, P - 1), lb), max_size=1))
    calls = st.one_of(
        st.tuples(st.just("alloc"), pe, st.integers(0, 4)),
        st.tuples(st.just("stripe"), st.integers(0, 7), st.integers(0, 5)),
        st.tuples(st.sampled_from(STORE_CALLS), form, pairs,
                  st.sampled_from([0] * 8 + [-1, 1])),
        live, live)
    return (MachineConfig(P=P, D=D, B=B, m=8, N=0),
            draw(st.lists(calls, min_size=10, max_size=40)))


def resolve(call, live: list[tuple[int, int]]):
    """A ``live`` call as a plain one: up to ``count`` of the blocks live
    before it, from ``start`` on, then, in a store, its drawn pairs."""
    if call[0] != "live":
        return call
    _live, name, form, start, count, extra_pairs = call
    if live:
        start %= len(live)
        live = live[start:] + live[:start]
    stored = name in ("write", "seed")
    return name, form, live[:count] + (extra_pairs if stored else []), 0


def run_call(store, B: int, call, serial: int):
    """Apply one drawn call to ``store``; its result, or the refusal."""
    try:
        if call[0] == "alloc":
            lbs = store.alloc_blocks(call[1], call[2])
            return lbs.dtype, lbs.tolist()
        if call[0] == "stripe":
            pes, lbs = store.alloc_stripe(call[1], call[2])
            return pes.tolist(), lbs.tolist()
        name, form, pairs, extra = call
        lbs = [lb for _pe, lb in pairs]
        if form == "int":
            pe = pairs[0][0] if pairs else 0
        else:
            pe = np.array([p for p, _lb in pairs], np.int64)
            lbs = np.array(lbs, np.int64)
        elems = [(100 * serial + i, -100 * serial - i)
                 for i in range(len(pairs) * B + extra)]
        if name == "read":
            out = store.read_blocks(pe, lbs, PHASE_RUN_FORMATION)
        elif name == "peek":
            out = store.peek_blocks(pe, lbs)
        elif name == "write":
            return store.write_blocks(pe, lbs, elems, PHASE_RUN_FORMATION)
        elif name == "seed":
            return store.seed_blocks(pe, lbs, elems)
        else:
            return store.free_blocks(pe, lbs)
        return out.dtype, out.tolist(), out.flags.writeable
    except DiskError as exc:
        return "refused", str(exc)


@settings(max_examples=150, deadline=None)
@given(store_programs())
def test_slab_store_matches_the_dict_store(program):
    """Every call gives the dict store's result, array and read-only flag,
    or its refusal text; after each call the counters, the per-PE live
    counts, peaks and next slots, the live block ids and their contents
    are the dict store's."""
    cfg, calls = program
    cl, ref = Cluster(cfg), ReferenceCluster(cfg)
    for i, call in enumerate(calls):
        call = resolve(call, [(pe, lb) for pe in range(cfg.P)
                              for lb in ref.live(pe)])
        assert run_call(cl, cfg.B, call, i) == run_call(ref, cfg.B, call, i)
        assert counter_state(cl) == counter_state(ref)
        assert cl.next_slot.tolist() == ref.next_slot
        for pe in range(cfg.P):
            live = ref.live(pe)
            assert live_blocks(cl, pe) == live
            assert cl.live[pe] == len(live)
            assert cl.peak_allocated(pe) == ref.peak_allocated(pe)
            assert (cl.peek_blocks(*on(pe, live)).tolist()
                    == ref.peek_blocks(*on(pe, live)).tolist())


def test_seed_and_peek_are_uncounted():
    cl = build()
    lbs = cl.alloc_blocks(0, 2)
    cl.seed_blocks(*on(0, lbs), block_of(5, 8))
    assert cl.peek_blocks(*on(0, lbs)).tolist() == block_of(5, 8)
    assert cl.peek_blocks(*on(0, lbs[1:])).tolist() == block_of(9, 4)
    assert cl.counters.element_io(cl.cfg.B) == 0
    assert cl.counters.blocks[PHASE_SETUP, WRITE].sum() == 0


def test_occupancy_tracking_and_free():
    cl = build(P=1, D=2)
    lbs = cl.alloc_blocks(0, 4).tolist()
    cl.write_blocks(*on(0, lbs), block_of(0, 16), PHASE_SETUP)
    assert live_blocks(cl, 0) == lbs
    assert cl.peak_allocated(0) == 4
    cl.free_blocks(*on(0, lbs[:2]))
    assert live_blocks(cl, 0) == lbs[2:]
    assert cl.peak_allocated(0) == 4          # peak is sticky
    assert not is_allocated(cl, 0, lbs[0])
    assert is_allocated(cl, 0, lbs[2])
    # rewriting a freed slot re-counts it
    cl.write_blocks(*on(0, lbs[:1]), block_of(1, 4), PHASE_SETUP)
    assert live_blocks(cl, 0) == [lbs[0]] + lbs[2:]
    cl.free_blocks(*on(0, []))
    assert cl.peak_allocated(0) == 4
    cl.write_blocks(*on(0, lbs[1:2] + cl.alloc_blocks(0, 2).tolist()),
                    block_of(0, 12), PHASE_SETUP)
    assert cl.peak_allocated(0) == 6


def test_save_and_load_images_round_trip(tmp_path):
    cfg = MachineConfig(P=2, D=2, B=4, m=32, N=64)
    cl = Cluster(cfg)
    blocks = {}
    for pe in range(2):
        lbs = cl.alloc_blocks(pe, 4)
        data = block_of(100 * pe, 16)
        cl.seed_blocks(*on(pe, lbs), data)
        blocks.update({(pe, lb): data[4 * i:4 * i + 4] for i, lb in enumerate(lbs)})
    cl.free_blocks(*on(1, [1]))
    del blocks[1, 1]
    cl.save_images(str(tmp_path), 3)
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        f"pe{pe}_disk{d}.g3.bin" for pe in range(2) for d in range(2)]
    loaded = Cluster.load_images(str(tmp_path), cfg, 3)
    for (pe, lb), data in blocks.items():
        assert loaded.peek_blocks(*on(pe, [lb])).tolist() == data
    assert sorted(loaded.loaded_elements().tolist()) == sorted(
        elem for data in blocks.values() for elem in data)
    assert loaded.counters.element_io(cfg.B) == 0
    assert live_blocks(loaded, 1) == [0, 2, 3]
    assert loaded.live.tolist() == loaded.peak.tolist() == [4, 3]
    assert loaded.next_slot.tolist() == cl.next_slot.tolist() == [[2, 2], [2, 2]]


IMAGE_CFG = dict(P=1, D=2, B=2, m=32, N=0)

image_elements = st.one_of(
    st.tuples(st.integers(0, MAX_KEY), st.integers(-2**63, 2**63 - 1)),
    st.just(sentinel()),
    st.tuples(st.just(MAX_KEY), st.integers(-2**63, 2**63 - 1)),
)


#: Raw 16-byte image rows, biased towards ``MAX_KEY`` keys and the
#: sentinel's bytes.
image_rows = st.one_of(
    st.binary(min_size=16, max_size=16),
    st.binary(min_size=8, max_size=8).map(lambda serial: b"\xff" * 8 + serial),
    st.just(b"\xff" * 16),
    st.just(bytes(16)),
)

#: Two disks' images: each a dict from distinct slots in ``[0, 6)`` to
#: blocks of two drawn rows.
drawn_images = st.lists(st.dictionaries(st.integers(0, 5), st.lists(
    image_rows, min_size=2, max_size=2), max_size=4), min_size=2, max_size=2)


@given(st.lists(st.one_of(st.none(), st.lists(image_elements, min_size=2, max_size=2)),
                max_size=7))
def test_saved_images_match_the_scalar_encoding(blocks):
    """Block ``lb`` of ``blocks`` lands on disk ``lb % D`` at slot
    ``lb // D``; ``None`` is a hole, which the image leaves out."""
    cfg = MachineConfig(**IMAGE_CFG)
    cl = Cluster(cfg)
    for lb, block in enumerate(blocks):
        if block is not None:
            cl.seed_blocks(*on(0, [lb]), block)
    with tempfile.TemporaryDirectory() as tmp:
        cl.save_images(tmp, 1)
        for d in range(cfg.D):
            expected = image_bytes({
                slot: encode_block(block)
                for slot, block in enumerate(blocks[d::cfg.D]) if block is not None})
            assert Path(tmp, f"pe0_disk{d}.g1.bin").read_bytes() == expected


@given(drawn_images)
def test_images_of_16_byte_elements_load_and_save_as_raw_bytes(images):
    """No row is refused: every block loads at its slot as the scalar codec
    decodes it, a slot the image leaves out holds no block, the counts and
    next free slots follow the slot columns, and saving the loaded cluster
    writes the images back byte for byte."""
    cfg = MachineConfig(**IMAGE_CFG)
    files = [image_bytes({s: b"".join(rows) for s, rows in image.items()})
             for image in images]
    with tempfile.TemporaryDirectory() as tmp:
        for d, data in enumerate(files):
            Path(tmp, f"pe0_disk{d}.g1.bin").write_bytes(data)
        loaded = Cluster.load_images(tmp, cfg, 1)
        expected = {slot * cfg.D + d: list(map(element_from_bytes, rows))
                    for d, image in enumerate(images) for slot, rows in image.items()}
        assert live_blocks(loaded, 0) == sorted(expected)
        for lb, block in expected.items():
            assert loaded.peek_blocks(*on(0, [lb])).tolist() == block
        assert sorted(loaded.loaded_elements().tolist()) == sorted(
            elem for block in expected.values() for elem in block)
        assert loaded.live.tolist() == loaded.peak.tolist() == [len(expected)]
        assert loaded.next_slot[0].tolist() == [
            max(image, default=-1) + 1 for image in images]
        assert loaded.counters.element_io(cfg.B) == 0
        loaded.save_images(tmp, 2)
        for d, data in enumerate(files):
            assert Path(tmp, f"pe0_disk{d}.g2.bin").read_bytes() == data


def test_load_images_refuses_missing_and_partial_images(tmp_path):
    cfg = MachineConfig(P=2, D=2, B=4, m=32, N=64)
    cl = Cluster(cfg)
    cl.seed_blocks(*on(0, cl.alloc_blocks(0, 3)), block_of(0, 12))
    cl.save_images(str(tmp_path), 1)
    empty = Path(tmp_path, "pe1_disk1.g1.bin")
    assert empty.read_bytes() == image_bytes({})
    Cluster.load_images(str(tmp_path), cfg, 1)
    empty.unlink()
    with pytest.raises(DiskError, match=f"^{empty}: image is missing$"):
        Cluster.load_images(str(tmp_path), cfg, 1)
    empty.write_bytes(image_bytes({}))
    image = Path(tmp_path, "pe0_disk0.g1.bin")       # slots 0 and 1
    assert image.read_bytes() == image_bytes(
        {0: encode_block(block_of(0, 4)), 1: encode_block(block_of(8, 4))})
    image.write_bytes(image.read_bytes()[:-1])       # a partial last block
    with pytest.raises(DiskError, match=f"^{image}: 2 blocks need 152 bytes, "
                                        "the image has 151$"):
        Cluster.load_images(str(tmp_path), cfg, 1)


def test_load_images_refuses_a_slot_past_the_key_range(tmp_path):
    """Without a smaller ``limit`` a slot must lie below ``2**63 / (P*D)``,
    so that every block key ``(slot * D + d) * P + pe`` fits an ``int64``;
    a last slot at that cap is refused naming the image and the cap."""
    cfg = MachineConfig(P=2, D=2, B=4, m=32, N=64)
    cl = Cluster(cfg)
    cl.seed_blocks(*on(0, cl.alloc_blocks(0, 3)), block_of(0, 12))
    cl.save_images(str(tmp_path), 1)
    cap = 2**63 // 4
    image = Path(tmp_path, "pe0_disk0.g1.bin")
    image.write_bytes(image_bytes({0: encode_block(block_of(0, 4)),
                                   cap: encode_block(block_of(8, 4))}))
    with pytest.raises(DiskError, match=f"^{image}: slot 1 is {cap}; slots "
                                        "must increase strictly from 0 up to "
                                        f"below {cap}$"):
        Cluster.load_images(str(tmp_path), cfg, 1)


def test_output_layout_saves_and_loads_its_columns(tmp_path):
    """``layout.bin`` is the PE column, then the id column, as little-endian
    ``int64``; loading checks its size and its ids."""
    path = str(tmp_path / "layout.bin")
    layout = OutputLayout("striped", [1, 0, 1], [4, 0, 2])
    layout.save(path)
    assert Path(path).read_bytes() == int64_bytes([1, 0, 1, 4, 0, 2])
    loaded = OutputLayout.load(path, "striped", 3, 2)
    assert addresses(loaded) == addresses(layout)
    with pytest.raises(DiskError, match=rf"^{path}: 48 bytes, not 16 for "
                                        r"each of 2 blocks$"):
        OutputLayout.load(path, "striped", 2, 2)
    with pytest.raises(DiskError, match=rf"^{path}: layout block 0 is pe=1 "
                                        r"lb=4: the pe must be in \[0, 1\)"):
        OutputLayout.load(path, "striped", 3, 1)
    with pytest.raises(DiskError, match=f"^{tmp_path / 'x'}: layout is missing$"):
        OutputLayout.load(str(tmp_path / "x"), "striped", 3, 2)


def test_output_layout_holds_int64_columns_in_layout_order():
    per_pe = OutputLayout("canonical", [0, 0, 1], [0, 2, 1])
    assert addresses(per_pe) == [(0, 0), (0, 2), (1, 1)]
    stripe = OutputLayout("striped", np.array([1, 0], np.int32), (0, 1))
    assert addresses(stripe) == [(1, 0), (0, 1)]
    for layout in (per_pe, stripe):
        assert layout.pes.dtype == layout.lbs.dtype == np.int64
