"""Multiway selection against a brute-force oracle, plus its work bounds."""
from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from emsort.core import MAX_KEY, PHASE_SELECTION, READ
from emsort.runform import Run
from emsort.selection import (
    DiskAccessor, SelectionError, multiway_select, sampled_starts,
    select_all_ranks,
)

from helpers import (
    MemoryAccessor, array_sampled_init, build, on, sample_columns,
    sampled_init,
)


# --- oracle -----------------------------------------------------------------

def brute_force_select(runs, r):
    """Positions of the rank-r cut under the (key, run, position) order."""
    flat = sorted((runs[j][p][0], j, p)
                  for j in range(len(runs)) for p in range(len(runs[j])))
    pos = [0] * len(runs)
    for _key, j, p in flat[:r]:
        pos[j] = max(pos[j], p + 1)
    return pos


def make_runs(rng, R, max_len, dom):
    runs = []
    for j in range(R):
        length = rng.randint(0, max_len)
        keys = sorted(rng.randrange(dom) for _ in range(length))
        runs.append([(k, j * 100000 + p) for p, k in enumerate(keys)])
    return runs


def test_oracle_on_desk_examples():
    runs = [[(1, 0), (3, 1), (5, 2), (7, 3)], [(2, 4), (4, 5), (6, 6), (8, 7)]]
    assert brute_force_select(runs, 4) == [2, 2]
    assert brute_force_select(runs, 0) == [0, 0]
    assert brute_force_select(runs, 8) == [4, 4]
    runs = [[(5, 0), (5, 1), (5, 2)], [(5, 3), (5, 4)]]
    assert brute_force_select(runs, 2) == [2, 0]   # ties go to the lower run


# --- exactness --------------------------------------------------------------

def test_interleaved_and_tied_examples():
    acc = MemoryAccessor([[(1, 0), (3, 1), (5, 2), (7, 3)],
                          [(2, 4), (4, 5), (6, 6), (8, 7)]])
    assert multiway_select(acc, 4).positions == [2, 2]
    acc = MemoryAccessor([[(5, 0), (5, 1), (5, 2)], [(5, 3), (5, 4)]])
    assert multiway_select(acc, 2).positions == [2, 0]
    acc = MemoryAccessor([[(1, 0), (2, 1)], [(3, 2)]])
    assert multiway_select(acc, 3).positions == [2, 1]


def test_rank_zero_and_rank_total():
    runs = [[(4, 0), (8, 1)], [], [(6, 2)]]
    acc = MemoryAccessor(runs)
    assert multiway_select(acc, 0).positions == [0, 0, 0]
    res = multiway_select(acc, 3)
    assert res.positions == [2, 0, 1]
    assert multiway_select(MemoryAccessor([[], []]), 0).positions == [0, 0]


def test_rank_outside_range_rejected():
    acc = MemoryAccessor([[(1, 0)]])
    with pytest.raises(ValueError):
        multiway_select(acc, 2)
    with pytest.raises(ValueError):
        multiway_select(acc, -1)


def test_init_validation():
    acc = MemoryAccessor([[(1, 0), (2, 1)], [(3, 2)]])
    with pytest.raises(ValueError):
        multiway_select(acc, 1, init=[0], step=4)
    with pytest.raises(ValueError):
        multiway_select(acc, 1, init=[0, 0], step=0)


def test_fuzz_matches_oracle_from_scratch():
    rng = random.Random(5050)
    for trial in range(400):
        runs = make_runs(rng, rng.randint(1, 8), 64,
                         rng.choice([4, 64, 1 << 60]))
        total = sum(len(run) for run in runs)
        r = rng.randint(0, total)
        res = multiway_select(MemoryAccessor(runs), r)
        assert res.positions == brute_force_select(runs, r), (trial, r)


def brute_force_all_ranks(runs):
    """``brute_force_select(runs, r)`` for every rank r, in one pass."""
    flat = sorted((runs[j][p][0], j, p)
                  for j in range(len(runs)) for p in range(len(runs[j])))
    pos = [0] * len(runs)
    cuts = [list(pos)]
    for _key, j, p in flat:
        pos[j] = p + 1
        cuts.append(list(pos))
    return cuts


def test_fuzz_matches_oracle_with_sampled_start():
    rng = random.Random(5051)
    for trial in range(300):
        K = rng.choice([4, 16])
        runs = make_runs(rng, rng.randint(1, 6), 200, rng.choice([16, 1 << 60]))
        runs = [run for run in runs if run] or [[(1, 0)]]
        total = sum(len(run) for run in runs)
        r = rng.randint(0, total)
        samples = [[(run[p][0], p) for p in range(0, len(run), K)]
                   for run in runs]
        init, step = array_sampled_init(samples, K, r)
        res = multiway_select(MemoryAccessor(runs), r, init, step)
        assert res.positions == brute_force_select(runs, r), (trial, r, K)
    # Far starts: up to 64 runs of length K whose first key is below every
    # other key, plus one long run.  Those first keys fill the front of the
    # sorted samples, so the long run's sampled start can sit about R*K
    # below its cut.  Every rank is checked, so R*K stays at most 1024.
    for trial in range(4):
        K = rng.choice([8, 16, 32, 64])
        R = rng.randint(1, min(64, 1024 // K))
        dom = rng.choice([4, 1 << 40])
        tail = rng.choice([1, dom])   # dom: every tail above the long run
        runs = [[(k, j * 100000 + p) for p, k in enumerate(
            [0] + sorted(tail + rng.randrange(dom) for _ in range(K - 1)))]
            for j in range(R)]
        length = rng.randint(1, (R + 1) * K)
        runs.append([(1 + k, R * 100000 + p) for p, k in enumerate(
            sorted(rng.randrange(dom) for _ in range(length)))])
        samples = [[(run[p][0], p) for p in range(0, len(run), K)]
                   for run in runs]
        ranks = list(range(sum(len(run) for run in runs) + 1))
        results = select_all_ranks(MemoryAccessor(runs), ranks,
                                   sample_columns(samples), K)
        assert [res.positions for res in results] == \
            brute_force_all_ranks(runs), (trial, R, K)


# --- bounds -----------------------------------------------------------------

def test_round_bound_scratch():
    rng = random.Random(5052)
    for _ in range(200):
        runs = make_runs(rng, rng.randint(1, 8), 1000, 1 << 30)
        total = sum(len(run) for run in runs)
        maxlen = max((len(run) for run in runs), default=0)
        if total == 0:
            continue
        res = multiway_select(MemoryAccessor(runs), rng.randint(1, total))
        lpad = 1 << max(1, (maxlen - 1).bit_length() if maxlen > 1 else 1)
        assert res.rounds <= math.ceil(math.log2(lpad))


def test_round_bound_sampled():
    rng = random.Random(5053)
    K = 16
    for _ in range(200):
        runs = make_runs(rng, rng.randint(1, 8), 500, 1 << 30)
        runs = [run for run in runs if run] or [[(1, 0)]]
        total = sum(len(run) for run in runs)
        r = rng.randint(0, total)
        samples = [[(run[p][0], p) for p in range(0, len(run), K)]
                   for run in runs]
        init, step = array_sampled_init(samples, K, r)
        res = multiway_select(MemoryAccessor(runs), r, init, step)
        assert res.rounds <= math.ceil(math.log2(K)) + 1


def test_touch_budget():
    rng = random.Random(5054)
    for _ in range(200):
        R = rng.randint(1, 8)
        runs = make_runs(rng, R, 1024, 1 << 40)
        total = sum(len(run) for run in runs)
        maxlen = max((len(run) for run in runs), default=0)
        if maxlen < 2:
            continue
        res = multiway_select(MemoryAccessor(runs), rng.randint(0, total))
        assert res.touched <= 2 * R * (math.ceil(math.log2(maxlen)) + 1)


def test_memory_accessor_counts_distinct_probes_once():
    acc = MemoryAccessor([[(1, 0), (2, 1)]])
    acc.order_key(0, 0)
    acc.order_key(0, 0)
    acc.order_key(0, 1)
    acc.order_key(0, 5)      # past the end: conceptual, not a touch
    assert acc.touched == 2


# --- sampled initialization --------------------------------------------------

def test_sampled_init_predecessor_positions():
    # run 0 keys 0,10,20,...,90 sampled every 2 -> (0,0),(20,2),(40,4),...
    run0 = [(10 * i, i) for i in range(10)]
    run1 = [(5 + 10 * i, 100 + i) for i in range(10)]
    K = 2
    samples = [[(run0[p][0], p) for p in range(0, 10, K)],
               [(run1[p][0], p) for p in range(0, 10, K)]]
    init, step = array_sampled_init(samples, K, 10)
    assert step == K
    exact = brute_force_select([run0, run1], 10)
    assert all(abs(i - e) <= 2 * K for i, e in zip(init, exact))
    assert array_sampled_init(samples, K, 0) == ([0, 0], K)
    with pytest.raises(ValueError):
        array_sampled_init(samples, 0, 1)


@st.composite
def sampled_ranks(draw):
    """Sorted key runs (some empty, keys often all equal), a sample rate K
    and ranks from 0 to past the last sample's rank."""
    top = draw(st.sampled_from([1, 3, MAX_KEY]))
    runs = draw(st.lists(st.lists(st.integers(0, top - 1), max_size=40).map(sorted),
                         max_size=5))
    K = draw(st.integers(1, 9))
    total = sum(map(len, runs))
    return runs, K, draw(st.lists(st.integers(0, total + 2 * K), max_size=6))


@given(sampled_ranks())
@example(([[1, 2, 3]], 1, [0]))                       # r = 0
@example(([[1, 2, 3, 4]], 2, [3, 4, 5]))              # r // K past the last sample
@example(([[], [3, 3], []], 1, [1, 2]))               # empty runs
@example(([[7] * 5, [7] * 3, [7]], 2, [1, 3, 8, 9]))  # all-equal keys
@example(([], 4, [0, 3]))                             # no runs
def test_sampled_starts_match_the_per_rank_reference(case):
    """One sort of the samples gives every rank the starts that sorting
    them again per rank gives."""
    runs, K, ranks = case
    samples = [[(run[p], p) for p in range(0, len(run), K)] for run in runs]
    assert sampled_starts(sample_columns(samples), K, ranks) == \
        [sampled_init(samples, K, r)[0] for r in ranks]


# --- multiple ranks ----------------------------------------------------------

def test_select_all_ranks_is_monotone_and_exact():
    rng = random.Random(5055)
    runs = make_runs(rng, 5, 100, 1 << 20)
    total = sum(len(run) for run in runs)
    ranks = sorted(rng.randint(0, total) for _ in range(6))
    results = select_all_ranks(MemoryAccessor(runs), ranks)
    prev = [0] * len(runs)
    for r, res in zip(ranks, results):
        assert res.positions == brute_force_select(runs, r)
        assert all(a <= b for a, b in zip(prev, res.positions))
        prev = res.positions


# --- disk-resident runs -------------------------------------------------------

def seed_disk_runs(cl, keys_per_run):
    """Materialize sorted runs on PE 0, one :class:`Run` each."""
    B = cl.cfg.B
    runs = []
    for j, keys in enumerate(keys_per_run):
        assert len(keys) % B == 0
        blocks = cl.alloc_blocks(0, len(keys) // B)
        cl.seed_blocks(*on(0, blocks),
                       [(k, j * 1000 + i) for i, k in enumerate(keys)])
        runs.append(Run(len(keys), np.zeros(len(blocks), np.int64), blocks,
                        np.array(keys[::B], np.uint64)))
    return runs


def test_disk_accessor_matches_memory_and_counts_reads():
    rng = random.Random(5056)
    keys_per_run = [sorted(rng.randrange(1 << 20) for _ in range(64))
                    for _ in range(3)]
    cl = build(P=1, D=2, B=8, m=64, N=192)
    segs = seed_disk_runs(cl, keys_per_run)
    mem_runs = [[(k, j * 1000 + p) for p, k in enumerate(keys)]
                for j, keys in enumerate(keys_per_run)]
    r = 100
    disk = DiskAccessor(cl, segs)
    reads = cl.counters.blocks[PHASE_SELECTION, READ]
    before = int(reads.sum())
    res = multiway_select(disk, r)
    assert res.positions == brute_force_select(mem_runs, r)
    # every block read is charged to selection, one per probe at most
    assert 0 < int(reads.sum()) - before <= res.touched


def test_disk_accessor_cache_reduces_reads():
    rng = random.Random(5057)
    keys_per_run = [sorted(rng.randrange(1 << 20) for _ in range(128))
                    for _ in range(4)]
    cl = build(P=1, D=2, B=16, m=256, N=512)
    segs = seed_disk_runs(cl, keys_per_run)
    reads = cl.counters.blocks[PHASE_SELECTION, READ]
    before = int(reads.sum())
    res = multiway_select(DiskAccessor(cl, segs), 300)
    # the final low-step rounds probe neighbouring positions; the block
    # cache serves those from one read, so reads fall below distinct probes
    # (without it every probe would be a read)
    assert int(reads.sum()) - before < res.touched


def test_select_all_ranks_detects_broken_order():
    # an unsorted "run" has no cut with the order property; the closing
    # check rejects it instead of returning silent garbage
    runs = [[(9, 0), (1, 1), (7, 2), (0, 3)], [(5, 4), (4, 5), (3, 6), (2, 7)]]
    acc = MemoryAccessor(runs)
    with pytest.raises(SelectionError, match="missed the exact rank-"):
        for r in range(sum(len(x) for x in runs) + 1):
            multiway_select(acc, r)


def test_a_start_that_misses_the_cut_raises():
    # A start outside the contract (not sampled, not full windows) can
    # leave the windows short of the cut; the check raises rather than
    # return a wrong cut.
    keys = [[8, 20, 32, 36, 39, 44], [3, 25, 25, 29, 35, 41, 43, 43, 47, 49],
            [3, 6, 12, 25, 25, 30, 40], [13, 28]]
    runs = [[(k, 100 * j + p) for p, k in enumerate(run)]
            for j, run in enumerate(keys)]
    with pytest.raises(SelectionError, match="missed the exact rank-6 cut"):
        multiway_select(MemoryAccessor(runs), 6, init=[2, 9, 0, 0], step=1)
