"""Run formation: in-place sorted runs with cooperative load sorting."""
from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from emsort import runform
from emsort.core import (
    CONTROL, DATA_PHASES, MAX_KEY, MachineConfig, PHASE_ALL_TO_ALL,
    PHASE_LOCAL_MERGE, PHASE_RUN_FORMATION, PHASE_STRIPED_MERGE, READ,
    RECEIVED, SENT, WRITE, sort_order,
)
from emsort.harness import run_sort, verify_output
from emsort.runform import Run, form_runs, run_layout, shuffle_block_ids
from emsort.striped import form_striped_runs, striped_merge_pass
from emsort.vdisk import Cluster

import helpers
from helpers import (
    build, counter_state, elements, fill, input_elements, on, sort_window,
)


def read_run(cl, run: Run):
    return cl.peek_blocks(run.pes, run.lbs).tolist()


def test_run_layout_covers_input_with_trailing_short_run():
    cfg = MachineConfig(P=4, D=2, B=4, m=32, N=320)   # M=128
    assert run_layout(cfg) == [(128, 32), (128, 32), (64, 16)]
    assert runform.windows(cfg) == [(0, 2, 32), (2, 1, 16)]
    # A load above the window's 2**14 elements is a window alone.
    assert runform.windows(MachineConfig(P=4, D=2, B=4, m=8192, N=81920)) \
        == [(0, 1, 8192), (1, 1, 8192), (2, 1, 4096)]
    assert run_layout(MachineConfig(P=2, D=2, B=4, m=32, N=0)) == []


def test_two_processor_desk_example():
    # PE 0 holds keys [4, 3], PE 1 holds [2, 1]; the formed run must leave
    # [1, 2] on PE 0 and [3, 4] on PE 1, written over the same blocks.
    cfg = MachineConfig(P=2, D=1, B=1, m=2, N=4, randomize=False)
    cl = Cluster(cfg)
    pe_blocks = []
    for pe, keys in enumerate([[4, 3], [2, 1]]):
        blocks = cl.alloc_blocks(pe, len(keys))
        cl.seed_blocks(*on(pe, blocks),
                       [(key, 2 * pe + i) for i, key in enumerate(keys)])
        pe_blocks.append(blocks)
    runs = form_runs(cl, pe_blocks)
    assert len(runs) == 1
    assert [e[0] for e in read_run(cl, runs[0])] == [1, 2, 3, 4]
    assert runs[0].pes.tolist() == [0, 0, 1, 1]
    assert cl.peek_blocks(*on(0, runs[0].lbs[:2]))["key"].tolist() == [1, 2]
    assert cl.peek_blocks(*on(1, runs[0].lbs[2:]))["key"].tolist() == [3, 4]


def test_runs_are_sorted_and_partition_the_input():
    cl = build(P=4, D=2, B=4, m=32, N=384, seed=3)
    gen = fill(cl, "random", 3)
    before = sorted(input_elements(cl, gen))
    runs = form_runs(cl, gen.pe_blocks)
    all_elems = []
    for run in runs:
        elems = read_run(cl, run)
        keys = [e[0] for e in elems]
        assert keys == sorted(keys)
        all_elems.extend(elems)
    assert sorted(all_elems) == before


def test_formation_io_is_exactly_two_passes_and_in_place():
    cl = build(P=4, D=2, B=4, m=32, N=384, seed=5)
    gen = fill(cl, "random", 5)
    peak_before = [cl.peak_allocated(pe) for pe in range(4)]
    runs = form_runs(cl, gen.pe_blocks)
    N, B = cl.cfg.N, cl.cfg.B
    formation = cl.counters.blocks[PHASE_RUN_FORMATION]
    assert formation[READ].sum() * B == N
    assert formation[WRITE].sum() * B == N
    # write-back reuses the input blocks: no new allocations at all
    assert [cl.peak_allocated(pe) for pe in range(4)] == peak_before
    claimed = {(pe, lb) for run in runs
               for pe, lb in zip(run.pes.tolist(), run.lbs.tolist())}
    original = {(pe, lb) for pe, blocks in enumerate(gen.pe_blocks)
                for lb in blocks}
    assert claimed == original


def test_sorted_input_forms_runs_without_communication():
    for randomize in (False, True):
        cl = build(P=4, D=2, B=4, m=32, N=384, seed=1, randomize=randomize)
        gen = fill(cl, "sorted", 1)
        form_runs(cl, gen.pe_blocks)
        assert cl.counters.traffic[PHASE_RUN_FORMATION,
                                   SENT].sum() == 0


def test_internal_parallel_sort_chunks_are_exact_rank_splits():
    rng = random.Random(77)
    cl = build(P=3, D=1, B=4, m=40, N=120)
    load = [(rng.randrange(1000), i) for i in range(120)]
    got = sort_window(cl, elements(load)[None])
    assert got.shape == (1, 120)
    flat = got[0].tolist()
    assert [e[0] for e in flat] == sorted(e[0] for e in flat)
    assert sorted(flat) == sorted(load)
    with pytest.raises(MemoryError):
        sort_window(cl, elements([(0, 0)] * 246).reshape(2, 123))
    with pytest.raises(ValueError):
        sort_window(cl, elements([(0, 0)] * 8).reshape(2, 4))


@st.composite
def parallel_windows(draw, banded=False):
    """A window of 1 to 5 loads of P equal shares each, mostly with keys
    0..3 so that rank cuts fall inside runs of ties, and often in rows
    that repeat each other's keys.  With ``banded``, every serial of share
    p lies below every serial of share p + 1, as in a generated input."""
    P = draw(st.integers(1, 4))
    share = draw(st.integers(0, 6))
    total = P * share
    key = st.one_of(st.integers(0, 3), st.integers(0, MAX_KEY - 1))
    window = []
    for _ in range(draw(st.integers(1, 5))):
        keys = draw(st.lists(key, min_size=total, max_size=total))
        if banded:
            serials = [p * share + s for p in range(P)
                       for s in draw(st.permutations(range(share)))]
        else:
            serials = draw(st.permutations(range(total)))
        elems = list(zip(keys, serials))
        window.append([elems[p * share:(p + 1) * share] for p in range(P)])
    return window


#: Windows of equal shares whose rank cuts fall inside runs of equal keys.
TIED_WINDOWS = {
    "all keys equal, P = 4": [[[(7, (5 * i + 3 * p) % 31) for i in range(6)]
                               for p in range(4)]],
    "sentinel duplicates on several PEs": [[
        [(MAX_KEY, -1), (3, 0), (MAX_KEY, -1), (MAX_KEY, 1)],
        [(MAX_KEY, -1), (2, 2), (MAX_KEY, -1), (MAX_KEY, -1)],
        [(3, 3), (MAX_KEY, -1), (0, 4), (MAX_KEY, 2)]]],
    "serials decrease with the processor": [[
        [(k % 3, 100 - 10 * p - i) for i, k in enumerate(range(p, p + 5))]
        for p in range(4)]],
    # A key group that ran on into the next row would trade serials
    # between the rows.
    "two rows of the same tied keys": [
        [[(5, 3), (5, 0)], [(5, 6), (5, 1)]],
        [[(5, 2), (5, 7)], [(5, 0), (5, 4)]]],
}


@given(parallel_windows())
@example(TIED_WINDOWS["all keys equal, P = 4"])
@example(TIED_WINDOWS["sentinel duplicates on several PEs"])
@example(TIED_WINDOWS["serials decrease with the processor"])
@example(TIED_WINDOWS["two rows of the same tied keys"])
def test_internal_parallel_sort_matches_the_reference_kernel(window):
    """The array kernel sorts a window of loads, each the shares joined;
    share p of its row j is the reference kernel's chunk p of load j, and
    the counters are the reference's applied load by load."""
    assert_sort_matches_the_reference_kernel(window)


@given(parallel_windows(banded=True))
@example([[[(2, 1), (2, 0)], [(2, 2), (1, 3)], [(2, 5), (2, 4)]]])
def test_internal_parallel_sort_of_banded_serials_matches_the_reference_kernel(
        window):
    """On serials banded by processor the tied groups at the cuts are not
    sorted again, and the chunks and counters stay the reference's."""
    assert_sort_matches_the_reference_kernel(window)


def assert_sort_matches_the_reference_kernel(window):
    P = len(window[0])
    ref_cl, cl = build(P=P, D=1, B=1, m=32, N=0), build(P=P, D=1, B=1, m=32, N=0)
    expected = [helpers.internal_parallel_sort(ref_cl, load) for load in window]
    rows = elements([e for load in window for share in load for e in share])
    got = sort_window(cl, rows.reshape(len(window), -1))
    assert [[chunk.tolist() for chunk in np.split(row, P)]
            for row in got] == expected
    assert counter_state(cl) == counter_state(ref_cl)


def test_internal_parallel_sort_returns_an_increasing_window_as_read():
    """Rows that strictly increase stay where they are: nothing is sent or
    received, and the cut positions are charged as on any window."""
    P, share = 3, 4
    keys = np.arange(2 * P * share).reshape(2, -1) * 5
    window = [[[(int(k), 40 - int(k) % 7) for k in row[p * share:(p + 1) * share]]
               for p in range(P)] for row in keys]
    cl = build(P=P, D=1, B=1, m=32, N=0)
    rows = elements([e for load in window for share in load for e in share])
    assert sort_window(cl, rows.reshape(2, -1)).tolist() == \
        rows.reshape(2, -1).tolist()
    traffic = cl.counters.traffic[PHASE_RUN_FORMATION]
    assert traffic[SENT].sum() == traffic[RECEIVED].sum() == 0
    assert traffic[CONTROL].tolist() == [2 * 2 * (P - 1)] * P
    assert_sort_matches_the_reference_kernel(window)


def tied_window(serials) -> np.ndarray:
    """One load of 4 processors' shares of 3, keys 0, 1, 2 in turn, so
    that each cut falls in a tied group, with the given serials."""
    return elements([(i % 3, s) for i, s in enumerate(serials)]).reshape(1, -1)


@pytest.mark.parametrize("loads, sorts, argsorts", [
    (elements([(k, -k) for k in range(12)]).reshape(1, -1), 0, 0),
    (tied_window(range(12)), 1, 0),                     # banded
    (tied_window(range(11, -1, -1)), 1, 6),             # not banded
])
def test_internal_parallel_sort_skips_the_passes_that_change_nothing(
        monkeypatch, loads, sorts, argsorts):
    """An increasing window is not sorted, a window of banded serials is
    sorted once with no tied group sorted again, and a window whose
    serials fall with the processor sorts each tied group at a cut by
    processor and by chunk."""
    calls = Counter()

    def counted(name, function):
        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return call

    ref_cl, cl = build(P=4, D=1, B=1, m=32, N=0), build(P=4, D=1, B=1, m=32, N=0)
    expected = helpers.internal_parallel_sort(
        ref_cl, [share.tolist() for share in np.split(loads[0], 4)])
    monkeypatch.setattr(runform, "sort_order", counted("sort", sort_order))
    monkeypatch.setattr(np, "argsort", counted("argsort", np.argsort))
    got = sort_window(cl, loads)
    assert [chunk.tolist() for chunk in np.split(got[0], 4)] == expected
    assert counter_state(cl) == counter_state(ref_cl)
    assert (calls["sort"], calls["argsort"]) == (sorts, argsorts)


def test_internal_parallel_sort_sorts_the_load_once(monkeypatch):
    """Run formation sorts each window of loads with one call, whose rows
    are the window's loads: two windows of two loads, one of one, and the
    short last load alone."""
    calls = []

    def counted(keys, ties, *buffers):
        calls.append(keys.shape)
        return sort_order(keys, ties, *buffers)

    monkeypatch.setattr(runform, "sort_order", counted)
    cl = build(P=4, D=1, B=2, m=8, N=4 * 44, seed=6)    # M = 32, R = 6
    gen = fill(cl, "duplicate_heavy", 6)
    with helpers.formation_window(cl.cfg, 2):
        form_runs(cl, gen.pe_blocks)
    assert calls == [(2, 32), (2, 32), (1, 32), (1, 16)]


@pytest.mark.parametrize("engine", ["canonical", "striped"])
def test_every_phase_reads_into_one_buffer(engine):
    """Run formation reads its four windows of loads, the all-to-all its
    rounds, the local merge every PE's staged blocks and the striped merge
    its windows of one batch, each into one buffer that the call allocates
    once and every window, round or PE reuses; the striped merge reads
    into the columns formation read into.  The sort still verifies."""
    cl = build(P=4, D=2, B=4, m=32, N=4 * 176, seed=8, randomize=False)
    gen = fill(cl, "worst_case_shift", 8)                   # R = 6
    outs: dict[int, list] = {}
    read = cl.read_blocks

    def recorded(pe, lbs, phase, out=None):
        outs.setdefault(phase, []).append(out)
        return read(pe, lbs, phase, out)

    cl.read_blocks = recorded
    batches, _per_window = helpers.windowed(cl.cfg, 1)      # 11 windows
    # Formation windows of loads 0-1, 2-3, 4 and 5.
    with helpers.formation_window(cl.cfg, 2), batches:
        result = run_sort(cl, gen.pe_blocks, engine)
    assert verify_output(cl, result.layout, gen.count, gen.total).ok
    if engine == "canonical":
        assert result.k_rounds >= 3
        phases = [PHASE_RUN_FORMATION, PHASE_ALL_TO_ALL, PHASE_LOCAL_MERGE]
    else:
        phases = [PHASE_RUN_FORMATION, PHASE_STRIPED_MERGE]
        assert np.shares_memory(outs[PHASE_STRIPED_MERGE][0],
                                outs[PHASE_RUN_FORMATION][0])
    for phase in phases:
        first, *rest = outs[phase]
        assert len(rest) >= 3
        assert all(np.shares_memory(out, first) for out in rest), phase


def test_shuffle_is_seeded_and_respects_toggle():
    cfg = MachineConfig(P=2, D=2, B=4, m=32, N=256, seed=11)
    blocks = list(range(10, 42))
    once = shuffle_block_ids(cfg, 0, blocks)
    again = shuffle_block_ids(cfg, 0, np.array(blocks, np.int64))
    other_pe = shuffle_block_ids(cfg, 1, blocks)
    assert once.dtype == again.dtype == np.int64
    assert once.tolist() == again.tolist()
    assert sorted(once.tolist()) == blocks
    assert once.tolist() != other_pe.tolist()
    off = MachineConfig(P=2, D=2, B=4, m=32, N=256, seed=11, randomize=False)
    assert shuffle_block_ids(off, 0, blocks).tolist() == blocks


def test_shuffle_positions_are_uniform():
    # chi-squared over the position of block 0 across seeds; 3-sigma gate
    n_blocks, trials = 8, 800
    counts = Counter()
    for seed in range(trials):
        cfg = MachineConfig(P=1, D=1, B=1, m=8, N=8, seed=seed)
        order = shuffle_block_ids(cfg, 0, list(range(n_blocks))).tolist()
        counts[order.index(0)] += 1
    expect = trials / n_blocks
    chi2 = sum((counts[i] - expect) ** 2 / expect for i in range(n_blocks))
    dof = n_blocks - 1
    assert chi2 < dof + 3 * (2 * dof) ** 0.5


@pytest.mark.parametrize("randomize", [True, False])
@pytest.mark.parametrize("engine", ["canonical", "striped"])
def test_runs_of_both_engines_hold_the_run_invariants(engine, randomize):
    """Both engines hold a run as ``int64`` PE and block-id columns in run
    order, one entry per block, and ``minima[g]`` is the first key of block
    ``g``.  A canonical run lists its PEs in ascending order, share/B
    blocks each; a striped merge pass's output holds the same
    invariants."""
    cl = build(P=3, D=2, B=4, m=16, N=120, seed=4, randomize=randomize)
    P, B = cl.cfg.P, cl.cfg.B
    gen = fill(cl, "duplicate_heavy", 4)
    inputs = sorted(input_elements(cl, gen))
    form = form_runs if engine == "canonical" else form_striped_runs
    runs = form(cl, gen.pe_blocks)
    assert [run.length for run in runs] == [48, 48, 24]     # M = 48

    def check(run: Run) -> list:
        assert run.pes.dtype == run.lbs.dtype == np.int64
        assert run.minima.dtype == np.uint64
        assert len(run.pes) == len(run.lbs) == len(run.minima) == run.length // B
        elems = read_run(cl, run)
        keys = [key for key, _serial in elems]
        assert keys == sorted(keys) and len(elems) == run.length
        assert run.minima.tolist() == keys[::B]
        return elems

    gathered = [e for run in runs for e in check(run)]
    assert sorted(gathered) == inputs
    if engine == "canonical":
        for run in runs:
            assert run.pes.tolist() == np.repeat(
                np.arange(P), run.length // P // B).tolist()
    else:
        assert sorted(check(striped_merge_pass(cl, runs, 0))) == inputs


def test_random_loads_spread_over_input_blocks():
    # with the shuffle on, the first run should draw blocks from scattered
    # input positions rather than the first prefix
    cfg = MachineConfig(P=1, D=2, B=4, m=64, N=1024, seed=8)
    blocks = list(range(256))
    order = shuffle_block_ids(cfg, 0, blocks)
    first_load = order[:16]
    assert max(first_load) > 32   # astronomically unlikely to fail by chance
    spread = np.std(first_load)
    assert spread > 20
