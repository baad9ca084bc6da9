"""Striped runs, prediction sequences, prefetch schedules, merge passes."""
from __future__ import annotations

import hashlib
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from emsort import runform, striped
from emsort.core import (
    CONTROL, DATA_PHASES, MachineConfig, PHASE_STRIPED_MERGE, SENT,
)
from emsort.harness import (
    InputSpec, SortResult, generate_input, report_stats, run_sort,
)
from emsort.runform import Run, form_runs
from emsort.schedule import naive_steps, prefetch_schedule, verify_schedule
from emsort.striped import (
    build_prediction_sequence, form_striped_runs, striped_merge_pass,
    striped_sort,
)
from emsort.vdisk import Cluster, OutputLayout

import helpers
from helpers import (
    addresses, build, fill, input_elements, is_allocated, on, oracle_agrees,
    windowed,
)


def formed(P=2, B=4, m=32, N=256, kind="random", seed=0, **kw):
    cl = build(P=P, D=2, B=B, m=m, N=N, seed=seed, **kw)
    gen = fill(cl, kind, seed)
    inputs = input_elements(cl, gen)
    runs = form_striped_runs(cl, gen.pe_blocks)
    return cl, inputs, runs


def run_elements(cl, run: Run):
    out = []
    for pe, lb in addresses(run):
        out.extend(cl.peek_blocks(*on(pe, [lb])).tolist())
    return out


# --- run formation -------------------------------------------------------------

def test_striped_runs_are_sorted_and_partition_the_input():
    cl, inputs, runs = formed(seed=1)
    assert len(runs) == cl.cfg.R
    gathered = []
    for run in runs:
        elems = run_elements(cl, run)
        keys = [e[0] for e in elems]
        assert keys == sorted(keys)
        assert run.length == len(elems)
        gathered.extend(elems)
    assert sorted(gathered) == sorted(inputs)


def test_striped_runs_go_round_robin_over_all_disks():
    cl, _inputs, runs = formed(seed=2)
    D_total = cl.cfg.total_disks
    for i, run in enumerate(runs):
        start = striped._run_start_disk(cl, 2, i)
        assert (run.pes * cl.cfg.D + run.lbs % cl.cfg.D).tolist() == [
            (start + g) % D_total for g in range(len(run.lbs))]


def test_formation_costs_one_read_one_write_per_element():
    cl, _inputs, _runs = formed(seed=4)
    assert cl.counters.element_io(cl.cfg.B, DATA_PHASES) == 2 * cl.cfg.N


# --- prediction sequences --------------------------------------------------------

def test_prediction_sequence_is_sorted_and_complete():
    cl, _inputs, runs = formed(seed=5)
    entries = list(zip(*(col.tolist() for col in build_prediction_sequence(cl, runs))))
    assert entries == sorted(entries)
    assert len(entries) == sum(len(run.lbs) for run in runs)
    seen = {(j, g) for (_k, j, g) in entries}
    assert len(seen) == len(entries)


def test_prediction_sequence_charges_control_traffic():
    cl, _inputs, runs = formed(seed=6)
    traffic = cl.counters.traffic[PHASE_STRIPED_MERGE]
    before = traffic[CONTROL].tolist()
    build_prediction_sequence(cl, runs)
    after = traffic[CONTROL].tolist()
    assert any(a > b for a, b in zip(after, before))
    assert traffic[SENT].sum() == 0


# --- prefetch scheduling ----------------------------------------------------------

def test_schedule_single_disk_is_sequential():
    disks = [0] * 6
    steps = prefetch_schedule(disks, W=2, D_total=1)
    assert verify_schedule(disks, steps, W=2) == 6


def test_schedule_round_robin_reaches_full_parallelism():
    D = 4
    disks = [i % D for i in range(32)]
    steps = prefetch_schedule(disks, W=D, D_total=D)
    assert verify_schedule(disks, steps, W=D) == 8


COLUMNS = pytest.mark.parametrize(
    "column", [list, lambda disks: np.array(disks, np.int64)],
    ids=["list", "column"])


@COLUMNS
def test_schedule_rejects_tiny_buffer_and_bad_disk(column):
    with pytest.raises(ValueError, match="cannot serve"):
        prefetch_schedule(column([0, 1]), W=1, D_total=2)
    for bad in ([0, 2], [-1, 0]):       # past the last disk, below the first
        with pytest.raises(ValueError, match="out of range"):
            prefetch_schedule(column(bad), W=2, D_total=2)


@COLUMNS
def test_schedule_of_no_blocks_is_an_empty_column(column):
    steps = prefetch_schedule(column([]), W=2, D_total=2)
    assert steps.dtype == np.int64 and steps.shape == (0,)


def test_verify_schedule_catches_violations():
    disks = [0, 0]
    with pytest.raises(ValueError):
        verify_schedule(disks, [0, 0], W=2)        # same disk twice per step
    with pytest.raises(ValueError):
        verify_schedule([0, 1, 0], [0, 0, 2], W=1)  # buffer overflow
    assert verify_schedule([], [], W=1) == 0


def test_schedules_beat_or_match_naive_in_order_fetching():
    rng = random.Random(71)
    for _ in range(60):
        D = rng.randint(1, 8)
        L = rng.randint(1, 128)
        disks = [rng.randrange(D) for _ in range(L)]
        for W in (D, 2 * D, 4 * D):
            steps = prefetch_schedule(disks, W, D)
            assert verify_schedule(disks, steps, W) <= naive_steps(disks, W)


def test_buffered_duality_gains_on_skewed_sequences():
    # a long same-disk stretch followed by spread-out blocks: the naive
    # fetcher stalls on the stretch, the dual schedule overlaps it
    disks = [0] * 8 + [1, 2, 3] * 8
    W, D = 12, 4
    steps = prefetch_schedule(disks, W, D)
    assert verify_schedule(disks, steps, W) < naive_steps(disks, W)


@st.composite
def prediction_disks(draw):
    """A disk sequence with a buffer of ``D_total`` to three times it:
    stretches on one disk or cycling over every disk, drawn blocks, or
    none.  Long draws hold 3 to 8 stretches of 500 to 2,000 blocks, most
    past one stall test's ``schedule.LOOKAHEAD`` blocks."""
    D_total = draw(st.integers(1, 6))
    W = draw(st.sampled_from([D_total, D_total + 1,
                              draw(st.integers(D_total, 3 * D_total))]))
    disk = st.integers(0, D_total - 1)
    long = draw(st.booleans())
    lengths = st.integers(500, 2000) if long else st.integers(1, 20)
    stretches = draw(st.lists(st.tuples(disk, lengths, st.booleans()),
                              min_size=3 if long else 0, max_size=8))
    disks = [d if same else (d + i) % D_total
             for d, n, same in stretches for i in range(n)]
    if not long and draw(st.booleans()):
        disks = draw(st.permutations(disks))
    return disks, W, D_total


@settings(max_examples=100, deadline=None)
@given(prediction_disks())
@example(([], 1, 1))
@example(([0] * 30 + [1, 2] * 5, 3, 3))       # a long same-disk stretch
@example(([0, 1, 2, 3] * 6 + [2] * 9, 4, 4))  # W = D_total
def test_prefetch_schedule_matches_the_step_by_step_buffer(drawn):
    disks, W, D_total = drawn
    steps = prefetch_schedule(disks, W, D_total)
    assert steps.dtype == np.int64
    assert steps.tolist() == helpers.prefetch_schedule(disks, W, D_total)


def striped_deep_passes():
    """The disk sequences of the merge passes of perfbench's
    ``striped_deep`` sort at seed 1009: 8,192, 8,192 and 16,384 blocks."""
    cfg = MachineConfig(P=4, D=2, B=16, m=512, N=2**18, randomize=True,
                        seed=1009)
    cl = Cluster(cfg)
    gen = generate_input(cl, InputSpec("random", cfg.N, cfg.seed))
    with mock.patch.object(striped, "prefetch_schedule",
                           wraps=prefetch_schedule) as planned:
        striped_sort(cl, gen.pe_blocks)
    return [call.args for call in planned.call_args_list]


def long_sequences(case: str):
    """Seeded sequences of at least 10,000 blocks for each way the
    schedule goes: stretches that pass the stall test, single stalls and
    stretches that stall densely."""
    if case == "striped_deep":
        return striped_deep_passes()
    rng = np.random.default_rng(32)
    if case == "W = P*D, random disks":
        return [(rng.integers(0, 8, 12_000), 8, 8)]
    if case == "same-disk stretches of 2048":
        return [(np.repeat(rng.integers(0, 8, 6), 2048), 64, 8)]
    return [(rng.integers(0, 512, 12_000), 512, 512)]   # P*D = 512


@pytest.mark.parametrize("case", [
    "striped_deep", "W = P*D, random disks", "same-disk stretches of 2048",
    "P*D = 512"])
def test_prefetch_schedule_at_length_matches_the_step_by_step_buffer(case):
    sequences = long_sequences(case)
    assert sum(len(disks) for disks, _W, _D in sequences) >= 10_000
    for disks, W, D_total in sequences:
        assert prefetch_schedule(disks, W, D_total).tolist() == \
            helpers.prefetch_schedule(disks.tolist(), W, D_total)


@st.composite
def small_schedules(draw):
    """At most 9 blocks on at most 3 disks, with a buffer of ``D_total``
    to ``2·D_total + 1`` blocks."""
    D_total = draw(st.integers(1, 3))
    disks = draw(st.lists(st.integers(0, D_total - 1), max_size=9))
    return disks, draw(st.integers(D_total, 2 * D_total + 1)), D_total


@settings(max_examples=200, deadline=None)
@given(small_schedules())
@example(([0] * 4 + [1, 2] * 2, 5, 3))   # a step fewer than the naive fetcher
def test_prefetch_schedule_takes_the_fewest_steps(drawn):
    disks, W, D_total = drawn
    steps = prefetch_schedule(disks, W, D_total)
    assert verify_schedule(disks, steps, W) == helpers.optimal_steps(disks, W)


# --- merge passes -----------------------------------------------------------------

def test_merge_pass_produces_one_sorted_striped_run():
    cl, inputs, runs = formed(P=2, N=256, seed=7)    # R=4, arity=8
    out = striped_merge_pass(cl, runs, start_disk=0)
    elems = run_elements(cl, out)
    assert oracle_agrees(inputs, elems)
    assert out.length == cl.cfg.N
    # inputs were consumed
    for run in runs:
        for pe, lb in addresses(run):
            assert not is_allocated(cl, pe, lb)


def test_merge_pass_rejects_too_many_runs():
    cl, _inputs, runs = formed(P=1, B=4, m=16, N=128, seed=8)   # arity=2, R=8
    with pytest.raises(ValueError):
        striped_merge_pass(cl, runs, start_disk=0)


def test_striped_sort_single_run_needs_no_pass():
    cl, inputs, _ = formed(P=2, N=64, seed=9)
    cl2 = build(P=2, D=2, B=4, m=32, N=64, seed=9)
    gen2 = fill(cl2, "random", 9)
    final, passes = striped_sort(cl2, gen2.pe_blocks)
    assert passes == 0
    assert cl2.counters.element_io(cl2.cfg.B, DATA_PHASES) == 2 * cl2.cfg.N


def test_striped_sort_pass_counts_match_config():
    for N, want in ((256, 1), (1024, 2)):          # R=4 =arity, R=16=arity^2
        cfg = MachineConfig(P=1, D=2, B=4, m=64, N=N, seed=10)
        assert cfg.merge_arity == 8 if N == 256 else True
        cl = Cluster(cfg)
        gen = fill(cl, "random", 10)
        inputs = input_elements(cl, gen)
        final, passes = striped_sort(cl, gen.pe_blocks)
        assert passes == cfg.striped_passes()
        assert oracle_agrees(inputs, run_elements(cl, final))
        io = cl.counters.element_io(cfg.B, DATA_PHASES)
        assert io == 2 * cfg.N * (passes + 1)


def test_striped_sort_output_balances_disks():
    cl = build(P=2, D=2, B=4, m=32, N=512, seed=11)
    gen = fill(cl, "random", 11)
    final, _passes = striped_sort(cl, gen.pe_blocks)
    per_disk = np.bincount(final.pes * cl.cfg.D + final.lbs % cl.cfg.D,
                           minlength=cl.cfg.total_disks)
    assert per_disk.max() - per_disk.min() <= 1


def test_striped_sort_carries_odd_group_through():
    # R=3 with arity 2: first pass merges a pair and carries the third run,
    # second pass merges the two survivors
    cfg = MachineConfig(P=1, D=2, B=4, m=16, N=48, seed=12)
    assert cfg.R == 3 and cfg.merge_arity == 2
    cl = Cluster(cfg)
    gen = fill(cl, "random", 12)
    inputs = input_elements(cl, gen)
    final, passes = striped_sort(cl, gen.pe_blocks)
    assert passes == 2
    assert oracle_agrees(inputs, run_elements(cl, final))


def test_merge_pass_records_io_steps():
    cl, _inputs, runs = formed(P=2, N=256, seed=13)
    before = cl.counters.steps[PHASE_STRIPED_MERGE]
    out = striped_merge_pass(cl, runs, start_disk=0)
    steps = cl.counters.steps[PHASE_STRIPED_MERGE] - before
    blocks = len(out.lbs)
    lower = -(-blocks // cl.cfg.total_disks) * 2    # read + write optimum
    assert steps >= lower
    assert steps <= 2 * blocks + 2


def counting(cl):
    """Count the calls to ``cl``'s block-run and allocation methods."""
    calls: Counter[str] = Counter()
    for name in ("read_blocks", "free_blocks", "write_blocks", "alloc_blocks",
                 "alloc_stripe"):
        def counted(*args, _method=getattr(cl, name), _name=name, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)
        setattr(cl, name, counted)
    return calls


@pytest.mark.parametrize("batches", [1, 3, None])
def test_merge_pass_moves_whole_batches(batches):
    """Per window of whole batches, one read call, one ``batch_merge``
    call, one free call and at most one write call; one stripe allocation
    for the output: a return to calls per batch, per PE or per block fails
    here."""
    cl, _inputs, runs = formed(P=2, N=256, seed=14)     # 64 blocks, batches of 8
    calls = counting(cl)
    log: list[str] = []
    for name in ("read_blocks", "free_blocks", "write_blocks"):
        def logged(*args, _method=getattr(cl, name), _name=name, **kwargs):
            log.append(_name)
            return _method(*args, **kwargs)
        setattr(cl, name, logged)
    merges = []

    def merge(*args, _kernel=striped.batch_merge, **kwargs):
        merges.append(args)
        return _kernel(*args, **kwargs)

    window, per_window = windowed(cl.cfg, batches)
    with window, mock.patch.object(striped, "batch_merge", merge):
        out = striped_merge_pass(cl, runs, start_disk=0)
    batches_in_pass = -(-len(out.lbs) // (cl.cfg.M // (2 * cl.cfg.B)))
    assert batches_in_pass == 8
    windows = -(-batches_in_pass // per_window)
    assert calls["read_blocks"] == len(merges) == windows
    assert log[0] == "read_blocks"
    per_window_calls = " ".join(log).split("read_blocks")[1:]
    for names in per_window_calls:
        assert names.count("free_blocks") == 1, log
        assert names.count("write_blocks") <= 1, log
    assert (calls["alloc_stripe"], calls["alloc_blocks"]) == (1, 0)


def windowed_formation(P: int, seed: int):
    """A cluster, its random input of six memory loads, the last one short,
    and a patch of run formation's window to two loads: windows of loads
    0-1, 2-3, 4 and the short load 5."""
    cl = build(P=P, D=2, B=4, m=32, N=176 * P, seed=seed)
    gen = fill(cl, "random", seed)
    window = helpers.formation_window(cl.cfg, 2)
    with window:
        assert runform.windows(cl.cfg) == [(0, 2, 32), (2, 2, 32),
                                           (4, 1, 32), (5, 1, 16)]
    return cl, gen, window


@pytest.mark.parametrize("P", [1, 3, 4])
@pytest.mark.parametrize("engine", ["canonical", "striped"])
def test_formation_moves_each_run_with_one_call_each(engine, P):
    """Both engines read each window of loads with one call; the canonical
    engine writes it back with one, and the striped engine reserves its
    stripes with one and frees and writes it with one call each: a
    return to calls per load, per PE or per block fails here."""
    cl, gen, window = windowed_formation(P, seed=15)
    calls = counting(cl)
    log: list[str] = []
    for name in ("read_blocks", "free_blocks", "write_blocks"):
        def logged(*args, _method=getattr(cl, name), _name=name, **kwargs):
            log.append(_name)
            return _method(*args, **kwargs)
        setattr(cl, name, logged)
    with window:
        runs = (form_runs if engine == "canonical" else form_striped_runs)(
            cl, gen.pe_blocks)
    assert len(runs) == cl.cfg.R == 6
    assert calls["read_blocks"] == 4 and calls["alloc_blocks"] == 0
    if engine == "canonical":
        assert calls["alloc_stripe"] == 0
        assert log == ["read_blocks", "write_blocks"] * 4
    else:
        assert calls["alloc_stripe"] == 4
        assert log == ["read_blocks", "free_blocks", "write_blocks"] * 4


@pytest.mark.parametrize("engine", ["canonical", "striped"])
def test_each_engine_sorts_its_loads_through_its_own_binding(engine,
                                                             monkeypatch):
    """Each engine's run formation calls its own module's binding of
    ``internal_parallel_sort`` once per window of loads and the other one
    never, so that a tracer rebinding both names (``perfbench/tracing.py``)
    records each engine's spans where they happen."""
    calls: Counter[str] = Counter()
    for module in (runform, striped):
        def counted(*args, _kernel=module.internal_parallel_sort,
                    _name=module.__name__, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(module, "internal_parallel_sort", counted)
    cl, gen, window = windowed_formation(2, seed=16)
    with window:
        run_sort(cl, gen.pe_blocks, engine)
    own = "emsort.runform" if engine == "canonical" else "emsort.striped"
    assert calls == {own: 4}


# --- parity with the block-at-a-time engine ------------------------------------

@st.composite
def striped_configs(draw):
    """A small config the striped engine runs, with 1 to 12 runs (the last
    one possibly short), and an input kind."""
    P = draw(st.integers(1, 4))
    B = draw(st.sampled_from([2, 4]))
    low = -(-4 // P)                                    # merge arity >= 2
    share = draw(st.integers(low, low + 3))             # m / B
    runs = draw(st.integers(1, 12))
    N = P * B * (share * (runs - 1) + draw(st.integers(1, share)))
    m = B * share
    cfg = MachineConfig(P=P, D=draw(st.integers(1, 3)), B=B, m=m, N=N,
                        seed=draw(st.integers(0, 1 << 16)),
                        randomize=draw(st.booleans()))
    return cfg, draw(st.sampled_from(["random", "duplicate_heavy",
                                      "worst_case_shift"]))


def sorted_by(sort, cfg: MachineConfig, kind: str):
    """Stripe, output, stats digest and per-PE peak of one striped sort."""
    cl = Cluster(cfg)
    gen = generate_input(cl, InputSpec(kind, cfg.N, cfg.seed))
    final, passes = sort(cl, gen.pe_blocks)
    stripe = final.blocks if isinstance(final, helpers.ReferenceStripedRun) \
        else addresses(final)
    layout = OutputLayout("striped", [pe for pe, _lb in stripe],
                          [lb for _pe, lb in stripe])
    result = SortResult("striped", layout, cl.counters, merge_passes=passes)
    stats = "\n".join(line for line in report_stats(cfg, result, kind).splitlines()
                      if not line.startswith("# wall_seconds="))
    return (stripe, [cl.peek_blocks(*on(pe, [lb])).tolist() for pe, lb in stripe],
            list(final.minima), hashlib.sha256(stats.encode()).hexdigest(),
            [cl.peak_allocated(pe) for pe in range(cfg.P)])


@settings(max_examples=60, deadline=None)
@given(striped_configs())
def test_striped_sort_matches_the_reference_kernel(drawn):
    cfg, kind = drawn
    assert sorted_by(striped_sort, cfg, kind) == sorted_by(helpers.striped_sort,
                                                           cfg, kind)


def passes_by(merge_pass, cfg: MachineConfig, kind: str):
    """Every run that the merge passes of a striped sort make when they run
    ``merge_pass``, with the counters, per-PE peaks, live block ids and
    stored blocks the sort leaves."""
    made = []

    def recorded(*args):
        made.append(merge_pass(*args))
        return made[-1]

    cl = Cluster(cfg)
    gen = generate_input(cl, InputSpec(kind, cfg.N, cfg.seed))
    with mock.patch.object(striped, "striped_merge_pass", recorded):
        striped_sort(cl, gen.pe_blocks)
    live = [helpers.live_blocks(cl, pe) for pe in range(cfg.P)]
    return ([(run.length, run.pes.tolist(), run.lbs.tolist(),
              run.minima.tolist()) for run in made],
            helpers.counter_state(cl),
            [cl.peak_allocated(pe) for pe in range(cfg.P)], live,
            [cl.peek_blocks(*on(pe, lbs)).tolist() for pe, lbs in enumerate(live)])


@pytest.mark.parametrize("batches", [1, 3, None])
@settings(max_examples=60, deadline=None)
@given(striped_configs())
@example((MachineConfig(P=2, D=3, B=4, m=32, N=4000, seed=5), "duplicate_heavy"))
@example((MachineConfig(P=3, D=2, B=2, m=6, N=150, seed=9, randomize=False),
          "duplicate_heavy"))
def test_planned_merge_pass_matches_the_per_batch_pass(batches, drawn):
    """The pass planned once gives the per-batch pass's runs (columns and
    minima), counters, per-PE peaks, live block ids and stored blocks,
    with windows of ``batches`` batches: every drawn config fits one
    default window, so only a smaller one spans several."""
    cfg, kind = drawn
    window, _per_window = windowed(cfg, batches)
    with window:
        planned = passes_by(striped_merge_pass, cfg, kind)
    assert planned == passes_by(helpers.per_batch_striped_merge_pass, cfg, kind)


@pytest.mark.parametrize("batches", [1, None])
def test_merge_pass_refuses_blocks_fetched_early(batches):
    """Two late blocks of one run whose minima claim the smallest key are
    fetched with the first batch, and their elements stay buffered past
    it: the leftover check refuses the pass, whatever the window."""
    cl, _inputs, runs = formed(P=2, N=256, seed=16)     # 4 runs, batches of 8
    runs[0].minima[-3:-1] = 0
    window, _per_window = windowed(cl.cfg, batches)
    with window, pytest.raises(RuntimeError, match="leftover"):
        striped_merge_pass(cl, runs, start_disk=0)


@st.composite
def fetch_schedules(draw):
    """A prefetch schedule, as built or with one fault: a disk fetched twice
    in a step, a step moved early enough to overflow the buffer, a
    negative step, or any steps at all."""
    D_total = draw(st.integers(1, 4))
    disks = draw(st.lists(st.integers(0, D_total - 1), max_size=24))
    W = draw(st.integers(D_total, 3 * D_total))
    steps = prefetch_schedule(disks, W, D_total).tolist()
    fault = draw(st.sampled_from(["none", "twice", "early", "negative", "any"]))
    if disks and fault != "none":
        i = draw(st.integers(0, len(disks) - 1))
        if fault == "twice":
            same = [j for j, d in enumerate(disks) if d == disks[i] and j != i]
            if same:
                steps[i] = steps[draw(st.sampled_from(same))]
        elif fault == "early":
            steps[i] = draw(st.integers(0, steps[i]))
        elif fault == "negative":
            steps[i] = draw(st.integers(-3, -1))
        else:
            steps = draw(st.lists(st.integers(-1, 2 * len(disks)),
                                  min_size=len(disks), max_size=len(disks)))
    return disks, steps, W


def replay(verify, disks, steps, W):
    try:
        return verify(disks, steps, W)
    except ValueError:
        return "refused"


@given(fetch_schedules())
def test_verify_schedule_matches_the_step_by_step_replay(drawn):
    disks, steps, W = drawn
    assert replay(verify_schedule, disks, steps, W) == \
        replay(helpers.verify_schedule, disks, steps, W)
