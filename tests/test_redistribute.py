"""Splitter computation, round scheduling, and the external all-to-all."""
from __future__ import annotations

import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from emsort.core import (
    CONTROL, DATA_PHASES, ELEM, MachineConfig, PHASE_ALL_TO_ALL,
    PHASE_SELECTION, READ, SENT, WRITE, sentinel_mask, validate_config,
)
from emsort.harness import InputSpec, generate_input, report_stats, run_sort, verify_output
from emsort.merge import local_multiway_merge
from emsort.redistribute import (
    PlanError, _ranges, _schedule_flows, compute_splitters,
    external_all_to_all, per_run_moved,
)
from emsort.runform import form_runs
from emsort.vdisk import Cluster

from helpers import (
    build, fill, input_elements, is_allocated, live_blocks, on,
    schedule_flows, stored_elements,
)

SELECT, EXCHANGE = PHASE_SELECTION, PHASE_ALL_TO_ALL


# --- oracle -----------------------------------------------------------------

def brute_force_boundaries(cl, runs):
    """Cut positions per boundary rank, from a flat global sort."""
    P = cl.cfg.P
    entries = []
    for j, run in enumerate(runs):
        keys = cl.peek_blocks(run.pes, run.lbs)["key"].tolist()
        entries.extend((key, j, pos) for pos, key in enumerate(keys))
    entries.sort()
    total = len(entries)
    pos = [[0] * len(runs)]
    for t in range(1, P):
        cut = [0] * len(runs)
        for _key, j, p in entries[: t * (total // P)]:
            cut[j] = max(cut[j], p + 1)
        pos.append(cut)
    pos.append([run.length for run in runs])
    return pos


def formed(P=4, B=4, m=32, N=384, kind="random", seed=0, **kw):
    cl = build(P=P, D=2, B=B, m=m, N=N, seed=seed, **kw)
    gen = fill(cl, kind, seed)
    runs = form_runs(cl, gen.pe_blocks)
    return cl, gen, runs


def test_splitters_match_brute_force_partition():
    for seed in range(4):
        cl, _gen, runs = formed(seed=seed)
        matrix = compute_splitters(cl, runs)
        assert matrix.pos == brute_force_boundaries(cl, runs)


def test_splitters_on_duplicate_heavy_input():
    cl, _gen, runs = formed(kind="duplicate_heavy", seed=9)
    matrix = compute_splitters(cl, runs)
    assert matrix.pos == brute_force_boundaries(cl, runs)


def test_single_processor_has_trivial_matrix():
    cl, _gen, runs = formed(P=1, m=64, N=256)
    matrix = compute_splitters(cl, runs)
    assert matrix.pos == [[0] * len(runs), [run.length for run in runs]]
    assert per_run_moved(runs, matrix) == [0] * len(runs)


def test_sorted_input_needs_no_movement():
    cl, _gen, runs = formed(kind="sorted", seed=0)
    matrix = compute_splitters(cl, runs)
    assert per_run_moved(runs, matrix) == [0] * len(runs)
    # boundary t of every run sits exactly at t * share
    for t, row in enumerate(matrix.pos):
        for j, run in enumerate(runs):
            expected = min(t, cl.cfg.P) * (run.length // cl.cfg.P)
            assert row[j] == expected


def test_moved_volume_counts_elements_cut_away_from_their_holder():
    cl, _gen, runs = formed(seed=13)
    matrix = compute_splitters(cl, runs)
    P = cl.cfg.P
    # (holder, destination) of every run position
    moves = [[(p // (run.length // P), t) for t in range(P)
              for p in range(matrix.pos[t][j], matrix.pos[t + 1][j])]
             for j, run in enumerate(runs)]
    expected = [sum(q != t for q, t in run_moves) for run_moves in moves]
    assert per_run_moved(runs, matrix) == expected
    redist = external_all_to_all(cl, runs, matrix)
    assert redist.v_moved == sum(expected) > 0
    pairs = {(q, t) for run_moves in moves for q, t in run_moves if q != t}
    assert redist.partners == [sum(q == p for q, _t in pairs) for p in range(P)]


def test_splitter_search_uses_samples_sparingly():
    cl, _gen, runs = formed(P=8, N=768, seed=21)
    reads = cl.counters.blocks[SELECT, READ]
    before = int(reads.sum())
    matrix = compute_splitters(cl, runs)
    import math
    per_rank = math.ceil(math.log2(cl.cfg.B)) + 1
    assert matrix.rounds <= (cl.cfg.P - 1) * per_rank
    assert 0 < int(reads.sum()) - before <= matrix.touched


# --- round scheduling --------------------------------------------------------

def round_loads(flows, pieces, k, P):
    """Elements each PE sends and receives in each round."""
    send = [[0] * P for _ in range(k)]
    recv = [[0] * P for _ in range(k)]
    for (q, t, _j, _lo, _hi), mine in zip(flows, pieces):
        for r, a, b in mine:
            send[r][q] += b - a
            recv[r][t] += b - a
    return send, recv


@pytest.mark.parametrize("flows", [
    [(0, 1, 0, 0, 100)],
    [(0, 1, 0, 0, 50), (0, 2, 0, 50, 100)],     # the send side binds
    [(1, 0, 0, 0, 50), (2, 0, 0, 50, 100)],     # the receive side binds
])
def test_schedule_flows_splits_traffic_over_the_budget(flows):
    k, pieces = _schedule_flows(flows, 12, 4, 3)
    assert k == 9                                # ceil(100 / 12)
    send, recv = round_loads(flows, pieces, k, 3)
    assert max(map(max, send)) == max(map(max, recv)) == 12
    for (_q, _t, _j, lo, hi), mine in zip(flows, pieces):
        assert [mine[0][1], mine[-1][2]] == [lo, hi]
        assert all(x[2] == y[1] for x, y in zip(mine, mine[1:]))


def test_schedule_flows_keeps_each_flow_in_position_order():
    rng = random.Random(5058)
    P, B = 4, 4
    for eff in (4, 12, 16):
        flows = []
        for _ in range(30):
            q, t = rng.sample(range(P), 2)
            lo = rng.randrange(64)
            flows.append((q, t, rng.randrange(3), lo, lo + rng.randint(1, 40)))
        k, pieces = _schedule_flows(flows, eff, B, P)
        send, recv = round_loads(flows, pieces, k, P)
        assert max(map(max, send)) <= eff and max(map(max, recv)) <= eff
        for (_q, _t, _j, lo, hi), mine in zip(flows, pieces):
            rounds = [r for r, _a, _b in mine]
            assert rounds == sorted(rounds)
            assert [mine[0][1], mine[-1][2]] == [lo, hi]
            assert all(x[2] == y[1] for x, y in zip(mine, mine[1:]))
            # every piece but the flow's last is whole blocks
            assert all((b - a) % B == 0 for _r, a, b in mine[:-1])


def test_schedule_flows_needs_a_block_of_budget_only_for_a_flow():
    with pytest.raises(PlanError):
        _schedule_flows([(0, 1, 0, 0, 8)], 3, 4, 2)
    assert _schedule_flows([], 0, 4, 2) == (0, [])


@st.composite
def flow_sets(draw):
    """Flows with unaligned starts, most longer than a block, under a
    per-round budget that is often not a multiple of the block size."""
    P = draw(st.integers(2, 4))
    B = draw(st.integers(1, 8))
    flows = []
    for _ in range(draw(st.integers(0, 25))):
        q, t = draw(st.permutations(range(P)))[:2]
        lo = draw(st.integers(0, 50))
        flows.append((q, t, draw(st.integers(0, 2)), lo,
                      lo + draw(st.integers(1, 6 * B + 3))))
    return flows, draw(st.integers(B, 5 * B)), B, P


@given(flow_sets())
# The second flow's block misses round 0; its 2-element tail would fit
# there but follows the block into round 1.
@example(([(0, 1, 0, 0, 4), (0, 1, 0, 0, 6)], 6, 4, 2))
@example(([(0, 1, 0, 3, 12), (2, 1, 1, 5, 7), (0, 2, 0, 1, 30)], 10, 4, 3))
def test_schedule_flows_matches_the_per_block_reference(case):
    """Placing full blocks by count gives the same round count and the same
    (round, lo, hi) pieces as the per-block first fit."""
    assert _schedule_flows(*case) == schedule_flows(*case)


def test_a_short_final_piece_never_goes_back_a_round():
    assert _schedule_flows([(0, 1, 0, 0, 4), (0, 1, 0, 0, 6)], 6, 4, 2) == \
        (2, [[(0, 0, 4)], [(1, 0, 6)]])


def test_compute_splitters_charges_two_words_per_sample_and_the_cuts():
    """The sample is every run block's minimum: each PE gathers 2 words
    for every run block another PE holds, ``2 (S - S_p)`` for the ``S_p``
    of ``S`` that PE p holds, and every PE but 0 receives PE 0's P - 1
    cuts of every run."""
    for P, B, N in ((4, 4, 384), (3, 2, 288), (2, 8, 256), (1, 4, 256)):
        cl, _gen, runs = formed(P=P, B=B, m=32, N=N, seed=P)
        compute_splitters(cl, runs)
        held = [sum(run.length // P // B for run in runs)] * P
        assert held == np.bincount(np.concatenate([run.pes for run in runs]),
                                   minlength=P).tolist()
        assert cl.counters.traffic[SELECT, CONTROL].tolist() == \
            [2 * (sum(held) - held[p]) + (p > 0) * (P - 1) * len(runs)
             for p in range(P)]


#: The perfbench ``canonical_shift`` config and the criterion-3 config, with
#: their exchange rounds, moved volume, selection control words per PE and
#: peak allocated blocks per PE, as the per-rank and per-block planners gave.
PLANNED = [
    (dict(P=8, D=2, B=64, m=16384, N=1 << 18, seed=1009),
     3, 229376, [7168] + [7182] * 7, [768] + [1024] * 6 + [768]),
    (dict(P=4, D=2, B=4, m=1024, N=1 << 20, seed=303),
     258, 786432, [393216] + [393984] * 3, [98304, 131072, 131072, 98304]),
]


@pytest.mark.parametrize("config, k, v_moved, control, peaks", PLANNED,
                         ids=["canonical_shift", "criterion_3"])
def test_worst_shift_plan_matches_the_record(config, k, v_moved, control, peaks):
    cfg = MachineConfig(**config, randomize=False)
    cl = Cluster(cfg)
    gen = generate_input(cl, InputSpec("worst_case_shift", cfg.N, cfg.seed))
    result = run_sort(cl, gen.pe_blocks, "canonical")
    assert (result.k_rounds, result.v_moved,
            cl.counters.traffic[SELECT, CONTROL].tolist(),
            [cl.peak_allocated(pe) for pe in range(cfg.P)]) == \
        (k, v_moved, control, peaks)


def test_one_block_of_memory_sorts_without_exchange_rounds():
    cfg = MachineConfig(P=1, D=1, B=4, m=4, N=4)
    assert validate_config(cfg, "canonical") == []
    cl = Cluster(cfg)
    gen = fill(cl, "reverse")
    result = run_sort(cl, gen.pe_blocks, "canonical")
    assert verify_output(cl, result.layout, gen.count, gen.total).ok
    assert result.k_rounds == 0
    assert "# k_rounds=0\n" in report_stats(cfg, result)


# --- executing the exchange ---------------------------------------------------

def staged_tiles_exactly(cl, runs, matrix, redist):
    """Every destination's staged pieces tile its cut of every run, in
    (run, position) order, and its table lists each piece's blocks."""
    B = cl.cfg.B
    for t, table in enumerate(redist.staged):
        rows = list(zip(table.run.tolist(), table.pos.tolist(),
                        table.length.tolist()))
        assert rows == sorted(rows)
        for j, run in enumerate(runs):
            cursor = matrix.pos[t][j]
            for _j, pos, length in (row for row in rows if row[0] == j):
                assert pos == cursor
                cursor += length
            assert cursor == matrix.pos[t + 1][j]
        assert len(table.ids) == sum(-(-(table.start + table.length) // B))


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 4)), max_size=8))
def test_ranges_joins_one_arange_per_pair(pairs):
    first = np.array([f for f, _c in pairs], np.int64)
    count = np.array([c for _f, c in pairs], np.int64)
    expected = [v for f, c in pairs for v in range(f, f + c)]
    assert _ranges(first, count).tolist() == expected


def test_exchange_delivers_exact_slices():
    cl, gen, runs = formed(seed=2)
    inputs = sorted(input_elements(cl, gen))
    matrix = compute_splitters(cl, runs)
    redist = external_all_to_all(cl, runs, matrix)
    assert redist.v_moved == sum(per_run_moved(runs, matrix))
    staged_tiles_exactly(cl, runs, matrix, redist)
    # staged content is exactly the input multiset
    B = cl.cfg.B
    staged_elems = []
    for t, table in enumerate(redist.staged):
        data = cl.peek_blocks(*on(t, table.ids))
        count = -(-(table.start + table.length) // B)
        at = (np.cumsum(count) - count) * B + table.start
        for a, n in zip(at.tolist(), table.length.tolist()):
            staged_elems.extend(data[a:a + n].tolist())
    assert sorted(staged_elems) == inputs


@st.composite
def exchange_configs(draw):
    """A small canonical config, ``R·B ≤ m`` and ``P·B ≤ m``, and an
    input kind: random, duplicate-heavy or shifted input, with the shuffle
    on or off, whose rank cuts fall anywhere in a block."""
    P, B = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    per = draw(st.integers(P, 3 * P))                   # m / B
    cfg = MachineConfig(P=P, D=draw(st.integers(1, 2)), B=B, m=per * B,
                        N=P * B * draw(st.integers(1, per * per)),
                        seed=draw(st.integers(0, 1 << 16)),
                        randomize=draw(st.booleans()))
    assert validate_config(cfg, "canonical") == []
    return cfg, draw(st.sampled_from(
        ["random", "duplicate_heavy", "worst_case_shift"]))


@settings(max_examples=60, deadline=None)
@given(exchange_configs())
# A round whose first piece is block-aligned, written where it was read,
# and whose second starts mid-block and so moves left.
@example((MachineConfig(P=3, D=1, B=2, m=6, N=24, seed=1), "duplicate_heavy"))
def test_exchange_lays_out_each_piece_and_its_padding(drawn):
    """Every staged piece holds its run's elements ``[lo, hi)`` from its
    start, and every slot after an arrived piece in its last block is a
    sentinel: each round's pieces are moved into place, and padded, in
    the column they were read into."""
    cfg, kind = drawn
    cl = Cluster(cfg)
    runs = form_runs(cl, generate_input(cl, InputSpec(kind, cfg.N,
                                                      cfg.seed)).pe_blocks)
    held = [cl.peek_blocks(run.pes, run.lbs) for run in runs]
    before = {(pe, lb) for run in runs
              for pe, lb in zip(run.pes.tolist(), run.lbs.tolist())}
    redist = external_all_to_all(cl, runs, compute_splitters(cl, runs))
    B = cfg.B
    for pe, table in enumerate(redist.staged):
        data = cl.peek_blocks(*on(pe, table.ids))
        count = -(-(table.start + table.length) // B)
        first = np.cumsum(count) - count
        for g, j, lo, a, n, c in zip(first.tolist(), table.run.tolist(),
                                     table.pos.tolist(), table.start.tolist(),
                                     table.length.tolist(), count.tolist()):
            at = g * B + a
            assert data[at:at + n].tolist() == held[j][lo:lo + n].tolist()
            if (pe, int(table.ids[g])) not in before:       # it arrived
                assert a == 0
                assert sentinel_mask(data[at + n:(g + c) * B]).all()


def test_exchange_allocates_one_round_buffer():
    """On the ``canonical_shift`` config the all-to-all's traced peak is
    below twice its largest round's bytes: its rounds share one column,
    and no round joins its pieces into a second one."""
    cfg = MachineConfig(**PLANNED[0][0], randomize=False)
    cl = Cluster(cfg)
    gen = generate_input(cl, InputSpec("worst_case_shift", cfg.N, cfg.seed))
    runs = form_runs(cl, gen.pe_blocks)
    matrix = compute_splitters(cl, runs)
    rounds = []
    read = cl.read_blocks

    def recorded(pe, lbs, phase, out=None):
        rounds.append(len(lbs) * cfg.B * ELEM.itemsize)
        return read(pe, lbs, phase, out)

    cl.read_blocks = recorded
    tracemalloc.start()
    try:
        redist = external_all_to_all(cl, runs, matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert redist.k == len(rounds) == 3
    assert peak < 2 * max(rounds), (peak, rounds)


def test_exchange_and_merge_make_one_block_call_per_round_and_pe():
    """Over several rounds of shifted input, the all-to-all reads and writes
    each round's blocks in one call each and allocates once per
    destination, and the local merge reads each PE's pieces in one call."""
    cl, _gen, runs = formed(B=4, m=64, N=1024, kind="worst_case_shift",
                            randomize=False)
    matrix = compute_splitters(cl, runs)
    calls: Counter[str] = Counter()
    for name in ("read_blocks", "write_blocks", "alloc_blocks"):
        def counted(pe, *args, _method=getattr(cl, name), _name=name):
            calls[_name] += 1
            calls[_name, *np.unique(pe).tolist()] += 1     # the PEs it names
            return _method(pe, *args)
        setattr(cl, name, counted)
    redist = external_all_to_all(cl, runs, matrix)
    assert redist.k > 1
    assert calls["read_blocks"] <= redist.k, calls
    assert calls["write_blocks"] <= redist.k, calls
    assert calls["alloc_blocks"] <= cl.cfg.P, calls
    calls.clear()
    local_multiway_merge(cl, redist.staged)
    assert [calls["read_blocks", pe] for pe in range(cl.cfg.P)] == [1] * cl.cfg.P


def test_exchange_holds_exactly_its_staged_blocks():
    """After the exchange each PE holds the blocks its table lists, each
    once, and nothing else: no dead run block is left and none is freed
    twice."""
    for seed in (6, 7):
        cl, _gen, runs = formed(seed=seed)
        redist = external_all_to_all(cl, runs, compute_splitters(cl, runs))
        for pe, table in enumerate(redist.staged):
            ids = table.ids.tolist()
            assert len(set(ids)) == len(ids)
            assert sorted(ids) == live_blocks(cl, pe)


def test_exchange_refuses_an_oversized_round_before_writing(monkeypatch):
    """The footprint check reads a round's volume matrix before the round
    writes anything: a schedule that ships every flow in one round is
    refused with no block written."""
    def one_round(flows, eff, B, P):
        return 1, [[(0, lo, hi)] for _q, _t, _j, lo, hi in flows]

    monkeypatch.setattr("emsort.redistribute._schedule_flows", one_round)
    cl, _gen, runs = formed(kind="worst_case_shift", randomize=False)
    matrix = compute_splitters(cl, runs)
    with pytest.raises(PlanError, match=r"round 0 footprint \d+ exceeds m=32"):
        external_all_to_all(cl, runs, matrix)
    assert cl.counters.blocks[EXCHANGE, WRITE].sum() == 0


def test_exchange_io_identity_and_footprint():
    for seed in (3, 4):
        cl, gen, runs = formed(P=4, N=768, m=32, seed=seed)
        matrix = compute_splitters(cl, runs)
        io_before = cl.counters.element_io(cl.cfg.B, DATA_PHASES)
        redist = external_all_to_all(cl, runs, matrix)
        io_after = cl.counters.element_io(cl.cfg.B, DATA_PHASES)
        overhead = cl.counters.overhead[EXCHANGE]
        assert io_after - io_before == 2 * redist.v_moved + overhead
        assert max(redist.peak_footprint) <= cl.cfg.m
        assert redist.k >= 1
        assert cl.counters.steps[EXCHANGE] == redist.k


def test_exchange_reclaims_fully_shipped_blocks():
    cl, gen, runs = formed(seed=6)
    matrix = compute_splitters(cl, runs)
    external_all_to_all(cl, runs, matrix)
    # an original run block survives if and only if it overlaps the piece
    # its holder keeps locally; boundary blocks may briefly duplicate the
    # elements that were also shipped out
    B = cl.cfg.B
    dup_bound = 0
    for j, run in enumerate(runs):
        share = run.length // cl.cfg.P
        for g, (q, lb) in enumerate(zip(run.pes.tolist(), run.lbs.tolist())):
            lo, hi = matrix.pos[q][j], matrix.pos[q + 1][j]
            klo, khi = max(lo, q * share), min(hi, (q + 1) * share)
            g0 = g * B
            overlaps = klo < khi and g0 < khi and g0 + B > klo
            assert is_allocated(cl, q, lb) == overlaps, (j, q, lb)
            if overlaps:
                dup_bound += (klo - g0 if g0 < klo else 0) + \
                             (g0 + B - khi if g0 + B > khi else 0)
    total = stored_elements(cl)
    assert cl.cfg.N <= total <= cl.cfg.N + dup_bound


def test_exchange_communicates_only_moved_elements():
    cl, gen, runs = formed(seed=8)
    matrix = compute_splitters(cl, runs)
    sent_before = cl.counters.traffic[EXCHANGE, SENT].sum()
    redist = external_all_to_all(cl, runs, matrix)
    sent = cl.counters.traffic[EXCHANGE, SENT].sum() - sent_before
    assert sent == redist.v_moved


def test_sorted_input_exchange_is_free():
    cl, gen, runs = formed(kind="sorted", seed=0)
    matrix = compute_splitters(cl, runs)
    redist = external_all_to_all(cl, runs, matrix)
    assert redist.v_moved == 0
    assert cl.counters.traffic[EXCHANGE, SENT].sum() == 0
    assert cl.counters.blocks[EXCHANGE, READ].sum() == 0
    assert cl.counters.blocks[EXCHANGE, WRITE].sum() == 0
