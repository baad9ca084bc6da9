"""Splitter computation, round scheduling, and the external all-to-all."""
from __future__ import annotations

import random

import pytest

from emsort.core import (
    DATA_PHASES, MachineConfig, PHASE_ALL_TO_ALL, PHASE_SELECTION,
    sentinel_mask, validate_config,
)
from emsort.harness import report_stats, run_sort, verify_output
from emsort.redistribute import (
    PlanError, _schedule_flows, compute_splitters, external_all_to_all,
    per_run_moved,
)
from emsort.runform import form_runs
from emsort.vdisk import Cluster

from helpers import build, fill, is_allocated, stored_elements


# --- oracle -----------------------------------------------------------------

def brute_force_boundaries(cl, runs):
    """Cut positions per boundary rank, from a flat global sort."""
    P = cl.cfg.P
    entries = []
    for j, run in enumerate(runs):
        for pos in range(run.length):
            pe, lb, off = run.locate(pos)
            entries.append((cl.peek_blocks(pe, [lb])[off][0], j, pos))
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
            expected = min(t, cl.cfg.P) * run.share
            assert row[j] == expected


def test_moved_volume_counts_elements_cut_away_from_their_holder():
    cl, _gen, runs = formed(seed=13)
    matrix = compute_splitters(cl, runs)
    P = cl.cfg.P
    # (holder, destination) of every run position
    moves = [[(p // run.share, t) for t in range(P)
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
    matrix = compute_splitters(cl, runs)
    K = cl.cfg.sample_rate
    import math
    per_rank = math.ceil(math.log2(K)) + 1
    assert matrix.rounds <= (cl.cfg.P - 1) * per_rank
    assert matrix.fallbacks == 0
    assert cl.counters.phase_blocks_read(PHASE_SELECTION) == matrix.blocks_read


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
    """Every destination's staged segments tile its cut of every run."""
    P = cl.cfg.P
    for t in range(P):
        for j, run in enumerate(runs):
            lo, hi = matrix.pos[t][j], matrix.pos[t + 1][j]
            seg = redist.staged[t][j]
            assert seg.length == hi - lo
            covered = 0
            for ref in seg.refs:
                assert ref.pe == t
                covered += ref.length
            assert covered == hi - lo


def test_exchange_delivers_exact_slices():
    cl, gen, runs = formed(seed=2)
    matrix = compute_splitters(cl, runs)
    redist = external_all_to_all(cl, runs, matrix)
    assert redist.v_moved == sum(per_run_moved(runs, matrix))
    staged_tiles_exactly(cl, runs, matrix, redist)
    # staged content is exactly the input multiset
    staged_elems = []
    for per_run in redist.staged:
        for seg in per_run:
            for ref in seg.refs:
                got = cl.peek_blocks(ref.pe, ref.blocks)[ref.start:]
                staged_elems.extend(got[~sentinel_mask(got)].tolist())
    # parcels may carry trailing sentinels only as block padding
    assert len(staged_elems) >= cl.cfg.N


def test_exchange_io_identity_and_footprint():
    for seed in (3, 4):
        cl, gen, runs = formed(P=4, N=768, m=32, seed=seed)
        matrix = compute_splitters(cl, runs)
        io_before = cl.counters.total_element_io(cl.cfg.B, DATA_PHASES)
        redist = external_all_to_all(cl, runs, matrix)
        io_after = cl.counters.total_element_io(cl.cfg.B, DATA_PHASES)
        overhead = cl.counters.overhead_elements[PHASE_ALL_TO_ALL]
        assert io_after - io_before == 2 * redist.v_moved + overhead
        assert max(redist.peak_footprint) <= cl.cfg.m
        assert redist.k >= 1
        assert cl.counters.io_steps[PHASE_ALL_TO_ALL] == redist.k


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
        for q in range(cl.cfg.P):
            lo, hi = matrix.pos[q][j], matrix.pos[q + 1][j]
            klo, khi = max(lo, q * run.share), min(hi, (q + 1) * run.share)
            for b_idx, lb in enumerate(run.blocks[q]):
                g0 = q * run.share + b_idx * B
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
    sent_before = cl.counters.data_sent_total((PHASE_ALL_TO_ALL,))
    redist = external_all_to_all(cl, runs, matrix)
    sent = cl.counters.data_sent_total((PHASE_ALL_TO_ALL,)) - sent_before
    assert sent == redist.v_moved


def test_sorted_input_exchange_is_free():
    cl, gen, runs = formed(kind="sorted", seed=0)
    matrix = compute_splitters(cl, runs)
    redist = external_all_to_all(cl, runs, matrix)
    assert redist.v_moved == 0
    assert cl.counters.data_sent_total((PHASE_ALL_TO_ALL,)) == 0
    assert cl.counters.phase_blocks_read(PHASE_ALL_TO_ALL) == 0
    assert cl.counters.phase_blocks_written(PHASE_ALL_TO_ALL) == 0
