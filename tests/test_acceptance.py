"""Acceptance gate: one test per numbered criterion, each printing a single
PASS/FAIL line with the measured values before asserting.

Grid under test: P in {1,2,4,8}, D=2, B in {4,16,64} elements,
m in {256,1024}, N up to M*m/B (capped for wall-clock), elem_size 16.
Every run is deterministic per seed.
"""
from __future__ import annotations

import math
import random
from dataclasses import replace

from emsort.core import (
    CONTROL, DATA_PHASES, ENGINE_PHASES, MachineConfig, PHASE_ALL_TO_ALL,
    PHASE_LOCAL_MERGE, PHASE_RUN_FORMATION, PHASE_SELECTION, SENT,
)
from emsort.harness import (
    INPUT_KINDS, run_experiment_redistribution, run_sort, validate_config,
    verify_output,
)
from emsort.selection import multiway_select
from emsort.schedule import naive_steps, prefetch_schedule, verify_schedule
from emsort.vdisk import Cluster

from helpers import (
    MemoryAccessor, addresses, array_sampled_init, fill, input_elements,
    oracle_agrees, output_elements,
)
from test_selection import brute_force_select

GRID_P = (1, 2, 4, 8)
GRID_B = (4, 16, 64)
GRID_M = (256, 1024)
#: The phases whose overhead the canonical I/O identity adds to 4N + 2V.
OVERHEAD_PHASES = (PHASE_ALL_TO_ALL, PHASE_LOCAL_MERGE, PHASE_RUN_FORMATION)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def draw_config(rng: random.Random, engines=("canonical", "striped"),
                cap: int = 8192) -> MachineConfig | None:
    P = rng.choice(GRID_P)
    B = rng.choice(GRID_B)
    m = rng.choice(GRID_M)
    top = min(P * m * m // B, cap)
    if top < B * P:
        return None
    N = rng.randrange(1, top // (B * P) + 1) * B * P
    cfg = MachineConfig(P=P, D=2, B=B, m=m, N=N, seed=rng.randrange(1 << 30))
    if any(validate_config(cfg, engine) for engine in engines):
        return None
    return cfg


def sort_fresh(cfg: MachineConfig, kind: str, engine: str):
    cluster = Cluster(cfg)
    gen = fill(cluster, kind, cfg.seed)
    inputs = input_elements(cluster, gen)
    result = run_sort(cluster, gen.pe_blocks, engine)
    return cluster, gen, inputs, result


def test_criterion_1_outputs_match_oracle():
    rng = random.Random(1001)
    samples = 0
    while samples < 200:
        cfg = draw_config(rng)
        if cfg is None:
            continue
        kind = rng.choice(INPUT_KINDS)
        for engine in ("canonical", "striped"):
            cluster, gen, inputs, result = sort_fresh(cfg, kind, engine)
            verdict = verify_output(cluster, result.layout, gen.count, gen.total)
            assert verdict.ok, (cfg, kind, engine, verdict.failures)
            assert oracle_agrees(inputs, output_elements(cluster, result.layout)), \
                (cfg, kind, engine)
        samples += 1
    report(1, True, f"{samples} (config, seed, kind) samples: both engines "
                    "equal the oracle sort and verify_output passes (exact)")


def test_criterion_2_io_window_and_identity():
    rng = random.Random(1002)
    checked = 0
    while checked < 25:
        cfg = draw_config(rng, engines=("canonical",))
        if cfg is None:
            continue
        cluster, _gen, _inputs, result = sort_fresh(cfg, "random", "canonical")
        c = cluster.counters
        N, B, V = cfg.N, cfg.B, result.v_moved
        dio = c.element_io(B, DATA_PHASES)
        overhead = int(c.overhead[list(OVERHEAD_PHASES)].sum())
        assert dio == 4 * N + 2 * V + overhead, (cfg, dio, V, overhead)
        sample_io = c.element_io(B, (PHASE_SELECTION,))
        hi = 4 * N + 2 * V + result.k_rounds * result.max_partners * B * cfg.P \
            + sample_io
        assert 4 * N <= dio <= hi, (cfg, dio, 4 * N, hi)
        checked += 1
    sorted_checked = 0
    while sorted_checked < 8:
        cfg = draw_config(rng, engines=("canonical",))
        if cfg is None:
            continue
        cluster, _gen, _inputs, result = sort_fresh(cfg, "sorted", "canonical")
        dio = cluster.counters.element_io(cfg.B, DATA_PHASES)
        assert result.v_moved == 0 and dio == 4 * cfg.N, (cfg, dio, result.v_moved)
        sorted_checked += 1
    report(2, True, f"{checked} random+randomize-on runs inside "
                    "[4N, 4N + 2V + k*P'*B*P + sample I/O] with the counter "
                    f"identity exact; {sorted_checked} sorted runs at exactly 4N")


def test_criterion_3_worst_shift_moves_everything():
    # Run formation leaves PE t holding positions [t*s, (t+1)*s) of every
    # run.  For any monotone cuts c_0 = 0 <= ... <= c_P = L, the largest
    # t < P with c_t <= t*s has c_{t+1} >= (t+1)*s, so PE t keeps its whole
    # slice: every run keeps at least s = M/P in place and V <= N - N/P.
    # worst_case_shift attains the bound when every run is paired.
    failures = []
    details = []
    for P, m, cap in ((8, 1024, 2_097_152), (4, 1024, 1_048_576)):
        cfg = MachineConfig(P=P, D=2, B=4, m=m, N=cap, seed=303,
                            randomize=False)
        assert not validate_config(cfg, "canonical")
        assert cfg.N % cfg.M == 0 and cfg.R % 2 == 0, (cfg.N, cfg.M, cfg.R)
        cluster, _gen, _inputs, result = sort_fresh(cfg, "worst_case_shift",
                                                    "canonical")
        c = cluster.counters
        N, V = cfg.N, result.v_moved
        dio = c.element_io(cfg.B, DATA_PHASES)
        padding = int(c.overhead[list(OVERHEAD_PHASES)].sum())
        details.append(f"P={P} N={N}: V/N={V / N:.4f} (1-1/P={1 - 1 / P:.4f}) "
                       f"dio/N={dio / N:.4f} padding/N={padding / N:.4f}")
        if not (V == N - N // P and dio == 4 * N + 2 * V + padding
                and padding < 0.02 * N):
            failures.append(f"P={P}: V={V} vs N-N/P={N - N // P}, dio={dio} "
                            f"vs 4N+2V+padding={4 * N + 2 * V + padding}")
    report(3, not failures,
           "worst_case_shift, randomize off, largest grid configs, every run "
           "paired: " + "; ".join(details)
           + ("" if not failures else " -- " + " | ".join(failures)))


def test_criterion_4_shuffle_lowers_volume_and_sqrtB_ratio():
    base = MachineConfig(P=4, D=2, B=4, m=256, N=16384, seed=404)
    # Block-clustered keys: the shuffle defends against them, and the volume
    # left after it grows like sqrt(B).
    shifted, _ = run_experiment_redistribution(base, "worst_case_shift",
                                               b_values=(4, 16), trials=20)
    means = {(row.B, row.randomize): row.mean_v for row in shifted}
    clause1 = means[4, True] < means[4, False]
    shift_ratio = means[16, True] / means[4, True]
    clause2 = 1.3 <= shift_ratio <= 3.0

    # iid keys: a run is an iid sample whatever B is, so V ignores B.
    rows, _ = run_experiment_redistribution(base, "random",
                                            b_values=(4, 16), trials=50)
    on = {row.B: row.mean_v for row in rows if row.randomize}
    random_ratio = on[16] / on[4]
    clause3 = random_ratio < 1.3

    report(4, clause1 and clause2 and clause3,
           f"worst_case_shift mean V at B=4: on={means[4, True]:.1f} < "
           f"off={means[4, False]:.1f} ({'ok' if clause1 else 'violated'}); "
           f"worst_case_shift, shuffle on, mean V(4B)/V(B) over 20 trials = "
           f"{shift_ratio:.3f} (required [1.3, 3.0]); random input, shuffle "
           f"on, mean V(4B)/V(B) over 50 trials = {random_ratio:.3f} "
           f"(required < 1.3)")


def test_criterion_5_communication_bound():
    worst = 0.0
    for kind in INPUT_KINDS:
        for P, m, N in ((4, 32, 384), (4, 256, 16384), (8, 256, 16384)):
            cfg = MachineConfig(P=P, D=2, B=4, m=m, N=N, seed=505)
            cluster, _gen, _inputs, result = sort_fresh(cfg, kind, "canonical")
            c = cluster.counters
            sent = c.traffic[list(ENGINE_PHASES), SENT].sum()
            formation = c.traffic[PHASE_RUN_FORMATION, SENT].sum()
            exchange = c.traffic[PHASE_ALL_TO_ALL, SENT].sum()
            control = c.traffic[list(ENGINE_PHASES), CONTROL].sum()
            assert sent == formation + exchange, (kind, cfg)
            assert exchange == result.v_moved, (kind, cfg)
            assert formation <= N, (kind, cfg)
            assert sent <= N + result.v_moved + control, (kind, cfg)
            if kind == "sorted":
                assert sent == 0, (kind, cfg, sent)
            worst = max(worst, sent / N)
    report(5, True, "canonical element traffic == formation (<= N) + V_moved "
                    f"on every kind, max sent/N = {worst:.3f}, "
                    "sorted input sends 0")


def test_criterion_6_selection_rounds_and_exactness():
    rng = random.Random(1006)
    for trial in range(1000):
        R = rng.randint(1, 8)
        dom = rng.choice([16, 1 << 60])
        runs = []
        for j in range(R):
            length = rng.randint(0, 1024)
            keys = sorted(rng.randrange(dom) for _ in range(length))
            runs.append([(k, j * 1_000_000 + p) for p, k in enumerate(keys)])
        runs = [run for run in runs if run] or [[(1, 0)]]
        total = sum(len(run) for run in runs)
        maxlen = max(len(run) for run in runs)
        r = rng.randint(0, total)
        expected = brute_force_select(runs, r)

        res = multiway_select(MemoryAccessor(runs), r)
        assert res.positions == expected, (trial, r)
        lpad = 1 << max(1, (maxlen - 1).bit_length() if maxlen > 1 else 1)
        assert res.rounds <= math.ceil(math.log2(lpad)), (trial, res.rounds)

        K = rng.choice(GRID_B)
        samples = [[(run[p][0], p) for p in range(0, len(run), K)]
                   for run in runs]
        init, step = array_sampled_init(samples, K, r)
        res = multiway_select(MemoryAccessor(runs), r, init, step)
        assert res.positions == expected, (trial, r, K)
        assert res.rounds <= math.ceil(math.log2(K)) + 1, (trial, res.rounds, K)
    report(6, True, "1000 instances (R <= 8, padded length <= 1024): scratch "
                    "rounds <= ceil(log2 L), sampled rounds <= ceil(log2 K)+1 "
                    "for K = B, splitters exactly match brute force")


def test_criterion_7_striped_pass_counts_and_balance():
    def run(P, B, m, N):
        cfg = MachineConfig(P=P, D=2, B=B, m=m, N=N, seed=707)
        assert not validate_config(cfg, "striped"), (cfg,)
        cluster, gen, _inputs, result = sort_fresh(cfg, "random", "striped")
        assert verify_output(cluster, result.layout, gen.count, gen.total).ok
        per_disk = {}
        for pe, lb in addresses(result.layout):
            disk = pe * cfg.D + lb % cfg.D
            per_disk[disk] = per_disk.get(disk, 0) + 1
        balance = max(per_disk.values()) - min(per_disk.values())
        return cfg, cluster.counters.element_io(B, DATA_PHASES), balance

    for P, B, m, N in ((1, 4, 64, 256), (2, 16, 256, 4096), (4, 4, 32, 512)):
        cfg, dio, balance = run(P, B, m, N)
        assert 2 <= cfg.R <= cfg.merge_arity, (cfg, cfg.R, cfg.merge_arity)
        assert dio == 4 * N, (cfg, dio)
        assert balance <= 1, (cfg, balance)
    for P, B, m, N in ((1, 64, 256, 1024), (1, 4, 64, 4096)):
        cfg, dio, balance = run(P, B, m, N)
        assert cfg.R == cfg.merge_arity ** 2, (cfg, cfg.R, cfg.merge_arity)
        assert dio == 6 * N, (cfg, dio)
        assert balance <= 1, (cfg, balance)
    cfg, dio, balance = run(1, 4, 256, 256)
    assert cfg.R == 1 and dio == 2 * cfg.N and balance <= 1
    report(7, True, "striped engine: 4N exactly for 2 <= R <= arity, 6N at "
                    "R = arity^2, output per-disk block counts differ <= 1 "
                    "(R = 1 short-circuits to 2N, no merge pass)")


def test_criterion_8_prefetch_schedules():
    rng = random.Random(1008)
    improved = 0
    for trial in range(500):
        D_total = rng.randint(1, 8)
        L = rng.randint(1, 256)
        disks = [rng.randrange(D_total) for _ in range(L)]
        W = D_total * rng.choice([1, 2, 4])
        steps = prefetch_schedule(disks, W, D_total)
        span = verify_schedule(disks, steps, W)   # raises when infeasible
        naive = naive_steps(disks, W)
        assert span <= naive, (trial, span, naive)
        improved += span < naive
    report(8, True, "500 random prediction sequences (<= 256 blocks, <= 8 "
                    "disks, W in {D, 2D, 4D}): every schedule feasible and "
                    f"never slower than in-order greedy ({improved} strictly "
                    "faster)")


def test_criterion_9_out_of_scope_statement():
    report(9, True, "absolute hardware throughputs are intentionally not "
                    "reproduced: this is a block-level simulator with no "
                    "wall-clock model, so those figures are replaced by the "
                    "counter-based criteria 1-8 above")
