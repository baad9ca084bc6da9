"""Input generation, sort orchestration, verification, and reporting.

Inputs are laid out in processor bands: element e of the global input lives
on PE e // (N/P), in blocks ``0 .. N/(P*B) - 1`` of a fresh cluster.  Every
kind is a pure function of (kind, N, seed, cfg), so runs are reproducible
bit for bit.  Both engines report their output as one
:class:`~emsort.vdisk.OutputLayout` (a PE column and a block-id column in
key order), which :func:`verify_output` walks in that order.

The ``worst_case_shift`` kind assigns each element a key equal to its global
sorted rank, choosing the ranks so that run formation leaves every run's
rank cuts as far from the processor slice boundaries as monotone cuts
allow.  Full-size runs are paired: in one run of a pair the cut positions
run ahead of the slice boundaries by one share, in the other they trail by
one share, which keeps every global rank band exactly filled while forcing
each paired run to keep only one slice's worth of elements in place.  This
maximizes redistribution volume at (1 - 1/P) of the paired data, and the
chunks are placed so that run formation itself exchanges nothing.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    DATA_PHASES,
    ELEM,
    ENGINE_PHASES,
    MachineConfig,
    PHASE_NAMES,
    PHASE_SELECTION,
    PhaseCounters,
    RNG_NAME,
    SENT,
    derive_seed,
    sentinel_mask,
    validate_config,
)
from .fingerprint import checksum128
from .merge import local_multiway_merge
from .redistribute import compute_splitters, external_all_to_all, per_run_moved
from .runform import PeBlocks, form_runs, run_layout
from .striped import striped_sort
from .vdisk import Cluster, OutputLayout

INPUT_KINDS = ("random", "sorted", "reverse", "duplicate_heavy",
               "worst_case_shift")
ENGINES = ("canonical", "striped")


@dataclass(frozen=True)
class InputSpec:
    kind: str
    N: int
    seed: int = 0


@dataclass
class GeneratedInput:
    pe_blocks: list[np.ndarray]         # per PE, an ``int64`` id column
    count: int
    total: int                  # order-independent 128-bit content sum


def worst_shift_cuts(cfg: MachineConfig) -> list[list[int]]:
    """Per-run monotone cut positions that maximize cross-PE movement.

    Returns pos[j][t] for t in 0..P; summed over runs each boundary t sits
    exactly at rank t*N/P.  Full runs are paired (leading, trailing); any
    leftover or short run keeps the neutral cuts t*share.
    """
    P = cfg.P
    layout = run_layout(cfg)
    pos = [[t * share for t in range(P + 1)] for (_length, share) in layout]
    full = [j for j, (_length, share) in enumerate(layout) if share == cfg.m]
    s = cfg.m
    for a, b in zip(full[0::2], full[1::2]):
        L = P * s
        pos[a] = [0] + [min((t + 1) * s, L) for t in range(1, P)] + [L]
        pos[b] = [0] + [(t - 1) * s for t in range(1, P)] + [L]
    return pos


def _worst_shift_ranks(cfg: MachineConfig) -> list[np.ndarray]:
    """Global sorted rank of every run position under the shifted cuts."""
    layout = run_layout(cfg)
    pos = worst_shift_cuts(cfg)
    ranks = [np.empty(length, dtype=np.int64) for (length, _s) in layout]
    nxt = 0
    for t in range(cfg.P):
        for j in range(len(layout)):
            lo, hi = pos[j][t], pos[j][t + 1]
            if hi > lo:
                ranks[j][lo:hi] = np.arange(nxt, nxt + (hi - lo))
                nxt += hi - lo
    if nxt != cfg.N:
        raise AssertionError(f"rank assignment covered {nxt} of {cfg.N}")
    return ranks


def _band_keys(cfg: MachineConfig, spec: InputSpec, pe: int,
               shift_ranks: list[np.ndarray] | None) -> np.ndarray:
    """Keys of one processor's input band, in band order."""
    local = cfg.N // cfg.P
    if spec.kind == "random":
        rng = np.random.Generator(np.random.PCG64(derive_seed(spec.seed, 0, pe)))
        return rng.integers(0, 1 << 64, size=local, dtype=np.uint64)
    if spec.kind == "duplicate_heavy":
        rng = np.random.Generator(np.random.PCG64(derive_seed(spec.seed, 0, pe)))
        return rng.integers(0, 8, size=local, dtype=np.uint64)
    if spec.kind == "sorted":
        return np.arange(pe * local, (pe + 1) * local, dtype=np.uint64)
    if spec.kind == "reverse":
        # In int64, so that N = 0 gives an empty band rather than N - 1 < 0
        # in uint64.
        return (cfg.N - 1 - np.arange(pe * local, (pe + 1) * local)
                ).astype(np.uint64)
    if spec.kind == "worst_case_shift":
        assert shift_ranks is not None
        parts = []
        for j, (_length, share) in enumerate(run_layout(cfg)):
            parts.append(shift_ranks[j][pe * share:(pe + 1) * share])
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)
    raise ValueError(f"unknown input kind {spec.kind!r}")


def generate_input(cluster: Cluster, spec: InputSpec) -> GeneratedInput:
    """Write the input elements to each PE's disks (setup, uncounted)."""
    cfg = cluster.cfg
    if spec.kind not in INPUT_KINDS:
        raise ValueError(f"unknown input kind {spec.kind!r}")
    if spec.N != cfg.N:
        raise ValueError(f"spec.N={spec.N} differs from cfg.N={cfg.N}")
    shift_ranks = (_worst_shift_ranks(cfg)
                   if spec.kind == "worst_case_shift" else None)
    local = cfg.N // cfg.P
    count = 0
    total = 0
    pe_blocks: list[np.ndarray] = []
    for pe in range(cfg.P):
        keys = _band_keys(cfg, spec, pe, shift_ranks)
        serials = np.arange(pe * local, (pe + 1) * local)
        c, t = checksum128(keys, serials)   # while the columns are contiguous
        count += c
        total = (total + t) & ((1 << 128) - 1)
        elems = np.empty(local, ELEM)
        elems["key"] = keys
        elems["serial"] = serials
        blocks = cluster.alloc_blocks(pe, local // cfg.B)
        cluster.seed_blocks(np.full(len(blocks), pe), blocks, elems)
        pe_blocks.append(blocks)
    return GeneratedInput(pe_blocks, count, total)


def loaded_fingerprint(cluster: Cluster) -> tuple[int, int]:
    """The fingerprint of every element of a cluster that
    :meth:`Cluster.load_images` has just built, hashed where it is stored,
    for a check against the manifest's before the input is sorted."""
    elems = cluster.loaded_elements()
    return checksum128(elems["key"], elems["serial"])


@dataclass
class SortResult:
    engine: str
    layout: OutputLayout
    counters: PhaseCounters
    v_moved: int = 0
    k_rounds: int = 0
    max_partners: int = 0
    selection_rounds: int = 0
    selection_touched: int = 0
    peak_round_footprint: int = 0
    merge_passes: int = 0
    wall_seconds: float = 0.0


def run_sort(cluster: Cluster, pe_blocks: PeBlocks,
             engine: str) -> SortResult:
    """Run one engine end to end over an already generated input."""
    bad = validate_config(cluster.cfg, engine)
    if bad:
        raise ValueError(f"config unusable for {engine}: " + ", ".join(bad))
    start = time.perf_counter()
    if engine == "canonical":
        runs = form_runs(cluster, pe_blocks)
        matrix = compute_splitters(cluster, runs)
        redist = external_all_to_all(cluster, runs, matrix)
        layout = local_multiway_merge(cluster, redist.staged)
        result = SortResult(
            engine, layout, cluster.counters,
            v_moved=redist.v_moved,
            k_rounds=redist.k,
            max_partners=max(redist.partners, default=0),
            selection_rounds=matrix.rounds,
            selection_touched=matrix.touched,
            peak_round_footprint=max(redist.peak_footprint, default=0))
    else:
        final, passes = striped_sort(cluster, pe_blocks)
        result = SortResult(engine,
                            OutputLayout("striped", final.pes, final.lbs),
                            cluster.counters, merge_passes=passes)
    result.wall_seconds = time.perf_counter() - start
    return result


#: Output elements that :func:`verify_output` checks at a time.
VERIFY_CHUNK = 1 << 15


@dataclass
class VerifyResult:
    ok: bool
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.ok = False
        self.failures.append(message)


def verify_output(cluster: Cluster, layout: OutputLayout, count: int,
                  total: int) -> VerifyResult:
    """Check sortedness, content preservation, and placement of an output.

    The output is walked in layout order, across PE boundaries too.
    ``count``/``total`` are the fingerprint of the generated input.  A
    canonical output must list its PEs in non-decreasing order, ``N/P``
    elements each; a striped one must stripe round robin over all disks.
    Reads are unmetered: verification is not part of the simulated machine.
    Raises :class:`DiskError` for a block the layout names that is out of
    range (:meth:`OutputLayout.check_ids`) or not allocated.
    """
    cfg = cluster.cfg
    layout.check_ids(cfg.P)
    res = VerifyResult(True)
    seen = 0
    sum128 = 0
    last_key = None
    ordered = True
    pes, lbs = layout.pes, layout.lbs
    step = max(1, VERIFY_CHUNK // cfg.B)
    for g in range(0, len(pes), step):
        chunk = cluster.peek_blocks(pes[g:g + step], lbs[g:g + step])
        keys, serials = chunk["key"], chunk["serial"]
        base = g * cfg.B
        leaks = np.flatnonzero(sentinel_mask(chunk))
        if ordered:
            prev = np.concatenate(
                ([keys[0] if last_key is None else last_key], keys[:-1]))
            drops = np.flatnonzero(keys < prev)
            if drops.size and (not leaks.size or drops[0] < leaks[0]):
                res.fail(f"keys decrease at position {base + int(drops[0])}")
                ordered = False
        if leaks.size:
            res.fail(f"sentinel in output at position {base + int(leaks[0])}")
            return res
        last_key = keys[-1]
        c, t = checksum128(keys, serials)
        seen += c
        sum128 = (sum128 + t) & ((1 << 128) - 1)
    if seen != count or seen != cfg.N:
        res.fail(f"output has {seen} elements, expected {count}")
    if sum128 != total:
        res.fail("output content differs from input (fingerprint mismatch)")

    if layout.engine == "canonical":
        back = np.flatnonzero(pes[1:] < pes[:-1])
        if back.size:
            res.fail(f"PEs out of order at block {back[0] + 1}")
        slice_len = cfg.N // cfg.P
        held = np.bincount(pes, minlength=cfg.P) * cfg.B
        for pe in np.flatnonzero(held != slice_len).tolist():
            res.fail(f"PE {pe} holds {held[pe]} elements, expected {slice_len}")
    else:
        disks = pes * cfg.D + lbs % cfg.D
        breaks = np.flatnonzero(
            disks != (disks[:1] + np.arange(len(disks))) % cfg.total_disks)
        if breaks.size:
            res.fail(f"stripe breaks round-robin order at block {breaks[0]}")
            disks = disks[:breaks[0] + 1]   # the blocks counted up to the break
        per_disk = np.bincount(disks, minlength=cfg.total_disks).tolist()
        if len(disks) and max(per_disk) - min(per_disk) > 1:
            res.fail(f"striping imbalance: per-disk counts {per_disk}")
    return res


STATS_META_KEYS = (
    "engine", "kind", "P", "D", "B", "m", "N", "K", "elem_size", "seed",
    "randomize", "rng", "v_moved", "k_rounds", "max_partners",
    "selection_rounds", "selection_touched", "selection_fallbacks",
    "peak_round_footprint", "merge_passes", "data_element_io", "sample_io",
    "data_sent", "wall_seconds",
)


def report_stats(cfg: MachineConfig, result: SortResult,
                 kind: str = "?") -> str:
    """Render the run's counters as CSV with ``# key=value`` meta lines.

    One row per (phase, pe).  Phase-global counters (overhead, io_steps)
    appear on the pe-0 row of their phase.  Column order is fixed and
    documented in the README.
    """
    counters = result.counters
    meta = {
        "engine": result.engine,
        "kind": kind,
        "P": cfg.P, "D": cfg.D, "B": cfg.B, "m": cfg.m, "N": cfg.N,
        "K": cfg.B, "elem_size": cfg.elem_size, "seed": cfg.seed,
        "randomize": "on" if cfg.randomize else "off",
        "rng": RNG_NAME,
        "v_moved": result.v_moved,
        "k_rounds": result.k_rounds,
        "max_partners": result.max_partners,
        "selection_rounds": result.selection_rounds,
        "selection_touched": result.selection_touched,
        "selection_fallbacks": 0,     # never falls back; digests hash it
        "peak_round_footprint": result.peak_round_footprint,
        "merge_passes": result.merge_passes,
        "data_element_io": counters.element_io(cfg.B, DATA_PHASES),
        "sample_io": counters.element_io(cfg.B, (PHASE_SELECTION,)),
        "data_sent": int(counters.traffic[list(ENGINE_PHASES), SENT].sum()),
        "wall_seconds": f"{result.wall_seconds:.6f}",
    }
    lines = [f"# {key}={meta[key]}" for key in STATS_META_KEYS]
    columns = (["phase", "pe", "blocks_read", "blocks_written", "element_io",
                "sent", "received", "control", "overhead", "io_steps"]
               + [f"read_disk{d}" for d in range(cfg.D)]
               + [f"write_disk{d}" for d in range(cfg.D)])
    lines.append(",".join(columns))
    disks = counters.blocks.transpose(0, 3, 1, 2).tolist()  # [ph][pe][rw][d]
    traffic = counters.traffic.transpose(0, 2, 1).tolist()  # [ph][pe][kind]
    overhead, steps = counters.overhead.tolist(), counters.steps.tolist()
    for i, phase in enumerate(PHASE_NAMES):
        for pe in range(cfg.P):
            reads, writes = disks[i][pe]
            br, bw = sum(reads), sum(writes)
            row = [phase, pe, br, bw, (br + bw) * cfg.B, *traffic[i][pe],
                   overhead[i] if pe == 0 else 0, steps[i] if pe == 0 else 0,
                   *reads, *writes]
            lines.append(",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


@dataclass
class ExperimentRow:
    B: int
    randomize: bool
    trials: int
    mean_v: float
    max_v: int
    max_run_v: int


def run_experiment_redistribution(cfg0: MachineConfig, kind: str = "random",
                                  b_values: tuple[int, ...] = (4, 16),
                                  trials: int = 20
                                  ) -> tuple[list[ExperimentRow], str]:
    """Measure redistribution volume over a (block size, randomize) grid.

    Each trial generates a fresh input, forms runs, and computes the exact
    splitter matrix; the moved volume is read off the cut positions without
    executing the exchange.  Emits per-grid-point mean/max statistics, the
    per-run maximum, and the mean-ratio between consecutive block sizes.
    Raises ``ValueError``, before any trial runs, for ``trials < 1`` or a
    block size the canonical engine cannot run.
    """
    if trials < 1:
        raise ValueError(f"trials={trials}: need at least one trial")
    for B in b_values:
        bad = validate_config(replace(cfg0, B=B), "canonical")
        if bad:
            raise ValueError(f"B={B}: " + ", ".join(bad))
    rows: list[ExperimentRow] = []
    for B in b_values:
        for rnd in (True, False):
            volumes: list[int] = []
            max_run = 0
            for trial in range(trials):
                seed = derive_seed(cfg0.seed, 6, B, int(rnd), trial)
                cfg = replace(cfg0, B=B, randomize=rnd, seed=seed)
                cluster = Cluster(cfg)
                gen = generate_input(cluster, InputSpec(kind, cfg.N, seed))
                runs = form_runs(cluster, gen.pe_blocks)
                matrix = compute_splitters(cluster, runs)
                per_run = per_run_moved(runs, matrix)
                volumes.append(sum(per_run))
                max_run = max(max_run, max(per_run, default=0))
            rows.append(ExperimentRow(B, rnd, trials,
                                      sum(volumes) / len(volumes),
                                      max(volumes), max_run))
    lines = [f"# kind={kind}", f"# N={cfg0.N}", f"# P={cfg0.P}",
             f"# m={cfg0.m}", f"# trials={trials}", f"# rng={RNG_NAME}",
             "B,randomize,trials,mean_v_moved,max_v_moved,max_per_run_moved"]
    for row in rows:
        lines.append(f"{row.B},{'on' if row.randomize else 'off'},"
                     f"{row.trials},{row.mean_v:.2f},{row.max_v},{row.max_run_v}")
    means = {(row.B, row.randomize): row.mean_v for row in rows}
    for lo, hi in zip(b_values, b_values[1:]):
        if means.get((lo, True), 0) > 0:
            ratio = means[(hi, True)] / means[(lo, True)]
            lines.append(f"# ratio_mean_v_moved_B{hi}_over_B{lo}={ratio:.4f}")
    return rows, "\n".join(lines) + "\n"
