"""Input generation, end-to-end runs, verification, stats, and the CLI."""
from __future__ import annotations

import csv
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import emsort

from emsort import cli, harness
from emsort.cli import main as cli_main
from emsort.core import (
    DATA_PHASES, PHASE_NAMES, MachineConfig, sentinel, validate_config,
)
from emsort.harness import (
    ENGINES, INPUT_KINDS, VERIFY_CHUNK, InputSpec, generate_input, report_stats,
    run_experiment_redistribution, run_sort, verify_output, worst_shift_cuts,
)
from emsort.redistribute import compute_splitters, per_run_moved
from emsort.runform import form_runs, run_layout
from emsort.vdisk import Cluster, DiskError, OutputLayout

from helpers import (
    addresses, build, counter_state, fill, image_slots, input_elements,
    int64_bytes, int64_values, is_allocated, live_blocks, on, oracle_agrees,
    output_elements,
)


# --- input generation -----------------------------------------------------------

def test_generation_is_deterministic_per_seed():
    a = fill(build(P=2, N=256, seed=5), "random", 5)
    b = fill(build(P=2, N=256, seed=5), "random", 5)
    c = fill(build(P=2, N=256, seed=6), "random", 6)
    assert (a.count, a.total) == (b.count, b.total)
    assert a.total != c.total


@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_every_kind_generates_the_configured_count(kind):
    cl = build(P=4, B=4, m=32, N=384, seed=1)
    gen = fill(cl, kind, 1)
    elems = input_elements(cl, gen)
    assert len(elems) == 384
    assert gen.count == 384
    assert len({e[1] for e in elems}) == 384      # serials are unique
    # ``sort --persist`` derives these ids from the config.
    assert ([ids.tolist() for ids in gen.pe_blocks]
            == [list(range(384 // 4 // 4))] * 4)


def test_generation_rejects_mismatched_sizes():
    cl = build(P=2, N=128)
    with pytest.raises(ValueError):
        generate_input(cl, InputSpec("random", 64, 0))
    with pytest.raises(ValueError):
        generate_input(cl, InputSpec("nope", 128, 0))


def test_sorted_and_reverse_kinds_have_the_claimed_shape():
    cl = build(P=2, N=128, seed=0)
    sorted_keys = [e[0] for e in input_elements(cl, fill(cl, "sorted", 0))]
    assert sorted_keys == list(range(128))
    cl = build(P=2, N=128, seed=0)
    rev = [e[0] for e in input_elements(cl, fill(cl, "reverse", 0))]
    assert rev[:64] == list(range(127, 63, -1))


def test_worst_shift_cuts_hit_exact_global_boundaries():
    cfg = MachineConfig(P=4, D=2, B=4, m=32, N=512)
    cuts = worst_shift_cuts(cfg)
    layout = run_layout(cfg)
    assert len(cuts) == len(layout)
    for j, (length, _share) in enumerate(layout):
        row = cuts[j]
        assert row[0] == 0 and row[-1] == length
        assert all(a <= b for a, b in zip(row, row[1:]))
    for t in range(cfg.P + 1):
        assert sum(cuts[j][t] for j in range(len(layout))) == t * cfg.N // cfg.P


def test_worst_shift_pairs_full_runs():
    cfg = MachineConfig(P=2, D=2, B=4, m=32, N=128)   # two full runs
    cuts = worst_shift_cuts(cfg)
    s = cfg.m
    assert cuts[0] == [0, min(2 * s, 2 * s), 2 * s]
    assert cuts[1] == [0, 0, 2 * s]


def test_every_run_keeps_at_least_one_share_in_place():
    # PE t holds run positions [t*s, (t+1)*s); no monotone cut vector can
    # strip every PE of its whole slice, and the paired cuts reach the bound.
    for P in range(1, 6):
        for s in range(1, 5):
            L = P * s
            kept = []
            for inner in itertools.combinations_with_replacement(
                    range(L + 1), P - 1):
                c = (0, *inner, L)
                kept.append(sum(max(0, min(c[t + 1], (t + 1) * s)
                                    - max(c[t], t * s)) for t in range(P)))
            assert min(kept) == s, (P, s, min(kept))

    cfg = MachineConfig(P=4, D=2, B=4, m=32, N=1024, randomize=False)
    assert cfg.N % cfg.M == 0 and cfg.R % 2 == 0
    cl = Cluster(cfg)
    runs = form_runs(cl, fill(cl, "worst_case_shift", 0).pe_blocks)
    moved = per_run_moved(runs, compute_splitters(cl, runs))
    assert moved == [cfg.M - cfg.M // cfg.P] * cfg.R


# --- end-to-end runs ---------------------------------------------------------------

@pytest.mark.parametrize("engine", ["canonical", "striped"])
@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_both_engines_sort_every_kind(engine, kind):
    cl = build(P=4, D=2, B=4, m=32, N=384, seed=7)
    gen = fill(cl, kind, 7)
    inputs = input_elements(cl, gen)
    result = run_sort(cl, gen.pe_blocks, engine)
    verdict = verify_output(cl, result.layout, gen.count, gen.total)
    assert verdict.ok, verdict.failures
    assert oracle_agrees(inputs, output_elements(cl, result.layout))


@pytest.mark.parametrize("engine", ["canonical", "striped"])
@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_both_engines_sort_an_empty_input(engine, kind):
    cl = build(P=2, D=2, B=4, m=32, N=0, seed=7)
    gen = fill(cl, kind, 7)
    assert (gen.count, gen.total, [ids.tolist() for ids in gen.pe_blocks]
            ) == (0, 0, [[], []])
    result = run_sort(cl, gen.pe_blocks, engine)
    assert (len(result.layout.pes), len(result.layout.lbs)) == (0, 0)
    assert result.merge_passes == 0
    verdict = verify_output(cl, result.layout, gen.count, gen.total)
    assert verdict.ok, verdict.failures


def test_run_sort_rejects_unusable_configs():
    cl = build(P=2, B=4, m=8, N=256)    # R=16, R*B > m
    gen = fill(cl, "random", 0)
    with pytest.raises(ValueError):
        run_sort(cl, gen.pe_blocks, "canonical")


def test_identical_seeds_reproduce_identical_counters():
    snaps = []
    for _ in range(2):
        cl = build(P=4, B=4, m=32, N=384, seed=3)
        gen = fill(cl, "random", 3)
        run_sort(cl, gen.pe_blocks, "canonical")
        snaps.append(counter_state(cl))
    assert snaps[0] == snaps[1]


# --- verification catches faults ----------------------------------------------------

def sorted_run_result(seed=19):
    cl = build(P=2, B=4, m=32, N=128, seed=seed)
    gen = fill(cl, "random", seed)
    result = run_sort(cl, gen.pe_blocks, "canonical")
    return cl, gen, result


def test_verify_detects_order_violation():
    cl, gen, result = sorted_run_result()
    pe, lb = addresses(result.layout)[0]
    block = cl.peek_blocks(*on(pe, [lb])).tolist()
    block[0] = (block[0][0] + 10 ** 9, block[0][1])   # bump one key
    cl.seed_blocks(*on(pe, [lb]), block)
    verdict = verify_output(cl, result.layout, gen.count, gen.total)
    assert not verdict.ok
    assert any("decrease" in f or "fingerprint" in f for f in verdict.failures)


def test_verify_detects_lost_element():
    cl, gen, result = sorted_run_result(seed=23)
    pe, lb = addresses(result.layout)[0]
    block = cl.peek_blocks(*on(pe, [lb])).tolist()
    block[1] = block[0]                                # duplicate, drop one
    cl.seed_blocks(*on(pe, [lb]), block)
    verdict = verify_output(cl, result.layout, gen.count, gen.total)
    assert not verdict.ok


def test_verify_detects_sentinel_leak():
    cl, gen, result = sorted_run_result(seed=29)
    pe, lb = addresses(result.layout)[0]
    block = cl.peek_blocks(*on(pe, [lb])).tolist()
    block[2] = sentinel()
    cl.seed_blocks(*on(pe, [lb]), block)
    verdict = verify_output(cl, result.layout, gen.count, gen.total)
    assert not verdict.ok
    assert any("sentinel" in f for f in verdict.failures)


def sorted_output(P=2, N=128, B=4):
    """A sorted input laid out as a canonical output: element i has key i."""
    cl = build(P=P, B=B, m=max(32, 2 * B), N=N)
    gen = fill(cl, "sorted")
    layout = OutputLayout("canonical", np.repeat(np.arange(P), N // P // B),
                          np.concatenate(gen.pe_blocks))
    assert verify_output(cl, layout, gen.count, gen.total).ok
    return cl, gen, layout


def set_elements(cl, layout, changes):
    """Overwrite output positions: ``changes`` maps position -> element."""
    blocks = addresses(layout)
    for position, elem in changes.items():
        pe, lb = blocks[position // cl.cfg.B]
        block = cl.peek_blocks(*on(pe, [lb])).tolist()
        block[position % cl.cfg.B] = elem
        cl.seed_blocks(*on(pe, [lb]), block)


def swap(cl, layout, i, j):
    elems = output_elements(cl, layout)
    set_elements(cl, layout, {i: elems[j], j: elems[i]})


def test_verify_detects_decrease_across_a_chunk_boundary():
    cl, gen, layout = sorted_output(P=1, N=2 * VERIFY_CHUNK, B=64)
    swap(cl, layout, VERIFY_CHUNK - 1, VERIFY_CHUNK)
    verdict = verify_output(cl, layout, gen.count, gen.total)
    assert verdict.failures == [f"keys decrease at position {VERIFY_CHUNK}"]


def test_verify_peeks_each_chunk_with_one_column_call(monkeypatch):
    """A striped output changes PE every D blocks; each chunk is still read
    with one call, on the chunk's slice of the layout columns, and checked
    in layout order."""
    monkeypatch.setattr(harness, "VERIFY_CHUNK", 32)      # 8 blocks of 4
    cl = build(P=2, B=4, m=32, N=128, seed=31)
    gen = fill(cl, "random", 31)
    layout = run_sort(cl, gen.pe_blocks, "striped").layout
    assert set(layout.pes[:8].tolist()) == {0, 1}
    swap(cl, layout, 45, 46)
    calls = []
    peek = cl.peek_blocks

    def counted(pe, lbs):
        calls.append(list(zip(pe.tolist(), lbs.tolist())))
        return peek(pe, lbs)

    monkeypatch.setattr(cl, "peek_blocks", counted)
    verdict = verify_output(cl, layout, gen.count, gen.total)
    assert verdict.failures == ["keys decrease at position 46"]
    blocks = addresses(layout)
    assert calls == [blocks[g:g + 8] for g in range(0, 32, 8)]


def test_verify_names_the_first_missing_block_in_layout_order():
    cl = build(P=2, B=4, m=32, N=128, seed=37)
    gen = fill(cl, "random", 37)
    layout = run_sort(cl, gen.pe_blocks, "striped").layout
    blocks = addresses(layout)
    first = next(addr for addr in blocks if addr[0] == 1)
    later = next(addr for addr in reversed(blocks) if addr[0] == 0)
    for pe, lb in (first, later):
        cl.free_blocks(*on(pe, [lb]))
    with pytest.raises(DiskError, match=f"pe=1 lb={first[1]}$"):
        verify_output(cl, layout, gen.count, gen.total)


@pytest.mark.parametrize("column, shift, first", [
    ("pes", -1, 0), ("pes", 5, 0), ("pes", -5, 0), ("lbs", -100, 3)])
def test_verify_refuses_a_block_outside_the_machine(column, shift, first):
    """A layout PE outside ``[0, P)`` or a negative block id is refused
    with a :class:`DiskError` that names the first such block."""
    cl = build(P=2, B=4, m=32, N=128, seed=37)
    gen = fill(cl, "random", 37)
    layout = run_sort(cl, gen.pe_blocks, "canonical").layout
    ids = {"pes": layout.pes.copy(), "lbs": layout.lbs.copy()}
    ids[column][first if column == "lbs" else slice(None)] += shift
    bad = OutputLayout("canonical", ids["pes"], ids["lbs"])
    pe, lb = addresses(bad)[first]
    with pytest.raises(DiskError,
                       match=rf"^layout block {first} is pe={pe} lb={lb}: "):
        verify_output(cl, bad, gen.count, gen.total)


def test_verify_detects_decrease_in_the_last_block():
    cl, gen, layout = sorted_output()
    swap(cl, layout, 126, 127)
    verdict = verify_output(cl, layout, gen.count, gen.total)
    assert verdict.failures == ["keys decrease at position 127"]


def test_verify_reports_a_decrease_then_the_sentinel_after_it():
    cl, gen, layout = sorted_output()
    swap(cl, layout, 5, 6)
    set_elements(cl, layout, {20: sentinel()})
    verdict = verify_output(cl, layout, gen.count, gen.total)
    assert verdict.failures == ["keys decrease at position 6",
                                "sentinel in output at position 20"]


def test_verify_stops_at_a_sentinel_before_a_decrease():
    cl, gen, layout = sorted_output()
    set_elements(cl, layout, {5: sentinel()})
    swap(cl, layout, 20, 21)
    verdict = verify_output(cl, layout, gen.count, gen.total)
    assert verdict.failures == ["sentinel in output at position 5"]


def test_verify_detects_a_corrupted_striped_block():
    cl = build(P=2, D=2, B=4, m=16, N=512, seed=41)
    gen = fill(cl, "random", 41)
    result = run_sort(cl, gen.pe_blocks, "striped")
    assert verify_output(cl, result.layout, gen.count, gen.total).ok
    set_elements(cl, result.layout, {4 * 9 + 2: (0, 0)})
    verdict = verify_output(cl, result.layout, gen.count, gen.total)
    assert verdict.failures == [
        "keys decrease at position 38",
        "output content differs from input (fingerprint mismatch)"]


def test_verify_detects_partition_imbalance():
    cl, gen, result = sorted_run_result(seed=31)
    pes, lbs = result.layout.pes, result.layout.lbs
    keep = np.arange(len(pes)) != np.flatnonzero(pes == 0)[-1]  # drop a block
    layout = OutputLayout("canonical", pes[keep], lbs[keep])
    verdict = verify_output(cl, layout, gen.count, gen.total)
    assert not verdict.ok


def test_verify_detects_pes_out_of_order():
    """A striped output is sorted and balanced over the PEs, so read as a
    canonical layout only its PE order is wrong."""
    cl = build(P=2, D=2, B=4, m=16, N=512, seed=43)
    gen = fill(cl, "random", 43)
    layout = run_sort(cl, gen.pe_blocks, "striped").layout
    back = int(np.flatnonzero(np.diff(layout.pes) < 0)[0]) + 1
    canonical = OutputLayout("canonical", layout.pes, layout.lbs)
    verdict = verify_output(cl, canonical, gen.count, gen.total)
    assert verdict.failures == [f"PEs out of order at block {back}"]


@pytest.mark.parametrize("t", [1, 2, 3])
def test_verify_detects_a_decrease_across_a_pe_boundary(t):
    cl, gen, layout = sorted_output(P=4)
    share = cl.cfg.N // cl.cfg.P
    swap(cl, layout, t * share - 1, t * share)
    verdict = verify_output(cl, layout, gen.count, gen.total)
    assert verdict.failures == [f"keys decrease at position {t * share}"]


# --- stats reporting -----------------------------------------------------------------

def test_report_stats_is_parseable_and_consistent():
    cl = build(P=2, B=4, m=32, N=128, seed=37)
    gen = fill(cl, "random", 37)
    result = run_sort(cl, gen.pe_blocks, "canonical")
    text = report_stats(cl.cfg, result, "random")
    meta = {}
    rows = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, value = line[2:].split("=", 1)
            meta[key] = value
        else:
            rows.append(line)
    assert meta["engine"] == "canonical"
    assert meta["kind"] == "random"
    assert int(meta["N"]) == 128
    assert meta["randomize"] == "on"
    parsed = list(csv.DictReader(io.StringIO("\n".join(rows))))
    assert {row["phase"] for row in parsed} >= {"run_formation", "selection"}
    data_io = sum(int(row["element_io"]) for row in parsed
                  if row["phase"] in [PHASE_NAMES[ph] for ph in DATA_PHASES])
    assert data_io == int(meta["data_element_io"])
    sent = sum(int(row["sent"]) for row in parsed
               if row["phase"] != "setup")
    assert sent >= int(meta["data_sent"])
    for row in parsed:
        disks = sum(int(row[f"read_disk{d}"]) for d in range(cl.cfg.D))
        assert disks == int(row["blocks_read"])


def test_experiment_rows_cover_the_grid_and_report_ratio():
    cfg = MachineConfig(P=2, D=2, B=4, m=64, N=512, seed=41)
    rows, text = run_experiment_redistribution(cfg, "worst_case_shift",
                                               b_values=(4, 8), trials=4)
    assert {(r.B, r.randomize) for r in rows} == {(4, True), (4, False),
                                                  (8, True), (8, False)}
    assert all(r.trials == 4 for r in rows)
    assert "ratio_mean_v_moved_B8_over_B4=" in text
    off = {r.B: r.mean_v for r in rows if not r.randomize}
    assert off[4] == off[8]    # shuffle off is deterministic in B


# --- command line ----------------------------------------------------------------------

def write_config(path, **kw):
    fields = dict(P=2, D=2, B=4, m=32, N=256, seed=13)
    fields.update(kw)
    path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    return str(path)


def test_cli_gen_sort_verify_round_trip(tmp_path, capsys):
    config = write_config(tmp_path / "grid.cfg")
    store = str(tmp_path / "state")
    assert cli_main(["gen", "--config", config, "--kind", "random",
                     "--persist", store]) == 0
    assert cli_main(["sort", "--persist", store,
                     "--stats", str(tmp_path / "stats.csv")]) == 0
    assert cli_main(["verify", "--persist", store]) == 0
    out = capsys.readouterr()
    assert "verification: pass" in out.out or "verification: pass" in out.err
    stats = (tmp_path / "stats.csv").read_text()
    assert "# engine=canonical" in stats


@pytest.mark.parametrize("engine", ["canonical", "striped"])
@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_cli_gen_sort_verify_an_empty_store(tmp_path, capsys, engine, kind):
    config = write_config(tmp_path / "grid.cfg", N=0)
    store = str(tmp_path / "state")
    assert cli_main(["gen", "--config", config, "--kind", kind,
                     "--persist", store]) == 0
    assert cli_main(["sort", "--persist", store, "--engine", engine]) == 0
    assert cli_main(["verify", "--persist", store]) == 0
    out = capsys.readouterr()
    assert "generated 0 elements" in out.out
    assert f"# engine={engine}" in out.out
    assert out.out.count("verification: pass") == 1     # verify's
    assert "verification: pass" in out.err              # sort's
    with open(os.path.join(store, cli.MANIFEST), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["layout"] == {"engine": engine, "blocks": 0}
    assert (Path(store) / cli.LAYOUT).read_bytes() == b""


def test_cli_verify_fails_on_a_missing_image(tmp_path, capsys):
    config = write_config(tmp_path / "grid.cfg")
    store = tmp_path / "state"
    assert cli_main(["gen", "--config", config, "--persist", str(store)]) == 0
    assert cli_main(["sort", "--persist", str(store)]) == 0
    (store / "pe1_disk0.g2.bin").unlink()
    env = dict(os.environ, PYTHONPATH=str(Path(emsort.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "emsort.cli", "verify", "--persist", str(store)],
        capture_output=True, text=True, env=env)
    assert proc.returncode != 0
    assert "pe1_disk0.g2.bin: image is missing" in proc.stderr


def first_output_row(store: Path) -> tuple[Path, int]:
    """The image holding output block 0 of a sorted store on PE 0 (D = 2,
    B = 4), and the offset of that block's first row in it, read with the
    scalar codec."""
    pes, lbs = stored_layout(store)
    assert pes[0] == 0
    image = store / f"pe0_disk{lbs[0] % 2}.g2.bin"
    slots = image_slots(image.read_bytes())
    return image, 8 + 8 * len(slots) + slots.index(lbs[0] // 2) * 4 * 16


def stored_layout(store: Path) -> tuple[list[int], list[int]]:
    """The PE and id columns of a store's ``layout.bin``."""
    ids = int64_values((store / cli.LAYOUT).read_bytes())
    return ids[:len(ids) // 2], ids[len(ids) // 2:]


def test_cli_verify_fails_on_a_flipped_serial_bit(tmp_path, capsys):
    """A flipped top bit of a stored serial loads as a negative serial; the
    fingerprint catches it, and verification reports it, it does not
    crash."""
    config = write_config(tmp_path / "grid.cfg")
    store = tmp_path / "state"
    assert cli_main(["gen", "--config", config, "--persist", str(store)]) == 0
    assert cli_main(["sort", "--persist", str(store)]) == 0
    image, row = first_output_row(store)
    data = bytearray(image.read_bytes())
    data[row + 15] ^= 0x80
    image.write_bytes(bytes(data))
    capsys.readouterr()
    assert cli_main(["verify", "--persist", str(store)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "verification: FAIL: output content differs from input (fingerprint mismatch)"]


def test_cli_sort_persists_nothing_when_verification_fails(tmp_path, capsys,
                                                           monkeypatch):
    """A sort whose verification fails leaves the store with its input
    generation as it was."""
    config = write_config(tmp_path / "grid.cfg", m=64)
    store = tmp_path / "state"
    assert cli_main(["gen", "--config", config, "--persist", str(store)]) == 0
    before = {path.name: path.read_bytes() for path in store.iterdir()}
    verdict = harness.VerifyResult(True)
    verdict.fail("output content differs from input (fingerprint mismatch)")
    monkeypatch.setattr(cli, "verify_output", lambda *args: verdict)
    capsys.readouterr()
    assert cli_main(["sort", "--persist", str(store)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "verification: FAIL: output content differs from input (fingerprint mismatch)"]
    manifest = json.loads((store / cli.MANIFEST).read_text())
    assert (manifest["stage"], manifest["generation"]) == ("input", 1)
    assert {path.name: path.read_bytes() for path in store.iterdir()} == before
    assert not (store / cli.LAYOUT).exists()


def test_cli_sort_refuses_a_changed_input_before_sorting(tmp_path, capsys,
                                                         monkeypatch):
    """A flipped key bit in an input image is found by the loaded input's
    fingerprint: the sort exits with an error before it runs, and the store
    stays byte-identical."""
    config = write_config(tmp_path / "grid.cfg", m=64)
    store = tmp_path / "state"
    assert cli_main(["gen", "--config", config, "--persist", str(store)]) == 0
    image = store / "pe1_disk0.g1.bin"
    data = bytearray(image.read_bytes())
    data[8 + 8 * len(image_slots(bytes(data)))] ^= 0x01    # row 0's key
    image.write_bytes(bytes(data))
    before = {path.name: path.read_bytes() for path in store.iterdir()}
    monkeypatch.setattr(cli, "run_sort", mock.Mock(side_effect=AssertionError))
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli_main(["sort", "--persist", str(store)])
    assert exc.value.code == (f"error: {store}: the input's fingerprint "
                              "differs from its manifest's")
    assert capsys.readouterr().out == ""
    assert {path.name: path.read_bytes() for path in store.iterdir()} == before


@pytest.mark.parametrize("elem_size", [12, 24])
def test_cli_gen_refuses_an_elem_size_other_than_16(tmp_path, elem_size):
    config = write_config(tmp_path / "grid.cfg", elem_size=elem_size)
    store = tmp_path / "s"
    with pytest.raises(SystemExit) as refusal:
        cli_main(["gen", "--config", config, "--persist", str(store)])
    assert str(refusal.value) == ("error: bad config: canonical: elem_size != 16; "
                                  "striped: elem_size != 16")
    assert not store.exists()


@pytest.mark.parametrize("command", ["sort", "verify"])
def test_cli_refuses_a_stored_elem_size_other_than_16(tmp_path, monkeypatch,
                                                      command):
    """A manifest whose ``cfg`` says ``elem_size`` 24 is refused before any
    image is read, and the store stays byte-identical."""
    path = persisted(tmp_path, command)
    manifest = json.loads(path.read_text())
    manifest["cfg"]["elem_size"] = 24
    path.write_text(json.dumps(manifest))
    before = {p.name: p.read_bytes() for p in path.parent.iterdir()}
    monkeypatch.setattr(cli.Cluster, "load_images",
                        mock.Mock(side_effect=AssertionError))
    with pytest.raises(SystemExit) as refusal:
        cli_main([command, "--persist", str(path.parent)])
    assert str(refusal.value) == (
        "error: bad config: canonical: elem_size != 16")
    assert {p.name: p.read_bytes() for p in path.parent.iterdir()} == before


def test_cli_sort_refuses_an_input_slot_past_the_generated_blocks(tmp_path):
    """``gen`` puts each PE's input in blocks 0 .. N/(P*B) - 1, so every
    slot of an input image lies below ceil(N/(P*B) / D), here 16.  A slot
    of 2**40, whose dense block map would not fit in memory, is refused
    naming the image and the slot, and the store stays byte-identical."""
    config = write_config(tmp_path / "grid.cfg", m=64)  # P = D = 2, B = 4
    store = tmp_path / "input"
    assert cli_main(["gen", "--config", config, "--persist", str(store)]) == 0
    image = store / "pe1_disk1.g1.bin"
    data = image.read_bytes()
    last = len(image_slots(data)) - 1
    image.write_bytes(with_slot(data, last, 2**40))
    before = store_files(store)
    with pytest.raises(SystemExit) as refusal:
        cli_main(["sort", "--persist", str(store)])
    assert refusal.value.code == (           # a message: exit status 1
        f"error: {image}: slot {last} is {2**40}; slots must increase "
        "strictly from 0 up to below 16")
    assert store_files(store) == before


def test_cli_verify_refuses_an_output_slot_past_the_layout(tmp_path):
    """A sorted store's live blocks are exactly the blocks its layout
    names, the largest here block 65 at slot 32, so ``verify`` loads its
    images with the bound 33.  A slot of 2**40, whose dense block map would
    not fit in memory, is refused naming the image and the slot, and the
    store stays byte-identical."""
    store = sorted_store(tmp_path)
    image = store / "pe1_disk1.g2.bin"
    data = image.read_bytes()
    last = len(image_slots(data)) - 1
    image.write_bytes(with_slot(data, last, 2**40))
    before = store_files(store)
    with pytest.raises(SystemExit) as refusal:
        cli_main(["verify", "--persist", str(store)])
    assert refusal.value.code == (           # a message: exit status 1
        f"error: {image}: slot {last} is {2**40}; {SLOT_RULE}")
    assert store_files(store) == before


def test_cli_gen_accepts_a_config_that_one_engine_can_sort(tmp_path):
    config = write_config(tmp_path / "grid.cfg", D=1, m=8, N=64)    # R*B > m
    store = str(tmp_path / "state")
    assert cli_main(["gen", "--config", config, "--persist", store]) == 0
    with pytest.raises(SystemExit, match="canonical: R\\*B > m"):
        cli_main(["sort", "--persist", store])
    assert cli_main(["sort", "--persist", store, "--engine", "striped"]) == 0
    assert cli_main(["verify", "--persist", store]) == 0


def test_cli_gen_lists_the_reasons_of_every_engine(tmp_path):
    config = write_config(tmp_path / "grid.cfg", D=1, m=4, N=64)
    with pytest.raises(SystemExit) as refusal:
        cli_main(["gen", "--config", config, "--persist", str(tmp_path / "s")])
    assert str(refusal.value) == ("error: bad config: canonical: R*B > m, P*B > m; "
                                  "striped: merge arity < 2")


def test_cli_sort_without_persist_runs_fresh(tmp_path):
    config = write_config(tmp_path / "grid.cfg")
    assert cli_main(["sort", "--config", config, "--kind", "sorted",
                     "--engine", "striped"]) == 0


def test_cli_verify_rejects_wrong_stage(tmp_path):
    config = write_config(tmp_path / "grid.cfg")
    store = str(tmp_path / "state")
    cli_main(["gen", "--config", config, "--persist", store])
    with pytest.raises(SystemExit):
        cli_main(["verify", "--persist", store])


def test_cli_experiment_emits_table(tmp_path, capsys):
    config = write_config(tmp_path / "grid.cfg", m=64, N=512)
    assert cli_main(["experiment", "--config", config, "--blocks", "4,8",
                     "--trials", "2", "--kind", "random",
                     "--stats", str(tmp_path / "v.csv")]) == 0
    out = capsys.readouterr().out
    assert "B,randomize,trials,mean_v_moved" in out
    assert (tmp_path / "v.csv").read_text() == out


@pytest.mark.parametrize("argv", [["sort"], ["experiment", "--trials", "1"]],
                         ids=["sort", "experiment"])
def test_cli_refuses_an_unwritable_stats_file_before_any_work(
        tmp_path, monkeypatch, argv):
    def no_work(*_args, **_kwargs):
        raise AssertionError("the command started its work")

    monkeypatch.setattr(cli, "generate_input", no_work)
    monkeypatch.setattr(cli, "run_experiment_redistribution", no_work)
    config = write_config(tmp_path / "grid.cfg")
    stats = str(tmp_path / "missing" / "x.csv")
    with pytest.raises(SystemExit) as refusal:
        cli_main([*argv, "--config", config, "--stats", stats])
    assert str(refusal.value) == f"error: {stats}: No such file or directory"


def cfg_field(name: str, value):
    def damage(manifest: dict) -> dict:
        assert name not in manifest["cfg"]
        manifest["cfg"][name] = value
        return manifest
    return damage


@pytest.mark.parametrize("damage, reason", [
    (lambda manifest: "{", "not valid JSON: "),
    (lambda manifest: {k: v for k, v in manifest.items() if k != "cfg"}, "no cfg"),
    (cfg_field("Q", 4), "bad cfg: "),
    # Every store written while the config had a sample rate holds "K": 0.
    (cfg_field("K", 0), "bad cfg: MachineConfig.__init__() got an unexpected "
                        "keyword argument 'K'"),
], ids=["not-json", "no-cfg", "unknown-cfg-field", "retired-sample-rate"])
def test_cli_refuses_a_malformed_manifest(tmp_path, damage, reason):
    """``sort --persist`` and ``verify`` refuse the manifest and leave
    every byte of the store as it was."""
    config = write_config(tmp_path / "grid.cfg")
    for command, store in (("sort", tmp_path / "input"),
                           ("verify", tmp_path / "output")):
        assert cli_main(["gen", "--config", config, "--persist", str(store)]) == 0
        if command == "verify":
            assert cli_main(["sort", "--persist", str(store)]) == 0
        path = store / "manifest.json"
        damaged = damage(json.loads(path.read_text()))
        path.write_text(damaged if isinstance(damaged, str) else json.dumps(damaged))
        before = store_files(store)
        with pytest.raises(SystemExit) as refusal:
            cli_main([command, "--persist", str(store)])
        assert str(refusal.value).startswith(f"error: {path}: {reason}")
        assert store_files(store) == before


def persisted(tmp_path, command: str, engine: str = "canonical") -> Path:
    """The manifest of a store that ``command`` reads: a generated input
    for ``sort``, an output that ``engine`` sorted for ``verify``."""
    config = write_config(tmp_path / "grid.cfg")
    store = tmp_path / command
    assert cli_main(["gen", "--config", config, "--persist", str(store)]) == 0
    if command == "verify":
        assert cli_main(["sort", "--persist", str(store), "--engine",
                         engine]) == 0
    return store / "manifest.json"


@pytest.mark.parametrize("command, field", [
    *(("sort", field) for field in cli.STAGE_FIELDS["input"]),
    *(("verify", field) for field in cli.STAGE_FIELDS["output"]),
])
def test_cli_refuses_a_manifest_without_a_field_it_needs(tmp_path, command, field):
    path = persisted(tmp_path, command)
    manifest = json.loads(path.read_text())
    del manifest[field]
    path.write_text(json.dumps(manifest))
    with pytest.raises(SystemExit) as refusal:
        cli_main([command, "--persist", str(path.parent)])
    assert str(refusal.value) == f"error: {path}: no {field}"


@pytest.mark.parametrize("field, value, reason", [
    ("P", "2", "P must be int, got '2'"),
    ("m", 32.0, "m must be int, got 32.0"),
    ("seed", True, "seed must be int, got True"),
    ("randomize", 1, "randomize must be bool, got 1"),
])
@pytest.mark.parametrize("command", ["sort", "verify"])
def test_cli_refuses_a_cfg_value_of_the_wrong_type(tmp_path, command, field,
                                                   value, reason):
    path = persisted(tmp_path, command)
    manifest = json.loads(path.read_text())
    manifest["cfg"][field] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(SystemExit) as refusal:
        cli_main([command, "--persist", str(path.parent)])
    assert str(refusal.value) == f"error: {path}: bad cfg: {reason}"


@pytest.mark.parametrize("field, value, reason", [
    ("count", "abc", "must be a non-negative int, got 'abc'"),
    ("count", -1, "must be a non-negative int, got -1"),
    ("count", True, "must be a non-negative int, got True"),
    ("total", 2 ** 128, f"must be an int in [0, 2**128), got {2 ** 128}"),
    ("total", -1, "must be an int in [0, 2**128), got -1"),
    ("total", "abc", "must be an int in [0, 2**128), got 'abc'"),
    ("kind", "bogus", "must be one of random, sorted, reverse, duplicate_heavy, "
                      "worst_case_shift, got 'bogus'"),
    ("generation", -1, "must be a non-negative int, got -1"),
    ("generation", "1", "must be a non-negative int, got '1'"),
], ids=["count-abc", "count-negative", "count-true", "total-2**128",
        "total-negative", "total-abc", "kind-bogus", "generation-negative",
        "generation-string"])
@pytest.mark.parametrize("command", ["sort", "verify"])
def test_cli_refuses_a_malformed_manifest_field(tmp_path, command, field,
                                                value, reason):
    path = persisted(tmp_path, command)
    manifest = json.loads(path.read_text())
    manifest[field] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(SystemExit) as refusal:
        cli_main([command, "--persist", str(path.parent)])
    assert str(refusal.value) == f"error: {path}: bad {field}: {reason}"


def drop(name):
    return lambda layout: {k: v for k, v in layout.items() if k != name}


def older_shape(layout):
    """The layout as sorted stores once held it in the manifest: one list
    of block ids per PE for canonical, a list of ``[pe, lb]`` pairs for
    striped, later a ``pes`` and an ``lbs`` list for both."""
    if layout["engine"] == "canonical":
        return {"engine": "canonical", "stripe": None, "per_pe": [[0], [1]]}
    return {"engine": "striped", "per_pe": None, "stripe": [[0, 0], [1, 0]]}


@pytest.mark.parametrize("engine, damage, reason", [
    ("canonical", lambda layout: [layout], "not an object"),
    ("canonical", lambda layout: {**layout, "engine": "heap"},
     "engine must be one of canonical, striped, got 'heap'"),
    ("striped", drop("engine"),
     "engine must be one of canonical, striped, got None"),
    ("canonical", drop("blocks"), "blocks must be a non-negative int, got None"),
    ("striped", lambda layout: {**layout, "blocks": -1},
     "blocks must be a non-negative int, got -1"),
    ("canonical", lambda layout: {**layout, "blocks": "64"},
     "blocks must be a non-negative int, got '64'"),
    ("striped", lambda layout: {**layout, "blocks": 64.0},
     "blocks must be a non-negative int, got 64.0"),
    ("canonical", lambda layout: {**layout, "blocks": True},
     "blocks must be a non-negative int, got True"),
    ("canonical", older_shape, "blocks must be a non-negative int, got None"),
    ("striped", older_shape, "blocks must be a non-negative int, got None"),
    ("striped", lambda layout: {"engine": "striped", "pes": [0], "lbs": [0]},
     "blocks must be a non-negative int, got None"),
], ids=["not-an-object", "unknown-engine", "no-engine", "no-blocks",
        "negative-blocks", "string-blocks", "float-blocks", "bool-blocks",
        "older-per_pe", "older-stripe", "older-pes-lbs"])
def test_cli_verify_refuses_a_malformed_layout(tmp_path, engine, damage,
                                               reason):
    path = persisted(tmp_path, "verify", engine)
    manifest = json.loads(path.read_text())
    manifest["layout"] = damage(manifest["layout"])
    path.write_text(json.dumps(manifest))
    with pytest.raises(SystemExit) as refusal:
        cli_main(["verify", "--persist", str(path.parent)])
    assert str(refusal.value) == f"error: {path}: bad layout: {reason}"


@pytest.mark.parametrize("engine, damage, message", [
    ("canonical", {"P": 0}, "bad config: canonical: P < 1"),
    ("striped", {"P": 0}, "bad config: striped: P < 1"),
    ("canonical", {"D": 0}, "bad config: canonical: D < 1"),
    ("striped", {"B": 0}, "bad config: striped: B < 1, merge arity < 2"),
    ("canonical", {"m": 0}, "bad config: canonical: m < B"),
    ("striped", {"m": 0}, "bad config: striped: m < B"),
    ("canonical", None, "{path}: not a JSON object"),
], ids=["canonical-P0", "striped-P0", "D0", "B0", "canonical-m0",
        "striped-m0", "a-list"])
def test_cli_verify_refuses_a_manifest_no_engine_can_run(tmp_path, engine,
                                                        damage, message):
    """The config is checked against the layout's engine before the images
    are loaded; a manifest that is not an object is refused as such."""
    path = persisted(tmp_path, "verify", engine)
    manifest = json.loads(path.read_text())
    if damage is None:
        manifest = [manifest]
    else:
        manifest["cfg"].update(damage)
    path.write_text(json.dumps(manifest))
    env = dict(os.environ, PYTHONPATH=str(Path(emsort.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "emsort.cli", "verify", "--persist",
         str(path.parent)], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", f"error: {message.format(path=path)}\n")


def test_validate_config_names_a_machine_without_memory():
    """``P = 0`` or ``m = 0`` leaves no memory; the reasons say so rather
    than dividing by it."""
    cfg = MachineConfig(P=2, D=2, B=4, m=32, N=256)
    for engine in ENGINES:
        assert validate_config(replace(cfg, P=0), engine) == ["P < 1"]
        assert validate_config(replace(cfg, m=0), engine) == ["m < B"]


@pytest.mark.parametrize("engine", ["canonical", "striped"])
def test_cli_sorts_an_input_manifest_that_lists_its_blocks(tmp_path, engine):
    """Generated stores once also listed every PE's input block ids
    (``pe_blocks``); such a store sorts to the same images and manifest."""
    config = write_config(tmp_path / "grid.cfg")
    stores = [tmp_path / "listed", tmp_path / "plain"]
    for store in stores:
        assert cli_main(["gen", "--config", config, "--persist", str(store)]) == 0
    path = stores[0] / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["pe_blocks"] = [list(range(256 // 2 // 4))] * 2   # N / P / B each
    path.write_text(json.dumps(manifest))
    for store in stores:
        assert cli_main(["sort", "--persist", str(store), "--engine",
                         engine]) == 0
    listed, plain = ({f.name: f.read_bytes() for f in store.iterdir()}
                     for store in stores)
    # The P * D images, the layout and the manifest.
    assert listed.keys() == plain.keys() and len(listed) == 2 * 2 + 2
    assert listed == plain


def sorted_store(tmp_path) -> Path:
    """A store that the canonical engine sorted: P = D = 2, B = 4,
    ``elem_size`` 16, generation 2."""
    return persisted(tmp_path, "verify").parent


def edit_image(store: Path, change) -> str:
    """Replace ``pe0_disk0.g2.bin`` by ``change(data, n, slots)``, which
    returns the new bytes and the reason loading gives for them; returns
    the message ``verify`` exits with."""
    image = store / "pe0_disk0.g2.bin"
    data = image.read_bytes()
    slots = image_slots(data)
    damaged, reason = change(data, len(slots), slots)
    image.write_bytes(damaged)
    return f"error: {image}: {reason}"


def with_slot(data: bytes, i: int, value: int) -> bytes:
    return data[:8 + 8 * i] + int64_bytes([value]) + data[16 + 8 * i:]


#: ``verify`` loads a sorted store's images with one past the largest slot
#: that its layout names, 65 // D here.
SLOT_RULE = "slots must increase strictly from 0 up to below 33"


@pytest.mark.parametrize("change", [
    lambda data, n, slots: (data[:5], "5 bytes hold no block count"),
    lambda data, n, slots: (int64_bytes([-1]) + data[8:],
                            "negative block count -1"),
    lambda data, n, slots: (int64_bytes([n + 1]) + data[8:],
                            f"{n + 1} blocks need {8 + (n + 1) * 72} bytes, "
                            f"the image has {len(data)}"),
    lambda data, n, slots: (data[:-1], f"{n} blocks need {len(data)} bytes, "
                                       f"the image has {len(data) - 1}"),
    lambda data, n, slots: (data + bytes(5), f"5 bytes past its {n} blocks"),
    lambda data, n, slots: (with_slot(with_slot(data, 0, slots[1]), 1, slots[0]),
                            f"slot 1 is {slots[0]}; {SLOT_RULE}"),
    lambda data, n, slots: (with_slot(data, 1, slots[0]),
                            f"slot 1 is {slots[0]}; {SLOT_RULE}"),
    lambda data, n, slots: (with_slot(data, 0, -1), f"slot 0 is -1; {SLOT_RULE}"),
], ids=["no-count", "negative-count", "count-past-the-file", "partial-block",
        "trailing-bytes", "slots-out-of-order", "repeated-slot",
        "negative-slot"])
def test_cli_verify_refuses_a_bad_image_header(tmp_path, change):
    """Every image is a count, that many increasing slots, and that many
    rows of ``16 * B`` bytes (72 with the slot here), and nothing
    else; anything else exits 1 naming the image."""
    store = sorted_store(tmp_path)
    message = edit_image(store, change)
    with pytest.raises(SystemExit) as refusal:
        cli_main(["verify", "--persist", str(store)])
    assert refusal.value.code == message        # a message: exit status 1


def test_cli_refuses_a_bad_image_header_without_a_traceback(tmp_path):
    store = sorted_store(tmp_path)
    message = edit_image(store, lambda data, n, slots: (
        int64_bytes([-3]) + data[8:], "negative block count -3"))
    env = dict(os.environ, PYTHONPATH=str(Path(emsort.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "emsort.cli", "verify", "--persist", str(store)],
        capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (1, message + "\n")


def with_id(ids: list[int], i: int, value: int) -> list[int]:
    return ids[:i] + [value] + ids[i + 1:]


@pytest.mark.parametrize("change", [
    lambda pes, lbs, data: (data[:-8], None,
                            f"{len(data) - 8} bytes, not 16 for each of "
                            f"{len(pes)} blocks"),
    lambda pes, lbs, data: (data, len(pes) + 1,
                            f"{len(data)} bytes, not 16 for each of "
                            f"{len(pes) + 1} blocks"),
    lambda pes, lbs, data: (int64_bytes(with_id(pes, 3, 2) + lbs), None,
                            f"layout block 3 is pe=2 lb={lbs[3]}: the pe must "
                            "be in [0, 2) and the lb non-negative"),
    lambda pes, lbs, data: (int64_bytes(with_id(pes, 0, -1) + lbs), None,
                            f"layout block 0 is pe=-1 lb={lbs[0]}: the pe must "
                            "be in [0, 2) and the lb non-negative"),
    lambda pes, lbs, data: (int64_bytes(pes + with_id(lbs, 5, -1)), None,
                            f"layout block 5 is pe={pes[5]} lb=-1: the pe must "
                            "be in [0, 2) and the lb non-negative"),
    lambda pes, lbs, data: (None, None, "layout is missing"),
], ids=["short-file", "blocks-past-the-file", "pe-out-of-range", "negative-pe",
        "negative-id", "missing"])
@pytest.mark.parametrize("engine", ["canonical", "striped"])
def test_cli_verify_refuses_a_bad_layout_file(tmp_path, engine, change):
    """``layout.bin`` is ``16 * blocks`` bytes of block ids whose PEs lie
    in ``[0, P)`` and whose ids are non-negative; anything else exits 1
    naming the file."""
    path = persisted(tmp_path, "verify", engine)
    layout = tmp_path / "verify" / cli.LAYOUT
    pes, lbs = stored_layout(layout.parent)
    data, blocks, reason = change(pes, lbs, layout.read_bytes())
    if data is None:
        layout.unlink()
    else:
        layout.write_bytes(data)
    if blocks is not None:
        manifest = json.loads(path.read_text())
        manifest["layout"]["blocks"] = blocks
        path.write_text(json.dumps(manifest))
    with pytest.raises(SystemExit) as refusal:
        cli_main(["verify", "--persist", str(layout.parent)])
    assert refusal.value.code == f"error: {layout}: {reason}"


def store_files(store: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in store.iterdir()}


def test_a_crash_before_the_manifest_switch_keeps_the_old_store(
        tmp_path, monkeypatch):
    """A crash after the new images are written but before the manifest
    names them leaves the old stage loadable and its files unchanged; the
    next run removes what the crash left."""
    def crash(*_args):
        raise OSError("crash before the switch")

    config = write_config(tmp_path / "grid.cfg")
    store = tmp_path / "state"
    images = [f"pe{pe}_disk{d}.g{{}}.bin" for pe in range(2) for d in range(2)]
    assert cli_main(["gen", "--config", config, "--persist", str(store)]) == 0
    assert cli_main(["sort", "--persist", str(store)]) == 0
    before = store_files(store)
    assert sorted(before) == sorted(
        [cli.LAYOUT, cli.MANIFEST] + [name.format(2) for name in images])
    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="crash before the switch"):
            cli_main(["gen", "--config", config, "--kind", "reverse",
                      "--persist", str(store)])
    after = store_files(store)
    assert {name: after[name] for name in before} == before
    assert sorted(after.keys() - before.keys()) == sorted(
        [cli.MANIFEST + ".tmp"] + [name.format(3) for name in images])
    assert cli_main(["verify", "--persist", str(store)]) == 0

    assert cli_main(["gen", "--config", config, "--persist", str(store)]) == 0
    assert sorted(store_files(store)) == sorted(
        [cli.MANIFEST] + [name.format(4) for name in images])
    input_files = store_files(store)
    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="crash before the switch"):
            cli_main(["sort", "--persist", str(store)])
    assert {name: store_files(store)[name] for name in input_files} == input_files
    assert cli_main(["sort", "--persist", str(store)]) == 0
    assert sorted(store_files(store)) == sorted(
        [cli.LAYOUT, cli.MANIFEST] + [name.format(6) for name in images])
    assert cli_main(["verify", "--persist", str(store)]) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
       st.integers(0, 6), st.integers(1, 4),
       st.sampled_from(["canonical", "striped"]),
       st.sampled_from(["random", "duplicate_heavy", "worst_case_shift"]))
def test_cli_round_trip_persists_only_live_blocks(P, D, B, loads, memory,
                                                  engine, kind):
    """``gen``, ``sort --persist`` and ``verify --persist`` on a drawn
    machine: each sorted image is exactly ``8 + n * (8 + 16 * B)``
    bytes for the ``n`` blocks its disk holds after the sort, and the
    cluster ``verify`` loads holds the sorted cluster's blocks."""
    cfg = MachineConfig(P=P, D=D, B=B, m=memory * P * B, N=loads * P * B,
                        seed=loads)
    assume(validate_config(cfg, engine) == [])
    clusters = []

    def verifying(cluster, *args):
        clusters.append(cluster)
        return verify_output(cluster, *args)

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "verify_output", verifying):
        config = write_config(Path(tmp, "grid.cfg"), P=P, D=D, B=B, m=cfg.m,
                              N=cfg.N, seed=cfg.seed)
        store = Path(tmp, "state")
        assert cli_main(["gen", "--config", config, "--kind", kind,
                         "--persist", str(store)]) == 0
        assert cli_main(["sort", "--persist", str(store), "--engine",
                         engine]) == 0
        assert cli_main(["verify", "--persist", str(store)]) == 0
        sorted_cluster, loaded = clusters
        for pe in range(P):
            live = live_blocks(sorted_cluster, pe)
            assert live_blocks(loaded, pe) == live
            for d in range(D):
                n = sum(lb % D == d for lb in live)
                size = (store / f"pe{pe}_disk{d}.g2.bin").stat().st_size
                assert size == 8 + n * (8 + 16 * B)
        assert loaded.live.tolist() == sorted_cluster.live.tolist()


@pytest.mark.parametrize("kind", ["random", "duplicate_heavy",
                                  "worst_case_shift"])
@pytest.mark.parametrize("engine", ["canonical", "striped"])
def test_cli_manifest_layout_round_trips(tmp_path, monkeypatch, engine, kind):
    """The columns ``sort --persist`` writes are what ``verify --persist``
    reads back: equal to the sort's own layout, as ``int64`` columns."""
    results, verified = [], []

    def sorting(*args):
        results.append(run_sort(*args))
        return results[-1]

    def verifying(cluster, layout, *args):
        verified.append(layout)
        return verify_output(cluster, layout, *args)

    monkeypatch.setattr(cli, "run_sort", sorting)
    monkeypatch.setattr(cli, "verify_output", verifying)
    config = write_config(tmp_path / "grid.cfg")
    store = str(tmp_path / "state")
    assert cli_main(["gen", "--config", config, "--kind", kind,
                     "--persist", store]) == 0
    assert cli_main(["sort", "--persist", store, "--engine", engine]) == 0
    assert cli_main(["verify", "--persist", store]) == 0
    [result] = results
    sorted_layout, read_back = result.layout, verified[-1]
    assert read_back.engine == sorted_layout.engine == engine
    for column in ("pes", "lbs"):
        assert getattr(read_back, column).dtype == np.int64
        assert np.array_equal(getattr(read_back, column),
                              getattr(sorted_layout, column))


def test_cli_writes_the_manifest_as_one_line(tmp_path, monkeypatch):
    """An output manifest is the payload as single-line JSON: the same
    value the indented encoding gives, with the layout's engine and length;
    ``layout.bin`` holds its two columns."""
    results = []

    def sorting(*args):
        results.append(run_sort(*args))
        return results[-1]

    monkeypatch.setattr(cli, "run_sort", sorting)
    config = write_config(tmp_path / "grid.cfg", P=4, D=2, B=16, m=1024,
                          N=65536)
    store = tmp_path / "state"
    assert cli_main(["gen", "--config", config, "--persist", str(store)]) == 0
    assert cli_main(["sort", "--persist", str(store)]) == 0
    [result] = results
    text = (store / "manifest.json").read_text()
    manifest = json.loads(text)
    layout = result.layout
    payload = {"stage": "output", "cfg": manifest["cfg"], "generation": 2,
               "kind": "random", "count": 65536, "total": manifest["total"],
               "layout": {"engine": "canonical", "blocks": 4096}}
    assert text.endswith("}\n") and text.count("\n") == 1
    assert manifest == json.loads(
        json.dumps(payload, indent=1, sort_keys=True))
    assert (store / cli.LAYOUT).read_bytes() == int64_bytes(
        layout.pes.tolist() + layout.lbs.tolist())


def test_cli_rejects_bad_config(tmp_path):
    config = write_config(tmp_path / "grid.cfg", N=100)      # not B*P aligned
    with pytest.raises(SystemExit):
        cli_main(["gen", "--config", config, "--persist", str(tmp_path / "s")])


def test_cli_verify_without_a_manifest_is_an_error(tmp_path):
    with pytest.raises(SystemExit) as refusal:
        cli_main(["verify", "--persist", str(tmp_path)])
    assert str(refusal.value) == f"error: {tmp_path / 'manifest.json'}: no manifest"


@pytest.mark.parametrize("line, reason", [
    ("Q = 4", "line 7: unknown config key 'Q'"),
    ("K = 4", "line 7: unknown config key 'K'"),       # the retired sample rate
    ("B = four", "line 7: B must be an integer, got 'four'"),
])
def test_cli_config_file_errors_are_reported(tmp_path, line, reason):
    config = write_config(tmp_path / "grid.cfg")
    with open(config, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    for argv in (["gen", "--persist", str(tmp_path / "s")], ["sort"],
                 ["experiment"]):
        with pytest.raises(SystemExit) as refusal:
            cli_main([*argv, "--config", config])
        assert str(refusal.value) == f"error: {config}: {reason}"


def test_cli_config_file_without_a_field_is_reported(tmp_path):
    config = tmp_path / "grid.cfg"
    config.write_text("P = 2\nD = 2\nB = 4\nm = 32\n")
    with pytest.raises(SystemExit) as refusal:
        cli_main(["gen", "--config", str(config), "--persist", str(tmp_path / "s")])
    assert str(refusal.value) == (f"error: {config}: MachineConfig.__init__() "
                                  "missing 1 required positional argument: 'N'")


def test_cli_experiment_refuses_zero_trials(tmp_path):
    config = write_config(tmp_path / "grid.cfg")
    with pytest.raises(SystemExit) as refusal:
        cli_main(["experiment", "--config", config, "--trials", "0"])
    assert str(refusal.value) == "error: trials=0: need at least one trial"


def test_cli_experiment_refuses_an_unusable_block_size(tmp_path, capsys):
    config = write_config(tmp_path / "grid.cfg")
    with pytest.raises(SystemExit) as refusal:
        cli_main(["experiment", "--config", config, "--blocks", "4,0"])
    assert str(refusal.value).startswith("error: B=0: B < 1")
    assert capsys.readouterr().out == ""       # refused before any trial
    with pytest.raises(SystemExit, match="is not a comma-separated list"):
        cli_main(["experiment", "--config", config, "--blocks", "4,x"])
