"""Communication accounting: moved volumes and control gathers."""
from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from emsort import striped
from emsort.core import (
    CONTROL, PHASE_ALL_TO_ALL, PHASE_LOCAL_MERGE, PHASE_RUN_FORMATION,
    PHASE_SELECTION, PHASE_STRIPED_MERGE, RECEIVED, SENT,
)
from emsort.harness import run_sort
from emsort.net import ProtocolError, charge_volume, gather_splitters
from emsort.redistribute import compute_splitters
from emsort.runform import run_layout

from helpers import build, counter_state, fill


def test_charge_volume_charges_the_off_diagonal_per_pe():
    cl = build(P=3)
    volume = np.array([[5, 1, 2], [0, 7, 3], [4, 0, 9]])
    charge_volume(cl, volume, PHASE_ALL_TO_ALL)
    charge_volume(cl, [[1, 0, 0], [2, 0, 0], [0, 0, 0]], PHASE_ALL_TO_ALL)
    traffic = cl.counters.traffic[PHASE_ALL_TO_ALL]
    assert traffic[SENT].tolist() == [3, 5, 4]
    assert traffic[RECEIVED].tolist() == [6, 1, 5]
    assert volume.tolist() == [[5, 1, 2], [0, 7, 3], [4, 0, 9]]


def test_charge_volume_refuses_a_matrix_for_another_processor_count():
    cl = build(P=3)
    with pytest.raises(ValueError):
        charge_volume(cl, np.ones((2, 2), np.int64), PHASE_ALL_TO_ALL)
    traffic = cl.counters.traffic[PHASE_ALL_TO_ALL]
    assert traffic[SENT].tolist() == [0, 0, 0]
    assert traffic[RECEIVED].tolist() == [0, 0, 0]


def test_gather_splitters_counts_control():
    cl = build(P=3)
    gather_splitters(cl, [2, 0, 1], PHASE_SELECTION)
    gather_splitters(cl, np.zeros(3, np.int64), PHASE_SELECTION)
    control = cl.counters.traffic[PHASE_SELECTION, CONTROL].tolist()
    # each PE receives everything it did not contribute
    assert control == [1, 3, 2]
    for sizes in ([1, 2], [[1, 2, 3]], 3):
        with pytest.raises(ProtocolError):
            gather_splitters(cl, sizes, PHASE_SELECTION)
    assert cl.counters.traffic[PHASE_SELECTION, CONTROL].tolist() == control


@pytest.mark.parametrize("charge", [
    lambda cl: charge_volume(cl, np.ones((2, 2), np.int64), -1),
    lambda cl: gather_splitters(cl, [1, 2], -1),
], ids=["charge_volume", "gather_splitters"])
def test_a_negative_phase_is_refused_before_any_charge(charge):
    """Phase -1 would index the counters' last phase; it is refused."""
    cl = build(P=2)
    before = counter_state(cl)
    with pytest.raises(IndexError):
        charge(cl)
    assert counter_state(cl) == before


def test_gather_splitters_charges_no_element_traffic():
    cl = build(P=2)
    gather_splitters(cl, [1, 1], PHASE_SELECTION)
    assert cl.counters.traffic[:, SENT].sum() == 0
    assert cl.counters.element_io(cl.cfg.B) == 0


def control(cl, phase) -> list[int]:
    return cl.counters.traffic[phase, CONTROL].tolist()


@pytest.mark.parametrize("P", [1, 3, 4])
def test_canonical_control_traffic_has_closed_forms(P):
    """Run formation gathers each of R loads' P - 1 cuts from every PE.
    Selection gathers two words per run block, its minimum and position,
    from the PE that holds it: PE p receives ``2 (S - S_p)`` for the ``S_p``
    run blocks it holds of ``S``, as in a striped pass.  Then every PE but
    0 receives PE 0's P - 1 inner cuts of every run."""
    cl = build(P=P, D=2, B=4, m=64, N=288 * P, seed=P)
    run_sort(cl, fill(cl, "random", P).pe_blocks, "canonical")
    R, B = cl.cfg.R, cl.cfg.B
    assert R == 5                   # the last run is half a memory load

    # Run blocks p * share / B .. (p + 1) * share / B - 1 are on PE p.
    held = [sum(share // B for _length, share in run_layout(cl.cfg))] * P
    S = sum(held)
    assert S == cl.cfg.N // B
    assert control(cl, PHASE_RUN_FORMATION) == [R * (P - 1) ** 2] * P
    assert control(cl, PHASE_SELECTION) == [
        2 * (S - held[p]) + (p != 0) * (P - 1) * R for p in range(P)]
    for phase in (PHASE_ALL_TO_ALL, PHASE_LOCAL_MERGE, PHASE_STRIPED_MERGE):
        assert control(cl, phase) == [0] * P


def test_splitters_of_no_runs_charge_zero_control():
    cl = build(P=3)
    assert compute_splitters(cl, []).pos == [[]] * 4
    assert cl.counters.traffic[:, CONTROL].sum() == 0


def test_striped_control_traffic_has_closed_forms():
    """Run formation as in the canonical engine; each merge pass gathers
    two words per block of its runs from the PE that holds the block."""
    cl = build(P=3, D=2, B=4, m=16, N=384, seed=7)
    P = cl.cfg.P
    passes = []

    def recorded(cluster, runs, start_disk, buffers):
        before = control(cluster, PHASE_STRIPED_MERGE)
        out = merge_pass(cluster, runs, start_disk, buffers)
        on_pe = np.bincount(np.concatenate([run.pes for run in runs]),
                            minlength=P)
        passes.append((np.subtract(control(cluster, PHASE_STRIPED_MERGE),
                                   before).tolist(),
                       (2 * (on_pe.sum() - on_pe)).tolist()))
        return out

    merge_pass = striped.striped_merge_pass
    with mock.patch.object(striped, "striped_merge_pass", recorded):
        _final, merge_passes = striped.striped_sort(
            cl, fill(cl, "random", 7).pe_blocks)
    assert merge_passes == 2 and len(passes) == 3
    for got, expected in passes:
        assert got == expected
    assert control(cl, PHASE_RUN_FORMATION) == [cl.cfg.R * (P - 1) ** 2] * P
    assert control(cl, PHASE_SELECTION) == [0] * P
