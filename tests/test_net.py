"""Communication accounting: moved volumes and control gathers."""
from __future__ import annotations

import numpy as np
import pytest

from emsort.core import (
    CONTROL, PHASE_ALL_TO_ALL, PHASE_SELECTION, RECEIVED, SENT, phase_index,
)
from emsort.net import ProtocolError, charge_volume, gather_splitters

from helpers import build


def test_charge_volume_charges_the_off_diagonal_per_pe():
    cl = build(P=3)
    volume = np.array([[5, 1, 2], [0, 7, 3], [4, 0, 9]])
    charge_volume(cl, volume, PHASE_ALL_TO_ALL)
    charge_volume(cl, [[1, 0, 0], [2, 0, 0], [0, 0, 0]], PHASE_ALL_TO_ALL)
    traffic = cl.counters.traffic[phase_index(PHASE_ALL_TO_ALL)]
    assert traffic[SENT].tolist() == [3, 5, 4]
    assert traffic[RECEIVED].tolist() == [6, 1, 5]
    assert volume.tolist() == [[5, 1, 2], [0, 7, 3], [4, 0, 9]]


def test_charge_volume_refuses_a_matrix_for_another_processor_count():
    cl = build(P=3)
    with pytest.raises(ValueError):
        charge_volume(cl, np.ones((2, 2), np.int64), PHASE_ALL_TO_ALL)
    traffic = cl.counters.traffic[phase_index(PHASE_ALL_TO_ALL)]
    assert traffic[SENT].tolist() == [0, 0, 0]
    assert traffic[RECEIVED].tolist() == [0, 0, 0]


def test_gather_splitters_counts_control():
    cl = build(P=3)
    gather_splitters(cl, [[1, 2], np.empty(0, np.uint64), np.array([3])],
                     PHASE_SELECTION)
    control = cl.counters.traffic[phase_index(PHASE_SELECTION), CONTROL].tolist()
    # each PE receives everything it did not contribute
    assert control == [1, 3, 2]
    with pytest.raises(ProtocolError):
        gather_splitters(cl, [[1], [2]], PHASE_SELECTION)


def test_gather_splitters_charges_no_element_traffic():
    cl = build(P=2)
    gather_splitters(cl, [[7], [8]], PHASE_SELECTION)
    assert cl.counters.traffic[:, SENT].sum() == 0
    assert cl.counters.element_io(cl.cfg.B) == 0
