"""Message exchange primitives and their communication accounting."""
from __future__ import annotations

import numpy as np
import pytest

from emsort.core import PHASE_ALL_TO_ALL, PHASE_SELECTION
from emsort.net import (
    ProtocolError, all_to_all_v, charge_volume, gather_splitters,
)

from helpers import build


def test_all_to_all_delivers_exactly_and_in_order():
    cl = build(P=3)
    payloads = [[[] for _ in range(3)] for _ in range(3)]
    payloads[0][2] = [("a", [(1, 1)]), ("b", [(2, 2), (3, 3)])]
    payloads[2][0] = [("c", [(9, 9)])]
    payloads[1][1] = [("self", [(5, 5)])]
    received = all_to_all_v(cl, payloads, PHASE_ALL_TO_ALL)
    assert received[2][0] == [("a", [(1, 1)]), ("b", [(2, 2), (3, 3)])]
    assert received[0][2] == [("c", [(9, 9)])]
    assert received[1][1] == [("self", [(5, 5)])]
    assert received[0][1] == []


def test_all_to_all_charges_cross_traffic_only():
    cl = build(P=2)
    payloads = [[[(None, [(1, 1), (2, 2)])], [(None, [(3, 3)])]],
                [[], [(None, [(4, 4), (5, 5), (6, 6)])]]]
    all_to_all_v(cl, payloads, PHASE_ALL_TO_ALL)
    sent = cl.counters.elements_sent[PHASE_ALL_TO_ALL]
    recv = cl.counters.elements_received[PHASE_ALL_TO_ALL]
    assert sent == [1, 0]          # self-delivery of 2 and 3 elements is free
    assert recv == [0, 1]
    assert sum(sent) == sum(recv)


def test_charge_volume_charges_the_off_diagonal_per_pe():
    cl = build(P=3)
    volume = np.array([[5, 1, 2], [0, 7, 3], [4, 0, 9]])
    charge_volume(cl, volume, PHASE_ALL_TO_ALL)
    charge_volume(cl, [[1, 0, 0], [2, 0, 0], [0, 0, 0]], PHASE_ALL_TO_ALL)
    assert cl.counters.elements_sent[PHASE_ALL_TO_ALL] == [3, 5, 4]
    assert cl.counters.elements_received[PHASE_ALL_TO_ALL] == [6, 1, 5]
    assert volume.tolist() == [[5, 1, 2], [0, 7, 3], [4, 0, 9]]


def test_all_to_all_rejects_ragged_matrices():
    cl = build(P=2)
    with pytest.raises(ProtocolError):
        all_to_all_v(cl, [[[]] * 2], PHASE_ALL_TO_ALL)
    with pytest.raises(ProtocolError):
        all_to_all_v(cl, [[[]], [[]] * 2], PHASE_ALL_TO_ALL)


def test_gather_splitters_counts_control():
    cl = build(P=3)
    gather_splitters(cl, [[1, 2], np.empty(0, np.uint64), np.array([3])],
                     PHASE_SELECTION)
    control = cl.counters.control_values[PHASE_SELECTION]
    # each PE receives everything it did not contribute
    assert control == [1, 3, 2]
    with pytest.raises(ProtocolError):
        gather_splitters(cl, [[1], [2]], PHASE_SELECTION)


def test_gather_splitters_charges_no_element_traffic():
    cl = build(P=2)
    gather_splitters(cl, [[7], [8]], PHASE_SELECTION)
    assert cl.counters.data_sent_total() == 0
    assert cl.counters.total_element_io(cl.cfg.B) == 0
