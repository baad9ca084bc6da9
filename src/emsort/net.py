"""Communication accounting: moved element volumes and control gathers.

The simulator moves no data between PEs itself; a phase that exchanges
elements or control values charges how many it moved.
:func:`charge_volume` is the one place that turns a (P, P) matrix of moved
elements into the sent and received counters; the all-to-all's rounds, run
formation's exchange and the striped engine's block moves all charge
through it.  Self-addressed data stays local and is charged to neither
counter.  :func:`gather_splitters` charges an all-gather of control values
from the count each PE contributes; a count missing for some PE means it
skipped the barrier, which raises :class:`ProtocolError` rather than
deadlocking.  A phase is an index of the counter arrays (``core.PHASE_*``);
one outside them raises ``IndexError`` before anything is charged.
"""
from __future__ import annotations

import numpy as np

from .core import CONTROL, RECEIVED, SENT, refuse_phase
from .vdisk import Cluster


class ProtocolError(Exception):
    pass


def charge_volume(cluster: Cluster, volume, phase: int) -> None:
    """Charge ``volume[src][dst]`` elements moved from PE ``src`` to PE
    ``dst``: each PE's sent and received totals, the diagonal free."""
    refuse_phase(phase)
    moved = np.array(volume, np.int64).reshape(cluster.cfg.P, cluster.cfg.P)
    np.fill_diagonal(moved, 0)
    traffic = cluster.counters.traffic[phase]
    traffic[SENT] += moved.sum(1)
    traffic[RECEIVED] += moved.sum(0)


def gather_splitters(cluster: Cluster, sizes, phase: int) -> None:
    """All-gather of small control values (splitter positions, counts),
    PE ``p`` contributing ``sizes[p]`` of them.

    Every PE ends up with the concatenation in PE order, so each PE
    receives every value it did not contribute: the total less its own
    count, charged to the control counter, not to element volume.
    """
    refuse_phase(phase)
    P = cluster.cfg.P
    sizes = np.asarray(sizes, np.int64)
    if sizes.shape != (P,):
        raise ProtocolError(
            f"gather_splitters: sizes of shape {sizes.shape} for {P} PEs")
    cluster.counters.traffic[phase, CONTROL] += sizes.sum() - sizes
