"""Communication accounting: moved element volumes and control gathers.

The simulator moves no data between PEs itself; a phase that exchanges
elements charges what it moved.  :func:`charge_volume` is the one place
that turns a (P, P) matrix of moved elements into the sent and received
counters; the all-to-all's rounds, run formation's exchange and the striped
engine's block moves all charge through it.  Self-addressed data stays
local and is charged to neither counter.  :func:`gather_splitters` is a
rendezvous point: every PE contributes its slot in the same call, and a
missing slot means some PE skipped the barrier, which raises
:class:`ProtocolError` rather than deadlocking.
"""
from __future__ import annotations

from typing import Sequence, Sized

import numpy as np

from .core import CONTROL, RECEIVED, SENT, phase_index
from .vdisk import Cluster


class ProtocolError(Exception):
    pass


def charge_volume(cluster: Cluster, volume, phase: str) -> None:
    """Charge ``volume[src][dst]`` elements moved from PE ``src`` to PE
    ``dst``: each PE's sent and received totals, the diagonal free."""
    moved = np.array(volume, np.int64).reshape(cluster.cfg.P, cluster.cfg.P)
    np.fill_diagonal(moved, 0)
    traffic = cluster.counters.traffic[phase_index(phase)]
    traffic[SENT] += moved.sum(1)
    traffic[RECEIVED] += moved.sum(0)


def gather_splitters(
    cluster: Cluster,
    contributions: Sequence[Sized],
    phase: str,
) -> None:
    """All-gather of small control values (splitter positions, counts).

    Every PE ends up with the concatenation in PE order, so each PE
    receives every value it did not contribute.  Only that traffic is
    simulated: each contribution (a list or an array) is charged by its
    length to the control counter, not to element volume.
    """
    P = cluster.cfg.P
    if len(contributions) != P:
        raise ProtocolError(
            f"gather_splitters: {len(contributions)} contributions for {P} PEs"
        )
    sizes = np.array([len(values) for values in contributions], np.int64)
    cluster.counters.traffic[phase_index(phase), CONTROL] += sizes.sum() - sizes
