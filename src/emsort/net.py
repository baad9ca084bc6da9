"""Synchronous communication collectives with exact volume accounting.

Collectives are rendezvous points: every PE contributes its slot of the
argument in the same call, mirroring a bulk-synchronous exchange.  A shape
mismatch means some PE skipped the barrier and raises :class:`ProtocolError`
rather than deadlocking.  Self-addressed data stays local and is charged to
neither the sent nor the received counter.  :func:`charge_volume` is the one
place that turns a (P, P) matrix of moved elements into those counters; the
all-to-all, run formation's exchange and the striped engine's block moves
all charge through it.
"""
from __future__ import annotations

from typing import Any, Iterable, Sequence, Sized

import numpy as np

from .vdisk import Cluster

#: One tagged unit of an exchange: (caller tag, elements).
Parcel = tuple[Any, Sized]


class ProtocolError(Exception):
    pass


def _check_matrix(payloads: Sequence[Sequence[Iterable[Parcel]]], P: int) -> None:
    if len(payloads) != P:
        raise ProtocolError(f"all_to_all_v: {len(payloads)} source rows for {P} PEs")
    for src, row in enumerate(payloads):
        if len(row) != P:
            raise ProtocolError(
                f"all_to_all_v: source {src} provided {len(row)} destination slots"
            )


def all_to_all_v(
    cluster: Cluster,
    payloads: Sequence[Sequence[list[Parcel]]],
    phase: str,
) -> list[list[list[Parcel]]]:
    """Exchange ``payloads[src][dst]`` parcel lists; return ``received`` with
    ``received[dst][src]`` holding exactly the parcels ``src`` addressed to
    ``dst``, in sending order.  Element volumes are charged per PE for
    ``src != dst`` only.  Parcels are delivered as sent, not copied: element
    arrays are never written in place."""
    P = cluster.cfg.P
    _check_matrix(payloads, P)
    charge_volume(cluster, [[sum(len(elems) for _tag, elems in parcels)
                             for parcels in row] for row in payloads], phase)
    return [[list(payloads[src][dst]) for src in range(P)] for dst in range(P)]


def charge_volume(cluster: Cluster, volume, phase: str) -> None:
    """Charge ``volume[src][dst]`` elements moved from PE ``src`` to PE
    ``dst``: each PE's sent and received totals, the diagonal free."""
    moved = np.array(volume, np.int64).reshape(cluster.cfg.P, cluster.cfg.P)
    np.fill_diagonal(moved, 0)
    counters = cluster.counters
    for pe, (sent, received) in enumerate(zip(moved.sum(1).tolist(),
                                              moved.sum(0).tolist())):
        counters.add_sent(phase, pe, sent)
        counters.add_received(phase, pe, received)


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
    sizes = [len(values) for values in contributions]
    total = sum(sizes)
    for pe, size in enumerate(sizes):
        cluster.counters.add_control(phase, pe, total - size)
