"""Synchronous communication collectives with exact volume accounting.

Collectives are rendezvous points: every PE contributes its slot of the
argument in the same call, mirroring a bulk-synchronous exchange.  A shape
mismatch means some PE skipped the barrier and raises :class:`ProtocolError`
rather than deadlocking.  Self-addressed data stays local and is charged to
neither the sent nor the received counter.
"""
from __future__ import annotations

from typing import Any, Iterable, Sequence, Sized

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
    received: list[list[list[Parcel]]] = [[[] for _ in range(P)] for _ in range(P)]
    counters = cluster.counters
    for src in range(P):
        for dst in range(P):
            parcels = payloads[src][dst]
            volume = sum(len(elems) for _tag, elems in parcels)
            if src != dst:
                counters.add_sent(phase, src, volume)
                counters.add_received(phase, dst, volume)
            received[dst][src] = list(parcels)
    return received


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
