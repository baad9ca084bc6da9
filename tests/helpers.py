"""Shared test utilities: cluster construction, oracle sorting, and the
scalar element codec that the disk images are checked against."""
from __future__ import annotations

from emsort.core import MAX_KEY, Element, MachineConfig, sentinel
from emsort.harness import GeneratedInput, InputSpec, generate_input
from emsort.vdisk import Cluster, OutputLayout


def build(P: int = 2, D: int = 2, B: int = 4, m: int = 32, N: int = 128,
          **kw) -> Cluster:
    return Cluster(MachineConfig(P=P, D=D, B=B, m=m, N=N, **kw))


def fill(cluster: Cluster, kind: str = "random", seed: int = 0) -> GeneratedInput:
    return generate_input(cluster, InputSpec(kind, cluster.cfg.N, seed))


def input_elements(cluster: Cluster, gen: GeneratedInput) -> list[Element]:
    """All input elements as generated (setup-time snapshot, unmetered)."""
    out: list[Element] = []
    for pe, blocks in enumerate(gen.pe_blocks):
        for lb in blocks:
            out.extend(cluster.peek_block(pe, lb))
    return out


def output_elements(cluster: Cluster, layout: OutputLayout) -> list[Element]:
    out: list[Element] = []
    for pe, lb in layout.iter_blocks():
        out.extend(cluster.peek_block(pe, lb))
    return out


def oracle_agrees(inputs: list[Element], outputs: list[Element]) -> bool:
    """Output must be the input multiset in key order.

    Equal keys may appear in any serial order (the engines break ties by
    run and position, not by serial), so compare the key sequence against
    the oracle's and the (key, serial) multisets for identity.
    """
    if len(inputs) != len(outputs):
        return False
    oracle = sorted(elem[0] for elem in inputs)
    if oracle != [elem[0] for elem in outputs]:
        return False
    return sorted(inputs) == sorted(outputs)


def element_to_bytes(elem: Element, elem_size: int) -> bytes:
    """Little-endian key followed by the payload serial."""
    key, serial = elem
    payload_size = elem_size - 8
    if serial < 0:  # sentinel
        payload = b"\xff" * payload_size
    else:
        payload = (serial % (1 << (8 * payload_size))).to_bytes(payload_size, "little") \
            if payload_size else b""
    return key.to_bytes(8, "little") + payload


def element_from_bytes(data: bytes, elem_size: int) -> Element:
    key = int.from_bytes(data[:8], "little")
    payload = data[8:elem_size]
    if key == MAX_KEY and payload == b"\xff" * (elem_size - 8):
        return sentinel()
    serial = int.from_bytes(payload, "little") if payload else 0
    return (key, serial)
