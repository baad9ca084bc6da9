"""Prefetch schedules along a prediction sequence.

A merge pass knows in advance the order in which it consumes its blocks
(the prediction sequence), and fetches them into a buffer of ``W`` blocks
from disks that each serve one block per step.  By the duality of
Hutchinson, Sanders and Vitter, the time reversal of a greedy buffered
write of the reversed sequence is an optimal fetch schedule:
:func:`prefetch_schedule` computes it, :func:`verify_schedule` replays a
schedule against the rules and counts its steps, and :func:`naive_steps`
counts the steps of the in-order greedy fetcher it is measured against.
"""
from __future__ import annotations

from array import array

import numpy as np

#: Blocks one stall test of :func:`prefetch_schedule` covers once the
#: stretch before it passed.
LOOKAHEAD = 4096
#: Blocks of the first stretch the per-block rule runs over where stalls
#: come densely; also the length of the test after one failed, and the
#: distance within which a failure counts as dense.
FIRST_LOOP = 512


def _stall_test(cand, k: int, W: int, lo: int, written: int, pending):
    """Test blocks ``k, k + 1, ...`` of the reversed sequence at their
    candidate steps ``cand``, none below step ``lo``.

    ``written`` blocks are written before step ``lo`` and ``pending[i]``
    at step ``lo + i``.  Block ``k + i`` passes when, counting those and
    every candidate, at least ``k + i − W + 1`` blocks lie below its
    candidate.  Returns ``below``, where ``below[i]`` blocks lie below
    step ``lo + i``, the blocks at each step from ``lo`` on, and the first
    block that fails, ``len(cand)`` when none does.
    """
    at = np.bincount(cand - lo, minlength=len(pending))
    at[:len(pending)] += pending
    below = np.zeros(len(at) + 1, np.int64)
    np.cumsum(at, out=below[1:])
    below += written
    short = np.flatnonzero(below[cand - lo] - np.arange(len(cand))
                           < k + 1 - W)
    return below, at, int(short[0]) if len(short) else len(cand)


def prefetch_schedule(disks, W: int, D_total: int) -> np.ndarray:
    """Assign a fetch step to each block of a prediction sequence.

    ``disks[i]``, a list or an integer column, is the disk of the i-th
    block in consumption order; the returned ``int64`` column holds each
    block's 0-based fetch step.  At most one block is fetched per disk per
    step and at most W fetched blocks are ever unconsumed.  The schedule
    is the time reversal of a greedy buffered write of the reversed
    sequence: requests enter a W-slot buffer in order, and each step
    retires one block from every disk with a pending request.  Counted,
    block ``k`` of the reversed sequence enters at the first step by whose
    start ``k − W + 1`` blocks are written, and is written at that step or
    one after its disk's previous block, whichever is later.

    That rule runs block by block only where blocks stall, that is, are
    written at their entry step.  Elsewhere a stretch of blocks is written
    at its *candidate* steps, each one step after its disk's previous
    block, and a stall test with one ``bincount`` and one ``cumsum`` shows
    that the candidates are exact: every block passes when at least
    ``k − W + 1`` blocks lie below its candidate, counting those written
    before the stretch and all of the stretch's candidates.  The count can
    only overstate the blocks written before a candidate by candidates of
    later blocks, so if the first block that stalls passed, a later block
    has a lower candidate, and the lowest of those fails.  When a block
    fails and the blocks before it pass their own test, the rule runs over
    that block alone; when they do not, or it is within ``FIRST_LOOP``
    blocks of the stretch's start, the rule runs over ``FIRST_LOOP``
    blocks, twice as many each time the next test fails too.
    """
    if W < D_total:
        raise ValueError(f"buffer of {W} blocks cannot serve {D_total} disks")
    rev = np.asarray(disks, np.int64)[::-1]
    L = len(rev)
    if L and (rev.min() < 0 or rev.max() >= D_total):
        raise ValueError("disk index out of range")
    last = np.zeros(D_total, np.int64)  # each disk's latest write step
    count = [0] * (L + 2)           # blocks written at each step
    write = np.empty(L, np.int64)   # write steps, reversed sequence order
    k = 0                           # the next block
    enter = 1                       # the step block ``k`` enters at
    written = 0                     # blocks written before step ``enter``
    window, stride = LOOKAHEAD, FIRST_LOOP
    while k < L:
        d = rev[k:k + window]
        # No block from ``k`` on enters before ``enter``, so a disk's next
        # candidate is one step after its latest write or at ``enter``.
        top = int(last.max())
        pending = np.fromiter(count[enter:top + 1], np.int64, top + 1 - enter)
        base = np.maximum(last, enter - 1)
        # Each block's rank among the stretch's blocks on its disk, from 1
        # (a stable sort of disks this narrow is a radix sort).
        here = np.bincount(d, minlength=D_total)
        cand = np.empty(len(d), np.int64)
        cand[np.argsort(d.astype(np.min_scalar_type(D_total - 1)),
                        kind="stable")] = np.arange(1, len(d) + 1)
        cand += (base + here - np.cumsum(here))[d]
        below, at, exact = _stall_test(cand, k, W, enter, written, pending)
        if exact == len(d):
            window, stride = LOOKAHEAD, FIRST_LOOP
        else:
            window = FIRST_LOOP
            if exact >= FIRST_LOOP:
                below, at, passed = _stall_test(cand[:exact], k, W, enter,
                                                written, pending)
                if passed < exact:
                    exact = 0
            else:
                exact = 0
        if exact:
            if exact < len(d):
                here = np.bincount(d[:exact], minlength=D_total)
            write[k:k + exact] = cand[:exact]
            count[enter:enter + len(at)] = at.tolist()
            last = base + here
            k += exact
            i = int(np.searchsorted(below, k + 1 - W))
            enter += i
            written = int(below[i])
            if exact == len(d):
                continue
            stop = k + 1
        else:
            stop = min(k + stride, L)
            stride *= 2
        # The rule, block by block: ``slack`` blocks are written before the
        # next block's entry step beyond the ``k + 1 − W`` it needs.
        steps = last.tolist() if stop - k > 1 else last
        out = []
        append = out.append
        slack = written - (k + 1 - W)
        for disk in rev[k:stop].tolist():
            step = steps[disk] + 1
            if step < enter:
                step = enter
            steps[disk] = step
            count[step] += 1
            append(step)
            slack -= 1
            while slack < 0:
                slack += count[enter]
                enter += 1
        write[k:stop] = out
        if steps is not last:
            last = np.array(steps)
        k = stop
        written = slack + k + 1 - W
    return int(last.max(initial=0)) - write[::-1]


def verify_schedule(disks, steps, W: int) -> int:
    """Replay a fetch schedule; return its step count.

    Raises ValueError if two fetches share a disk in one step, a block is
    consumed before it is fetched, or more than W fetched blocks are ever
    unconsumed.  Consumption is in sequence order and happens after each
    step's fetches land, so block i is consumed at the end of the latest
    step among blocks 0..i.
    """
    disks = np.asarray(disks, dtype=np.int64)
    steps = np.asarray(steps, dtype=np.int64)
    if len(steps) == 0:
        return 0
    if steps.min() < 0:
        raise ValueError(f"block {int(np.argmax(steps < 0))} is never fetched")
    span = int(steps.max()) + 1
    width = int(disks.max()) + 1
    twice = np.flatnonzero(np.bincount(steps * width + disks) > 1)
    fetched = np.cumsum(np.bincount(steps, minlength=span))
    consumed = np.cumsum(np.bincount(np.maximum.accumulate(steps),
                                     minlength=span))
    occupancy = fetched - np.concatenate(([0], consumed[:-1]))
    over = np.flatnonzero(occupancy > W)
    if len(twice) and (not len(over) or twice[0] // width <= over[0]):
        step, disk = divmod(int(twice[0]), width)
        raise ValueError(f"step {step} fetches disk {disk} twice")
    if len(over):
        raise ValueError(
            f"step {over[0]} buffers {occupancy[over[0]]} > {W} blocks")
    return span


def naive_steps(disks: list[int], W: int) -> int:
    """Steps taken by an in-order greedy fetcher with the same buffer.

    Each step it fetches the longest prefix of unfetched blocks that
    touches each disk at most once and fits the buffer, then the merger
    consumes everything fetched.
    """
    L = len(disks)
    fetched = 0
    steps = 0
    while fetched < L:
        steps += 1
        used: set[int] = set()
        occupancy = 0
        while fetched < L and disks[fetched] not in used and occupancy < W:
            used.add(disks[fetched])
            occupancy += 1
            fetched += 1
    return steps
