"""Exact multiway selection over sorted runs.

Given R sorted runs and a target rank r, find per-run splitter positions
``pos`` with ``sum(pos) == r`` such that every element left of a splitter
precedes every element right of one under the total order
``(key, run, position)``.

The search keeps one window ``[a_j, b_j]`` per run that is meant to contain
the run's final splitter.  Runs are conceptually padded with +infinity to a
common power-of-two length; windows start as the full padded range (or as a
narrow band around sample-derived starting positions) and lose half their
width each round.  A round compares the element in the middle of every
window against the largest element currently left of any cut and moves the
window's edge that the comparison rules out, then rebalances whole chunks
between runs, smallest boundary element first, until the chunk-granular rank
matches the target.  The final round works at chunk size one.  A closing
check then probes both sides of every cut and raises
:class:`SelectionError` unless the cut is exact; nothing repairs a miss.

Starting positions may come from a per-run sample of every ``step``-th
element, in the engine each run's block minima (step B).  A sampled start
is normally within ``step`` of the exact cut, so the windowed search needs
about ``log2 step`` rounds and touches one block per run.  Full-window and
sampled starts landed exactly in every case tried; any other start may
miss, and then the check raises.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import INF_KEY, PHASE_SELECTION, sort_order

OrderKey = tuple[int, int, int]


class SelectionError(Exception):
    pass


class DiskAccessor:
    """Element access over disk-resident runs through block reads.

    Each of ``runs`` is a :class:`~emsort.runform.Run`, whose position
    ``pos`` is element ``pos % B`` of its block ``pos // B``.  A per-run
    most-recently-used block cache turns the clustered probes of the final
    low-step rounds into single reads; each read is charged to selection.
    """

    def __init__(self, cluster, runs):
        self.cluster = cluster
        self.runs = runs
        self.lengths = [run.length for run in runs]
        self.touched = 0
        self._cache: dict[int, tuple[int, Any]] = {}
        self._memo: dict[tuple[int, int], OrderKey] = {}

    def reset_memo(self) -> None:
        self._memo.clear()

    def order_key(self, run: int, pos: int) -> OrderKey:
        got = self._memo.get((run, pos))
        if got is not None:
            return got
        if pos >= self.lengths[run]:
            okey: OrderKey = (INF_KEY, run, pos)
            self._memo[(run, pos)] = okey
            return okey
        self.touched += 1
        g, off = divmod(pos, self.cluster.cfg.B)
        hit = self._cache.get(run)
        if hit is None or hit[0] != g:
            seg = self.runs[run]
            hit = self._cache[run] = (g, self.cluster.read_blocks(
                seg.pes[g:g + 1], seg.lbs[g:g + 1], PHASE_SELECTION))
        okey = (int(hit[1]["key"][off]), run, pos)
        self._memo[(run, pos)] = okey
        return okey


@dataclass
class SelectResult:
    positions: list[int]
    rounds: int
    touched: int


def _refine_windows(acc, r: int, a: list[int], b: list[int], n: int) -> int:
    """Halve the per-run windows ``[a, b]`` down to width zero.

    ``n + 1`` is twice the chunk size of the first round.  Each round probes
    the middle of every window, moves one window edge, and then shifts whole
    chunks between runs until the chunk-granular count left of the cuts
    matches ``r``.  Returns the number of rounds.
    """
    R = len(a)
    ns = acc.lengths
    rounds = 0
    while n > 0:
        n >>= 1
        rounds += 1
        # Pivot: the largest element currently left of any cut.
        lmax: OrderKey | None = None
        for i in range(R):
            if a[i] > 0:
                okey = acc.order_key(i, a[i] - 1)
                if lmax is None or okey > lmax:
                    lmax = okey
        # Keep the half of each window the pivot comparison allows.
        for i in range(R):
            middle = (a[i] + b[i]) >> 1
            if lmax is not None and middle < ns[i] \
                    and acc.order_key(i, middle) < lmax:
                a[i] = min(a[i] + n + 1, ns[i])
            else:
                b[i] -= n + 1
        # Rebalance whole chunks until the chunk-granular rank matches: move
        # the cut of the run whose next chunk starts lowest (or whose last
        # kept chunk ends highest), one chunk at a time.
        skew = r // (n + 1) - sum(x // (n + 1) for x in a)
        if skew > 0:
            front = {i: acc.order_key(i, b[i]) for i in range(R) if 0 <= b[i] < ns[i]}
            while skew and front:
                src = min(front, key=front.__getitem__)
                del front[src]
                a[src] = min(a[src] + n + 1, ns[src])
                b[src] += n + 1
                if 0 <= b[src] < ns[src]:
                    front[src] = acc.order_key(src, b[src])
                skew -= 1
        elif skew < 0:
            back = {i: acc.order_key(i, a[i] - 1) for i in range(R) if a[i] > 0}
            while skew and back:
                src = max(back, key=back.__getitem__)
                del back[src]
                a[src] -= n + 1
                b[src] -= n + 1
                if a[src] > 0:
                    back[src] = acc.order_key(src, a[src] - 1)
                skew += 1
    return rounds


def _check_exact(acc, r: int, pos: list[int]) -> None:
    """Raise :class:`SelectionError` unless ``pos`` is the rank-``r`` cut:
    ``sum(pos) == r`` and the largest element left of the cuts precedes the
    smallest one right of them.  Each run is probed at ``pos - 1``, then at
    ``pos``."""
    left, right = [], []
    for i in range(len(pos)):
        if pos[i] > 0:
            left.append(acc.order_key(i, pos[i] - 1))
        if pos[i] < acc.lengths[i]:
            right.append(acc.order_key(i, pos[i]))
    if sum(pos) != r or (left and right and max(left) > min(right)):
        raise SelectionError(f"the search missed the exact rank-{r} cut")


def multiway_select(acc, r: int,
                    init: list[int] | None = None,
                    step: int | None = None) -> SelectResult:
    """Exact splitters for rank ``r`` over the accessor's runs.

    ``init``/``step`` give a starting guess (the true cut is expected within
    ``step`` of ``init`` per run); without one the search starts from full
    windows over the padded run length.  Starts from
    :func:`sampled_starts` or full windows land on the cut in every case
    tried; if a start misses it, :class:`SelectionError` is raised and no
    result is returned.
    """
    R = len(acc.lengths)
    total = sum(acc.lengths)
    if not 0 <= r <= total:
        raise ValueError(f"rank {r} outside [0, {total}]")
    touched0 = acc.touched
    acc.reset_memo()
    ns = acc.lengths
    maxlen = max(ns, default=0)
    if R == 0 or total == 0 or maxlen == 0 or r == 0:
        return SelectResult([0] * R, 0, 0)
    if r == total:
        return SelectResult(list(ns), 0, 0)

    l = (1 << maxlen.bit_length()) - 1  # padded length, all runs

    if init is not None:
        if len(init) != R:
            raise ValueError("init length does not match run count")
        if step is None or step < 1:
            raise ValueError("init requires a positive step")
        # Window of one chunk on each side of the starting guess.
        c = 1 << (step - 1).bit_length() if step > 1 else 1
        c = min(c, (l + 1) >> 1)
        a = [max(0, min(init[i], ns[i]) - c) for i in range(R)]
        b = [a[i] + 2 * c - 1 for i in range(R)]
        n = 2 * c - 1
    else:
        # Initial partition: order the runs by their middle element and take
        # the left half of as many small-middled runs as the rank allows.
        n = l >> 1
        a = [0] * R
        b = [l] * R
        order = sorted((acc.order_key(i, n), i) for i in range(R) if n < ns[i])
        order += [((INF_KEY, i, n), i) for i in range(R) if n >= ns[i]]
        localrank = r // l
        j = 0
        while j < localrank and n + 1 <= ns[order[j][1]]:
            a[order[j][1]] += n + 1
            j += 1
        while j < R:
            b[order[j][1]] -= n + 1
            j += 1

    rounds = _refine_windows(acc, r, a, b, n)
    pos = [max(0, min(a[i], ns[i])) for i in range(R)]
    _check_exact(acc, r, pos)
    return SelectResult(pos, rounds, acc.touched - touched0)


def sampled_starts(samples: list[np.ndarray], step: int,
                   ranks: list[int]) -> list[list[int]]:
    """Starting splitters for each of ``ranks`` from per-run samples.

    ``samples[j]`` is run ``j``'s key column of the elements at positions
    0, step, 2 step, ..., non-decreasing as in a sorted run.  The samples
    are joined in run order and sorted once, in the order ``(key, run,
    position)``.  Rank ``r`` takes the sorted prefix up to index
    ``min(r // step, L - 1)`` of the ``L`` samples.  If run ``j`` has ``c``
    samples in that prefix, its start is ``step * (c - 1)``, the position
    of the last of them, or 0 if ``c == 0`` (and every start is 0 for
    ``r == 0``).
    """
    if step < 1:
        raise ValueError("step < 1")
    keys = np.concatenate([np.empty(0, np.uint64)]
                          + [np.asarray(k, np.uint64) for k in samples])
    run = np.repeat(np.arange(len(samples)), [len(k) for k in samples])[
        sort_order(keys, np.arange(len(keys)))]
    starts = []
    for r in ranks:
        if r == 0 or not len(keys):
            starts.append([0] * len(samples))
            continue
        count = np.bincount(run[:min(r // step, len(keys) - 1) + 1],
                            minlength=len(samples))
        starts.append((step * (count - 1)).clip(0).tolist())
    return starts


def select_all_ranks(acc, ranks: list[int],
                     samples: list[np.ndarray] | None = None,
                     step: int = 1) -> list[SelectResult]:
    """Splitters for several ranks, in ascending rank order.  Exact cuts
    are nested, so the results are componentwise monotone in r.

    With ``samples`` of every ``step``-th element (see
    :func:`sampled_starts`) each search starts within ``step`` of its cut;
    the samples are sorted once for all ranks."""
    ranks = sorted(ranks)
    inits = ([None] * len(ranks) if samples is None
             else sampled_starts(samples, step, ranks))
    return [multiway_select(acc, r, init, step)
            for r, init in zip(ranks, inits)]
