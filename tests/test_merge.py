"""Local multiway merging of staged segments and the bounded batch merger."""
from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from emsort.core import (
    DATA_PHASES, MAX_KEY, PHASE_ALL_TO_ALL, PHASE_LOCAL_MERGE, READ, WRITE,
)
from emsort.merge import free_and_write, local_multiway_merge
from emsort.redistribute import Staged, compute_splitters, external_all_to_all
from emsort.runform import form_runs

import helpers
from helpers import (
    addresses, build, concat, counter_state, elements, fill, input_elements,
    live_blocks, merge_window, on, oracle_agrees, output_elements, sentinel,
)

#: Elements with keys 0..3 (heavy ties) or a sentinel.
tied_elements = st.one_of(st.tuples(st.integers(0, 3), st.integers(0, 10**6)),
                          st.just(sentinel()))


def pipeline(P=4, B=4, m=32, N=384, kind="random", seed=0, randomize=True):
    cl = build(P=P, D=2, B=B, m=m, N=N, seed=seed, randomize=randomize)
    gen = fill(cl, kind, seed)
    inputs = input_elements(cl, gen)   # snapshot before blocks are recycled
    runs = form_runs(cl, gen.pe_blocks)
    matrix = compute_splitters(cl, runs)
    redist = external_all_to_all(cl, runs, matrix)
    return cl, inputs, redist


# --- batch_merge oracle-first --------------------------------------------------

#: Tag distance between runs: more than any run position drawn here.
RUN_TAG = 1 << 20


def tag_buffers(buffers, offsets, rng=None):
    """The run buffers joined, each element tagged ``run * RUN_TAG +
    position`` from run positions ``offsets``, shuffled by ``rng`` if
    given."""
    elems = concat(buffers)
    tags = np.concatenate([j * RUN_TAG + off + np.arange(len(buf), dtype=np.int64)
                           for j, (buf, off) in enumerate(zip(buffers, offsets))])
    if rng is not None:
        perm = rng.sample(range(len(elems)), len(elems))
        elems, tags = elems[perm], tags[perm]
    return elems, tags


def order_key(bound):
    """A bound (key, run, position) as the kernel's (key, tag)."""
    return bound and (bound[0], bound[1] * RUN_TAG + bound[2])


def merge_buffers(buffers, offsets, bound=None, rng=None):
    """``batch_merge`` over run buffers that start at run positions
    ``offsets``, the buffer shuffled by ``rng`` if given.  Returns the
    merged prefix below ``bound`` (key, run, position) and what stays of
    each buffer."""
    merged, tags, cuts = merge_window(*tag_buffers(buffers, offsets, rng),
                                      [order_key(bound)])
    n = int(cuts[0])
    return merged[:n].tolist(), [merged[n:][tags[n:] // RUN_TAG == j].tolist()
                                 for j in range(len(buffers))]


def test_batch_merge_drains_to_sorted_order():
    rng = random.Random(31)
    buffers = [sorted((rng.randrange(50), j * 100 + i) for i in range(20))
               for j in range(3)]
    expected = sorted((e[0], j, p) for j, buf in enumerate(buffers)
                      for p, e in enumerate(buf))
    out, rest = merge_buffers([elements(b) for b in buffers], [0, 0, 0])
    assert [(e[0],) for e in out] == [(k,) for k, _j, _p in expected]
    assert rest == [[], [], []]


def test_batch_merge_respects_bound_and_leaves_rest():
    buffers = [elements([(1, 0), (4, 1), (9, 2)]), elements([(2, 3), (4, 4), (7, 5)])]
    # strict bound: everything below key 4 of run 0 position 1
    out, rest = merge_buffers(buffers, [0, 0], bound=(4, 0, 1))
    assert [e[0] for e in out] == [1, 2]
    assert rest == [[(4, 1), (9, 2)], [(4, 4), (7, 5)]]
    out, rest = merge_buffers([elements(b) for b in rest], [1, 1])
    assert [e[0] for e in out] == [4, 4, 7, 9]


def test_batch_merge_ties_resolve_by_run_then_position():
    buffers = [elements([(5, 10), (5, 11)]), elements([(5, 20)])]
    out, _rest = merge_buffers(buffers, [0, 0], rng=random.Random(3))
    assert out == [(5, 10), (5, 11), (5, 20)]


def test_batch_merge_bound_excludes_equal_order_key():
    buffers = [elements([(3, 0)]), elements([(3, 1)])]
    out, rest = merge_buffers(buffers, [0, 0], bound=(3, 1, 0))
    assert out == [(3, 0)]
    assert rest == [[], [(3, 1)]]


@st.composite
def buffered_runs(draw):
    """Sorted run buffers (some empty), their offsets, and ascending bounds
    (key, run, position), each on a tied key and falling before, inside or
    after its own run's buffer, the last one possibly ``None``."""
    R = draw(st.integers(1, 5))
    buffers = [sorted(draw(st.lists(tied_elements, max_size=6))) for _ in range(R)]
    offsets = draw(st.lists(st.integers(0, 5), min_size=R, max_size=R))

    @st.composite
    def bound(draw):
        run = draw(st.integers(0, R - 1))
        pos = draw(st.integers(offsets[run] - 1,
                               offsets[run] + len(buffers[run]) + 1))
        return draw(st.one_of(st.integers(0, 4), st.just(MAX_KEY))), run, pos

    bounds = sorted(draw(st.lists(bound(), max_size=4)))
    if not bounds or draw(st.booleans()):
        bounds.append(None)
    return buffers, offsets, bounds


@given(buffered_runs(), st.randoms(use_true_random=False))
def test_batch_merge_matches_the_reference_kernel(drawn, rng):
    """One sort cut at every bound gives, up to each cut, what the heapq
    kernel over per-run buffers drains for that bound alone, and past the
    last cut what that kernel leaves, with the tagged buffer in any
    order."""
    buffers, offsets, bounds = drawn
    elems, tags = tag_buffers([elements(buf) for buf in buffers], offsets, rng)
    merged, merged_tags, cuts = merge_window(elems, tags,
                                             [order_key(b) for b in bounds])
    assert len(cuts) == len(bounds)
    assert list(zip(merged["key"].tolist(), merged_tags.tolist())) == \
        sorted(zip(elems["key"].tolist(), tags.tolist()))
    for bound, cut in zip(bounds, cuts):
        ref_buffers = [list(buf) for buf in buffers]
        assert merged[:cut].tolist() == helpers.batch_merge(
            ref_buffers, list(offsets), bound)
    assert [merged[cut:][merged_tags[cut:] // RUN_TAG == j].tolist()
            for j in range(len(buffers))] == ref_buffers


@st.composite
def staged_plans(draw, in_order=False):
    """Per run: sorted elements split into pieces, each stored from a drawn
    offset into its first block.  The last run is padded with sentinels to
    a block multiple, as the output slice must be.  With ``in_order``, no
    run's keys lie below the run before it."""
    B = draw(st.integers(1, 4))
    runs = [sorted(draw(st.lists(tied_elements, max_size=9)))
            for _ in range(draw(st.integers(1, 4)))]
    if in_order:
        joined = iter(sorted((e for run in runs for e in run),
                             key=lambda e: e[0]))
        runs = [[next(joined) for _ in run] for run in runs]
    runs[-1] += [sentinel()] * (-sum(map(len, runs)) % B)
    plan = []
    for elems in runs:
        cuts = sorted(draw(st.lists(st.integers(1, max(1, len(elems) - 1)),
                                    max_size=2)))
        bounds = [0] + [c for c in cuts if c < len(elems)] + [len(elems)]
        pieces = [(elems[a:b], draw(st.integers(0, B - 1)))
                  for a, b in zip(bounds, bounds[1:]) if b > a]
        plan.append(pieces)
    return B, plan


def stage(B, plan):
    """A one-PE cluster holding the planned staged pieces, and its table."""
    cl = build(P=1, D=2, B=B, m=64, N=0)
    ids, rows = [], []
    for j, pieces in enumerate(plan):
        pos = 0
        for piece, start in pieces:
            data = [(7, -2)] * start + piece
            data += [sentinel()] * (-len(data) % B)
            blocks = cl.alloc_blocks(0, len(data) // B)
            cl.seed_blocks(*on(0, blocks), data)
            ids.append(blocks)
            rows.append((j, pos, start, len(piece)))
            pos += len(piece)
    columns = np.array(rows, np.int64).reshape(-1, 4).T
    return cl, [Staged(np.concatenate([np.empty(0, np.int64)] + ids), *columns)]


def assert_merge_matches_the_reference_kernel(B, plan):
    ref_cl, ref_staged = stage(B, plan)
    cl, staged = stage(B, plan)
    expected = helpers.local_multiway_merge(ref_cl, ref_staged)
    layout = local_multiway_merge(cl, staged)
    assert addresses(layout) == addresses(expected)
    assert output_elements(cl, layout) == output_elements(ref_cl, expected)
    assert counter_state(cl) == counter_state(ref_cl)
    assert cl.peak_allocated(0) == ref_cl.peak_allocated(0)
    assert live_blocks(cl, 0) == live_blocks(ref_cl, 0)


@given(staged_plans())
def test_local_merge_matches_the_reference_kernel(drawn):
    assert_merge_matches_the_reference_kernel(*drawn)


@given(staged_plans(in_order=True))
def test_local_merge_of_pieces_in_order_matches_the_reference_kernel(drawn):
    """Pieces already in order skip the sort; output, layout, counters
    and the peak stay the reference's."""
    assert_merge_matches_the_reference_kernel(*drawn)


@pytest.mark.parametrize("in_order", [True, False])
def test_local_merge_sorts_only_pieces_out_of_order(monkeypatch, in_order):
    """Pieces in order are written as they are, with no sort; pieces out
    of order are sorted once.  Output, layout, counters and the peak are
    the reference's either way."""
    keys = [[0, 2, 2, 5], [5, 6, 9, 9]] if in_order else [[0, 2, 6], [1, 5, 7]]
    plan = [[([(k, -2) for k in run[:2]], 1), ([(k, -2) for k in run[2:]], 0)]
            for run in keys]
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort",
                        lambda *a, **kw: calls.append(1) or argsort(*a, **kw))
    assert_merge_matches_the_reference_kernel(2, plan)
    assert len(calls) == (not in_order)


# --- the merge phase -----------------------------------------------------------

def test_merge_produces_the_oracle_order():
    cl, inputs, redist = pipeline(seed=12)
    layout = local_multiway_merge(cl, redist.staged)
    assert oracle_agrees(inputs, output_elements(cl, layout))


def test_merge_of_single_run_is_a_straight_copy():
    cl, _inputs, redist = pipeline(P=2, m=64, N=128, kind="sorted")
    layout = local_multiway_merge(cl, redist.staged)
    outputs = output_elements(cl, layout)
    assert [e[0] for e in outputs] == sorted(e[0] for e in outputs)
    N, B = cl.cfg.N, cl.cfg.B
    merge = cl.counters.blocks[PHASE_LOCAL_MERGE]
    assert merge[READ].sum() * B == N
    assert merge[WRITE].sum() * B == N


def test_merge_phase_needs_no_communication():
    cl, _inputs, redist = pipeline(seed=14)
    before = cl.counters.traffic.copy()
    local_multiway_merge(cl, redist.staged)
    assert (cl.counters.traffic == before).all()


def test_merge_output_is_block_aligned_per_processor():
    cl, _inputs, redist = pipeline(seed=15)
    layout = local_multiway_merge(cl, redist.staged)
    share_blocks = cl.cfg.N // cl.cfg.P // cl.cfg.B
    assert layout.pes.tolist() == sorted(layout.pes.tolist())
    assert np.bincount(layout.pes).tolist() == [share_blocks] * cl.cfg.P


def test_merge_overhead_accounts_for_boundary_blocks():
    cl, _inputs, redist = pipeline(seed=16)
    local_multiway_merge(cl, redist.staged)
    merge = PHASE_LOCAL_MERGE
    overhead = cl.counters.overhead[merge]
    reads = cl.counters.blocks[merge, READ].sum() * cl.cfg.B
    consumed = sum(int(table.length.sum()) for table in redist.staged)
    assert consumed == cl.cfg.N
    assert overhead == reads - consumed
    assert overhead >= 0


def test_merge_conserves_content_on_duplicate_heavy_input():
    cl, inputs, redist = pipeline(kind="duplicate_heavy", seed=17)
    layout = local_multiway_merge(cl, redist.staged)
    assert oracle_agrees(inputs, output_elements(cl, layout))


def test_local_merge_writes_and_frees_each_slice_in_one_call():
    """One write and one free call per PE, even on shifted input at B = 4,
    where a staged block falls due at nearly every output step: a return
    to writing between due steps fails here."""
    cl, _inputs, redist = pipeline(B=4, m=64, N=1024, kind="worst_case_shift",
                                   randomize=False)
    calls: Counter[tuple[str, int]] = Counter()
    for name in ("write_blocks", "free_blocks"):
        def counted(pe, *args, _method=getattr(cl, name), _name=name):
            (one,) = set(np.atleast_1d(pe).tolist())   # one PE per call
            calls[_name, one] += 1
            return _method(pe, *args)
        setattr(cl, name, counted)
    local_multiway_merge(cl, redist.staged)
    assert calls == {(name, pe): 1 for name in ("write_blocks", "free_blocks")
                     for pe in range(cl.cfg.P)}, calls


@st.composite
def streams(draw):
    """A machine and a stream for ``free_and_write``: per PE, blocks kept
    throughout and blocks due for freeing at a step, some after the last;
    and per step, the PEs of the blocks written there, with one PE left
    out of the writes when drawn."""
    P, B, S = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 4))
    kept = draw(st.lists(st.integers(0, 3), min_size=P, max_size=P))
    writers = P - draw(st.integers(0, min(1, P - 1)))
    due = [draw(st.lists(st.integers(0, S + 1), max_size=4)) for _ in range(P)]
    step = [draw(st.lists(st.integers(0, writers - 1), max_size=3))
            for _ in range(S)]
    return P, B, kept, due, step


def stream_cluster(P, B, kept, due, step):
    """A cluster holding the kept and due blocks, and the stream's columns:
    the due blocks' PEs, ids and due steps, and the written blocks' PEs,
    ids, steps and elements, in step order."""
    cl = build(P=P, D=2, B=B, m=8, N=0)
    columns = {"pe_in": [], "ids_in": [], "due": []}
    for pe, (n, dues) in enumerate(zip(kept, due)):
        for k, blocks in ((n, None), (len(dues), dues)):
            ids = cl.alloc_blocks(pe, k)
            cl.seed_blocks(*on(pe, ids), [(pe, lb) for lb in ids for _ in range(B)])
            if blocks is not None:
                columns["pe_in"] += [pe] * k
                columns["ids_in"] += ids.tolist()
                columns["due"] += blocks
    pe = np.array([p for pes in step for p in pes], np.int64)
    ids = np.array([int(cl.alloc_blocks(p, 1)[0]) for p in pe.tolist()], np.int64)
    steps = np.repeat(np.arange(len(step)), list(map(len, step)))
    elems = elements([(7, int(lb)) for lb in ids for _ in range(B)])
    return cl, ({k: np.array(v, np.int64) for k, v in columns.items()},
                pe, ids, steps, elems)


@given(streams())
def test_free_and_write_charges_the_stepwise_stream(drawn):
    """One free call and one write call leave the peak, live count,
    counters and stored blocks of the stream run step by step: the frees
    due at a step, then that step's writes, and the blocks due after the
    last step freed at the end."""
    cl, (freed, pe, ids, steps, elems) = stream_cluster(*drawn)
    ref, _ = stream_cluster(*drawn)
    S = len(drawn[4])
    due = np.minimum(freed["due"], S)
    for s in range(S + 1):
        if (due == s).any():
            ref.free_blocks(freed["pe_in"][due == s], freed["ids_in"][due == s])
        if s < S and (steps == s).any():
            mine = np.repeat(steps == s, cl.cfg.B)
            ref.write_blocks(pe[steps == s], ids[steps == s], elems[mine],
                             PHASE_LOCAL_MERGE)
    calls: Counter[str] = Counter()
    for name in ("free_blocks", "write_blocks"):
        def counted(*args, _method=getattr(cl, name), _name=name):
            calls[_name] += 1
            return _method(*args)
        setattr(cl, name, counted)
    free_and_write(cl, freed["pe_in"], freed["ids_in"], freed["due"], pe, ids,
                   steps, elems, PHASE_LOCAL_MERGE)
    assert [calls["free_blocks"], calls["write_blocks"]] == [
        int(len(due) > 0), int(len(ids) > 0)]
    assert cl.peak.tolist() == ref.peak.tolist()
    assert cl.live.tolist() == ref.live.tolist()
    assert counter_state(cl) == counter_state(ref)
    for p in range(cl.cfg.P):
        held = live_blocks(ref, p)
        assert live_blocks(cl, p) == held
        assert (cl.peek_blocks(*on(p, held)).tolist()
                == ref.peek_blocks(*on(p, held)).tolist())


@pytest.mark.parametrize("kind, randomize", [("worst_case_shift", False),
                                             ("duplicate_heavy", True),
                                             ("sorted", False)])
def test_local_merge_matches_the_stream_on_every_pe(kind, randomize):
    """Output, counters, per-PE peak occupancy and live blocks equal the
    block-at-a-time stream's on every PE.  On shifted input a block falls
    due at nearly every output step; on tied keys the stream peaks inside
    the slice."""
    config = dict(B=4, m=64, N=1024, kind=kind, seed=3, randomize=randomize)
    ref_cl, _inputs, ref_redist = pipeline(**config)
    cl, _inputs, redist = pipeline(**config)
    for cluster in (ref_cl, cl):        # so the merge's own peak shows
        cluster.peak[:] = 0
    expected = helpers.local_multiway_merge(ref_cl, ref_redist.staged)
    layout = local_multiway_merge(cl, redist.staged)
    assert addresses(layout) == addresses(expected)
    assert output_elements(cl, layout) == output_elements(ref_cl, expected)
    assert counter_state(cl) == counter_state(ref_cl)
    for pe in range(cl.cfg.P):
        assert cl.peak_allocated(pe) == ref_cl.peak_allocated(pe)
        assert live_blocks(cl, pe) == live_blocks(ref_cl, pe)
