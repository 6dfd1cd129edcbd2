"""The executor: grouped, stacked, optionally pooled spec evaluation.

:meth:`Executor.run` takes a batch of :class:`~repro.runtime.spec.RunSpec`
points and returns one :class:`~repro.runtime.spec.PointResult` per
spec, in spec order.  The execution plan has three levels:

1. **Grouping.**  Specs sharing a compiled program — same circuit
   content, same input vector, same resolved engine — form one group.
   A bisection or sweep evaluating one circuit at many noise levels is
   a single group; a mixed workload (say fig3's level-1 and level-2
   concatenation circuits) is several.

2. **Stacked plane batching (within a group).**  A bitplane group's
   consecutive whole points are packed into *windows*, plane arrays of
   at most :data:`WINDOW_BYTES`: inside a window each point owns a
   word-aligned run of the trial axis (``points x trials`` on the word
   axis), so every fused slot of the shared program executes once over
   the window's words instead of once per point, and the window stays
   resident in cache across the slot loop.  A point larger than the
   budget is a window of its own; no point is ever split.  Fault
   handling is amortised over each window: each point draws its whole
   per-error-class fault pass ONCE, just ahead of its window's slot
   loop, and segments it as it comes, one cache-sized chunk of
   positions at a time (slot membership, group, instance row, and
   destination word of every fault segment come from precomputed
   per-class tables), the slot loop merely slices those tables, and a
   window's sites scatter in one ``randomize_stacked`` call per slot
   group.  Fault *randomness* stays strictly per point — every point's
   gap-jumping pass and replacement words come from its own seeded
   generator in solo order — so, plane operations being wordwise,
   every point's words are **bit-identical** to running that spec
   alone through :class:`~repro.noise.monte_carlo.NoisyRunner`,
   whatever window it lands in.  Batching is purely an execution
   detail, never a statistical one.

3. **Parallelism: processes across groups, threads across draws —
   never both.**  With ``policy.parallel`` >= 2 workers and more than
   one group, whole groups fan out to a :mod:`concurrent.futures`
   process pool (specs must then be picklable); the job runner fans
   shards out the same way.  Points within a group never split across
   processes — they are already batched into plane windows.  Inside a
   group, the fault draw is the one per-point stage, and in the
   dense-fault regime near the pseudo-threshold it rivals the slot
   loop; each point draws from its own generator, so the per-point
   draws run on a thread pool (one per CPU, at most one per point) and
   stay bit-identical by construction.  One loop serves every group,
   one window at a time: it starts window k+1's draws on the pool,
   resolves window k's, then runs window k's slot loop and decode while
   window k+1 draws, and releases window k's sites and planes.  A
   group therefore holds at most two windows of fault sites, never all
   of them.  The pool is opened once per group and shut down with the
   group (pending draws cancelled on an error), so no thread outlives
   it (a later fork never copies a live pool).  The draws stay serial
   inside a multiprocessing child (one level of parallelism: the
   processes already occupy the CPUs), for one-point groups, for
   points sharing one generator object, and below
   :data:`THREADED_DRAW_MIN_SITES` expected fault sites, where a pool
   costs more than it saves; a serial window draws inline, in point
   order, just before its own slot loop, so a serial group holds one
   window of sites.

   No array with one entry per fault *site* ever exists: the sampler
   yields sorted positions in
   :data:`~repro.noise.monte_carlo.DRAW_CHUNK`-site chunks and
   :func:`_segment_sites` folds each into segments while it is still
   in L2, so the draw no longer streams eight site-length temporaries
   through memory (the page faults on fresh transients that capped the
   threaded speedup, and the process's peak memory near the
   pseudo-threshold).  Each point holds its resolved segments until
   its window's slot loop consumes them: int32 ``(op_of, word_of)``
   pairs, a packed select word and ``arity`` replacement words per
   segment — 40 bytes per segment at arity 3, where the former
   precomputed int64 ``arity x segments`` scatter indices held 56.  The
   slot loop builds each slot group's scatter indices from the plan's
   wire table instead.  The replacement words stay ONE eager flat draw
   per point, made on the draw thread: drawing them lazily per slot
   group would move that RNG work into the serial slot loop (measured
   15-20% slower there).

Batched-engine groups and unfused execution (``policy.fuse=False``,
which must preserve the pre-fusion per-op RNG stream) evaluate point
by point through ``NoisyRunner`` — same results, no stacking.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from functools import partial

import numpy as np

from repro.backends import get_backend
from repro.core.bitplane import BitplaneState, popcount_words, words_for
from repro.core.compiled import compile_circuit
from repro.errors import AnalysisError, SimulationError
from repro.noise.monte_carlo import (
    NoisyRunner,
    _as_generator,
    _bernoulli_position_chunks,
    resolve_engine,
)
from repro.obs import (
    counter,
    enable_tracing,
    flush_trace_if_forked,
    stopwatch,
    trace,
)
from repro.runtime.spec import (
    ExecutionPolicy,
    PointResult,
    RunSpec,
    as_observable,
)

# Executor-layer metrics (see repro.obs for the naming convention).
# Held as module references so the hot paths pay one attribute
# increment, never a registry lookup.
_RUNS = counter("executor.runs")
_POINTS = counter("executor.points")
_GROUPS = counter("executor.groups")
_STACKED_POINTS = counter("executor.stacked_points")
_LEGACY_POINTS = counter("executor.legacy_points")

#: ``_POW2[b]`` is the uint64 word with only bit ``b`` set.  Indexing
#: this table turns a bit-position vector into select words without the
#: int64 -> uint64 ``astype`` copy a vectorised shift would need.
_POW2 = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))

#: Expected fault sites per group (the sum of ``ops * padded trials *
#: p`` over its points and error classes) below which the draws stay
#: serial.  A threaded group pays a pool and per-point hand-offs and
#: wins mainly by drawing window k+1 while window k's slot loop runs.
#: Measured as whole-group time (median of 31 alternating serial and
#: threaded runs of the 27-wire 1-cycle cycle circuit; groups of 2, 4
#: and 10 points of 20k or 150k trials, one to five windows; two
#: rounds; 2-vCPU Xeon VM): at 100k-450k sites threaded ran at
#: 0.89-1.04x the serial speed (once 1.21x).  From 600k the five-window
#: 10 x 150k group won at 1.05-1.25x, and 1.50x at 2.4M, while groups
#: of one or two windows stayed at 0.94-1.08x.  The cutoff sits at that
#: crossover.
THREADED_DRAW_MIN_SITES = 600_000

#: Plane bytes per slot-loop window.  A group's consecutive whole points
#: are packed into windows of at most this many bytes of planes, and the
#: slot loop and decode run once per window, so every fused slot streams
#: a cache-resident window instead of the whole group from memory.
#: Measured on the 27-wire 3-cycle recovery circuit (median of 7-15
#: runs, 2-vCPU Xeon VM, 2 MiB L2 per core): a 5-point x 2M-trial
#: sparse shard took 271-274 ms with one window per point against
#: 880 ms in one group-sized array; a 40-point x 20k-trial shard took
#: 34-37 ms at budgets of 4k-16k words (0.9-3.5 MB), 40-44 ms at 2k
#: words (more windows, more per-slot calls) and 58 ms in one array.
#: 1 MiB (4854 words here) sits inside that plateau.
WINDOW_BYTES = 1 << 20


def resolve_workers(parallel: int | bool | None, points: int) -> int:
    """Worker count for a pooled fan-out: 0 means run in-process.

    ``None``/``False``/0/1 stay in-process, ``True`` means one worker
    per CPU, an integer is an explicit width; the width never exceeds
    the number of independent work items.  (Historically this lived in
    :mod:`repro.harness.sweep`, which still re-exports it.)
    """
    if parallel is None or parallel is False:
        return 0
    if parallel is True:
        workers = os.cpu_count() or 1
    else:
        workers = int(parallel)
        if workers < 0:
            raise AnalysisError(f"parallel must be >= 0, got {parallel}")
    workers = min(workers, points)
    return 0 if workers < 2 else workers


def _group_key(spec: RunSpec, policy: ExecutionPolicy) -> tuple:
    """Specs with equal keys share one compiled program and one batch.

    Circuits are grouped by the public
    :meth:`~repro.core.circuit.Circuit.content_key` — the compile
    cache's own notion of identity — so content-equal circuits in
    distinct objects (a synthesised or peephole-optimised circuit next
    to its hand-written reference, a circuit rebuilt by a spec factory)
    batch into one stacked group instead of merely sharing a compiled
    program across separate batches.  The key and its hash are
    memoised on the circuit, and batching never changes a point's
    numbers (the executor's bit-identity guarantee), so wider grouping
    is pure upside.
    """
    return (
        resolve_engine(policy.engine, spec.trials),
        spec.circuit.content_key(),
        spec.input_bits,
    )


def _run_point_legacy(spec: RunSpec, engine: str, policy: ExecutionPolicy) -> PointResult:
    """Evaluate one spec through the classic single-point runner."""
    runner = NoisyRunner(
        spec.noise,
        spec.seed,
        engine=engine,
        fuse=policy.fuse,
        compile_cache=policy.compile_cache,
        backend=policy.backend,
    )
    result = runner.run_from_input(spec.circuit, spec.input_bits, spec.trials)
    failures = as_observable(spec.observable).count_failures(result.states)
    return PointResult(
        failures=failures,
        trials=spec.trials,
        faulted_trials=int((result.fault_counts > 0).sum()),
        engine=engine,
    )


class _StackPlan:
    """Per-compiled-circuit injection plan for the stacked executor.

    ``max_groups`` pads every slot to a uniform group axis so a flat
    ``slot * max_groups + group`` *cell* index addresses any injection
    target; ``arity_flat`` holds each cell's gate arity (0 where the
    slot has fewer groups).  Per error class, ``tables`` maps a
    class-op index to its class-local cell and wire-matrix row,
    ``cells`` maps the class's own cell grid into the global one, and
    ``cell_bins``/``monotone`` support the sorted-cell bookkeeping (a
    sorted cell array searchsorted against the bins IS the per-cell
    prefix, and a monotone op -> cell map means the gathered cells are
    already sorted, so the per-point stable sort is skipped).

    When every group of every class shares ONE gate arity (the
    transversal circuits always do), ``combined`` additionally holds
    the merged-class tables: both classes' sites are then resolved in
    a single bookkeeping pass per point (one segmentation, one fault
    plane, one prefix, one flat scatter-index build over a virtual op
    axis of gate ops followed by reset ops), and the slot loop
    scatters through bare flat take/put instead of per-slot wire
    gathers.  ``combined`` is ``None`` for mixed-arity circuits, which
    keep the per-class ``randomize_stacked`` path.

    Built once per compiled program (cached on it) from the fused
    schedule.
    """

    __slots__ = ("max_groups", "arity_flat", "tables", "cells", "combined")

    def __init__(self, compiled):
        slots = compiled.slots
        self.max_groups = max((len(s.groups) for s in slots), default=1)
        self.arity_flat = np.zeros(
            len(slots) * self.max_groups, dtype=np.int64
        )
        for si, slot in enumerate(slots):
            for gi, group in enumerate(slot.groups):
                self.arity_flat[si * self.max_groups + gi] = (
                    group.wire_matrix.shape[1]
                )
        self.tables: dict[bool, tuple] = {}
        self.cells: dict[bool, np.ndarray] = {}
        op_wires: dict[bool, np.ndarray] = {}
        arities = set()
        for is_reset in (False, True):
            class_slots = [
                (si, s) for si, s in enumerate(slots) if s.is_reset == is_reset
            ]
            if not class_slots:
                continue
            op_slot = np.repeat(
                np.arange(len(class_slots), dtype=np.int64),
                [len(s.ops) for _, s in class_slots],
            )
            op_group = np.concatenate(
                [s.op_group for _, s in class_slots]
            ).astype(np.int64)
            op_row = np.concatenate([s.op_row for _, s in class_slots])
            op_cell = op_slot * self.max_groups + op_group
            n_class_cells = len(class_slots) * self.max_groups
            self.tables[is_reset] = (
                op_cell,
                op_row,
                np.arange(n_class_cells + 1, dtype=np.int64),
                bool(np.all(np.diff(op_cell) >= 0)),
            )
            self.cells[is_reset] = np.concatenate(
                [
                    si * self.max_groups + np.arange(self.max_groups)
                    for si, _ in class_slots
                ]
            )
            class_arities = {
                g.wire_matrix.shape[1]
                for _, s in class_slots
                for g in s.groups
            }
            arities |= class_arities
            if len(class_arities) == 1:
                op_wires[is_reset] = np.concatenate(
                    [
                        s.groups[g].wire_matrix[r]
                        for _, s in class_slots
                        for g, r in zip(s.op_group, s.op_row)
                    ]
                ).reshape(len(op_cell), -1)
        if self.tables and len(arities) == 1:
            op_offset: dict[bool, int] = {}
            cell_offset: dict[bool, int] = {}
            cell_parts, wire_parts, global_parts = [], [], []
            op_base = cell_base = 0
            for is_reset in (False, True):  # the solo draw order
                if is_reset not in self.tables:
                    continue
                op_cell = self.tables[is_reset][0]
                op_offset[is_reset] = op_base
                cell_offset[is_reset] = cell_base
                cell_parts.append(op_cell + cell_base)
                wire_parts.append(op_wires[is_reset])
                global_parts.append(self.cells[is_reset])
                op_base += len(op_cell)
                cell_base += len(self.cells[is_reset])
            combined_cell = np.concatenate(cell_parts)
            self.combined = (
                combined_cell,
                np.ascontiguousarray(np.concatenate(wire_parts).T),
                np.arange(cell_base + 1, dtype=np.int64),
                np.concatenate(global_parts),
                bool(np.all(np.diff(combined_cell) >= 0)),
                op_offset,
                cell_offset,
            )
        else:
            self.combined = None


class _PointSites:
    """One point's fully resolved fault sites and replacement words.

    On the combined fast path ``sites`` is ``(op_of, word_of, select,
    prefix)`` over the merged-class virtual op axis; on the general
    path ``classes[is_reset]`` is the same tuple over that class's op
    axis.  Every entry is one *segment* — the faults of one op on one
    word — as :func:`_segment_sites` resolved them chunk by chunk, so
    no per-fault-site array outlives the draw; ``drawn`` counts the
    fault positions behind them.  ``op_of`` (an op index) and
    ``word_of`` (the word inside the point's plane window, so
    window-local) are int32; the window's slot loop maps them to
    scatter indices through the plan's tables one slot group at a time.
    Either way the segments are sorted by (class-slot, group) cell and
    ``prefix`` (plain ints) slices each cell's run.
    ``block``/``block_bounds`` hold the point's ONE flat
    replacement-word draw, sliced per global cell in slot order —
    NumPy integer draws are stream-consistent under splitting, so this
    single draw consumes the generator exactly like the solo engine's
    per-slot-per-group blocks.
    """

    __slots__ = ("sites", "classes", "block", "block_bounds", "drawn")

    def __init__(self):
        self.sites: tuple | None = None
        self.classes: dict[bool, tuple] = {}
        self.block: np.ndarray | None = None
        self.block_bounds: list[int] = []
        self.drawn = 0


def _segment_sites(chunks, n_words, trials):
    """Collapse sorted virtual fault positions into per-word segments,
    one cache-sized chunk at a time.

    ``chunk >> 6`` is a flat (op, word) index; equal values form
    contiguous segments whose trial bits OR into one packed select
    word.  The select words come from differences of a modular
    cumulative sum (bits within a segment are distinct powers of two,
    so their OR *is* their sum, and uint64 wraparound cancels in the
    difference) — same values as the solo engine's
    ``bitwise_or.reduceat``, ~3x cheaper at the threshold-regime site
    counts this path batches.  Each chunk is consumed in place while it
    is still in cache, so only segment-level arrays outlive it; a
    segment straddling a chunk seam is the previous chunk's last one,
    and its select word absorbs the new bits by the same sum.  Padding
    bits beyond ``trials`` are masked off.  Returns ``(op_of, word_of,
    select, fault_plane, sites)`` with int32 ``op_of``/``word_of``,
    ``fault_plane`` the packed union of the faulted trials (point-local
    words, padding already clear) and ``sites`` the positions drawn,
    or ``None`` when there were none.
    """
    ops, words, selects = [], [], []
    sites = 0
    seam = -1
    for virtual in chunks:
        sites += len(virtual)
        bits = _POW2.take(virtual & 63)
        flat_words = np.right_shift(virtual, 6, out=virtual)
        # A segment's last site carries both its cumulative sum and its
        # flat word, so one index vector serves both gathers.
        ends = np.append(np.flatnonzero(flat_words[1:] != flat_words[:-1]), -1)
        last = np.cumsum(bits, out=bits)[ends]
        select = np.empty_like(last)
        select[0] = last[0]
        np.subtract(last[1:], last[:-1], out=select[1:])
        affected = flat_words[ends]
        if affected[0] == seam:
            selects[-1][-1] += select[0]
            select, affected = select[1:], affected[1:]
        if affected.size:
            seam = affected[-1]
            op_of, word_of = np.divmod(affected, n_words)
            ops.append(op_of.astype(np.int32))
            words.append(word_of.astype(np.int32))
            selects.append(select)
    if not selects:
        return None
    op_of, word_of, select = (
        np.concatenate(parts) for parts in (ops, words, selects)
    )
    if trials % 64:
        select[word_of == n_words - 1] &= np.uint64((1 << (trials % 64)) - 1)
    fault_plane = np.zeros(n_words, dtype=np.uint64)
    np.bitwise_or.at(fault_plane, word_of, select)
    return op_of, word_of, select, fault_plane, sites


def _sort_by_cell(op_cell, monotone, bins, op_of, word_of, select):
    """Order one point's sites by cell; returns them with the prefix.

    Multi-group slots interleave their groups' sites; a stable sort
    makes every cell's run contiguous without reordering sites within
    a group (the solo scatter order).  ``op_of`` is sorted, so a
    monotone op -> cell map needs no sort at all.  The sorted cell
    array searchsorted against ``bins`` is the per-cell prefix.
    """
    cell = op_cell[op_of]
    if not monotone:
        order = np.argsort(cell, kind="stable")
        op_of = op_of[order]
        word_of = word_of[order]
        select = select[order]
        cell = cell[order]
    return op_of, word_of, select, np.searchsorted(cell, bins)


def _draw_width(specs, compiled, words, rngs) -> int:
    """Draw-phase threads for one group: 0 keeps the draws serial.

    Serial inside a multiprocessing child (the processes already hold
    the CPUs), for one-point groups, and when the group's expected
    fault-site count is below :data:`THREADED_DRAW_MIN_SITES`;
    otherwise one thread per CPU, at most one per point.  Points that
    share one bit generator (specs seeded with the same
    ``np.random.Generator``) also stay serial: their draws consume a
    common stream, so only the serial point order is reproducible.
    """
    if len(specs) < 2 or multiprocessing.parent_process() is not None:
        return 0
    if len({id(rng.bit_generator) for rng in rngs}) < len(rngs):
        return 0
    expected = sum(
        n_words * 64 * (
            compiled.n_gate_ops * spec.noise.gate_error
            + compiled.n_reset_ops * spec.noise.effective_reset_error
        )
        for spec, n_words in zip(specs, words)
    )
    if expected < THREADED_DRAW_MIN_SITES:
        return 0
    return resolve_workers(True, len(specs))


def _class_chunks(rng, spec, compiled, padded, classes, op_offset):
    """One point's fault-position chunks for ``classes``, each class one
    gap-jumping pass over its ``ops x padded`` virtual axis (exactly the
    single-point engine's draw), shifted ``op_offset[class]`` ops along
    a merged axis."""
    for is_reset in classes:
        if is_reset:
            error, ops = spec.noise.effective_reset_error, compiled.n_reset_ops
        else:
            error, ops = spec.noise.gate_error, compiled.n_gate_ops
        base = op_offset.get(is_reset, 0) * padded
        for chunk in _bernoulli_position_chunks(rng, error, ops * padded):
            if base:
                chunk += base
            yield chunk


def _draw_point(spec, rng, n_words, word_offset, compiled, plan):
    """One point's whole draw: its fault sites per error class (solo
    order: gate class, then reset class), then ONE flat replacement-word
    draw covering every cell the point will inject.

    On the combined fast path both classes' chunks run through ONE
    segmentation over the merged virtual axis (gate ops followed by
    reset ops, so the chained chunks stay sorted), giving ``sites``;
    the mixed-arity path segments each class on its own op axis into
    ``classes``.  Either way the segments are sorted by cell and
    ``word_of`` is shifted to the point's window.  Touches nothing but
    its own generator and fresh arrays, so points may draw on
    concurrent threads; returns the point's sites (``drawn`` counting
    their fault positions) and faulted-trial count.
    """
    point = _PointSites()
    hit_plane = None
    drawn = 0
    cell_sites = np.zeros(len(plan.arity_flat), dtype=np.int64)
    if plan.combined is not None:
        op_cell, _, bins, cells, monotone, op_offset, _ = plan.combined
        passes = [(None, (False, True), op_cell, bins, cells, monotone)]
    else:
        op_offset = {}
        passes = [
            (is_reset, (is_reset,), op_cell, bins, plan.cells[is_reset], monotone)
            for is_reset, (op_cell, _, bins, monotone) in plan.tables.items()
        ]
    for key, classes, op_cell, bins, cells, monotone in passes:
        segmented = _segment_sites(
            _class_chunks(rng, spec, compiled, n_words * 64, classes, op_offset),
            n_words,
            spec.trials,
        )
        if segmented is None:
            continue
        op_of, word_of, select, fault_plane, sites = segmented
        drawn += sites
        word_of += word_offset
        *resolved, prefix = _sort_by_cell(
            op_cell, monotone, bins, op_of, word_of, select
        )
        hit_plane = fault_plane if hit_plane is None else hit_plane | fault_plane
        cell_sites[cells] = np.diff(prefix)
        if key is None:
            point.sites = (*resolved, prefix.tolist())
        else:
            point.classes[key] = (*resolved, prefix.tolist())
    point.drawn = drawn
    if hit_plane is None:
        return point, 0
    bounds = [0]
    for value in (cell_sites * plan.arity_flat).tolist():
        bounds.append(bounds[-1] + value)
    point.block_bounds = bounds
    point.block = rng.integers(0, 2**64, size=bounds[-1], dtype=np.uint64)
    return point, popcount_words(hit_plane)


def _segment_count(points) -> int:
    """Fault-site segments resolved for ``points``."""
    return sum(
        len(sites[2])
        for point in points
        for sites in (point.sites, *point.classes.values())
        if sites is not None
    )


def _timed_draw(spec, rng, n_words, word_offset, compiled, plan):
    """:func:`_draw_point` plus its own wall time in nanoseconds (the
    draw span's ``busy_ns``, summed where the draw ran)."""
    watch = stopwatch()
    point, faulted = _draw_point(spec, rng, n_words, word_offset, compiled, plan)
    return point, faulted, watch.elapsed_ns


def _start_draws(pool, draw, arguments):
    """Start one window's point draws; returns one zero-argument
    resolver per point, in point order.

    With a thread pool every draw is submitted now and its resolver is
    the future's ``result``; without one the resolver IS the draw,
    deferred until the window is resolved, so serial draws run inline
    in point order and hold nothing ahead of their window.
    """
    if pool is None:
        return [partial(draw, *args) for args in arguments]
    return [pool.submit(draw, *args).result for args in arguments]


def _points_with(plan, points) -> dict[bool, list[int]]:
    """Per error class, the indices of ``points`` holding its sites."""
    if plan.combined is not None:
        active = [p for p, point in enumerate(points) if point.sites is not None]
        return {False: active, True: active}
    return {
        is_reset: [
            p for p, point in enumerate(points) if is_reset in point.classes
        ]
        for is_reset in (False, True)
    }


def _inject_phase(backend, prepared, states, compiled, plan, points):
    """Slot-loop phase of one plane window — one stacked apply per
    program group, pure slicing of each point's precomputed sites and
    word block, and one scatter per group for the window's points
    together.  Each slot group's scatter indices are built here from
    the points' int32 ``(op_of, word_of)`` sites: the combined fast
    path gathers them from the merged wire table, scaled to flat plane
    offsets once per call, and scatters through a bare take/put on the
    flat plane buffer; mixed-arity circuits map ``op_of`` to
    wire-matrix rows and go through ``randomize_stacked``'s per-call
    wire gather.  The reshape MUST alias the planes (a non-contiguous
    array would silently reshape into a copy and every put would write
    to a dead buffer); broadcast allocates contiguous, and this fails
    loudly — not via assert, which -O strips — if that invariant is
    ever broken.
    """
    max_groups = plan.max_groups
    combined = plan.combined
    points_with = _points_with(plan, points)
    if not states.planes.flags.c_contiguous:
        raise SimulationError(
            "stacked executor requires C-contiguous planes; the flat "
            "scatter view would silently become a copy"
        )
    flat_planes = states.planes.reshape(-1)
    if combined is not None:
        scaled_wires = combined[1] * states.planes.shape[1]
        cell_offset = combined[6]
    class_slot_index = {False: 0, True: 0}
    for si, slot in enumerate(compiled.slots):
        prepared.apply_slot(states, si)
        active = points_with[slot.is_reset]
        if not active:
            continue
        slot_c = class_slot_index[slot.is_reset]
        class_slot_index[slot.is_reset] = slot_c + 1
        global_base = si * max_groups
        if combined is not None:
            cell_base = cell_offset[slot.is_reset] + slot_c * max_groups
            for index in range(len(slot.groups)):
                cell = cell_base + index
                parts = []
                for p in active:
                    point = points[p]
                    op_of, word_of, select, prefix = point.sites
                    start = prefix[cell]
                    stop = prefix[cell + 1]
                    if stop <= start:
                        continue
                    b0 = point.block_bounds[global_base + index]
                    b1 = point.block_bounds[global_base + index + 1]
                    parts.append(
                        (
                            op_of[start:stop],
                            word_of[start:stop],
                            select[start:stop],
                            point.block[b0:b1].reshape(-1, stop - start),
                        )
                    )
                if not parts:
                    continue
                op_of, word_of, select, blocks = _concatenate_parts(parts)
                indices = scaled_wires.take(op_of, axis=1)
                indices += word_of
                current = flat_planes.take(indices)
                # c ^ ((c ^ b) & s) == (b & s) | (c & ~s), one pass less.
                flat_planes.put(
                    indices, current ^ ((current ^ blocks) & select)
                )
            continue
        op_row = plan.tables[slot.is_reset][1]
        class_base = slot_c * max_groups
        gathered: list[list[tuple[np.ndarray, ...]]] = [
            [] for _ in slot.groups
        ]
        for p in active:
            point = points[p]
            op_of, word_of, select, prefix = point.classes[slot.is_reset]
            bounds = point.block_bounds
            block = point.block
            for index in range(len(slot.groups)):
                start = prefix[class_base + index]
                stop = prefix[class_base + index + 1]
                if stop <= start:
                    continue
                b0 = bounds[global_base + index]
                b1 = bounds[global_base + index + 1]
                gathered[index].append(
                    (
                        op_of[start:stop],
                        word_of[start:stop],
                        select[start:stop],
                        block[b0:b1].reshape(-1, stop - start),
                    )
                )
        for index, group in enumerate(slot.groups):
            parts = gathered[index]
            if not parts:
                continue
            op_of, word_of, select, blocks = _concatenate_parts(parts)
            backend.randomize_stacked(
                states,
                group.wire_matrix,
                None,
                op_row.take(op_of),
                word_of,
                select,
                blocks,
            )


def _concatenate_parts(parts):
    """Join per-point ``(op_of, word_of, select, blocks)`` slices."""
    if len(parts) == 1:
        return parts[0]
    return (
        np.concatenate([part[0] for part in parts]),
        np.concatenate([part[1] for part in parts]),
        np.concatenate([part[2] for part in parts]),
        np.concatenate([part[3] for part in parts], axis=1),
    )


def _decode_phase(specs, states, words, offsets, faulted):
    """Observation phase of one plane window — points sharing one
    observable (the sweep and threshold-search common case) are decoded
    in ONE stacked pass over the window; each point's count is read off
    its words of the resulting failure plane, so the decode cost is
    paid per *window*, not per point.  Observables without a stacked
    path — and singleton clusters, where stacking buys nothing — keep
    the per-point ``count_failures`` call on the point's words.
    """
    failure_counts: list[int | None] = [None] * len(specs)
    clusters: list[tuple[object, list[int]]] = []
    for p, spec in enumerate(specs):
        observable = as_observable(spec.observable)
        if hasattr(observable, "count_failures_stacked"):
            for seen, members in clusters:
                if seen == observable:
                    members.append(p)
                    break
            else:
                clusters.append((observable, [p]))
    for observable, members in clusters:
        if len(members) < 2:
            continue
        counts = observable.count_failures_stacked(
            states, [(offsets[p], specs[p].trials) for p in members]
        )
        for p, count in zip(members, counts):
            failure_counts[p] = count
    results = []
    for p, spec in enumerate(specs):
        failures = failure_counts[p]
        if failures is None:
            window = BitplaneState(
                states.planes[:, offsets[p]:offsets[p] + words[p]], spec.trials
            )
            failures = as_observable(spec.observable).count_failures(window)
        results.append(
            PointResult(
                failures=failures,
                trials=spec.trials,
                faulted_trials=faulted[p],
                engine="bitplane",
            )
        )
    return results


def _pack_windows(words, n_wires) -> tuple[list[slice], list[int]]:
    """Pack a group's consecutive whole points into plane windows.

    A window holds points in spec order while its planes stay within
    :data:`WINDOW_BYTES` (``WINDOW_BYTES // (8 * n_wires)`` words); a
    point larger than that is a window of its own, never split.
    Returns the windows as slices of the point axis and each point's
    word offset inside its window.
    """
    budget = WINDOW_BYTES // (8 * n_wires)
    windows: list[slice] = []
    offsets: list[int] = []
    start = used = 0
    for p, width in enumerate(words):
        if p > start and used + width > budget:
            windows.append(slice(start, p))
            start, used = p, 0
        offsets.append(used)
        used += width
    windows.append(slice(start, len(words)))
    return windows, offsets


def _run_group_stacked(
    specs: Sequence[RunSpec], policy: ExecutionPolicy
) -> list[PointResult]:
    """Evaluate one bitplane group's points in cache-sized windows.

    :func:`_pack_windows` packs consecutive whole points into plane
    windows; point ``p`` occupies the words ``[offset_p, offset_p +
    words_p)`` of every wire plane of its window.  Each window starts
    the next window's draws (on the group's pool; serial draws wait to
    run inline), resolves its own points' fault sites against their
    window-local offsets, then gets its own broadcast state, slot loop
    and decode: the shared program is applied once per fused slot over
    the window, and fault injection is per point (each point's noise
    level and generator are its own) but batched per slot, all the
    window's fault sites scattering in ONE call per slot group.

    The per-point generator consumption — class gap passes, then
    per-slot per-group replacement-word blocks — matches a solo
    ``NoisyRunner`` run draw for draw, and plane operations are
    wordwise, so each point's words are **bit-identical** to running
    the spec alone.  The group span (``windows=<n>``) has two children
    per window: a ``draw`` span covering the main thread drawing that
    window or waiting for its draws (``threads``, ``sites``,
    ``segments``, and ``busy_ns``, the draws' own time wherever they
    ran), then an ``apply`` span (``words=<window words>``) with the
    window's ``decode`` span nested inside it.  Tracing reads only the
    clock, never the generators, so an enabled trace cannot move a
    digest.
    """
    first = specs[0]
    compiled = compile_circuit(
        first.circuit, fuse=True, cache=policy.compile_cache
    )
    backend = get_backend(policy.backend)
    prepared = backend.prepare(compiled)
    # The plan is pure structure derived from the fused schedule, so it
    # rides on the compiled program: a bisection or sweep re-running one
    # circuit builds it exactly once per process.
    plan = getattr(compiled, "_stack_plan", None)
    if plan is None:
        plan = _StackPlan(compiled)
        compiled._stack_plan = plan
    words = [words_for(spec.trials) for spec in specs]
    windows, offsets = _pack_windows(words, first.circuit.n_wires)
    with trace(
        "executor.group",
        specs=len(specs),
        trials=sum(spec.trials for spec in specs),
        words=sum(words),
        slots=len(compiled.slots),
        windows=len(windows),
        circuit=first.circuit.name or f"{first.circuit.n_wires}-wire",
    ):
        rngs = [_as_generator(spec.seed) for spec in specs]
        width = _draw_width(specs, compiled, words, rngs)
        draw = partial(_timed_draw, compiled=compiled, plan=plan)
        arguments = list(zip(specs, rngs, words, offsets))
        pool = ThreadPoolExecutor(max_workers=width) if width else None
        results = []
        try:
            pending = _start_draws(pool, draw, arguments[windows[0]])
            for k, window in enumerate(windows):
                # Window k+1 starts before window k is waited for, so a
                # pool thread left idle by window k's draws takes it up.
                ahead = (
                    _start_draws(pool, draw, arguments[windows[k + 1]])
                    if k + 1 < len(windows)
                    else []
                )
                with trace("executor.group.draw", threads=width) as span:
                    points, faulted, busy = zip(
                        *(resolve() for resolve in pending)
                    )
                    span.set(
                        sites=sum(point.drawn for point in points),
                        segments=_segment_count(points),
                        busy_ns=sum(busy),
                    )
                pending = ahead
                window_words = sum(words[window])
                with trace("executor.group.apply", words=window_words):
                    states = backend.broadcast(first.input_bits, window_words * 64)
                    _inject_phase(backend, prepared, states, compiled, plan, points)
                    with trace("executor.group.decode"):
                        results += _decode_phase(
                            specs[window], states, words[window],
                            offsets[window], faulted,
                        )
                # Window k's sites and planes go before window k+1 is
                # resolved, so at most two windows' sites are ever held.
                del points, states
        finally:
            if pool is not None:
                # No draw thread outlives the group: a later fork never
                # copies a live pool, and after an error the draws not
                # yet started are dropped.
                pool.shutdown(cancel_futures=True)
    _STACKED_POINTS.inc(len(specs))
    return results


def _run_group(specs: Sequence[RunSpec], policy: ExecutionPolicy) -> list[PointResult]:
    """Evaluate one group in-process (also the pool's task function)."""
    if policy.trace:
        # Pool workers hydrate the tracer from the pickled policy so a
        # spawned child traces too (a forked child inherits it); each
        # worker rewrites its own `<path>.<pid>` file after every task,
        # because pool children exit via os._exit and never run atexit.
        enable_tracing(policy.trace)
    _GROUPS.inc()
    engine = resolve_engine(policy.engine, specs[0].trials)
    if engine == "bitplane" and policy.fuse:
        # Lone points ride the stacked path too: it reproduces a solo
        # run bit for bit, and its cached plan, segmented fault pass,
        # and packed bookkeeping beat the classic runner even for a
        # single point.
        results = _run_group_stacked(specs, policy)
    else:
        # The batched engine has no plane axis to stack on, and unfused
        # execution must keep the pre-fusion per-op RNG stream — both
        # run point by point through the classic runner.
        _LEGACY_POINTS.inc(len(specs))
        results = [_run_point_legacy(spec, engine, policy) for spec in specs]
    flush_trace_if_forked()
    return results


class Executor:
    """Runs batches of :class:`RunSpec` under an :class:`ExecutionPolicy`.

    The default policy is hydrated from the environment once at
    construction (:meth:`ExecutionPolicy.from_env`), so a long-lived
    executor is immune to mid-run environment changes.
    """

    def __init__(self, policy: ExecutionPolicy | None = None):
        self.policy = policy if policy is not None else ExecutionPolicy.from_env()
        if self.policy.trace:
            enable_tracing(self.policy.trace)

    def run(self, specs: Sequence[RunSpec]) -> list[PointResult]:
        """Evaluate every spec; results come back in spec order."""
        specs = list(specs)
        if not specs:
            # Fast path: an empty batch is a valid no-op (the caching
            # executor and the shard runner routinely produce one when
            # every point was served from a store), not worth touching
            # policy resolution or grouping.
            return []
        for spec in specs:
            if not isinstance(spec, RunSpec):
                raise SimulationError(
                    f"Executor.run takes RunSpec instances, got "
                    f"{type(spec).__name__}"
                )
        _RUNS.inc()
        _POINTS.inc(len(specs))
        with trace("executor.run", specs=len(specs)) as span:
            groups: dict[tuple, list[int]] = {}
            for index, spec in enumerate(specs):
                groups.setdefault(
                    _group_key(spec, self.policy), []
                ).append(index)
            plan = list(groups.values())
            workers = resolve_workers(self.policy.parallel, len(plan))
            span.set(groups=len(plan), workers=workers)
            results: list[PointResult | None] = [None] * len(specs)
            if workers == 0:
                for indices in plan:
                    for index, result in zip(
                        indices,
                        _run_group([specs[i] for i in indices], self.policy),
                    ):
                        results[index] = result
            else:
                task = partial(_run_group, policy=self.policy)
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = [
                        pool.submit(task, [specs[i] for i in indices])
                        for indices in plan
                    ]
                    for indices, future in zip(plan, futures):
                        try:
                            group_results = future.result()
                        except Exception as exc:
                            # Cancel the not-yet-started groups so the
                            # error surfaces promptly instead of waiting
                            # for the rest of the batch (mirrors the
                            # harness sweep's fail-fast behaviour).
                            # Per-future cancel, NOT shutdown(
                            # cancel_futures=True): that path swaps the
                            # manager thread's pending-work dict while
                            # the queue feeder still pops from the old
                            # one, and a task that fails to pickle
                            # mid-flight then deadlocks the pool.
                            for pending in futures:
                                pending.cancel()
                            raise SimulationError(
                                f"executor group starting at "
                                f"{specs[indices[0]]!r} failed: {exc}"
                            ) from exc
                        for index, result in zip(indices, group_results):
                            results[index] = result
        return results  # type: ignore[return-value]

    def run_one(self, spec: RunSpec) -> PointResult:
        """Evaluate a single spec (sugar over :meth:`run`)."""
        return self.run([spec])[0]


def run_specs(
    specs: Sequence[RunSpec], policy: ExecutionPolicy | None = None
) -> list[PointResult]:
    """One-shot convenience: ``Executor(policy).run(specs)``."""
    return Executor(policy).run(specs)
