"""The per-window draw loop: lookahead bound, error paths, bit-identity.

The stacked executor resolves one plane window's fault draws at a time
and starts the next window's draws (on the group's thread pool) before
running the current window's slot loop (see
``repro.runtime.executor``).  These tests shrink ``WINDOW_BYTES`` so one
group spans several windows, then pin:

* the bound: no point of window k+2 is drawn before window k's slot
  loop ends, and a serial group draws window k+1 only after it; with a
  pool, window k+1's draws start while window k's slot loop waits;
* the error paths: a draw raising in a later window and a slot loop
  raising both surface unchanged from ``Executor.run``, and no draw
  thread outlives the group;
* bit-identity of multi-window groups with solo ``_run_point_legacy``
  runs, for threaded and serial draws and for points sharing one
  generator.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core.bitplane import words_for
from repro.core.compiled import compile_circuit
from repro.harness.threshold_finder import cycle_error_specs
from repro.runtime import ExecutionPolicy, Executor
import repro.runtime.executor as executor_module

POLICY = ExecutionPolicy(engine="bitplane")
BUDGET_WORDS = 40

#: ``(trials, gate_error)`` per point: word-boundary trial counts, a
#: point larger than the budget, and gate errors on both sides of the
#: sampler's dense switch.
POINTS = [
    (1, 0.3),
    (2_000, 0.02),
    (65, 0.3),
    (2_560, 0.05),
    (64, 0.02),
    (5_000, 0.3),
    (640, 0.05),
    (640, 0.3),
    (63, 0.02),
    (1_280, 0.05),
]


def group_specs(seeds=None) -> list:
    template = cycle_error_specs([(0.0, 0)], 1)[0]
    seeds = seeds if seeds is not None else [300 + p for p in range(len(POINTS))]
    return [
        replace(
            template,
            noise=replace(template.noise, gate_error=gate_error),
            trials=trials,
            seed=seed,
        )
        for (trials, gate_error), seed in zip(POINTS, seeds)
    ]


def shrink_windows(monkeypatch, specs) -> list[slice]:
    """Set the budget to ``BUDGET_WORDS``; returns the group's windows."""
    n_wires = specs[0].circuit.n_wires
    monkeypatch.setattr(
        executor_module, "WINDOW_BYTES", BUDGET_WORDS * 8 * n_wires
    )
    windows, _ = executor_module._pack_windows(
        [words_for(spec.trials) for spec in specs], n_wires
    )
    assert len(windows) >= 4
    return windows


def force_width(monkeypatch, width) -> None:
    monkeypatch.setattr(executor_module, "_draw_width", lambda *args: width)


def point_index(specs) -> dict[int, int]:
    return {id(spec): p for p, spec in enumerate(specs)}


@pytest.mark.parametrize("width", [0, 2, 3])
def test_draws_run_at_most_one_window_ahead(monkeypatch, width):
    specs = group_specs()
    windows = shrink_windows(monkeypatch, specs)
    force_width(monkeypatch, width)
    index = point_index(specs)
    of = [k for k, window in enumerate(windows) for _ in specs[window]]
    events: list[tuple[str, int]] = []
    started = [threading.Event() for _ in windows]
    draw = executor_module._draw_point
    inject = executor_module._inject_phase

    def recording_draw(spec, *args):
        p = index[id(spec)]
        events.append(("draw", p))
        started[of[p]].set()
        return draw(spec, *args)

    def recording_inject(*args):
        k = sum(1 for kind, _ in events if kind == "slot-loop-end")
        if k + 1 < len(windows):
            # With a pool, window k+1 is already drawing while window
            # k's slot loop waits here; a serial group has not started.
            assert started[k + 1].wait(10 if width else 0) == bool(width)
        inject(*args)
        events.append(("slot-loop-end", k))

    monkeypatch.setattr(executor_module, "_draw_point", recording_draw)
    monkeypatch.setattr(executor_module, "_inject_phase", recording_inject)
    Executor(POLICY).run(specs)
    drawn = [p for kind, p in events if kind == "draw"]
    assert sorted(drawn) == list(range(len(specs)))
    if not width:
        assert drawn == sorted(drawn), "serial draws run in point order"
    assert [k for kind, k in events if kind == "slot-loop-end"] == list(
        range(len(windows))
    )
    ended = 0
    for kind, value in events:
        if kind == "slot-loop-end":
            ended += 1
            continue
        k = of[value]
        if width:
            assert k <= ended + 1, f"window {k} drawn before window {k - 2} ran"
        else:
            assert k == ended, f"serial window {k} drawn ahead of its turn"


@pytest.mark.parametrize("width", [0, 2, 3])
def test_draw_error_in_a_later_window_propagates(monkeypatch, width):
    specs = group_specs()
    windows = shrink_windows(monkeypatch, specs)
    force_width(monkeypatch, width)
    failing = specs[windows[2]][0]
    error = RuntimeError("draw failed")
    draw = executor_module._draw_point

    def failing_draw(spec, *args):
        if spec is failing:
            raise error
        return draw(spec, *args)

    monkeypatch.setattr(executor_module, "_draw_point", failing_draw)
    baseline = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        Executor(POLICY).run(specs)
    assert raised.value is error
    assert threading.active_count() == baseline


@pytest.mark.parametrize("width", [0, 2, 3])
def test_slot_loop_error_propagates(monkeypatch, width):
    specs = group_specs()
    shrink_windows(monkeypatch, specs)
    force_width(monkeypatch, width)
    error = RuntimeError("slot loop failed")
    calls = []
    inject = executor_module._inject_phase

    def failing_inject(*args):
        calls.append(None)
        if len(calls) == 2:
            raise error
        inject(*args)

    monkeypatch.setattr(executor_module, "_inject_phase", failing_inject)
    baseline = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        Executor(POLICY).run(specs)
    assert raised.value is error
    assert len(calls) == 2
    assert threading.active_count() == baseline


def solo(specs) -> list:
    return [
        executor_module._run_point_legacy(spec, "bitplane", POLICY)
        for spec in specs
    ]


@pytest.mark.parametrize("width", [0, 2, 3])
def test_multi_window_group_matches_solo_runs(monkeypatch, width):
    specs = group_specs()
    reference = solo(specs)
    shrink_windows(monkeypatch, specs)
    force_width(monkeypatch, width)
    results = Executor(POLICY).run(specs)
    assert results == reference
    assert any(result.failures for result in results)
    assert all(result.faulted_trials for result in results[1:])


def test_shared_generator_group_matches_solo_runs(monkeypatch):
    # Points drawing from one generator are reproducible only in the
    # serial point order, which the draw-width rule keeps (no forced
    # width here): the group must equal solo runs consuming one
    # generator in point order, across its windows.
    def shared_specs():
        shared = np.random.default_rng(77)
        seeds = [shared if p % 3 else 500 + p for p in range(len(POINTS))]
        return group_specs(seeds)

    reference = solo(shared_specs())
    specs = shared_specs()
    shrink_windows(monkeypatch, specs)
    monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(executor_module, "THREADED_DRAW_MIN_SITES", 0)
    compiled = compile_circuit(specs[0].circuit, fuse=True)
    words = [words_for(spec.trials) for spec in specs]
    rngs = [executor_module._as_generator(spec.seed) for spec in specs]
    assert executor_module._draw_width(specs, compiled, words, rngs) == 0
    assert Executor(POLICY).run(specs) == reference
