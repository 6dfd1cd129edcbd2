"""The threaded fault-draw phase: bit-identical to serial and solo runs.

The stacked executor may run its per-point fault draws on a thread
pool (see ``repro.runtime.executor``).  Each point draws from its own
generator, so a threaded draw must be bit-identical to the serial one
and to running every spec alone through ``NoisyRunner``.  The
differential tests force each path by patching the draw-width helper
and compare whole ``PointResult`` lists across group widths, trial
counts on and around the 64-trial word boundary, gate errors on both
sides of the sampler's dense switch, and both scatter paths (the
combined single-arity path and the mixed-arity ``randomize_stacked``
path).  The width helper itself is pinned separately: one-point
groups, groups below the serial cutoff, and multiprocessing children
stay serial.
"""

from __future__ import annotations

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.coding import recovery_circuit
from repro.core.bitplane import words_for
from repro.core.circuit import Circuit
from repro.core.compiled import compile_circuit
from repro.noise import NoiseModel, repetition_failure_predicate
from repro.noise.monte_carlo import DENSE_PROBABILITY
from repro.obs import disable_tracing, enable_tracing, flush_trace
from repro.runtime import ExecutionPolicy, Executor, PredicateObservable, RunSpec
import repro.runtime.executor as executor_module

POLICY = ExecutionPolicy(engine="bitplane")
SPARSE, DENSE = 0.02, 0.3
assert SPARSE < DENSE_PROBABILITY <= DENSE

#: ``(trials, gate_error)`` per point of each group width.  Every width
#: mixes a 150 001-trial point with word-boundary trial counts, and
#: draws on both sides of DENSE_PROBABILITY.
GROUPS = {
    2: [(150_001, DENSE), (65, SPARSE)],
    3: [(64, DENSE), (150_001, SPARSE), (1, DENSE)],
    7: [
        (1, SPARSE),
        (63, DENSE),
        (64, SPARSE),
        (65, DENSE),
        (150_001, DENSE),
        (150_001, SPARSE),
        (63, 0.005),
    ],
}


def mixed_arity_circuit() -> Circuit:
    """Gates of arity 1, 2 and 3 (some sharing a fused slot) plus a
    reset: the executor's general, per-class scatter path."""
    return (
        Circuit(5, name="mixed-arity")
        .x(0)
        .cnot(1, 2)
        .toffoli(0, 1, 3)
        .x(4)
        .cnot(3, 4)
        .append_reset(2)
        .toffoli(2, 3, 4)
        .x(1)
    )


CIRCUITS = {
    "combined": (recovery_circuit, (1, 1, 1) + (0,) * 6),
    "mixed-arity": (mixed_arity_circuit, (1, 0, 1, 0, 0)),
}


def group_specs(circuit_name: str, width: int) -> list[RunSpec]:
    build, input_bits = CIRCUITS[circuit_name]
    observable = PredicateObservable(repetition_failure_predicate((0, 1, 2), 1))
    return [
        RunSpec(
            circuit=build(),
            input_bits=input_bits,
            observable=observable,
            noise=NoiseModel(gate_error=gate_error),
            trials=trials,
            seed=900 + 31 * width + index,
        )
        for index, (trials, gate_error) in enumerate(GROUPS[width])
    ]


def run_with_width(monkeypatch, specs, width) -> list:
    """Run ``specs`` as one stacked group with a forced draw width."""
    widths = []

    def forced(group, compiled, words, rngs):
        widths.append(width)
        return width

    monkeypatch.setattr(executor_module, "_draw_width", forced)
    results = Executor(POLICY).run(specs)
    monkeypatch.undo()
    assert widths == [width], "the specs must form exactly one group"
    return results


def test_circuit_paths_are_the_intended_ones():
    # Guards the differential test's coverage: one circuit per scatter
    # path, and the mixed-arity circuit has a multi-group slot.
    plans = {}
    for name, (build, _) in CIRCUITS.items():
        compiled = compile_circuit(build(), fuse=True)
        plans[name] = (compiled, executor_module._StackPlan(compiled))
    assert plans["combined"][1].combined is not None
    compiled, plan = plans["mixed-arity"]
    assert plan.combined is None
    assert max(len(slot.groups) for slot in compiled.slots) > 1


@pytest.mark.parametrize("circuit_name", sorted(CIRCUITS))
@pytest.mark.parametrize("width", sorted(GROUPS))
def test_threaded_serial_and_solo_agree(monkeypatch, circuit_name, width):
    specs = group_specs(circuit_name, width)
    threaded = run_with_width(monkeypatch, specs, width)
    serial = run_with_width(monkeypatch, specs, 0)
    solo = [
        executor_module._run_point_legacy(spec, "bitplane", POLICY)
        for spec in specs
    ]
    assert threaded == serial == solo
    assert any(result.faulted_trials for result in threaded)


def sweep_dense_like_group(points: int = 4) -> list[RunSpec]:
    """A group far above the serial cutoff."""
    return [
        RunSpec(
            circuit=recovery_circuit(),
            input_bits=(1, 1, 1) + (0,) * 6,
            observable=PredicateObservable(
                repetition_failure_predicate((0, 1, 2), 1)
            ),
            noise=NoiseModel(gate_error=0.1),
            trials=1_000_000,
            seed=index,
        )
        for index in range(points)
    ]


def draw_width_of(specs) -> int:
    compiled = compile_circuit(specs[0].circuit, fuse=True)
    words = [words_for(spec.trials) for spec in specs]
    rngs = [executor_module._as_generator(spec.seed) for spec in specs]
    return executor_module._draw_width(specs, compiled, words, rngs)


class TestDrawWidth:
    def test_large_group_threads_one_per_cpu(self, monkeypatch):
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 3)
        assert draw_width_of(sweep_dense_like_group(4)) == 3
        assert draw_width_of(sweep_dense_like_group(2)) == 2

    def test_one_point_group_is_serial(self, monkeypatch):
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 4)
        assert draw_width_of(sweep_dense_like_group(1)) == 0

    def test_below_cutoff_is_serial(self, monkeypatch):
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 4)
        specs = sweep_dense_like_group(4)
        assert draw_width_of(specs) == 4
        monkeypatch.setattr(
            executor_module, "THREADED_DRAW_MIN_SITES", float("inf")
        )
        assert draw_width_of(specs) == 0

    def test_shared_generator_is_serial(self, monkeypatch):
        # Two points consuming one generator are reproducible only in
        # the serial point order, so they must never draw on threads.
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 4)
        specs = sweep_dense_like_group(3)
        shared = np.random.default_rng(5)
        specs[0] = replace(specs[0], seed=shared)
        specs[2] = replace(specs[2], seed=shared)
        assert draw_width_of(specs) == 0
        specs[2] = replace(specs[2], seed=np.random.default_rng(5))
        assert draw_width_of(specs) == 3

    def test_multiprocessing_child_is_serial(self):
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            in_child, parent_pid_seen = pool.submit(_width_in_child).result()
        assert parent_pid_seen
        assert in_child == 0


def _width_in_child():
    """Runs in a pool child: the big group's draw width there."""
    return (
        draw_width_of(sweep_dense_like_group(4)),
        multiprocessing.parent_process() is not None,
    )


class TestDrawSpan:
    @pytest.fixture(autouse=True)
    def _no_tracer(self):
        disable_tracing()
        yield
        disable_tracing()

    def draw_spans(self, tmp_path, monkeypatch, width):
        """The group's draw spans, one per window: the budget is shrunk
        to one word, so each of the three points is a window."""
        disable_tracing()
        enable_tracing(str(tmp_path / "trace.json"))
        specs = group_specs("combined", 3)
        monkeypatch.setattr(
            executor_module, "WINDOW_BYTES", 8 * specs[0].circuit.n_wires
        )
        run_with_width(monkeypatch, specs, width)
        document = json.loads(Path(flush_trace()).read_text())

        def walk(spans):
            for span in spans:
                yield span
                yield from walk(span["children"])

        (group,) = [
            span for span in walk(document["spans"])
            if span["name"] == "executor.group"
        ]
        assert group["attrs"]["windows"] == len(specs)
        spans = [
            child for child in group["children"]
            if child["name"] == "executor.group.draw"
        ]
        assert len(spans) == len(specs)
        return spans

    def test_draw_span_records_width_and_segments(self, tmp_path, monkeypatch):
        threaded = self.draw_spans(tmp_path, monkeypatch, 3)
        serial = self.draw_spans(tmp_path, monkeypatch, 0)
        assert [span["attrs"]["threads"] for span in threaded] == [3] * 3
        assert [span["attrs"]["threads"] for span in serial] == [0] * 3

        def total(spans, name):
            values = [span["attrs"][name] for span in spans]
            assert all(isinstance(value, int) for value in values)
            return sum(values)

        segments = total(threaded, "segments")
        assert segments > 0
        assert total(serial, "segments") == segments
        # Every segment holds at least one drawn fault position, and a
        # dense point's word holds several.
        sites = total(threaded, "sites")
        assert sites > segments
        assert total(serial, "sites") == sites
        # Each window's draws took time wherever they ran.
        assert all(span["attrs"]["busy_ns"] > 0 for span in threaded + serial)
