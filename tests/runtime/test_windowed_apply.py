"""The windowed slot loop: bit-identical to solo runs at every window edge.

The stacked executor packs a group's consecutive whole points into
plane windows of at most ``WINDOW_BYTES`` and runs the slot loop and the
decode once per window (see ``repro.runtime.executor``).  The
differential tests shrink the budget to three words, so one group spans
five windows: word-boundary trial counts (1, 63, 64, 65) sit at window
edges, one point is larger than the budget, and points whose observable
has no stacked decode share windows with points whose observable has
one.  Every ``PointResult`` must equal the solo ``_run_point_legacy``
result on both scatter paths, with threaded and serial draws.  The span
test pins the per-window layout: the group span carries the window
count, and each window has one draw span, then one apply span carrying
its word count, with the window's decode span nested inside it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from repro.core.bitplane import count_trial_ones, words_for
from repro.core.circuit import Circuit
from repro.core.compiled import compile_circuit
from repro.harness.threshold_finder import cycle_error_specs
from repro.noise import NoiseModel, repetition_failure_predicate
from repro.obs import disable_tracing, enable_tracing, flush_trace, validate_trace
from repro.runtime import (
    DecodeObservable,
    ExecutionPolicy,
    Executor,
    PredicateObservable,
    RunSpec,
)
import repro.runtime.executor as executor_module

POLICY = ExecutionPolicy(engine="bitplane")
BUDGET_WORDS = 3

#: ``(trials, gate_error, stacked)`` per point; ``stacked`` picks an
#: observable with ``count_failures_stacked``.  At three words a window
#: the points pack as [1, 63, 64] [65, 1] [20001] [64, 63] [65].
POINTS = [
    (1, 0.3, True),
    (63, 0.02, False),
    (64, 0.3, True),
    (65, 0.3, True),
    (1, 0.02, False),
    (20_001, 0.3, True),
    (64, 0.02, True),
    (63, 0.3, False),
    (65, 0.3, True),
]
WINDOWS = [slice(0, 3), slice(3, 5), slice(5, 6), slice(6, 8), slice(8, 9)]


@dataclass(frozen=True)
class WireDecoder:
    """Fails a trial whose ``wire`` differs from ``expected[0]``; has the
    failure-plane method that gives its observable a stacked decode."""

    wire: int

    def decode_failure_plane(self, states, expected):
        plane = states.planes[self.wire]
        return ~plane if expected[0] else plane.copy()

    def count_decode_failures(self, states, expected):
        return count_trial_ones(
            self.decode_failure_plane(states, expected), states.trials
        )


def mixed_arity_template() -> RunSpec:
    """Gates of arity 1, 2 and 3 sharing fused slots, plus a reset: the
    executor's per-class ``randomize_stacked`` scatter path."""
    circuit = (
        Circuit(5, name="mixed-arity-windows")
        .x(0)
        .cnot(1, 2)
        .toffoli(0, 1, 3)
        .x(4)
        .append_reset(2)
        .toffoli(2, 3, 4)
        .cnot(0, 1)
    )
    return RunSpec(
        circuit=circuit,
        input_bits=(1, 0, 1, 0, 0),
        observable=DecodeObservable(WireDecoder(0), (0,)),
        noise=NoiseModel(gate_error=0.0),
        trials=1,
        seed=0,
    )


def cycle_template() -> RunSpec:
    """The recovery cycle: uniform arity, the combined scatter path."""
    return cycle_error_specs([(0.0, 0)], 1)[0]


TEMPLATES = {"combined": cycle_template, "mixed-arity": mixed_arity_template}


def window_specs(path: str) -> list[RunSpec]:
    template = TEMPLATES[path]()
    plain = PredicateObservable(repetition_failure_predicate((0, 1, 2), 1))
    return [
        replace(
            template,
            observable=template.observable if stacked else plain,
            noise=NoiseModel(gate_error=gate_error),
            trials=trials,
            seed=700 + index,
        )
        for index, (trials, gate_error, stacked) in enumerate(POINTS)
    ]


def shrink_windows(monkeypatch, specs) -> list:
    """Set the budget to ``BUDGET_WORDS`` and record every packing."""
    n_wires = specs[0].circuit.n_wires
    monkeypatch.setattr(
        executor_module, "WINDOW_BYTES", BUDGET_WORDS * 8 * n_wires
    )
    packings = []
    pack = executor_module._pack_windows

    def recording(words, wires):
        windows, offsets = pack(words, wires)
        packings.append(windows)
        return windows, offsets

    monkeypatch.setattr(executor_module, "_pack_windows", recording)
    return packings


def test_points_pack_whole_and_in_order(monkeypatch):
    monkeypatch.setattr(executor_module, "WINDOW_BYTES", BUDGET_WORDS * 8)
    words = [1, 1, 1, 2, 1, 313, 1, 1, 2]
    windows, offsets = executor_module._pack_windows(words, 1)
    assert windows == WINDOWS
    assert offsets == [0, 1, 2, 0, 2, 0, 0, 1, 0]


@pytest.mark.parametrize("width", [0, 3])
@pytest.mark.parametrize("path", sorted(TEMPLATES))
def test_windowed_group_matches_solo_runs(monkeypatch, path, width):
    specs = window_specs(path)
    solo = [
        executor_module._run_point_legacy(spec, "bitplane", POLICY)
        for spec in specs
    ]
    packings = shrink_windows(monkeypatch, specs)
    monkeypatch.setattr(
        executor_module, "_draw_width", lambda *args: width
    )
    windowed = Executor(POLICY).run(specs)
    assert packings == [WINDOWS], "the specs must form one five-window group"
    assert windowed == solo
    assert windowed[5].faulted_trials  # the point larger than the budget
    assert any(result.failures for result in windowed)


def test_windowed_scatter_paths_are_the_intended_ones():
    plans = {
        path: executor_module._StackPlan(
            compile_circuit(build().circuit, fuse=True)
        )
        for path, build in TEMPLATES.items()
    }
    assert plans["combined"].combined is not None
    assert plans["mixed-arity"].combined is None


class TestApplySpan:
    @pytest.fixture(autouse=True)
    def _no_tracer(self):
        disable_tracing()
        yield
        disable_tracing()

    def test_one_draw_and_apply_span_per_window_wraps_its_decode(
        self, tmp_path, monkeypatch
    ):
        enable_tracing(str(tmp_path / "trace.json"))
        for path in sorted(TEMPLATES):
            specs = window_specs(path)
            shrink_windows(monkeypatch, specs)
            Executor(POLICY).run(specs)
        document = json.loads(Path(flush_trace()).read_text())
        assert validate_trace(document) == []

        def walk(spans):
            for span in spans:
                yield span
                yield from walk(span["children"])

        groups = [
            span for span in walk(document["spans"])
            if span["name"] == "executor.group"
        ]
        assert len(groups) == 2
        window_words = [
            sum(words_for(trials) for trials, _, _ in POINTS[window])
            for window in WINDOWS
        ]
        for group in groups:
            assert group["attrs"]["windows"] == len(WINDOWS)
            names = [child["name"] for child in group["children"]]
            assert names == (
                ["executor.group.draw", "executor.group.apply"] * len(WINDOWS)
            )
            applies = group["children"][1::2]
            assert [apply["attrs"]["words"] for apply in applies] == window_words
            for apply in applies:
                decodes = [child["name"] for child in apply["children"]]
                assert decodes == ["executor.group.decode"]
