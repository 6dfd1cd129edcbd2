"""Chunked fault draws: bit-identical to solo runs across chunk seams.

The stacked executor segments each point's fault positions one
``DRAW_CHUNK``-site chunk at a time (see ``repro.runtime.executor``),
carrying a segment that straddles a chunk seam into the next chunk.
Shrinking ``DRAW_CHUNK`` to a few hundred sites puts thousands of seams
inside every draw, many of them inside a segment; every ``PointResult``
must still equal the solo ``NoisyRunner`` run at the default chunk
size, on both scatter paths, on both sides of the sampler's dense
switch, and for serial and threaded draws alike.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.noise.monte_carlo as monte_carlo
import repro.runtime.executor as executor_module
from repro.noise import NoiseModel, repetition_failure_predicate
from repro.noise.monte_carlo import DENSE_PROBABILITY
from repro.runtime import ExecutionPolicy, Executor, PredicateObservable, RunSpec
from tests.runtime.test_threaded_draw import CIRCUITS

POLICY = ExecutionPolicy(engine="bitplane")
SPARSE, DENSE = 0.02, 0.3
assert SPARSE < DENSE_PROBABILITY <= DENSE

#: Sites per chunk while the stacked group runs.
CHUNK = 257

#: ``(trials, gate_error)`` of the group's points.
POINTS = [
    (1, SPARSE),
    (63, DENSE),
    (64, SPARSE),
    (65, DENSE),
    (150_001, SPARSE),
    (150_001, DENSE),
    (64, 0.005),
]


def group_specs(circuit_name: str) -> list[RunSpec]:
    build, input_bits = CIRCUITS[circuit_name]
    observable = PredicateObservable(repetition_failure_predicate((0, 1, 2), 1))
    return [
        RunSpec(
            circuit=build(),
            input_bits=input_bits,
            observable=observable,
            noise=NoiseModel(gate_error=gate_error),
            trials=trials,
            seed=4000 + index,
        )
        for index, (trials, gate_error) in enumerate(POINTS)
    ]


@pytest.mark.parametrize("circuit_name", sorted(CIRCUITS))
@pytest.mark.parametrize("width", [0, 2])
def test_chunked_group_equals_solo(monkeypatch, circuit_name, width):
    specs = group_specs(circuit_name)
    solo = [
        executor_module._run_point_legacy(spec, "bitplane", POLICY)
        for spec in specs
    ]
    widths = []

    def forced(group, compiled, words, rngs):
        widths.append(width)
        return width

    with monkeypatch.context() as patch:
        patch.setattr(executor_module, "_draw_width", forced)
        patch.setattr(monte_carlo, "DRAW_CHUNK", CHUNK)
        stacked = Executor(POLICY).run(specs)
    assert widths == [width], "the specs must form exactly one group"
    assert stacked == solo
    assert all(result.faulted_trials for result in stacked[-3:-1])


class TestSegmentSites:
    def positions(self, n_words, ops=6, probability=0.3):
        rng = np.random.default_rng(3)
        return np.flatnonzero(rng.random(ops * n_words * 64) < probability)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64, 1000])
    def test_split_invariant(self, chunk):
        n_words = 40
        trials = n_words * 64 - 5
        positions = self.positions(n_words)
        # A seam inside a segment: the sites either side share a word.
        seams = positions[chunk::chunk] >> 6
        assert (seams == positions[chunk - 1:-1:chunk] >> 6).any()
        whole = executor_module._segment_sites(
            [positions.copy()], n_words, trials
        )
        split = executor_module._segment_sites(
            [positions[i:i + chunk].copy() for i in range(0, len(positions), chunk)],
            n_words,
            trials,
        )
        for expected, got in zip(whole[:4], split[:4]):
            np.testing.assert_array_equal(got, expected)
        assert split[4] == whole[4] == len(positions)

    def test_no_chunks(self):
        assert executor_module._segment_sites(iter(()), 4, 256) is None
