"""Vectorised Monte-Carlo simulation under the gate-failure model.

Two interchangeable engines evolve a batch of trials through a circuit;
each operation first acts noiselessly on every trial, then a
Bernoulli(``g``) mask selects the trials whose touched wires are
replaced with uniform random bits.  This is exactly the paper's error
model, vectorised across trials.

* ``engine="batched"`` — the :class:`~repro.core.simulator.BatchedState`
  uint8 engine: per-op column pack/unpack and a table lookup.
* ``engine="bitplane"`` — the :class:`~repro.core.bitplane.BitplaneState`
  engine: the circuit is lowered once *per process* through the
  content-keyed cache of :func:`~repro.core.compiled.compile_circuit`,
  64 trials ride in each uint64 word, consecutive disjoint ops execute
  as fused slots (identical gates stacked into one vectorised apply),
  and each slot draws its fault sites in a single geometric gap-jumping
  pass over a ``slot_ops x trials`` virtual axis — so the per-slot cost
  scales with the *number of faults*, not the number of trials or ops.
  ``REPRO_FUSE=0`` restores the per-op schedule (and its original RNG
  stream); ``REPRO_COMPILE_CACHE=0`` disables compiled-circuit reuse.
* ``engine="auto"`` — bitplane for batches of at least
  :data:`AUTO_BITPLANE_MIN_TRIALS` trials, batched below that (tiny
  batches don't amortise packing).

RNG-stream caveat: all entry points take an explicit seed or
:class:`numpy.random.Generator` so every experiment is reproducible bit
for bit — but the two engines consume the generator differently (the
batched engine draws per-trial uniforms and uint8 bits; the bitplane
engine draws geometric gaps — or, at fault probabilities of at least
:data:`DENSE_PROBABILITY`, direct thresholded uniforms — and whole
uint64 words).  Equal seeds give statistically identical results across
engines, never bit-identical realisations; digests of noisy runs are
only comparable within one engine.
``tests/noise/test_engine_determinism`` pins both streams.

This module is the single-point *kernel*; multi-point workloads go
through :mod:`repro.runtime`, whose executor stacks all points sharing
a compiled circuit into shared plane windows while drawing each point's
faults from its own generator in exactly this module's order — every
stacked point is bit-identical to a solo run.
:func:`estimate_failure_probability` survives as a deprecated shim over
that layer.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.backends import get_backend
from repro.core.bitplane import BitplaneState, mask_from_positions
from repro.core.circuit import Circuit
from repro.core.compiled import compile_circuit
from repro.core.simulator import BatchedState
from repro.errors import SimulationError
from repro.noise.model import NoiseModel

#: Valid values of the ``engine`` parameter.
ENGINES = ("auto", "batched", "bitplane")

#: Smallest batch for which ``engine="auto"`` picks the bitplane engine.
AUTO_BITPLANE_MIN_TRIALS = 256

#: Success probability at which :func:`_bernoulli_position_chunks`
#: switches from geometric gap-jumping to a direct thresholded draw.
#: Gap jumping costs one gap *per success* (~15 ns through the
#: exponential inversion; ``Generator.geometric`` itself takes ~27 ns)
#: while the dense draw costs one uniform, compare and scan per *trial*
#: (~7 ns), measured on a 2-vCPU Xeon VM at 4M trials.  The two now meet
#: near ``p = 0.45``, but the switch stays at 0.25: moving it would
#: change the fault stream of every draw in between.  Every engine
#: digest and threshold experiment draws in the sparse regime.
DENSE_PROBABILITY = 0.25

#: Fault positions per chunk of :func:`_bernoulli_position_chunks`.
#: The stacked executor segments each chunk while it is still in cache,
#: so no array with one entry per fault site is ever held, only the
#: per-segment results.  Measured on a 2-vCPU Xeon VM (2 MiB L2 per
#: core), median of 11 interleaved draws per size: one 1M-trial point of
#: the 1-cycle recovery circuit at g = 0.04 (2.2M sites) took 83, 77,
#: 75, 70, 73, 88 and 87 ms at 4k, 8k, 16k, 32k, 64k, 128k and 512k
#: sites per chunk, against 126 ms for the whole-array draw this
#: replaced.  Dense draws chunk trials, not sites, so they pay more for
#: small chunks: a 150k-trial point at p = 0.3 took 106, 84, 68, 61,
#: 57, 67 and 75 ms.  At 32k a chunk's few 8-byte temporaries
#: (~1.3 MB) stay inside L2.
DRAW_CHUNK = 1 << 15


def _validate_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown engine {engine!r}; valid engines: {ENGINES}"
        )


def resolve_engine(engine: str, trials: int) -> str:
    """Resolve ``"auto"`` to a concrete engine for a batch size."""
    _validate_engine(engine)
    if engine == "auto":
        return "bitplane" if trials >= AUTO_BITPLANE_MIN_TRIALS else "batched"
    return engine


def _as_generator(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _bernoulli_position_chunks(
    rng: np.random.Generator,
    probability: float,
    trials: int,
    dense: bool | None = None,
) -> Iterator[np.ndarray]:
    """Sorted indices of successes among ``trials`` Bernoulli draws, in
    chunks of at most :data:`DRAW_CHUNK` positions.

    Two regimes behind one contract (non-empty, sorted, duplicate-free
    int64 chunks of positions in ``[0, trials)``, increasing from chunk
    to chunk):

    * sparse (``p < DENSE_PROBABILITY``) — geometric gaps between
      successes, so the cost is proportional to the expected
      ``trials * p`` successes;
    * dense — one uniform per trial thresholded against ``p``, drawn
      ``DRAW_CHUNK`` trials at a time; cheaper once successes are no
      longer rare.

    ``dense`` forces a regime (used by the distribution-agreement
    tests); ``None`` selects by ``probability``.  This is the bitplane
    engine's fault stream, so the regime switch changes the RNG stream
    at ``p >= DENSE_PROBABILITY`` — the frozen digests all sit in the
    sparse regime.

    The sparse regime draws gap batches of ``expected + 4 sigma + 16``
    variates, consuming the last batch whole even past ``trials``, and
    slices every batch into chunks.  Each gap is ``ceil(E / -log1p(-p))``
    for a standard exponential ``E`` — the inversion
    ``Generator.geometric`` itself computes per variate below
    ``p = 1/3`` (``math.log1p`` is the same C ``log1p`` NumPy calls) —
    and both the uniform and the exponential streams are consistent
    under splitting, so the chunks and the generator's final state are
    bit-identical to one whole-batch ``geometric`` draw.  A consumer
    may modify a chunk in place; it stays valid after the next one is
    drawn.
    """
    if trials == 0 or probability <= 0.0:
        return
    if probability >= 1.0:
        for start in range(0, trials, DRAW_CHUNK):
            yield np.arange(start, min(start + DRAW_CHUNK, trials), dtype=np.int64)
        return
    if dense is None:
        dense = probability >= DENSE_PROBABILITY
    if dense:
        for start in range(0, trials, DRAW_CHUNK):
            uniforms = rng.random(min(DRAW_CHUNK, trials - start))
            positions = np.flatnonzero(uniforms < probability)
            if positions.size:
                positions += start
                yield positions
        return
    expected = trials * probability
    batch = int(expected + 4.0 * expected**0.5 + 16.0)
    scale = -math.log1p(-probability)

    def gaps(size):
        if probability >= 1 / 3:  # a forced sparse draw: NumPy's search
            return rng.geometric(probability, size)
        exponentials = rng.standard_exponential(size)
        exponentials /= scale
        return np.ceil(exponentials, out=exponentials).astype(np.int64)

    last = -1
    while True:
        for start in range(0, batch, DRAW_CHUNK):
            positions = gaps(min(DRAW_CHUNK, batch - start))
            positions[0] += last
            np.cumsum(positions, out=positions)
            if positions[-1] >= trials:
                positions = positions[: np.searchsorted(positions, trials)]
                if positions.size:
                    yield positions
                # Finish the batch, as the whole-batch draw did.
                for rest in range(start + DRAW_CHUNK, batch, DRAW_CHUNK):
                    gaps(min(DRAW_CHUNK, batch - rest))
                return
            last = int(positions[-1])
            yield positions


def _bernoulli_positions(
    rng: np.random.Generator,
    probability: float,
    trials: int,
    dense: bool | None = None,
) -> np.ndarray:
    """All of :func:`_bernoulli_position_chunks` as one sorted int64
    array (same arguments, same stream)."""
    chunks = list(_bernoulli_position_chunks(rng, probability, trials, dense))
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks) if len(chunks) > 1 else chunks[0]


def inject_slot_faults(
    slot,
    states: BitplaneState,
    rng: np.random.Generator,
    virtual: np.ndarray,
    n_words: int,
    trials: int,
    backend=None,
) -> None:
    """Scatter one slot's slice of a batched fault draw into ``states``.

    ``virtual`` holds the slot's sorted fault positions on its local
    ``k * (n_words * 64)`` axis, so ``virtual >> 6`` is directly a flat
    (op, word) index.  Equal words form contiguous segments; one
    reduceat ORs each segment's trial bits into a packed select word,
    padding bits beyond ``trials`` are masked off, and the replacement
    bits for all faulted instances of a group come from a single
    random-word block.

    This is the single-point schedule's per-slot path.  The stacked
    multi-point executor (:mod:`repro.runtime.executor`) performs the
    same segmentation once per *error class* instead of per slot, one
    position chunk at a time (see ``_segment_sites`` there); the two
    must stay in step on the padding rule and the segment/select
    construction.

    ``backend`` routes the scatter through a
    :class:`~repro.backends.PlaneBackend` (``None`` uses the state's
    own method — identical for the in-tree backends, which share the
    plane store).
    """
    if backend is None:
        scatter = states.randomize_stacked
    else:
        def scatter(*args, **kwargs):
            backend.randomize_stacked(states, *args, **kwargs)
    words = virtual >> 6
    bits = np.uint64(1) << (virtual & 63).astype(np.uint64)
    segment_starts = np.concatenate(
        ([0], np.flatnonzero(words[1:] != words[:-1]) + 1)
    )
    select = np.bitwise_or.reduceat(bits, segment_starts)
    affected = words[segment_starts]
    op_of = affected // n_words
    word_of = affected - op_of * n_words
    if trials % 64:
        # Faults on padding bits of each op's last word are no-ops.
        select[word_of == n_words - 1] &= np.uint64((1 << (trials % 64)) - 1)
    if len(slot.groups) == 1:
        scatter(slot.groups[0].wire_matrix, rng, op_of, word_of, select)
        return
    for index, group in enumerate(slot.groups):
        here = np.flatnonzero(slot.op_group[op_of] == index)
        if here.size:
            scatter(
                group.wire_matrix,
                rng,
                slot.op_row[op_of[here]],
                word_of[here],
                select[here],
            )


@dataclass
class NoisyResult:
    """Outcome of a noisy batched run."""

    states: BatchedState | BitplaneState
    fault_counts: np.ndarray  # faults injected per trial

    @property
    def trials(self) -> int:
        """Number of Monte-Carlo trials in the batch."""
        return self.states.trials

    def fraction_with_faults(self) -> float:
        """Fraction of trials that experienced at least one fault.

        A zero-trial batch has no faulted trials, so the fraction is
        0.0 (a plain mean would be NumPy's NaN-with-warning
        mean-of-empty).
        """
        if self.fault_counts.size == 0:
            return 0.0
        return float((self.fault_counts > 0).mean())


class NoisyRunner:
    """Runs circuits under a :class:`NoiseModel` on batched states.

    ``engine`` selects how :meth:`run_from_input` builds its batch; see
    the module docstring for the engines and the RNG-stream caveat.
    :meth:`run` dispatches on the state type it is handed, so an
    explicitly constructed :class:`BitplaneState` always takes the
    bit-parallel path regardless of ``engine``.  ``backend`` selects
    which registered :mod:`repro.backends` implementation executes the
    fused bitplane slots — backends are bit-identical and never touch
    the generator, so the choice can never change a result or an RNG
    stream.
    """

    def __init__(
        self,
        model: NoiseModel,
        seed: int | np.random.Generator | None = None,
        engine: str = "auto",
        fuse: bool | None = None,
        compile_cache: bool | None = None,
        backend=None,
    ):
        _validate_engine(engine)
        self.model = model
        self.rng = _as_generator(seed)
        self.engine = engine
        # None defers to the REPRO_FUSE / REPRO_COMPILE_CACHE /
        # REPRO_BACKEND knobs at compile time; an
        # :class:`~repro.runtime.ExecutionPolicy` passes explicit
        # values so no environment read happens mid-run.
        self.fuse = fuse
        self.compile_cache = compile_cache
        self.backend = backend

    def run(
        self, circuit: Circuit, states: BatchedState | BitplaneState
    ) -> NoisyResult:
        """Evolve the batch through the circuit, mutating ``states``."""
        if states.n_wires != circuit.n_wires:
            raise SimulationError(
                f"batch has {states.n_wires} wires but circuit has "
                f"{circuit.n_wires}"
            )
        if isinstance(states, BitplaneState):
            return self._run_bitplane(circuit, states)
        return self._run_batched(circuit, states)

    def _run_batched(self, circuit: Circuit, states: BatchedState) -> NoisyResult:
        trials = states.trials
        fault_counts = np.zeros(trials, dtype=np.int64)
        for op in circuit:
            if op.is_reset:
                error = self.model.effective_reset_error
                states.reset(op.wires, op.reset_value)
            else:
                error = self.model.gate_error
                assert op.gate is not None
                states.apply_gate(op.gate, op.wires)
            if error > 0.0:
                mask = self.rng.random(trials) < error
                if mask.any():
                    states.randomize(op.wires, self.rng, mask)
                    fault_counts += mask
        return NoisyResult(states=states, fault_counts=fault_counts)

    def _run_bitplane(self, circuit: Circuit, states: BitplaneState) -> NoisyResult:
        """Execute the fused compiled schedule with per-slot fault draws.

        Each slot's ops touch pairwise disjoint wires, so running the
        whole slot and then injecting every op's faults is bit-identical
        to the sequential per-op schedule; the Bernoulli mask for all
        ``k`` ops of a slot comes from ONE gap-jumping pass over a
        ``k * trials`` virtual axis (position ``op * trials + trial``),
        which matches ``k`` independent per-op draws distributionally
        while costing a single RNG call.  With single-op slots
        (``REPRO_FUSE=0``) this reduces exactly to the original per-op
        stream.
        """
        compiled = compile_circuit(
            circuit, fuse=self.fuse, cache=self.compile_cache
        )
        if not compiled.fused:
            return self._run_bitplane_per_op(compiled, states)
        backend = get_backend(self.backend)
        prepared = backend.prepare(compiled)
        trials = states.trials
        padded = states.n_words * 64
        fault_counts = np.zeros(trials, dtype=np.int64)
        # Fault sites are data-independent, so the whole run's Bernoulli
        # masks come from ONE gap-jumping draw per error class over an
        # ``ops x padded`` virtual axis (``padded`` rounds the trial
        # range up to whole words; padding draws are discarded).  Each
        # slot then slices its contiguous run of virtual positions.
        class_draws: dict[bool, np.ndarray] = {}
        for is_reset, count in (
            (False, compiled.n_gate_ops),
            (True, compiled.n_reset_ops),
        ):
            error = (
                self.model.effective_reset_error
                if is_reset
                else self.model.gate_error
            )
            if error <= 0.0 or count == 0:
                continue
            virtual = _bernoulli_positions(self.rng, error, count * padded)
            trial_of = virtual % padded
            real = trial_of[trial_of < trials]
            if real.size:
                fault_counts += np.bincount(real, minlength=trials)
            class_draws[is_reset] = virtual
        for index, slot in enumerate(compiled.slots):
            prepared.apply_slot(states, index)
            virtual = class_draws.get(slot.is_reset)
            if virtual is None:
                continue
            base = slot.class_offset * padded
            low, high = np.searchsorted(
                virtual, (base, base + len(slot.ops) * padded)
            )
            if high > low:
                inject_slot_faults(
                    slot,
                    states,
                    self.rng,
                    virtual[low:high] - base,
                    n_words=states.n_words,
                    trials=trials,
                    backend=backend,
                )
        return NoisyResult(states=states, fault_counts=fault_counts)

    def _run_bitplane_per_op(self, compiled, states: BitplaneState) -> NoisyResult:
        """The pre-fusion per-op schedule (``REPRO_FUSE=0``).

        Kept as the reference executor: one Bernoulli draw per op over
        the exact trial axis, reproducing the original engine's RNG
        stream bit for bit — the perf gate's baseline and the frozen
        legacy digest both run through here.
        """
        trials = states.trials
        fault_counts = np.zeros(trials, dtype=np.int64)
        for op in compiled.schedule:
            if op.is_reset:
                error = self.model.effective_reset_error
                states.reset(op.wires, op.reset_value)
            else:
                error = self.model.gate_error
                assert op.program is not None
                states.apply_program(op.program, op.wires)
            if error > 0.0:
                positions = _bernoulli_positions(self.rng, error, trials)
                if positions.size:
                    mask = mask_from_positions(positions, states.n_words)
                    states.randomize(op.wires, self.rng, mask=mask)
                    fault_counts[positions] += 1
        return NoisyResult(states=states, fault_counts=fault_counts)

    def run_from_input(
        self, circuit: Circuit, input_bits: Sequence[int], trials: int
    ) -> NoisyResult:
        """Broadcast one input over ``trials`` and run noisily."""
        if resolve_engine(self.engine, trials) == "bitplane":
            states: BatchedState | BitplaneState = BitplaneState.broadcast(
                input_bits, trials
            )
        else:
            states = BatchedState.broadcast(input_bits, trials)
        return self.run(circuit, states)


def estimate_failure_probability(
    circuit: Circuit,
    input_bits: Sequence[int],
    is_failure: Callable[[BatchedState | BitplaneState], np.ndarray],
    model: NoiseModel,
    trials: int,
    seed: int | np.random.Generator | None = None,
    engine: str = "auto",
) -> tuple[float, int]:
    """Deprecated shim: one :class:`~repro.runtime.RunSpec`, executed.

    .. deprecated:: PR 3
        Build a :class:`~repro.runtime.RunSpec` and run it through
        :class:`~repro.runtime.Executor` — batches of specs sharing a
        circuit then evaluate as one stacked group.  The shim
        keeps the old signature and returns ``(failure_fraction,
        failures)`` with numbers bit-identical to the PR 2
        implementation (a single-point executor run consumes the RNG
        exactly like the classic runner); ``engine`` wins over
        ``REPRO_ENGINE``, the compiler knobs come from the environment
        as before.
    """
    import warnings

    warnings.warn(
        "estimate_failure_probability is deprecated; build a "
        "repro.runtime.RunSpec and run it through repro.runtime.Executor",
        DeprecationWarning,
        stacklevel=2,
    )
    from dataclasses import replace

    from repro.runtime import ExecutionPolicy, Executor, RunSpec

    policy = replace(ExecutionPolicy.from_env(), engine=engine, parallel=None)
    result = Executor(policy).run_one(
        RunSpec(
            circuit=circuit,
            input_bits=tuple(input_bits),
            observable=is_failure,
            noise=model,
            trials=trials,
            seed=seed,
        )
    )
    return result.failure_fraction, result.failures


@dataclass(frozen=True)
class RepetitionFailurePredicate:
    """Failure predicate: majority over ``output_wires`` != ``expected``.

    A frozen callable rather than a closure so specs carrying it can
    cross a process-pool boundary.
    """

    output_wires: tuple[int, ...]
    expected: int

    def __call__(self, states: BatchedState | BitplaneState) -> np.ndarray:
        return states.majority_of(self.output_wires) != self.expected


@dataclass(frozen=True)
class AnyWireDiffersPredicate:
    """Failure predicate: any selected wire differs from expectation."""

    output_wires: tuple[int, ...]
    expected_bits: tuple[int, ...]

    def __call__(self, states: BatchedState | BitplaneState) -> np.ndarray:
        expected = np.asarray(self.expected_bits, dtype=np.uint8)
        return (states.columns(self.output_wires) != expected).any(axis=1)


def repetition_failure_predicate(
    output_wires: Sequence[int], expected: int
) -> Callable[[BatchedState | BitplaneState], np.ndarray]:
    """Failure predicate: majority over ``output_wires`` != ``expected``."""
    return RepetitionFailurePredicate(tuple(output_wires), expected)


def any_wire_differs_predicate(
    output_wires: Sequence[int], expected_bits: Sequence[int]
) -> Callable[[BatchedState | BitplaneState], np.ndarray]:
    """Failure predicate: any selected wire differs from expectation."""
    return AnyWireDiffersPredicate(tuple(output_wires), tuple(expected_bits))
