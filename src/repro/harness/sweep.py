"""Parameter sweeps with tabular results, optionally over a process pool.

``sweep`` evaluates one function over a grid of values.  With
``parallel=`` it fans the points out to a :mod:`concurrent.futures`
process pool; the function (and its captured arguments) must then be
picklable — module-level functions and :func:`functools.partial` of
them qualify, lambdas and closures do not.  Results are returned in
grid order either way, so a parallel sweep is bit-identical to the
serial one whenever each point seeds its own RNG stream.

A failing point — serial or pooled — surfaces as an
:class:`~repro.errors.AnalysisError` naming the offending parameter
value, with the original exception chained as ``__cause__``, so a
failure among dozens of pool workers is attributable to its grid
point.

``spawn_seeds`` derives per-point child seeds from one base seed via
:class:`numpy.random.SeedSequence`, which is how a parallel sweep keeps
determinism: every point owns an independent, reproducible stream, and
the engine-level frozen digests (per-point, per-seed) are untouched by
how the points are scheduled.  It lives in :mod:`repro.noise.seeds`
(the RNG-owning layer) and is re-exported here for its historical
callers.

Monte-Carlo point functions that share a circuit are better expressed
as :class:`~repro.runtime.RunSpec` batches through
:class:`~repro.runtime.Executor`, which stacks the points into shared
plane windows instead of re-simulating per point; ``sweep`` remains the
generic grid evaluator for everything else.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from math import isfinite

from repro.core.compiled import warm_compile_cache
from repro.errors import AnalysisError
from repro.noise.seeds import spawn_seeds
from repro.runtime.executor import resolve_workers

__all__ = [
    "SweepResult",
    "crossing_index",
    "geometric_grid",
    "resolve_workers",
    "spawn_seeds",
    "sweep",
]


@dataclass(frozen=True)
class SweepResult:
    """Paired sweep inputs and outputs."""

    parameter: str
    xs: tuple
    ys: tuple

    def rows(self) -> list[tuple]:
        """``(x, y)`` rows in sweep order."""
        return list(zip(self.xs, self.ys))

    def __len__(self) -> int:
        return len(self.xs)


def _point_error(parameter: str, x, exc: Exception) -> AnalysisError:
    return AnalysisError(
        f"sweep point {parameter}={x!r} failed: {type(exc).__name__}: {exc}"
    )


def sweep(
    function: Callable,
    values: Iterable,
    parameter: str = "x",
    parallel: int | bool | None = None,
    warm: Sequence | None = None,
) -> SweepResult:
    """Evaluate ``function`` over ``values`` and collect the pairs.

    ``parallel=None`` (or ``0``/``1``) evaluates in-process;
    ``parallel=N`` uses an ``N``-worker process pool, ``parallel=True``
    one worker per CPU.  Parallel evaluation requires ``function`` to
    be picklable and returns points in grid order, so results are
    identical to a serial sweep.

    ``warm`` is a sequence of :class:`~repro.core.circuit.Circuit`\\ s
    to pre-compile before any point runs — in-process for a serial
    sweep, as the pool initializer for a parallel one, so every worker
    compiles each circuit at most once and every point's
    :func:`~repro.core.compiled.compile_circuit` call is a cache hit.
    Without it, a pooled Monte-Carlo sweep recompiles the circuit in
    whichever worker happens to run each point's *first* call.

    A point that raises is re-raised as an :class:`AnalysisError`
    carrying the offending parameter value (original exception
    chained), in both serial and pooled modes; a pooled failure
    cancels every not-yet-started point so the error surfaces promptly
    instead of paying for the rest of the grid.
    """
    xs = tuple(values)
    workers = resolve_workers(parallel, len(xs))
    warm = tuple(warm) if warm is not None else ()
    if workers == 0:
        if warm:
            warm_compile_cache(warm)
        ys = []
        for x in xs:
            try:
                ys.append(function(x))
            except Exception as exc:
                raise _point_error(parameter, x, exc) from exc
        ys = tuple(ys)
    else:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=partial(warm_compile_cache, warm) if warm else None,
        ) as pool:
            futures = [pool.submit(function, x) for x in xs]
            ys = []
            for x, future in zip(xs, futures):
                try:
                    ys.append(future.result())
                except Exception as exc:
                    # Without cancellation the ``with`` block's exit
                    # would still WAIT for every queued point — one
                    # failure among dozens of expensive points would
                    # pay for the whole grid.  Cancel everything not
                    # yet running so the error surfaces promptly (the
                    # points already in flight still finish; their
                    # results are discarded).  Per-future cancel, not
                    # shutdown(cancel_futures=True) — that path can
                    # deadlock the pool when a task fails to pickle
                    # mid-flight (see Executor.run).
                    for queued in futures:
                        queued.cancel()
                    raise _point_error(parameter, x, exc) from exc
            ys = tuple(ys)
    return SweepResult(parameter=parameter, xs=xs, ys=ys)


def geometric_grid(start: float, stop: float, points: int) -> list[float]:
    """``points`` geometrically spaced values from start to stop.

    Geometric spacing requires strictly positive endpoints, and a grid
    needs at least one point; violations raise :class:`AnalysisError`
    instead of silently collapsing to ``[start]``.
    """
    if points < 1:
        raise AnalysisError(f"grid needs >= 1 point, got {points}")
    if start <= 0 or stop <= 0:
        raise AnalysisError(
            f"geometric grid endpoints must be positive, got {start}, {stop}"
        )
    if points == 1:
        return [start]
    ratio = (stop / start) ** (1.0 / (points - 1))
    return [start * ratio**i for i in range(points)]


def crossing_index(xs: Sequence[float], ys: Sequence[float]) -> int | None:
    """First index where ``ys`` crosses above ``xs`` (y >= x).

    Used to locate a pseudo-threshold on a sweep of logical error
    versus physical error: below threshold ``y < x``, above it
    ``y > x``.  Non-finite values raise :class:`AnalysisError`: a NaN
    would silently compare as "below identity" (``NaN >= x`` is False)
    and be walked past, letting a corrupted sweep fabricate a
    threshold.
    """
    for index, (x, y) in enumerate(zip(xs, ys)):
        if not (isfinite(x) and isfinite(y)):
            raise AnalysisError(
                f"crossing_index needs finite values, got "
                f"(x={x!r}, y={y!r}) at index {index}"
            )
        if y >= x:
            return index
    return None
