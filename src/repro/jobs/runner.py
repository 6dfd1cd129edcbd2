"""The sweep job runner: submit, checkpoint, resume, collect.

A *job* is a durable directory representing one sweep — a batch of
:class:`~repro.runtime.RunSpec` points — split into deterministic
shards (:mod:`repro.jobs.planner`) and executed with per-shard
checkpointing against a content-keyed result store
(:mod:`repro.jobs.store`).  Layout::

    <job_dir>/
        manifest.json        # versioned: specs (JSON wire form),
                             # shard plan, result-affecting policy
        shards/<id>.json     # one checkpoint per completed shard
        store/               # the result store (unless shared)

The contract that makes this a *service* rather than a script:

* **Submit is idempotent.**  Re-submitting the same sweep into an
  existing job directory verifies the job ID (a hash of the shard
  plan) and resumes; submitting a *different* sweep into it fails
  loudly instead of silently mixing results.
* **Resume is crash-safe.**  A killed run leaves complete shard
  checkpoints or none (atomic writes); the next :meth:`SweepJob.run`
  re-executes only shards without checkpoints, and the store serves
  any points the dead run finished inside an unfinished shard.
* **Merge is bit-identical.**  Every point keeps its own integer seed
  and the executor's stacking guarantee, so :meth:`SweepJob.collect`
  returns exactly what one uninterrupted
  :meth:`~repro.runtime.Executor.run` over the submitted specs would
  — pinned by ``tests/jobs/test_resume.py``.

Worker pools fan out over *shards*; each worker warms the compile
cache with the job's distinct circuits once (pool initializer), so
shards sharing a circuit group reuse one compiled program instead of
recompiling per shard or per point.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from repro.core.compiled import warm_compile_cache
from repro.errors import AnalysisError, JobError
from repro.harness.stats import RateEstimate
from repro.jobs.caching import CachingExecutor
from repro.jobs.planner import DEFAULT_SHARD_SIZE, Shard, plan_shards
from repro.jobs.store import ResultStore, point_key, write_json_atomic
from repro.obs import (
    counter,
    enable_tracing,
    flush_trace_if_forked,
    gauge,
    histogram,
    stopwatch,
    trace,
)
from repro.runtime.executor import Executor, resolve_workers
from repro.runtime.serialization import canonical_json, spec_from_json, spec_to_json
from repro.runtime.spec import ExecutionPolicy, PointResult, RunSpec

__all__ = ["JOB_FORMAT_VERSION", "JobStatus", "RunReport", "SweepJob"]

#: Version of the manifest/checkpoint on-disk shape.
JOB_FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"
SHARD_DIR = "shards"
STORE_DIR = "store"

# Job-layer metrics (repro.obs): shard throughput plus the live
# done/total gauges a heartbeat reads mid-run.
_SHARDS_RUN = counter("jobs.shards.run")
_SHARD_SECONDS = histogram("jobs.shard_seconds")
_SHARDS_TOTAL = gauge("jobs.shards.total")
_SHARDS_DONE = gauge("jobs.shards.done")


@dataclass(frozen=True)
class JobStatus:
    """A job's progress snapshot."""

    job_id: str
    shards_total: int
    shards_done: int
    points_total: int
    points_done: int

    @property
    def complete(self) -> bool:
        return self.shards_done == self.shards_total

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"job {self.job_id}: {self.shards_done}/{self.shards_total} "
            f"shards, {self.points_done}/{self.points_total} points"
        )


@dataclass(frozen=True)
class RunReport:
    """What one :meth:`SweepJob.run` call actually did.

    ``interrupted`` is True when a ``max_shards`` budget stopped the
    run before every pending shard executed — the job needs another
    :meth:`~SweepJob.run` (or a resubmit) to finish.
    """

    shards_run: int
    shards_skipped: int
    simulated_points: int
    cached_points: int
    interrupted: bool


def _run_shard_specs(
    specs: list[RunSpec], policy: ExecutionPolicy
) -> tuple[list[PointResult], float]:
    """Pool task: evaluate one shard's pending specs in-process.

    The policy arrives with ``parallel`` stripped (a worker must not
    open a nested pool); the shard's points still stack into one plane
    array inside the executor.  Returns the results together with the
    shard's wall-clock seconds, measured in the worker (the parent's
    clock would include pool queueing).
    """
    if policy.trace:
        enable_tracing(policy.trace)
    with trace("jobs.shard", points=len(specs)):
        watch = stopwatch()
        results = Executor(policy).run(specs)
        elapsed = watch.elapsed_s
    # Pool children exit via os._exit (no atexit), so the worker's
    # `<path>.<pid>` document is rewritten after each completed shard.
    flush_trace_if_forked()
    return results, elapsed


class SweepJob:
    """One durable sharded sweep rooted at a job directory."""

    def __init__(
        self,
        job_dir: str | Path,
        specs: list[RunSpec],
        shards: list[Shard],
        policy: ExecutionPolicy,
        store: ResultStore,
        job_id: str,
    ):
        self.job_dir = Path(job_dir)
        self.specs = specs
        self.shards = shards
        self.policy = policy
        self.store = store
        self.job_id = job_id

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------

    @staticmethod
    def _job_id(specs: Sequence[RunSpec], policy: ExecutionPolicy) -> str:
        """The sweep's identity: its ordered point keys, nothing else.

        Shard size is a scheduling choice, not part of what the sweep
        *is* — resubmitting the same points resumes under the
        manifest's stored plan even if the caller's ``shard_size``
        drifted.
        """
        payload = [point_key(spec, policy) for spec in specs]
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]

    @classmethod
    def submit(
        cls,
        job_dir: str | Path,
        specs: Sequence[RunSpec],
        policy: ExecutionPolicy | None = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
        store: ResultStore | str | Path | None = None,
    ) -> "SweepJob":
        """Create (or resume) the job for ``specs`` under ``job_dir``.

        Writes the manifest on first submit; on resubmit verifies the
        existing manifest describes the *same* sweep (matching job ID)
        and raises :class:`~repro.errors.JobError` otherwise.  ``store``
        defaults to a store inside the job directory; passing a shared
        store lets many jobs (and ad-hoc
        :class:`~repro.jobs.caching.CachingExecutor` queries) reuse
        each other's points.
        """
        with trace("jobs.submit") as span:
            job = cls._submit_impl(job_dir, specs, policy, shard_size, store)
            span.set(
                job=job.job_id,
                points=len(job.specs),
                shards=len(job.shards),
            )
        return job

    @classmethod
    def _submit_impl(cls, job_dir, specs, policy, shard_size, store):
        job_dir = Path(job_dir)
        specs = list(specs)
        if not specs:
            raise AnalysisError("a sweep job needs at least one spec")
        if policy is None:
            policy = ExecutionPolicy.from_env()
        shards = plan_shards(specs, policy, shard_size)
        job_id = cls._job_id(specs, policy)
        manifest_path = job_dir / MANIFEST_NAME
        if manifest_path.exists():
            existing = cls.load(job_dir, store=store)
            if existing.job_id != job_id:
                raise JobError(
                    f"{job_dir} already holds job {existing.job_id}, which "
                    f"is a different sweep than the one submitted "
                    f"({job_id}); use a fresh job directory"
                )
            # Same sweep: resume under the manifest's stored shard
            # plan (shard_size is scheduling, not identity).
            return existing
        manifest = {
            "format": JOB_FORMAT_VERSION,
            "job_id": job_id,
            "policy": {
                "engine": policy.engine,
                "backend": policy.backend,
                "fuse": policy.fuse,
                "compile_cache": policy.compile_cache,
            },
            "specs": [spec_to_json(spec) for spec in specs],
            "shards": [
                {"id": shard.shard_id, "indices": list(shard.indices)}
                for shard in shards
            ],
        }
        write_json_atomic(manifest_path, manifest)
        return cls(
            job_dir, specs, shards, policy, cls._store(job_dir, store), job_id
        )

    @classmethod
    def load(
        cls,
        job_dir: str | Path,
        store: ResultStore | str | Path | None = None,
    ) -> "SweepJob":
        """Open an existing job from its manifest.

        The specs are rebuilt from their JSON wire forms — this is the
        resume path, and it is why the wire form must be
        value-faithful: the reloaded job verifies its shard plan
        hashes to the manifest's job ID, so a manifest whose specs no
        longer reproduce their own plan fails here instead of merging
        wrong numbers later.
        """
        job_dir = Path(job_dir)
        manifest_path = job_dir / MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text())
        except OSError as exc:
            raise JobError(f"no job manifest at {manifest_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise JobError(
                f"job manifest {manifest_path} is corrupt: {exc}"
            ) from exc
        if manifest.get("format") != JOB_FORMAT_VERSION:
            raise JobError(
                f"job manifest {manifest_path} has format "
                f"{manifest.get('format')!r}; this code reads "
                f"{JOB_FORMAT_VERSION}"
            )
        stored_policy = manifest["policy"]
        policy = ExecutionPolicy.from_env(
            engine=stored_policy["engine"],
            backend=stored_policy["backend"],
            fuse=stored_policy["fuse"],
            compile_cache=stored_policy["compile_cache"],
        )
        # Only the result-affecting knobs are pinned by the manifest;
        # from_env may still override e.g. REPRO_PARALLEL, but engine
        # and fuse must match what the job's store keys were built
        # with, so the manifest's values win.
        policy = replace(
            policy,
            engine=stored_policy["engine"],
            fuse=stored_policy["fuse"],
        )
        specs = [spec_from_json(data) for data in manifest["specs"]]
        shards = [
            Shard(entry["id"], tuple(entry["indices"]))
            for entry in manifest["shards"]
        ]
        job_id = manifest["job_id"]
        # The reloaded specs must hash back to the manifest's job ID —
        # this is where a wire form that is not value-faithful (or a
        # hand-edited manifest) fails, instead of merging wrong
        # numbers later.
        if cls._job_id(specs, policy) != job_id:
            raise JobError(
                f"job manifest {manifest_path} specs do not hash to its "
                f"job id; the manifest was edited or corrupted"
            )
        covered = sorted(i for shard in shards for i in shard.indices)
        if covered != list(range(len(specs))):
            raise JobError(
                f"job manifest {manifest_path} shard plan does not cover "
                f"each spec exactly once; the manifest was edited or "
                f"corrupted"
            )
        return cls(
            job_dir, specs, shards, policy, cls._store(job_dir, store), job_id
        )

    @staticmethod
    def _store(
        job_dir: Path, store: ResultStore | str | Path | None
    ) -> ResultStore:
        if isinstance(store, ResultStore):
            return store
        return ResultStore(store if store is not None else job_dir / STORE_DIR)

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def _shard_path(self, shard: Shard) -> Path:
        return self.job_dir / SHARD_DIR / f"{shard.shard_id}.json"

    def _load_checkpoint(self, shard: Shard) -> list[PointResult] | None:
        """The shard's checkpointed results, or ``None`` if not done.

        An unreadable checkpoint counts as *not done* (a crash can
        leave none, never a torn one — but a foreign file could sit
        there) while a readable checkpoint that contradicts the
        manifest raises: that is corruption, not interruption.
        """
        path = self._shard_path(shard)
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if (
            data.get("format") != JOB_FORMAT_VERSION
            or data.get("shard_id") != shard.shard_id
            or data.get("job_id") != self.job_id
        ):
            raise JobError(
                f"shard checkpoint {path} does not belong to this job; "
                f"delete it to re-run the shard"
            )
        points = data.get("points", [])
        if [p.get("index") for p in points] != list(shard.indices):
            raise JobError(
                f"shard checkpoint {path} covers different points than the "
                f"manifest plans; delete it to re-run the shard"
            )
        results = []
        for entry in points:
            result = entry["result"]
            spec = self.specs[entry["index"]]
            if not 0 <= result["failures"] <= result["trials"] or (
                result["trials"] != spec.trials
            ):
                raise JobError(
                    f"shard checkpoint {path} holds counts inconsistent "
                    f"with the manifest spec; delete it to re-run"
                )
            results.append(
                PointResult(
                    failures=result["failures"],
                    trials=result["trials"],
                    faulted_trials=result["faulted_trials"],
                    engine=result["engine"],
                )
            )
        return results

    def _write_checkpoint(
        self,
        shard: Shard,
        results: Sequence[PointResult],
        stats: dict | None = None,
    ) -> None:
        payload = {
            "format": JOB_FORMAT_VERSION,
            "job_id": self.job_id,
            "shard_id": shard.shard_id,
            "points": [
                {
                    "index": index,
                    "key": point_key(self.specs[index], self.policy),
                    "result": {
                        "failures": result.failures,
                        "trials": result.trials,
                        "faulted_trials": result.faulted_trials,
                        "engine": result.engine,
                    },
                }
                for index, result in zip(shard.indices, results)
            ],
        }
        if stats is not None:
            # Observational only (elapsed seconds, simulated/cached
            # split for `status --verbose`): never key material, and
            # absent from checkpoints written by older runs — readers
            # must treat it as optional.
            payload["stats"] = stats
        write_json_atomic(self._shard_path(shard), payload)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        workers: int | bool | None = None,
        max_shards: int | None = None,
        on_progress=None,
    ) -> RunReport:
        """Execute every unfinished shard (optionally at most ``max_shards``).

        Completed shards are skipped by checkpoint; within a resumed
        shard, points the store already holds are served, not re-run.
        ``workers`` fans pending shards out to a process pool
        (defaulting to the policy's ``parallel`` setting); every worker
        pre-warms its compile cache with the job's distinct circuits,
        so no worker compiles the same program twice.  ``on_progress``,
        when given, is called after each pending shard finishes with
        ``(done, pending_total, shard_id, elapsed_s)`` — the CLI's
        verbose heartbeat.
        """
        with trace("jobs.run", job=self.job_id) as span:
            return self._run_impl(workers, max_shards, on_progress, span)

    def _run_impl(self, workers, max_shards, on_progress, span) -> RunReport:
        if max_shards is not None and max_shards < 0:
            raise AnalysisError(f"max_shards must be >= 0, got {max_shards}")
        pending: list[Shard] = []
        skipped = 0
        for shard in self.shards:
            if self._load_checkpoint(shard) is None:
                pending.append(shard)
            else:
                skipped += 1
        interrupted = False
        if max_shards is not None and len(pending) > max_shards:
            pending = pending[:max_shards]
            interrupted = True
        _SHARDS_TOTAL.set(len(self.shards))
        _SHARDS_DONE.set(skipped)
        span.set(
            shards=len(self.shards), pending=len(pending), skipped=skipped
        )
        simulated = 0
        cached = 0
        completed = 0
        shard_stats: dict[str, dict] = {}
        # A worker must not open a nested pool: shards are the unit of
        # fan-out, and each shard is already one stacked batch inside.
        shard_policy = replace(self.policy, parallel=None)
        # Store lookups happen in the parent (single reader/writer);
        # workers only ever simulate what the store does not hold.
        caching = CachingExecutor(self.store, policy=shard_policy)
        plan: list[tuple[Shard, list[PointResult | None], list[int]]] = []
        for shard in pending:
            shard_specs = [self.specs[i] for i in shard.indices]
            results: list[PointResult | None] = [None] * len(shard_specs)
            misses: list[int] = []
            for position, spec in enumerate(shard_specs):
                stored = self.store.get(spec, self.policy)
                if stored is None:
                    misses.append(position)
                else:
                    results[position] = stored
                    cached += 1
            plan.append((shard, results, misses))
        to_simulate = [
            (shard, results, misses)
            for shard, results, misses in plan
            if misses
        ]
        pool_width = resolve_workers(
            self.policy.parallel if workers is None else workers,
            len(to_simulate),
        )
        if pool_width:
            circuits = []
            seen = set()
            for shard, _, _ in to_simulate:
                circuit = self.specs[shard.indices[0]].circuit
                key = circuit.content_key()
                if key not in seen:
                    seen.add(key)
                    circuits.append(circuit)
            task = partial(_run_shard_specs, policy=shard_policy)
            with ProcessPoolExecutor(
                max_workers=pool_width,
                initializer=partial(
                    warm_compile_cache, circuits, shard_policy.fuse
                ),
            ) as pool:
                futures = [
                    pool.submit(
                        task,
                        [self.specs[shard.indices[i]] for i in misses],
                    )
                    for shard, _, misses in to_simulate
                ]
                for (shard, results, misses), future in zip(
                    to_simulate, futures
                ):
                    try:
                        computed, elapsed = future.result()
                    except Exception as exc:
                        # Per-future cancel, not shutdown(
                        # cancel_futures=True) — that path can deadlock
                        # the pool when a task fails to pickle
                        # mid-flight (see Executor.run).
                        for pending in futures:
                            pending.cancel()
                        raise JobError(
                            f"shard {shard.shard_id} failed: {exc}"
                        ) from exc
                    simulated += len(misses)
                    for position, result in zip(misses, computed):
                        results[position] = result
                        self.store.put(
                            self.specs[shard.indices[position]],
                            self.policy,
                            result,
                        )
                    completed += 1
                    shard_stats[shard.shard_id] = {
                        "elapsed_s": elapsed,
                        "simulated": len(misses),
                        "cached": len(shard.indices) - len(misses),
                    }
                    _SHARDS_RUN.inc()
                    _SHARDS_DONE.inc()
                    _SHARD_SECONDS.observe(elapsed)
                    if on_progress is not None:
                        on_progress(
                            completed, len(pending), shard.shard_id, elapsed
                        )
        else:
            for shard, results, misses in to_simulate:
                with trace(
                    "jobs.shard",
                    shard=shard.shard_id,
                    points=len(shard.indices),
                    misses=len(misses),
                ):
                    watch = stopwatch()
                    computed = caching.run(
                        [self.specs[shard.indices[i]] for i in misses]
                    )
                    elapsed = watch.elapsed_s
                simulated += len(misses)
                for position, result in zip(misses, computed):
                    results[position] = result
                completed += 1
                shard_stats[shard.shard_id] = {
                    "elapsed_s": elapsed,
                    "simulated": len(misses),
                    "cached": len(shard.indices) - len(misses),
                }
                _SHARDS_RUN.inc()
                _SHARDS_DONE.inc()
                _SHARD_SECONDS.observe(elapsed)
                if on_progress is not None:
                    on_progress(
                        completed, len(pending), shard.shard_id, elapsed
                    )
        # Checkpoints are written only once every point of the shard is
        # in hand — a crash between store puts and here re-runs nothing
        # but the shard's bookkeeping.
        for shard, results, misses in plan:
            stats = shard_stats.get(shard.shard_id)
            if stats is None:
                # The whole shard was served from the store: no compute
                # happened, but the shard still completes this run.
                stats = {
                    "elapsed_s": 0.0,
                    "simulated": 0,
                    "cached": len(shard.indices),
                }
                completed += 1
                _SHARDS_DONE.inc()
                if on_progress is not None:
                    on_progress(completed, len(pending), shard.shard_id, 0.0)
            self._write_checkpoint(shard, results, stats)  # type: ignore[arg-type]
        span.set(simulated=simulated, cached=cached)
        return RunReport(
            shards_run=len(plan),
            shards_skipped=skipped,
            simulated_points=simulated,
            cached_points=cached,
            interrupted=interrupted,
        )

    # ------------------------------------------------------------------
    # Inspection and merge
    # ------------------------------------------------------------------

    def status(self) -> JobStatus:
        """Shard/point completion counts from the checkpoints on disk."""
        done = 0
        points_done = 0
        for shard in self.shards:
            if self._load_checkpoint(shard) is not None:
                done += 1
                points_done += len(shard)
        return JobStatus(
            job_id=self.job_id,
            shards_total=len(self.shards),
            shards_done=done,
            points_total=len(self.specs),
            points_done=points_done,
        )

    def shard_stats(self) -> list[dict]:
        """Per-shard progress rows for verbose status output.

        One dict per planned shard — ``shard_id``, ``points``,
        ``done``, and (for checkpoints that recorded a stats block)
        ``elapsed_s``/``simulated``/``cached``.  Checkpoints written
        before stats existed report ``None`` for those three; the
        fields are observational and never affect results or keys.
        """
        rows: list[dict] = []
        for shard in self.shards:
            done = self._load_checkpoint(shard) is not None
            stats: dict = {}
            if done:
                try:
                    stats = (
                        json.loads(self._shard_path(shard).read_text()).get(
                            "stats"
                        )
                        or {}
                    )
                except (OSError, json.JSONDecodeError):
                    stats = {}
            rows.append(
                {
                    "shard_id": shard.shard_id,
                    "points": len(shard),
                    "done": done,
                    "elapsed_s": stats.get("elapsed_s"),
                    "simulated": stats.get("simulated"),
                    "cached": stats.get("cached"),
                }
            )
        return rows

    def collect(self) -> list[PointResult]:
        """Merge every shard checkpoint into spec-order results.

        Raises :class:`~repro.errors.AnalysisError` when nothing has
        completed (an empty store has nothing to merge — the classic
        way to get here is collecting before running) or when shards
        are still missing; a partial merge would silently misrepresent
        the sweep.
        """
        with trace("jobs.collect", job=self.job_id) as span:
            results = self._collect_impl()
            span.set(points=len(results), shards=len(self.shards))
        return results

    def _collect_impl(self) -> list[PointResult]:
        results: list[PointResult | None] = [None] * len(self.specs)
        missing = []
        done = 0
        for shard in self.shards:
            checkpoint = self._load_checkpoint(shard)
            if checkpoint is None:
                missing.append(shard.shard_id)
                continue
            done += 1
            for index, result in zip(shard.indices, checkpoint):
                results[index] = result
        if done == 0:
            raise AnalysisError(
                f"job {self.job_id} has no completed shards to collect — "
                f"the result store is empty for this sweep; run the job "
                f"first"
            )
        if missing:
            raise AnalysisError(
                f"job {self.job_id} is incomplete: {len(missing)} of "
                f"{len(self.shards)} shards still pending "
                f"({', '.join(missing[:4])}{'...' if len(missing) > 4 else ''}); "
                f"resume with run() before collecting"
            )
        return results  # type: ignore[return-value]

    def collect_rows(self) -> list[tuple[RunSpec, PointResult, RateEstimate]]:
        """The merged sweep with Wilson statistics, in spec order."""
        return [
            (
                spec,
                result,
                RateEstimate(failures=result.failures, trials=result.trials),
            )
            for spec, result in zip(self.specs, self.collect())
        ]
