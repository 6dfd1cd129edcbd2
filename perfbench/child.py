"""One workload process of the benchmark: set up, then run one op.

Run by ``run.py`` as ``python3 perfbench/child.py
<config.json>``, one fresh interpreter per op, so imports and the
in-process compile/prepare caches start cold as they do for a
``tools/jobs.py`` user.  ``run.py`` strips every ``REPRO_*`` variable
from the environment (and sets ``REPRO_TRACE`` for a traced op only)
and this process passes an explicit policy, so nothing but the config
decides what runs.

Modes (``config["mode"]``):

* ``setup`` — imports, spec generation, the first ``compile_circuit``
  and backend ``prepare`` of the workload circuit; then exit.
  ``run.py`` times spawn-to-ready from the ``ready_ns`` stamp.
* ``reference`` — setup, then the untimed reference answer: a plain
  in-process ``Executor.run`` over the specs, or the sequential
  ``evaluate=`` form of the threshold search.
* ``op`` — setup, then one timed op of the workload, its output checks
  against the reference, and (when traced) the per-layer metrics
  derived from the merged trace.

The result is written as JSON to ``config["result_path"]``; a failure
during setup is reported with ``"stage": "setup"`` so ``run.py`` can
tell "cannot run at all" from "the program under test failed".
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import sys
import time
import traceback
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import operations_per_op, workload_config  # noqa: E402

#: The policy every op runs under: the bit-plane engine on the numpy
#: backend, serial unless the workload pools explicitly.
POLICY_ARGS = {"engine": "bitplane", "backend": "numpy"}


class SetupError(Exception):
    """The workload could not be set up (missing sources, bad import)."""


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _point_wire(result) -> list:
    return [result.failures, result.trials, result.faulted_trials, result.engine]


def _threshold_wire(found) -> dict:
    return {
        "estimate": found.estimate,
        "bracket": list(found.bracket),
        "evaluations": found.evaluations,
        "trials_spent": found.trials_spent,
        "resolution_limited": found.resolution_limited,
    }


def _evaluate_cycle_point(gate_error, n_trials, seed, *, cycles, policy):
    """The threshold reference's opaque evaluator (sequential form)."""
    from repro.harness.threshold_finder import measure_cycle_errors

    return measure_cycle_errors(
        ((gate_error, seed),), n_trials, cycles=cycles, policy=policy
    )[0]


class Workload:
    """The set-up state of one workload in this process."""

    def __init__(self, name: str, seed: int, tiny: bool, src: Path):
        self.config = workload_config(name, tiny)
        watch = time.perf_counter()
        try:
            import repro.obs as obs

            with obs.trace("bench.import"):
                import repro
                from repro import jobs, runtime
                from repro.analysis.threshold import threshold
                from repro.backends import get_backend
                from repro.core.compiled import compile_circuit
                from repro.harness import threshold_finder
                from repro.harness.sweep import geometric_grid, spawn_seeds
        except ImportError as exc:
            raise SetupError(f"cannot import repro from {src}: {exc}") from exc
        self.import_s = time.perf_counter() - watch
        origin = Path(repro.__file__).resolve().parent
        if origin != (src / "repro").resolve():
            raise SetupError(f"repro imported from {origin}, not from {src}")
        self.obs = obs
        self.runtime = runtime
        self.jobs = jobs
        self.finder = threshold_finder
        self.analytic_threshold = threshold
        self.policy = runtime.ExecutionPolicy(**POLICY_ARGS)
        config = self.config
        with obs.trace("bench.specs"):
            if config["kind"] == "threshold":
                # The search makes its own stage specs with
                # cycle_stage_spec; any one of them carries the circuit
                # every stage shares.
                self.specs = [
                    threshold_finder.cycle_stage_spec(
                        config["g"][0], config["trials"], config["search_seed"],
                        cycles=config["cycles"],
                    )
                ]
            else:
                grid = geometric_grid(*config["g"], config["points"])
                seeds = spawn_seeds(seed, config["points"])
                self.specs = threshold_finder.cycle_error_specs(
                    list(zip(grid, seeds)), config["trials"],
                    cycles=config["cycles"],
                )
        with obs.trace("bench.compile"):
            compiled = compile_circuit(
                self.specs[0].circuit,
                fuse=self.policy.fuse,
                cache=self.policy.compile_cache,
            )
        with obs.trace("bench.prepare"):
            get_backend(self.policy.backend).prepare(compiled)

    # ------------------------------------------------------------------
    # Reference answers (untimed)
    # ------------------------------------------------------------------

    def reference(self):
        config = self.config
        if config["kind"] == "threshold":
            evaluate = partial(
                _evaluate_cycle_point,
                cycles=config["cycles"],
                policy=self.policy,
            )
            found = self.finder.find_pseudo_threshold_adaptive(
                evaluate=evaluate,
                lower=config["g"][0],
                upper=config["g"][1],
                trials=config["trials"],
                iterations=config["iterations"],
                cycles=config["cycles"],
                seed=config["search_seed"],
            )
            return _threshold_wire(found)
        results = self.runtime.Executor(self.policy).run(self.specs)
        return [_point_wire(result) for result in results]

    # ------------------------------------------------------------------
    # One timed op
    # ------------------------------------------------------------------

    def op(self, work_dir: Path) -> dict:
        """Run one op; returns its timings, outputs and side facts.

        ``op_s`` is a list: the op's answer time, or on store-roundtrip
        the time of each of its warm re-queries.
        """
        out: dict = {}
        wall = time.perf_counter()
        try:
            with self.obs.trace("bench.op"):
                self._op(work_dir, out)
        finally:
            out["wall_s"] = time.perf_counter() - wall
        return out

    def _op(self, work_dir: Path, out: dict) -> None:
        trace = self.obs.trace
        config = self.config
        if config["kind"] == "threshold":
            start = time.perf_counter()
            with trace("bench.search"):
                found = self.finder.find_pseudo_threshold_adaptive(
                    spec_builder=self.finder.cycle_stage_spec,
                    lower=config["g"][0],
                    upper=config["g"][1],
                    trials=config["trials"],
                    iterations=config["iterations"],
                    cycles=config["cycles"],
                    seed=config["search_seed"],
                    policy=self.policy,
                )
            out["sim_s"] = time.perf_counter() - start
            out["op_s"] = [out["sim_s"]]
            out["trials"] = found.trials_spent
            out["output"] = _threshold_wire(found)
            return
        job_dir = work_dir / "job"
        submit_args = {"policy": self.policy}
        if config["shard_size"] is not None:
            submit_args["shard_size"] = config["shard_size"]
        start = time.perf_counter()
        with trace("bench.submit"):
            job = self.jobs.SweepJob.submit(job_dir, self.specs, **submit_args)
        with trace("bench.run"):
            job.run(workers=config["workers"])
        with trace("bench.collect"):
            results = job.collect()
        out["sim_s"] = time.perf_counter() - start
        out["op_s"] = [out["sim_s"]]
        out["trials"] = sum(spec.trials for spec in self.specs)
        out["output"] = [_point_wire(result) for result in results]
        out["job_dir"] = job_dir
        if config["kind"] != "store":
            return
        out["op_s"] = []
        out["requeries"] = []
        for _ in range(config["requeries"]):
            start = time.perf_counter()
            with trace("bench.requery"):
                store = self.jobs.ResultStore(job_dir / "store")
                caching = self.jobs.CachingExecutor(store, policy=self.policy)
                again = caching.run(self.specs)
            out["op_s"].append(time.perf_counter() - start)
            out["requeries"].append(
                {
                    "results": [_point_wire(result) for result in again],
                    "served": caching.cached_points,
                    "simulated": caching.simulated_points,
                    "stale": store.stale,
                }
            )

    # ------------------------------------------------------------------
    # Output checks
    # ------------------------------------------------------------------

    def check(self, out: dict, reference) -> list[str]:
        """One message per failed operation of ``out`` (empty = all good)."""
        config = self.config
        if reference is None:
            return ["no reference answer"] * operations_per_op(config)
        if config["kind"] == "threshold":
            found = out["output"]
            problems = []
            if found != reference:
                problems.append(
                    f"search returned {found}, the sequential reference {reference}"
                )
            floor = self.analytic_threshold(11)
            if found["estimate"] < floor:
                problems.append(
                    f"estimate {found['estimate']} below the analytic bound {floor}"
                )
            return ["; ".join(problems)] if problems else []
        whole_op = []
        for query in out.get("requeries", []):
            if query["served"] != len(self.specs):
                whole_op.append(f"served {query['served']} of {len(self.specs)}")
            if query["simulated"] != 0:
                whole_op.append(f"re-query simulated {query['simulated']} points")
            if query["stale"] != 0:
                whole_op.append(f"{query['stale']} stale store entries")
        if whole_op:
            return ["; ".join(whole_op)] * len(self.specs)
        failed = []
        for index, (spec, got, want) in enumerate(
            zip(self.specs, out["output"], reference)
        ):
            requeried = [query["results"][index] for query in out.get("requeries", [])]
            if got != want:
                failed.append(f"point {index}: {got} != reference {want}")
            elif any(again != got for again in requeried):
                failed.append(f"point {index}: re-query {requeried} != {got}")
            elif config.get("below_identity"):
                rate = self.finder.per_cycle_rate(
                    got[0], got[1], config["cycles"]
                )
                g = spec.noise.gate_error
                if not rate < g:
                    failed.append(
                        f"point {index}: per-cycle rate {rate} not below g={g}"
                    )
        missing = len(self.specs) - min(len(out["output"]), len(reference))
        failed.extend(["missing point"] * missing)
        return failed


# ----------------------------------------------------------------------
# Traced ops: store wrappers and fork bookkeeping
# ----------------------------------------------------------------------


def _instrument(workload: Workload, faulted: list, baselines: list) -> None:
    """Wrap store and executor calls of this process for the traced op.

    ``ResultStore.get``/``put`` each get a ``bench.store.*`` span (a
    get's span records whether it hit); ``Executor.run`` adds up the
    faulted trials of what it returns.  Before every fork the metric
    counters are snapshotted, so a forked pool worker's counts can be
    taken net of what it inherited.
    """
    trace = workload.obs.trace
    store_class = workload.jobs.ResultStore
    executor_class = workload.runtime.Executor
    original_get = store_class.get
    original_put = store_class.put
    original_run = executor_class.run

    def get(self, spec, policy):
        with trace("bench.store.get") as span:
            result = original_get(self, spec, policy)
            span.set(hit=result is not None)
        return result

    def put(self, spec, policy, result):
        with trace("bench.store.put"):
            return original_put(self, spec, policy, result)

    def run(self, specs):
        results = original_run(self, specs)
        faulted[0] += sum(result.faulted_trials for result in results)
        return results

    store_class.get = get
    store_class.put = put
    executor_class.run = run
    snapshot = workload.obs.metrics_snapshot
    os.register_at_fork(
        before=lambda: baselines.append(snapshot()["counters"])
    )


def _disk_bytes(job_dir: Path) -> dict:
    """Sizes of the job's manifest, checkpoints and store entries."""
    entries = list((job_dir / "store").glob("*/*.json"))
    entry_bytes = sum(path.stat().st_size for path in entries)
    return {
        "manifest_bytes": (job_dir / "manifest.json").stat().st_size,
        "checkpoint_bytes": sum(
            path.stat().st_size for path in (job_dir / "shards").glob("*.json")
        ),
        "store_entry_bytes": entry_bytes / len(entries) if entries else 0.0,
    }


def _run(config: dict, result: dict) -> None:
    mode = config["mode"]
    work_dir = Path(config["work_dir"])
    traced = bool(os.environ.get("REPRO_TRACE"))
    result["stage"] = "setup"
    workload = Workload(
        config["workload"], config["seed"], config["tiny"], Path(config["src"])
    )
    result["ready_ns"] = time.monotonic_ns()
    result["import_s"] = workload.import_s
    result["operations"] = operations_per_op(workload.config)
    if mode == "setup":
        return
    result["stage"] = mode
    if mode == "reference":
        result["reference"] = workload.reference()
        return
    faulted = [0]
    baselines: list = []
    if traced:
        _instrument(workload, faulted, baselines)
    ops = result["ops"] = []
    if config["warm_up"]:
        # One untimed op first: the process's first large allocations
        # fault in fresh pages that every later op reuses.
        workload.op(work_dir / "warm-up")
        shutil.rmtree(work_dir / "warm-up", ignore_errors=True)
    started = time.perf_counter()
    while len(ops) < config["min_ops"] or time.perf_counter() - started < config["seconds"]:
        op_dir = work_dir / f"op{len(ops)}"
        gc.collect()
        out = workload.op(op_dir)
        record = {key: out[key] for key in ("op_s", "sim_s", "wall_s", "trials")}
        record["problems"] = workload.check(out, config["reference"])
        ops.append(record)
        if traced:
            # The derivation reads this op's spans and its job directory,
            # so a traced process runs exactly one op.
            record["layers"], record["trace_problems"] = _layers(
                workload, out, faulted[0], baselines
            )
            break
        shutil.rmtree(op_dir, ignore_errors=True)


def _layers(workload: Workload, out: dict, faulted: int, baselines: list):
    """The per-layer metrics of a traced process's one op."""
    from traceinfo import per_layer

    threshold = workload.config["kind"] == "threshold"
    facts = {
        "import_s": workload.import_s,
        "faulted_trials": faulted
        if threshold
        else sum(point[2] for point in out["output"]),
        "evaluations": out["output"]["evaluations"]
        if threshold
        else len(out["output"]),
        "trials_spent": out["trials"],
    }
    if "job_dir" in out:
        facts.update(_disk_bytes(out["job_dir"]))
    workload.obs.flush_trace()
    return per_layer(workload.obs, os.environ["REPRO_TRACE"], baselines, facts)


def main(argv: list[str]) -> int:
    config = json.loads(Path(argv[1]).read_text())
    result: dict = {"mode": config["mode"]}
    code = 0
    try:
        _run(config, result)
    except Exception:  # the boundary: report the failure, never hang
        result["error"] = traceback.format_exc()
        code = 1
    if config["mode"] == "op":
        result["rss_mb"] = _peak_rss_mb()
    Path(config["result_path"]).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
