"""Merge one traced op's trace documents and derive its per-layer metrics.

A traced op writes the ``repro.obs`` trace of its process to
``REPRO_TRACE`` and, when it pools, one ``<path>.<pid>`` document per
forked worker.  A forked worker inherits its parent's spans and
counters, so only its ``jobs.shard`` subtrees are new, and its
counters count net of the parent's values at the fork.  The merge
appends each worker's shards under a ``bench.worker`` root and adds
the workers' net counters to the parent's.

Every layer is measured from outside the program: the benchmark's own
``bench.*`` spans around its calls, the program's existing spans and
registry counters, and facts the child measured itself (``facts``).
Metrics that do not apply to a workload come back as ``None``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

#: Span names whose self time the program's layers own; the rest of an
#: op's wall time is ``unexplained_s``.
LAYER_PREFIXES = ("executor.", "jobs.", "threshold.", "bench.store.")

#: Per-layer counters read straight from the merged registry.
COUNTERS = (
    "compile.cache.hit",
    "compile.cache.miss",
    "executor.runs",
    "executor.groups",
    "executor.stacked_points",
    "executor.legacy_points",
    "jobs.store.hit",
    "jobs.store.miss",
    "jobs.store.put",
    "jobs.store.stale",
    "jobs.shards.run",
    "threshold.rounds",
    "threshold.stage_evaluations",
    "threshold.speculated",
    "threshold.speculation_wasted",
)


def walk(spans):
    """Every span of a span list, depth first."""
    for span in spans:
        yield span
        yield from walk(span["children"])


def self_ns(span: dict) -> int:
    """Duration minus the part of it that child spans cover."""
    start = span["start_ns"]
    end = start + span["duration_ns"]
    covered = 0
    reach = start
    intervals = sorted(
        (child["start_ns"], child["start_ns"] + child["duration_ns"])
        for child in span["children"]
    )
    for low, high in intervals:
        low, high = max(low, reach), min(high, end)
        if high > low:
            covered += high - low
            reach = high
    return span["duration_ns"] - covered


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank ``q``-th percentile, or ``None`` without samples."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100 * len(ordered)) - 1, 0)]


def merge(validate, path: str, baselines: list[dict]) -> tuple[dict, list[str]]:
    """The parent's trace with its forked workers' documents merged in."""
    sink = Path(path)
    document = json.loads(sink.read_text())
    problems: list[str] = []
    baseline = baselines[0] if baselines else {}
    if any(other != baseline for other in baselines):
        problems.append("pool workers forked from different counter states")
    counters = dict(document["metrics"]["counters"])
    for worker_path in sorted(sink.parent.glob(sink.name + ".*")):
        worker = json.loads(worker_path.read_text())
        problems.extend(
            f"{worker_path.name}: {problem}" for problem in validate(worker)
        )
        shards = [s for s in walk(worker["spans"]) if s["name"] == "jobs.shard"]
        if shards:
            start = min(s["start_ns"] for s in shards)
            end = max(s["start_ns"] + s["duration_ns"] for s in shards)
            document["spans"].append(
                {
                    "name": "bench.worker",
                    "start_ns": start,
                    "duration_ns": end - start,
                    "attrs": {"pid": worker["pid"]},
                    "children": shards,
                }
            )
        for name, value in worker["metrics"]["counters"].items():
            counters[name] = counters.get(name, 0) + value - baseline.get(name, 0)
    document["metrics"]["counters"] = counters
    problems.extend(validate(document))
    return document, problems


def derive(document: dict, facts: dict) -> dict:
    """Every per-layer metric of one traced op (``None`` = not applicable)."""
    spans = list(walk(document["spans"]))
    counters = document["metrics"]["counters"]
    histograms = document["metrics"]["histograms"]

    def self_s(*names):
        return sum(self_ns(s) for s in spans if s["name"] in names) / 1e9

    def total_s(name):
        found = [s["duration_ns"] for s in spans if s["name"] == name]
        return sum(found) / 1e9 if found else None

    def call_ms(name, **attrs):
        return [
            s["duration_ns"] / 1e6
            for s in spans
            if s["name"] == name
            and all(s["attrs"].get(k) == v for k, v in attrs.items())
        ]

    def ratio(useful, base):
        return useful / base if base else None

    layers: dict = {
        "import_s": facts["import_s"],
        "compile_s": total_s("bench.compile"),
        "prepare_s": total_s("bench.prepare"),
        "draw_self_s": self_s("executor.group.draw"),
        "apply_self_s": self_s("executor.group.apply"),
        "decode_self_s": self_s("executor.group.decode"),
        "executor_self_s": self_s("executor.run", "executor.group"),
        "round_self_s": self_s(
            "threshold.search", "threshold.bracket", "threshold.round"
        )
        or None,
    }
    for name in COUNTERS:
        layers[name] = counters.get(name, 0)

    # Apply cost per unit of plane work: every group span states its
    # word count and fused-slot count.
    apply_ns = 0
    word_slots = 0
    for span in spans:
        if span["name"] != "executor.group":
            continue
        for child in span["children"]:
            if child["name"] == "executor.group.apply":
                apply_ns += child["duration_ns"]
                word_slots += span["attrs"]["words"] * span["attrs"]["slots"]
    layers["apply_ns_per_word_slot"] = ratio(apply_ns, word_slots)

    puts = call_ms("bench.store.put")
    gets = call_ms("bench.store.get", hit=True)
    layers["store_put_ms.p50"] = percentile(puts, 50)
    layers["store_put_ms.p99"] = percentile(puts, 99)
    layers["store_get_ms.p50"] = percentile(gets, 50)
    layers["store_get_ms.p99"] = percentile(gets, 99)
    lookups = counters.get("jobs.store.hit", 0) + counters.get("jobs.store.miss", 0)
    layers["store_lookups"] = lookups
    layers["store_hit_ratio"] = ratio(counters.get("jobs.store.hit", 0), lookups)
    speculated = counters.get("threshold.speculated", 0)
    layers["speculation_useful_ratio"] = (
        1 - counters.get("threshold.speculation_wasted", 0) / speculated
        if speculated
        else None
    )

    # The jobs runner: what its spans hold beyond simulation.  The
    # simulation on the critical path is the parent's executor runs
    # plus the busiest pool worker's.
    jobs_run = total_s("jobs.run")
    layers["submit_s"] = total_s("bench.submit")
    if jobs_run is None:
        layers["jobs_overhead_s"] = None
        layers["pool_overhead_s"] = None
    else:
        parent_exec = 0
        worker_exec = [0]
        for root in document["spans"]:
            runs = sum(
                s["duration_ns"] for s in walk([root]) if s["name"] == "executor.run"
            )
            if root["name"] == "bench.worker":
                worker_exec.append(runs)
            else:
                parent_exec += runs
        layers["jobs_overhead_s"] = jobs_run - (parent_exec + max(worker_exec)) / 1e9
        longest_shard = histograms.get("jobs.shard_seconds", {}).get("max") or 0.0
        layers["pool_overhead_s"] = jobs_run - longest_shard

    # The op's wall time that no layer span accounts for.
    op = next(s for s in document["spans"] if s["name"] == "bench.op")
    layer_self = sum(
        self_ns(s) for s in walk([op]) if s["name"].startswith(LAYER_PREFIXES)
    )
    layers["unexplained_s"] = (op["duration_ns"] - layer_self) / 1e9

    for name in (
        "faulted_trials",
        "trials_spent",
        "evaluations",
        "manifest_bytes",
        "checkpoint_bytes",
        "store_entry_bytes",
    ):
        layers[name] = facts.get(name, 0)
    return layers


def per_layer(obs, path: str, baselines: list[dict], facts: dict):
    """``(metrics, trace problems)`` of the traced op whose sink is ``path``."""
    document, problems = merge(obs.validate_trace, path, baselines)
    return derive(document, facts), problems
