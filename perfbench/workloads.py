"""The benchmark's workloads: sizes, shapes and what each one counts.

Shared by ``run.py``, which never imports ``repro``, and
by the workload process (``child.py``), which does.  ``TINY`` shrinks
every workload to a few seconds of work for the benchmark's own
self-test; the benchmark proper always uses ``WORKLOADS``.
"""

from __future__ import annotations

#: One entry per workload.  ``kind`` selects the child's code path:
#: ``sweep`` (a SweepJob over cycle-error specs), ``store`` (the same
#: job written cold, then re-queried through a CachingExecutor) or
#: ``threshold`` (one stacked pseudo-threshold search).
WORKLOADS: dict[str, dict] = {
    "sweep-sparse": {
        "kind": "sweep",
        "g": (1e-4, 2e-3),
        "points": 10,
        "trials": 2_000_000,
        "cycles": 3,
        "shard_size": 5,
        "workers": 2,
        "below_identity": True,
    },
    "sweep-dense": {
        "kind": "sweep",
        "g": (1e-2, 5e-2),
        "points": 10,
        "trials": 150_000,
        "cycles": 3,
        "shard_size": 10,
        "workers": 0,
        "below_identity": False,
    },
    "threshold": {
        "kind": "threshold",
        # The search's work is a step function of its seed (2.5M to
        # 4.6M trials spent, 0.65 s to 1.3 s per search at 1M trials),
        # so the workload pins the seed of the repository's
        # mc-threshold experiment: every run times the same search.
        "search_seed": 51,
        "g": (2e-3, 8e-2),
        "trials": 1_000_000,
        "iterations": 12,
        "cycles": 1,
    },
    # Not in BENCHMARK.json: its cold writes and warm re-queries are the
    # most cache-sensitive code here.  On a shared 2-vCPU Xeon virtual
    # machine they slowed down up to 2x for tens of seconds at a time,
    # and ten runs spread 0.28 around their median, beyond the largest
    # bound the benchmark may set.  Run it by name
    # (``run.py --workload store-roundtrip``) to judge a store change.
    "store-roundtrip": {
        "kind": "store",
        "g": (1e-4, 5e-2),
        "points": 120,
        "trials": 256,
        "requeries": 3,
        "cycles": 3,
        "shard_size": None,
        "workers": 0,
        "below_identity": False,
    },
}

#: Self-test sizes: the same shapes with a sliver of the work.
TINY: dict[str, dict] = {
    "sweep-sparse": {"points": 4, "trials": 20_000, "shard_size": 2},
    "sweep-dense": {"points": 4, "trials": 20_000},
    "threshold": {"trials": 32_000, "iterations": 4},
    "store-roundtrip": {"points": 24, "trials": 64},
}


def workload_config(name: str, tiny: bool = False) -> dict:
    """The full size dictionary of workload ``name``."""
    config = dict(WORKLOADS[name])
    if tiny:
        config.update(TINY[name])
    return config


def operations_per_op(config: dict) -> int:
    """Operations one op attempts: its points, or one search."""
    return 1 if config["kind"] == "threshold" else config["points"]
