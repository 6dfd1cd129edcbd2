"""Tests for the content-keyed result store."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import JobError
from repro.harness.threshold_finder import cycle_error_specs
from repro.jobs import (
    CachingExecutor,
    RESULT_STREAM_VERSION,
    STORE_FORMAT_VERSION,
    ResultStore,
    point_key,
)
from repro.runtime import ExecutionPolicy, Executor, PointResult


def _specs(count=2, trials=200):
    points = tuple((0.002 * (i + 1), 100 + i) for i in range(count))
    return cycle_error_specs(points, trials, cycles=1)


@pytest.fixture
def policy():
    return ExecutionPolicy.from_env()


class TestPointKey:
    def test_deterministic(self, policy):
        (spec,) = _specs(1)
        assert point_key(spec, policy) == point_key(spec, policy)

    def test_seed_and_noise_change_the_key(self, policy):
        spec_a, spec_b = _specs(2)
        assert point_key(spec_a, policy) != point_key(spec_b, policy)

    def test_backend_and_parallel_do_not_change_the_key(self, policy):
        # Backends and pool width are bit-identical by contract, so
        # they are provenance, not identity: a point computed under
        # one backend must be a cache hit under another.
        from dataclasses import replace

        (spec,) = _specs(1)
        base = point_key(spec, policy)
        assert point_key(spec, replace(policy, parallel=4)) == base
        assert point_key(spec, replace(policy, backend=policy.backend)) == base

    def test_engine_changes_the_key(self, policy):
        # The engine selects the RNG stream; forcing a different
        # engine is a different (still valid) result.
        from dataclasses import replace

        (spec,) = _specs(1)
        keys = {
            point_key(spec, replace(policy, engine=engine))
            for engine in ("batched", "bitplane")
        }
        assert len(keys) == 2

    def test_non_integer_seed_refused(self, policy):
        spec = _specs(1)[0]
        bad = type(spec)(
            circuit=spec.circuit,
            input_bits=spec.input_bits,
            observable=spec.observable,
            noise=spec.noise,
            trials=spec.trials,
            seed=np.random.default_rng(0),
        )
        with pytest.raises(JobError, match="integer"):
            point_key(bad, policy)


class TestStoreRoundTrip:
    def test_miss_then_put_then_hit(self, tmp_path, policy):
        store = ResultStore(tmp_path)
        (spec,) = _specs(1)
        assert store.get(spec, policy) is None
        (result,) = Executor(policy).run([spec])
        store.put(spec, policy, result)
        assert store.get(spec, policy) == result
        assert store.stats() == {"hits": 1, "misses": 1, "puts": 1, "stale": 0}
        assert len(store) == 1

    def test_entry_embeds_provenance(self, tmp_path, policy):
        store = ResultStore(tmp_path)
        (spec,) = _specs(1)
        (result,) = Executor(policy).run([spec])
        key = store.put(spec, policy, result)
        entry = json.loads((tmp_path / key[:2] / f"{key}.json").read_text())
        assert entry["format"] == STORE_FORMAT_VERSION
        assert entry["provenance"]["stream"] == RESULT_STREAM_VERSION
        assert entry["provenance"]["backend"] == policy.backend
        assert "version" in entry["provenance"]

    def test_mismatched_trials_refused_on_put(self, tmp_path, policy):
        store = ResultStore(tmp_path)
        (spec,) = _specs(1, trials=200)
        bad = PointResult(failures=0, trials=100, faulted_trials=5, engine="batched")
        with pytest.raises(JobError, match="mismatched"):
            store.put(spec, policy, bad)


class TestStaleDetection:
    def _stored(self, tmp_path, policy):
        store = ResultStore(tmp_path)
        (spec,) = _specs(1)
        (result,) = Executor(policy).run([spec])
        key = store.put(spec, policy, result)
        return store, spec, tmp_path / key[:2] / f"{key}.json"

    def test_corrupt_json_raises_not_served(self, tmp_path, policy):
        store, spec, path = self._stored(tmp_path, policy)
        path.write_text("{not json")
        with pytest.raises(JobError, match="unreadable"):
            store.get(spec, policy)
        assert store.stats()["stale"] == 1

    def test_foreign_format_version_raises(self, tmp_path, policy):
        store, spec, path = self._stored(tmp_path, policy)
        entry = json.loads(path.read_text())
        entry["format"] = STORE_FORMAT_VERSION + 1
        path.write_text(json.dumps(entry))
        with pytest.raises(JobError, match="format"):
            store.get(spec, policy)

    def test_tampered_counts_raise(self, tmp_path, policy):
        store, spec, path = self._stored(tmp_path, policy)
        entry = json.loads(path.read_text())
        entry["result"]["failures"] = entry["result"]["trials"] + 1
        path.write_text(json.dumps(entry))
        with pytest.raises(JobError, match="stale"):
            store.get(spec, policy)

    def test_fast_read_matches_a_whole_parse(self, tmp_path, policy):
        # An entry as put wrote it is read by parsing only its tail;
        # the result must be the whole parse, spec included.
        from repro.jobs.store import _load_entry
        from repro.runtime.serialization import spec_to_json

        store, spec, path = self._stored(tmp_path, policy)
        text = path.read_text()
        spec_json = spec_to_json(spec)
        entry = _load_entry(text, path.stem, spec_json)
        assert entry["spec"] is spec_json, "the tail-only read was not taken"
        assert entry == json.loads(text)
        assert store.get(spec, policy) is not None

    def test_trailing_duplicate_spec_raises(self, tmp_path, policy):
        # A second "spec" field after the result wins a whole parse, so
        # a matching head must not be enough to serve the entry.
        store, spec, path = self._stored(tmp_path, policy)
        entry = json.loads(path.read_text())
        forged = dict(entry["spec"], trials=entry["spec"]["trials"] + 1)
        path.write_text(
            json.dumps(entry)[:-1] + ', "spec": ' + json.dumps(forged) + "}"
        )
        with pytest.raises(JobError, match="spec"):
            store.get(spec, policy)

    def test_swapped_spec_raises(self, tmp_path, policy):
        # An entry whose embedded spec differs from the request means
        # the file was moved or the key scheme broke — never serve it.
        store, spec, path = self._stored(tmp_path, policy)
        entry = json.loads(path.read_text())
        entry["spec"]["trials"] = entry["spec"]["trials"] + 1
        path.write_text(json.dumps(entry))
        with pytest.raises(JobError, match="spec"):
            store.get(spec, policy)


class TestCachingExecutor:
    def test_second_run_is_all_cache_hits(self, tmp_path, policy):
        specs = _specs(3)
        direct = Executor(policy).run(specs)
        caching = CachingExecutor(ResultStore(tmp_path), policy=policy)
        first = caching.run(specs)
        assert first == direct
        assert caching.simulated_points == 3
        assert caching.cached_points == 0
        again = CachingExecutor(caching.store, policy=policy)
        assert again.run(specs) == direct
        assert again.simulated_points == 0
        assert again.cached_points == 3

    def test_partial_hit_simulates_only_misses(self, tmp_path, policy):
        specs = _specs(3)
        store = ResultStore(tmp_path)
        CachingExecutor(store, policy=policy).run(specs[:1])
        caching = CachingExecutor(store, policy=policy)
        assert caching.run(specs) == Executor(policy).run(specs)
        assert caching.simulated_points == 2
        assert caching.cached_points == 1

    def test_generator_seed_bypasses_the_store(self, tmp_path, policy):
        (spec,) = _specs(1)
        bad = type(spec)(
            circuit=spec.circuit,
            input_bits=spec.input_bits,
            observable=spec.observable,
            noise=spec.noise,
            trials=spec.trials,
            seed=np.random.default_rng(0),
        )
        store = ResultStore(tmp_path)
        caching = CachingExecutor(store, policy=policy)
        caching.run([bad])
        assert caching.simulated_points == 1
        assert len(store) == 0  # nothing durable for an unreproducible point

    def test_run_one(self, tmp_path, policy):
        (spec,) = _specs(1)
        caching = CachingExecutor(ResultStore(tmp_path), policy=policy)
        assert caching.run_one(spec) == Executor(policy).run([spec])[0]


class TestJsonWrites:
    def test_files_hold_exactly_json_dumps_of_their_payload(
        self, tmp_path, policy, monkeypatch
    ):
        # Manifest, shard checkpoints and store entries all go through
        # one atomic writer; each file's bytes must be json.dumps of
        # its payload, which is also what json.dump wrote before.
        import copy
        import io

        import repro.jobs.runner as runner_module
        import repro.jobs.store as store_module
        from repro.jobs import SweepJob

        written = {}
        write = store_module.write_json_atomic

        def recording(path, payload):
            write(path, payload)
            written[path] = copy.deepcopy(payload)

        monkeypatch.setattr(store_module, "write_json_atomic", recording)
        monkeypatch.setattr(runner_module, "write_json_atomic", recording)
        specs = _specs(4)
        job_dir = tmp_path / "job"
        job = SweepJob.submit(job_dir, specs, policy, shard_size=2)
        job.run()
        on_disk = set(job_dir.rglob("*.json"))
        assert on_disk == set(written)
        assert not list(job_dir.rglob("*.tmp"))
        kinds = {path.parent.name for path in written}
        assert "shards" in kinds and "job" in kinds and len(kinds) > 2
        keys = {point_key(spec, policy) for spec in specs}
        assert keys <= {path.stem for path in written}
        for path, payload in written.items():
            assert path.read_bytes() == json.dumps(payload).encode()
            legacy = io.StringIO()
            json.dump(payload, legacy)
            assert path.read_text() == legacy.getvalue()
