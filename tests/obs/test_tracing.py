"""The span tracer: no-op default, span trees, flush, validation."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.obs.tracing import NOOP_SPAN
from repro.obs import (
    clock_ns,
    disable_tracing,
    enable_tracing,
    flush_trace,
    stopwatch,
    trace,
    tracing_enabled,
    validate_trace,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def _no_tracer():
    disable_tracing()
    yield
    disable_tracing()


class TestDisabled:
    def test_trace_returns_shared_noop(self):
        assert trace("a.b") is NOOP_SPAN
        assert trace("c.d", attr=1) is NOOP_SPAN

    def test_noop_span_is_inert(self):
        with trace("a.b") as span:
            span.set(anything=1)
        assert not tracing_enabled()

    def test_flush_returns_none(self):
        assert flush_trace() is None


class TestEnabled:
    def test_span_tree_nests(self, tmp_path):
        sink = tmp_path / "trace.json"
        enable_tracing(str(sink))
        with trace("outer.span", width=4) as outer:
            with trace("inner.span"):
                pass
            outer.set(late=True)
        destination = flush_trace()
        assert destination == str(sink)
        document = json.loads(sink.read_text())
        assert validate_trace(document) == []
        (root,) = [s for s in document["spans"] if s["name"] == "outer.span"]
        assert root["attrs"] == {"width": 4, "late": True}
        assert [c["name"] for c in root["children"]] == ["inner.span"]
        assert root["duration_ns"] >= root["children"][0]["duration_ns"]

    def test_open_spans_serialise_with_running_duration(self, tmp_path):
        enable_tracing(str(tmp_path / "trace.json"))
        span = trace("left.open")
        span.__enter__()
        destination = flush_trace()
        document = json.loads(Path(destination).read_text())
        (open_span,) = [
            s for s in document["spans"] if s["name"] == "left.open"
        ]
        assert open_span["attrs"]["open"] is True
        assert open_span["duration_ns"] > 0
        span.__exit__(None, None, None)

    def test_reenable_repoints_sink_keeping_spans(self, tmp_path):
        enable_tracing(str(tmp_path / "first.json"))
        with trace("kept.span"):
            pass
        enable_tracing(str(tmp_path / "second.json"))
        destination = flush_trace()
        assert destination == str(tmp_path / "second.json")
        document = json.loads(Path(destination).read_text())
        assert [s["name"] for s in document["spans"]] == ["kept.span"]

    def test_threads_keep_their_own_span_stacks(self, tmp_path):
        # More threads than cores open nested spans concurrently (with
        # a shortened switch interval, so they interleave mid-span)
        # while the main thread holds a span open: each thread's spans
        # must nest only under that thread's own spans, a thread with
        # no open span starts a root instead of adopting the main
        # thread's span, and no span is lost.
        enable_tracing(str(tmp_path / "trace.json"))
        n_threads, rounds = 8, 40
        all_open = threading.Barrier(n_threads, timeout=30)

        def worker(tag):
            for index in range(rounds):
                with trace(f"worker.{tag}", round=index):
                    with trace(f"worker.{tag}.mid"):
                        if index == 0:
                            all_open.wait()
                        with trace(f"worker.{tag}.leaf"):
                            pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with trace("main.span"):
                threads = [
                    threading.Thread(target=worker, args=(tag,))
                    for tag in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                with trace("main.child"):
                    pass
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        document = json.loads(Path(flush_trace()).read_text())
        assert validate_trace(document) == []
        roots = document["spans"]
        (main,) = [s for s in roots if s["name"] == "main.span"]
        assert [c["name"] for c in main["children"]] == ["main.child"]
        workers = [s for s in roots if s["name"] != "main.span"]
        assert len(workers) == n_threads * rounds
        for root in workers:
            (mid,) = root["children"]
            assert mid["name"] == f"{root['name']}.mid"
            assert [c["name"] for c in mid["children"]] == [
                f"{root['name']}.leaf"
            ]

    def test_non_scalar_attrs_coerced(self, tmp_path):
        enable_tracing(str(tmp_path / "trace.json"))
        with trace("attr.span", items=(1, 2), obj={"not": "scalar"}):
            pass
        document = json.loads(Path(flush_trace()).read_text())
        assert validate_trace(document) == []
        attrs = document["spans"][0]["attrs"]
        assert attrs["items"] == [1, 2]
        assert isinstance(attrs["obj"], str)


class TestClock:
    def test_clock_monotonic(self):
        assert clock_ns() <= clock_ns()

    def test_stopwatch_elapsed(self):
        watch = stopwatch()
        assert watch.elapsed_ns >= 0
        assert watch.elapsed_s >= 0.0


class TestValidate:
    def test_rejects_non_object(self):
        assert validate_trace([]) != []

    def test_rejects_bad_format(self):
        problems = validate_trace(
            {"format": 99, "pid": 1, "spans": [], "metrics": {}}
        )
        assert any("format" in p for p in problems)

    def test_rejects_bad_span(self):
        document = {
            "format": 1,
            "pid": 1,
            "spans": [{"name": "", "start_ns": -1}],
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        }
        assert len(validate_trace(document)) >= 2


def test_repro_trace_env_flushes_at_exit(tmp_path):
    # The whole contract end to end, as a user would hit it: set
    # REPRO_TRACE, run code, get a schema-valid trace file at exit
    # without calling anything in repro.obs explicitly.
    sink = tmp_path / "trace.json"
    env = dict(os.environ)
    env["REPRO_TRACE"] = str(sink)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    script = (
        "from repro.obs import trace\n"
        "with trace('smoke.span', n=3):\n"
        "    pass\n"
    )
    subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, timeout=60
    )
    document = json.loads(sink.read_text())
    assert validate_trace(document) == []
    assert [s["name"] for s in document["spans"]] == ["smoke.span"]
