"""The benchmark's own tests.

Run with ``python3 -m pytest perfbench/selftest.py`` from the root of
the repository.  The file name keeps it out of the repository's test
suite, which collects ``test_*.py``: these tests spawn workload
processes and take about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_follows_the_contract():
    benchmark = run.load_benchmark()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert benchmark["paths"] == ["perfbench"]
    assert 1 <= benchmark["run_seconds"] <= 60
    names = [w["name"] for w in benchmark["workloads"]]
    assert set(names) <= set(WORKLOADS)
    for workload in benchmark["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    metrics = benchmark["end_to_end"] + benchmark["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    for metric in metrics:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    bounds = {}
    for metric in benchmark["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        bounds[metric["name"]] = metric["bound"]
    setup = next(m for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(bounds.values())
    catalogue = run.load_layers()["layers"]
    for metric in benchmark["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert catalogue[metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_metric(name, traced):
    result = run.measure(name, 3, 0.0, traced, tiny=True)
    assert result["correct"], result["errors"] + result["trace_problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if traced else "end_to_end"
    expected = {m["name"]: m["unit"] for m in run.load_benchmark()[section]}
    line = json.loads(run.result_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if traced:
        assert result["counts_repeat"]
        assert set(result["layers"]) == set(run.load_layers()["layers"])
    else:
        assert all(metric["value"] > 0 for metric in line["metrics"].values())


def _wrong_points(reference):
    failures, trials, faulted, engine = reference[0]
    return [[failures + 1, trials, faulted, engine]] + reference[1:]


def _wrong_threshold(reference):
    return dict(reference, estimate=reference["estimate"] * 2)


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("sweep-dense", _wrong_points),
        ("store-roundtrip", _wrong_points),
        ("threshold", _wrong_threshold),
    ],
)
def test_a_wrong_reference_fails_operations(name, corrupt):
    result = run.measure(name, 3, 0.0, False, tiny=True, corrupt=corrupt)
    assert not result["correct"]
    assert result["failed_share"] > 0
    ops = len(result["samples"]["trials_per_s"])  # one per op
    assert result["failed"] == ops  # one point, or the search, fails per op


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "threshold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    percent, value = run.tail([float(v) for v in range(1, 21)])
    assert percent == 50 and value == 10.0
    assert sum(v > value for v in range(1, 21)) >= 10


def _document(values: dict) -> dict:
    return {
        "workloads": {
            "threshold": {
                "runs": [
                    {"metrics": {k: {"value": v[i]} for k, v in values.items()}}
                    for i in range(len(next(iter(values.values()))))
                ]
            }
        }
    }


def test_compare_flags_moves_and_unresolved_spreads(tmp_path, capsys):
    steady = [1.0, 1.01, 0.99, 1.0, 1.02]
    parent = _document({
        "setup_s": steady, "op_s": steady, "trials_per_s": steady,
        "peak_rss_mb": steady,
    })
    change = _document({
        "setup_s": steady,
        "op_s": [v * 1.5 for v in steady],  # slower beyond the bound
        "trials_per_s": [0.5, 1.5, 0.7, 1.4, 1.0],  # noisy
        "peak_rss_mb": steady,
    })
    for side, document in (("parent", parent), ("change", change)):
        (tmp_path / f"{side}.json").write_text(json.dumps(document))
    run.main(["compare", str(tmp_path / "parent.json"), str(tmp_path / "change.json")])
    lines = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()
             if line.startswith("threshold")}
    assert "WORSE" in lines["op_s"]
    assert "unresolved" in lines["trials_per_s"]
    assert "within bound" in lines["setup_s"]
