#!/usr/bin/env python3
"""The repository benchmark: its workloads, end to end and per layer.

One run of one workload (the form ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload sweep-sparse --seed 1 --seconds 10 --trace 0

runs from the root of a checkout and prints a short report, then, as
its last line, ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer ones,
and the report lists every per-layer metric of ``layers.json``.

Two more forms::

    python3 perfbench/run.py suite --runs 10 --seed 1 --out results.json
    python3 perfbench/run.py compare parent.json change.json

``suite`` makes ``--runs`` untraced runs per workload of
``BENCHMARK.json`` (or per ``--workload``) on consecutive seeds plus
one traced run, prints each metric's median, quartiles and spread
against its bound, and writes a results document.  ``compare`` prints
each workload x end-to-end metric of two results documents side by
side and flags every pairing that moved by more than its bound.

Load shape: a closed loop of one process at a time.  Every process is
a fresh ``child.py`` interpreter with ``REPRO_*`` stripped from its
environment and an explicit policy, so imports and the in-process
caches start cold; ``run.py`` itself never imports ``repro``.  A run
makes one untimed warm-up process (byte code and page cache), one
untimed reference process, ``SETUP_SAMPLES - 1`` set-up-only processes,
then one process that sets up and repeats ops for ``--seconds`` (at
least ``MIN_OPS``).  A traced run instead alternates one-op processes,
untraced and traced, so ``trace_overhead`` compares the two within one
run.  Store reads come from the OS page cache.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, operations_per_op, workload_config  # noqa: E402

#: Fewest ops a run measures, however short ``--seconds`` is.
MIN_OPS = 3
#: Set-up times a run collects (op processes count towards it).
SETUP_SAMPLES = 5
#: A run stops starting processes after this many seconds, so it ends
#: well inside the 180 s a run may take.
RUN_BUDGET_S = 150.0
#: Where runs keep their job directories, configs and traces; each run
#: removes its own subdirectory when it ends.
WORK_ROOT = ROOT / ".perfbench_work"


class SetupFailed(Exception):
    """The workload cannot run here at all (e.g. no ``src/repro``)."""


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_layers() -> dict:
    return json.loads((HERE / "layers.json").read_text())


def child_env(trace_path: Path | None) -> dict:
    """This process's environment minus ``REPRO_*``, importing ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    if trace_path is not None:
        env["REPRO_TRACE"] = str(trace_path)
    return env


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    percent = int(100 * (n - 10) / n)
    index = max(-(-percent * n // 100) - 1, 0)
    return percent, ordered[index]


def describe(values: list[float], unit: str) -> str:
    median = statistics.median(values)
    text = f"median {median:.6g} {unit} (n={len(values)}"
    found = tail(values)
    if found is not None:
        text += f", p{found[0]} {found[1]:.6g}"
    return text + ")"


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


class Runner:
    """Spawns the child processes of one run inside its work directory."""

    def __init__(self, name: str, seed: int, tiny: bool, deadline: float):
        self.name = name
        self.seed = seed
        self.tiny = tiny
        self.deadline = deadline
        self.count = 0
        WORK_ROOT.mkdir(exist_ok=True)
        self.work = WORK_ROOT / f"{os.getpid()}-{name}-{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir()

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still works there

    def spawn(
        self,
        mode: str,
        reference=None,
        traced: bool = False,
        seconds: float = 0.0,
        min_ops: int = 1,
    ) -> dict:
        """Run one child to completion; returns its result document.

        An ``op`` child repeats ops for ``seconds`` (at least
        ``min_ops``), after one untimed warm-up op when it repeats; a
        traced one runs exactly one op.
        """
        self.count += 1
        work = self.work / f"{self.count:03d}-{mode}"
        work.mkdir()
        config = {
            "mode": mode,
            "workload": self.name,
            "seed": self.seed,
            "tiny": self.tiny,
            "src": str(ROOT / "src"),
            "work_dir": str(work),
            "result_path": str(work / "result.json"),
            "reference": reference,
            "seconds": seconds,
            "min_ops": min_ops,
            "warm_up": min_ops > 1,
        }
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config))
        trace_path = work / "trace.json" if traced else None
        spawned_ns = time.monotonic_ns()
        process = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(config_path)],
            env=child_env(trace_path),
            cwd=str(ROOT),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        timeout = max(self.deadline + 25.0 - time.monotonic(), 5.0)
        try:
            _, stderr = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _kill_group(process.pid)
            _, stderr = process.communicate()
        finally:
            _kill_group(process.pid)
        try:
            result = json.loads((work / "result.json").read_text())
        except (OSError, json.JSONDecodeError):
            result = {
                "mode": mode,
                "stage": mode,
                "error": f"exit {process.returncode}: "
                + stderr.decode(errors="replace")[-2000:],
            }
        result.setdefault(
            "operations", operations_per_op(workload_config(self.name, self.tiny))
        )
        if "ready_ns" in result:
            result["setup_s"] = (result["ready_ns"] - spawned_ns) / 1e9
        if result.get("error") and result.get("stage") == "setup":
            raise SetupFailed(result["error"])
        shutil.rmtree(work, ignore_errors=True)
        return result


def _kill_group(pgid: int) -> None:
    """Kill a child's process group: a hung child, or what it left behind."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def measure(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    tiny: bool = False,
    corrupt=None,
) -> dict:
    """One run of workload ``name``; ``corrupt`` may rewrite the reference.

    Returns ``correct``/``attempted``/``failed``, the ``metrics`` the
    result line carries, the per-op ``samples`` and the report lines.
    """
    benchmark = load_benchmark()
    config = workload_config(name, tiny)
    runner = Runner(name, seed, tiny, time.monotonic() + RUN_BUDGET_S)
    processes: list[dict] = []  # op-process results, each marked traced or not
    setups: list[float] = []
    try:
        runner.spawn("setup")  # warm-up: byte code and page cache
        answer = runner.spawn("reference")
        reference = answer.get("reference")
        errors = [answer["error"]] if answer.get("error") else []
        if corrupt is not None and reference is not None:
            reference = corrupt(reference)
        if traced:
            # Alternate one-op processes, untraced then traced.
            clock = time.monotonic()
            while time.monotonic() < runner.deadline:
                counts = [sum(p["traced"] == t for p in processes) for t in (False, True)]
                if min(counts) >= MIN_OPS and time.monotonic() - clock >= seconds:
                    break
                trace_this = counts[0] > counts[1]
                result = runner.spawn("op", reference, traced=trace_this)
                processes.append(dict(result, traced=trace_this))
        else:
            while len(setups) < SETUP_SAMPLES - 1 and time.monotonic() < runner.deadline:
                setups.append(runner.spawn("setup")["setup_s"])
            result = runner.spawn("op", reference, seconds=seconds, min_ops=MIN_OPS)
            processes.append(dict(result, traced=False))
    finally:
        runner.close()

    attempted = 0
    failed = 0
    for process in processes:
        operations = process["operations"]
        if "setup_s" in process and not process["traced"]:
            setups.append(process["setup_s"])
        for record in process.get("ops", []):
            attempted += operations
            failed += len(record["problems"])
            errors.extend(record["problems"])
        if process.get("error"):
            # A raised error fails every operation of the op it hit.
            attempted += operations
            failed += operations
            errors.append(process["error"])
    records = [
        (process["traced"], record)
        for process in processes
        for record in process.get("ops", [])
    ]
    good = [record for is_traced, record in records if is_traced == traced]
    if not good:
        raise SetupFailed("no op completed: " + "; ".join(errors[:3]))
    samples = {
        "setup_s": setups,
        "op_s": [value for record in good for value in record["op_s"]],
        "trials_per_s": [record["trials"] / record["sim_s"] for record in good],
        "peak_rss_mb": [p["rss_mb"] for p in processes if "rss_mb" in p],
    }
    problems = [p for record in good for p in record.get("trace_problems", [])]
    run = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "errors": errors[:20],
        "trace_problems": problems[:20],
        "correct": failed == 0 and not problems,
    }
    if traced:
        untraced = [record for is_traced, record in records if not is_traced]
        run["layers"], run["counts_repeat"] = _layers(good, untraced)
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        run["metrics"] = {
            metric: {"value": run["layers"][metric], "unit": unit}
            for metric, unit in units.items()
        }
    else:
        run["samples"] = samples
        run["metrics"] = {
            m["name"]: {
                "value": statistics.median(samples[m["name"]]),
                "unit": m["unit"],
            }
            for m in benchmark["end_to_end"]
        }
        run["aliases"] = _aliases(config, samples)
    return run


def _aliases(config: dict, samples: dict) -> dict:
    """The workload's end-to-end numbers under their everyday names."""
    op_s = statistics.median(samples["op_s"])
    rate = statistics.median(samples["trials_per_s"])
    if config["kind"] == "threshold":
        return {"solve_s": op_s}
    if config["kind"] == "store":
        return {
            "write_points_per_s": rate / config["trials"],
            "read_points_per_s": config["points"] / op_s,
        }
    return {"trials_per_s": rate, "sweep_s": op_s}


def _layers(traced: list[dict], untraced: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics over a run's traced ops: medians of timings,
    exact counts (which must repeat across the ops of one seed)."""
    catalogue = load_layers()["layers"]
    layers: dict = {}
    repeat = True
    for metric, info in catalogue.items():
        if metric == "trace_overhead":
            continue
        values = [op["layers"][metric] for op in traced]
        if info["unit"] in ("count", "bytes", "ratio") and info.get("exact", True):
            layers[metric] = values[0]
            repeat = repeat and all(value == values[0] for value in values)
        elif any(value is None for value in values):
            layers[metric] = None
        else:
            layers[metric] = statistics.median(values)
    walls = statistics.median(op["wall_s"] for op in traced)
    plain = [op["wall_s"] for op in untraced]
    layers["trace_overhead"] = walls / statistics.median(plain) - 1 if plain else None
    return layers, repeat


def report(run: dict) -> list[str]:
    """The human-readable lines printed before the result line."""
    head = (
        f"{run['workload']} seed={run['seed']} "
        f"{'traced' if run['traced'] else 'untraced'}: "
        f"failed_share {run['failed_share']:.6g} "
        f"({run['failed']}/{run['attempted']} operations)"
    )
    lines = [head]
    lines.extend(f"  error: {e.splitlines()[-1] if e else e}" for e in run["errors"][:5])
    lines.extend(f"  trace problem: {p}" for p in run["trace_problems"][:5])
    if run["traced"]:
        catalogue = load_layers()["layers"]
        lines.append(f"  counts repeat across traced ops: {run['counts_repeat']}")
        for metric, info in catalogue.items():
            value = run["layers"][metric]
            shown = "n/a" if value is None else f"{value:.6g} {info['unit']}"
            if "base" in info:
                shown += f" (base {run['layers'][info['base']]})"
            lines.append(f"  {info['layer']:32} {metric:28} {shown}")
    else:
        units = {m["name"]: m["unit"] for m in load_benchmark()["end_to_end"]}
        for metric, values in run["samples"].items():
            lines.append(f"  {metric:14} {describe(values, units[metric])}")
        for alias, value in run["aliases"].items():
            lines.append(f"  {alias:20} {value:.6g}")
    return lines


def result_line(run: dict) -> str:
    return json.dumps(
        {
            "correct": run["correct"],
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": run["metrics"],
        }
    )


# ----------------------------------------------------------------------
# Results documents, suite and compare
# ----------------------------------------------------------------------


def _read(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def machine_info() -> dict:
    """Where the numbers were measured."""
    cpuinfo = _read(Path("/proc/cpuinfo")) or ""
    model = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
         if line.startswith("model name")),
        platform.processor() or None,
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level")
        kind = _read(index / "type")
        size = _read(index / "size")
        if level and kind and size and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    meminfo = _read(Path("/proc/meminfo")) or ""
    ram = next(
        (line.split(":", 1)[1].strip() for line in meminfo.splitlines()
         if line.startswith("MemTotal")),
        None,
    )
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # metadata missing: record that, do not fail
        numpy_version = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "caches": caches,
        "ram": ram,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
    }


def results_document(runs: list[dict]) -> dict:
    benchmark = load_benchmark()
    workloads: dict = {}
    for run in runs:
        entry = workloads.setdefault(run["workload"], {"runs": [], "traced": []})
        entry["traced" if run["traced"] else "runs"].append(run)
    return {
        "format": 1,
        "claim": None,
        "machine": machine_info(),
        "seeds": sorted({run["seed"] for run in runs}),
        "bounds": {m["name"]: m["bound"] for m in benchmark["end_to_end"]},
        "workloads": workloads,
    }


def _values(document: dict, workload: str, metric: str) -> list[float]:
    runs = document["workloads"].get(workload, {}).get("runs", [])
    return [run["metrics"][metric]["value"] for run in runs]


def suite(args) -> int:
    names = args.workload or [w["name"] for w in load_benchmark()["workloads"]]
    runs = []
    for name in names:
        seeds = [args.seed + offset for offset in range(args.runs)]
        for seed in seeds:
            run = measure(name, seed, args.seconds, traced=False)
            print(f"{name} seed={seed} " + result_line(run), flush=True)
            runs.append(run)
        run = measure(name, args.seed, args.seconds, traced=True)
        print("\n".join(report(run)), flush=True)
        runs.append(run)
    document = results_document(runs)
    Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    bounds = document["bounds"]
    all_steady = True
    print(f"{'workload':16} {'metric':14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name in names:
        for metric, bound in bounds.items():
            values = _values(document, name, metric)
            q1, median, q3 = quartiles(values)
            share = spread(values)
            flag = ""
            if share > bound:
                flag = "  above bound"
            elif share >= bound / 3:
                flag = "  above a third of the bound"
            all_steady = all_steady and (metric == "setup_s" or not flag)
            print(f"{name:16} {metric:14} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{share:8.3f} {bound:6.2f}{flag}")
    failed = sum(run["failed"] for run in runs)
    print(f"failed operations: {failed}; every spread below a third of its "
          f"bound (set-up time aside): {all_steady}; results in {args.out}")
    return 0 if failed == 0 else 1


def compare(args) -> int:
    """Each workload x end-to-end metric of two results documents."""
    benchmark = load_benchmark()
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    print(f"{'workload':16} {'metric':14} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'delta':>8}  verdict")
    moved = 0
    for name in sorted(set(parent["workloads"]) & set(change["workloads"])):
        for metric in benchmark["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            before = _values(parent, name, key)
            after = _values(change, name, key)
            if not before or not after:
                continue
            b1, bm, b3 = quartiles(before)
            a1, am, a3 = quartiles(after)
            delta = (am - bm) / bm
            worse = delta > 0 if metric["better"] == "lower" else delta < 0
            if metric["better"] == "lower":
                always_better = max(after) < min(before)
            else:
                always_better = min(after) > max(before)
            if abs(delta) <= bound:
                verdict = "within bound"
            else:
                moved += 1
                verdict = "WORSE" if worse else "better"
            if max(spread(before), spread(after)) > bound and not always_better:
                verdict += ", unresolved (spread above bound)"
            print(f"{name:16} {key:14} {b1:10.4g}/{bm:10.4g}/{b3:10.4g} "
                  f"{a1:10.4g}/{am:10.4g}/{a3:10.4g} {delta:+8.3f}  {verdict}")
    print(f"{moved} pairing(s) moved by more than their bound")
    return 0


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def single(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="One run of one workload.")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=load_benchmark()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupFailed as exc:
        print(f"cannot run {args.workload}: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report(run)))
    print(result_line(run))
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["suite"]:
        parser = argparse.ArgumentParser(prog="run.py suite")
        parser.add_argument("--runs", type=int, default=10)
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--seconds", type=float, default=load_benchmark()["run_seconds"])
        parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
        parser.add_argument("--out", required=True)
        return suite(parser.parse_args(argv[1:]))
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent")
        parser.add_argument("change")
        return compare(parser.parse_args(argv[1:]))
    return single(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
