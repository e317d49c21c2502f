"""Self-checks of the benchmark itself.

Run from the root of a checkout (takes about half a minute)::

    python3 -m pytest perfbench/test_perfbench.py

* exact counts repeat exactly between two traced runs of one seed;
* tracing never changes a result (traced digest == untraced digest);
* the canary digests still match ``pins.json``;
* the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark entry point, imported as a module)

run.import_program()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _traced_counts(name: str, tmp_path: Path) -> tuple[dict, str, str]:
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(workloads.DEFAULT_SEED, 0, True)
    untraced = workloads.finish(workload, workload.run(inputs, tmp_path))
    layer_tracer = tracing.LayerTracer()
    with layer_tracer:
        traced = workload.run(inputs, tmp_path)
    workloads.finish(workload, traced)
    traced.total_wall_s = untraced.total_wall_s = 1.0
    metrics = run.layer_metrics(layer_tracer, traced, untraced, tracing.GcMeter())
    exact = {key: metrics[key][0] for key in run.EXACT_METRICS}
    return exact, traced.digest, untraced.digest


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_and_tracing_changes_nothing(name: str, tmp_path: Path) -> None:
    first, traced, untraced = _traced_counts(name, tmp_path)
    second, _, _ = _traced_counts(name, tmp_path)
    assert first == second
    assert traced == untraced == run.load_pins()[name]["canary"]
    if name == "probe-sweep":
        assert first["net.simulator.events_per_pkt"] == 0
        assert first["cellular.ticks"] > 0
    else:
        assert first["net.simulator.events_per_pkt"] > 1.0
        assert first["alloc.objs_per_pkt"] > 1.0
    if name == "campaign-fig7":
        written = first["runner.cache.bytes_written"]
        assert written > 0
        assert first["runner.cache.bytes_read"] == written * workloads.WARM_PASSES
        assert first["runner.cache.hit_ratio"] == 1.0


def _bench(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_two_traced_cli_runs_repeat_exact_counts() -> None:
    root = HERE.parent
    results = []
    for _ in range(2):
        completed = _bench("--workload", "probe-sweep", "--seed", "3", "--seconds", "1",
                           "--trace", "1", cwd=root)
        assert completed.returncode == 0, completed.stderr
        results.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    for result in results:
        assert result["correct"] and result["failed"] == 0
    exact = [{key: r["metrics"][key]["value"] for key in run.EXACT_METRICS} for r in results]
    assert exact[0] == exact[1]


def test_refuses_to_run_without_program_sources(tmp_path: Path) -> None:
    root = HERE.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    completed = _bench("--workload", "session-gcc", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
