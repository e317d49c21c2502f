#!/usr/bin/env python3
"""Repository benchmark: real-time factor of four workloads, plus a traced run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload session-gcc --seed 3 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

With ``--trace 0`` a run prints the end-to-end metrics (``rtf``,
``warm_wall_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it
prints the per-layer metrics of a traced iteration. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See ``README.md`` in this
directory for the workloads, the metrics and how to read them.

Each workload runs in this single process: ``CampaignRunner(workers=1)``,
no pool. The program is imported from ``src/`` of the checkout this
file sits in, never from an installed copy.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
WORKDIR = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("session-gcc", "fleet-static8", "campaign-fig7", "probe-sweep")
#: Fresh processes whose set-up time is sampled per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Metrics that must repeat exactly between traced iterations of one seed.
EXACT_METRICS = (
    "net.simulator.events_per_pkt",
    "net.links.calls_per_pkt",
    "net.links.overflow_drops",
    "rtp.wire_size_calls_per_pkt",
    "rtp.jitter_buffer.late_drops",
    "core.sender.discards",
    "cc.feedback_per_s",
    "alloc.objs_per_pkt",
    "cellular.ticks",
    "runner.cache.bytes_written",
    "runner.cache.bytes_read",
    "runner.cache.hit_ratio",
    "runner.batch.units_batched",
)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import ``repro`` from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")


class Tally:
    """Attempted and failed runs; a run fails if it raises or fails a check."""

    def __init__(self, workloads: Any, workload: Any) -> None:
        self.attempted = 0
        self.failed = 0
        self._workloads = workloads
        self._workload = workload

    def attempt(self, inputs: Any, workdir: Path, expect: str | None = None,
                wrap: Callable[[Callable[[], Any]], Any] = lambda run: run()) -> Any:
        """Run and check one iteration; ``expect`` is its pinned digest, if any."""
        self.attempted += 1
        gc.collect()
        try:
            start = time.perf_counter()
            outcome = wrap(lambda: self._workload.run(inputs, workdir))
            outcome.total_wall_s = time.perf_counter() - start
            self._workloads.finish(self._workload, outcome)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if expect is not None and outcome.digest != expect:
            outcome.problems.append(f"digest {outcome.digest} differs from the pinned {expect}")
        if outcome.problems:
            self.failed += 1
            for problem in outcome.problems:
                print(f"perfbench: check failed: {problem}", file=sys.stderr)
        return outcome


def load_pins() -> dict[str, dict[str, str]]:
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def measure_setup(name: str, seed: int, machine: Any) -> list[float]:
    """Wall times for fresh interpreters to import and set up ``name``."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        machine.sample()
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - start)
    return samples


def closed_loop(seconds: float, step: Callable[[int], Any]) -> list[Any]:
    """Call ``step(i)`` back to back while the next call is expected to fit."""
    results = []
    durations = []
    loop_start = time.perf_counter()
    iteration = 0
    while True:
        start = time.perf_counter()
        results.append(step(iteration))
        iteration += 1
        durations.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - loop_start
        if elapsed + statistics.fmean(durations) > seconds:
            return results


def run_untraced(name: str, seed: int, seconds: float, workdir: Path) -> dict[str, Any]:
    import speed
    import workloads

    workload = workloads.WORKLOADS[name]
    pins = load_pins().get(name, {})
    machine = speed.MachineSpeed()
    setup = measure_setup(name, seed, machine)
    tally = Tally(workloads, workload)
    tally.attempt(workload.inputs(workloads.DEFAULT_SEED, 0, True), workdir, pins.get("canary"))

    def step(i: int) -> Any:
        machine.sample()
        return tally.attempt(workload.inputs(seed, i, False), workdir,
                             pins.get(str(seed)) if i == 0 else None)

    steps = closed_loop(seconds, step)
    machine.sample()
    scale = machine.scale()
    done = [o for o in steps if o is not None]
    sim = sum(o.sim_s for o in done)
    wall = sum(o.wall_s for o in done)
    warm = [o.warm_wall_s for o in done if o.warm_wall_s is not None]
    metrics = {
        "rtf": (sim / (wall * scale) if wall else 0.0, "x"),
        "warm_wall_s": ((statistics.median(warm) if warm else wall / max(len(done), 1)) * scale, "s"),
        "setup_s": (statistics.median(setup) * scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"{name}: seed {seed}, {len(steps)} iterations in the closed loop")
    print(f"  failed_frac {tally.failed / tally.attempted:.4f} ({tally.failed}/{tally.attempted})")
    print(f"  reference work {statistics.median(machine.samples):.4f} s median of "
          f"{len(machine.samples)} (nominal {speed.NOMINAL_S} s), scale {scale:.4f}; "
          f"unscaled rtf {sim / wall if wall else 0.0:.4f} x")
    return result_object(tally, metrics)


def layer_metrics(tracer: Any, traced: Any, untraced: Any, gc_meter: Any) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration (see README.md for each)."""
    pkts = traced.packets
    wall = traced.total_wall_s
    layers = tracer.layer_self(wall)
    # Shares are of the traced wall less the wrappers' estimated own cost.
    base = wall - tracer.span_overhead_s

    def per_pkt(value: float) -> float:
        return value / pkts if pkts else 0.0

    def us_per_pkt(key: str) -> float:
        seconds = layers[key] if key in layers else tracer.key_self(key)
        return per_pkt(seconds * 1e6)

    cellular_s = layers["cellular"]
    metrics = {
        "net.simulator.events_per_pkt": (per_pkt(tracer.events), "count"),
        "net.simulator.self_us_per_pkt": (us_per_pkt("net.simulator"), "us"),
        "net.links.self_us_per_pkt": (us_per_pkt("net.links"), "us"),
        "net.links.calls_per_pkt": (per_pkt(tracer.calls("repro.net.links")), "count"),
        "net.links.overflow_drops": (traced.overflow_drops, "count"),
        "rtp.self_us_per_pkt": (us_per_pkt("rtp"), "us"),
        "rtp.wire_size_calls_per_pkt": (
            per_pkt(tracer.calls("repro.rtp.packets", "RtpPacket.wire_size")), "count"),
        "rtp.jitter_buffer.late_drops": (traced.late_drops, "count"),
        "core.sender.self_us_per_pkt": (us_per_pkt("core.sender"), "us"),
        "core.receiver.self_us_per_pkt": (us_per_pkt("core.receiver"), "us"),
        "core.sender.discards": (traced.discards, "count"),
        "video.self_us_per_pkt": (us_per_pkt("video"), "us"),
        "cc.self_us_per_pkt": (us_per_pkt("cc"), "us"),
        "cc.feedback_per_s": (
            tracer.method_calls("on_feedback", "repro.cc") / traced.session_s
            if traced.session_s else 0.0, "1/s"),
        "alloc.objs_per_pkt": (per_pkt(tracer.allocations()), "count"),
        "cellular.ticks": (traced.ticks, "count"),
        "cellular.self_us_per_tick": (
            cellular_s * 1e6 / traced.ticks if traced.ticks else 0.0, "us"),
        "cellular.self_s": (cellular_s, "s"),
        "runner.cache.put_s": (tracer.inclusive("repro.runner.cache", "ResultCache.put"), "s"),
        "runner.cache.bytes_written": (traced.cache_bytes_written, "bytes"),
        "runner.cache.get_s": (tracer.inclusive("repro.runner.cache", "ResultCache.get"), "s"),
        "runner.cache.bytes_read": (traced.cache_bytes_read, "bytes"),
        "runner.cache.hit_ratio": (traced.cache_hit_ratio, "ratio"),
        "runner.batch.self_s": (tracer.key_self("runner.batch"), "s"),
        "runner.batch.units_batched": (traced.units_batched, "count"),
        "py.gc_s": (gc_meter.seconds, "s"),
        "py.gc_collections": (gc_meter.collections, "count"),
        "trace.overhead_x": (wall / untraced.total_wall_s, "x"),
    }
    for layer, seconds in layers.items():
        metrics[f"{layer}.self_share"] = (seconds / base, "ratio")
    metrics["other.self_s"] = (layers["other"], "s")
    return metrics


def print_layer_table(tracer: Any, wall: float, untraced_wall: float) -> None:
    """Human-readable self-time breakdown, largest first, ``other`` split out."""
    overhead = tracer.span_overhead_s
    base = wall - overhead
    by_key = tracer.self_by_key()
    by_key["other.unwrapped"] = base - sum(by_key.values())
    print(f"  traced wall {wall:.3f} s, wrappers' estimated cost {overhead:.3f} s, "
          f"leaving {base:.3f} s (untraced wall {untraced_wall:.3f} s)")
    for key, seconds in sorted(by_key.items(), key=lambda item: -item[1]):
        if seconds:
            print(f"    {key:<22} {seconds:9.4f} s {100 * seconds / base:6.2f} %")


def run_traced(name: str, seed: int, seconds: float, workdir: Path) -> dict[str, Any]:
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    pins = load_pins().get(name, {})
    tally = Tally(workloads, workload)
    tally.attempt(workload.inputs(workloads.DEFAULT_SEED, 0, True), workdir, pins.get("canary"))
    inputs = workload.inputs(seed, 0, False)

    def traced_pair(_: int) -> dict[str, tuple[float, str]] | None:
        gc_meter = tracing.GcMeter()

        def metered(run: Callable[[], Any]) -> Any:
            with gc_meter:
                return run()

        untraced = tally.attempt(inputs, workdir, pins.get(str(seed)), metered)
        # Patched before the timed region starts, restored before the
        # digest and checks run, so neither lands in a layer.
        layer_tracer = tracing.LayerTracer()
        layer_tracer.install()

        def traced_run(run: Callable[[], Any]) -> Any:
            try:
                return run()
            finally:
                layer_tracer.uninstall()

        traced = tally.attempt(inputs, workdir, untraced.digest if untraced else None, traced_run)
        if untraced is None or traced is None:
            return None
        print_layer_table(layer_tracer, traced.total_wall_s, untraced.total_wall_s)
        return layer_metrics(layer_tracer, traced, untraced, gc_meter)

    pairs = [p for p in closed_loop(seconds, traced_pair) if p is not None]
    metrics: dict[str, tuple[float, str]] = {}
    if pairs:
        for key, (value, unit) in pairs[0].items():
            if key in EXACT_METRICS:
                if any(pair[key][0] != value for pair in pairs[1:]):
                    print(f"perfbench: check failed: {key} did not repeat exactly", file=sys.stderr)
                    tally.failed += 1
                metrics[key] = (value, unit)
            else:
                metrics[key] = (statistics.median(pair[key][0] for pair in pairs), unit)
    print(f"{name}: seed {seed}, {len(pairs)} traced pairs")
    return result_object(tally, metrics)


def result_object(tally: Tally, metrics: dict[str, tuple[float, str]]) -> dict[str, Any]:
    for key, (value, unit) in metrics.items():
        print(f"  {key:<32} {value:>16.6f} {unit}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process and print one table."""
    rows = {}
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {completed.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        rows[name] = json.loads(lines[-1])
    print("\nworkload        failed_frac  " + "  ".join(
        f"{key}" for key in next(iter(rows.values()))["metrics"]))
    for name, row in rows.items():
        cells = "  ".join(f"{m['value']:.4f} {m['unit']}" for m in row["metrics"].values())
        print(f"{name:<15} {row['failed'] / row['attempted']:<11.4f}  {cells}")
    summary = {
        "correct": all(row["correct"] for row in rows.values()),
        "attempted": sum(row["attempted"] for row in rows.values()),
        "failed": sum(row["failed"] for row in rows.values()),
        "metrics": {f"{name}.{key}": value for name, row in rows.items()
                    for key, value in row["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def pin(seeds: list[int]) -> None:
    """Record the digests the output check compares against (``pins.json``)."""
    import workloads

    workdir = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        pins = {}
        for name in WORKLOAD_NAMES:
            workload = workloads.WORKLOADS[name]
            entry = {}
            for label, inputs in [("canary", workload.inputs(workloads.DEFAULT_SEED, 0, True))] + [
                (str(seed), workload.inputs(seed, 0, False)) for seed in seeds
            ]:
                outcome = workloads.finish(workload, workload.run(inputs, workdir))
                if outcome.problems:
                    raise SystemExit(f"perfbench: {name} {label} fails its checks: {outcome.problems}")
                entry[label] = outcome.digest
                print(name, label, outcome.digest, flush=True)
            pins[name] = entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and set up the workload, then exit (one setup_s sample)")
    parser.add_argument("--pin", action="store_true",
                        help="re-record pins.json at the default and held-out seeds")
    args = parser.parse_args()

    import_program()
    if args.workload == "all" and not args.pin:
        return run_all(args)
    if args.setup_only:
        import workloads

        workloads.set_up(workloads.WORKLOADS[args.workload], args.seed)
        return 0
    WORKDIR.mkdir(exist_ok=True)
    if args.pin:
        import workloads

        pin([workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED])
        return 0
    workdir = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        run = run_traced if args.trace else run_untraced
        result = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
