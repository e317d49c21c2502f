"""The four benchmark workloads: inputs from a seed, execution, output checks.

Each workload turns ``(seed, iteration)`` into the ``ScenarioConfig``s
it hands to one public ``repro`` entry point, runs them, and returns an
:class:`Outcome`: the simulated seconds done, the wall time they took,
exact counts for the traced report, a digest of the outputs and the
list of output-check failures. The program never sees the seed other
than through the generated configs.

``canary=True`` gives a short version of the same workload; the
benchmark runs it at the pinned default seed as the warm-up of every
run and checks its digest against ``pins.json``.
"""

from __future__ import annotations

import gc
import hashlib
import math
import pickle
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.cellular.channel import MEASUREMENT_PERIOD
from repro.core import config as repro_config
from repro.core import fingerprint, fleet, session
from repro.experiments import campaign
from repro.experiments.settings import ExperimentSettings
from repro.net.simulator import EventLoop
from repro.runner import cache as repro_cache
from repro.runner import engine

#: Seed every digest in ``pins.json`` is recorded at.
DEFAULT_SEED = 1
#: Seed not used while tuning a change; later claims must also hold on it.
HELD_OUT_SEED = 7

#: Seed offset between consecutive iterations of one run.
_ITERATION_STRIDE = 100_003


@dataclass
class Outcome:
    """What one workload iteration did and whether its outputs are right."""

    #: Simulated seconds (session-, member-, unit- or flight-seconds).
    sim_s: float
    #: Wall seconds of the timed part (the cold pass for campaigns).
    wall_s: float
    #: Median wall seconds of the all-hits warm passes (campaigns only).
    warm_wall_s: float | None
    #: Wall seconds of the whole iteration, untimed set-up and clean-up included.
    total_wall_s: float = 0.0
    #: Raw results, digested and checked by :func:`finish` after timing.
    payload: Any = None
    digest: str = ""
    packets: int = 0
    ticks: int = 0
    session_s: float = 0.0
    overflow_drops: int = 0
    late_drops: int = 0
    discards: int = 0
    cache_bytes_written: int = 0
    cache_bytes_read: int = 0
    cache_hit_ratio: float = 0.0
    units_batched: int = 0
    problems: list[str] = field(default_factory=list)


def digest_of(value: Any) -> str:
    """Short SHA-256 of a fingerprint tuple (ints, floats, strs, tuples)."""
    return hashlib.sha256(pickle.dumps(value, protocol=4)).hexdigest()[:20]


def _iteration_seed(seed: int, iteration: int) -> int:
    return seed + _ITERATION_STRIDE * iteration


def _expected_ticks(duration: float) -> int:
    return int(round(duration / MEASUREMENT_PERIOD)) + 1


def check_session(result: Any, label: str) -> list[str]:
    """Output checks every media session must pass, whatever its seed."""
    problems = []
    log = result.packet_log
    if result.packets_sent <= 0 or not log:
        problems.append(f"{label}: no media delivered")
    if len(log) > result.packets_sent:
        problems.append(f"{label}: more media packets delivered than sent")
    if any(entry.received_at < entry.sent_at for entry in log):
        problems.append(f"{label}: packet received before it was sent")
    if result.frames_decoded <= 0:
        problems.append(f"{label}: no frame decoded")
    if any(record.play_time < record.encode_time for record in result.playback):
        problems.append(f"{label}: frame played before it was encoded")
    ticks = len(result.capacity_samples)
    if ticks != _expected_ticks(result.duration):
        problems.append(f"{label}: {ticks} channel ticks, expected {_expected_ticks(result.duration)}")
    return problems


def _session_counts(outcome: Outcome, results: list[Any]) -> None:
    for result in results:
        outcome.packets += result.packets_sent
        outcome.ticks += len(result.capacity_samples)
        outcome.session_s += result.duration
        outcome.overflow_drops += result.packets_dropped_buffer
        outcome.late_drops += result.extra.get("jitter_dropped_late", 0)
        outcome.discards += result.sender_stats.packets_discarded
        outcome.problems.extend(check_session(result, result.config.label()))


# -- session-gcc ------------------------------------------------------


def session_gcc_inputs(seed: int, iteration: int, canary: bool) -> repro_config.ScenarioConfig:
    return repro_config.ScenarioConfig(
        environment="urban",
        platform="air",
        operator="P1",
        cc="gcc",
        seed=_iteration_seed(seed, iteration),
        duration=10.0 if canary else 60.0,
    )


def session_gcc_run(config: repro_config.ScenarioConfig, workdir: Path) -> Outcome:
    start = time.perf_counter()
    result = session.run_session(config)
    wall = time.perf_counter() - start
    return Outcome(sim_s=config.duration, wall_s=wall, warm_wall_s=None, payload=result)


def session_gcc_check(outcome: Outcome) -> None:
    outcome.digest = digest_of(fingerprint.session_fingerprint(outcome.payload))
    _session_counts(outcome, [outcome.payload])


# -- fleet-static8 ----------------------------------------------------


def fleet_static8_inputs(seed: int, iteration: int, canary: bool) -> fleet.FleetConfig:
    base = repro_config.ScenarioConfig(
        environment="urban",
        platform="air",
        operator="P1",
        cc="static",
        static_bitrate=8e6,
        seed=_iteration_seed(seed, iteration),
        duration=2.0 if canary else 20.0,
    )
    return fleet.FleetConfig(base=base, num_sessions=16, spread_radius=25.0)


def fleet_static8_run(config: fleet.FleetConfig, workdir: Path) -> Outcome:
    start = time.perf_counter()
    result = fleet.run_fleet(config)
    wall = time.perf_counter() - start
    return Outcome(
        sim_s=config.base.duration * config.num_sessions,
        wall_s=wall,
        warm_wall_s=None,
        payload=result,
    )


def fleet_static8_check(outcome: Outcome) -> None:
    result = outcome.payload
    outcome.digest = digest_of((
        tuple(fingerprint.session_fingerprint(s) for s in result.sessions),
        tuple(sorted(result.occupancy.items())),
        tuple(sorted(result.peak_occupancy.items())),
        tuple(result.congestion_time),
    ))
    _session_counts(outcome, result.sessions)
    if len(result.sessions) != result.config.num_sessions:
        outcome.problems.append(f"fleet returned {len(result.sessions)} sessions")
    if result.max_sessions_per_cell < 1:
        outcome.problems.append("fleet never attached a member to a cell")


# -- campaign-fig7 ----------------------------------------------------


@dataclass(frozen=True)
class CampaignInputs:
    configs: tuple[repro_config.ScenarioConfig, ...]
    settings: ExperimentSettings


def campaign_fig7_inputs(seed: int, iteration: int, canary: bool) -> CampaignInputs:
    first = _iteration_seed(seed, iteration)
    configs = tuple(
        repro_config.ScenarioConfig(environment="urban", platform="air", operator="P1", cc=cc)
        for cc in ("gcc", "scream", "static")
    )
    duration = 3.0 if canary else 10.0
    return CampaignInputs(
        configs,
        ExperimentSettings(duration=duration, seeds=(first, first + 50_000), warmup=0.0),
    )


def _matrix_digest(grouped: dict[str, list[Any]]) -> str:
    return digest_of(tuple(
        (label, tuple(fingerprint.session_fingerprint(r) for r in results))
        for label, results in grouped.items()
    ))


#: All-hits warm passes per campaign iteration; ``warm_wall_s`` is their median.
WARM_PASSES = 3


def campaign_fig7_run(inputs: CampaignInputs, workdir: Path) -> Outcome:
    """Cold pass against an empty cache, then all-hits warm passes over it."""
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=workdir))
    try:
        cache = repro_cache.ResultCache(cache_dir)
        with engine.CampaignRunner(1, cache=cache, batch=True) as runner:
            start = time.perf_counter()
            cold = campaign.run_matrix(list(inputs.configs), inputs.settings, runner=runner)
            cold_wall = time.perf_counter() - start
            cold_telemetry = runner.telemetry
        written = cache.stats()
        warm_walls = []
        warm_telemetry = []
        for _ in range(WARM_PASSES):
            gc.collect()
            with engine.CampaignRunner(1, cache=cache, batch=True) as runner:
                start = time.perf_counter()
                grouped = campaign.run_matrix(list(inputs.configs), inputs.settings, runner=runner)
                warm_walls.append(time.perf_counter() - start)
                warm_telemetry.append(runner.telemetry)
            if len(warm_walls) == 1:
                warm = grouped
            del grouped
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    units = len(inputs.configs) * len(inputs.settings.seeds)
    return Outcome(
        sim_s=units * inputs.settings.duration,
        wall_s=cold_wall,
        warm_wall_s=statistics.median(warm_walls),
        payload=(units, cold, warm, cold_telemetry, warm_telemetry, written),
    )


def campaign_fig7_check(outcome: Outcome) -> None:
    units, cold, warm, cold_telemetry, warm_telemetry, written = outcome.payload
    hits = sum(telemetry.cache_hits for telemetry in warm_telemetry)
    outcome.digest = _matrix_digest(cold)
    outcome.cache_bytes_written = written["bytes"]
    # Each warm pass reads every cold-pass entry back exactly once.
    outcome.cache_bytes_read = written["bytes"] * WARM_PASSES if hits == units * WARM_PASSES else 0
    outcome.cache_hit_ratio = hits / (units * WARM_PASSES)
    outcome.units_batched = _batched(cold_telemetry)
    _session_counts(outcome, [r for results in cold.values() for r in results])
    if _matrix_digest(warm) != outcome.digest:
        outcome.problems.append("warm pass returned results different from the cold pass")
    for telemetry in warm_telemetry:
        if cold_telemetry.executed != units or telemetry.cache_hits != units:
            outcome.problems.append(
                f"cache: cold executed {cold_telemetry.executed}, warm hit "
                f"{telemetry.cache_hits} of {units} units"
            )
    if written["entries"] != units:
        outcome.problems.append(f"cache holds {written['entries']} entries for {units} units")


def _batched(telemetry: Any) -> int:
    """Units a campaign executed inside a batch (telemetry worker ``.../batchN``)."""
    return sum("/batch" in run.worker for run in telemetry.runs)


# -- probe-sweep ------------------------------------------------------


def probe_sweep_inputs(seed: int, iteration: int, canary: bool) -> CampaignInputs:
    first = _iteration_seed(seed, iteration)
    count = 2 if canary else 8
    configs = tuple(
        repro_config.ScenarioConfig(environment=env, platform="air", operator="P1")
        for env in ("urban", "rural")
    )
    return CampaignInputs(
        configs,
        ExperimentSettings(
            duration=30.0 if canary else 300.0,
            seeds=tuple(first + 1000 * k for k in range(count)),
            warmup=0.0,
        ),
    )


def probe_sweep_run(inputs: CampaignInputs, workdir: Path) -> Outcome:
    settings = inputs.settings
    start = time.perf_counter()
    with engine.CampaignRunner(1, batch=True) as runner:
        probes = [
            campaign.run_channel_probe(config, settings, runner=runner)
            for config in inputs.configs
        ]
    wall = time.perf_counter() - start
    return Outcome(
        sim_s=len(probes) * len(settings.seeds) * settings.duration,
        wall_s=wall,
        warm_wall_s=None,
        payload=(settings, probes, runner.telemetry),
    )


def probe_sweep_check(outcome: Outcome) -> None:
    settings, probes, telemetry = outcome.payload
    outcome.digest = digest_of(tuple(
        (probe.label, fingerprint.probe_fingerprint(probe)) for probe in probes
    ))
    outcome.units_batched = _batched(telemetry)
    seeds = len(settings.seeds)
    expected = seeds * _expected_ticks(settings.duration)
    for probe in probes:
        samples = len(probe.uplink_samples)
        outcome.ticks += samples
        if samples != expected or len(probe.altitudes) != samples:
            outcome.problems.append(
                f"{probe.label}: {samples} uplink samples, {len(probe.altitudes)} "
                f"altitudes, expected {expected}"
            )
        if not all(math.isfinite(v) and v >= 0.0 for v in probe.uplink_samples):
            outcome.problems.append(f"{probe.label}: negative or non-finite uplink capacity")
        if probe.cells_seen < seeds:
            outcome.problems.append(f"{probe.label}: a seed saw no cell")


@dataclass(frozen=True)
class Workload:
    name: str
    #: Builds the run's inputs from ``(seed, iteration, canary)``.
    inputs: Callable[[int, int, bool], Any]
    #: Executes the inputs in a scratch directory; returns the raw results.
    run: Callable[[Any, Path], Outcome]
    #: Digests and checks the raw results, outside the timed region.
    check: Callable[[Outcome], None]

    def setup_config(self, seed: int) -> repro_config.ScenarioConfig:
        """The config whose session ``setup_s`` builds in a fresh process."""
        inputs = self.inputs(seed, 0, False)
        if isinstance(inputs, fleet.FleetConfig):
            return inputs.base
        if isinstance(inputs, CampaignInputs):
            return inputs.configs[0].with_overrides(
                seed=inputs.settings.seeds[0], duration=inputs.settings.duration
            )
        return inputs


def finish(workload: Workload, outcome: Outcome) -> Outcome:
    """Digest and check ``outcome``, then drop its raw results."""
    workload.check(outcome)
    outcome.payload = None
    return outcome


WORKLOADS = {
    w.name: w
    for w in (
        Workload("session-gcc", session_gcc_inputs, session_gcc_run, session_gcc_check),
        Workload("fleet-static8", fleet_static8_inputs, fleet_static8_run, fleet_static8_check),
        Workload("campaign-fig7", campaign_fig7_inputs, campaign_fig7_run, campaign_fig7_check),
        Workload("probe-sweep", probe_sweep_inputs, probe_sweep_run, probe_sweep_check),
    )
}


def set_up(workload: Workload, seed: int) -> None:
    """Per-process lazy set-up: build and start the workload's first session.

    Builds the layout, trajectory and memoised channel geometry without
    running the event loop, so ``setup_s`` holds no simulation work.
    """
    handles = session.build_session(EventLoop(), workload.setup_config(seed))
    handles.start()
    handles.stop()
