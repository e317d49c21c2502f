"""Batch planner: group campaign work units into seed-sweep batches.

A campaign matrix is mostly the same scenario repeated across seeds.
Those repeats share every stochastic *shape* — tick count, cell count,
stream labels — so a whole seed sweep can execute as one
struct-of-arrays batch: the channel's random planes refill once for
``(n_seeds, n_ticks)`` (see :mod:`repro.cellular.batch`) and a
session's per-packet/per-frame draws refill once per stream via
:class:`~repro.util.rng.SweepDrawPlan`. Only the branchy control-loop
state (A3 evaluation, GCC/SCReAM, queues) stays per-run.

The planner is deliberately conservative about what may batch:

* :data:`~repro.runner.work.WORK_CHANNEL_PROBE` units — always
  batchable (pure channel, no params);
* :data:`~repro.runner.work.WORK_SESSION` units — batchable unless
  **trace**-instrumented (``obs="trace"`` runs carry a live recorder
  whose trace is part of the payload; they take the scalar path).
  Metrics-level units (``obs="metrics"``) batch freely: the
  :class:`~repro.obs.MetricsRecorder` records counters/gauges/
  histograms without a trace, so the vectorized execution is
  unperturbed;
* everything else — scalar. Ping probes have nothing to share, and a
  fleet is already vectorized across all of its members internally
  (SoA contention plus member-stacked tick plans, see
  :func:`repro.cellular.batch.install_fleet_plans`); the scalar path
  caches and resumes each fleet unit on its own.

Two units land in the same batch only when their canonical
fingerprints are identical *except for the seed* — the same material
the result cache hashes, so "batchable together" can never be looser
than "cache-key equal modulo seed". Batched execution is
packet-for-packet bit-identical to the scalar path; the fingerprint
suite (``tests/test_fingerprints.py``) pins that equivalence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from repro.core.config import ScenarioConfig
from repro.obs import ObsLevel
from repro.runner.work import WORK_CHANNEL_PROBE, WORK_SESSION, WorkUnit
from repro.util.rng import (
    STREAM_NORMAL,
    STREAM_UNIFORM,
    StreamSpec,
    SweepDrawPlan,
)
from repro.util.units import bits_to_bytes

#: Nominal RTP payload bytes per packet used to size per-packet draw
#: preloads. Oversizing is harmless (unused rows are dropped with the
#: plan); undersizing falls back to scalar refills bit-identically.
_NOMINAL_PACKET_BYTES = 1100.0

#: Headroom factors on the draw-count estimates. Loss/jitter draws are
#: per *delivered* packet and the encoder draws twice per frame, so a
#: modest margin covers rate-control overshoot and retransmits.
_PACKET_MARGIN = 1.25
_FRAME_MARGIN = 1.1


@dataclass(frozen=True)
class BatchPlan:
    """One seed sweep scheduled as a single worker task.

    ``indices`` are the units' positions in the campaign's submission
    order, so results fan back into the caller's result list (and the
    per-unit cache) exactly as if each unit had run alone.
    """

    kind: str
    indices: tuple[int, ...]
    units: tuple[WorkUnit, ...]


def batch_key(unit: WorkUnit) -> str | None:
    """Grouping key for ``unit``, or ``None`` when it must run scalar.

    The key is the unit's canonical JSON fingerprint with the seed
    removed — the exact cache-key material, so two units share a key
    iff they are the same cached computation modulo seed.
    """
    if unit.kind == WORK_SESSION:
        # Only trace-level obs forces the scalar path: the trace is
        # part of the payload and must observe per-tick scalar
        # scheduling. Metrics-level sessions batch freely — the
        # MetricsRecorder records without perturbing the vectorized
        # execution, and the tier stays inside the fingerprint, so the
        # grouping key still separates instrumented from bare
        # payloads.
        if ObsLevel.coerce(dict(unit.params).get("obs")) is ObsLevel.TRACE:
            return None
    elif unit.kind != WORK_CHANNEL_PROBE:
        return None
    material = unit.fingerprint()
    config = dict(material["config"])
    config.pop("seed", None)
    material["config"] = config
    return json.dumps(material, sort_keys=True)


def plan_batches(
    pending: "list[tuple[int, WorkUnit]]", workers: int = 1
) -> "tuple[list[BatchPlan], list[tuple[int, WorkUnit]]]":
    """Partition pending ``(index, unit)`` pairs into batches + scalars.

    Groups units by :func:`batch_key` preserving submission order
    within each group (seeds stay in campaign order). Groups of one
    stay scalar — a 1-seed batch pays plan setup for no amortization.
    With ``workers > 1`` each group is split into roughly equal chunks
    of at most ``ceil(group / workers)`` units, so a single dominant
    sweep still feeds every worker instead of serializing on one.
    """
    groups: dict[str, list[tuple[int, WorkUnit]]] = {}
    scalar: list[tuple[int, WorkUnit]] = []
    for index, unit in pending:
        key = batch_key(unit)
        if key is None:
            scalar.append((index, unit))
        else:
            groups.setdefault(key, []).append((index, unit))

    plans: list[BatchPlan] = []
    for members in groups.values():
        if members[0][1].kind == WORK_SESSION:
            # A session sweep keys its draw plan by seed; duplicate
            # units (same seed twice) would share one generator, so
            # repeats take the scalar path instead.
            seen_seeds: set[int] = set()
            unique: list[tuple[int, WorkUnit]] = []
            for index, unit in members:
                if unit.config.seed in seen_seeds:
                    scalar.append((index, unit))
                else:
                    seen_seeds.add(unit.config.seed)
                    unique.append((index, unit))
            members = unique
        if len(members) < 2:
            scalar.extend(members)
            continue
        chunk = len(members)
        if workers > 1:
            chunk = math.ceil(len(members) / workers)
        for start in range(0, len(members), chunk):
            part = members[start : start + chunk]
            if len(part) < 2:
                scalar.extend(part)
                continue
            plans.append(
                BatchPlan(
                    kind=part[0][1].kind,
                    indices=tuple(index for index, _ in part),
                    units=tuple(unit for _, unit in part),
                )
            )
    scalar.sort(key=lambda pair: pair[0])
    return plans, scalar


def session_stream_specs(config: ScenarioConfig) -> "list[StreamSpec]":
    """Draw-plan stream specs for one session scenario.

    Counts are sized from the run's duration and bitrate ceiling:
    jitter and loss consume one draw per delivered packet per
    direction, the encoder two normals per frame. Estimates only steer
    the block size — an overrun falls back to the underlying stream
    bit-identically (see ``BatchedNormal``), so a burstier-than-
    expected run is slower, never wrong.
    """
    budget_bytes = bits_to_bytes(config.duration * config.max_bitrate)
    packets = int(budget_bytes / _NOMINAL_PACKET_BYTES * _PACKET_MARGIN) + 64
    frames = int(2.0 * config.fps * config.duration * _FRAME_MARGIN) + 16
    return [
        StreamSpec("jitter-up", STREAM_NORMAL, packets),
        StreamSpec("jitter-down", STREAM_NORMAL, packets),
        StreamSpec("loss-up", STREAM_UNIFORM, packets),
        StreamSpec("loss-down", STREAM_UNIFORM, packets),
        StreamSpec("encoder", STREAM_NORMAL, frames),
    ]


def execute_batch(plan: BatchPlan) -> "list[Any]":
    """Run one batch and return per-unit results in ``plan`` order."""
    if plan.kind == WORK_CHANNEL_PROBE:
        # Lazy: repro.experiments builds on repro.runner.
        from repro.experiments.probes import channel_probe_batch

        return channel_probe_batch([unit.config for unit in plan.units])
    if plan.kind == WORK_SESSION:
        from repro.core.session import run_session

        configs = [unit.config for unit in plan.units]
        sweep = SweepDrawPlan(
            [config.seed for config in configs],
            session_stream_specs(configs[0]),
        )
        # Grouping keys share the obs tier (it is in the fingerprint),
        # but thread it per unit anyway so a future key relaxation
        # cannot silently drop instrumentation.
        return [
            run_session(
                unit.config,
                obs=dict(unit.params).get("obs"),
                draws=sweep.wrappers(unit.config.seed),
            )
            for unit in plan.units
        ]
    raise ValueError(f"cannot batch {plan.kind!r} units")
