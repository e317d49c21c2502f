"""Multi-session fleet engine: N RPAVs sharing one cellular layout.

The paper measured a single UAV that had every cell to itself; this
module hosts N sender/receiver sessions on **one** event loop, over
**one** cell layout, attached to **one** shared-cell PRB scheduler
(:class:`repro.cellular.cell.CellContention`) — so fleet members
compete for the same radio resources, crowded cells shed UEs through
load-balancing offsets, and per-session QoE degrades with fleet
density (the "what if everyone flew one of these" axis the
measurement study could not reach).

Determinism and the PR-4 bit-identity discipline:

* session ``i`` runs with seed ``base.seed + i * seed_stride``, so
  session 0 of a fleet draws exactly the random streams of the
  single-session path;
* the shared layout is derived from the base seed's ``"layout"``
  stream — the same layout ``run_session(base)`` builds;
* a fleet of N=1 leaves every scheduler share at exactly 1.0 and
  every load-balancing offset at 0.0, making :func:`run_fleet`
  packet-for-packet identical to :func:`repro.core.session.run_session`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.cellular.batch import install_fleet_plans
from repro.cellular.cell import (
    CellCapacityConfig,
    CellContention,
    ScalarCellContention,
    normalize_cell_map,
)
from repro.cellular.channel import MEASUREMENT_PERIOD
from repro.cellular.operators import get_profile
from repro.core.config import ScenarioConfig
from repro.core.session import (
    SessionHandles,
    SessionResult,
    build_session,
    build_trajectory,
)
from repro.flight.trajectory import TranslatedTrajectory
from repro.net.packet import reset_datagram_ids
from repro.net.simulator import EventLoop
from repro.obs import (
    NULL_RECORDER,
    FleetMetricsPlane,
    NullRecorder,
    ObsLevel,
    Recorder,
    diagnose,
    names,
    trace_to_dicts,
)
from repro.util.rng import RngStreams


@dataclass(frozen=True)
class FleetConfig:
    """One fleet run: N sessions sharing a layout and PRB budgets.

    Parameters
    ----------
    base:
        Scenario of session 0 (and, seed/placement aside, of every
        session). Duration, operator, environment, CC, bitrates are
        fleet-wide.
    num_sessions:
        Fleet size N.
    seed_stride:
        Seed spacing between sessions (session ``i`` uses
        ``base.seed + i * seed_stride``).
    spread_radius:
        Horizontal radius (m) of the deterministic ring that offsets
        the trajectories of sessions 1..N-1 around session 0's route.
        Small radii keep the fleet inside one serving cell (maximum
        contention); session 0 always flies the unmodified route.
    cell_capacity:
        Shared per-cell PRB budget / admission / load-balancing knobs.
    trace_members:
        Member indices sampled for **full tracing**: each listed
        member runs with its own :class:`~repro.obs.Recorder` on
        per-tick scalar draws (the reference code path a diagnose
        trace expects to observe), while the rest of the fleet stays
        on the vectorized plan. Bit-identity is preserved — the
        shared ticker still fires every member in session order —
        and the sampled traces land in
        ``result.extra["member_traces"]``.
    """

    base: ScenarioConfig
    num_sessions: int = 2
    seed_stride: int = 1000
    spread_radius: float = 150.0
    cell_capacity: CellCapacityConfig = field(default_factory=CellCapacityConfig)
    trace_members: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.num_sessions < 1:
            raise ValueError("num_sessions must be >= 1")
        if self.seed_stride < 1:
            raise ValueError("seed_stride must be >= 1")
        if self.spread_radius < 0.0:
            raise ValueError("spread_radius must be >= 0")
        members = tuple(sorted(set(int(m) for m in self.trace_members)))
        for member in members:
            if not 0 <= member < self.num_sessions:
                raise ValueError(
                    f"trace_members index {member} out of range for a "
                    f"{self.num_sessions}-session fleet"
                )
        object.__setattr__(self, "trace_members", members)


@dataclass
class FleetResult:
    """Artifacts of one fleet run."""

    config: FleetConfig
    #: Per-session datasets, in session order (session 0 == base seed).
    sessions: list[SessionResult]
    #: Final attached-session count per occupied cell.
    occupancy: dict[int, int]
    #: Highest concurrent attachment count ever seen per cell.
    peak_occupancy: dict[int, int]
    #: Simulated seconds each session spent PRB-share-congested.
    congestion_time: list[float]
    #: Fleet-wide merged snapshot (``metrics`` / ``diagnosis`` when a
    #: recorder was attached) — shaped like ``SessionResult.extra`` so
    #: campaign runners merge fleet results exactly like session ones.
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Cell-id maps may arrive from a JSON round-trip (report
        # exports, history artifacts) with stringified int keys;
        # normalize on construction so merges never double-count.
        self.occupancy = normalize_cell_map(self.occupancy)
        self.peak_occupancy = normalize_cell_map(self.peak_occupancy)

    @property
    def max_sessions_per_cell(self) -> int:
        """Peak contention actually reached anywhere in the layout."""
        return max(self.peak_occupancy.values(), default=0)


def _ring_offset(index: int, count: int, radius: float) -> tuple[float, float]:
    """Deterministic placement of fleet member ``index`` (1-based ring)."""
    if index == 0 or radius == 0.0 or count <= 1:
        return 0.0, 0.0
    angle = 2.0 * math.pi * (index - 1) / (count - 1)
    return radius * math.cos(angle), radius * math.sin(angle)


def run_fleet(
    config: FleetConfig,
    *,
    recorder: NullRecorder | None = None,
    obs: "ObsLevel | str | bool | None" = None,
    fast: bool = True,
) -> FleetResult:
    """Execute one fleet run and collect every session's dataset.

    All sessions share a single event loop, the base seed's cell
    layout, and one :class:`CellContention`.

    Observability is tiered through ``obs`` (an
    :class:`~repro.obs.ObsLevel` or its string/bool spellings):

    * ``off`` — nothing recorded, zero overhead (the default).
    * ``metrics`` — the **fast-path tier**: sessions stay completely
      uninstrumented (packet logs bit-identical to ``off``) and a
      :class:`~repro.obs.FleetMetricsPlane` accumulates per-member
      goodput/PRB-share/SINR histograms and congestion counters from
      the shared ticker's struct-of-arrays state, one vectorized
      ingest per tick. The folded registry snapshot lands in
      ``result.extra["metrics"]`` alongside per-cell occupancy gauges
      and the ``obs_overhead`` self-accounting.
    * ``trace`` — the legacy full tier: one shared
      :class:`~repro.obs.Recorder` bound to the loop sees every
      session's spans, and the fleet-wide diagnosis lands in
      ``result.extra["diagnosis"]`` exactly like a session's would.

    Passing a ``recorder`` explicitly keeps its historical meaning
    (the instance is shared by every session and wins over ``obs``).
    Independently, ``config.trace_members`` samples k members for
    diagnose-quality tracing from inside a vectorized fleet: each
    sampled member runs a private recorder on per-tick scalar draws
    while the rest keep their plans (see
    :func:`~repro.cellular.batch.install_fleet_plans`), and the
    sampled traces land in ``result.extra["member_traces"]``.
    ``trace_members`` cannot combine with the ``trace`` tier — the
    shared recorder already covers every member.

    ``fast`` selects the fleet-scale fast path (the default): the
    vectorized struct-of-arrays :class:`CellContention` plus
    whole-horizon tick plans shared across members
    (:func:`~repro.cellular.batch.install_fleet_plans` — one block RNG
    refill per stream instead of per-tick draws, translated-trajectory
    geometry shared through the base-position cache). ``fast=False``
    runs the reference path — the dict/loop
    :class:`ScalarCellContention` and per-tick draws — which the
    fingerprint suite pins packet-for-packet equal to the fast path
    and ``benchmarks/test_fleet_scale.py`` uses as the speedup
    baseline. The metrics plane ingests the identical per-tick rows
    on both arms (live channel state vs. recorded samples), so even
    the metrics snapshots are bit-identical across ``fast``. Ring
    members fly :class:`~repro.flight.trajectory.TranslatedTrajectory`
    copies of the base route in either mode (the translation applies
    after interpolation), and member 0 always flies the unmodified
    route, so an N=1 fleet stays bit-identical to
    :func:`repro.core.session.run_session` on both arms.
    """
    level = ObsLevel.coerce(obs)
    if recorder is not None:
        shared: NullRecorder = recorder
        level = getattr(recorder, "level", ObsLevel.TRACE)
    elif level is ObsLevel.TRACE:
        shared = Recorder(measure_overhead=True)
    else:
        # metrics tier: sessions stay uninstrumented — the plane
        # carries the per-member metrics off the SoA tick state.
        shared = NULL_RECORDER
    if config.trace_members and level is ObsLevel.TRACE:
        raise ValueError(
            "trace_members cannot combine with trace-level fleet obs: "
            "the shared recorder already traces every member"
        )
    obs_active = level is not ObsLevel.OFF or bool(config.trace_members)
    if obs_active:
        # Wall-clock self-accounting only (obs.overhead); never
        # reaches sim state.
        timer = time.perf_counter  # repro-lint: ignore[RPL001]  # overhead self-metric
        wall_start = timer()
    reset_datagram_ids()
    loop = EventLoop()
    if isinstance(shared, Recorder):
        shared.bind(loop)
    base = config.base
    profile = get_profile(base.operator, base.environment.value)
    layout = profile.build_layout(RngStreams(base.seed).derive("layout"))
    contention_cls = CellContention if fast else ScalarCellContention
    contention = contention_cls(len(layout), config.cell_capacity)
    plane = (
        FleetMetricsPlane(
            config.num_sessions,
            congestion_share=config.cell_capacity.congestion_share,
            tick_period=MEASUREMENT_PERIOD,
        )
        if level is ObsLevel.METRICS
        else None
    )

    member_recorders: dict[int, Recorder] = {}
    handles: list[SessionHandles] = []
    for index in range(config.num_sessions):
        session_config = base.with_overrides(
            seed=base.seed + index * config.seed_stride
        )
        trajectory = build_trajectory(
            session_config, RngStreams(session_config.seed)
        )
        dx, dy = _ring_offset(
            index, config.num_sessions, config.spread_radius
        )
        if dx != 0.0 or dy != 0.0:
            trajectory = TranslatedTrajectory(trajectory, dx, dy)
        session_obs = shared
        if index in config.trace_members:
            _obs = Recorder(measure_overhead=True)
            _obs.bind(loop)
            _obs.event(
                names.FLEET_MEMBER_SAMPLE,
                t=0.0,
                member=index,
                seed=session_config.seed,
            )
            member_recorders[index] = _obs
            session_obs = _obs
        handles.append(
            build_session(
                loop,
                session_config,
                obs=session_obs,
                layout=layout,
                trajectory=trajectory,
                contention=contention,
                ue_id=index,
            )
        )

    channels = [handle.channel for handle in handles]
    if fast:
        install_fleet_plans(
            channels,
            base.duration,
            exclude=config.trace_members,
            plane=plane,
        )
    for handle in handles:
        handle.start()
    if fast and plane is not None:
        # Tick 0 ran synchronously inside start(); the ticker only
        # fires from tick 1, so the plane ingests the first tick here.
        plane.observe_channels(channels)
    loop.run_until(base.duration)
    for handle in handles:
        handle.stop()
    for handle in handles:
        handle.finish(loop.now)
    if not fast and plane is not None:
        # Scalar arm: replay the recorded samples through the same
        # per-tick ingest op, so the snapshot is bit-identical to the
        # live arm's.
        plane.observe_samples([ch.samples for ch in channels])

    sessions = [handle.collect() for handle in handles]
    extra: dict = {}
    if obs_active:
        recording_s = plane.overhead_s if plane is not None else 0.0
        if isinstance(shared, Recorder):
            recording_s += shared.overhead_s
            registry = shared.registry
            if plane is not None:
                plane.fold_into(registry)
            for cell, count in sorted(contention.occupancy().items()):
                registry.gauge("fleet/occupancy", cell=cell).set(count)
            for cell, count in sorted(contention.peak_attached.items()):
                registry.gauge("fleet/peak_occupancy", cell=cell).set(count)
            metrics_records = registry.snapshot()
        else:
            # Fast collect for the plane tiers: the registry here would
            # hold nothing but the plane fold plus the occupancy gauges,
            # so build the snapshot records directly (same format, same
            # sort) and skip the fold + re-snapshot round trip — it is
            # pure fixed cost on the hot campaign path.
            metrics_records = plane.snapshot() if plane is not None else []
            for name, counts in (
                ("fleet/occupancy", contention.occupancy()),
                ("fleet/peak_occupancy", dict(contention.peak_attached)),
            ):
                for cell, count in sorted(counts.items()):
                    metrics_records.append({
                        "kind": "gauge", "name": name,
                        "labels": {"cell": cell}, "value": float(count),
                        "max": float(count), "updates": 1,
                    })
            metrics_records.sort(
                key=lambda r: (r["name"], sorted(r["labels"].items()))
            )
        if member_recorders:
            extra["trace_members"] = list(member_recorders)
            extra["member_traces"] = {}
            for index, member_recorder in member_recorders.items():
                recording_s += member_recorder.overhead_s
                extra["member_traces"][str(index)] = {
                    "trace": trace_to_dicts(member_recorder.trace),
                    "metrics": member_recorder.registry.snapshot(),
                    "diagnosis": diagnose(
                        member_recorder.trace, member_recorder.registry
                    ).to_dict(),
                }
        # The overhead share is wall-clock and therefore run-dependent;
        # it travels only in ``extra`` — never in the registry, whose
        # snapshots must merge identically whatever the worker count.
        wall_s = timer() - wall_start
        share = recording_s / wall_s if wall_s > 0.0 else 0.0
        extra["metrics"] = metrics_records
        if isinstance(shared, Recorder) and shared.level is ObsLevel.TRACE:
            extra["diagnosis"] = diagnose(shared.trace, shared.registry).to_dict()
        extra["obs_overhead"] = {
            "recording_s": recording_s,
            "wall_s": wall_s,
            "share": share,
        }
    return FleetResult(
        config=config,
        sessions=sessions,
        occupancy=contention.occupancy(),
        peak_occupancy=dict(contention.peak_attached),
        congestion_time=[h.channel.congestion_time for h in handles],
        extra=extra,
    )
