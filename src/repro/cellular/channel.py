"""The end-to-end cellular channel driven by a trajectory.

:class:`CellularChannel` ties the substrate together: every 100 ms
(the LTE measurement period) it

1. reads the UE position from the trajectory,
2. computes per-cell RSRP (path loss + antenna pattern + shadowing),
3. advances the A3 handover engine — an executed handover silences
   the attached network paths for the sampled HET,
4. derives the uplink/downlink capacity from the serving cell's
   signal quality and the interference situation, applying the pre-
   and post-handover degradation windows responsible for the paper's
   latency spikes around handovers (Fig. 8/9), and the high-altitude
   interference events behind the RTT outliers above 100 m (Fig. 13).

The instantaneous capacity is exposed as plain ``rate_fn`` callables
for :class:`repro.net.path.NetworkPath`, and 1 Hz RSSI samples are
logged exactly as coarsely as the paper's LTE dongles reported them.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.cellular.cell import CellContention
from repro.cellular.handover import A3Config, HandoverEngine, HetSampler
from repro.cellular.layout import CellLayout
from repro.cellular.operators import OperatorProfile
from repro.cellular.propagation import (
    PropagationConfig,
    ShadowingProcess,
    antenna_gain_db_array,
    path_loss_db_array,
)
from repro.flight.trajectory import Position, WaypointTrajectory
from repro.net.path import NetworkPath
from repro.net.simulator import EventLoop
from repro.obs import NULL_RECORDER, NullRecorder, names
from repro.obs.detect import EwmaZScore
from repro.util.rng import RngStreams

#: UE measurement period (100 ms, standard LTE).
MEASUREMENT_PERIOD = 0.1
#: Effective usable uplink bandwidth (Hz) after control overhead.
EFFECTIVE_UL_BANDWIDTH = 7.5e6
#: Fraction of neighbouring-cell power contributing to interference.
INTERFERENCE_LOAD = 0.02
#: Uplink link budget (dB): UE tx power + BS receive gain - noise
#: floor. ``SNR_ul = UL_BUDGET_DB - path_loss``. Calibrated so the
#: urban area sustains ~30-45 Mbps and the rural area ~8-13 Mbps,
#: matching the paper's Fig. 6 operating points.
UL_BUDGET_DB = 106.0
#: Histogram buckets for the SINR metric (dB; spans outage to ideal).
SINR_BUCKETS = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0)

#: Tick-count growth increment when a run outlives the precomputed
#: geometry horizon (60 simulated seconds per extension).
_GEO_CHUNK_TICKS = 600


@lru_cache(maxsize=8)
def _tick_positions(
    traj_key: tuple, anchor: float, start_tick: int, n_ticks: int
) -> np.ndarray:
    """UE positions at measurement ticks, cached per trajectory.

    Split out of :func:`_tick_geometry` because the trajectory is
    often shared across runs whose *layouts* differ: an air-platform
    seed sweep flies the fixed paper trajectory over per-seed
    perturbed layouts, so a batched sweep interpolates the positions
    once and only the per-layout loss/gain passes repeat.
    """
    wp_times, wp_points = traj_key
    trajectory = WaypointTrajectory(
        list(wp_times), [Position(x, y, alt) for x, y, alt in wp_points]
    )
    ticks = anchor + (start_tick + np.arange(n_ticks)) * MEASUREMENT_PERIOD
    return trajectory.positions_at(ticks)


@lru_cache(maxsize=8)
def _tick_geometry(
    traj_key: tuple,
    offset: tuple,
    cell_key: tuple,
    prop_key: tuple,
    anchor: float,
    start_tick: int,
    n_ticks: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic per-tick, per-cell radio geometry, vectorized.

    For measurement ticks ``anchor + (start_tick + k) * 0.1`` this
    precomputes everything about the tick that does not depend on a
    random draw: the UE position along the trajectory, the 3-D path
    loss to every cell and the down-tilted antenna gain toward the UE.
    Returns ``(rsrp_det, loss, altitudes)`` where ``rsrp_det[k, i]``
    is ``tx_power - loss + gain`` for cell ``i`` (shadowing and
    fading are added per tick at run time) and ``loss[k, i]`` is the
    3-D path loss that also feeds the uplink budget.

    Keyed on value tuples (waypoints, ground-plane offset, cell
    parameters, propagation config), so repeated runs over the same
    trajectory and layout — same-seed re-runs, parallel-vs-serial
    equality checks, cached campaign replays — reuse the arrays across
    channel instances. ``offset`` is the translated-trajectory shift
    (see :class:`~repro.flight.trajectory.TranslatedTrajectory`):
    every member of a fleet ring shares the base position table in
    :func:`_tick_positions` and only the loss/gain pass below runs per
    member.
    """
    config = PropagationConfig(*prop_key)
    pos = _tick_positions(traj_key, anchor, start_tick, n_ticks)
    if offset != (0.0, 0.0):
        # _tick_positions rows are lru-cached and shared; copy before
        # shifting, and shift only the ground plane (altitude stays).
        pos = pos.copy()
        pos[:, 0] += offset[0]
        pos[:, 1] += offset[1]
    cell_ids = np.array([c[0] for c in cell_key], dtype=float)
    cx = np.array([c[1] for c in cell_key])
    cy = np.array([c[2] for c in cell_key])
    ch = np.array([c[3] for c in cell_key])
    tx_power = np.array([c[4] for c in cell_key])
    downtilt = np.array([c[5] for c in cell_key])
    dx = pos[:, 0:1] - cx[None, :]
    dy = pos[:, 1:2] - cy[None, :]
    dz = pos[:, 2:3] - ch[None, :]
    horizontal = np.hypot(dx, dy)
    dist3d = np.sqrt(dx * dx + dy * dy + dz * dz)
    altitudes = pos[:, 2].copy()
    loss = path_loss_db_array(dist3d, pos[:, 2:3], config)
    gain = antenna_gain_db_array(horizontal, dz, cell_ids, downtilt, config)
    rsrp_det = tx_power[None, :] - loss + gain
    return rsrp_det, loss, altitudes


@dataclass(slots=True)
class CapacitySample:
    """One 100 ms snapshot of the channel state (for traces/analysis)."""

    time: float
    uplink_bps: float
    downlink_bps: float
    serving_cell: int
    rsrp_dbm: float
    sinr_db: float
    altitude: float
    in_handover: bool
    #: Uplink PRB share granted by the shared-cell scheduler
    #: (1.0 when the channel runs uncontended).
    uplink_share: float = 1.0


@dataclass(slots=True)
class RssiReport:
    """Coarse 1 Hz signal report, as the paper's LTE dongles logged."""

    time: float
    rssi_dbm: float
    cell_id: int


@dataclass
class ChannelConfig:
    """Behavioural knobs of the cellular channel."""

    propagation: PropagationConfig = field(default_factory=PropagationConfig)
    a3: A3Config = field(default_factory=A3Config)
    het: HetSampler = field(default_factory=HetSampler)
    #: Capacity multiplier while the A3 condition builds (pre-HO
    #: degradation window; the cause of the Fig. 9 "before" spikes).
    pre_handover_factor: float = 0.5
    #: Capacity multiplier right after handover completion.
    post_handover_factor: float = 0.8
    #: Duration of the post-handover ramp, seconds.
    post_handover_ramp: float = 0.3
    #: Fast-fading std-dev (dB) on the ground and in the air.
    fading_std_ground_db: float = 1.0
    fading_std_air_db: float = 2.0
    fading_corr_time: float = 1.0
    #: Altitude above which interference dropout events start (m).
    outlier_altitude: float = 100.0
    #: Dropout event rate at 20 m above the threshold (events/s).
    outlier_rate: float = 0.03
    outlier_capacity_factor: float = 0.1
    outlier_duration_range: tuple[float, float] = (0.3, 1.0)
    #: Make-before-break handover (the Dual Active Protocol Stack of
    #: 3GPP Rel-16 the paper discusses in Section 5): when True,
    #: handover execution keeps the old link alive, so no outage is
    #: injected and only the radio-quality degradation remains.
    make_before_break: bool = False
    #: UE RSRP measurement noise (dB) on the ground and in the air;
    #: aerial links fluctuate more (side lobes, higher noise floor).
    meas_noise_ground_db: float = 0.5
    meas_noise_air_db: float = 2.0
    #: Per-cell fast RSRP fading that only appears in the air (side-
    #: lobe multipath): std-dev at full altitude and correlation time.
    air_fastfade_std_db: float = 3.5
    air_fastfade_corr_time: float = 0.8


class CellularChannel:
    """Trajectory-driven LTE channel for one UE.

    Parameters
    ----------
    loop:
        Event loop (the channel ticks itself at 10 Hz).
    layout:
        Cell deployment to operate in.
    profile:
        Operator plan/deployment profile (capacity caps and scaling).
    trajectory:
        UE position source.
    streams:
        Random-stream factory for shadowing/fading/HET draws.
    horizon:
        Expected run duration in seconds; the deterministic per-tick
        geometry is precomputed for the whole horizon in one
        vectorized pass. Runs that outlive the horizon (or pass
        ``None``) extend the precomputation in 60 s chunks.
    contention:
        Optional shared-cell PRB scheduler
        (:class:`repro.cellular.cell.CellContention`). When given,
        this channel registers as UE ``ue_id``, reports its rates
        every tick, and its link rates are scaled by the granted PRB
        share; the handover engine additionally sees the scheduler's
        load-balancing offsets and admission blocks. ``None`` (the
        default) is the uncontended single-UE paper model.
    ue_id:
        This channel's session id within the shared scheduler.
    uplink_demand_bps / downlink_demand_bps:
        Offered-load hints sizing PRB requests (``None`` =
        full-buffer: request the whole budget).
    """

    def __init__(
        self,
        loop: EventLoop,
        layout: CellLayout,
        profile: OperatorProfile,
        trajectory: WaypointTrajectory,
        streams: RngStreams,
        *,
        config: ChannelConfig | None = None,
        horizon: float | None = None,
        obs: NullRecorder = NULL_RECORDER,
        contention: CellContention | None = None,
        ue_id: int = 0,
        uplink_demand_bps: float | None = None,
        downlink_demand_bps: float | None = None,
    ) -> None:
        self._loop = loop
        self.obs = obs
        self.layout = layout
        self.profile = profile
        self.trajectory = trajectory
        self.config = config if config is not None else ChannelConfig()
        self._shadowing = ShadowingProcess(
            len(layout), self.config.propagation, streams.derive("shadowing")
        )
        self.engine = HandoverEngine(
            len(layout),
            streams.derive("handover"),
            config=self.config.a3,
            het_sampler=self.config.het,
        )
        self.engine.obs = obs
        self._fading_rng = streams.derive("fading")
        self._meas_rng = streams.derive("measurement")
        self._fastfade_rng = streams.derive("fastfade")
        self._outlier_rng = streams.derive("outliers")
        self._fading_db = 0.0
        self._fastfade = np.zeros(len(layout))
        self._shadow = np.zeros(len(layout))
        self._horizon = horizon
        self._tick_index = 0
        self._anchor = 0.0
        self._det: np.ndarray | None = None
        self._loss3d: np.ndarray | None = None
        self._altitudes: np.ndarray | None = None
        self._geo_keys: tuple | None = None
        self._uplink_bps = 1e6
        self._downlink_bps = 10e6
        self._sinr_db = 0.0
        self._outlier_until: float | None = None
        self._post_ho_until: float | None = None
        self._paths: list[NetworkPath] = []
        #: Precomputed per-tick stochastic planes (a
        #: :class:`repro.cellular.batch.TickPlan`); ``None`` means the
        #: per-tick draw path.
        self._plan = None
        #: Shared :class:`repro.cellular.batch.FleetTickState` hoisting
        #: the L3 filter and interference powers across a fleet's
        #: members (``None`` outside fleet-fast runs), plus this
        #: member's row in its stacked planes.
        self._plan_state = None
        self._plan_row = 0
        #: Shared fleet tick driver (``None`` -> self re-arm).
        self._fleet_ticker = None
        self.samples: list[CapacitySample] = []
        self.rssi_log: list[RssiReport] = []
        self.cells_seen: set[int] = set()
        self._last_rssi_time = -1.0
        self._started = False
        self._contention = contention
        self._ue_id = ue_id
        #: Mirror of this UE's attached cell — ``attach`` is a no-op
        #: when the serving cell is unchanged, so the call is skipped
        #: entirely on the (overwhelmingly common) steady-state tick.
        self._attached_cell = -1
        self._share_ul = 1.0
        self._congestion_t0: float | None = None
        self._congestion_min = 1.0
        #: Simulated seconds this session spent below the congestion
        #: share threshold (accumulated even without a recorder).
        self.congestion_time = 0.0
        if contention is not None:
            contention.register(
                ue_id,
                demand_ul_bps=uplink_demand_bps,
                demand_dl_bps=downlink_demand_bps,
            )
        #: Streaming low-side detector over uplink capacity: marks
        #: capacity-dip episodes as trace spans for root-cause
        #: attribution (fed at the 10 Hz measurement rate).
        self.capacity_dip = EwmaZScore(
            obs, names.CHANNEL_CAPACITY_DIP, direction=-1.0, warmup=50,
            min_delta=3e6,
        )

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_path(self, path: NetworkPath) -> None:
        """Register a path whose outage state this channel controls."""
        self._paths.append(path)

    def uplink_rate(self, now: float) -> float:
        """Instantaneous uplink capacity in bits/s (rate_fn for paths)."""
        return self._uplink_bps

    def downlink_rate(self, now: float) -> float:
        """Instantaneous downlink capacity in bits/s."""
        return self._downlink_bps

    def install_plan(
        self, plan, *, state=None, row: int = 0, ticker=None
    ) -> None:
        """Install precomputed per-tick stochastic planes.

        ``plan`` is a :class:`repro.cellular.batch.TickPlan` covering
        this channel's whole horizon, built with one block RNG refill
        per stream (see :func:`repro.cellular.batch.build_tick_plans`).
        A planned channel skips the per-tick shadowing/fast-fading/
        measurement/fading draws in :meth:`_tick` and reads the
        precomputed rows instead — bit-identical values, consumed from
        the same derived streams. Must be installed before
        :meth:`start`; ticking past the plan's horizon raises (the
        block refills already consumed the generators, so a scalar
        fallback could not be bit-identical).

        ``state``/``row`` additionally enroll the channel in a shared
        :class:`repro.cellular.batch.FleetTickState`: the L3 filter
        recursion and the interference powers are then advanced once
        per tick for the whole fleet and this member reads row ``row``
        (see :func:`repro.cellular.batch.install_fleet_plans`).
        ``ticker`` hands tick scheduling to a shared
        :class:`repro.cellular.batch.FleetTicker`: after the
        synchronous tick 0 this channel stops re-arming itself and
        the ticker drives every member with one loop event per tick.
        """
        if self._started:
            raise RuntimeError("cannot install a plan on a started channel")
        self._plan = plan
        self._plan_state = state
        self._plan_row = row
        self._fleet_ticker = ticker

    def start(self) -> None:
        """Begin the 10 Hz measurement/update loop."""
        if self._started:
            raise RuntimeError("channel already started")
        self._started = True
        self._anchor = self._loop.now
        self._tick()

    # ------------------------------------------------------------------
    # precomputed geometry
    # ------------------------------------------------------------------
    def _geometry_row(self, k: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Deterministic ``(rsrp_det, loss, altitude)`` for tick ``k``."""
        if self._det is None or k >= len(self._det):
            self._extend_geometry(k)
        return self._det[k], self._loss3d[k], float(self._altitudes[k])

    def _extend_geometry(self, k: int) -> None:
        if self._geo_keys is None:
            traj_key, offset = self.trajectory.geometry_key()
            self._geo_keys = (
                traj_key,
                offset,
                tuple(
                    (c.cell_id, c.x, c.y, c.height, c.tx_power_dbm, c.downtilt_deg)
                    for c in self.layout.cells
                ),
                dataclasses.astuple(self.config.propagation),
            )
        start = 0 if self._det is None else len(self._det)
        if start == 0 and self._horizon is not None:
            # +2: one tick at t=0 plus a guard row at the boundary.
            n = max(int(math.ceil(self._horizon / MEASUREMENT_PERIOD)) + 2, k + 1)
        else:
            n = max(_GEO_CHUNK_TICKS, k + 1 - start)
        det, loss, alts = _tick_geometry(
            *self._geo_keys, self._anchor, start, n
        )
        if start == 0:
            self._det, self._loss3d, self._altitudes = det, loss, alts
        else:
            self._det = np.concatenate([self._det, det])
            self._loss3d = np.concatenate([self._loss3d, loss])
            self._altitudes = np.concatenate([self._altitudes, alts])

    # ------------------------------------------------------------------
    # per-tick update
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self._loop.now
        plan = self._plan
        state = None
        if plan is None:
            det_row, loss_row, altitude = self._geometry_row(self._tick_index)
            shadow = self._shadowing.sample(now, altitude)
            frac = min(altitude / 40.0, 1.0)
            noise_std = self.config.meas_noise_ground_db + frac * (
                self.config.meas_noise_air_db - self.config.meas_noise_ground_db
            )
            rho = math.exp(
                -MEASUREMENT_PERIOD / self.config.air_fastfade_corr_time
            )
            self._fastfade = rho * self._fastfade + math.sqrt(
                1 - rho * rho
            ) * self._fastfade_rng.normal(0.0, 1.0, size=self._fastfade.shape)
            rsrp = (
                det_row
                + shadow
                + self._meas_rng.normal(0.0, noise_std, size=det_row.shape)
                + frac * self.config.air_fastfade_std_db * self._fastfade
            )
        else:
            # Planned tick: every stochastic plane was precomputed by
            # build_tick_plans with one block refill per stream —
            # bit-identical values, no per-tick draws. The outlier
            # stream below stays live (its draws are altitude-gated and
            # cannot be counted ahead of time).
            k = self._tick_index
            if k >= len(plan.rsrp):
                raise RuntimeError(
                    "tick plan exhausted: channel ticked past its planned "
                    "horizon (the block refills already consumed the RNG "
                    "streams, so a scalar fallback cannot be bit-identical)"
                )
            altitude = plan.altitudes[k]
            loss_row = plan.loss[k]
            self._shadow = plan.shadow_db[k]
            self._fastfade = plan.fastfade[k]
            self._fading_db = plan.fading[k]
            state = self._plan_state
            if state is not None:
                # Fleet-fast: the L3 filter recursion and the
                # interference powers advance once per tick for every
                # member (one matrix op each); this member only reads
                # its rows below.
                state.advance(k)
            else:
                rsrp = plan.rsrp[k]
        if self._contention is None:
            event = self.engine.measure(now, rsrp, altitude=altitude)
        elif state is not None:
            ticker = self._fleet_ticker
            if (
                ticker is not None
                and ticker.hint_k == self._tick_index
                and ticker.hint_topo == self._contention._topo_version
            ):
                # The fleet-wide masked argmax from this tick's
                # precompute is still valid (nobody attached since);
                # skip the per-member ranking entirely.
                event = self.engine.measure_prefiltered(
                    now,
                    state.f_matrix[self._plan_row],
                    altitude=altitude,
                    hint=(
                        int(ticker.hint_best[self._plan_row]),
                        float(ticker.hint_margin[self._plan_row]),
                    ),
                )
            else:
                event = self.engine.measure_prefiltered(
                    now,
                    state.f_matrix[self._plan_row],
                    altitude=altitude,
                    offsets=self._contention.offsets(),
                    blocked=self._contention.blocked_cells(self._ue_id),
                )
        else:
            event = self.engine.measure(
                now,
                rsrp,
                altitude=altitude,
                offsets=self._contention.offsets(),
                blocked=self._contention.blocked_cells(self._ue_id),
            )
        if plan is None:
            self._shadow = shadow
        if event is not None:
            self._begin_outage(event.execution_time)
        self.cells_seen.add(self.engine.serving_cell)
        if plan is None:
            self._update_fading(altitude)
        self._update_outliers(now, altitude)
        if state is None:
            uplink, downlink, sinr = self._capacity(now, altitude, loss_row)
        else:
            # Neighbour interference from the hoisted power matrix: a
            # slice-based others-sum replacing np.delete + np.power per
            # member (value-identical; same pattern as run_lockstep,
            # guarded by the fleet fingerprint gates). The ticker
            # precomputes the sums fleet-wide; a member whose serving
            # cell moved this tick recomputes its own.
            sc = self.engine.serving_cell
            ticker = self._fleet_ticker
            if (
                ticker is not None
                and ticker.sums_k == self._tick_index
                and ticker.tick_serving[self._plan_row] == sc
            ):
                others_sum = float(ticker.others_mw[self._plan_row])
            else:
                prow = state.powered[self._plan_row]
                others = np.empty(len(prow) - 1)
                others[:sc] = prow[:sc]
                others[sc:] = prow[sc + 1:]
                others_sum = float(others.sum())
            serving_mw = 10.0 ** (float(self.engine._filtered[sc]) / 10.0)
            ratio = INTERFERENCE_LOAD * others_sum / max(serving_mw, 1e-30)
            uplink, downlink, sinr = self._capacity(
                now, altitude, loss_row, interference_ratio=ratio
            )
        if self._contention is not None:
            uplink, downlink = self._contend(now, uplink, downlink)
        self._uplink_bps = uplink
        self._downlink_bps = downlink
        self._sinr_db = sinr
        serving_rsrp = self.engine.serving_rsrp()
        if self.obs.enabled:
            self.obs.gauge("channel/uplink_bps", uplink)
            self.obs.gauge("channel/downlink_bps", downlink)
            self.obs.observe("channel/sinr_db", sinr, buckets=SINR_BUCKETS)
            self.capacity_dip.update(now, uplink)
        self.samples.append(
            CapacitySample(
                time=now,
                uplink_bps=uplink,
                downlink_bps=downlink,
                serving_cell=self.engine.serving_cell,
                rsrp_dbm=serving_rsrp,
                sinr_db=sinr,
                altitude=altitude,
                in_handover=self.engine.in_handover,
                uplink_share=self._share_ul,
            )
        )
        if now - self._last_rssi_time >= 1.0:
            self._last_rssi_time = now
            self.rssi_log.append(
                RssiReport(
                    time=now,
                    rssi_dbm=serving_rsrp,
                    cell_id=self.engine.serving_cell,
                )
            )
        self._tick_index += 1
        if self._fleet_ticker is not None:
            # The shared FleetTicker drives all subsequent ticks with
            # one loop event for the whole fleet; the last member's
            # synchronous tick 0 arms it.
            if self._tick_index == 1:
                self._fleet_ticker.notify_started(self._anchor)
            return
        # Anchored re-arm (cf. PeriodicTimer): tick k fires at exactly
        # anchor + k * period, so tick times line up with the
        # precomputed geometry rows and never accumulate float drift.
        self._loop.schedule_at(
            self._anchor + self._tick_index * MEASUREMENT_PERIOD, self._tick
        )

    def _begin_outage(self, het: float) -> None:
        if self.config.make_before_break:
            # DAPS: both protocol stacks stay active through the
            # handover; the execution gap does not interrupt the link.
            return
        for path in self._paths:
            path.set_up(False)
        self._post_ho_until = self._loop.now + het + self.config.post_handover_ramp

        def back_up() -> None:
            for path in self._paths:
                path.set_up(True)

        self._loop.call_later(het, back_up)

    # ------------------------------------------------------------------
    # shared-cell contention
    # ------------------------------------------------------------------
    def _contend(
        self, now: float, uplink: float, downlink: float
    ) -> tuple[float, float]:
        """Scale this tick's rates by the granted PRB share.

        A sole occupant is granted share 1.0 in both directions and
        the multiplications are skipped entirely, so an uncontended
        fleet member produces bit-identical rates to the single-
        session path.
        """
        contention = self._contention
        cell = self.engine.serving_cell
        if cell != self._attached_cell:
            contention.attach(self._ue_id, cell)
            self._attached_cell = cell
        contention.update_rates(self._ue_id, uplink, downlink)
        share_ul, share_dl = contention.shares(self._ue_id)
        if share_ul != 1.0:
            uplink = max(uplink * share_ul, 1e4)
        if share_dl != 1.0:
            downlink = max(downlink * share_dl, 1e4)
        self._share_ul = share_ul
        self._track_congestion(now, share_ul)
        return uplink, downlink

    def _track_congestion(self, now: float, share: float) -> None:
        if share < self._contention.config.congestion_share:
            self.congestion_time += MEASUREMENT_PERIOD
            if self._congestion_t0 is None:
                self._congestion_t0 = now
                self._congestion_min = share
            else:
                self._congestion_min = min(self._congestion_min, share)
        elif self._congestion_t0 is not None:
            self._close_congestion(now)

    def _close_congestion(self, end: float) -> None:
        if self.obs.enabled:
            self.obs.span_at(
                names.CELL_CONGESTION,
                self._congestion_t0,
                end,
                cell=self.engine.serving_cell,
                min_share=float(self._congestion_min),
            )
            self.obs.count("channel/congestion_episodes")
        self._congestion_t0 = None
        self._congestion_min = 1.0

    def finish_congestion(self, now: float) -> None:
        """Close a still-open congestion span at session teardown."""
        if self._congestion_t0 is not None:
            self._close_congestion(now)

    def _update_fading(self, altitude: float) -> None:
        rho = math.exp(-MEASUREMENT_PERIOD / self.config.fading_corr_time)
        frac = min(altitude / 40.0, 1.0)
        std = self.config.fading_std_ground_db + frac * (
            self.config.fading_std_air_db - self.config.fading_std_ground_db
        )
        noise = float(self._fading_rng.normal(0.0, 1.0))
        self._fading_db = rho * self._fading_db + math.sqrt(1 - rho * rho) * (
            noise * std
        )

    def _update_outliers(self, now: float, altitude: float) -> None:
        if self._outlier_until is not None and now >= self._outlier_until:
            self._outlier_until = None
        if self._outlier_until is not None:
            return
        excess = altitude - self.config.outlier_altitude
        if excess <= 0:
            return
        rate = self.config.outlier_rate * min(excess / 20.0, 2.0)
        if self._outlier_rng.random() < rate * MEASUREMENT_PERIOD:
            low, high = self.config.outlier_duration_range
            self._outlier_until = now + float(self._outlier_rng.uniform(low, high))
            if self.obs.enabled:
                self.obs.span_at(
                    names.CHANNEL_INTERFERENCE_OUTLIER,
                    now,
                    self._outlier_until,
                    altitude=float(altitude),
                )
                self.obs.count("channel/interference_outliers")

    def _capacity(
        self,
        now: float,
        altitude: float,
        loss_row: np.ndarray,
        interference_ratio: float | None = None,
    ) -> tuple[float, float, float]:
        """Per-tick capacity from the serving cell's link quality.

        ``interference_ratio`` lets the batched executor pass a
        neighbour-interference ratio computed once for a whole seed
        batch (value-identical to the per-call computation below,
        gated by the fingerprint suite); scalar callers leave it
        ``None``.
        """
        filtered = self.engine.filtered_rsrp
        if filtered is None:
            return self._uplink_bps, self._downlink_bps, 0.0
        serving = self.engine.serving_cell
        # Uplink budget: the BS receive antenna is wide in the uplink,
        # so the uplink SNR follows the 3-D path loss to the serving
        # site (plus the serving cell's shadowing and fast fading) —
        # not the down-tilted downlink pattern that drives handovers.
        loss = float(loss_row[serving])
        # The serving cell's aerial fast fading enters the uplink SNR:
        # a handover is usually preceded by the serving cell fading
        # below its neighbours, so capacity dips *before* the A3 event
        # fires — the origin of the paper's pre-handover latency
        # spikes (Fig. 8/9).
        alt_frac = min(altitude / 40.0, 1.0)
        serving_fastfade = (
            alt_frac
            * self.config.air_fastfade_std_db
            * float(self._fastfade[serving])
        )
        snr_db = (
            UL_BUDGET_DB
            - loss
            + 0.5 * float(self._shadow[serving])
            + self._fading_db
            + serving_fastfade
        )
        # Interference rise: in the air many neighbour cells are
        # received nearly as strongly as the serving one, raising the
        # effective interference floor; on the ground the serving cell
        # dominates and the rise is negligible.
        if interference_ratio is None:
            serving_mw = 10.0 ** (float(filtered[serving]) / 10.0)
            others_mw = np.power(10.0, np.delete(filtered, serving) / 10.0)
            interference_ratio = INTERFERENCE_LOAD * float(np.sum(others_mw)) / max(
                serving_mw, 1e-30
            )
        sinr_lin = 10.0 ** (snr_db / 10.0) / (1.0 + interference_ratio)
        sinr_db_eff = 10.0 * math.log10(max(sinr_lin, 1e-6))
        uplink = (
            EFFECTIVE_UL_BANDWIDTH
            * math.log2(1.0 + sinr_lin)
            * self.profile.capacity_scale
        )
        uplink = min(uplink, self.profile.uplink_plan_cap)
        downlink = min(6.0 * uplink, self.profile.downlink_plan_cap)
        # Additional pre-handover degradation while the A3 timer runs:
        # the radio link that is about to hand over is already poor
        # (interference from the overtaking cell).
        pending_age = self.engine.a3_pending_age(now)
        if pending_age > 0.0:
            depth = min(pending_age / self.config.a3.time_to_trigger, 1.0)
            factor = 1.0 - (1.0 - self.config.pre_handover_factor) * depth
            uplink *= factor
            downlink *= factor
        if self._post_ho_until is not None:
            if now < self._post_ho_until:
                uplink *= self.config.post_handover_factor
                downlink *= self.config.post_handover_factor
            else:
                self._post_ho_until = None
        if self._outlier_until is not None:
            uplink *= self.config.outlier_capacity_factor
            downlink *= self.config.outlier_capacity_factor
        return max(uplink, 1e4), max(downlink, 1e4), sinr_db_eff
