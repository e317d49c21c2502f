"""Bit-identity gates: every batched/derived execution path must
reproduce the scalar simulator packet-for-packet.

Seven pinned configs span the scenario axes that exercise different
code paths in the batched kernels — CC algorithm (per-run control
state), environment (propagation config), platform (shared air
trajectory vs per-seed ground routes), operator (layout), and the
``extra`` overrides that reshape handover behaviour. For each config
the suite pins:

* batched channel probes == per-seed scalar probes;
* batched sessions (``SweepDrawPlan`` preloads via the runner's batch
  executor) == per-seed scalar ``run_session``;
* an N=1 fleet == the plain session;
* a traced (``Recorder``) session == an untraced one;
* the fleet engine (struct-of-arrays contention + member-stacked tick
  plans + the shared fleet ticker) == the test-side reference fleet
  (:func:`tests.fleet_oracle.run_reference_fleet`: scalar contention,
  per-tick draws), across pinned fleet configs that exercise
  handovers under load balancing, admission caps, and ground routes;
* a metrics-level fleet (``obs="metrics"``, the
  :class:`FleetMetricsPlane` replaying the members' samples) == the
  dark fleet, and its plane snapshot is itself bit-identical between
  the engine and the reference fleet;
* a sample-traced fleet (``trace_members``) == the dark fleet, with
  an unchanged metrics plane, its member traces invariant across the
  engine and the reference fleet, and for N=1 identical to a plain
  traced session.

Comparisons are exact float equality through
:mod:`repro.core.fingerprint` — no tolerances. Any drift here means a
refactor changed draw order or arithmetic, which silently invalidates
every cached campaign result; CI runs this file as its own job.
"""

import pytest

from repro.cellular.cell import CellCapacityConfig
from repro.core.config import ScenarioConfig
from repro.core.fingerprint import probe_fingerprint, session_fingerprint
from repro.core.fleet import FleetConfig, run_fleet
from repro.core.session import run_session
from repro.experiments.probes import channel_probe_batch, channel_probe_seed
from repro.obs import Recorder
from repro.runner import WORK_SESSION, execute_batch, plan_batches
from repro.runner.work import make_unit
from tests.fleet_oracle import run_reference_fleet

#: The seven pinned configs (duration/seed applied per test).
PINNED = {
    "static-urban-air": ScenarioConfig(
        cc="static", environment="urban", platform="air"
    ),
    "gcc-urban-air": ScenarioConfig(
        cc="gcc", environment="urban", platform="air"
    ),
    "scream-urban-ground": ScenarioConfig(
        cc="scream", environment="urban", platform="ground"
    ),
    "static-rural-air": ScenarioConfig(
        cc="static", environment="rural", platform="air"
    ),
    "gcc-rural-ground": ScenarioConfig(
        cc="gcc", environment="rural", platform="ground"
    ),
    "static-urban-air-P2": ScenarioConfig(
        cc="static", environment="urban", platform="air", operator="P2"
    ),
    "gcc-urban-air-mbb": ScenarioConfig(
        cc="gcc",
        environment="urban",
        platform="air",
        extra={"make_before_break": True},
    ),
}

PROBE_SEEDS = (1, 2, 3, 4)
SESSION_SEEDS = (1, 2)
PROBE_DURATION = 60.0
SESSION_DURATION = 10.0


@pytest.mark.parametrize("name", sorted(PINNED))
def test_probe_batch_bit_identical(name):
    configs = [
        PINNED[name].with_overrides(seed=seed, duration=PROBE_DURATION)
        for seed in PROBE_SEEDS
    ]
    scalar = [probe_fingerprint(channel_probe_seed(c)) for c in configs]
    batched = [probe_fingerprint(p) for p in channel_probe_batch(configs)]
    assert batched == scalar


@pytest.mark.parametrize("name", sorted(PINNED))
def test_session_batch_bit_identical(name):
    configs = [
        PINNED[name].with_overrides(seed=seed, duration=SESSION_DURATION)
        for seed in SESSION_SEEDS
    ]
    scalar = [session_fingerprint(run_session(c)) for c in configs]
    units = [make_unit(WORK_SESSION, c) for c in configs]
    plans, leftovers = plan_batches(list(enumerate(units)))
    assert leftovers == [] and len(plans) == 1
    batched = [session_fingerprint(r) for r in execute_batch(plans[0])]
    assert batched == scalar


#: Pinned fleet configs for the fast == scalar contention gate. Axes:
#: load-balancing CIO churn under GCC, admission caps small enough to
#: block cells mid-run (forcing the ticker's per-member fallback), and
#: per-seed ground routes (no shared trajectory cache).
FLEET_PINNED = {
    "gcc-urban-air-n4": dict(
        base=ScenarioConfig(cc="gcc", environment="urban", platform="air"),
        num_sessions=4,
        spread_radius=50.0,
    ),
    "static-rural-air-n6-cap2": dict(
        base=ScenarioConfig(cc="static", environment="rural", platform="air"),
        num_sessions=6,
        spread_radius=30.0,
        cell_capacity=CellCapacityConfig(max_sessions=2),
    ),
    "scream-urban-ground-n3": dict(
        base=ScenarioConfig(
            cc="scream", environment="urban", platform="ground"
        ),
        num_sessions=3,
        spread_radius=80.0,
    ),
}


@pytest.mark.parametrize("name", sorted(FLEET_PINNED))
def test_fleet_fast_bit_identical_to_scalar(name):
    spec = dict(FLEET_PINNED[name])
    spec["base"] = spec["base"].with_overrides(
        seed=3, duration=SESSION_DURATION
    )
    config = FleetConfig(**spec)
    fast = run_fleet(config)
    scalar = run_reference_fleet(config)
    assert [session_fingerprint(s) for s in fast.sessions] == [
        session_fingerprint(s) for s in scalar.sessions
    ]
    assert fast.occupancy == scalar.occupancy
    assert fast.peak_occupancy == scalar.peak_occupancy
    assert fast.congestion_time == scalar.congestion_time


def test_n1_fleet_bit_identical_to_session():
    config = PINNED["static-urban-air"].with_overrides(
        seed=3, duration=SESSION_DURATION
    )
    single = session_fingerprint(run_session(config))
    fleet = run_fleet(FleetConfig(base=config, num_sessions=1))
    assert session_fingerprint(fleet.sessions[0]) == single


def test_traced_session_bit_identical_to_untraced():
    config = PINNED["gcc-urban-air"].with_overrides(
        seed=5, duration=SESSION_DURATION
    )
    untraced = session_fingerprint(run_session(config))
    traced = session_fingerprint(run_session(config, recorder=Recorder()))
    assert traced == untraced


def _fleet_config(name: str) -> FleetConfig:
    spec = dict(FLEET_PINNED[name])
    spec["base"] = spec["base"].with_overrides(
        seed=3, duration=SESSION_DURATION
    )
    return FleetConfig(**spec)


@pytest.mark.parametrize("name", sorted(FLEET_PINNED))
def test_metrics_fleet_bit_identical_to_off(name):
    """obs="metrics" must not perturb a single packet or draw."""
    config = _fleet_config(name)
    dark = run_fleet(config)
    metered = run_fleet(config, obs="metrics")
    assert [session_fingerprint(s) for s in metered.sessions] == [
        session_fingerprint(s) for s in dark.sessions
    ]
    assert metered.occupancy == dark.occupancy
    assert metered.congestion_time == dark.congestion_time


@pytest.mark.parametrize("name", sorted(FLEET_PINNED))
def test_metrics_plane_bit_identical_across_arms(name):
    """The vectorized plane must reproduce the scalar replay exactly.

    Snapshots are exact-equality dicts of float sums/mins/maxs, so any
    reordering of the per-tick ingest arithmetic shows up here.
    """
    config = _fleet_config(name)
    fast = run_fleet(config, obs="metrics")
    scalar = run_reference_fleet(config, obs="metrics")
    fast_plane = [
        r for r in fast.extra["metrics"]
        if r["name"].startswith("fleet/")
    ]
    scalar_plane = [
        r for r in scalar.extra["metrics"]
        if r["name"].startswith("fleet/")
    ]
    assert fast_plane == scalar_plane
    assert fast_plane  # the plane actually recorded something


def test_sampled_trace_fleet_bit_identical_to_off():
    """trace_members must not perturb the untraced members' packets."""
    config = _fleet_config("gcc-urban-air-n4")
    sampled = FleetConfig(
        **{
            **FLEET_PINNED["gcc-urban-air-n4"],
            "base": config.base,
            "trace_members": (1, 3),
        }
    )
    dark = run_fleet(config)
    traced = run_fleet(sampled)
    assert [session_fingerprint(s) for s in traced.sessions] == [
        session_fingerprint(s) for s in dark.sessions
    ]
    assert traced.extra["trace_members"] == [1, 3]


def test_sampled_trace_leaves_metrics_plane_unchanged():
    """trace_members must not change a metrics-level fleet's plane."""
    config = _fleet_config("gcc-urban-air-n4")
    sampled = FleetConfig(
        **{
            **FLEET_PINNED["gcc-urban-air-n4"],
            "base": config.base,
            "trace_members": (1, 3),
        }
    )
    plain = run_fleet(config, obs="metrics")
    traced = run_fleet(sampled, obs="metrics")
    assert [session_fingerprint(s) for s in traced.sessions] == [
        session_fingerprint(s) for s in plain.sessions
    ]
    plain_plane = [
        r for r in plain.extra["metrics"] if r["name"].startswith("fleet/")
    ]
    traced_plane = [
        r for r in traced.extra["metrics"] if r["name"].startswith("fleet/")
    ]
    assert traced_plane == plain_plane
    assert plain_plane
    assert traced.extra["trace_members"] == [1, 3]


def test_sampled_member_trace_invariant_across_arms():
    """A sampled member's full trace must not depend on the arm.

    The traced member is planned in the engine and draws per tick in
    the reference fleet; if the plans or the ticker changed its draw
    order the recorded trace (sim-time stamps included) would drift.
    """
    config = FleetConfig(
        **{
            **FLEET_PINNED["gcc-urban-air-n4"],
            "base": _fleet_config("gcc-urban-air-n4").base,
            "trace_members": (2,),
        }
    )
    fast = run_fleet(config)
    scalar = run_reference_fleet(config)
    assert fast.extra["member_traces"]["2"]["trace"] == (
        scalar.extra["member_traces"]["2"]["trace"]
    )
    assert fast.extra["member_traces"]["2"]["metrics"] == (
        scalar.extra["member_traces"]["2"]["metrics"]
    )


def test_n1_sampled_member_trace_matches_session_trace():
    """An N=1 fleet's sampled member records the session's exact trace.

    The fleet adds one ``fleet.member_sample`` marker and the plain
    session appends its ``obs.overhead`` self-event; everything else —
    every record, stamp and label, in order — must match.
    """
    config = PINNED["static-urban-air"].with_overrides(
        seed=3, duration=SESSION_DURATION
    )
    fleet = run_fleet(
        FleetConfig(base=config, num_sessions=1, trace_members=(0,))
    )
    recorder = Recorder()
    run_session(config, recorder=recorder)
    from repro.obs import trace_to_dicts

    member = [
        r for r in fleet.extra["member_traces"]["0"]["trace"]
        if r["name"] != "fleet.member_sample"
    ]
    session = [
        r for r in trace_to_dicts(recorder.trace)
        if r["name"] != "obs.overhead"
    ]
    assert member == session
