"""Bench: metrics-level fleet observability must stay under 10%.

The whole point of the fast-path observability tier (PR 10) is that
``run_fleet(obs="metrics")`` keeps the vectorized tick path — the
:class:`~repro.obs.FleetMetricsPlane` ingests one ``(3, N)`` numpy row
set per fleet tick instead of per-member recorder calls. This bench
gates that claim two ways:

* the run's own ``obs_overhead`` self-accounting (wall seconds spent
  inside plane ingestion over total wall) must be <= 10%;
* the end-to-end wall time of the metered arm, best-of-several, must
  stay within 10% of the dark (``obs`` off) arm.

Bit-identity is asserted *before* either perf gate — the metrics tier
is only admissible at all because it provably records without
perturbing a single packet. The arms are *interleaved* and each takes
the best of its runs, so a load spike on a busy CI machine taxes both
arms alike instead of silently inflating whichever arm it happened to
land on. The order alternates (dark first in even rounds, metered
first in odd ones) and garbage is collected before each arm, so
neither arm always pays for the other's allocations or always runs
on a cold cache. The shape
follows ``test_fleet_scale``: load balancing disabled so members pile
onto the strongest cells (dense occupancy, the regime where per-member
costs hurt most) and a constant-trickle encoder so the bench measures
the tick/ingest machinery, not media work.

Scale: ``REPRO_BENCH_SCALE=quick`` halves the flight for CI smoke.
The member count stays at 32 even there — a fleet small enough for
the plane's one-time collect cost (snapshot + registry fold, a few
milliseconds) to dominate the wall clock would measure fixed costs,
not the per-tick tax the gate is about.
"""

import gc
import os
import time

from repro.cellular.cell import CellCapacityConfig
from repro.core.config import ScenarioConfig
from repro.core.fingerprint import session_fingerprint
from repro.core.fleet import FleetConfig, run_fleet

_QUICK = os.environ.get("REPRO_BENCH_SCALE", "default").lower() == "quick"

#: Pinned shape (env-scaled only in size): minimal media, no load
#: balancing, members concentrated on the strongest cells.
BASE = ScenarioConfig(
    cc="static",
    environment="urban",
    platform="air",
    operator="P1",
    seed=7,
    duration=10.0 if _QUICK else 20.0,
    static_bitrate=1e4,
    min_bitrate=1e4,
    max_bitrate=2e4,
    fps=0.5,
)
FLEET = FleetConfig(
    base=BASE,
    num_sessions=32,
    spread_radius=25.0,
    cell_capacity=CellCapacityConfig(max_sessions=64, lb_step_db=0.0),
)

#: Interleaved rounds: each runs one dark and one metered flight, in
#: alternating order.
ROUNDS = 30

#: The tentpole's hard budget: metrics-level fleet observability may
#: cost at most 10% — both by self-accounting and end to end.
MAX_OVERHEAD_SHARE = 0.10
MAX_WALL_RATIO = 1.10


def test_obs_overhead(benchmark, report):
    run_fleet(FLEET)  # warm caches outside either arm's timing

    dark_walls: list[float] = []
    metered_walls: list[float] = []

    def _timed(walls, **kwargs):
        gc.collect()
        start = time.perf_counter()  # repro-lint: ignore[RPL001]
        fleet = run_fleet(FLEET, **kwargs)
        walls.append(time.perf_counter() - start)  # repro-lint: ignore[RPL001]
        return fleet

    def _round():
        if len(dark_walls) % 2 == 0:
            dark = _timed(dark_walls)
            metered = _timed(metered_walls, obs="metrics")
        else:
            metered = _timed(metered_walls, obs="metrics")
            dark = _timed(dark_walls)
        return dark, metered

    # ``benchmark`` times the whole (dark + metered) round for the
    # report; the gate compares the per-arm splits taken inside the
    # same rounds, so a load spike taxes both arms or neither.
    dark, metered = benchmark.pedantic(_round, rounds=ROUNDS, iterations=1)
    dark_wall = min(dark_walls)
    metered_wall = min(metered_walls)

    # Bit-identity first: a cheap observer that changes the payload is
    # not an observer.
    assert [session_fingerprint(s) for s in metered.sessions] == [
        session_fingerprint(s) for s in dark.sessions
    ]
    assert metered.occupancy == dark.occupancy
    assert metered.congestion_time == dark.congestion_time

    share = metered.extra["obs_overhead"]["share"]
    ratio = metered_wall / dark_wall if dark_wall > 0 else float("inf")
    members = sum(
        1 for record in metered.extra["metrics"]
        if record["name"] == "fleet/ticks"
    )
    report(
        "obs_overhead",
        "\n".join(
            [
                "Fast-path observability overhead "
                f"(N={FLEET.num_sessions}, {BASE.duration:.0f} s, "
                "static CC, shared cells)",
                f"  dark fleet        : {dark_wall:7.3f} s"
                f" (best of {ROUNDS}, alternating)",
                f"  metrics-level     : {metered_wall:7.3f} s"
                f" (best of {ROUNDS}, alternating)",
                f"  wall ratio        : {ratio:7.3f}x"
                f" (gate: <= {MAX_WALL_RATIO:.2f}x)",
                f"  self-accounted    : {share * 100:6.2f} %"
                f" (gate: <= {MAX_OVERHEAD_SHARE * 100:.0f} %)",
                f"  plane coverage    : {members} member instrument rows",
                "  bit-identity      : per-member fingerprints +"
                " occupancy maps equal",
            ]
        ),
    )
    assert share <= MAX_OVERHEAD_SHARE
    assert ratio <= MAX_WALL_RATIO
