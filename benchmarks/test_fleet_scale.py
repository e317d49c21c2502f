"""Bench: the fleet engine vs the scalar reference fleet at N=64.

A 64-member shared-cell fleet executed two ways over the same config:
``run_reference_fleet`` from ``tests/fleet_oracle.py`` (the scalar
reference — per-member per-tick Python loops, quadratic
``ScalarCellContention.shares``) and ``run_fleet`` (struct-of-arrays
contention with the versioned allocation cache, member-stacked tick
plans, and the shared :class:`~repro.cellular.batch.FleetTicker` that
drives every member's tick from one loop event with fleet-wide A3
hints and batched interference sums).

The shape is pinned, not env-scaled: load balancing is disabled
(``lb_step_db=0``) so members pile onto the strongest cells and stay
there, which is exactly the dense-occupancy regime the paper's fleet
sections care about and the one where the scalar path degrades
quadratically. The encoder is clamped to a constant trickle so the
bench measures the contention/tick machinery, not media work.

Bit-identity is asserted *before* the speedup gate — a fast wrong
answer is worthless — and both arms take the best of several runs so
a single noisy sample on a busy CI machine cannot fail the gate. The
recorded bench time is the ``run_fleet`` arm.

Run from the repository root with ``python -m pytest``, which puts the
root on ``sys.path`` so ``tests.fleet_oracle`` imports.
"""

import time

from repro.cellular.cell import CellCapacityConfig
from repro.core.config import ScenarioConfig
from repro.core.fingerprint import session_fingerprint
from repro.core.fleet import FleetConfig, run_fleet
from tests.fleet_oracle import run_reference_fleet

#: Fixed shape: 64 members, 20 s, minimal media, no load balancing so
#: occupancy concentrates (peak ~43 members on one cell).
BASE = ScenarioConfig(
    cc="static",
    environment="urban",
    platform="air",
    operator="P1",
    seed=7,
    duration=20.0,
    static_bitrate=1e4,
    min_bitrate=1e4,
    max_bitrate=2e4,
    fps=0.5,
)
FLEET = FleetConfig(
    base=BASE,
    num_sessions=64,
    spread_radius=25.0,
    cell_capacity=CellCapacityConfig(max_sessions=64, lb_step_db=0.0),
)

#: Best-of runs per arm: the gate compares minima, which strips
#: scheduler noise without inflating bench wall time too much.
SCALAR_RUNS = 3
FAST_ROUNDS = 4


def test_fleet_scale(benchmark, report):
    scalar_walls = []
    for _ in range(SCALAR_RUNS):
        start = time.perf_counter()  # repro-lint: ignore[RPL001]
        scalar = run_reference_fleet(FLEET)
        scalar_walls.append(time.perf_counter() - start)  # repro-lint: ignore[RPL001]
    scalar_wall = min(scalar_walls)

    fast = benchmark.pedantic(
        lambda: run_fleet(FLEET),
        rounds=FAST_ROUNDS,
        iterations=1,
        warmup_rounds=1,
    )
    fast_wall = benchmark.stats.stats.min

    # Bit-identity first: every member's packet log, plus the fleet
    # occupancy/congestion aggregates, must match the scalar reference.
    assert [session_fingerprint(s) for s in fast.sessions] == [
        session_fingerprint(s) for s in scalar.sessions
    ]
    assert fast.occupancy == scalar.occupancy
    assert fast.peak_occupancy == scalar.peak_occupancy
    assert fast.congestion_time == scalar.congestion_time

    speedup = scalar_wall / fast_wall if fast_wall > 0 else float("inf")
    peak = max(fast.peak_occupancy.values())
    report(
        "fleet_scale",
        "\n".join(
            [
                "Fleet-scale fast path (N=64, 20 s, static CC, shared cells)",
                f"  scalar contention : {scalar_wall:7.3f} s"
                f" (best of {SCALAR_RUNS})",
                f"  vectorized fleet  : {fast_wall:7.3f} s"
                f" (best of {FAST_ROUNDS})",
                f"  speedup           : {speedup:7.2f}x (gate: >= 3.0x)",
                f"  peak co-channel   : {peak} of {FLEET.num_sessions}"
                " members on one cell",
                "  bit-identity      : per-member fingerprints +"
                " occupancy maps equal",
            ]
        ),
    )
    assert speedup >= 3.0
