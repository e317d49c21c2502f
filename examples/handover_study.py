#!/usr/bin/env python3
"""Study handover behaviour across altitudes and A3 parameters.

Runs channel-only probes (no video) to characterize the mobility
environment a remote-piloting service faces: handover frequency per
scenario, HET distribution, ping-pong counts, and the effect of
tuning the A3 hysteresis/time-to-trigger for aerial users — the
mitigation direction the paper discusses in Section 5.

Usage::

    python examples/handover_study.py [--duration SECONDS] [--seeds N]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import ScenarioConfig
from repro.analysis import format_table
from repro.cellular.handover import A3Config, HET_SUCCESS_THRESHOLD
from repro.experiments import ExperimentSettings, run_channel_probe
from repro.util.units import to_ms


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=300.0)
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args()

    settings = ExperimentSettings(
        duration=args.duration, seeds=tuple(range(1, args.seeds + 1)), warmup=0.0
    )

    print("Probing the mobility environment (channel only, no video)...")
    rows = []
    for environment in ("urban", "rural"):
        for platform in ("air", "ground"):
            probe = run_channel_probe(
                ScenarioConfig(
                    environment=environment, platform=platform, cc="static"
                ),
                settings,
            )
            hets = np.array(probe.het_values) if probe.het_values else np.array([])
            rows.append(
                [
                    f"{environment}/{platform}",
                    f"{probe.ho_frequency:.3f}",
                    f"{to_ms(np.median(hets)):.0f}" if hets.size else "-",
                    f"{to_ms(np.max(hets)):.0f}" if hets.size else "-",
                    f"{np.mean(hets <= HET_SUCCESS_THRESHOLD) * 100:.0f}%"
                    if hets.size
                    else "-",
                    str(probe.ping_pong),
                ]
            )
    print(
        format_table(
            ["scenario", "HO/s", "HET med ms", "HET max ms", "HET ok", "ping-pong"],
            rows,
            title="Mobility per scenario (cf. Fig. 4)",
        )
    )

    print("\nTuning A3 parameters for aerial use (urban flights)...")
    rows = []
    for hysteresis, ttt in ((1.0, 0.128), (3.0, 0.256), (6.0, 0.512)):
        probe = run_channel_probe(
            ScenarioConfig(
                environment="urban",
                platform="air",
                cc="static",
                a3=A3Config(hysteresis_db=hysteresis, time_to_trigger=ttt),
            ),
            settings,
        )
        rows.append(
            [
                f"{hysteresis:.0f} dB / {to_ms(ttt):.0f} ms",
                f"{probe.ho_frequency:.3f}",
                str(probe.ping_pong),
                str(probe.cells_seen),
            ]
        )
    print(
        format_table(
            ["hysteresis / TTT", "HO/s", "ping-pong", "cells"],
            rows,
            title="A3 tuning (Section 5: 'Mitigating influence of HOs on RP')",
        )
    )


if __name__ == "__main__":
    main()
