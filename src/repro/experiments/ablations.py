"""Ablation experiments for the design choices DESIGN.md calls out.

* SCReAM ack-window 64 vs 256 (Section 4.2.1's fix);
* jitter-buffer depth and the ``drop-on-latency`` strategy (App. A.4);
* A3 handover parameters — hysteresis and time-to-trigger (Section 5,
  "Mitigating influence of HOs on RP");
* deep vs shallow (AQM-like) uplink buffers (bufferbloat discussion).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.render import format_table
from repro.cellular.handover import A3Config
from repro.core.config import ScenarioConfig
from repro.core.session import run_session
from repro.experiments.settings import ExperimentSettings
from repro.metrics.stats import Cdf
from repro.metrics.network import average_goodput, one_way_delays
from repro.util.units import to_megabytes, to_mbps, to_ms
from repro.metrics.video import (
    RP_LATENCY_THRESHOLD,
    StallMetrics,
    playback_latencies,
)


@dataclass
class AckWindowResult:
    """SCReAM ack-window ablation outcome for one window size."""

    ack_window: int
    false_losses_per_minute: float
    goodput_mbps: float
    latency_below_threshold: float


@dataclass
class AckWindowAblation:
    """Comparison across ack-window sizes (paper: 64 vs 256)."""

    results: dict[int, AckWindowResult]

    def render(self) -> str:
        """Text table of the ablation."""
        return format_table(
            ["ack window", "false losses/min", "goodput Mbps", "lat<300ms"],
            [
                [
                    str(r.ack_window),
                    f"{r.false_losses_per_minute:.2f}",
                    f"{r.goodput_mbps:.1f}",
                    f"{r.latency_below_threshold:.2f}",
                ]
                for r in self.results.values()
            ],
            title="SCReAM RFC8888 ack-window ablation (urban, air)",
        )


def ackwindow_ablation(
    settings: ExperimentSettings, *, windows: tuple[int, ...] = (64, 256)
) -> AckWindowAblation:
    """Run SCReAM urban flights with different ack windows."""
    results = {}
    for window in windows:
        false_losses = 0.0
        goodput = []
        latencies: list[float] = []
        for seed in settings.seeds:
            config = ScenarioConfig(
                environment="urban",
                platform="air",
                cc="scream",
                seed=seed,
                duration=settings.duration,
                scream_ack_window=window,
            )
            result = run_session(config)
            false_losses += result.extra.get("false_loss_candidates", 0)
            goodput.append(
                to_mbps(
                    average_goodput(
                        result.packet_log,
                        duration=result.duration,
                        warmup=settings.warmup,
                    )
                )
            )
            latencies.extend(
                record.playback_latency
                for record in result.playback
                if record.play_time >= settings.warmup
            )
        minutes = settings.duration * len(settings.seeds) / 60.0
        cdf = Cdf.from_samples(latencies)
        results[window] = AckWindowResult(
            ack_window=window,
            false_losses_per_minute=false_losses / minutes,
            goodput_mbps=float(np.mean(goodput)),
            latency_below_threshold=cdf.fraction_below(RP_LATENCY_THRESHOLD),
        )
    return AckWindowAblation(results=results)


@dataclass
class JitterBufferPoint:
    """One jitter-buffer configuration's outcome."""

    latency_setting_ms: float
    drop_on_latency: bool
    median_playback_ms: float
    below_threshold: float
    stalls_per_minute: float
    dropped_late: int


@dataclass
class JitterBufferAblation:
    """Buffer-depth and drop-on-latency sweep (App. A.4)."""

    points: list[JitterBufferPoint]

    def render(self) -> str:
        """Text table of the sweep."""
        return format_table(
            ["buffer ms", "drop-on-latency", "median lat ms", "lat<300", "stalls/min", "late drops"],
            [
                [
                    f"{p.latency_setting_ms:.0f}",
                    str(p.drop_on_latency),
                    f"{p.median_playback_ms:.0f}",
                    f"{p.below_threshold:.2f}",
                    f"{p.stalls_per_minute:.2f}",
                    str(p.dropped_late),
                ]
                for p in self.points
            ],
            title="Jitter-buffer ablation (urban, air, static bitrate)",
        )


def jitterbuffer_ablation(
    settings: ExperimentSettings,
    *,
    latencies: tuple[float, ...] = (0.05, 0.10, 0.15, 0.25),
    drop_variants: tuple[bool, ...] = (False, True),
) -> JitterBufferAblation:
    """Sweep jitter-buffer depth and drop strategy on static urban runs."""
    points = []
    for latency in latencies:
        for drop in drop_variants:
            playback_vals: list[float] = []
            stalls = 0.0
            dropped = 0
            for seed in settings.seeds:
                config = ScenarioConfig(
                    environment="urban",
                    platform="air",
                    cc="static",
                    seed=seed,
                    duration=settings.duration,
                    jitter_buffer_latency=latency,
                    jitter_buffer_drop_on_latency=drop,
                )
                result = run_session(config)
                playback = [
                    r for r in result.playback if r.play_time >= settings.warmup
                ]
                playback_vals.extend(playback_latencies(playback))
                stalls += StallMetrics.from_playback(
                    playback, duration=settings.duration - settings.warmup
                ).stall_count
                dropped += result.extra.get("jitter_dropped_late", 0)
            minutes = (settings.duration - settings.warmup) * len(settings.seeds) / 60.0
            cdf = Cdf.from_samples(playback_vals)
            points.append(
                JitterBufferPoint(
                    latency_setting_ms=to_ms(latency),
                    drop_on_latency=drop,
                    median_playback_ms=to_ms(cdf.median),
                    below_threshold=cdf.fraction_below(RP_LATENCY_THRESHOLD),
                    stalls_per_minute=stalls / minutes,
                    dropped_late=dropped,
                )
            )
    return JitterBufferAblation(points=points)


@dataclass
class A3Point:
    """One A3 parameterization's mobility/latency outcome."""

    hysteresis_db: float
    time_to_trigger: float
    ho_per_s: float
    ping_pong: int
    owd_p95_ms: float


@dataclass
class A3Ablation:
    """Handover-parameter sweep (Section 5 discussion)."""

    points: list[A3Point]

    def render(self) -> str:
        """Text table of the sweep."""
        return format_table(
            ["hysteresis dB", "TTT s", "HO/s", "ping-pong", "OWD p95 ms"],
            [
                [
                    f"{p.hysteresis_db:.1f}",
                    f"{p.time_to_trigger:.3f}",
                    f"{p.ho_per_s:.3f}",
                    str(p.ping_pong),
                    f"{p.owd_p95_ms:.0f}",
                ]
                for p in self.points
            ],
            title="A3 handover-parameter ablation (urban, air, static bitrate)",
        )


def a3_ablation(
    settings: ExperimentSettings,
    *,
    variants: tuple[tuple[float, float], ...] = (
        (1.0, 0.128),
        (3.0, 0.256),
        (6.0, 0.512),
    ),
) -> A3Ablation:
    """Sweep hysteresis/TTT and observe HO churn vs latency."""
    points = []
    for hysteresis, ttt in variants:
        handovers = 0
        ping_pong = 0
        delays: list[float] = []
        for seed in settings.seeds:
            config = ScenarioConfig(
                environment="urban",
                platform="air",
                cc="static",
                seed=seed,
                duration=settings.duration,
                a3=A3Config(hysteresis_db=hysteresis, time_to_trigger=ttt),
            )
            result = run_session(config)
            handovers += len(result.handovers)
            ping_pong += result.extra.get("ping_pong_handovers", 0)
            delays.extend(one_way_delays(result.packet_log))
        points.append(
            A3Point(
                hysteresis_db=hysteresis,
                time_to_trigger=ttt,
                ho_per_s=handovers / (settings.duration * len(settings.seeds)),
                ping_pong=ping_pong,
                owd_p95_ms=to_ms(float(np.percentile(delays, 95))),
            )
        )
    return A3Ablation(points=points)


@dataclass
class BufferPoint:
    """One uplink-buffer depth's latency/loss trade-off."""

    buffer_bytes: int
    owd_p99_ms: float
    loss_rate: float
    latency_below_threshold: float


@dataclass
class BufferAblation:
    """Deep vs shallow uplink buffers (bufferbloat, Section 5)."""

    points: list[BufferPoint]

    def render(self) -> str:
        """Text table of the sweep."""
        return format_table(
            ["buffer MB", "OWD p99 ms", "loss", "lat<300"],
            [
                [
                    f"{to_megabytes(p.buffer_bytes):.1f}",
                    f"{p.owd_p99_ms:.0f}",
                    f"{p.loss_rate * 100:.2f}%",
                    f"{p.latency_below_threshold:.2f}",
                ]
                for p in self.points
            ],
            title="Uplink buffer-depth ablation (urban, air, static bitrate)",
        )


def buffer_ablation(
    settings: ExperimentSettings,
    *,
    buffers: tuple[int, ...] = (250_000, 1_000_000, 6_000_000),
) -> BufferAblation:
    """Sweep the radio buffer depth on static urban runs."""
    points = []
    for buffer_bytes in buffers:
        delays: list[float] = []
        playback_vals: list[float] = []
        lost = 0
        sent = 0
        for seed in settings.seeds:
            config = ScenarioConfig(
                environment="urban",
                platform="air",
                cc="static",
                seed=seed,
                duration=settings.duration,
                uplink_buffer_bytes=buffer_bytes,
            )
            result = run_session(config)
            delays.extend(one_way_delays(result.packet_log))
            playback_vals.extend(
                record.playback_latency
                for record in result.playback
                if record.play_time >= settings.warmup
            )
            sent += result.packets_sent
            lost += result.packets_sent - len(result.packet_log)
        cdf = Cdf.from_samples(playback_vals)
        points.append(
            BufferPoint(
                buffer_bytes=buffer_bytes,
                owd_p99_ms=to_ms(float(np.percentile(delays, 99))),
                loss_rate=lost / max(sent, 1),
                latency_below_threshold=cdf.fraction_below(RP_LATENCY_THRESHOLD),
            )
        )
    return BufferAblation(points=points)
