"""Command-and-control (C2) traffic alongside the video stream.

The remote-piloting loop of the paper's Fig. 1 is bidirectional: "the
pilots send command packets to the UAVs and receive video and
telemetry streams in return". The measurement campaign focuses on the
video uplink; the related work it cites (Jin et al.) reports command
latencies of ~30 ms against video latencies of seconds — a gap this
module reproduces: small command datagrams ride the downlink and
telemetry rides the uplink *through the same cellular channel* as the
video, so handover outages and bufferbloat hit all three flows
coherently.

``run_control_session`` runs a standard video session with C2 traffic
injected and reports per-flow latency; with ``with_video=False`` it
isolates the C2 flows (an idle-link baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.render import format_table
from repro.cellular.channel import CellularChannel
from repro.cellular.operators import get_profile
from repro.core.config import ScenarioConfig
from repro.core.receiver import VideoReceiver
from repro.util.units import to_ms
from repro.core.sender import VideoSender
from repro.core.session import (
    build_channel_config,
    build_controller,
    build_trajectory,
)
from repro.net.loss import GilbertElliottLoss
from repro.net.packet import Datagram, reset_datagram_ids
from repro.net.path import NetworkPath
from repro.net.simulator import EventLoop, PeriodicTimer
from repro.util.rng import RngStreams
from repro.video.encoder import EncoderModel
from repro.video.player import PlaybackRecord
from repro.video.source import SourceVideo

#: Command rate from pilot to UAV (joystick updates).
COMMAND_RATE_HZ = 50.0
#: Command datagram size: stick positions + sequence + auth.
COMMAND_BYTES = 96
#: Telemetry rate from UAV to pilot (attitude, GPS, battery).
TELEMETRY_RATE_HZ = 10.0
TELEMETRY_BYTES = 220


@dataclass
class C2Sample:
    """One delivered C2 datagram's latency."""

    sent_at: float
    latency: float


@dataclass
class ControlResult:
    """Latency results of one C2(+video) run."""

    config: ScenarioConfig
    with_video: bool
    command_samples: list[C2Sample]
    telemetry_samples: list[C2Sample]
    commands_sent: int
    telemetry_sent: int
    playback: list[PlaybackRecord] = field(default_factory=list)

    @property
    def command_loss_rate(self) -> float:
        """Fraction of command packets that never arrived."""
        if self.commands_sent == 0:
            return 0.0
        return 1.0 - len(self.command_samples) / self.commands_sent

    def command_latency_ms(self, percentile: float = 50.0) -> float:
        """Command one-way latency percentile in milliseconds."""
        values = [s.latency for s in self.command_samples]
        return to_ms(float(np.percentile(values, percentile))) if values else float("nan")

    def telemetry_latency_ms(self, percentile: float = 50.0) -> float:
        """Telemetry one-way latency percentile in milliseconds."""
        values = [s.latency for s in self.telemetry_samples]
        return to_ms(float(np.percentile(values, percentile))) if values else float("nan")

    def video_latency_ms(self, percentile: float = 50.0) -> float:
        """Video playback latency percentile in milliseconds."""
        values = [r.playback_latency for r in self.playback]
        return to_ms(float(np.percentile(values, percentile))) if values else float("nan")

    def render(self) -> str:
        """Per-flow latency table (cf. the related-work comparison)."""
        rows = [
            [
                "command (pilot->UAV)",
                f"{self.command_latency_ms(50):.0f}",
                f"{self.command_latency_ms(99):.0f}",
                f"{self.command_loss_rate * 100:.2f}%",
            ],
            [
                "telemetry (UAV->pilot)",
                f"{self.telemetry_latency_ms(50):.0f}",
                f"{self.telemetry_latency_ms(99):.0f}",
                "-",
            ],
        ]
        if self.playback:
            rows.append(
                [
                    "video playback",
                    f"{self.video_latency_ms(50):.0f}",
                    f"{self.video_latency_ms(99):.0f}",
                    "-",
                ]
            )
        return format_table(
            ["flow", "median ms", "p99 ms", "loss"],
            rows,
            title=f"C2 + video latency ({self.config.label()})",
        )


def run_control_session(
    config: ScenarioConfig, *, with_video: bool = True
) -> ControlResult:
    """Run commands + telemetry (and optionally video) over one channel."""
    reset_datagram_ids()
    loop = EventLoop()
    streams = RngStreams(config.seed)
    profile = get_profile(config.operator, config.environment.value)
    layout = profile.build_layout(streams.derive("layout"))
    trajectory = build_trajectory(config, streams)
    channel = CellularChannel(
        loop,
        layout,
        profile,
        trajectory,
        streams.child("channel"),
        config=build_channel_config(config),
        horizon=config.duration,
    )

    command_samples: list[C2Sample] = []
    telemetry_samples: list[C2Sample] = []
    receiver_holder: list[VideoReceiver] = []
    counters = {"commands": 0, "telemetry": 0}

    def on_uplink(datagram: Datagram) -> None:
        payload = datagram.payload
        if isinstance(payload, tuple) and payload[0] == "telemetry":
            telemetry_samples.append(
                C2Sample(sent_at=payload[1], latency=loop.now - payload[1])
            )
            return
        if receiver_holder:
            receiver_holder[0].on_datagram(datagram)

    def on_downlink(datagram: Datagram) -> None:
        payload = datagram.payload
        if isinstance(payload, tuple) and payload[0] == "command":
            command_samples.append(
                C2Sample(sent_at=payload[1], latency=loop.now - payload[1])
            )
            return
        if receiver_holder:
            receiver_holder[0].on_feedback_delivered(datagram)

    uplink = NetworkPath(
        loop, channel.uplink_rate, on_uplink,
        base_delay=config.base_owd,
        jitter_std=config.owd_jitter_std,
        loss_model=GilbertElliottLoss.from_rate_and_burst(
            config.loss_rate, config.loss_mean_burst, streams.derive("loss-up")
        ),
        buffer_bytes=config.uplink_buffer_bytes,
        rng=streams.derive("jitter-up"),
    )
    downlink = NetworkPath(
        loop, channel.downlink_rate, on_downlink,
        base_delay=config.base_owd,
        jitter_std=config.owd_jitter_std,
        loss_model=GilbertElliottLoss.from_rate_and_burst(
            config.loss_rate, config.loss_mean_burst, streams.derive("loss-down")
        ),
        buffer_bytes=config.downlink_buffer_bytes,
        rng=streams.derive("jitter-down"),
    )
    channel.attach_path(uplink)
    channel.attach_path(downlink)

    playback: list[PlaybackRecord] = []
    sender = None
    if with_video:
        controller = build_controller(config)
        source = SourceVideo(streams.derive("source"), fps=config.fps)
        encoder = EncoderModel(
            streams.derive("encoder"),
            fps=config.fps,
            min_bitrate=config.min_bitrate,
            max_bitrate=config.max_bitrate,
            initial_bitrate=controller.target_bitrate(0.0),
        )
        sender = VideoSender(loop, source, encoder, controller, uplink)
        receiver = VideoReceiver(
            loop, controller, downlink,
            fps=config.fps,
            jitter_buffer_latency=config.jitter_buffer_latency,
            drop_on_latency=config.jitter_buffer_drop_on_latency,
            scream_ack_window=config.scream_ack_window,
        )
        receiver_holder.append(receiver)

    def send_command() -> None:
        counters["commands"] += 1
        downlink.send(
            Datagram(size_bytes=COMMAND_BYTES, payload=("command", loop.now))
        )

    def send_telemetry() -> None:
        counters["telemetry"] += 1
        uplink.send(
            Datagram(size_bytes=TELEMETRY_BYTES, payload=("telemetry", loop.now))
        )

    channel.start()
    PeriodicTimer(loop, 1.0 / COMMAND_RATE_HZ, send_command)
    PeriodicTimer(loop, 1.0 / TELEMETRY_RATE_HZ, send_telemetry)
    if sender is not None:
        sender.start()
        receiver_holder[0].start()
    loop.run_until(config.duration)
    if sender is not None:
        sender.stop()
        receiver_holder[0].stop()
        playback = receiver_holder[0].player.records

    return ControlResult(
        config=config,
        with_video=with_video,
        command_samples=command_samples,
        telemetry_samples=telemetry_samples,
        commands_sent=counters["commands"],
        telemetry_sent=counters["telemetry"],
        playback=playback,
    )
