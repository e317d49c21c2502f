"""Tests for the command-and-control traffic subsystem."""

import math

import pytest

from repro import ScenarioConfig
from repro.control import (
    COMMAND_RATE_HZ,
    ControlResult,
    run_control_session,
)


@pytest.fixture(scope="module")
def control_with_video():
    return run_control_session(
        ScenarioConfig(cc="static", environment="urban", duration=40.0, seed=9)
    )


@pytest.fixture(scope="module")
def control_only():
    return run_control_session(
        ScenarioConfig(cc="static", environment="urban", duration=40.0, seed=9),
        with_video=False,
    )


class TestControlSession:
    def test_commands_flow_at_configured_rate(self, control_with_video):
        expected = 40.0 * COMMAND_RATE_HZ
        assert control_with_video.commands_sent == pytest.approx(expected, rel=0.05)
        assert len(control_with_video.command_samples) > 0.9 * expected

    def test_command_latency_far_below_video(self, control_with_video):
        """The related-work gap: control signals are an order of
        magnitude faster than the video stream."""
        cmd = control_with_video.command_latency_ms(50)
        video = control_with_video.video_latency_ms(50)
        assert cmd < 60.0
        assert video > 3 * cmd

    def test_telemetry_shares_uplink_with_video(self, control_with_video):
        assert len(control_with_video.telemetry_samples) > 300
        # Telemetry rides the loaded uplink: its tail is worse than
        # the lightly-used downlink commands'.
        assert control_with_video.telemetry_latency_ms(99) >= (
            control_with_video.command_latency_ms(99) * 0.5
        )

    def test_command_loss_negligible(self, control_with_video):
        assert control_with_video.command_loss_rate < 0.01

    def test_without_video_has_no_playback(self, control_only):
        assert control_only.playback == []
        assert math.isnan(control_only.video_latency_ms(50))

    def test_video_load_inflates_telemetry_latency(
        self, control_with_video, control_only
    ):
        loaded = control_with_video.telemetry_latency_ms(95)
        idle = control_only.telemetry_latency_ms(95)
        assert loaded >= idle * 0.8  # never mysteriously better

    def test_render_lists_flows(self, control_with_video):
        text = control_with_video.render()
        assert "command" in text and "telemetry" in text and "video" in text

    def test_config_reaches_encoder_and_receiver(self, monkeypatch):
        import repro.control.session as control_session

        built = {}
        for name in ("EncoderModel", "VideoReceiver"):
            real = getattr(control_session, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                built[_name] = _real(*args, **kwargs)
                return built[_name]

            monkeypatch.setattr(control_session, name, spy)
        config = ScenarioConfig(
            cc="gcc", duration=2.0, seed=9,
            min_bitrate=1e6, max_bitrate=6e6,
            jitter_buffer_drop_on_latency=True,
        )
        run_control_session(config)
        encoder = built["EncoderModel"]
        assert (encoder.min_bitrate, encoder.max_bitrate) == (1e6, 6e6)
        assert built["VideoReceiver"].jitter_buffer.drop_on_latency is True


class TestControlResultEdgeCases:
    def test_empty_result_latencies_nan(self):
        result = ControlResult(
            config=ScenarioConfig(duration=1.0),
            with_video=False,
            command_samples=[],
            telemetry_samples=[],
            commands_sent=0,
            telemetry_sent=0,
        )
        assert math.isnan(result.command_latency_ms())
        assert result.command_loss_rate == 0.0
