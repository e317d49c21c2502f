"""Integration tests: full measurement sessions end to end."""

import numpy as np
import pytest

from repro import CcAlgorithm, Environment, Platform, ScenarioConfig, run_session
from repro.core.config import STATIC_BITRATE
from repro.cellular.handover import A3Config, HetSampler
from repro.core.session import build_channel_config, build_controller, build_session
from repro.net.simulator import EventLoop
from repro.cc import GccController, ScreamController, StaticBitrateController
from repro.metrics import VideoSummary, network_summary


class TestScenarioConfig:
    def test_string_coercion(self):
        config = ScenarioConfig(environment="rural", platform="ground", cc="gcc")
        assert config.environment is Environment.RURAL
        assert config.platform is Platform.GROUND
        assert config.cc is CcAlgorithm.GCC

    def test_static_bitrate_defaults_per_environment(self):
        urban = ScenarioConfig(environment="urban")
        rural = ScenarioConfig(environment="rural")
        assert urban.effective_static_bitrate == STATIC_BITRATE[Environment.URBAN]
        assert rural.effective_static_bitrate == STATIC_BITRATE[Environment.RURAL]

    def test_explicit_static_bitrate_wins(self):
        config = ScenarioConfig(environment="urban", static_bitrate=12e6)
        assert config.effective_static_bitrate == 12e6

    def test_invalid_operator_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(operator="P9")

    def test_invalid_duration_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(duration=0)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="finite"):
            ScenarioConfig(duration=duration)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field",
        [
            "fps", "static_bitrate", "min_bitrate", "max_bitrate",
            "jitter_buffer_latency", "base_owd", "owd_jitter_std",
            "loss_rate", "loss_mean_burst", "ramp_up_speed",
        ],
    )
    def test_non_finite_float_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ScenarioConfig(**{field: value})

    def test_misspelt_override_field_rejected(self):
        with pytest.raises(TypeError, match="make_before_brake"):
            ScenarioConfig(make_before_brake=True)

    def test_unknown_extra_key_rejected(self):
        with pytest.raises(TypeError, match="make_before_brake"):
            ScenarioConfig(extra={"make_before_brake": True})

    def test_known_extra_keys_accepted(self):
        a3 = A3Config(hysteresis_db=2.0, time_to_trigger=0.1)
        het = HetSampler(outlier_prob_air=0.01)
        config = ScenarioConfig(
            extra={
                "a3": a3,
                "het": het,
                "make_before_break": True,
                "ramp_up_speed": 1e6,
            }
        )
        assert config == ScenarioConfig(
            a3=a3, het=het, make_before_break=True, ramp_up_speed=1e6
        )
        assert "extra" not in vars(config)

    def test_overrides_reach_the_session(self):
        a3 = A3Config(hysteresis_db=2.0, time_to_trigger=0.1)
        het = HetSampler(outlier_prob_air=0.01)
        channel = build_channel_config(
            ScenarioConfig(a3=a3, het=het, make_before_break=True)
        )
        assert (channel.a3, channel.het) == (a3, het)
        assert channel.make_before_break is True
        handles = build_session(
            EventLoop(), ScenarioConfig(cc="scream", ramp_up_speed=1e6)
        )
        assert handles.controller.rate.ramp_up_speed == 1e6

    def test_with_overrides(self):
        config = ScenarioConfig(seed=1)
        other = config.with_overrides(seed=9, duration=10.0)
        assert other.seed == 9 and other.duration == 10.0
        assert config.seed == 1

    def test_label_contains_dimensions(self):
        label = ScenarioConfig(cc="gcc", environment="rural", seed=4).label()
        assert "gcc" in label and "rural" in label and "s4" in label


class TestBuildController:
    def test_static(self):
        config = ScenarioConfig(cc="static", environment="rural")
        controller = build_controller(config)
        assert isinstance(controller, StaticBitrateController)
        assert controller.target_bitrate(0.0) == 8e6

    def test_gcc(self):
        assert isinstance(build_controller(ScenarioConfig(cc="gcc")), GccController)

    def test_scream(self):
        assert isinstance(
            build_controller(ScenarioConfig(cc="scream")), ScreamController
        )


@pytest.fixture(scope="module")
def static_result():
    return run_session(
        ScenarioConfig(cc="static", environment="urban", duration=40.0, seed=6)
    )


@pytest.fixture(scope="module")
def gcc_result():
    return run_session(
        ScenarioConfig(cc="gcc", environment="urban", duration=40.0, seed=6)
    )


@pytest.fixture(scope="module")
def scream_result():
    return run_session(
        ScenarioConfig(cc="scream", environment="urban", duration=40.0, seed=6)
    )


class TestSessionEndToEnd:
    def test_packets_flow(self, static_result):
        assert static_result.packets_sent > 1000
        assert len(static_result.packet_log) > 1000
        assert static_result.packet_loss_rate < 0.05

    def test_video_plays(self, static_result):
        assert len(static_result.playback) > 500
        summary = VideoSummary.from_result(static_result, warmup=5.0)
        assert summary.mean_fps > 20.0
        assert summary.median_ssim > 0.8

    def test_delays_physically_plausible(self, static_result):
        for entry in static_result.packet_log:
            assert entry.received_at > entry.sent_at
            assert entry.received_at - entry.sent_at >= static_result.config.base_owd

    def test_playback_latency_bounded_below_by_pipeline(self, static_result):
        # encode + network + jitter buffer: nothing can play faster.
        floor = static_result.config.base_owd + static_result.config.jitter_buffer_latency
        for record in static_result.playback[5:]:
            assert record.playback_latency > floor * 0.9

    def test_frame_ids_played_in_order(self, static_result):
        ids = [r.frame_id for r in static_result.playback]
        assert ids == sorted(ids)

    def test_network_summary_keys(self, static_result):
        summary = network_summary(static_result)
        assert set(summary) >= {
            "ho_per_s", "owd_median_ms", "goodput_mbps", "loss_rate",
        }

    def test_gcc_adapts_bitrate(self, gcc_result):
        targets = [e.target_bitrate for e in gcc_result.cc_log]
        assert targets, "GCC produced no log entries"
        assert max(targets) > 1.5 * targets[0]  # ramped up from start

    def test_gcc_goodput_below_static(self, static_result, gcc_result):
        static_bytes = sum(e.size_bytes for e in static_result.packet_log)
        gcc_bytes = sum(e.size_bytes for e in gcc_result.packet_log)
        assert gcc_bytes < static_bytes

    def test_scream_keeps_bytes_in_flight_bounded(self, scream_result):
        for entry in scream_result.cc_log:
            assert entry.extra["bytes_in_flight"] <= entry.extra["cwnd"] + 1500

    def test_deterministic_for_seed(self):
        config = ScenarioConfig(cc="static", environment="rural", duration=15.0, seed=3)
        a = run_session(config)
        b = run_session(config)
        assert a.packets_sent == b.packets_sent
        assert len(a.packet_log) == len(b.packet_log)
        assert [r.play_time for r in a.playback] == [r.play_time for r in b.playback]
        assert len(a.handovers) == len(b.handovers)

    def test_different_seeds_differ(self):
        a = run_session(ScenarioConfig(duration=15.0, seed=1))
        b = run_session(ScenarioConfig(duration=15.0, seed=2))
        assert [s.rsrp_dbm for s in a.capacity_samples[:50]] != [
            s.rsrp_dbm for s in b.capacity_samples[:50]
        ]

    def test_ground_platform_runs(self):
        result = run_session(
            ScenarioConfig(cc="static", environment="urban", platform="ground",
                           duration=20.0, seed=5)
        )
        assert all(s.altitude < 5.0 for s in result.capacity_samples)
        assert len(result.playback) > 300

    def test_p2_operator_runs(self):
        result = run_session(
            ScenarioConfig(cc="static", environment="rural", operator="P2",
                           duration=20.0, seed=5)
        )
        assert result.packets_sent > 0

    def test_extra_counters_present(self, scream_result, gcc_result):
        assert "false_loss_candidates" in scream_result.extra
        assert "overuse_events" in gcc_result.extra
        assert "ping_pong_handovers" in scream_result.extra

    def test_rssi_log_coarse(self, static_result):
        times = [r.time for r in static_result.rssi_log]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert min(gaps) >= 0.99  # 1 Hz, as the paper's dongles report


class TestBufferWiring:
    """The downlink path must honour its own (shallow) buffer config."""

    def test_downlink_buffer_field_defaults_shallow(self):
        config = ScenarioConfig()
        assert config.downlink_buffer_bytes < config.uplink_buffer_bytes

    def test_session_wires_separate_buffer_sizes(self, monkeypatch):
        import repro.core.session as session_module
        from repro.net.path import NetworkPath

        captured = []

        class RecordingPath(NetworkPath):
            def __init__(self, *args, **kwargs):
                captured.append(kwargs.get("buffer_bytes"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(session_module, "NetworkPath", RecordingPath)
        config = ScenarioConfig(
            cc="static",
            duration=5.0,
            seed=2,
            uplink_buffer_bytes=4_000_000,
            downlink_buffer_bytes=1_000_000,
        )
        run_session(config)
        assert captured == [4_000_000, 1_000_000]
