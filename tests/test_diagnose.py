"""Tests for repro.obs.diagnose: SLOs, detection, attribution, reports."""

import json
import math

import pytest

from repro.cellular.handover import HetSampler
from repro.core.config import ScenarioConfig
from repro.core.session import run_session
from repro.experiments import ExperimentSettings, run_matrix
from repro.obs import (
    Diagnosis,
    DiagnosisSummary,
    EwmaZScore,
    Recorder,
    Slo,
    SloRegistry,
    TraceEvent,
    TraceSpan,
    Violation,
    WindowedStats,
    attribute,
    causes_from_trace,
    diagnose,
    evaluate_slos,
    samples_from_trace,
    validate_diagnosis,
)
from repro.obs.attribute import Cause
from repro.runner import CampaignRunner


# ----------------------------------------------------------------------
# synthetic trace builders
# ----------------------------------------------------------------------
def config_event(**overrides):
    labels = dict(
        label="synthetic", cc="gcc", seed=1, fps=30.0, duration=30.0,
        target_bps=2e6,
    )
    labels.update(overrides)
    return TraceEvent("session.config", 0.0, labels)


def player_bin(t0, frames=30.0, latency=100.0, gap=33.3, partial=False):
    labels = {
        "t0": float(t0), "frames": float(frames),
        "latency_ms": float(latency), "gap_ms": float(gap),
    }
    if partial:
        labels["partial"] = 1
    return TraceEvent("player.window", float(t0) + 1.0, labels)


def receiver_bin(t0, bytes_=300_000.0, owd=25.0, partial=False):
    labels = {
        "t0": float(t0), "bytes": float(bytes_), "packets": 100.0,
        "owd_max_ms": float(owd),
    }
    if partial:
        labels["partial"] = 1
    return TraceEvent("receiver.window", float(t0) + 1.0, labels)


def steady_trace(n=30, **config_overrides):
    """A healthy session: nominal bins everywhere."""
    trace = [config_event(**config_overrides)]
    for i in range(n):
        trace.append(player_bin(i))
        trace.append(receiver_bin(i))
    return trace


# ----------------------------------------------------------------------
# SLO registry
# ----------------------------------------------------------------------
class TestSlo:
    def test_rejects_bad_op_and_missing_threshold(self):
        with pytest.raises(ValueError):
            Slo(name="x", signal="fps", op="==", threshold=1.0)
        with pytest.raises(ValueError):
            Slo(name="x", signal="fps", op=">=")
        with pytest.raises(ValueError):
            Slo(name="x", signal="fps", op=">=", threshold=1.0, window=0.0)

    def test_threshold_resolves_from_config(self):
        slo = Slo(
            name="bitrate", signal="goodput_bps", op=">=",
            config_key="target_bps", scale=0.8,
        )
        assert slo.resolve_threshold({"target_bps": 2e6}) == pytest.approx(1.6e6)
        assert slo.resolve_threshold({}) is None
        static = Slo(name="s", signal="x", op="<=", threshold=300.0)
        assert static.resolve_threshold({}) == 300.0

    def test_violated_directions(self):
        below = Slo(name="lat", signal="x", op="<=", threshold=300.0)
        assert below.violated(301.0, 300.0)
        assert not below.violated(300.0, 300.0)
        above = Slo(name="fps", signal="x", op=">=", threshold=28.0)
        assert above.violated(27.0, 28.0)
        assert not above.violated(28.0, 28.0)

    def test_registry_defaults_and_duplicates(self):
        registry = SloRegistry.defaults()
        assert {slo.name for slo in registry} == {
            "playback_latency", "stall", "bitrate", "fps",
        }
        with pytest.raises(ValueError):
            registry.add(Slo(name="fps", signal="fps", op=">=", threshold=1.0))
        registry.add(Slo(name="owd", signal="owd_ms", op="<=", threshold=200.0))
        assert len(registry) == 5


# ----------------------------------------------------------------------
# windowed aggregation (online half)
# ----------------------------------------------------------------------
class TestWindowedStats:
    def test_bins_emit_with_empty_fill_and_partial_tail(self):
        recorder = Recorder()
        stats = WindowedStats(
            recorder, "player.window", sums=("frames",), maxes=("latency_ms",)
        )
        stats.add(0.5, (1.0,), (100.0,))
        # Jump over two empty bins: both must still be emitted.
        stats.add(3.2, (1.0,), (50.0,))
        stats.finish(3.7)
        events = [r for r in recorder.trace if r.name == "player.window"]
        assert [event.time for event in events] == [1.0, 2.0, 3.0, 3.7]
        assert events[0].labels["frames"] == 1.0
        assert events[0].labels["latency_ms"] == 100.0
        # Empty bins carry zero sums and omit max signals entirely.
        assert events[1].labels["frames"] == 0.0
        assert "latency_ms" not in events[1].labels
        assert events[2].labels["frames"] == 0.0
        assert events[3].labels["partial"] == 1
        assert events[3].labels["latency_ms"] == 50.0

    def test_finish_without_samples_emits_nothing(self):
        recorder = Recorder()
        stats = WindowedStats(recorder, "receiver.window", sums=("n",))
        stats.finish(10.0)
        assert recorder.trace == []


class TestEwmaZScore:
    def test_episode_opens_and_closes_as_span(self):
        recorder = Recorder()
        detector = EwmaZScore(recorder, "receiver.owd_anomaly", warmup=10)
        for i in range(40):
            detector.update(i * 0.1, 10.0 + (0.01 if i % 2 else -0.01))
        detector.update(5.0, 200.0)
        assert detector.in_episode
        detector.update(5.2, 10.0)
        assert not detector.in_episode
        spans = [r for r in recorder.trace if isinstance(r, TraceSpan)]
        assert len(spans) == 1
        assert spans[0].name == "receiver.owd_anomaly"
        assert spans[0].t0 == pytest.approx(5.0)
        assert spans[0].labels["peak"] == pytest.approx(200.0)

    def test_min_delta_floor_suppresses_micro_jitter(self):
        recorder = Recorder()
        detector = EwmaZScore(
            recorder, "receiver.owd_anomaly", warmup=10, min_delta=50.0
        )
        for i in range(40):
            detector.update(i * 0.1, 10.0 + (0.01 if i % 2 else -0.01))
        # Statistically huge z, but below the absolute floor.
        detector.update(5.0, 20.0)
        assert not detector.in_episode
        assert recorder.trace == []

    def test_finish_closes_open_episode(self):
        recorder = Recorder()
        detector = EwmaZScore(recorder, "receiver.owd_anomaly", warmup=5)
        for i in range(10):
            detector.update(i * 0.1, 10.0 + (0.01 if i % 2 else -0.01))
        detector.update(2.0, 500.0)
        assert detector.in_episode
        detector.finish(3.0)
        spans = [r for r in recorder.trace if isinstance(r, TraceSpan)]
        assert len(spans) == 1 and spans[0].t1 == pytest.approx(3.0)

    def test_never_fires_during_warmup(self):
        recorder = Recorder()
        detector = EwmaZScore(recorder, "receiver.owd_anomaly", warmup=100)
        for i in range(50):
            detector.update(i * 0.1, 1e6 if i % 7 == 0 else 1.0)
        assert recorder.trace == []


# ----------------------------------------------------------------------
# SLO evaluation (offline half)
# ----------------------------------------------------------------------
class TestEvaluateSlos:
    def test_healthy_trace_has_no_violations(self):
        violations, resolved = evaluate_slos(steady_trace(), warmup=5.0)
        assert violations == []
        thresholds = {slo["name"]: slo["threshold"] for slo in resolved}
        assert thresholds["playback_latency"] == 300.0
        assert thresholds["bitrate"] == pytest.approx(1.6e6)
        assert thresholds["fps"] == pytest.approx(28.0)

    def test_latency_spike_detected_with_magnitude(self):
        trace = steady_trace()
        trace[11] = player_bin(5, latency=900.0)  # bins interleave 2/idx
        violations, _ = evaluate_slos(trace, warmup=5.0)
        latency = [v for v in violations if v.slo == "playback_latency"]
        assert len(latency) == 1
        violation = latency[0]
        assert (violation.t0, violation.t1) == (5.0, 6.0)
        assert violation.worst == pytest.approx(900.0)
        assert violation.magnitude == pytest.approx(2.0)
        assert violation.duration == pytest.approx(1.0)

    def test_violation_exactly_at_warmup_boundary_counts(self):
        trace = [config_event()]
        for i in range(20):
            trace.append(player_bin(i, latency=900.0 if i in (4, 5) else 100.0))
        violations, _ = evaluate_slos(trace, warmup=5.0)
        latency = [v for v in violations if v.slo == "playback_latency"]
        # The bin starting exactly at the warmup edge is in; the one
        # before it is out.
        assert len(latency) == 1
        assert (latency[0].t0, latency[0].t1) == (5.0, 6.0)

    def test_back_to_back_violations_coalesce(self):
        trace = [config_event()]
        for i in range(20):
            bad = i in (8, 9, 10)
            trace.append(player_bin(i, latency=700.0 if bad else 100.0))
        violations, _ = evaluate_slos(trace, warmup=5.0)
        latency = [v for v in violations if v.slo == "playback_latency"]
        assert len(latency) == 1
        assert (latency[0].t0, latency[0].t1) == (8.0, 11.0)
        assert latency[0].samples == 3

    def test_separated_violations_stay_distinct(self):
        trace = [config_event()]
        for i in range(20):
            trace.append(player_bin(i, latency=700.0 if i in (8, 12) else 100.0))
        violations, _ = evaluate_slos(trace, warmup=5.0)
        latency = [v for v in violations if v.slo == "playback_latency"]
        assert [(v.t0, v.t1) for v in latency] == [(8.0, 9.0), (12.0, 13.0)]

    def test_rate_slo_uses_mean_and_skips_partial_bins(self):
        trace = [config_event()]
        for i in range(10):
            trace.append(receiver_bin(i, bytes_=100_000.0))  # 0.8 Mbps
        trace.append(receiver_bin(10, bytes_=0.0, partial=True))
        violations, _ = evaluate_slos(trace, warmup=5.0)
        bitrate = [v for v in violations if v.slo == "bitrate"]
        assert len(bitrate) == 1
        # Partial tail bin is excluded, so the violation ends at 10 s.
        assert bitrate[0].t1 == 10.0
        assert bitrate[0].worst == pytest.approx(0.8e6)

    def test_multi_bin_window_aggregates_max(self):
        registry = SloRegistry()
        registry.add(
            Slo(name="lat3", signal="playback_latency_ms", op="<=",
                threshold=300.0, window=3.0)
        )
        trace = [config_event()]
        for i in range(12):
            trace.append(player_bin(i, latency=900.0 if i == 6 else 100.0))
        violations, _ = evaluate_slos(trace, registry, warmup=0.0)
        # Every 3-bin window containing bin 6 violates; they coalesce.
        assert len(violations) == 1
        assert (violations[0].t0, violations[0].t1) == (4.0, 9.0)

    def test_unresolvable_threshold_is_skipped_not_fatal(self):
        trace = [TraceEvent("session.config", 0.0, {"label": "x"})]
        trace += [player_bin(i, frames=1.0) for i in range(10)]
        violations, resolved = evaluate_slos(trace, warmup=0.0)
        assert all(v.slo != "fps" for v in violations)
        fps = next(s for s in resolved if s["name"] == "fps")
        assert fps["threshold"] is None

    def test_samples_from_trace_signals(self):
        samples = samples_from_trace(steady_trace(n=3))
        assert [s.value for s in samples["fps"]] == [30.0, 30.0, 30.0]
        assert [s.value for s in samples["goodput_bps"]] == pytest.approx(
            [2.4e6, 2.4e6, 2.4e6]
        )
        assert [s.value for s in samples["owd_ms"]] == [25.0, 25.0, 25.0]


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------
def latency_violation(t0=10.0, t1=13.0, worst=900.0):
    return Violation(
        slo="playback_latency", component="player",
        signal="playback_latency_ms", op="<=", t0=t0, t1=t1,
        threshold=300.0, worst=worst,
    )


class TestAttribution:
    def test_handover_outranks_cc_rate_cut_for_latency_spike(self):
        trace = [
            TraceSpan(
                "handover.execution", 9.5, 10.2,
                {"source": 3, "target": 5, "het_ms": 700.0},
            ),
            TraceEvent(
                "gcc.rate_decrease", 10.4,
                {"from_bps": 8e6, "to_bps": 4e6, "reason": "delay"},
            ),
        ]
        causes = causes_from_trace(trace)
        assert {c.kind for c in causes} == {"handover", "cc_rate_cut"}
        [attribution] = attribute([latency_violation()], causes)
        assert attribution.primary == "handover"
        kinds = [ranked.cause.kind for ranked in attribution.causes]
        assert kinds == ["handover", "cc_rate_cut"]
        assert attribution.causes[0].score > attribution.causes[1].score

    def test_loss_burst_ranked_first_for_stall(self):
        stall = Violation(
            slo="stall", component="player", signal="interframe_gap_ms",
            op="<=", t0=15.0, t1=16.0, threshold=300.0, worst=800.0,
        )
        trace = [
            TraceSpan("loss.burst", 14.2, 14.6, {"packets": 8, "path": "uplink"}),
            TraceEvent("jitter.gap", 15.1, {"packets": 3, "penalty_ms": 300.0}),
        ]
        [attribution] = attribute([stall], causes_from_trace(trace))
        assert attribution.primary == "loss_burst"

    def test_cause_after_violation_or_too_stale_is_excluded(self):
        causes = [
            Cause(kind="handover", t0=20.0, t1=20.5, magnitude=1.0,
                  detail="later"),
            Cause(kind="handover", t0=2.0, t1=3.0, magnitude=1.0,
                  detail="stale"),
        ]
        [attribution] = attribute(
            [latency_violation(t0=10.0, t1=13.0)], causes, lag_horizon=2.0
        )
        assert attribution.causes == []
        assert attribution.primary == "unexplained"

    def test_lagged_cause_scores_below_overlapping_cause(self):
        overlapping = Cause(kind="loss_burst", t0=10.5, t1=11.0,
                            magnitude=0.5, detail="overlap")
        lagged = Cause(kind="loss_burst", t0=8.0, t1=8.5, magnitude=0.5,
                       detail="lagged")
        [attribution] = attribute([latency_violation()], [lagged, overlapping])
        assert [r.cause.detail for r in attribution.causes] == [
            "overlap", "lagged",
        ]
        assert attribution.causes[1].lag == pytest.approx(1.5)

    def test_ranking_is_deterministic_under_harvest_order(self):
        causes = causes_from_trace([
            TraceSpan("handover.execution", 9.0, 9.8, {"het_ms": 800.0}),
            TraceSpan("channel.capacity_dip", 9.2, 10.5, {"z": 4.0, "peak": 1e6}),
            TraceEvent("gcc.rate_decrease", 9.9, {"from_bps": 8e6, "to_bps": 5e6}),
        ])
        forward = attribute([latency_violation()], causes)
        backward = attribute([latency_violation()], list(reversed(causes)))
        assert ([r.to_dict() for r in forward[0].causes]
                == [r.to_dict() for r in backward[0].causes])

    def test_max_causes_caps_candidate_list(self):
        causes = [
            Cause(kind="cc_rate_cut", t0=10.0 + 0.1 * i, t1=10.0 + 0.1 * i,
                  magnitude=0.5, detail=f"cut {i}")
            for i in range(10)
        ]
        [attribution] = attribute([latency_violation()], causes, max_causes=5)
        assert len(attribution.causes) == 5


# ----------------------------------------------------------------------
# diagnosis + summary
# ----------------------------------------------------------------------
def synthetic_incident_trace():
    """Handover at ~10 s followed by a latency spike in bins 10-12."""
    trace = [config_event()]
    for i in range(25):
        spike = i in (10, 11, 12)
        trace.append(player_bin(i, latency=800.0 if spike else 100.0))
        trace.append(receiver_bin(i))
    trace.append(
        TraceSpan("handover.execution", 9.6, 10.4,
                  {"source": 1, "target": 2, "het_ms": 800.0})
    )
    return trace


class TestDiagnosis:
    def test_diagnose_attributes_injected_handover(self):
        diagnosis = diagnose(synthetic_incident_trace())
        assert diagnosis.label == "synthetic"
        assert diagnosis.duration == 30.0
        latency = [
            a for a in diagnosis.attributions
            if a.violation.slo == "playback_latency"
        ]
        assert len(latency) == 1
        assert latency[0].primary == "handover"

    def test_dict_round_trip_and_schema(self):
        diagnosis = diagnose(synthetic_incident_trace())
        payload = diagnosis.to_dict()
        assert validate_diagnosis(payload) == []
        rebuilt = Diagnosis.from_dict(payload)
        assert rebuilt.to_dict() == payload
        assert json.loads(json.dumps(payload)) == payload

    def test_schema_validation_catches_corruption(self):
        payload = diagnose(synthetic_incident_trace()).to_dict()
        assert validate_diagnosis("nope")
        broken = dict(payload, schema_version=99)
        assert any("schema_version" in e for e in validate_diagnosis(broken))
        broken = json.loads(json.dumps(payload))
        del broken["attributions"][0]["violation"]["threshold"]
        assert validate_diagnosis(broken)

    def test_render_text_and_markdown(self):
        diagnosis = diagnose(synthetic_incident_trace())
        text = diagnosis.render("text")
        assert "playback_latency" in text
        assert "handover" in text
        markdown = diagnosis.render("markdown")
        assert "| SLO | signal |" in markdown
        assert "primary cause" in markdown
        with pytest.raises(ValueError):
            diagnosis.render("html")

    def test_render_healthy_session(self):
        diagnosis = diagnose(steady_trace())
        assert "all SLOs met" in diagnosis.render("text")


class TestDiagnosisSummary:
    def make(self, trace):
        return diagnose(trace).summary()

    def test_counts_and_attribution_fraction(self):
        summary = self.make(synthetic_incident_trace())
        assert summary.sessions == 1
        assert summary.violation_counts["playback_latency"] == 1
        assert summary.attribution_fraction(
            "playback_latency", "handover"
        ) == 1.0
        assert summary.attribution_fraction("playback_latency", "x") == 0.0
        assert summary.attribution_fraction("nope", "handover") == 0.0

    def test_merge_is_order_independent(self):
        a = self.make(synthetic_incident_trace())
        b = self.make(steady_trace())
        c = self.make(synthetic_incident_trace())
        left = DiagnosisSummary()
        for part in (a, b, c):
            left.merge(part)
        right = DiagnosisSummary()
        for part in (c, a, b):
            right.merge(part)
        assert left.to_dict() == right.to_dict()
        assert left.sessions == 3

    def test_dict_round_trip(self):
        summary = self.make(synthetic_incident_trace())
        rebuilt = DiagnosisSummary.from_dict(summary.to_dict())
        assert rebuilt.to_dict() == summary.to_dict()

    def test_render_mentions_primary_cause_shares(self):
        text = self.make(synthetic_incident_trace()).render()
        assert "sessions diagnosed: 1" in text
        assert "handover" in text


# ----------------------------------------------------------------------
# end-to-end: live sessions and campaigns
# ----------------------------------------------------------------------
LONG_HET = HetSampler(
    body_median=1.5, body_sigma=0.01,
    outlier_prob_air=0.0, outlier_prob_ground=0.0,
)


class TestLiveSessionDiagnosis:
    def test_forced_handover_attributed_as_primary_cause(self):
        config = ScenarioConfig(
            cc="gcc", duration=60.0, seed=1, extra={"het": LONG_HET}
        )
        recorder = Recorder()
        result = run_session(config, recorder=recorder)
        payload = result.extra["diagnosis"]
        assert validate_diagnosis(payload) == []
        latency = [
            a for a in payload["attributions"]
            if a["violation"]["slo"] == "playback_latency"
        ]
        assert latency, "1.5 s HETs must break the 300 ms latency SLO"
        assert any(a["primary"] == "handover" for a in latency)

    def test_untraced_run_bit_identical_to_traced(self):
        config = ScenarioConfig(cc="gcc", duration=15.0, seed=5)
        traced = run_session(config, recorder=Recorder())
        plain = run_session(config)
        assert "diagnosis" not in plain.extra
        assert [r.play_time for r in traced.playback] == [
            r.play_time for r in plain.playback
        ]
        assert traced.packets_sent == plain.packets_sent
        assert len(traced.packet_log) == len(plain.packet_log)

    def test_diagnosis_identical_live_and_via_jsonl(self, tmp_path):
        from repro.obs import read_jsonl, write_jsonl

        config = ScenarioConfig(cc="gcc", duration=20.0, seed=2)
        recorder = Recorder()
        result = run_session(config, recorder=recorder)
        path = write_jsonl(tmp_path / "trace.jsonl", recorder)
        trace, registry = read_jsonl(path)
        assert diagnose(trace, registry).to_dict() == result.extra["diagnosis"]


class TestCampaignDiagnosis:
    SETTINGS = ExperimentSettings(duration=12.0, seeds=(1, 2), warmup=2.0)
    CONFIGS = [
        ScenarioConfig(cc="gcc", environment="urban", extra={"het": LONG_HET})
    ]

    def test_runner_merges_diagnosis_order_independently(self):
        with CampaignRunner(1) as serial, CampaignRunner(2) as parallel:
            run_matrix(self.CONFIGS, self.SETTINGS, runner=serial, obs=True)
            run_matrix(self.CONFIGS, self.SETTINGS, runner=parallel, obs=True)
        assert serial.diagnosis.sessions == len(self.SETTINGS.seeds)
        assert serial.diagnosis.to_dict() == parallel.diagnosis.to_dict()

    def test_untraced_campaign_leaves_summary_empty(self):
        with CampaignRunner(1) as runner:
            run_matrix(self.CONFIGS, self.SETTINGS, runner=runner)
        assert runner.diagnosis.sessions == 0
        assert runner.diagnosis.to_dict()["violation_counts"] == {}
