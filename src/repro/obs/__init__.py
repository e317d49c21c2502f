"""Observability layer: metrics registry + sim-time tracing.

Public surface:

* :class:`MetricsRegistry` with :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` instruments, snapshotable and mergeable across
  worker processes;
* :class:`Recorder` — collects metrics plus sim-time trace spans and
  point events stamped by the event-loop clock;
* :data:`NULL_RECORDER` — the near-zero-cost default every component
  holds; untraced runs pay one ``obs.enabled`` attribute check per
  instrumented site;
* :mod:`repro.obs.names` — one constant per trace record name, shared
  by every emit site and every consumer;
* JSONL export/import (:func:`write_jsonl` / :func:`read_jsonl`) and
  the text timeline (:func:`merge_traces` / :func:`filter_records` /
  :func:`render_timeline`) behind the ``repro trace`` CLI;
* the diagnosis layer (:mod:`repro.obs.slo` / ``detect`` /
  ``attribute`` / ``report``): a declarative :class:`SloRegistry` of
  the paper's RP requirements, sliding-window :class:`Violation`
  detection over per-second trace bins, ranked root-cause
  :class:`Attribution` against handovers / loss bursts / capacity
  dips / CC rate cuts, and :func:`diagnose` tying it together behind
  ``result.extra["diagnosis"]`` and the ``repro diagnose`` CLI.
"""

from repro.obs.attribute import (
    Attribution,
    Cause,
    RankedCause,
    attribute,
    causes_from_trace,
)
from repro.obs.detect import (
    EwmaZScore,
    Violation,
    WindowedStats,
    evaluate_slos,
    samples_from_trace,
)
from repro.obs.export import (
    TraceFollower,
    iter_jsonl_lines,
    read_jsonl,
    record_from_dict,
    trace_to_dicts,
    write_jsonl,
)
from repro.obs.live import (
    CampaignStatusWriter,
    read_status,
    render_status,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    RATE_BUCKETS,
    SHARE_BUCKETS,
    SINR_DB_BUCKETS,
    Counter,
    FleetMetricsPlane,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_key,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    MetricsRecorder,
    NullRecorder,
    ObsLevel,
    Recorder,
    TraceEvent,
    TraceRecord,
    TraceSpan,
    component_of,
)
from repro.obs.report import (
    Diagnosis,
    DiagnosisSummary,
    diagnose,
    validate_diagnosis,
)
from repro.obs.slo import Slo, SloRegistry, rp_slos
from repro.obs.timeline import filter_records, merge_traces, render_timeline

__all__ = [
    "DEFAULT_BUCKETS",
    "NULL_RECORDER",
    "RATE_BUCKETS",
    "SHARE_BUCKETS",
    "SINR_DB_BUCKETS",
    "Attribution",
    "CampaignStatusWriter",
    "Cause",
    "Counter",
    "Diagnosis",
    "DiagnosisSummary",
    "EwmaZScore",
    "FleetMetricsPlane",
    "Gauge",
    "Histogram",
    "MetricsRecorder",
    "MetricsRegistry",
    "NullRecorder",
    "ObsLevel",
    "RankedCause",
    "Recorder",
    "Slo",
    "SloRegistry",
    "TraceEvent",
    "TraceFollower",
    "TraceRecord",
    "TraceSpan",
    "Violation",
    "WindowedStats",
    "attribute",
    "causes_from_trace",
    "component_of",
    "diagnose",
    "evaluate_slos",
    "filter_records",
    "format_key",
    "iter_jsonl_lines",
    "merge_traces",
    "read_jsonl",
    "read_status",
    "record_from_dict",
    "render_status",
    "render_timeline",
    "rp_slos",
    "samples_from_trace",
    "trace_to_dicts",
    "validate_diagnosis",
    "write_jsonl",
]
