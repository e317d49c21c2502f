"""SLO violation detection over window samples + streaming anomalies.

Two halves:

* **Online** (runs inside the session, behind ``if obs.enabled``):
  :class:`WindowedStats` folds a component's per-sample stream into
  fixed one-second sim-time bins and emits one ``<component>.window``
  trace event per completed bin (empty bins included, so outages show
  up as zero-rate windows); :class:`EwmaZScore` is a streaming
  EWMA-mean/variance z-score detector that marks anomaly episodes
  (OWD inflation, sender-queue growth, capacity dips) as trace spans.
  Both are pure arithmetic: they draw no random numbers and schedule
  no events, so an instrumented run stays bit-identical to an
  untraced one.

* **Offline** (:func:`samples_from_trace` / :func:`evaluate_slos`):
  rebuild the per-second signal series from the window events of any
  trace — a live recorder's or a JSONL import's — and slide each
  SLO's window over it, coalescing consecutive violating windows into
  :class:`Violation` records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.obs import names
from repro.obs.recorder import NullRecorder, TraceEvent, TraceRecord
from repro.obs.slo import Slo, SloRegistry
from repro.util.units import bytes_to_bits

#: Width of the base aggregation bins (sim seconds). Window events are
#: emitted on this grid; SLO windows aggregate whole bins.
BASE_WINDOW = 1.0

#: Tolerance when deciding whether two windows touch (coalescing) or
#: whether a bin is partial.
_EPS = 1e-9


# ----------------------------------------------------------------------
# violations
# ----------------------------------------------------------------------
@dataclass
class Violation:
    """One detected SLO violation interval.

    ``worst`` is the most violating signal value inside the interval
    (maximum for ``<=`` objectives, minimum for ``>=``); ``samples``
    counts the violating windows that were coalesced into it.
    """

    slo: str
    component: str
    signal: str
    op: str
    t0: float
    t1: float
    threshold: float
    worst: float
    samples: int = 1

    @property
    def duration(self) -> float:
        """Violation length in sim seconds."""
        return self.t1 - self.t0

    @property
    def magnitude(self) -> float:
        """Relative exceedance of the threshold (0 = at threshold)."""
        scale = max(abs(self.threshold), _EPS)
        return abs(self.worst - self.threshold) / scale

    def to_dict(self) -> dict[str, Any]:
        """Plain-data rendering (JSON-able)."""
        return {
            "slo": self.slo,
            "component": self.component,
            "signal": self.signal,
            "op": self.op,
            "t0": self.t0,
            "t1": self.t1,
            "threshold": self.threshold,
            "worst": self.worst,
            "samples": self.samples,
            "duration": self.duration,
            "magnitude": self.magnitude,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Violation":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            slo=data["slo"],
            component=data["component"],
            signal=data["signal"],
            op=data["op"],
            t0=data["t0"],
            t1=data["t1"],
            threshold=data["threshold"],
            worst=data["worst"],
            samples=int(data.get("samples", 1)),
        )


@dataclass(frozen=True)
class WindowSample:
    """One base-bin observation of a signal."""

    t0: float
    t1: float
    value: float
    partial: bool = False


# ----------------------------------------------------------------------
# online: windowed aggregation emitted as trace events
# ----------------------------------------------------------------------
class WindowedStats:
    """Per-bin sum/max aggregator emitting one trace event per bin.

    Bins are anchored at sim time 0 with :data:`BASE_WINDOW` width.
    ``add`` folds one sample into the current bin; when a sample (or
    :meth:`finish`) crosses into a later bin, every completed bin in
    between is emitted — including empty ones, so a 3-second outage
    produces three zero-sum windows rather than a silent hole. The
    final bin emitted by :meth:`finish` may be shorter than the bin
    width and is tagged ``partial=1``.
    """

    __slots__ = (
        "obs", "name", "width", "_sum_keys", "_max_keys",
        "_sum_vals", "_max_vals", "_index", "_done",
    )

    def __init__(
        self,
        obs: NullRecorder,
        name: str,
        *,
        sums: Sequence[str] = (),
        maxes: Sequence[str] = (),
        width: float = BASE_WINDOW,
    ) -> None:
        self.obs = obs
        self.name = name
        self.width = width
        self._sum_keys = tuple(sums)
        self._max_keys = tuple(maxes)
        self._sum_vals = [0.0] * len(self._sum_keys)
        self._max_vals = [-math.inf] * len(self._max_keys)
        self._index: int | None = None
        self._done = False

    def add(
        self,
        t: float,
        sums: Sequence[float] = (),
        maxes: Sequence[float] = (),
    ) -> None:
        """Fold one sample observed at sim time ``t`` into its bin.

        ``sums`` and ``maxes`` are positional, in the key order given
        at construction — this runs on per-packet paths, so the call
        must not allocate dicts. Pass ``-math.inf`` for a max signal
        absent from this sample.
        """
        if self._done:
            return
        index = int(t / self.width)
        if self._index is None:
            self._index = index
        elif index > self._index:
            self._flush_through(index)
        position = 0
        values = self._sum_vals
        for value in sums:
            values[position] += value
            position += 1
        position = 0
        values = self._max_vals
        for value in maxes:
            if value > values[position]:
                values[position] = value
            position += 1

    def finish(self, t: float) -> None:
        """Emit every remaining bin up to ``t`` (last one partial)."""
        if self._done or self._index is None:
            self._done = True
            return
        index = int(t / self.width)
        self._flush_through(index)
        t0 = self._index * self.width
        if t - t0 > _EPS:
            self._emit(t0, t, partial=True)
        self._done = True

    def _flush_through(self, index: int) -> None:
        while self._index < index:
            t0 = self._index * self.width
            self._emit(t0, t0 + self.width, partial=False)
            self._index += 1

    def _emit(self, t0: float, t1: float, *, partial: bool) -> None:
        labels: dict[str, Any] = {"t0": t0}
        for key, value in zip(self._sum_keys, self._sum_vals):
            labels[key] = value
        for key, value in zip(self._max_keys, self._max_vals):
            if value > -math.inf:
                labels[key] = value
        if partial:
            labels["partial"] = 1
        self.obs.event(self.name, t=t1, **labels)
        self._sum_vals = [0.0] * len(self._sum_keys)
        self._max_vals = [-math.inf] * len(self._max_keys)


class EwmaZScore:
    """Streaming z-score anomaly detector over an EWMA baseline.

    Maintains exponentially weighted estimates of the signal's mean
    and variance; an *episode* opens when the deviation (in the
    configured ``direction``) exceeds ``z_enter`` standard deviations
    and closes when it falls back under ``z_exit``. Each closed
    episode is recorded as one trace span named ``name`` (labels:
    peak value and peak z-score) plus a counter increment, giving the
    attribution engine bufferbloat/queue/capacity evidence that the
    raw per-packet stream is too noisy to show.
    """

    __slots__ = (
        "obs", "name", "alpha", "z_enter", "z_exit", "direction",
        "warmup", "min_std", "min_delta", "_mean", "_var", "_count",
        "_episode_t0", "_peak", "_peak_z",
    )

    def __init__(
        self,
        obs: NullRecorder,
        name: str,
        *,
        alpha: float = 0.05,
        z_enter: float = 3.0,
        z_exit: float = 1.0,
        direction: float = 1.0,
        warmup: int = 30,
        min_std: float = 1e-6,
        min_delta: float = 0.0,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if z_exit > z_enter:
            raise ValueError("z_exit must be <= z_enter")
        self.obs = obs
        self.name = name
        self.alpha = alpha
        self.z_enter = z_enter
        self.z_exit = z_exit
        self.direction = 1.0 if direction >= 0 else -1.0
        self.warmup = warmup
        self.min_std = min_std
        #: Absolute deviation floor (signal units): below it a sample
        #: never opens an episode, however small the running variance —
        #: without it a very quiet baseline turns micro-jitter into a
        #: stream of statistically-significant-but-meaningless episodes.
        self.min_delta = min_delta
        self._mean = 0.0
        self._var = 0.0
        self._count = 0
        self._episode_t0: float | None = None
        self._peak = 0.0
        self._peak_z = 0.0

    @property
    def in_episode(self) -> bool:
        """Whether an anomaly episode is currently open."""
        return self._episode_t0 is not None

    def update(self, t: float, value: float) -> None:
        """Feed one sample observed at sim time ``t``."""
        self._count += 1
        if self._count <= self.warmup:
            # Seed the baseline before detecting anything.
            delta = value - self._mean
            self._mean += delta / self._count
            self._var += (delta * delta - self._var) / self._count
            return
        deviation = self.direction * (value - self._mean)
        if self._episode_t0 is None:
            # Hot path: per-packet feeds where almost every sample is
            # unremarkable. Compare squared deviation against the
            # squared entry bound so the common case pays neither the
            # sqrt nor the division.
            if deviation > 0.0 and deviation >= self.min_delta:
                variance = max(self._var, self.min_std * self.min_std)
                if deviation * deviation > (
                    self.z_enter * self.z_enter * variance
                ):
                    self._episode_t0 = t
                    self._peak = value
                    self._peak_z = deviation / math.sqrt(variance)
        else:
            variance = max(self._var, self.min_std * self.min_std)
            z = deviation / math.sqrt(variance)
            if self.direction * (value - self._peak) > 0:
                self._peak = value
            if z > self._peak_z:
                self._peak_z = z
            if z < self.z_exit:
                self._close(t)
        delta = value - self._mean
        self._mean += self.alpha * delta
        self._var = (1 - self.alpha) * (self._var + self.alpha * delta * delta)

    def finish(self, t: float) -> None:
        """Close an episode left open at session teardown."""
        if self._episode_t0 is not None:
            self._close(t)

    def _close(self, t: float) -> None:
        self.obs.span_at(
            self.name,
            self._episode_t0,
            t,
            peak=self._peak,
            z=round(self._peak_z, 3),
        )
        self.obs.count(self.name.replace(".", "/", 1) + "_episodes")
        self._episode_t0 = None


# ----------------------------------------------------------------------
# offline: rebuild signals from window events and evaluate SLOs
# ----------------------------------------------------------------------
def session_config_labels(trace: Iterable[TraceRecord]) -> dict[str, Any]:
    """Labels of the first ``session.config`` event (empty if absent)."""
    for record in trace:
        if (
            isinstance(record, TraceEvent)
            and record.name == names.SESSION_CONFIG
        ):
            return dict(record.labels)
    return {}


def _bin_bounds(event: TraceEvent) -> tuple[float, float]:
    t1 = event.time
    t0 = float(event.labels.get("t0", t1 - BASE_WINDOW))
    return t0, t1


def samples_from_trace(
    trace: Iterable[TraceRecord],
) -> dict[str, list[WindowSample]]:
    """Per-signal base-bin series rebuilt from window trace events.

    Signals (one sample per emitted bin, in trace order):

    * ``fps`` / ``playback_latency_ms`` / ``interframe_gap_ms`` from
      ``player.window`` events (max signals only where the bin played
      at least one frame);
    * ``goodput_bps`` / ``owd_ms`` from ``receiver.window`` events.
    """
    signals: dict[str, list[WindowSample]] = {
        "fps": [], "playback_latency_ms": [], "interframe_gap_ms": [],
        "goodput_bps": [], "owd_ms": [],
    }
    for record in trace:
        if not isinstance(record, TraceEvent):
            continue
        if record.name == names.PLAYER_WINDOW:
            t0, t1 = _bin_bounds(record)
            width = max(t1 - t0, _EPS)
            partial = bool(record.labels.get("partial"))
            frames = float(record.labels.get("frames", 0.0))
            signals["fps"].append(
                WindowSample(t0, t1, frames / width, partial)
            )
            for key, signal in (
                ("latency_ms", "playback_latency_ms"),
                ("gap_ms", "interframe_gap_ms"),
            ):
                value = record.labels.get(key)
                if value is not None:
                    signals[signal].append(
                        WindowSample(t0, t1, float(value), partial)
                    )
        elif record.name == names.RECEIVER_WINDOW:
            t0, t1 = _bin_bounds(record)
            width = max(t1 - t0, _EPS)
            partial = bool(record.labels.get("partial"))
            signals["goodput_bps"].append(
                WindowSample(
                    t0, t1,
                    bytes_to_bits(float(record.labels.get("bytes", 0.0))) / width,
                    partial,
                )
            )
            owd = record.labels.get("owd_max_ms")
            if owd is not None:
                signals["owd_ms"].append(
                    WindowSample(t0, t1, float(owd), partial)
                )
    return signals


def evaluate_slo(
    slo: Slo,
    samples: Sequence[WindowSample],
    threshold: float,
    *,
    warmup: float = 0.0,
) -> list[Violation]:
    """Slide ``slo``'s window over ``samples`` and coalesce violations.

    The SLO window aggregates ``round(window / BASE_WINDOW)``
    consecutive base bins (maximum for ``<=`` objectives, mean for
    ``>=`` rate objectives), sliding one bin at a time. Consecutive or
    overlapping violating windows merge into a single
    :class:`Violation`; a window starting exactly where the previous
    violation ends extends it (boundary inclusive).
    """
    kept = [
        sample for sample in samples
        if sample.t0 >= warmup - _EPS
        and not (slo.skip_partial and sample.partial)
    ]
    if not kept:
        return []
    n = max(1, round(slo.window / BASE_WINDOW))
    violations: list[Violation] = []
    for start in range(len(kept) - n + 1):
        group = kept[start:start + n]
        # Only aggregate genuinely consecutive bins.
        contiguous = all(
            abs(a.t1 - b.t0) <= _EPS for a, b in zip(group, group[1:])
        )
        if not contiguous:
            continue
        if slo.op == "<=":
            value = max(sample.value for sample in group)
        else:
            value = sum(sample.value for sample in group) / len(group)
        if not slo.violated(value, threshold):
            continue
        t0, t1 = group[0].t0, group[-1].t1
        last = violations[-1] if violations else None
        if last is not None and t0 <= last.t1 + _EPS:
            last.t1 = max(last.t1, t1)
            last.samples += 1
            if slo.op == "<=":
                last.worst = max(last.worst, value)
            else:
                last.worst = min(last.worst, value)
        else:
            violations.append(
                Violation(
                    slo=slo.name,
                    component=slo.component,
                    signal=slo.signal,
                    op=slo.op,
                    t0=t0,
                    t1=t1,
                    threshold=threshold,
                    worst=value,
                )
            )
    return violations


def evaluate_slos(
    trace: Iterable[TraceRecord],
    slos: SloRegistry | None = None,
    *,
    warmup: float = 0.0,
    config_labels: dict[str, Any] | None = None,
) -> tuple[list[Violation], list[dict[str, Any]]]:
    """Evaluate a registry of SLOs against one trace.

    Returns ``(violations, resolved_slos)`` where ``resolved_slos``
    is the plain-data SLO table with per-session thresholds filled in
    (SLOs whose threshold cannot be resolved are listed with
    ``threshold: None`` and skipped).
    """
    registry = slos if slos is not None else SloRegistry.defaults()
    trace = list(trace)
    labels = (
        config_labels if config_labels is not None
        else session_config_labels(trace)
    )
    samples = samples_from_trace(trace)
    violations: list[Violation] = []
    resolved: list[dict[str, Any]] = []
    for slo in registry:
        threshold = slo.resolve_threshold(labels)
        resolved.append(slo.to_dict(threshold))
        if threshold is None:
            continue
        violations.extend(
            evaluate_slo(
                slo, samples.get(slo.signal, ()), threshold, warmup=warmup
            )
        )
    violations.sort(key=lambda v: (v.t0, v.slo))
    return violations, resolved
