"""Lightweight metrics registry: counters, gauges, histograms.

Metrics are keyed by ``component/name`` plus a label set, e.g.
``gcc/target_bitrate{environment=urban}``. The registry is designed
around the campaign engine's process model:

* instruments are plain Python objects with one mutation method each
  (``inc`` / ``set`` / ``observe``) — cheap enough for per-packet
  call sites when tracing is on, absent entirely when it is off;
* :meth:`MetricsRegistry.snapshot` renders the whole registry to
  plain picklable data, which worker processes attach to their
  :class:`~repro.core.session.SessionResult` records;
* :meth:`MetricsRegistry.merge_snapshot` folds such snapshots back
  into a parent-side registry with order-independent rules (counters
  and histograms sum, gauges keep the maximum), so a campaign merge
  is identical for any worker count or completion order.

Histograms use fixed bucket upper bounds so that quantiles are
mergeable across processes: per-bucket counts add, and quantiles are
recovered by linear interpolation inside the owning bucket.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

#: Default histogram buckets, tuned for millisecond-scale latencies
#: (values in the instrument's own unit; callers pick the unit).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0,
)

LabelItems = tuple[tuple[str, Any], ...]
MetricKey = tuple[str, LabelItems]


def _label_items(labels: dict[str, Any]) -> LabelItems:
    return tuple(sorted(labels.items()))


def format_key(name: str, labels: dict[str, Any]) -> str:
    """Render ``component/name{label=value,...}`` for display/export."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


@dataclass
class Counter:
    """Monotonically increasing count (merge: sum)."""

    name: str
    labels: dict[str, Any] = field(default_factory=dict)
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


@dataclass
class Gauge:
    """Last-written value (merge: maximum, which is order-independent)."""

    name: str
    labels: dict[str, Any] = field(default_factory=dict)
    value: float = math.nan
    maximum: float = math.nan
    updates: int = 0

    def set(self, value: float) -> None:
        """Record the instantaneous value."""
        self.value = float(value)
        if not (self.maximum >= self.value):  # NaN-safe max
            self.maximum = self.value
        self.updates += 1


class Histogram:
    """Fixed-bucket histogram with mergeable quantile estimates.

    Parameters
    ----------
    buckets:
        Strictly increasing upper bounds. Observations above the last
        bound land in an implicit overflow bucket.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "count", "total",
                 "minimum", "maximum")

    def __init__(
        self,
        name: str,
        labels: dict[str, Any] | None = None,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(f"buckets must be strictly increasing: {bounds}")
        self.name = name
        self.labels = dict(labels or {})
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = bisect.bisect_left(self.buckets, value)
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (NaN when empty)."""
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate in [0, 1].

        Exact at the recorded extremes: ``q=0`` returns the minimum
        and ``q=1`` the maximum. Inside a bucket the estimate
        interpolates linearly between the bucket's bounds, clamped to
        the observed min/max so estimates never leave the data range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        if q == 0.0:
            return self.minimum
        if q == 1.0:
            return self.maximum
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = self.buckets[index - 1] if index > 0 else self.minimum
                if index >= len(self.buckets):
                    upper = self.maximum
                else:
                    upper = self.buckets[index]
                fraction = (target - cumulative) / bucket_count
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.minimum), self.maximum)
            cumulative += bucket_count
        return self.maximum

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one.

        Only histograms with identical bucket edges are mergeable:
        per-bucket counts add positionally, so merging across
        different edges would silently misattribute observations.
        Such a merge raises :class:`ValueError` naming both edge sets.
        """
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histogram {format_key(self.name, self.labels)}"
                f": bucket edges differ ({self.buckets} vs {other.buckets})"
            )
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "Histogram":
        """Rebuild a histogram from its snapshot record."""
        histogram = cls(record["name"], record["labels"], record["buckets"])
        counts = list(record["counts"])
        if len(counts) != len(histogram.counts):
            raise ValueError(
                f"cannot rebuild histogram "
                f"{format_key(record['name'], record['labels'])}: "
                f"{len(counts)} bucket counts for "
                f"{len(histogram.counts)} buckets"
            )
        histogram.counts = counts
        histogram.count = record["count"]
        histogram.total = record["total"]
        histogram.minimum = record["min"]
        histogram.maximum = record["max"]
        return histogram


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Keyed store of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._metrics: dict[MetricKey, Metric] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def counter(self, name: str, **labels: Any) -> Counter:
        """Get-or-create the counter ``name{labels}``."""
        return self._instrument(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Get-or-create the gauge ``name{labels}``."""
        return self._instrument(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        """Get-or-create the histogram ``name{labels}``.

        ``buckets`` only applies on first creation; later lookups
        return the existing instrument unchanged.
        """
        key = (name, _label_items(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, labels, buckets)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(
                f"{format_key(name, labels)} already registered as "
                f"{type(metric).__name__}"
            )
        return metric

    def _instrument(self, cls, name: str, labels: dict[str, Any]):
        key = (name, _label_items(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name=name, labels=dict(labels))
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"{format_key(name, labels)} already registered as "
                f"{type(metric).__name__}"
            )
        return metric

    def get(self, name: str, **labels: Any) -> Metric | None:
        """Existing instrument for ``name{labels}``, or ``None``."""
        return self._metrics.get((name, _label_items(labels)))

    # ------------------------------------------------------------------
    # snapshot / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> list[dict[str, Any]]:
        """Plain-data rendering of every instrument (picklable/JSON-able)."""
        records: list[dict[str, Any]] = []
        for metric in self._metrics.values():
            if isinstance(metric, Counter):
                records.append({
                    "kind": "counter", "name": metric.name,
                    "labels": dict(metric.labels), "value": metric.value,
                })
            elif isinstance(metric, Gauge):
                records.append({
                    "kind": "gauge", "name": metric.name,
                    "labels": dict(metric.labels), "value": metric.value,
                    "max": metric.maximum, "updates": metric.updates,
                })
            else:
                records.append({
                    "kind": "histogram", "name": metric.name,
                    "labels": dict(metric.labels),
                    "buckets": list(metric.buckets),
                    "counts": list(metric.counts),
                    "count": metric.count, "total": metric.total,
                    "min": metric.minimum, "max": metric.maximum,
                })
        records.sort(key=lambda r: (r["name"], sorted(r["labels"].items())))
        return records

    def merge_snapshot(self, snapshot: list[dict[str, Any]]) -> None:
        """Fold a :meth:`snapshot` into this registry (order-independent)."""
        for record in snapshot:
            kind = record["kind"]
            name = record["name"]
            labels = record["labels"]
            if kind == "counter":
                self.counter(name, **labels).inc(record["value"])
            elif kind == "gauge":
                gauge = self.gauge(name, **labels)
                merged_max = record.get("max", record["value"])
                if not (gauge.maximum >= merged_max):  # NaN-safe
                    gauge.maximum = merged_max
                # Merge rule: a gauge's merged value is its maximum —
                # "last write" is undefined across processes, max is
                # associative and commutative.
                gauge.value = gauge.maximum
                gauge.updates += record.get("updates", 1)
            elif kind == "histogram":
                histogram = self.histogram(
                    name, buckets=record["buckets"], **labels
                )
                histogram.merge(Histogram.from_record(record))
            else:
                raise ValueError(f"unknown metric kind {kind!r}")

    @classmethod
    def from_snapshot(cls, snapshot: list[dict[str, Any]]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output."""
        registry = cls()
        registry.merge_snapshot(snapshot)
        return registry

    def render(self) -> str:
        """Human-readable one-line-per-metric dump (sorted by key)."""
        lines: list[str] = []
        for record in self.snapshot():
            key = format_key(record["name"], record["labels"])
            if record["kind"] == "counter":
                lines.append(f"{key} = {record['value']:g}")
            elif record["kind"] == "gauge":
                lines.append(
                    f"{key} = {record['value']:g} (max {record['max']:g}, "
                    f"{record['updates']} updates)"
                )
            else:
                histogram = Histogram.from_record(record)
                lines.append(
                    f"{key}: n={histogram.count} mean={histogram.mean:.3g} "
                    f"p50={histogram.quantile(0.5):.3g} "
                    f"p99={histogram.quantile(0.99):.3g} "
                    f"max={histogram.maximum:.3g}"
                )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# vectorized fleet metrics plane
# ---------------------------------------------------------------------------

#: Uplink goodput histogram bounds (bits/second).
RATE_BUCKETS: tuple[float, ...] = (
    0.5e6, 1e6, 2e6, 5e6, 10e6, 20e6, 30e6, 50e6, 75e6, 100e6,
)
#: PRB-share histogram bounds (fraction of a fair cell share).
SHARE_BUCKETS: tuple[float, ...] = (
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)
#: SINR histogram bounds (dB) — same edges as ``channel/sinr_db``.
SINR_DB_BUCKETS: tuple[float, ...] = (
    -10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0,
)


class FleetMetricsPlane:
    """Struct-of-arrays metrics accumulator for a fleet run.

    The metrics tier of a fleet cannot afford per-member
    ``Recorder.observe`` calls (the whole point of the fast path is
    that no per-member Python work scales with N), so this plane keeps
    the per-member instruments as ``(N,)``/``(N, buckets)`` numpy
    arrays and ingests one row set per fleet tick:

    * :meth:`observe_channels` — the vectorized arm: the
      :class:`~repro.cellular.batch.FleetTicker` calls it once per
      tick, after all member ``_tick``s, reading the live per-channel
      state (``_uplink_bps`` / ``_share_ul`` / ``_sinr_db``).
    * :meth:`observe_samples` — the scalar arm: replays the identical
      per-tick ingestion from the members' recorded
      :class:`~repro.cellular.channel.CapacitySample` lists at collect
      time, so a ``fast=False`` (or batch-fallback) run produces a
      **bit-identical** snapshot — the float accumulation order per
      member is the same sequential per-tick add on both arms.

    :meth:`snapshot` renders the arrays in the exact record format of
    :meth:`MetricsRegistry.snapshot` (histogram edges from
    :data:`RATE_BUCKETS` / :data:`SHARE_BUCKETS` /
    :data:`SINR_DB_BUCKETS`), so plane output merges into any
    registry with the standard order-independent rules.

    Congestion accounting mirrors
    ``Channel._track_congestion`` exactly: a tick is congested iff
    its share is **strictly below** ``congestion_share``, and each
    congested tick contributes ``tick_period`` simulated seconds.
    """

    def __init__(
        self,
        n_members: int,
        *,
        congestion_share: float = 0.75,
        tick_period: float = 0.1,
    ) -> None:
        if n_members <= 0:
            raise ValueError(f"n_members must be positive, got {n_members}")
        self.n_members = n_members
        self.congestion_share = float(congestion_share)
        self.tick_period = float(tick_period)
        self.ticks = 0
        #: Wall seconds spent ingesting (the plane's share of the
        #: ``obs.overhead`` self-metric).
        self.overhead_s = 0.0
        # Wall-clock self-accounting only; never feeds sim state.
        self._timer = time.perf_counter  # repro-lint: ignore[RPL001]  # overhead self-metric
        self._congested = np.zeros(n_members, dtype=np.int64)
        # All three instruments share one stacked array set so a tick
        # costs a handful of numpy calls regardless of spec count.
        # The bucket edge counts happen to be equal; the stacking
        # relies on it.
        self._names = ("fleet/uplink_bps", "fleet/uplink_share",
                       "fleet/sinr_db")
        bucket_sets = (RATE_BUCKETS, SHARE_BUCKETS, SINR_DB_BUCKETS)
        edges = len(bucket_sets[0])
        assert all(len(b) == edges for b in bucket_sets)
        self._buckets = np.asarray(bucket_sets, dtype=np.float64)
        self._counts = np.zeros((3, n_members, edges + 1), dtype=np.int64)
        self._total = np.zeros((3, n_members), dtype=np.float64)
        self._min = np.full((3, n_members), np.inf)
        self._max = np.full((3, n_members), -np.inf)
        self._spec_rows = np.arange(3)[:, None]
        self._member_rows = np.arange(n_members)[None, :]
        self._scratch = np.empty((3, n_members), dtype=np.float64)

    # ------------------------------------------------------------------
    # per-tick ingestion
    # ------------------------------------------------------------------
    def _ingest(self, rows: np.ndarray) -> None:
        """Fold one tick's ``(3, N)`` rows (rate, share, sinr) in."""
        # Count of edges strictly below the value == bisect_left ==
        # searchsorted(side='left'), so bucket attribution is
        # identical to Histogram.observe.
        index = (self._buckets[:, :, None] < rows[:, None, :]).sum(axis=1)
        self._counts[self._spec_rows, self._member_rows, index] += 1
        self._total += rows
        np.minimum(self._min, rows, out=self._min)
        np.maximum(self._max, rows, out=self._max)
        self._congested += rows[1] < self.congestion_share
        self.ticks += 1

    def observe_channels(self, channels) -> None:
        """Ingest the live post-tick state of every member channel."""
        timer = self._timer
        start = timer()
        rows = self._scratch
        for i, channel in enumerate(channels):
            rows[0, i] = channel._uplink_bps
            rows[1, i] = channel._share_ul
            rows[2, i] = channel._sinr_db
        self._ingest(rows)
        self.overhead_s += timer() - start

    def observe_samples(self, member_samples) -> None:
        """Replay recorded per-member sample lists, tick by tick.

        ``member_samples`` is one sample sequence per member, all the
        same length (fleet members tick in lockstep). Each tick goes
        through the same :meth:`_ingest` op as the live arm so float
        totals accumulate in the identical order.
        """
        if not member_samples:
            return
        n_ticks = len(member_samples[0])
        for samples in member_samples:
            if len(samples) != n_ticks:
                raise ValueError(
                    "fleet members must have lockstep sample counts: "
                    f"{len(samples)} vs {n_ticks}"
                )
        timer = self._timer
        start = timer()
        rows = self._scratch
        for k in range(n_ticks):
            for i, samples in enumerate(member_samples):
                sample = samples[k]
                rows[0, i] = sample.uplink_bps
                rows[1, i] = sample.uplink_share
                rows[2, i] = sample.sinr_db
            self._ingest(rows)
        self.overhead_s += timer() - start

    # ------------------------------------------------------------------
    # snapshot / fold
    # ------------------------------------------------------------------
    def snapshot(self) -> list[dict[str, Any]]:
        """Render as :meth:`MetricsRegistry.snapshot`-format records."""
        records: list[dict[str, Any]] = []
        for member in range(self.n_members):
            records.append({
                "kind": "counter", "name": "fleet/ticks",
                "labels": {"member": member}, "value": float(self.ticks),
            })
            records.append({
                "kind": "counter", "name": "fleet/congestion_time",
                "labels": {"member": member},
                "value": float(self._congested[member]) * self.tick_period,
            })
            for spec, name in enumerate(self._names):
                records.append({
                    "kind": "histogram", "name": name,
                    "labels": {"member": member},
                    "buckets": [float(b) for b in self._buckets[spec]],
                    "counts": [int(c) for c in self._counts[spec, member]],
                    "count": self.ticks,
                    "total": float(self._total[spec, member]),
                    "min": float(self._min[spec, member]),
                    "max": float(self._max[spec, member]),
                })
        records.sort(key=lambda r: (r["name"], sorted(r["labels"].items())))
        return records

    def fold_into(self, registry: MetricsRegistry) -> None:
        """Merge this plane's snapshot into ``registry``."""
        registry.merge_snapshot(self.snapshot())

