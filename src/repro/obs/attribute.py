"""Root-cause attribution: align violations with trace evidence.

The paper's analysis (Fig. 8/9) works by hand: line up a latency spike
with the handover that preceded it, or a stall with a burst-loss
episode. :func:`attribute` automates exactly that alignment. Causal
candidates are harvested from the trace (:func:`causes_from_trace` —
handover executions, loss bursts, capacity dips, CC rate cuts,
bufferbloat / queue anomalies, jitter gaps, player underruns), then
each :class:`Violation` window is matched against every candidate
whose interval overlaps it or ends within a short *lag horizon*
before it; matches are scored by a fixed per-kind prior × temporal
proximity × normalized magnitude and ranked. A violation with no
scoring candidate lands in the explicit ``unexplained`` bucket rather
than being force-matched.

Everything here is pure, deterministic post-processing over an
already-recorded trace — it never runs inside the simulation loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.obs import names
from repro.obs.detect import Violation
from repro.obs.recorder import TraceEvent, TraceRecord, TraceSpan
from repro.util.units import ms, to_mbps, to_ms

# Cause kinds, in prior order. Priors encode the paper's causal
# hierarchy: a handover outage is almost always the dominant cause when it
# overlaps a violation (Fig. 9), a CC rate cut is usually a *symptom*
# of an underlying channel event, and a jitter gap / underrun is the
# proximate mechanism rather than the root cause.
HANDOVER = "handover"
CAPACITY_DIP = "capacity_dip"
CELL_CONGESTION = "cell_congestion"
INTERFERENCE = "interference"
LOSS_BURST = "loss_burst"
BUFFERBLOAT = "bufferbloat"
QUEUE_BLOAT = "queue_bloat"
CC_RATE_CUT = "cc_rate_cut"
JITTER_GAP = "jitter_gap"
UNDERRUN = "underrun"
UNEXPLAINED = "unexplained"

#: Per-kind prior weight (root causes above proximate mechanisms).
CAUSE_PRIORS: dict[str, float] = {
    HANDOVER: 1.0,
    CAPACITY_DIP: 0.9,
    CELL_CONGESTION: 0.88,
    INTERFERENCE: 0.85,
    LOSS_BURST: 0.8,
    BUFFERBLOAT: 0.75,
    QUEUE_BLOAT: 0.7,
    CC_RATE_CUT: 0.6,
    JITTER_GAP: 0.5,
    UNDERRUN: 0.45,
}

#: Default horizon (sim seconds): a cause ending this long before a
#: violation starts can still explain it (propagation + buffering lag).
DEFAULT_LAG_HORIZON = 2.0


@dataclass(frozen=True)
class Cause:
    """One causal candidate harvested from the trace."""

    kind: str
    t0: float
    t1: float
    #: Normalized severity in [0, 1] (how bad this episode was).
    magnitude: float
    #: Human-readable one-liner, e.g. ``"handover 3->7 (het 1.20 s)"``.
    detail: str
    source: str = ""

    def to_dict(self) -> dict[str, Any]:
        """Plain-data rendering (JSON-able)."""
        return {
            "kind": self.kind,
            "t0": self.t0,
            "t1": self.t1,
            "magnitude": self.magnitude,
            "detail": self.detail,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Cause":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            kind=data["kind"],
            t0=data["t0"],
            t1=data["t1"],
            magnitude=data["magnitude"],
            detail=data.get("detail", ""),
            source=data.get("source", ""),
        )


@dataclass(frozen=True)
class RankedCause:
    """A cause scored against one specific violation."""

    cause: Cause
    score: float
    overlap: float
    lag: float

    def to_dict(self) -> dict[str, Any]:
        """Plain-data rendering (JSON-able)."""
        return {
            "cause": self.cause.to_dict(),
            "score": self.score,
            "overlap": self.overlap,
            "lag": self.lag,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RankedCause":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            cause=Cause.from_dict(data["cause"]),
            score=data["score"],
            overlap=data["overlap"],
            lag=data["lag"],
        )


@dataclass
class Attribution:
    """Ranked causal explanation of one violation."""

    violation: Violation
    causes: list[RankedCause] = field(default_factory=list)

    @property
    def primary(self) -> str:
        """Kind of the top-ranked cause (``"unexplained"`` if none)."""
        return self.causes[0].cause.kind if self.causes else UNEXPLAINED

    def to_dict(self) -> dict[str, Any]:
        """Plain-data rendering (JSON-able)."""
        return {
            "violation": self.violation.to_dict(),
            "primary": self.primary,
            "causes": [ranked.to_dict() for ranked in self.causes],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Attribution":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            violation=Violation.from_dict(data["violation"]),
            causes=[
                RankedCause.from_dict(item) for item in data.get("causes", [])
            ],
        )


def _clamp01(value: float) -> float:
    return 0.0 if value < 0.0 else (1.0 if value > 1.0 else value)


# ----------------------------------------------------------------------
# cause harvesting
# ----------------------------------------------------------------------
def causes_from_trace(trace: Iterable[TraceRecord]) -> list[Cause]:
    """Extract every causal candidate the trace records.

    Magnitudes are normalized to [0, 1] per kind (e.g. a handover's
    severity grows with its HET; a rate cut's with its relative drop)
    so cross-kind scores are comparable.
    """
    causes: list[Cause] = []
    for record in trace:
        labels = record.labels
        if isinstance(record, TraceSpan):
            t0, t1 = record.t0, record.t1
            if record.name == names.HANDOVER_EXECUTION:
                het_s = ms(float(labels.get("het_ms", to_ms(t1 - t0))))
                # Pre-handover degradation precedes the outage and
                # post-handover recovery trails it, so widen the
                # causal interval slightly beyond the HET span.
                causes.append(Cause(
                    kind=HANDOVER,
                    t0=t0 - 0.5,
                    t1=t1 + 0.5,
                    magnitude=_clamp01(0.5 + het_s),
                    detail=(
                        f"handover {labels.get('source', '?')}->"
                        f"{labels.get('target', '?')} (het {het_s:.2f} s)"
                    ),
                    source=record.name,
                ))
            elif record.name == names.LOSS_BURST:
                packets = float(labels.get("packets", 1.0))
                causes.append(Cause(
                    kind=LOSS_BURST,
                    t0=t0,
                    t1=t1,
                    magnitude=_clamp01(packets / 10.0),
                    detail=f"loss burst ({int(packets)} pkts"
                           + (f", {labels['path']})" if labels.get("path")
                              else ")"),
                    source=record.name,
                ))
            elif record.name == names.CHANNEL_CAPACITY_DIP:
                causes.append(Cause(
                    kind=CAPACITY_DIP,
                    t0=t0,
                    t1=t1,
                    magnitude=_clamp01(float(labels.get("z", 3.0)) / 6.0),
                    detail=(
                        f"capacity dip (floor "
                        f"{to_mbps(float(labels.get('peak', 0.0))):.2f} Mbps)"
                    ),
                    source=record.name,
                ))
            elif record.name == names.CELL_CONGESTION:
                min_share = float(labels.get("min_share", 1.0))
                causes.append(Cause(
                    kind=CELL_CONGESTION,
                    t0=t0,
                    t1=t1,
                    magnitude=_clamp01(1.0 - min_share),
                    detail=(
                        f"cell {labels.get('cell', '?')} congestion "
                        f"(min PRB share {min_share:.2f})"
                    ),
                    source=record.name,
                ))
            elif record.name == names.CHANNEL_INTERFERENCE_OUTLIER:
                causes.append(Cause(
                    kind=INTERFERENCE,
                    t0=t0,
                    t1=t1,
                    magnitude=0.8,
                    detail="interference outlier episode",
                    source=record.name,
                ))
            elif record.name == names.RECEIVER_OWD_ANOMALY:
                causes.append(Cause(
                    kind=BUFFERBLOAT,
                    t0=t0,
                    t1=t1,
                    magnitude=_clamp01(float(labels.get("z", 3.0)) / 6.0),
                    detail=(
                        f"OWD inflation episode "
                        f"(peak {float(labels.get('peak', 0.0)):.0f} ms)"
                    ),
                    source=record.name,
                ))
            elif record.name == names.SENDER_QUEUE_ANOMALY:
                causes.append(Cause(
                    kind=QUEUE_BLOAT,
                    t0=t0,
                    t1=t1,
                    magnitude=_clamp01(float(labels.get("z", 3.0)) / 6.0),
                    detail=(
                        f"sender queue growth "
                        f"(peak {float(labels.get('peak', 0.0)):.0f} ms)"
                    ),
                    source=record.name,
                ))
        elif isinstance(record, TraceEvent):
            t = record.time
            if record.name in (
                names.GCC_RATE_DECREASE, names.SCREAM_RATE_DECREASE
            ):
                from_bps = float(labels.get("from_bps", 0.0))
                to_bps = float(labels.get("to_bps", from_bps))
                drop = (
                    (from_bps - to_bps) / from_bps if from_bps > 0 else 0.0
                )
                cc = record.name.split(".", 1)[0]
                reason = labels.get("reason", "")
                causes.append(Cause(
                    kind=CC_RATE_CUT,
                    t0=t,
                    t1=t,
                    magnitude=_clamp01(drop * 2.0),
                    detail=(
                        f"{cc} rate cut {to_mbps(from_bps):.2f}->"
                        f"{to_mbps(to_bps):.2f} Mbps"
                        + (f" ({reason})" if reason else "")
                    ),
                    source=record.name,
                ))
            elif record.name == names.JITTER_GAP:
                penalty_ms = float(labels.get("penalty_ms", 0.0))
                causes.append(Cause(
                    kind=JITTER_GAP,
                    t0=t,
                    t1=t + ms(penalty_ms),
                    magnitude=_clamp01(penalty_ms / 500.0),
                    detail=(
                        f"jitter-buffer gap "
                        f"({int(float(labels.get('packets', 0)))} pkts, "
                        f"+{penalty_ms:.0f} ms)"
                    ),
                    source=record.name,
                ))
            elif record.name == names.PLAYER_UNDERRUN:
                causes.append(Cause(
                    kind=UNDERRUN,
                    t0=t,
                    t1=t,
                    magnitude=0.5,
                    detail="player queue underrun",
                    source=record.name,
                ))
    causes.sort(key=lambda cause: (cause.t0, cause.kind))
    return causes


# ----------------------------------------------------------------------
# scoring
# ----------------------------------------------------------------------
def _score(
    violation: Violation, cause: Cause, lag_horizon: float
) -> RankedCause | None:
    """Score one cause against one violation (``None`` if out of range).

    A cause qualifies when its interval overlaps the violation window
    or ends within ``lag_horizon`` before the window starts (channel
    events propagate into playback with buffering delay, never the
    other way round). Score = prior × proximity × magnitude term,
    where proximity is 1 on overlap and decays exponentially with the
    gap, and the magnitude term keeps even a mild overlapping cause
    competitive (floor 0.4).
    """
    if cause.t0 > violation.t1:
        return None  # cause starts after the violation ends
    gap = violation.t0 - cause.t1
    if gap > lag_horizon:
        return None  # cause too stale to explain the violation
    overlap = min(violation.t1, cause.t1) - max(violation.t0, cause.t0)
    if overlap >= 0.0 or gap <= 0.0:
        proximity = 1.0
        lag = 0.0
    else:
        proximity = math.exp(-gap / (lag_horizon / 2.0))
        lag = gap
    prior = CAUSE_PRIORS.get(cause.kind, 0.3)
    score = prior * proximity * (0.4 + 0.6 * _clamp01(cause.magnitude))
    return RankedCause(
        cause=cause,
        score=round(score, 6),
        overlap=max(0.0, overlap),
        lag=lag,
    )


def attribute(
    violations: Sequence[Violation],
    causes: Sequence[Cause],
    *,
    lag_horizon: float = DEFAULT_LAG_HORIZON,
    min_score: float = 0.05,
    max_causes: int = 5,
) -> list[Attribution]:
    """Rank candidate causes for every violation.

    Deterministic: ties break on cause kind then start time, so the
    same trace always yields the same ranking regardless of harvest
    order.
    """
    attributions: list[Attribution] = []
    for violation in violations:
        ranked: list[RankedCause] = []
        for cause in causes:
            scored = _score(violation, cause, lag_horizon)
            if scored is not None and scored.score >= min_score:
                ranked.append(scored)
        ranked.sort(
            key=lambda item: (-item.score, item.cause.kind, item.cause.t0)
        )
        attributions.append(
            Attribution(violation=violation, causes=ranked[:max_causes])
        )
    return attributions
