"""Scenario configuration — the public entry point's vocabulary.

A :class:`ScenarioConfig` describes one measurement run the way the
paper parameterizes them: environment (urban/rural), platform (air =
UAV flight, ground = motorbike), operator (P1/P2), bitrate-control
method (gcc/scream/static) and a seed. Everything else has paper-
matched defaults but stays overridable for ablations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Any


class Environment(enum.Enum):
    """Measurement area."""

    URBAN = "urban"
    RURAL = "rural"


class Platform(enum.Enum):
    """Whether the UE flies the Fig. 11 trajectory or drives on the ground."""

    AIR = "air"
    GROUND = "ground"


class CcAlgorithm(enum.Enum):
    """Bitrate-control method of the video workload."""

    GCC = "gcc"
    SCREAM = "scream"
    STATIC = "static"


#: Static bitrates the paper hand-picked per environment (Section 3.2).
STATIC_BITRATE = {
    Environment.URBAN: 25e6,
    Environment.RURAL: 8e6,
}

#: Encoder operating range (Section 3.2: 2-25 Mbps H.264).
MIN_BITRATE = 2e6
MAX_BITRATE = 25e6

#: The ablation overrides ``ScenarioConfig.extra`` may carry (read by
#: :func:`repro.core.session.build_session`).
EXTRA_KEYS = frozenset({"a3", "het", "make_before_break", "ramp_up_speed"})


@dataclass
class ScenarioConfig:
    """Full description of one simulated measurement run.

    Attributes mirror the paper's setup; see DESIGN.md for the
    mapping. ``extra`` carries ablation overrides (the keys in
    :data:`EXTRA_KEYS`, e.g. A3 parameters) without widening this
    signature; any other key is rejected.
    """

    environment: Environment = Environment.URBAN
    platform: Platform = Platform.AIR
    operator: str = "P1"
    cc: CcAlgorithm = CcAlgorithm.STATIC
    seed: int = 1
    duration: float = 360.0  # one flight, ~6 min air time
    fps: float = 30.0
    static_bitrate: float | None = None  # default: paper value per env
    min_bitrate: float = MIN_BITRATE
    max_bitrate: float = MAX_BITRATE
    jitter_buffer_latency: float = 0.150
    jitter_buffer_drop_on_latency: bool = False
    scream_ack_window: int = 256  # the paper's mitigated setting
    base_owd: float = 0.018  # one-way WAN/core delay to AWS (s)
    owd_jitter_std: float = 0.0005
    uplink_buffer_bytes: int = 8_000_000  # deep LTE buffers (bufferbloat)
    # LTE downlink schedulers drain to the UE without the uplink's deep
    # bufferbloated queues; the feedback path only needs a shallow buffer.
    downlink_buffer_bytes: int = 3_000_000
    loss_rate: float = 0.00065  # paper: PER 0.06-0.07 %
    loss_mean_burst: float = 3.0  # drops arrive consecutively
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if isinstance(self.environment, str):
            self.environment = Environment(self.environment)
        if isinstance(self.platform, str):
            self.platform = Platform(self.platform)
        if isinstance(self.cc, str):
            self.cc = CcAlgorithm(self.cc)
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(
                f"duration must be positive and finite: {self.duration}"
            )
        unknown = set(self.extra) - EXTRA_KEYS
        if unknown:
            raise ValueError(
                f"unknown extra key(s) {sorted(unknown)}; expected a "
                f"subset of {sorted(EXTRA_KEYS)}"
            )
        if self.operator.upper() not in ("P1", "P2"):
            raise ValueError(f"operator must be P1 or P2, got {self.operator}")
        self.operator = self.operator.upper()

    @property
    def effective_static_bitrate(self) -> float:
        """Static-mode bitrate: explicit value or paper default."""
        if self.static_bitrate is not None:
            return self.static_bitrate
        return STATIC_BITRATE[self.environment]

    def with_overrides(self, **changes: Any) -> "ScenarioConfig":
        """Return a copy with ``changes`` applied."""
        return replace(self, **changes)

    def label(self) -> str:
        """Human-readable run label for reports."""
        return (
            f"{self.cc.value}-{self.environment.value}-"
            f"{self.platform.value}-{self.operator}-s{self.seed}"
        )
