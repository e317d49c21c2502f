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
from dataclasses import InitVar, dataclass, fields, replace
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover — cellular builds on core.config
    from repro.cellular.handover import A3Config, HetSampler


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


@dataclass
class ScenarioConfig:
    """Full description of one simulated measurement run.

    Attributes mirror the paper's setup; see DESIGN.md for the
    mapping. The last four fields are ablation overrides that default
    to the paper's setup: ``a3`` and ``het`` replace the channel's A3
    parameters and handover-execution-time sampler,
    ``make_before_break`` switches handovers to DAPS, and
    ``ramp_up_speed`` (bps per second) replaces SCReAM's ramp-up
    speed. A misspelt override is a ``TypeError`` at construction.
    ``extra`` is the older spelling of the same four overrides as a
    dict (``extra={"make_before_break": True}``); it is applied to the
    fields and not kept.
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
    a3: A3Config | None = None
    het: HetSampler | None = None
    make_before_break: bool = False
    ramp_up_speed: float | None = None
    extra: InitVar[dict[str, Any] | None] = None

    def __post_init__(self, extra: dict[str, Any] | None) -> None:
        if extra:
            for name, value in extra.items():
                if name not in _OVERRIDE_FIELDS:
                    raise TypeError(
                        f"unknown override {name!r}; expected one of "
                        f"{', '.join(_OVERRIDE_FIELDS)}"
                    )
                setattr(self, name, value)
        if isinstance(self.environment, str):
            self.environment = Environment(self.environment)
        if isinstance(self.platform, str):
            self.platform = Platform(self.platform)
        if isinstance(self.cc, str):
            self.cc = CcAlgorithm(self.cc)
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite: {value}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration}")
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


#: The ablation overrides ``extra`` may set.
_OVERRIDE_FIELDS = ("a3", "het", "make_before_break", "ramp_up_speed")

#: Float fields of :class:`ScenarioConfig`, checked finite on
#: construction (``static_bitrate`` and ``ramp_up_speed`` may also be
#: ``None``).
_FLOAT_FIELDS = tuple(
    spec.name
    for spec in fields(ScenarioConfig)
    if spec.type in ("float", "float | None")
)
