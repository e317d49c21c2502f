"""Trace record names: one constant per event/span the simulator emits.

Emit sites (``obs.event``/``span``/``span_at``, detector names) and
consumers (``record.name == ...`` in :mod:`repro.obs.attribute` and
:mod:`repro.obs.detect`) both import these constants, so a renamed or
misspelt name fails with an :class:`AttributeError` at the site
instead of silently zeroing an attribution share.
:class:`~repro.obs.recorder.Recorder` rejects any trace name outside
:data:`TRACE_NAMES`, which covers names a caller builds at run time.

Names follow ``component.what``; the part before the first dot is the
component the ``repro trace`` CLI filters on.
"""

from __future__ import annotations

CELL_CONGESTION = "cell.congestion"
CHANNEL_CAPACITY_DIP = "channel.capacity_dip"
CHANNEL_INTERFERENCE_OUTLIER = "channel.interference_outlier"
FLEET_MEMBER_SAMPLE = "fleet.member_sample"
GCC_OVERUSE = "gcc.overuse"
GCC_RATE_DECREASE = "gcc.rate_decrease"
HANDOVER_A3_ENTER = "handover.a3_enter"
HANDOVER_EXECUTION = "handover.execution"
JITTER_GAP = "jitter.gap"
LOSS_BURST = "loss.burst"
OBS_OVERHEAD = "obs.overhead"
PLAYER_UNDERRUN = "player.underrun"
PLAYER_WINDOW = "player.window"
RECEIVER_OWD_ANOMALY = "receiver.owd_anomaly"
RECEIVER_WINDOW = "receiver.window"
SCREAM_FALSE_LOSS = "scream.false_loss"
SCREAM_LOSS = "scream.loss"
SCREAM_RATE_DECREASE = "scream.rate_decrease"
SENDER_QUEUE_ANOMALY = "sender.queue_anomaly"
SENDER_QUEUE_DISCARD = "sender.queue_discard"
SESSION_CONFIG = "session.config"

#: Every trace record name; :class:`~repro.obs.recorder.Recorder`
#: refuses to record any other.
TRACE_NAMES = frozenset({
    CELL_CONGESTION,
    CHANNEL_CAPACITY_DIP,
    CHANNEL_INTERFERENCE_OUTLIER,
    FLEET_MEMBER_SAMPLE,
    GCC_OVERUSE,
    GCC_RATE_DECREASE,
    HANDOVER_A3_ENTER,
    HANDOVER_EXECUTION,
    JITTER_GAP,
    LOSS_BURST,
    OBS_OVERHEAD,
    PLAYER_UNDERRUN,
    PLAYER_WINDOW,
    RECEIVER_OWD_ANOMALY,
    RECEIVER_WINDOW,
    SCREAM_FALSE_LOSS,
    SCREAM_LOSS,
    SCREAM_RATE_DECREASE,
    SENDER_QUEUE_ANOMALY,
    SENDER_QUEUE_DISCARD,
    SESSION_CONFIG,
})
