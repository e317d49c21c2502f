"""Google Congestion Control — the assembled sender-side controller.

Consumes transport-wide-CC feedback, reconstructs (send, arrival)
pairs from its sent-packet history, and runs

  inter-arrival grouping -> Kalman gradient filter -> over-use
  detector -> AIMD rate control,

in parallel with the loss-based controller. The published target is
``min(delay_based, loss_based)`` as in the GCC design.
"""

from __future__ import annotations

from collections import deque

from repro.cc.base import CongestionController, FeedbackKind, SentPacket
from repro.cc.gcc.arrival import InterArrival
from repro.cc.gcc.detector import BandwidthUsage, OveruseDetector
from repro.cc.gcc.estimator import OveruseEstimator
from repro.cc.gcc.loss import LossBasedController
from repro.cc.gcc.rate_control import AimdRateControl
from repro.obs import names
from repro.rtp.twcc import TwccFeedback
from repro.util.units import bytes_to_bits, to_ms


class GccController(CongestionController):
    """Delay- and loss-based GCC controller.

    Parameters
    ----------
    initial_bitrate:
        Starting target (the paper's pipeline starts at the low end of
        the 2-25 Mbps encoder range).
    min_bitrate / max_bitrate:
        Encoder operating range.
    pacing_factor:
        Pacer drain rate relative to the target (libwebrtc uses 2.5).
    """

    feedback_kind = FeedbackKind.TWCC
    uses_transport_seq = True
    feedback_interval = 0.05

    def __init__(
        self,
        *,
        initial_bitrate: float = 2e6,
        min_bitrate: float = 2e6,
        max_bitrate: float = 25e6,
        pacing_factor: float = 2.5,
    ) -> None:
        super().__init__(initial_bitrate)
        self.min_bitrate = min_bitrate
        self.max_bitrate = max_bitrate
        self.pacing_factor = pacing_factor
        self._inter_arrival = InterArrival()
        self._estimator = OveruseEstimator()
        self._detector = OveruseDetector()
        self._aimd = AimdRateControl(
            initial_bitrate=initial_bitrate,
            min_bitrate=min_bitrate,
            max_bitrate=max_bitrate,
        )
        self._loss = LossBasedController(
            initial_bitrate=max_bitrate,
            min_bitrate=min_bitrate,
            max_bitrate=max_bitrate,
        )
        self._history: dict[int, SentPacket] = {}
        self._acked: deque[tuple[float, int]] = deque()
        self._acked_bytes = 0
        self._acked_window = 0.5
        self.rtt_estimate = 0.05
        self.overuse_events = 0

    # ------------------------------------------------------------------
    # CongestionController interface
    # ------------------------------------------------------------------
    def pacing_rate(self, now: float) -> float:
        return self.pacing_factor * self._target_bitrate

    def on_packet_sent(self, packet: SentPacket, now: float) -> None:
        if packet.transport_seq is None:
            raise ValueError("GCC requires transport-wide sequence numbers")
        self._history[packet.transport_seq] = packet
        # Bound the history; feedback normally clears entries promptly.
        if len(self._history) > 20_000:
            oldest = sorted(self._history)[: len(self._history) - 20_000]
            for seq in oldest:
                del self._history[seq]

    def on_feedback(self, feedback: TwccFeedback, now: float) -> None:
        if not isinstance(feedback, TwccFeedback):
            raise TypeError(f"expected TwccFeedback, got {type(feedback)!r}")
        lost = 0
        total = 0
        usage = self._detector.state
        detected_this_feedback = False
        last_send_delta_ms = 5.0
        for seq, arrival in feedback.iter_packets():
            record = self._history.pop(seq, None)
            if record is None:
                continue
            total += 1
            if arrival is None:
                lost += 1
                record.lost = True
                continue
            record.acked = True
            self.rtt_estimate = max(1e-3, now - record.send_time)
            self._aimd.set_rtt(self.rtt_estimate)
            self._note_acked(arrival, record.size_bytes)
            delta = self._inter_arrival.add_packet(
                record.send_time, arrival, record.size_bytes
            )
            if delta is None or delta.send_delta <= 0:
                continue
            offset_ms = self._estimator.update(
                delta.arrival_delta,
                delta.send_delta,
                delta.size_delta,
                in_stable_state=self._detector.state is BandwidthUsage.NORMAL,
            )
            last_send_delta_ms = to_ms(delta.send_delta)
            usage = self._detector.detect(
                offset_ms,
                last_send_delta_ms,
                self._estimator.num_of_deltas,
                now,
            )
            detected_this_feedback = True
        if total == 0:
            return
        if usage is BandwidthUsage.OVERUSING and not detected_this_feedback:
            # The detector last signalled over-use, but this feedback
            # closed no new packet group: acting on the stale signal
            # would re-trigger a decrease for the same episode.
            usage = BandwidthUsage.NORMAL
        if usage is BandwidthUsage.OVERUSING:
            self.overuse_events += 1
            if self.obs.enabled:
                self.obs.event(
                    names.GCC_OVERUSE,
                    offset_ms=self._estimator.offset_ms,
                    threshold_ms=self._detector.threshold_ms,
                )
                self.obs.count("gcc/overuse_events")
        incoming = self.acked_bitrate(now)
        delay_rate = self._aimd.update(usage, incoming, now)
        loss_rate = self._loss.update(lost, total)
        previous_target = self._target_bitrate
        self._target_bitrate = min(
            max(min(delay_rate, loss_rate), self.min_bitrate), self.max_bitrate
        )
        if self.obs.enabled:
            self.obs.count("gcc/packets_acked", total - lost)
            self.obs.count("gcc/packets_lost", lost)
            self.obs.gauge("gcc/target_bitrate", self._target_bitrate)
            self.obs.observe("gcc/rtt_ms", to_ms(self.rtt_estimate))
            if self._target_bitrate < previous_target:
                self.obs.event(
                    names.GCC_RATE_DECREASE,
                    from_bps=previous_target,
                    to_bps=self._target_bitrate,
                    # Which estimator bound the new target: the
                    # delay-based AIMD or the loss-based cap.
                    reason="delay" if delay_rate <= loss_rate else "loss",
                )
        self._record(
            now,
            delay_rate=delay_rate,
            loss_rate=loss_rate,
            offset_ms=self._estimator.offset_ms,
            threshold_ms=self._detector.threshold_ms,
            acked_bitrate=incoming if incoming is not None else -1.0,
            loss_fraction=self._loss.last_loss_fraction,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _note_acked(self, arrival: float, size_bytes: int) -> None:
        self._acked.append((arrival, size_bytes))
        self._acked_bytes += size_bytes
        horizon = arrival - self._acked_window
        while self._acked and self._acked[0][0] < horizon:
            _, size = self._acked.popleft()
            self._acked_bytes -= size

    def acked_bitrate(self, now: float) -> float | None:
        """Receive rate measured from acked packets (bits/s)."""
        if len(self._acked) < 2:
            return None
        span = max(self._acked[-1][0] - self._acked[0][0], 0.05)
        return bytes_to_bits(self._acked_bytes) / span

    @property
    def detector_state(self) -> BandwidthUsage:
        """Expose the detector hypothesis for logging/analysis."""
        return self._detector.state
