"""SCReAM sender controller: window + rate control + loss detection.

Consumes RFC 8888 CCFB reports. Loss detection mirrors the Ericsson
implementation the paper used, including its central flaw (Section
4.2.1): a packet is declared lost when

* it is covered by the report window and flagged not-received while
  clearly newer packets were received (reordering margin), or
* its sequence number has slid **below** the report window
  (``begin_seq``) without ever being acknowledged. When more packets
  arrive between two reports than the window covers — frame bursts at
  high bitrates, queue drains after handovers — delivered packets are
  never reported and this rule fires falsely, cutting the bitrate
  needlessly. ``false_loss_candidates`` counts these events so the
  ablation bench can compare ack windows 64 vs 256.
"""

from __future__ import annotations

from collections import deque

from repro.cc.base import CongestionController, FeedbackKind, SentPacket
from repro.cc.scream.rate import ScreamRateController
from repro.cc.scream.window import ScreamWindow
from repro.obs import names
from repro.rtp.ccfb import CcfbReport
from repro.rtp.packets import seq_distance
from repro.util.units import bytes_to_bits, to_ms


class ScreamController(CongestionController):
    """Self-Clocked Rate Adaptation for Multimedia (sender side)."""

    feedback_kind = FeedbackKind.CCFB
    uses_transport_seq = False
    #: Effective RTCP report spacing. Nominally the Ericsson library
    #: generates a report every 10 ms, but the paper's observation
    #: that "at rates higher than ~7 Mbps, more than 64 RTP packets
    #: arrive between two consecutive RTCP packets" (Section 4.2.1)
    #: implies an effective spacing of 64 * 1200 B / 7 Mbps ~ 80 ms
    #: under load — which is what makes the bounded ack window bite.
    feedback_interval = 0.08

    def __init__(
        self,
        *,
        initial_bitrate: float = 2e6,
        min_bitrate: float = 2e6,
        max_bitrate: float = 25e6,
        ramp_up_speed: float = 0.95e6,
        qdelay_target: float = 0.09,
        reorder_margin: int = 5,
        rate_adjust_interval: float = 0.2,
        pacing_headroom: float = 1.25,
        rtp_queue_discard_threshold: float = 0.1,
    ) -> None:
        super().__init__(initial_bitrate)
        self.window = ScreamWindow(qdelay_target=qdelay_target)
        self.rate = ScreamRateController(
            initial_bitrate=initial_bitrate,
            min_bitrate=min_bitrate,
            max_bitrate=max_bitrate,
            ramp_up_speed=ramp_up_speed,
        )
        self.reorder_margin = reorder_margin
        self.rate_adjust_interval = rate_adjust_interval
        self.pacing_headroom = pacing_headroom
        #: Sender RTP-queue delay beyond which the queue is discarded
        #: (the Ericsson implementation's 100 ms guard).
        self.rtp_queue_discard_threshold = rtp_queue_discard_threshold
        self._in_flight: dict[int, SentPacket] = {}
        self._last_rate_adjust = 0.0
        self._last_rate_loss: float | None = None
        self._rtp_queue_delay = 0.0
        self._acked: deque[tuple[float, int]] = deque()
        self._acked_bytes = 0
        self._acked_window = 0.5
        self.false_loss_candidates = 0
        self.detected_losses = 0

    # ------------------------------------------------------------------
    # CongestionController interface
    # ------------------------------------------------------------------
    def pacing_rate(self, now: float) -> float:
        # Self-clocked pacing: drain at the window throughput with
        # modest headroom, never slower than the media rate.
        return max(
            self.pacing_headroom * self.window.throughput_estimate(),
            self._target_bitrate,
        )

    def can_send(self, bytes_in_flight: int, packet_size: int, now: float) -> bool:
        return self.window.can_send(packet_size)

    def on_packet_sent(self, packet: SentPacket, now: float) -> None:
        self._in_flight[packet.sequence] = packet
        self.window.on_packet_sent(packet.size_bytes, now)

    def on_queue_state(self, queue_delay: float, queue_bytes: int, now: float) -> None:
        # Smooth the queue-delay signal: the head-of-line age sawtooths
        # between 0 and one frame interval at every frame, which is not
        # congestion — only a *persistently* old queue head is.
        self._rtp_queue_delay += 0.1 * (queue_delay - self._rtp_queue_delay)

    def on_feedback(self, report: CcfbReport, now: float) -> None:
        if not isinstance(report, CcfbReport):
            raise TypeError(f"expected CcfbReport, got {type(report)!r}")
        loss_detected = False
        end_seq = report.end_seq
        for seq, packet_report in report.iter_packets():
            record = self._in_flight.get(seq)
            if record is None:
                continue
            if packet_report.received:
                arrival = report.report_timestamp - (
                    packet_report.arrival_offset or 0.0
                )
                owd = max(0.0, arrival - record.send_time)
                record.acked = True
                del self._in_flight[seq]
                self.window.update_srtt(now - record.send_time)
                self.window.on_packet_acked(record.size_bytes, owd, now)
                self._note_acked(arrival, record.size_bytes)
            else:
                # Not received; only a loss if clearly out of the
                # reordering window relative to the report end.
                if seq_distance(seq, end_seq) > self.reorder_margin:
                    record.lost = True
                    del self._in_flight[seq]
                    self.window.on_packet_lost(record.size_bytes, now)
                    loss_detected = True
        # Packets that slid below the report window unacknowledged:
        # the implementation cannot distinguish "delivered but never
        # reported" from "lost" — it declares them lost (the paper's
        # false-loss mechanism).
        begin = report.begin_seq
        stale = [
            seq
            for seq in self._in_flight
            if seq_distance(seq, begin) > 0
        ]
        for seq in stale:
            record = self._in_flight.pop(seq)
            record.lost = True
            self.window.on_packet_lost(record.size_bytes, now)
            self.false_loss_candidates += 1
            loss_detected = True
        if stale and self.obs.enabled:
            self.obs.event(names.SCREAM_FALSE_LOSS, packets=len(stale))
            self.obs.count("scream/false_loss_candidates", len(stale))
        if loss_detected:
            self.detected_losses += 1
            if self.obs.enabled:
                self.obs.event(names.SCREAM_LOSS, cwnd=float(self.window.cwnd))
                self.obs.count("scream/loss_events")
            # Media-rate back-off at most once per RTT, mirroring the
            # cwnd loss-event gating — individual reports often flag
            # several packets of the same loss episode.
            if (
                self._last_rate_loss is None
                or now - self._last_rate_loss >= self.window.srtt
            ):
                self._last_rate_loss = now
                self.rate.on_loss()
        if now - self._last_rate_adjust >= self.rate_adjust_interval:
            self._last_rate_adjust = now
            previous_target = self._target_bitrate
            self._target_bitrate = self.rate.adjust(
                now,
                rtp_queue_delay=self._rtp_queue_delay,
                qdelay=self.window.qdelay,
                qdelay_target=self.window.qdelay_target,
                window_throughput=self.window.throughput_estimate(),
                ack_rate=self.acked_bitrate(),
            )
            self._record(
                now,
                cwnd=float(self.window.cwnd),
                bytes_in_flight=float(self.window.bytes_in_flight),
                qdelay=self.window.qdelay,
                srtt=self.window.srtt,
                rtp_queue_delay=self._rtp_queue_delay,
            )
            if self.obs.enabled:
                self.obs.gauge("scream/target_bitrate", self._target_bitrate)
                self.obs.gauge("scream/cwnd_bytes", float(self.window.cwnd))
                self.obs.observe("scream/qdelay_ms", to_ms(self.window.qdelay))
                if self._target_bitrate < previous_target:
                    self.obs.event(
                        names.SCREAM_RATE_DECREASE,
                        from_bps=previous_target,
                        to_bps=self._target_bitrate,
                        reason="loss" if loss_detected else "qdelay",
                    )

    def _note_acked(self, arrival: float, size_bytes: int) -> None:
        self._acked.append((arrival, size_bytes))
        self._acked_bytes += size_bytes
        horizon = arrival - self._acked_window
        while self._acked and self._acked[0][0] < horizon:
            _, size = self._acked.popleft()
            self._acked_bytes -= size

    def acked_bitrate(self) -> float | None:
        """Delivery rate measured from acknowledged packets (bits/s)."""
        if len(self._acked) < 2:
            return None
        span = max(self._acked[-1][0] - self._acked[0][0], 0.05)
        return bytes_to_bits(self._acked_bytes) / span

    @property
    def bytes_in_flight(self) -> int:
        """Bytes currently counted against the congestion window."""
        return self.window.bytes_in_flight
