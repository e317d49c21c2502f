"""Playback model with GStreamer-like adaptive playback speed.

The paper's player "optimizes for a pleasant viewing experience under
link congestion: the playback speed reduces proactively when the video
buffer runs low to avoid freezes [...] once the delayed packets
arrive, the playback speed increases to cut down on the elevated
playback latency" (Appendix A.4). This is the mechanism behind two of
the paper's key observations:

* low-FPS outliers when a CC suddenly reduces the target bitrate
  (queued high-bitrate frames starve the buffer; the player slows
  down, Section 4.2.1);
* playback latency that stays elevated after a network-latency spike
  even once the frame rate recovers (Section 4.2.2).

:class:`Player` plays decoded frames at a nominal frame interval,
stretching it when the queue runs low and compressing it when a
backlog accumulates. Every played frame produces a
:class:`PlaybackRecord`; stall accounting (inter-frame time above the
RP threshold of 300 ms) lives in :mod:`repro.metrics.video`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.net.simulator import EventLoop
from repro.obs import NULL_RECORDER, NullRecorder, names
from repro.obs.detect import WindowedStats
from repro.util.units import to_ms
from repro.video.frames import DecodedFrame


@dataclass
class PlaybackRecord:
    """One frame as it was shown to the remote pilot."""

    frame_id: int
    play_time: float
    encode_time: float
    ssim: float
    complete: bool

    @property
    def playback_latency(self) -> float:
        """Encoding-to-display latency in seconds (paper's metric)."""
        return self.play_time - self.encode_time


class Player:
    """Adaptive-speed video player.

    Parameters
    ----------
    loop:
        Event loop for playout scheduling.
    fps:
        Nominal playback rate (paper: 30).
    low_watermark / high_watermark:
        Queue depths (frames) that trigger slow-down / catch-up.
    slowdown / speedup:
        Frame-interval multipliers applied outside the watermarks.
    on_play:
        Optional callback invoked with each :class:`PlaybackRecord`.
    max_queue:
        Hard cap on buffered frames; beyond it the oldest frames are
        skipped (the player never builds unbounded delay).
    """

    def __init__(
        self,
        loop: EventLoop,
        *,
        fps: float = 30.0,
        low_watermark: int = 1,
        high_watermark: int = 2,
        slowdown: float = 1.2,
        speedup: float = 0.7,
        on_play: Callable[[PlaybackRecord], None] | None = None,
        max_queue: int = 90,
        obs: NullRecorder = NULL_RECORDER,
    ) -> None:
        if fps <= 0:
            raise ValueError(f"fps must be positive, got {fps}")
        if low_watermark < 0 or high_watermark <= low_watermark:
            raise ValueError("watermarks must satisfy 0 <= low < high")
        self._loop = loop
        self.nominal_interval = 1.0 / fps
        self.low_watermark = low_watermark
        self.high_watermark = high_watermark
        self.slowdown = slowdown
        self.speedup = speedup
        self.max_queue = max_queue
        self._on_play = on_play
        self._queue: deque[DecodedFrame] = deque()
        self._next_play_at: float | None = None
        self._last_played_id = -1
        self.records: list[PlaybackRecord] = []
        self.skipped_frames = 0
        self.late_frames = 0
        self.obs = obs
        #: Per-second playback QoE bins (frames played, worst playback
        #: latency, worst inter-frame gap) — the signal substrate the
        #: SLO detector in :mod:`repro.obs.detect` evaluates.
        self._window = WindowedStats(
            obs, names.PLAYER_WINDOW,
            sums=("frames",), maxes=("latency_ms", "gap_ms"),
        )
        self._last_play_time: float | None = None

    @property
    def queue_depth(self) -> int:
        """Frames currently buffered for display."""
        return len(self._queue)

    def push(self, frame: DecodedFrame) -> None:
        """Queue a decoded frame for display."""
        if frame.frame_id <= self._last_played_id:
            # Arrived after its successor already played: unusable.
            self.late_frames += 1
            return
        self._queue.append(frame)
        while len(self._queue) > self.max_queue:
            self._queue.popleft()
            self.skipped_frames += 1
        if self._next_play_at is None:
            # Player idle (startup or after an underrun): play now.
            self._schedule(self._loop.now)

    def _schedule(self, when: float) -> None:
        self._next_play_at = when
        self._loop.call_at(when, self._play_tick)

    def finish(self, now: float) -> None:
        """Flush the trailing (possibly partial) QoE window bin."""
        if self.obs.enabled:
            self._window.finish(now)

    def _play_tick(self) -> None:
        if not self._queue:
            # Underrun: go idle; the next push restarts playback.
            self._next_play_at = None
            if self.obs.enabled:
                self.obs.event(names.PLAYER_UNDERRUN, t=self._loop.now)
                self.obs.count("player/underruns")
            return
        frame = self._queue.popleft()
        now = self._loop.now
        self._last_played_id = frame.frame_id
        record = PlaybackRecord(
            frame_id=frame.frame_id,
            play_time=now,
            encode_time=frame.encode_time,
            ssim=frame.ssim,
            complete=frame.complete,
        )
        self.records.append(record)
        if self.obs.enabled:
            gap_ms = (
                to_ms(now - self._last_play_time)
                if self._last_play_time is not None
                else -math.inf
            )
            self._window.add(
                now, (1.0,), (to_ms(now - frame.encode_time), gap_ms)
            )
            self._last_play_time = now
        if self._on_play is not None:
            self._on_play(record)
        interval = self.nominal_interval
        depth = len(self._queue)
        if depth < self.low_watermark:
            interval *= self.slowdown
        elif depth > self.high_watermark:
            interval *= self.speedup
        self._schedule(now + interval)
