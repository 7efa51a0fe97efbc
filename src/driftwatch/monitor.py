"""Per-event monitoring pipeline: windows, signal, threshold, alarms.

Each event pushes through the window pair, updates the score histograms,
and produces a signal value. The percentile sketch turns the signal
stream into an adaptive alarm threshold; crucially the threshold is read
before the new signal value enters the sketch, so an outlier cannot
raise the bar against itself. Alarms snapshot both windows for the
explanation pipeline and then go quiet for a refractory period. Each
emitted point also enters a bounded pool of the signal's lowest local
minima, from which :meth:`Monitor.valleys` picks quiet control points.
Every consumed signal value may also enter a bounded uniform sample,
against which :meth:`Monitor.threshold_audit` checks a threshold.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .divergence import DEFAULT_BIN_COUNT, IncrementalSignal
from .spear import PercentileSketch
from .stream_model import Event, check_score, check_timestamp
from .windows import ConfigError, WindowPair, check_fields

BURN_IN_SAMPLE_SIZE = 1000
VALLEY_POOL_SIZE = 4096
VALLEY_COUNT = 5
VALLEY_PERCENTILE = 10.0
AUDIT_SAMPLE_SIZE = 4096


@dataclass(frozen=True)
class SignalPoint:
    event_index: int
    timestamp: int
    signal: float
    threshold: float
    is_alarm: bool


@dataclass(frozen=True)
class AlarmTrigger:
    """Everything the explainer needs, frozen at trigger time.

    ``bin_count`` is the histogram bin count the signal was computed
    with, so a report's validation curve starts at ``signal``.
    """

    alarm_index: int
    event_index: int
    timestamp: int
    signal: float
    threshold: float
    r_snapshot: tuple[Event, ...]
    t_snapshot: tuple[Event, ...]
    burn_in_sample: tuple[Event, ...]
    bin_count: int = DEFAULT_BIN_COUNT


@dataclass
class MonitorConfig:
    n_r: int
    n_t: int
    bin_count: int = DEFAULT_BIN_COUNT
    threshold_percentile: float = 95.0
    sketch_bins: int = 100
    refractory_events: int | None = None
    min_signal_samples: int | None = None

    def __post_init__(self):
        check_fields(self)
        if self.n_r < 2 or self.n_t < 2:
            # Every alarm report cross-validates R against T, which needs at
            # least two rows of each window.
            raise ConfigError("window sizes n_r and n_t must be at least 2")
        if self.bin_count < 1:
            raise ConfigError("bin_count must be at least 1")
        if not 0.0 < self.threshold_percentile < 100.0:
            raise ConfigError("threshold_percentile must lie strictly inside (0, 100)")
        if self.sketch_bins < 2:
            raise ConfigError("sketch_bins must be at least 2")
        if self.refractory_events is None:
            self.refractory_events = self.n_t
        if self.refractory_events < 1:
            raise ConfigError("refractory_events must be at least 1")
        if self.min_signal_samples is None:
            self.min_signal_samples = 10 * self.sketch_bins

    @property
    def signal_samples_before_emission(self) -> int:
        """Signal values consumed before the first point is emitted.

        At least the sketch initialization (n + 1 values), and at least
        the configured burn-in sample count, so every emitted point has a
        readable threshold.
        """
        return max(self.min_signal_samples, self.sketch_bins + 1)

    @property
    def burn_in_events(self) -> int:
        """Events before the first SignalPoint can be emitted."""
        return self.n_r + self.n_t + self.signal_samples_before_emission


class Monitor:
    """Single-owner streaming state machine over one event stream.

    The signal, threshold and alarms do not depend on the seed: the same
    events give the same points and triggers. ``seed`` seeds the only
    random numbers the monitor draws, which pick the threshold audit's
    sample (:meth:`threshold_audit`).
    """

    def __init__(self, config: MonitorConfig, seed: int = 0):
        self.config = config
        self.windows = WindowPair(config.n_r, config.n_t)
        self.signal_state = IncrementalSignal(config.bin_count)
        self.sketch = PercentileSketch(config.sketch_bins)
        self.events_seen = 0
        self.alarm_count = 0
        self.last_alarm_index: int | None = None
        self.last_timestamp: int | None = None
        self.valley_pool = ValleyPool(VALLEY_POOL_SIZE)
        self.audit_sample: list[float] = []
        self._audit_rng = random.Random(seed)
        self._burn_in_sample: list[Event] = []
        self._capture_indices = burn_in_sample_indices(
            config.burn_in_events, BURN_IN_SAMPLE_SIZE
        ).tolist()
        self._next_capture = 0
        self._capture_at = self._capture_indices[0]
        self._requested_snapshots: dict[int, tuple] = {}
        # Read on every event; the windows never shrink once warmed up.
        self._warmed_up = False
        self._samples_before_emission = config.signal_samples_before_emission
        self._threshold_percentile = config.threshold_percentile

    @property
    def burn_in_sample(self) -> tuple[Event, ...]:
        return tuple(self._burn_in_sample)

    def request_snapshot(self, event_indices: Iterable[int]) -> None:
        """Ask for (R, T) copies right after the given events are pushed.

        Used to rebuild explanation inputs for arbitrary points of a
        replay, for example signal valleys.
        """
        for index in event_indices:
            self._requested_snapshots[int(index)] = None

    def snapshot_at(self, event_index: int):
        snap = self._requested_snapshots.get(event_index)
        if snap is None:
            raise KeyError(f"no snapshot captured for event {event_index}")
        return snap

    def step(self, event: Event) -> tuple[SignalPoint | None, AlarmTrigger | None]:
        """Consume one event; maybe emit a signal point and an alarm.

        A score or timestamp the stream readers would reject raises
        before any state changes.
        """
        score = event.score
        timestamp = event.timestamp
        check_score(score)
        check_timestamp(timestamp, self.last_timestamp)
        index = self.events_seen
        if index == self._capture_at:
            self._burn_in_sample.append(event)
            self._next_capture += 1
            captures = self._capture_indices
            self._capture_at = (captures[self._next_capture]
                                if self._next_capture < len(captures) else -1)

        windows = self.windows
        self.signal_state.update(score, windows.push(event))

        point = None
        trigger = None
        if self._warmed_up or windows.warmed_up:
            self._warmed_up = True
            sketch = self.sketch
            value = self.signal_state.value()
            if sketch.count >= self._samples_before_emission:
                threshold = sketch.percentile(self._threshold_percentile)
                is_alarm = value > threshold
                point = SignalPoint(index, timestamp, value, threshold, is_alarm)
                self.valley_pool.observe(point)
                if is_alarm and self._past_refractory(index):
                    r_snap, t_snap = windows.snapshot()
                    trigger = AlarmTrigger(
                        self.alarm_count, index, timestamp, value,
                        threshold, r_snap, t_snap, self.burn_in_sample,
                        self.config.bin_count,
                    )
                    self.alarm_count += 1
                    self.last_alarm_index = index
            consumed = sketch.count
            sketch.consume(value)
            # Algorithm R (Vitter 1985): every consumed value is in the
            # sample with probability AUDIT_SAMPLE_SIZE / sketch.count. The
            # slot is floor(u * (consumed + 1)) for one uniform u, which
            # costs half a randrange call.
            if consumed < AUDIT_SAMPLE_SIZE:
                self.audit_sample.append(value)
            else:
                slot = self._audit_rng.random() * (consumed + 1)
                if slot < AUDIT_SAMPLE_SIZE:
                    self.audit_sample[int(slot)] = value

        if index in self._requested_snapshots:
            self._requested_snapshots[index] = windows.snapshot()
        self.last_timestamp = timestamp
        self.events_seen = index + 1
        return point, trigger

    def valleys(self) -> list[int]:
        """Event indices of up to ``VALLEY_COUNT`` signal valleys so far.

        The cutoff is the sketch's ``VALLEY_PERCENTILE`` of every signal
        value consumed, read now; see :meth:`ValleyPool.select` for the
        rest of the rule. Reads state only, so repeated calls agree.
        """
        if not self.sketch.initialized:
            return []
        cutoff = self.sketch.percentile(VALLEY_PERCENTILE)
        return self.valley_pool.select(VALLEY_COUNT, self.config.n_t, cutoff)

    def threshold_audit(self, threshold: float | None = None) -> dict | None:
        """How the consumed signal values sit against ``threshold``.

        ``threshold`` defaults to the sketch's ``threshold_percentile``
        read now. ``share`` is the fraction of the audit sample at or
        below it, an estimate of the fraction of all ``consumed`` values
        at or below it. ``interval`` is the 95% normal-approximation
        interval of that estimate, with the finite-population factor
        ``sqrt((consumed - sample_size) / (consumed - 1))``, so it has zero
        width while the sample holds every consumed value; it is clipped
        to [0, 1]. None while the sketch is not initialized.
        """
        if not self.sketch.initialized:
            return None
        if threshold is None:
            threshold = self.sketch.percentile(self._threshold_percentile)
        sample = self.audit_sample
        size = len(sample)
        consumed = self.sketch.count
        share = sum(value <= threshold for value in sample) / size
        half_width = 1.96 * math.sqrt(
            share * (1.0 - share) / size * (consumed - size) / (consumed - 1)
        )
        return {
            "threshold": threshold,
            "share": share,
            "interval": [max(0.0, share - half_width), min(1.0, share + half_width)],
            "sample_size": size,
            "consumed": consumed,
        }

    def _past_refractory(self, index: int) -> bool:
        if self.last_alarm_index is None:
            return True
        return index - self.last_alarm_index > self.config.refractory_events


def burn_in_sample_indices(total: int, sample_size: int) -> np.ndarray:
    """``sample_size`` evenly spaced indices into ``range(total)``, or all of them."""
    if total <= sample_size:
        return np.arange(total)
    return np.round(np.linspace(0, total - 1, sample_size)).astype(np.int64)


class ValleyPool:
    """Bounded pool of the lowest local minima of a signal series.

    A point is a local minimum when it is no higher than either
    neighbour, so plateaus qualify; the first and last points need only
    their one neighbour. Only ``size`` minima are kept: a full pool drops
    its highest, the latest first among equal values. The last point
    observed is judged when the next arrives, or provisionally by
    :meth:`select`.
    """

    def __init__(self, size: int):
        self.size = size
        # (-signal, -event_index), so the heap's root is the minimum to drop.
        self._heap: list[tuple[float, int]] = []
        self._before_last: float | None = None
        self._last: tuple[float, int] | None = None

    def observe(self, point: SignalPoint) -> None:
        last = self._last
        if last is not None:
            if self._left_ok() and last[0] <= point.signal:
                heapq.heappush(self._heap, (-last[0], -last[1]))
                if len(self._heap) > self.size:
                    heapq.heappop(self._heap)
            self._before_last = last[0]
        self._last = (point.signal, point.event_index)

    def _left_ok(self) -> bool:
        return self._before_last is None or self._last[0] <= self._before_last

    def select(self, count: int, min_spacing: int, cutoff: float) -> list[int]:
        """Event indices of up to ``count`` pooled minima at or below ``cutoff``.

        Minima are taken lowest signal first, ties to the earliest event,
        each at least ``min_spacing`` events from every one taken before.
        """
        if count <= 0 or self._last is None:
            return []
        candidates = [(-value, -index) for value, index in self._heap]
        if self._left_ok():
            candidates.append(self._last)
        accepted: list[int] = []
        for value, index in sorted(candidates)[: self.size]:
            if value > cutoff:
                break
            if all(abs(index - taken) >= min_spacing for taken in accepted):
                accepted.append(index)
                if len(accepted) == count:
                    break
        return accepted


def select_valleys(series: Sequence[SignalPoint], count: int, min_spacing: int) -> list[int]:
    """Valleys of a whole in-memory series, by the rule of :meth:`Monitor.valleys`.

    The pool holds every local minimum and the cutoff is the exact
    ``VALLEY_PERCENTILE`` of all the series' signal values.
    """
    if not series:
        return []
    pool = ValleyPool(len(series))
    for point in series:
        pool.observe(point)
    cutoff = float(np.percentile([p.signal for p in series], VALLEY_PERCENTILE))
    return pool.select(count, min_spacing, cutoff)
