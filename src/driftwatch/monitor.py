"""Per-event monitoring pipeline: windows, signal, threshold, alarms.

Each event pushes through the window pair, updates the score histograms,
and produces a signal value. The percentile sketch turns the signal
stream into an adaptive alarm threshold; crucially the threshold is read
before the new signal value enters the sketch, so an outlier cannot
raise the bar against itself. Alarms snapshot both windows for the
explanation pipeline and then go quiet for a refractory period.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .divergence import IncrementalSignal
from .spear import PercentileSketch
from .stream_model import Event, check_score
from .windows import ConfigError, WindowPair

BURN_IN_SAMPLE_SIZE = 1000


@dataclass(frozen=True)
class SignalPoint:
    event_index: int
    timestamp: int
    signal: float
    threshold: float
    is_alarm: bool
    is_valley_candidate: bool


@dataclass(frozen=True)
class AlarmTrigger:
    """Everything the explainer needs, frozen at trigger time.

    ``filter_result`` starts as None; the layer that owns the feature
    schema attaches the burn-in filter before building the report.
    """

    alarm_index: int
    event_index: int
    timestamp: int
    signal: float
    threshold: float
    r_snapshot: tuple[Event, ...]
    t_snapshot: tuple[Event, ...]
    burn_in_sample: tuple[Event, ...]
    filter_result: object = None

    def with_filter(self, filter_result) -> "AlarmTrigger":
        return replace(self, filter_result=filter_result)


@dataclass
class MonitorConfig:
    n_r: int
    n_t: int
    bin_count: int = 100
    threshold_percentile: float = 95.0
    sketch_bins: int = 100
    refractory_events: int | None = None
    min_signal_samples: int | None = None
    valley_percentile: float = 10.0

    def __post_init__(self):
        if self.n_r < 1 or self.n_t < 1:
            raise ConfigError("window sizes must be positive")
        if self.bin_count < 1:
            raise ConfigError("bin_count must be at least 1")
        if not 0.0 < self.threshold_percentile < 100.0:
            raise ConfigError("threshold_percentile must lie strictly inside (0, 100)")
        if not 0.0 < self.valley_percentile < 100.0:
            raise ConfigError("valley_percentile must lie strictly inside (0, 100)")
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
    """Single-owner streaming state machine over one event stream."""

    def __init__(self, config: MonitorConfig, seed: int = 0):
        self.config = config
        self.windows = WindowPair(config.n_r, config.n_t)
        self.signal_state = IncrementalSignal(config.bin_count)
        self.sketch = PercentileSketch(config.sketch_bins, seed=seed)
        self.events_seen = 0
        self.signal_samples = 0
        self.alarm_count = 0
        self.last_alarm_index: int | None = None
        self._burn_in_sample: list[Event] = []
        self._capture_indices = burn_in_sample_indices(
            config.burn_in_events, BURN_IN_SAMPLE_SIZE
        )
        self._next_capture = 0
        self._requested_snapshots: dict[int, tuple] = {}

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

        A score the stream readers would reject raises before any state changes.
        """
        check_score(event.score)
        index = self.events_seen
        if (
            self._next_capture < len(self._capture_indices)
            and index == self._capture_indices[self._next_capture]
        ):
            self._burn_in_sample.append(event)
            self._next_capture += 1

        result = self.windows.push(event)
        self.signal_state.update(event.score, result)

        point = None
        trigger = None
        if self.windows.warmed_up:
            value = self.signal_state.value()
            if self.signal_samples >= self.config.signal_samples_before_emission:
                threshold = self.sketch.percentile(self.config.threshold_percentile)
                valley_level = self.sketch.percentile(self.config.valley_percentile)
                is_alarm = value > threshold
                point = SignalPoint(
                    index, event.timestamp, value, threshold,
                    is_alarm, value <= valley_level,
                )
                if is_alarm and self._past_refractory(index):
                    r_snap, t_snap = self.windows.snapshot()
                    trigger = AlarmTrigger(
                        self.alarm_count, index, event.timestamp, value,
                        threshold, r_snap, t_snap, self.burn_in_sample,
                    )
                    self.alarm_count += 1
                    self.last_alarm_index = index
            self.sketch.consume(value)
            self.signal_samples += 1

        if index in self._requested_snapshots:
            self._requested_snapshots[index] = self.windows.snapshot()
        self.events_seen += 1
        return point, trigger

    def _past_refractory(self, index: int) -> bool:
        if self.last_alarm_index is None:
            return True
        return index - self.last_alarm_index > self.config.refractory_events


def burn_in_sample_indices(total: int, sample_size: int) -> np.ndarray:
    """``sample_size`` evenly spaced indices into ``range(total)``, or all of them."""
    if total <= sample_size:
        return np.arange(total)
    return np.round(np.linspace(0, total - 1, sample_size)).astype(np.int64)


def select_valleys(
    series: Sequence[SignalPoint],
    count: int,
    min_spacing: int,
    valley_percentile: float = 10.0,
) -> list[int]:
    """Event indices of signal valleys, lowest signal first.

    A valley is a local minimum (non-strict, so plateaus qualify) whose
    value is at or below the given percentile of all observed signal
    values. Accepted valleys are at least ``min_spacing`` events apart;
    candidates are taken lowest-value first with ties going to the
    earliest event.
    """
    if count <= 0 or not series:
        return []
    values = np.array([p.signal for p in series], dtype=np.float64)
    indices = np.array([p.event_index for p in series], dtype=np.int64)
    cutoff = float(np.percentile(values, valley_percentile))

    left_ok = np.empty(len(values), dtype=bool)
    right_ok = np.empty(len(values), dtype=bool)
    left_ok[0] = True
    left_ok[1:] = values[1:] <= values[:-1]
    right_ok[-1] = True
    right_ok[:-1] = values[:-1] <= values[1:]
    eligible = left_ok & right_ok & (values <= cutoff)

    order = sorted(np.nonzero(eligible)[0], key=lambda i: (values[i], indices[i]))
    accepted: list[int] = []
    for i in order:
        candidate = int(indices[i])
        if all(abs(candidate - taken) >= min_spacing for taken in accepted):
            accepted.append(candidate)
            if len(accepted) == count:
                break
    return accepted
