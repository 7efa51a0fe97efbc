"""Sliding reference and target windows over the event stream.

The target window T holds the last ``n_t`` events; the reference window R
holds the ``n_r`` events immediately before T. The windows are contiguous:
the event evicted from T on each push is exactly the event inserted into R.
Each push returns a :class:`PushResult`, a named tuple naming what it
displaced; every warm-up push that displaces nothing returns one shared
instance.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .stream_model import Event


class ConfigError(Exception):
    """Invalid monitoring configuration value."""


def check_counts(config, names) -> None:
    """Raise :class:`ConfigError` unless each named field is None or an integer.

    A bool or a float such as ``20.5`` is refused; numpy integers are fine.
    """
    for name in names:
        value = getattr(config, name)
        if value is not None and (isinstance(value, bool)
                                  or not isinstance(value, numbers.Integral)):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


class PushResult(NamedTuple):
    """What one push displaced: the event moved from T into R, and the
    event R discarded, if any."""

    moved_to_r: Event | None
    dropped: Event | None


_NOTHING_DISPLACED = PushResult(None, None)


@dataclass
class WindowPair:
    """Bounded FIFO windows R and T with cascade eviction."""

    n_r: int
    n_t: int
    r_events: deque = field(default_factory=deque)
    t_events: deque = field(default_factory=deque)

    def __post_init__(self):
        if self.n_r < 1 or self.n_t < 1:
            raise ConfigError("window sizes must be positive")

    @property
    def warmed_up(self) -> bool:
        return len(self.r_events) == self.n_r and len(self.t_events) == self.n_t

    def push(self, event: Event) -> PushResult:
        """Append to T; overflow cascades T -> R -> discard."""
        t_events = self.t_events
        t_events.append(event)
        if len(t_events) <= self.n_t:
            return _NOTHING_DISPLACED
        moved = t_events.popleft()
        r_events = self.r_events
        r_events.append(moved)
        if len(r_events) > self.n_r:
            return PushResult(moved, r_events.popleft())
        return PushResult(moved, None)

    def snapshot(self) -> tuple[tuple[Event, ...], tuple[Event, ...]]:
        """Immutable copies of (R, T), unchanged by later pushes."""
        return tuple(self.r_events), tuple(self.t_events)
