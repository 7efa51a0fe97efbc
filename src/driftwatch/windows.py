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
from dataclasses import dataclass, field, fields
from typing import NamedTuple, get_args, get_type_hints

from .stream_model import Event


class ConfigError(Exception):
    """Invalid monitoring configuration value."""


def field_parsers(config_type) -> dict[str, type]:
    """Each field of a config dataclass, in order, with the type a value is
    parsed as: ``float`` for a field typed ``float``, ``int`` for any other."""
    hints = get_type_hints(config_type)
    return {f.name: float if hints[f.name] is float else int for f in fields(config_type)}


def check_fields(config) -> None:
    """Raise :class:`ConfigError` unless each field holds a value of its type.

    A field typed ``float`` takes any real number, and any other field an
    integer. None is taken only by a field typed ``int | None``. A bool is
    refused everywhere, as is a float such as ``20.5`` for an integer
    field; numpy numbers are fine.
    """
    hints = get_type_hints(type(config))
    for f in fields(config):
        hint, value = hints[f.name], getattr(config, f.name)
        if value is None and type(None) in get_args(hint):
            continue
        wanted, what = ((numbers.Real, "a number") if hint is float
                        else (numbers.Integral, "an integer"))
        if isinstance(value, bool) or not isinstance(value, wanted):
            raise ConfigError(f"{f.name} must be {what}, got {value!r}")


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
