"""Builders shared across test modules."""

from __future__ import annotations

import os

import pytest

from driftwatch import (
    CATEGORICAL,
    NUMERIC,
    Event,
    FeatureSchema,
    FeatureSpec,
    MonitorConfig,
    gbdt,
)

EMPTY_SCHEMA = FeatureSchema(())


def score_events(scores, start_ts: int = 0) -> list[Event]:
    """Featureless events with consecutive timestamps."""
    return [Event(start_ts + i, float(s), ()) for i, s in enumerate(scores)]


def schema_of(*pairs) -> FeatureSchema:
    return FeatureSchema(tuple(FeatureSpec(name, kind) for name, kind in pairs))


def tiny_monitor_config(**overrides) -> MonitorConfig:
    """Smallest sane config for fast monitor tests."""
    settings = dict(
        n_r=40,
        n_t=20,
        bin_count=4,
        sketch_bins=4,
        min_signal_samples=10,
        threshold_percentile=95.0,
    )
    settings.update(overrides)
    return MonitorConfig(**settings)


def with_cpus(monkeypatch, count):
    monkeypatch.setattr(gbdt, "_usable_cpus", lambda: count)


def record_forks(monkeypatch, refuse_first=False):
    """Wrap ``os.fork``; the returned list gets one entry per call.

    Each entry is the helper's pid, or None for a fork that raised.
    """
    fork = os.fork
    forks = []

    def wrapped():
        if refuse_first and not forks:
            forks.append(None)
            raise OSError("fork refused")
        pid = fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", wrapped)
    return forks


def assert_reaped(forks):
    for pid in forks:
        if pid is not None:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
