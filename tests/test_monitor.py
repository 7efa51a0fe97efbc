"""Tests for the streaming monitor and valley selection."""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftwatch import (
    Event,
    Monitor,
    MonitorConfig,
    PercentileSketch,
    SignalPoint,
    select_valleys,
)
from driftwatch.monitor import ValleyPool
from driftwatch.stream_model import ScoreRangeError, StreamError, TimestampOrderError
from driftwatch.windows import ConfigError

from helpers import score_events, tiny_monitor_config


def run_monitor(config, scores, seed=0):
    monitor = Monitor(config, seed=seed)
    points, triggers = [], []
    for i, score in enumerate(scores):
        point, trigger = monitor.step(Event(i, float(score), ()))
        if point is not None:
            points.append(point)
        if trigger is not None:
            triggers.append(trigger)
    return monitor, points, triggers


class TestConfig:
    def test_effective_minimum_covers_sketch_initialization(self):
        config = MonitorConfig(n_r=50, n_t=20, sketch_bins=100, min_signal_samples=5)
        assert config.signal_samples_before_emission == 101
        config = MonitorConfig(n_r=50, n_t=20, sketch_bins=10, min_signal_samples=500)
        assert config.signal_samples_before_emission == 500

    def test_burn_in_event_count(self):
        config = MonitorConfig(n_r=50, n_t=20, sketch_bins=10, min_signal_samples=30)
        assert config.burn_in_events == 50 + 20 + 30

    def test_refractory_defaults_to_target_window(self):
        assert MonitorConfig(n_r=50, n_t=20).refractory_events == 20
        assert MonitorConfig(n_r=50, n_t=20, refractory_events=7).refractory_events == 7

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_r=0),
            dict(n_t=0),
            dict(threshold_percentile=0.0),
            dict(threshold_percentile=100.0),
            dict(valley_percentile=0.0),
            dict(sketch_bins=1),
            dict(refractory_events=0),
            dict(valley_count=-1),
            dict(n_t=1),
            dict(n_r=1),
            dict(n_r=20.5),
            dict(n_t=20.0),
            dict(n_r=True),
            dict(bin_count=10.0),
            dict(sketch_bins=20.5),
            dict(refractory_events=1.5),
            dict(min_signal_samples=np.float64(100.0)),
            dict(valley_count=1.5),
            dict(valley_count=np.True_),
        ],
    )
    def test_bad_settings_rejected(self, overrides):
        settings = dict(n_r=50, n_t=20)
        settings.update(overrides)
        with pytest.raises(ConfigError):
            MonitorConfig(**settings)

    def test_numpy_integer_counts_accepted(self):
        config = MonitorConfig(n_r=np.int64(50), n_t=np.int32(20), sketch_bins=np.int64(10))
        assert config.burn_in_events == 50 + 20 + 100


class TestEmissionGating:
    def test_first_point_arrives_exactly_when_burn_in_ends(self):
        config = tiny_monitor_config()
        scores = np.random.default_rng(0).uniform(0, 1, config.burn_in_events + 50)
        _, points, _ = run_monitor(config, scores)
        assert points[0].event_index == config.burn_in_events - 1
        assert [p.event_index for p in points] == list(
            range(config.burn_in_events - 1, len(scores))
        )

    def test_no_points_on_a_stream_shorter_than_burn_in(self):
        config = tiny_monitor_config()
        scores = np.random.default_rng(0).uniform(0, 1, config.burn_in_events - 1)
        _, points, _ = run_monitor(config, scores)
        assert points == []

    def test_points_carry_event_timestamps(self):
        config = tiny_monitor_config()
        monitor = Monitor(config)
        points = []
        for i in range(config.burn_in_events + 10):
            point, _ = monitor.step(Event(1000 + 2 * i, 0.5, ()))
            if point:
                points.append(point)
        assert all(p.timestamp == 1000 + 2 * p.event_index for p in points)


class TestThresholdDiscipline:
    def test_threshold_and_valley_level_read_before_consuming(self):
        # A reference sketch fed the same signal values one step behind
        # must reproduce every emitted threshold bit for bit: the new
        # signal value may not enter the sketch before the comparison.
        # The valley level is read once, after the last value entered.
        config = MonitorConfig(
            n_r=150, n_t=60, bin_count=10, sketch_bins=20, min_signal_samples=200
        )
        monitor = Monitor(config, seed=3)
        reference = PercentileSketch(20, "random", seed=3)
        scores = np.random.default_rng(42).uniform(0, 1, 3000)
        emitted = 0
        for i, score in enumerate(scores):
            point, _ = monitor.step(Event(i, float(score), ()))
            if point is not None:
                emitted += 1
                assert point.threshold == reference.percentile(config.threshold_percentile)
                assert point.is_alarm == (point.signal > point.threshold)
            if monitor.windows.warmed_up:
                reference.consume(monitor.signal_state.value())
        assert emitted > 2000
        valley_level = reference.percentile(config.valley_percentile)
        assert monitor.valleys() == monitor.valley_pool.select(
            config.valley_count, config.n_t, valley_level
        )

    def test_raising_the_percentile_only_removes_alarms(self):
        scores = np.random.default_rng(9).uniform(0, 1, 4000)
        base = MonitorConfig(n_r=150, n_t=60, bin_count=10, sketch_bins=20,
                             min_signal_samples=200, threshold_percentile=95.0)
        strict = MonitorConfig(n_r=150, n_t=60, bin_count=10, sketch_bins=20,
                               min_signal_samples=200, threshold_percentile=97.0)
        _, base_points, _ = run_monitor(base, scores, seed=3)
        _, strict_points, _ = run_monitor(strict, scores, seed=3)
        assert len(base_points) == len(strict_points)
        for lax, tight in zip(base_points, strict_points):
            assert lax.signal == tight.signal
            assert tight.threshold >= lax.threshold
            if tight.is_alarm:
                assert lax.is_alarm

    def test_stationary_alarm_rate_sits_near_the_tail_mass(self):
        config = MonitorConfig(n_r=150, n_t=60, bin_count=10, sketch_bins=20,
                               min_signal_samples=200)
        scores = np.random.default_rng(42).uniform(0, 1, 6000)
        _, points, _ = run_monitor(config, scores, seed=3)
        rate = sum(p.is_alarm for p in points) / len(points)
        assert 0.01 <= rate <= 0.09


@pytest.fixture(scope="module")
def drift_run():
    config = MonitorConfig(n_r=150, n_t=60, bin_count=10, sketch_bins=20,
                           min_signal_samples=200, refractory_events=30)
    rng = np.random.default_rng(5)
    onset = 3000
    scores = np.concatenate(
        [rng.uniform(0.0, 0.5, onset), rng.uniform(0.5, 1.0, 3000)]
    )
    _, points, triggers = run_monitor(config, scores, seed=1)
    return config, onset, points, triggers


class TestAlarms:
    def test_drift_triggers_within_one_target_window(self, drift_run):
        config, onset, _, triggers = drift_run
        post = [t.event_index for t in triggers if t.event_index >= onset]
        assert post and post[0] <= onset + config.n_t

    def test_trigger_spacing_respects_the_refractory_period(self, drift_run):
        config, _, _, triggers = drift_run
        indices = [t.event_index for t in triggers]
        assert len(indices) > 2
        assert all(b - a > config.refractory_events for a, b in zip(indices, indices[1:]))

    def test_alarm_points_are_not_refractory_gated(self, drift_run):
        config, _, points, triggers = drift_run
        alarm_indices = [p.event_index for p in points if p.is_alarm]
        smallest_gap = min(b - a for a, b in zip(alarm_indices, alarm_indices[1:]))
        assert smallest_gap <= config.refractory_events
        assert len(alarm_indices) > len(triggers)

    def test_triggers_snapshot_full_windows(self, drift_run):
        config, _, _, triggers = drift_run
        for trigger in triggers:
            assert len(trigger.r_snapshot) == config.n_r
            assert len(trigger.t_snapshot) == config.n_t
            assert trigger.t_snapshot[-1].timestamp == trigger.event_index
            assert trigger.signal > trigger.threshold

    def test_alarm_indices_count_up_from_zero(self, drift_run):
        _, _, _, triggers = drift_run
        assert [t.alarm_index for t in triggers] == list(range(len(triggers)))


class TestDeterminism:
    def test_same_seed_reproduces_every_point_and_trigger(self):
        config = tiny_monitor_config()
        scores = np.random.default_rng(17).uniform(0, 1, 1500)
        _, points_a, triggers_a = run_monitor(config, scores, seed=11)
        _, points_b, triggers_b = run_monitor(config, scores, seed=11)
        assert points_a == points_b
        assert [t.event_index for t in triggers_a] == [t.event_index for t in triggers_b]
        assert [t.signal for t in triggers_a] == [t.signal for t in triggers_b]

    def test_seed_has_no_effect(self):
        config = tiny_monitor_config()
        rng = np.random.default_rng(17)
        scores = np.concatenate([rng.uniform(0, 0.5, 1500), rng.uniform(0.5, 1, 500)])
        monitor_a, points_a, triggers_a = run_monitor(config, scores, seed=0)
        monitor_b, points_b, triggers_b = run_monitor(config, scores, seed=11)
        assert triggers_a
        assert points_a == points_b
        assert triggers_a == triggers_b
        assert monitor_a.sketch.positions == monitor_b.sketch.positions


class TestSnapshots:
    def test_requested_snapshot_matches_window_arithmetic(self):
        config = MonitorConfig(n_r=8, n_t=4, bin_count=4, sketch_bins=4,
                               min_signal_samples=5)
        events = [Event(i, (i % 10) / 10, ()) for i in range(30)]
        monitor = Monitor(config)
        monitor.request_snapshot([15, 29])
        for event in events:
            monitor.step(event)
        r_snap, t_snap = monitor.snapshot_at(15)
        assert [e.timestamp for e in t_snap] == [12, 13, 14, 15]
        assert [e.timestamp for e in r_snap] == [4, 5, 6, 7, 8, 9, 10, 11]
        r_snap, t_snap = monitor.snapshot_at(29)
        assert [e.timestamp for e in t_snap] == [26, 27, 28, 29]
        assert [e.timestamp for e in r_snap] == [18, 19, 20, 21, 22, 23, 24, 25]

    def test_unrequested_snapshot_raises(self):
        monitor = Monitor(tiny_monitor_config())
        with pytest.raises(KeyError):
            monitor.snapshot_at(3)

    def test_trigger_snapshot_equals_requested_snapshot_at_same_event(self):
        config = MonitorConfig(n_r=150, n_t=60, bin_count=10, sketch_bins=20,
                               min_signal_samples=200, refractory_events=30)
        rng = np.random.default_rng(5)
        scores = np.concatenate([rng.uniform(0.0, 0.5, 3000), rng.uniform(0.5, 1.0, 500)])
        _, _, first_pass = run_monitor(config, scores, seed=1)
        replay = Monitor(config, seed=1)
        replay.request_snapshot([t.event_index for t in first_pass])
        for i, score in enumerate(scores):
            replay.step(Event(i, float(score), ()))
        for trigger in first_pass:
            r_snap, t_snap = replay.snapshot_at(trigger.event_index)
            assert r_snap == trigger.r_snapshot
            assert t_snap == trigger.t_snapshot


class TestBurnInSample:
    def test_short_burn_in_is_captured_whole(self):
        config = tiny_monitor_config()
        assert config.burn_in_events <= 1000
        events = [Event(i, (i % 7) / 7, ()) for i in range(config.burn_in_events + 20)]
        monitor = Monitor(config)
        for event in events:
            monitor.step(event)
        assert monitor.burn_in_sample == tuple(events[: config.burn_in_events])

    def test_long_burn_in_is_sampled_evenly(self):
        config = MonitorConfig(n_r=800, n_t=300, bin_count=10, sketch_bins=10,
                               min_signal_samples=400)
        total = config.burn_in_events
        assert total == 1500
        events = [Event(i, (i % 7) / 7, ()) for i in range(total + 10)]
        monitor = Monitor(config)
        for event in events:
            monitor.step(event)
        expected = np.round(np.linspace(0, total - 1, 1000)).astype(int)
        assert len(monitor.burn_in_sample) == 1000
        assert [e.timestamp for e in monitor.burn_in_sample] == list(expected)

    def test_triggers_share_the_frozen_burn_in_sample(self):
        config = MonitorConfig(n_r=150, n_t=60, bin_count=10, sketch_bins=20,
                               min_signal_samples=200, refractory_events=30)
        rng = np.random.default_rng(5)
        scores = np.concatenate([rng.uniform(0.0, 0.5, 1000), rng.uniform(0.5, 1.0, 1000)])
        _, _, triggers = run_monitor(config, scores, seed=1)
        assert len(triggers) >= 2
        sample = triggers[0].burn_in_sample
        assert len(sample) == config.burn_in_events
        assert all(t.burn_in_sample == sample for t in triggers[1:])


def constant_series(value, count, start_index=0):
    return [
        SignalPoint(start_index + i, start_index + i, value, 1.0, False)
        for i in range(count)
    ]


class TestSelectValleys:
    def test_flat_series_picks_earliest_spaced_points(self):
        series = constant_series(0.0, 40)
        assert select_valleys(series, 3, min_spacing=10) == [0, 10, 20]

    def test_v_shape_picks_the_bottom(self):
        values = [5, 4, 3, 2, 1, 0.5, 1, 2, 3, 4, 5]
        series = [SignalPoint(i, i, float(v), 10.0, False) for i, v in enumerate(values)]
        assert select_valleys(series, 1, min_spacing=2) == [5]

    def test_only_the_low_decile_is_eligible(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(0, 1, 500)
        series = [SignalPoint(i, i, float(v), 1.0, False) for i, v in enumerate(values)]
        cutoff = np.percentile(values, 10.0)
        picked = select_valleys(series, 20, min_spacing=5)
        assert picked
        for index in picked:
            assert values[index] <= cutoff

    def test_plateau_counts_as_a_valley_and_ties_go_earliest(self):
        values = [3.0, 1.0, 1.0, 3.0, 3.0]
        series = [SignalPoint(i, i, v, 10.0, False) for i, v in enumerate(values)]
        assert select_valleys(series, 1, min_spacing=1, valley_percentile=50.0) == [1]

    def test_spacing_is_enforced_between_accepted_valleys(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(0, 1, 800)
        series = [SignalPoint(i, i, float(v), 1.0, False) for i, v in enumerate(values)]
        picked = select_valleys(series, 10, min_spacing=50)
        assert len(picked) > 1
        ordered = sorted(picked)
        assert all(b - a >= 50 for a, b in zip(ordered, ordered[1:]))

    def test_count_and_degenerate_inputs(self):
        series = constant_series(0.0, 10)
        assert select_valleys(series, 0, min_spacing=1) == []
        assert select_valleys([], 3, min_spacing=1) == []
        assert len(select_valleys(series, 3, min_spacing=1)) == 3

    def test_valleys_use_event_indices_not_positions(self):
        series = constant_series(0.0, 30, start_index=500)
        assert select_valleys(series, 2, min_spacing=10) == [500, 510]


def _points(values, start=0):
    return [SignalPoint(start + i, start + i, float(v), 1.0, False)
            for i, v in enumerate(values)]


class TestValleyPool:
    def select(self, values, count, min_spacing, cutoff=1.0, size=4096):
        pool = ValleyPool(size)
        for point in _points(values):
            pool.observe(point)
        return pool.select(count, min_spacing, cutoff)

    def test_matches_offline_selection_on_a_flat_series(self):
        picked = self.select([0.0] * 40, 3, 10)
        assert picked == [0, 10, 20]
        assert picked == select_valleys(_points([0.0] * 40), 3, min_spacing=10)

    def test_finds_the_bottom_of_a_v(self):
        assert self.select([5, 4, 3, 2, 1, 0.5, 1, 2, 3, 4, 5], 1, 2) == [5]

    def test_last_point_of_a_descending_series_is_eligible(self):
        assert self.select([5, 4, 3, 2, 1], 1, 1) == [4]

    def test_cutoff_is_applied_at_selection(self):
        pool = ValleyPool(16)
        for point in _points([3.0, 1.0, 3.0, 0.5, 3.0, 2.0]):
            pool.observe(point)
        assert pool.select(5, 1, cutoff=0.75) == [3]
        assert pool.select(5, 1, cutoff=1.0) == [3, 1]
        # Selecting changes nothing: the last point stays provisional.
        assert pool.select(5, 1, cutoff=2.0) == [3, 1, 5]
        assert pool.select(5, 1, cutoff=2.0) == [3, 1, 5]
        # A lower next point ends the last one's claim and makes its own.
        pool.observe(SignalPoint(6, 6, 1.5, 1.0, False))
        assert pool.select(5, 1, cutoff=2.0) == [3, 1, 6]

    def test_monitor_cuts_at_the_sketch_valley_level_at_the_end(self):
        config = MonitorConfig(n_r=150, n_t=60, bin_count=10, sketch_bins=20,
                               min_signal_samples=200, valley_count=4)
        monitor, points, _ = run_monitor(
            config, np.random.default_rng(11).uniform(0, 1, 3000), seed=2
        )
        picked = monitor.valleys()
        assert picked == monitor.valleys()
        assert 0 < len(picked) <= 4
        level = monitor.sketch.percentile(config.valley_percentile)
        signals = {p.event_index: p.signal for p in points}
        assert all(signals[index] <= level for index in picked)
        ordered = sorted(picked)
        assert all(b - a >= config.n_t for a, b in zip(ordered, ordered[1:]))

    def test_no_valleys_before_the_first_point(self):
        monitor, points, _ = run_monitor(tiny_monitor_config(), [0.5] * 30)
        assert points == [] and monitor.valleys() == []

    def test_pool_stays_bounded(self):
        pool = ValleyPool(16)
        for point in _points([0.0] * 5000):
            pool.observe(point)
        assert len(pool._heap) <= 16
        assert len(pool.select(100, 1, cutoff=0.0)) == 16

    def test_zero_count_collects_nothing(self):
        assert self.select([0.0] * 30, 0, 10) == []


def monitor_state(monitor):
    """Everything ``Monitor.step`` can change, as comparable values."""
    signal = monitor.signal_state
    pool = monitor.valley_pool
    return (
        list(monitor.windows.r_events),
        list(monitor.windows.t_events),
        list(signal.hist_r.counts), signal.hist_r.total,
        list(signal.hist_t.counts), signal.hist_t.total,
        list(signal.r_bins), list(signal.t_bins),
        list(monitor.sketch.positions), monitor.sketch.count,
        monitor.events_seen, monitor.alarm_count,
        monitor.last_alarm_index, monitor.burn_in_sample, monitor._next_capture,
        monitor._capture_at, monitor._warmed_up,
        monitor.last_timestamp, list(pool._heap), pool._before_last, pool._last,
    )


class TestScoreValidation:
    @settings(max_examples=60, deadline=None)
    @given(
        prefix=st.lists(st.floats(0.0, 1.0), max_size=160),
        bad=st.one_of(
            st.just(math.nan), st.just(math.inf), st.just(-math.inf),
            st.floats(max_value=-1e-300, allow_infinity=False),
            st.floats(min_value=1.0, exclude_min=True, allow_nan=False, allow_infinity=False),
            st.booleans(),
            st.sampled_from([np.True_, np.False_, Decimal("0.5"), "0.5", None, 1j]),
        ),
    )
    @example(prefix=[], bad=np.True_)
    @example(prefix=[], bad=Decimal("0.5"))
    @example(prefix=[], bad="0.5")
    @example(prefix=[], bad=None)
    def test_rejected_score_leaves_state_unchanged(self, prefix, bad):
        monitor = Monitor(tiny_monitor_config(), seed=3)
        for i, score in enumerate(prefix):
            monitor.step(Event(i, score, ()))
        before = monitor_state(monitor)
        with pytest.raises(ScoreRangeError):
            monitor.step(Event(len(prefix), bad, ()))
        assert monitor_state(monitor) == before


class TestTimestampValidation:
    @settings(max_examples=60, deadline=None)
    @given(
        prefix=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=160),
        drop=st.integers(1, 10**6),
    )
    def test_decreasing_timestamp_leaves_state_unchanged(self, prefix, drop):
        monitor = Monitor(tiny_monitor_config(), seed=3)
        for i, score in enumerate(prefix):
            monitor.step(Event(1000 + i, score, ()))
        before = monitor_state(monitor)
        with pytest.raises(TimestampOrderError):
            monitor.step(Event(1000 + len(prefix) - 1 - drop, 0.5, ()))
        assert monitor_state(monitor) == before

    @settings(max_examples=60, deadline=None)
    @given(
        prefix=st.lists(st.floats(0.0, 1.0), max_size=160),
        bad=st.one_of(st.floats(), st.integers(0, 10**6).map(float), st.booleans()),
    )
    def test_non_integer_timestamp_leaves_state_unchanged(self, prefix, bad):
        monitor = Monitor(tiny_monitor_config(), seed=3)
        for i, score in enumerate(prefix):
            monitor.step(Event(i, score, ()))
        before = monitor_state(monitor)
        with pytest.raises(StreamError, match="bad timestamp"):
            monitor.step(Event(bad, 0.5, ()))
        assert monitor_state(monitor) == before

    def test_equal_timestamps_allowed(self):
        monitor = Monitor(tiny_monitor_config())
        monitor.step(Event(100, 0.5, ()))
        monitor.step(Event(100, 0.5, ()))
        assert monitor.events_seen == 2
