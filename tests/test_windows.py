"""Window pair FIFO semantics and default sizing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftwatch import ConfigError, WindowPair
from helpers import score_events


def timestamps(window):
    return [e.timestamp for e in window]


class TestPush:
    def test_five_events_fill_both_windows(self):
        pair = WindowPair(n_r=3, n_t=2)
        for event in score_events([0.1] * 5):
            pair.push(event)
        assert timestamps(pair.r_events) == [0, 1, 2]
        assert timestamps(pair.t_events) == [3, 4]
        assert pair.warmed_up

    def test_sixth_event_cascades(self):
        pair = WindowPair(n_r=3, n_t=2)
        events = score_events([0.1] * 6)
        for event in events[:5]:
            pair.push(event)
        result = pair.push(events[5])
        assert timestamps(pair.r_events) == [1, 2, 3]
        assert timestamps(pair.t_events) == [4, 5]
        assert result.moved_to_r.timestamp == 3
        assert result.dropped.timestamp == 0

    def test_not_warmed_up_at_four(self):
        pair = WindowPair(n_r=3, n_t=2)
        for event in score_events([0.1] * 4):
            pair.push(event)
        assert not pair.warmed_up

    def test_snapshot_is_immutable_copy(self):
        pair = WindowPair(n_r=2, n_t=1)
        events = score_events([0.1] * 4)
        for event in events[:3]:
            pair.push(event)
        r_snap, t_snap = pair.snapshot()
        pair.push(events[3])
        assert timestamps(r_snap) == [0, 1]
        assert timestamps(t_snap) == [2]

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigError):
            WindowPair(n_r=0, n_t=2)


@given(
    n_r=st.integers(1, 8),
    n_t=st.integers(1, 8),
    total=st.integers(0, 40),
)
@settings(max_examples=200, deadline=None)
def test_windows_always_match_slice_arithmetic(n_r, n_t, total):
    """After k pushes the windows equal slices of the input sequence."""
    pair = WindowPair(n_r, n_t)
    events = score_events([0.5] * total)
    for k, event in enumerate(events, start=1):
        result = pair.push(event)
        t_expected = events[max(0, k - n_t):k]
        r_expected = events[max(0, k - n_t - n_r):max(0, k - n_t)]
        assert list(pair.t_events) == t_expected
        assert list(pair.r_events) == r_expected
        assert len(pair.r_events) + len(pair.t_events) <= n_r + n_t
        if k > n_t:
            assert result.moved_to_r is events[k - n_t - 1]
        else:
            assert result.moved_to_r is None
        if k > n_t + n_r:
            assert result.dropped is events[k - n_t - n_r - 1]
        else:
            assert result.dropped is None
