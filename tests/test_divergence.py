"""Histogram construction and the JSD signal."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftwatch import Event, IncrementalSignal, ScoreHistogram, WindowPair, jsd
from driftwatch.divergence import (
    EmptyWindowError,
    IncompatibleHistogramsError,
    bin_of,
)
from driftwatch.windows import PushResult
from helpers import score_events
from oracles import batch_jsd, histogram_counts

FROZEN_MIXED = 0.3112781244591328  # jsd of [1,0] against [0.5,0.5]


def hist_from_counts(counts):
    counts = np.asarray(counts, dtype=np.int64)
    return ScoreHistogram(len(counts), counts, int(counts.sum()))


class TestHistogram:
    def test_boundary_convention_two_bins(self):
        hist = ScoreHistogram.from_scores([0.0, 0.5, 1.0], bin_count=2)
        assert hist.counts == [1, 2] and hist.total == 3

    def test_point_mass(self):
        hist = ScoreHistogram.from_scores([0.25] * 7, bin_count=100)
        assert hist.counts[bin_of(0.25, 100)] == hist.total == 7
        assert sum(hist.counts) == hist.total

    def test_uniform_masses_near_equal(self):
        rng = np.random.default_rng(7)
        hist = ScoreHistogram.from_scores(rng.random(100_000), bin_count=100)
        assert hist.total == 100_000
        assert np.all(np.abs(np.array(hist.counts) / hist.total - 0.01) <= 0.004)

    def test_empty_rejected(self):
        with pytest.raises(EmptyWindowError):
            ScoreHistogram.from_scores([], bin_count=4)

    def test_add_remove_matches_batch(self):
        hist = ScoreHistogram(bin_count=4)
        for score in [0.1, 0.2, 0.9, 0.2]:
            hist.add(score)
        hist.remove(0.2)
        batch = ScoreHistogram.from_scores([0.1, 0.2, 0.9], bin_count=4)
        assert np.array_equal(hist.counts, batch.counts)

    def test_remove_from_empty_bin_rejected(self):
        hist = ScoreHistogram.from_scores([0.1], bin_count=4)
        with pytest.raises(ValueError):
            hist.remove(0.9)

    def test_score_one_lands_in_last_bin(self):
        assert bin_of(1.0, 100) == 99
        assert bin_of(0.9999999, 100) == 99

    @pytest.mark.parametrize(
        "bin_count, counts, total, message",
        [
            (0, None, 0, "bin_count must be at least 1"),
            (-2, [], 0, "bin_count must be at least 1"),
            (3, [1, 1], 2, "2 counts for 3 bins"),
            (2, [0, 0, 5], 5, "3 counts for 2 bins"),
            (2, [3, -1], 2, "negative count"),
            (2, [1, 1], 7, "total 7 is not the counts' sum 2"),
            (2, [1, 1], 0, "total 0 is not the counts' sum 2"),
        ],
        ids=["zero_bins", "negative_bins", "short_counts", "long_counts",
             "negative_count", "total_above_sum", "total_below_sum"],
    )
    def test_inconsistent_histogram_rejected(self, bin_count, counts, total, message):
        with pytest.raises(ValueError, match=message):
            ScoreHistogram(bin_count, counts, total)

    def test_consistent_histograms_accepted(self):
        assert ScoreHistogram(3).counts == [0, 0, 0]
        assert ScoreHistogram(3, np.array([0, 2, 1]), 3).counts == [0, 2, 1]


def incremental_state(incremental):
    return (list(incremental.hist_r.counts), incremental.hist_r.total,
            list(incremental.hist_t.counts), incremental.hist_t.total,
            list(incremental.r_bins), list(incremental.t_bins))


OUT_OF_RANGE = [-0.01, -0.5, 7.0, 1.0000000000000002, -math.inf, math.inf, math.nan]


@pytest.mark.parametrize("score", OUT_OF_RANGE)
class TestOutOfRangeScore:
    """Binning refuses a score outside [0, 1], naming it, before any count changes."""

    def test_bin_of(self, score):
        with pytest.raises(ValueError, match=rf"score {score!r} outside"):
            bin_of(score, 100)

    def test_add(self, score):
        hist = ScoreHistogram.from_scores([0.5, 0.995], bin_count=100)
        with pytest.raises(ValueError, match=rf"score {score!r} outside"):
            hist.add(score)
        assert hist == ScoreHistogram.from_scores([0.5, 0.995], bin_count=100)

    def test_remove(self, score):
        hist = ScoreHistogram.from_scores([0.5, 0.995], bin_count=100)
        with pytest.raises(ValueError, match=rf"score {score!r} outside"):
            hist.remove(score)
        assert hist == ScoreHistogram.from_scores([0.5, 0.995], bin_count=100)

    def test_from_scores(self, score):
        with pytest.raises(ValueError, match=rf"score {score!r} outside"):
            ScoreHistogram.from_scores([0.5, score], bin_count=100)

    def test_update(self, score):
        pair = WindowPair(3, 2)
        incremental = IncrementalSignal(100)
        for event in score_events([0.2, 0.4, 0.6, 0.8, 0.9]):
            incremental.update(event.score, pair.push(event))
        before = incremental_state(incremental)
        with pytest.raises(ValueError, match=rf"score {score!r} outside"):
            incremental.update(score, pair.push(Event(5, score, ())))
        assert incremental_state(incremental) == before


class TestCachedBins:
    def test_fresh_signal_refuses_a_warm_pairs_push(self):
        pair = WindowPair(3, 2)
        for event in score_events([0.1] * 5):
            pair.push(event)
        incremental = IncrementalSignal(4)
        result = pair.push(Event(5, 0.9, ()))
        assert result.moved_to_r is not None and result.dropped is not None
        with pytest.raises(ValueError, match="out of T"):
            incremental.update(0.9, result)
        assert incremental_state(incremental) == ([0] * 4, 0, [0] * 4, 0, [], [])

    def test_drop_refused_while_r_holds_none(self):
        incremental = IncrementalSignal(4)
        first, second, third = score_events([0.1, 0.5, 0.9])
        incremental.update(first.score, PushResult(None, None))
        before = incremental_state(incremental)
        with pytest.raises(ValueError, match="from R"):
            incremental.update(third.score, PushResult(first, second))
        assert incremental_state(incremental) == before

    def test_indices_follow_the_windows(self):
        pair = WindowPair(3, 2)
        incremental = IncrementalSignal(10)
        for event in score_events([0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 1.0]):
            incremental.update(event.score, pair.push(event))
        assert list(incremental.r_bins) == [2, 3, 4]
        assert list(incremental.t_bins) == [5, 9]


class TestJsd:
    def test_identical_is_zero(self):
        hist = hist_from_counts([3, 1, 4])
        assert jsd(hist, hist) == 0.0

    def test_disjoint_is_one(self):
        assert jsd(hist_from_counts([1, 0]), hist_from_counts([0, 1])) == 1.0

    def test_half_overlap_frozen_value(self):
        value = jsd(hist_from_counts([2, 0]), hist_from_counts([1, 1]))
        assert abs(value - FROZEN_MIXED) < 1e-9

    def test_bin_mismatch_rejected(self):
        with pytest.raises(IncompatibleHistogramsError):
            jsd(hist_from_counts([1, 1]), hist_from_counts([1, 1, 1]))

    def test_empty_rejected(self):
        with pytest.raises(EmptyWindowError):
            jsd(hist_from_counts([0, 0]), hist_from_counts([1, 1]))


random_counts = st.lists(st.integers(0, 50), min_size=2, max_size=12).filter(
    lambda c: sum(c) > 0
)


@given(random_counts, random_counts)
@settings(max_examples=300, deadline=None)
def test_jsd_properties(p_counts, q_counts):
    if len(p_counts) != len(q_counts):
        q_counts = (q_counts * len(p_counts))[: len(p_counts)]
        if sum(q_counts) == 0:
            q_counts[0] = 1
    p = hist_from_counts(p_counts)
    q = hist_from_counts(q_counts)
    forward = jsd(p, q)
    assert jsd(q, p) == forward
    assert 0.0 <= forward <= 1.0
    assert jsd(p, p) == 0.0
    assert abs(forward - batch_jsd(p_counts, q_counts)) < 1e-12


class TestSignal:
    """The signal the monitor reads: the incremental JSD of the pushed windows."""

    @staticmethod
    def signal_after(scores, bin_count):
        pair = WindowPair(3, 2)
        incremental = IncrementalSignal(bin_count)
        for event in score_events(scores):
            incremental.update(event.score, pair.push(event))
        return incremental

    def test_same_point_mass_is_zero(self):
        assert self.signal_after([0.25] * 5, bin_count=100).value() == 0.0

    def test_disjoint_supports_is_one(self):
        assert self.signal_after([0.1, 0.2, 0.3, 0.7, 0.9], bin_count=2).value() == 1.0

    def test_not_warmed_up_rejected(self):
        # Both pushes are still in T, so R holds no event.
        with pytest.raises(EmptyWindowError):
            self.signal_after([0.1, 0.9], bin_count=100).value()


def test_incremental_equals_batch_over_replay():
    rng = np.random.default_rng(11)
    scores = rng.random(10_000)
    pair = WindowPair(150, 50)
    incremental = IncrementalSignal(bin_count=100)
    worst = 0.0
    for step, event in enumerate(score_events(scores)):
        result = pair.push(event)
        incremental.update(event.score, result)
        if pair.warmed_up:
            r_counts = histogram_counts([e.score for e in pair.r_events], 100)
            t_counts = histogram_counts([e.score for e in pair.t_events], 100)
            worst = max(worst, abs(incremental.value() - batch_jsd(r_counts, t_counts)))
            if step % 97 == 0:
                assert np.array_equal(incremental.hist_r.counts, r_counts)
                assert np.array_equal(incremental.hist_t.counts, t_counts)
    assert worst < 1e-9


def _batch_jsd(scores, start, stop, bin_count):
    """JSD of the histograms of ``scores[start:stop]``'s halves, from scratch."""
    bins = np.minimum((scores * bin_count).astype(np.int64), bin_count - 1)
    hists = [
        hist_from_counts(np.bincount(bins[a:b], minlength=bin_count))
        for a, b in ((start, stop[0]), (stop[0], stop[1]))
    ]
    return jsd(*hists)


def test_incremental_is_exactly_batch_through_a_drift():
    """value() is bit-identical to a batch JSD at every step.

    The per-bin terms are summed with ``math.fsum``, so the incremental
    value can depend only on the two count vectors, not on the history
    that produced them: 24k events through 1500/250 windows with a drift
    at 12k, and a second signal started fresh at event 9000 that has to
    warm up again mid-stream. value() is also read while R is still
    filling, where every push changes the window totals.
    """
    n_r, n_t, bins = 1500, 250, 100
    rng = np.random.default_rng(5)
    scores = np.concatenate([rng.beta(2, 8, 12_000), rng.beta(5, 3, 12_000)])
    events = score_events(scores)
    runs = [(0, WindowPair(n_r, n_t), IncrementalSignal(bins)),
            (9_000, WindowPair(n_r, n_t), IncrementalSignal(bins))]
    checked = 0
    for step, event in enumerate(events):
        for start, pair, incremental in runs:
            if step < start:
                continue
            incremental.update(event.score, pair.push(event))
            if not pair.r_events:
                continue
            stop = step + 1
            r_start = max(start, stop - n_t - n_r)
            expected = _batch_jsd(scores, r_start, (stop - n_t, stop), bins)
            assert incremental.value() == expected, step
            if pair.warmed_up and step % 500 == 0:
                hist_r, hist_t = (ScoreHistogram.from_scores((e.score for e in w), bins)
                                  for w in (pair.r_events, pair.t_events))
                assert incremental.value() == jsd(hist_r, hist_t), step
            checked += 1
    assert checked == (len(events) - n_t) + (len(events) - 9_000 - n_t)
