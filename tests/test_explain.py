"""Tests for the alarm explanation pipeline.

Covers the dependence estimator and its shuffle calibration, the burn-in
feature filter, snapshot encoding, target ranking, the validation curve
sweep, and full report assembly.
"""

import itertools
import json
import os
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftwatch import (
    CATEGORICAL,
    MISSING,
    NUMERIC,
    AlarmTrigger,
    Event,
    FeatureFilterEntry,
    FeatureSpec,
    MicFilterResult,
    Monitor,
    MonitorConfig,
    ReportConfig,
    build_report,
    encode,
    gbdt,
    rank_target_events,
    shuffle_count,
    time_correlation_filter,
    validation_curve,
)
from driftwatch.divergence import ScoreHistogram, jsd
from driftwatch.explain import MODEL_SCORE_COLUMN, TOP_EVENTS, TOP_IMPORTANCES, _GridSearch
from driftwatch.report import render_markdown, to_json_dict
from driftwatch.windows import ConfigError

from helpers import (
    EMPTY_SCHEMA,
    assert_reaped,
    record_forks,
    schema_of,
    score_events,
    with_cpus,
)
from oracles import mic, reference_filter, reference_mic


class TestMic:
    def test_identity_on_distinct_values_is_one(self):
        x = np.arange(100.0)
        assert mic(x, x) == 1.0

    def test_constant_series_scores_zero(self):
        assert mic(np.ones(50), np.arange(50.0)) == 0.0
        assert mic(np.arange(50.0), np.full(50, 3.7)) == 0.0

    def test_parabola_detected_despite_nonmonotonicity(self):
        t = np.arange(-50.0, 51.0)
        assert mic(t * t, t) >= 0.8

    def test_monotone_transform_of_uniform_is_one(self):
        x = np.random.default_rng(7).uniform(0.01, 1.0, size=300)
        assert mic(np.log(x), x) == 1.0

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.normal(size=200)
            b = rng.normal(size=200) + 0.5 * a
            assert mic(a, b) == mic(b, a)

    def test_independent_noise_scores_low(self):
        rng = np.random.default_rng(7)
        assert mic(rng.normal(size=400), rng.normal(size=400)) < 0.2

    def test_too_short_for_any_grid_scores_zero(self):
        assert mic([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mic([1.0, 2.0], [1.0, 2.0, 3.0])

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=80),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_and_symmetry_properties(self, xs, seed):
        x = np.array(xs)
        t = np.random.default_rng(seed).normal(size=len(x))
        forward = mic(x, t)
        assert 0.0 <= forward <= 1.0
        assert forward == mic(t, x)


class TestMicEdges:
    @pytest.mark.parametrize("x,t", [
        ([np.nan] * 50, np.arange(50.0)),
        (np.arange(50.0), [np.nan] * 50),
        (np.r_[np.arange(49.0), np.nan], np.arange(50.0)),
    ])
    def test_nan_rejected(self, x, t):
        with pytest.raises(ValueError, match="NaN"):
            mic(x, t)

    @pytest.mark.parametrize("x,t", [
        (np.ones((25, 2)), np.arange(50.0)),
        (np.arange(50.0), np.arange(50.0).reshape(5, 10)),
        (3.0, 3.0),
    ])
    def test_input_that_is_not_1d_rejected(self, x, t):
        with pytest.raises(ValueError, match="1-D"):
            mic(x, t)

    def test_symmetry_is_exact_at_the_filter_sample_size_with_ties(self):
        rng = np.random.default_rng(8)
        for _ in range(3):
            a = np.round(rng.normal(size=1000), 1)
            b = np.round(a + rng.normal(size=1000), 0)
            assert mic(a, b) == mic(b, a)


def _mic_cases(n, rng):
    """Random, tied and categorical-code pairs of length n."""
    x = rng.normal(size=n)
    yield x, rng.normal(size=n) + 0.5 * x
    yield np.round(x, 1), rng.integers(0, 7, size=n).astype(np.float64)
    yield rng.integers(0, 4, size=n).astype(np.float64), np.arange(n, dtype=np.float64)


class TestMicMatchesGridByGridOracle:
    """The batched search sums each candidate grid with the same operations
    as the grid-by-grid loop, so the MICs are equal, not just close."""

    @pytest.mark.parametrize("n", [4, 37, 100, 1000])
    def test_unshuffled_and_shuffled(self, n):
        rng = np.random.default_rng(n)
        for x, t in _mic_cases(n, rng):
            perms = [rng.permutation(n) for _ in range(3)]
            assert mic(x, t) == reference_mic(x, t)
            assert [mic(x[p], t) for p in perms] == [reference_mic(x[p], t) for p in perms]
            if n >= 37:
                scores = _GridSearch(t).mic_scores(x, perms)
                assert scores == [reference_mic(x[p], t) for p in [np.arange(n), *perms]]


class TestShuffleCount:
    def test_pinned_values(self):
        assert shuffle_count(0.05, 0.95) == 59
        assert shuffle_count(0.5, 0.5) == 1
        assert shuffle_count(0.01, 0.99) == 459

    @pytest.mark.parametrize("alpha,p", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-0.1, 0.5)])
    def test_bounds_rejected(self, alpha, p):
        with pytest.raises(ValueError):
            shuffle_count(alpha, p)

    @given(st.floats(0.001, 0.999), st.floats(0.001, 0.999))
    @settings(max_examples=80, deadline=None)
    def test_count_actually_suffices(self, alpha, p):
        m = shuffle_count(alpha, p)
        assert m >= 1
        # P(max of m null draws exceeds the alpha tail) >= p, and m is minimal.
        assert 1.0 - (1.0 - alpha) ** m >= p - 1e-12
        if m > 1:
            assert 1.0 - (1.0 - alpha) ** (m - 1) < p + 1e-12


def _burn_in_events(n=1200, seed=11):
    """Burn-in with one order-following, one step-change, one constant,
    two noise, and one categorical feature."""
    rng = np.random.default_rng(seed)
    schema = schema_of(
        ("row_id", NUMERIC),
        ("noise_a", NUMERIC),
        ("noise_b", NUMERIC),
        ("plan", CATEGORICAL),
        ("flat", NUMERIC),
        ("regime", NUMERIC),
    )
    plans = ["web", "pos", "api"]
    events = []
    for i in range(n):
        regime = (3.0 if i > n // 2 else 0.0) + rng.normal() * 0.1
        events.append(
            Event(i, 0.5, (
                float(i),
                float(rng.normal()),
                float(rng.uniform()),
                plans[int(rng.integers(3))],
                2.5,
                float(regime),
            ))
        )
    return events, schema


class TestTimeCorrelationFilter:
    def test_order_and_step_features_removed_noise_kept(self):
        events, schema = _burn_in_events()
        result = time_correlation_filter(events, schema, seed=5)
        assert result.removed_names() == ("row_id", "regime")
        assert result.shuffles == 59
        assert result.sample_size == 1000

    def test_constant_feature_kept_with_zero_mic(self):
        events, schema = _burn_in_events()
        entry = {e.name: e for e in time_correlation_filter(events, schema, seed=5).features}
        assert entry["flat"].mic == 0.0
        assert entry["flat"].shuffle_threshold == 0.0
        assert not entry["flat"].removed

    def test_constant_feature_value_does_not_perturb_others(self):
        # Constant columns skip the MIC search but must still consume
        # the same shuffle randomness, so every other entry is identical
        # no matter what the constant is.
        events, schema = _burn_in_events()
        swapped = [
            Event(e.timestamp, e.score, e.features[:4] + (-9.0,) + e.features[5:])
            for e in events
        ]
        original = time_correlation_filter(events, schema, seed=5).features
        altered = time_correlation_filter(swapped, schema, seed=5).features
        assert [f for f in original if f.name != "flat"] == [
            f for f in altered if f.name != "flat"
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_grid_by_grid_oracle_filter(self, seed):
        # Criterion-08 style: one index-following column, iid noise, and a
        # constant column whose shuffles must still be drawn.
        rng = np.random.default_rng(100 + seed)
        noise = rng.normal(size=(1000, 3))
        schema = schema_of(("order", NUMERIC), ("noise_0", NUMERIC), ("flat", NUMERIC),
                           ("noise_1", NUMERIC), ("noise_2", NUMERIC))
        events = [
            Event(i, 0.5, (float(i), float(noise[i, 0]), 1.0, *map(float, noise[i, 1:])))
            for i in range(1000)
        ]
        result = time_correlation_filter(events, schema, seed=seed)
        assert [(f.mic, f.shuffle_threshold, f.removed) for f in result.features] == (
            reference_filter(events, schema, seed)
        )
        assert "order" in result.removed_names()

    def test_deterministic_for_a_seed(self):
        events, schema = _burn_in_events()
        assert time_correlation_filter(events, schema, seed=5) == time_correlation_filter(
            events, schema, seed=5
        )

    def test_short_burn_in_warns_and_uses_everything(self):
        events, schema = _burn_in_events(n=200)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = time_correlation_filter(events, schema, seed=5)
        assert result.sample_size == 200
        assert any("fewer than" in str(w.message) for w in caught)

    def test_empty_burn_in_rejected(self):
        with pytest.raises(ValueError):
            time_correlation_filter([], schema_of(("a", NUMERIC)), seed=0)


def _mixed_burn_in(n=1000, seed=3):
    """Burn-in led by a constant feature, then an all-missing numeric, a
    categorical, an order-tracking and a noise feature."""
    rng = np.random.default_rng(seed)
    schema = schema_of(("flat", NUMERIC), ("empty", NUMERIC), ("plan", CATEGORICAL),
                       ("clock", NUMERIC), ("noise", NUMERIC))
    plans = ["web", "pos", "api"]
    events = [
        Event(i, 0.5, (1.0, MISSING, plans[int(rng.integers(3))],
                       i + 50.0 * float(rng.normal()), float(rng.normal())))
        for i in range(n)
    ]
    return events, schema


def filter_bits(result):
    """Every float of a ``MicFilterResult`` in hex, which tells -0.0 from 0.0."""
    return [(f.mic.hex(), f.shuffle_threshold.hex()) for f in result.features]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
class TestFilterHelpers:
    """The filter deals its non-constant features to the CV fold helpers."""

    def test_same_result_on_any_cpu_count(self, monkeypatch):
        events, schema = _mixed_burn_in()
        forks = record_forks(monkeypatch)
        results = []
        for count in (1, 2, 4):
            with_cpus(monkeypatch, count)
            results.append(time_correlation_filter(events, schema, seed=7))
        for result in results[1:]:
            assert result == results[0]
            assert filter_bits(result) == filter_bits(results[0])
        # Three features need a search: plan, clock and noise.
        assert len(forks) == 0 + 1 + 2
        assert_reaped(forks)
        assert [(f.mic, f.shuffle_threshold, f.removed) for f in results[0].features] == (
            reference_filter(events, schema, 7)
        )
        assert results[0].removed_names() == ("clock",)
        assert results[0].features[1].warning == "all values missing"

    def test_helper_that_dies_mid_filter(self, monkeypatch):
        events, schema = _mixed_burn_in()
        with_cpus(monkeypatch, 1)
        expected = time_correlation_filter(events, schema, seed=7)
        caller = os.getpid()
        scores = _GridSearch.mic_scores
        searches = []

        def dies_in_the_helper(self, x, perms):
            if os.getpid() != caller:
                if searches:
                    os._exit(1)
                searches.append(None)
            return scores(self, x, perms)

        forks = record_forks(monkeypatch)
        monkeypatch.setattr(_GridSearch, "mic_scores", dies_in_the_helper)
        with_cpus(monkeypatch, 2)
        result = time_correlation_filter(events, schema, seed=7)
        assert result == expected
        assert filter_bits(result) == filter_bits(expected)
        assert len(forks) == 1
        assert_reaped(forks)


def _kept(name, kind):
    return FeatureFilterEntry(name, kind, 0.0, 0.1, False)


def _passthrough_filter(schema):
    return MicFilterResult(
        tuple(_kept(s.name, s.kind) for s in schema.features), 59, 1000, 0.05, 0.95
    )


class TestEncode:
    def test_matrix_shape_labels_and_score_column(self):
        schema = schema_of(("amount", NUMERIC))
        r = tuple(Event(i, 0.2, (float(i),)) for i in range(5))
        t = tuple(Event(10 + i, 0.8, (float(i),)) for i in range(3))
        matrix, warns = encode(r, t, schema, _passthrough_filter(schema))
        assert matrix.column_names == ["amount", MODEL_SCORE_COLUMN]
        assert matrix.x.shape == (8, 2)
        assert list(matrix.y) == [0] * 5 + [1] * 3
        assert list(matrix.x[:, 1]) == [0.2] * 5 + [0.8] * 3
        assert warns == []

    def test_removed_features_are_dropped(self):
        schema = schema_of(("keep", NUMERIC), ("junk", NUMERIC))
        filt = MicFilterResult(
            (_kept("keep", NUMERIC), FeatureFilterEntry("junk", NUMERIC, 0.9, 0.1, True)),
            59, 1000, 0.05, 0.95,
        )
        r = (Event(0, 0.5, (1.0, 7.0)),)
        t = (Event(1, 0.5, (2.0, 8.0)),)
        matrix, _ = encode(r, t, schema, filt)
        assert matrix.column_names == ["keep", MODEL_SCORE_COLUMN]
        assert list(matrix.x[:, 0]) == [1.0, 2.0]

    def test_categorical_frequency_rank_codes(self):
        schema = schema_of(("channel", CATEGORICAL))
        r = tuple(Event(i, 0.5, ("web",)) for i in range(4)) + (Event(4, 0.5, (MISSING,)),)
        t = tuple(Event(10 + i, 0.5, ("pos" if i < 2 else "web",)) for i in range(5))
        matrix, _ = encode(r, t, schema, _passthrough_filter(schema))
        # web appears 7 times, pos 2: web -> 1, pos -> 2, missing -> 0.
        assert list(matrix.x[:, 0]) == [1, 1, 1, 1, 0, 2, 2, 1, 1, 1]

    def test_categorical_frequency_ties_break_by_value(self):
        schema = schema_of(("channel", CATEGORICAL))
        r = (Event(0, 0.5, ("zeta",)), Event(1, 0.5, ("alpha",)))
        t = (Event(2, 0.5, ("zeta",)), Event(3, 0.5, ("alpha",)))
        matrix, _ = encode(r, t, schema, _passthrough_filter(schema))
        assert list(matrix.x[:, 0]) == [2, 1, 2, 1]

    def test_numeric_missing_imputes_to_joint_median(self):
        schema = schema_of(("amount", NUMERIC))
        r = tuple(Event(i, 0.5, (v,)) for i, v in enumerate((1.0, 2.0, MISSING)))
        t = tuple(Event(10 + i, 0.5, (v,)) for i, v in enumerate((10.0, MISSING)))
        matrix, warns = encode(r, t, schema, _passthrough_filter(schema))
        assert list(matrix.x[:, 0]) == [1.0, 2.0, 2.0, 10.0, 2.0]
        assert warns == []

    def test_all_missing_numeric_becomes_zero_with_warning(self):
        schema = schema_of(("ghost", NUMERIC))
        r = (Event(0, 0.5, (MISSING,)),)
        t = (Event(1, 0.5, (MISSING,)),)
        matrix, warns = encode(r, t, schema, _passthrough_filter(schema))
        assert list(matrix.x[:, 0]) == [0.0, 0.0]
        assert warns == ["ghost: all values missing"]


class TestRankTargetEvents:
    def test_constant_model_ranks_newest_first(self):
        x = np.arange(6.0).reshape(-1, 1)
        matrix = gbdt.TrainingMatrix(x, np.zeros(6, dtype=np.int64), ["only"])
        model = gbdt.fit(matrix)
        assert model.degenerate
        t_events = tuple(Event(i, 0.5, ()) for i in range(6))
        ranked = rank_target_events(t_events, model.train_prob)
        assert [position for position, _, _ in ranked] == [5, 4, 3, 2, 1, 0]
        assert len(ranked) == len(t_events)

    def test_scores_descend_and_events_match_positions(self):
        rng = np.random.default_rng(3)
        r_scores = rng.uniform(0.0, 0.4, 80)
        t_scores = rng.uniform(0.3, 1.0, 40)
        x = np.concatenate([r_scores, t_scores]).reshape(-1, 1)
        y = np.concatenate([np.zeros(80, dtype=np.int64), np.ones(40, dtype=np.int64)])
        model = gbdt.fit(gbdt.TrainingMatrix(x, y, ["model_score"]))
        t_events = tuple(Event(100 + i, float(s), ()) for i, s in enumerate(t_scores))
        ranked = rank_target_events(t_events, model.train_prob[80:])
        scores = [s for _, _, s in ranked]
        assert scores == sorted(scores, reverse=True)
        for position, event, score in ranked:
            assert event is t_events[position]
            assert score == model.train_prob[80 + position]


def _curve_fixture():
    """R flat near zero, T a baseline block plus a drifted cluster."""
    rng = np.random.default_rng(3)
    r_events = tuple(
        Event(i, float(s), ()) for i, s in enumerate(rng.uniform(0.0, 0.3, 400))
    )
    t_scores = list(rng.uniform(0.0, 0.3, 120)) + list(rng.uniform(0.8, 1.0, 80))
    t_events = tuple(Event(1000 + i, float(s), ()) for i, s in enumerate(t_scores))
    drifted_first = list(range(120, 200)) + list(range(120))
    return r_events, t_events, drifted_first


class TestValidationCurve:
    def test_k_zero_anchors_to_the_alarm_signal_exactly(self):
        r_events, t_events, ranked = _curve_fixture()
        curve = validation_curve(r_events, t_events, ranked, 20)
        hist_r = ScoreHistogram.from_scores((e.score for e in r_events), 20)
        hist_t = ScoreHistogram.from_scores((e.score for e in t_events), 20)
        anchor = jsd(hist_r, hist_t)
        assert curve.k_values[0] == 0
        assert abs(curve.ranked_jsd[0] - anchor) <= 1e-12
        assert abs(curve.random_jsd[0] - anchor) <= 1e-12

    def test_peeling_the_drift_cluster_collapses_the_signal(self):
        r_events, t_events, ranked = _curve_fixture()
        curve = validation_curve(r_events, t_events, ranked, 20)
        at_cluster = curve.k_values.index(80)
        assert curve.ranked_jsd[at_cluster] < 0.05
        assert curve.random_jsd[at_cluster] > 3 * curve.ranked_jsd[at_cluster]

    def test_default_grid_covers_half_of_t(self):
        r_events, t_events, ranked = _curve_fixture()
        curve = validation_curve(r_events, t_events, ranked, 20)
        assert curve.k_values[0] == 0
        assert curve.k_values[-1] <= len(t_events) // 2
        step = max(1, len(t_events) // 50)
        assert all(b - a == step for a, b in zip(curve.k_values, curve.k_values[1:]))

    def test_random_sweep_is_seeded_and_nested(self):
        r_events, t_events, ranked = _curve_fixture()
        one = validation_curve(r_events, t_events, ranked, 20, rng=np.random.default_rng(9))
        two = validation_curve(r_events, t_events, ranked, 20, rng=np.random.default_rng(9))
        assert one.random_jsd == two.random_jsd
        # Nested removal: recomputing any k's value from the permutation
        # prefix must reproduce the sweep point.
        perm = np.random.default_rng(9).permutation(len(t_events))
        hist_r = ScoreHistogram.from_scores((e.score for e in r_events), 20)
        for k, value in zip(one.k_values, one.random_jsd):
            hist = ScoreHistogram.from_scores(
                (e.score for i, e in enumerate(t_events) if i not in set(perm[:k])), 20
            )
            assert abs(jsd(hist_r, hist) - value) <= 1e-12


def _report_trigger(seed=17, t_size=60):
    """A trigger whose T window mixes baseline and drifted events."""
    rng = np.random.default_rng(seed)
    schema = schema_of(("amount", NUMERIC), ("channel", CATEGORICAL))
    channels = ["web", "pos", "api"]

    def event(i, score, drifted):
        amount = rng.normal(100.0 if not drifted else 160.0, 10.0)
        return Event(i, float(score), (float(amount), channels[int(rng.integers(3))]),
                     extras=(("case_id", f"c{i}"),))

    r_snapshot = tuple(event(i, rng.uniform(0.0, 0.4), False) for i in range(150))
    t_snapshot = tuple(
        event(200 + i, rng.uniform(0.5, 1.0) if i >= 20 else rng.uniform(0.0, 0.4), i >= 20)
        for i in range(t_size)
    )
    burn_in = tuple(event(i, rng.uniform(0.0, 0.4), False) for i in range(300))
    trigger = AlarmTrigger(
        alarm_index=0, event_index=900, timestamp=900, signal=0.4, threshold=0.2,
        r_snapshot=r_snapshot, t_snapshot=t_snapshot, burn_in_sample=burn_in,
    )
    return trigger, schema


@pytest.fixture(scope="module")
def report():
    trigger, schema = _report_trigger()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_report(trigger, schema, seed=4)


class TestBuildReport:
    def test_ranked_rows_cover_all_of_t_when_t_is_small(self, report):
        assert len(report.ranked_events) == 60
        assert [row.rank for row in report.ranked_events] == list(range(1, 61))

    def test_event_columns_follow_importance_order(self, report):
        assert report.event_columns == [name for name, _ in report.importances]
        assert len(report.importances) <= TOP_IMPORTANCES
        gains = [gain for _, gain in report.importances]
        assert gains == sorted(gains, reverse=True)

    def test_rows_carry_cells_and_extras(self, report):
        for row in report.ranked_events:
            assert len(row.cells) == len(report.event_columns)
            assert set(row.extras) == {"case_id"}

    def test_window_metadata_copied_from_trigger(self, report):
        assert (report.r_size, report.t_size) == (150, 60)
        assert report.signal == 0.4
        assert report.threshold == 0.2
        assert report.r_start_timestamp == 0
        assert report.t_end_timestamp == 259

    def test_cv_runs_at_requested_fold_count(self, report):
        assert report.cv_k == 5
        assert len(report.cv_fold_aucs) == 5
        assert report.cv_mean_auc > 0.7

    def test_validation_anchor_is_consistent(self, report):
        hist_r = ScoreHistogram.from_scores((e.score for e in _report_trigger()[0].r_snapshot), 100)
        hist_t = ScoreHistogram.from_scores((e.score for e in _report_trigger()[0].t_snapshot), 100)
        assert abs(report.validation.ranked_jsd[0] - jsd(hist_r, hist_t)) <= 1e-12

    def test_validation_curve_starts_at_the_monitor_signal(self):
        # The monitor's bin count differs from the default of 100, and the
        # report reads it from the trigger, not from a second setting.
        rng = np.random.default_rng(5)
        scores = np.concatenate([rng.beta(2.0, 8.0, 1500), rng.beta(8.0, 2.0, 600)])
        monitor = Monitor(MonitorConfig(n_r=400, n_t=150, bin_count=10, sketch_bins=20,
                                        min_signal_samples=450), seed=3)
        trigger = next(t for _, t in map(monitor.step, score_events(scores)) if t)
        assert trigger.bin_count == 10
        curve = build_report(trigger, EMPTY_SCHEMA, seed=0).validation
        assert curve.ranked_jsd[0] == curve.random_jsd[0] == trigger.signal

    def test_ranked_scores_are_the_full_models_predictions(self, report):
        # The ranking reads the full fit's train_prob; a separate tree walk
        # over the T rows gives the same scores, bit for bit.
        trigger, schema = _report_trigger()
        matrix, _ = encode(trigger.r_snapshot, trigger.t_snapshot, schema,
                           report.filter_result)
        walked = gbdt.predict_proba(gbdt.fit(matrix), matrix.x[len(trigger.r_snapshot):])
        order = sorted(range(len(walked)), key=lambda i: (-walked[i], -i))
        assert [(row.timestamp, row.alarm_score) for row in report.ranked_events] == [
            (trigger.t_snapshot[i].timestamp, float(walked[i])) for i in order
        ]

    def test_top_events_cap_applies(self):
        trigger, schema = _report_trigger(t_size=TOP_EVENTS + 20)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            capped = build_report(trigger, schema, seed=4)
        assert [row.rank for row in capped.ranked_events] == list(range(1, TOP_EVENTS + 1))

    def test_same_seed_reproduces_the_report_bit_for_bit(self, report):
        trigger, schema = _report_trigger()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            again = build_report(trigger, schema, seed=4)
        assert json.dumps(to_json_dict(again)) == json.dumps(to_json_dict(report))

    def test_events_narrower_than_the_schema_rejected(self):
        schema = schema_of(("amount", NUMERIC), ("channel", CATEGORICAL))
        events = tuple(Event(i, 0.5, (float(i),)) for i in range(40))
        trigger = AlarmTrigger(0, 39, 39, 0.4, 0.2, events[:30], events[30:], events)
        with pytest.raises(ValueError, match="has 1 features; the schema has 2"):
            build_report(trigger, schema, seed=0)
        with pytest.raises(ValueError, match="has 1 features; the schema has 2"):
            encode(events[:30], events[30:], schema, _passthrough_filter(schema))

    def test_attached_filter_result_is_reused_verbatim(self):
        trigger, schema = _report_trigger()
        filt = _passthrough_filter(schema)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            built = build_report(trigger, schema, seed=4, filter_result=filt)
        assert built.filter_result is filt


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
class TestReportHelpers:
    """``build_report`` starts the CV fold helpers before its full fit."""

    def test_helpers_fork_before_the_full_fit(self, monkeypatch):
        trigger, schema = _report_trigger()
        filt = _passthrough_filter(schema)
        with_cpus(monkeypatch, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            alone = build_report(trigger, schema, seed=4, filter_result=filt)
        calls = []
        fork, fit = os.fork, gbdt.fit

        def recorded_fork():
            calls.append("fork")
            return fork()

        def recorded_fit(*args, **kwargs):
            calls.append("fit")
            return fit(*args, **kwargs)

        monkeypatch.setattr(os, "fork", recorded_fork)
        monkeypatch.setattr(gbdt, "fit", recorded_fit)
        with_cpus(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dealt = build_report(trigger, schema, seed=4, filter_result=filt)
        # One helper fits folds 0, 2 and 4; this process the full fit,
        # then folds 1 and 3.
        assert calls == ["fork", "fit", "fit", "fit"]
        assert json.dumps(to_json_dict(dealt)) == json.dumps(to_json_dict(alone))

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_caller_fits_twice_and_predicts_only_with_a_fold_model(self, monkeypatch, cpus):
        # The benchmark's traced run needs a gbdt.fit and a gbdt.predict_proba
        # span per alarm in this process; the ranking reads the full fit's
        # train_prob, so only this process's own CV folds predict.
        trigger, schema = _report_trigger()
        caller = os.getpid()
        fitted, predicted_with = [], []
        fit, predict_proba = gbdt.fit, gbdt.predict_proba

        def recorded_fit(data, *args, **kwargs):
            model = fit(data, *args, **kwargs)
            if os.getpid() == caller:
                fitted.append((data.n_rows, model))
            return model

        def recorded_predict_proba(model, x):
            if os.getpid() == caller:
                predicted_with.append(model)
            return predict_proba(model, x)

        monkeypatch.setattr(gbdt, "fit", recorded_fit)
        monkeypatch.setattr(gbdt, "predict_proba", recorded_predict_proba)
        with_cpus(monkeypatch, cpus)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            build_report(trigger, schema, seed=4, filter_result=_passthrough_filter(schema))
        assert len(fitted) >= 2 and len(predicted_with) >= 1
        full_rows = len(trigger.r_snapshot) + len(trigger.t_snapshot)
        (full,) = [model for rows, model in fitted if rows == full_rows]
        assert all(model is not full for model in predicted_with)

    def test_no_helper_outlives_a_raising_full_fit(self, monkeypatch):
        trigger, schema = _report_trigger()
        caller = os.getpid()

        def fails_in_the_caller(*args, **kwargs):
            if os.getpid() == caller:
                raise RuntimeError("full fit failed")
            time.sleep(60)

        forks = record_forks(monkeypatch)
        monkeypatch.setattr(gbdt, "fit", fails_in_the_caller)
        with_cpus(monkeypatch, 4)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="full fit failed"):
            build_report(trigger, schema, seed=4, filter_result=_passthrough_filter(schema))
        assert time.monotonic() - start < 30
        assert len(forks) == 3
        assert_reaped(forks)


class TestReportConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(cv_folds=1),
            dict(cv_folds=5.0),
            dict(cv_folds=True),
            dict(cv_folds=np.float64(3.0)),
            dict(cv_folds=np.True_),
            dict(cv_folds=None),
        ],
    )
    def test_bad_settings_rejected(self, overrides):
        with pytest.raises(ConfigError):
            ReportConfig(**overrides)

    def test_numpy_integer_counts_accepted(self):
        assert ReportConfig(cv_folds=np.int64(3)).cv_folds == 3
        assert ReportConfig(cv_folds=np.int32(2)).cv_folds == 2


class TestMarkdownTables:
    def test_every_table_line_has_as_many_cells_as_its_header(self):
        # Pipes and line breaks in a feature name, a category and an extra
        # may not split or add cells.
        schema = schema_of(("kind|x", CATEGORICAL), ("amount", NUMERIC))
        kinds = ["a|b", "c\nd", "e\r\nf"]

        def event(i, score):
            return Event(i, score, (kinds[i % 3], float(i % 7)), extras=(("x|y", "p|q"),))

        r_events = tuple(event(i, 0.1 + 0.01 * (i % 5)) for i in range(40))
        t_events = tuple(event(100 + i, 0.8 + 0.01 * (i % 5)) for i in range(30))
        trigger = AlarmTrigger(0, 129, 129, 0.5, 0.25, r_events, t_events, r_events)
        report = build_report(trigger, schema, seed=0,
                              filter_result=_passthrough_filter(schema))
        markdown = render_markdown(report)
        assert "a\\|b" in markdown and "c<br>d" in markdown and "e<br>f" in markdown
        assert "| x\\|y |" in markdown and "p\\|q" in markdown
        assert to_json_dict(report)["ranked_events"][0]["extras"] == {"x|y": "p|q"}

        tables = [list(lines) for is_table, lines in itertools.groupby(
            markdown.split("\n"), key=lambda line: line.startswith("|")) if is_table]
        assert len(tables) == 5
        for table in tables:
            cells = [len(re.split(r"(?<!\\)\|", line)) - 2 for line in table]
            assert cells == [cells[0]] * len(table)
