"""Tests for the synthetic stream generator."""

import copy
import json

import numpy as np
import pytest

from driftwatch import (
    CATEGORICAL,
    MISSING,
    NUMERIC,
    CategoricalGenerator,
    ConfigError,
    DriftSegment,
    NumericGenerator,
    ScoreMixture,
    SyntheticSpec,
    generate_events,
)
from driftwatch.stream_model import read_stream
from driftwatch.synthetic import spec_from_json, write_outputs

BASELINE = ScoreMixture(0.9, 1.5, 12.0, 6.0, 3.0)
DRIFTED = ScoreMixture(0.1, 1.5, 12.0, 12.0, 2.5)


def small_spec(**overrides):
    settings = dict(
        events=400,
        score=BASELINE,
        features=(
            ("amount", NumericGenerator(100.0, 15.0, missing_rate=0.1)),
            ("channel", CategoricalGenerator(("web", "pos"), (0.7, 0.3))),
        ),
        drifts=(DriftSegment(200, 50, score=DRIFTED),),
        seed=7,
    )
    settings.update(overrides)
    return SyntheticSpec(**settings)


class TestSpecValidation:
    def test_overlapping_drifts_rejected(self):
        with pytest.raises(ConfigError, match="overlap"):
            small_spec(drifts=(DriftSegment(100, 50), DriftSegment(120, 10)))

    def test_touching_drifts_allowed(self):
        spec = small_spec(drifts=(DriftSegment(100, 50), DriftSegment(150, 10)))
        assert len(spec.drifts) == 2

    def test_drift_past_stream_end_rejected(self):
        with pytest.raises(ConfigError, match="past the stream end"):
            small_spec(drifts=(DriftSegment(390, 20),))

    def test_drift_override_must_name_a_feature(self):
        override = ("no_such_column", NumericGenerator(0.0, 1.0))
        with pytest.raises(ConfigError, match="unknown feature"):
            small_spec(drifts=(DriftSegment(10, 5, features=(override,)),))

    def test_mixture_parameters_validated(self):
        with pytest.raises(ConfigError):
            ScoreMixture(1.5, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigError):
            ScoreMixture(0.5, 0.0, 1.0, 1.0, 1.0)

    def test_generator_parameters_validated(self):
        with pytest.raises(ConfigError):
            NumericGenerator(0.0, -1.0)
        with pytest.raises(ConfigError):
            CategoricalGenerator((), ())
        with pytest.raises(ConfigError):
            CategoricalGenerator(("a",), (-1.0,))


class TestGeneration:
    def test_deterministic_for_a_seed(self):
        events_a, truth_a = generate_events(small_spec())
        events_b, truth_b = generate_events(small_spec())
        assert events_a == events_b
        assert truth_a == truth_b

    def test_different_seeds_differ(self):
        events_a, _ = generate_events(small_spec(seed=1))
        events_b, _ = generate_events(small_spec(seed=2))
        assert events_a != events_b

    def test_truth_lists_exactly_the_drift_segment(self):
        _, truth = generate_events(small_spec())
        assert truth == list(range(200, 250))

    def test_no_drifts_means_empty_truth(self):
        _, truth = generate_events(small_spec(drifts=()))
        assert truth == []

    def test_scores_stay_in_unit_interval(self):
        events, _ = generate_events(small_spec())
        assert all(0.0 <= e.score <= 1.0 for e in events)

    def test_timestamps_follow_start_and_step(self):
        spec = small_spec(timestamp_start=1000, timestamp_step=5)
        events, _ = generate_events(spec)
        assert [e.timestamp for e in events[:4]] == [1000, 1005, 1010, 1015]

    def test_missing_rate_manifests(self):
        spec = small_spec(events=2000, drifts=())
        events, _ = generate_events(spec)
        missing = sum(e.features[0] is MISSING for e in events)
        assert 100 < missing < 300

    def test_categorical_weights_manifest(self):
        spec = small_spec(events=2000, drifts=())
        events, _ = generate_events(spec)
        web = sum(e.features[1] == "web" for e in events)
        assert 1250 < web < 1550

    def test_drifted_scores_shift_upward(self):
        spec = SyntheticSpec(
            events=4000, score=BASELINE, drifts=(DriftSegment(2000, 2000, score=DRIFTED),),
            seed=3,
        )
        events, truth = generate_events(spec)
        baseline_mean = np.mean([e.score for e in events[:2000]])
        drifted_mean = np.mean([e.score for e in events[2000:]])
        assert drifted_mean > baseline_mean + 0.3
        assert truth == list(range(2000, 4000))

    def test_feature_override_applies_only_inside_the_segment(self):
        spec = small_spec(
            events=600,
            drifts=(
                DriftSegment(
                    300, 100,
                    features=(("amount", NumericGenerator(500.0, 1.0)),),
                ),
            ),
        )
        events, _ = generate_events(spec)
        inside = [e.features[0] for e in events[300:400] if e.features[0] is not MISSING]
        outside = [e.features[0] for e in events[:300] if e.features[0] is not MISSING]
        assert np.mean(inside) > 490
        assert np.mean(outside) < 200


# The JSON document ``driftwatch generate`` reads for ``small_spec()``.
SMALL_SPEC_DOC = {
    "seed": 7,
    "events": 400,
    "score": {"weight": 0.9, "a1": 1.5, "b1": 12.0, "a2": 6.0, "b2": 3.0},
    "features": [
        {"name": "amount", "type": "numeric", "mean": 100.0, "std": 15.0,
         "missing_rate": 0.1},
        {"name": "channel", "type": "categorical", "values": ["web", "pos"],
         "weights": [0.7, 0.3]},
    ],
    "drifts": [
        {"start": 200, "length": 50,
         "score": {"weight": 0.1, "a1": 1.5, "b1": 12.0, "a2": 12.0, "b2": 2.5}},
    ],
}


class TestJsonRoundTrip:
    def test_document_parses_to_the_spec(self):
        assert spec_from_json(SMALL_SPEC_DOC) == small_spec()

    def test_missing_required_field_rejected(self):
        doc = copy.deepcopy(SMALL_SPEC_DOC)
        del doc["score"]
        with pytest.raises(ConfigError, match="missing field"):
            spec_from_json(doc)

    def test_bad_value_rejected(self):
        doc = copy.deepcopy(SMALL_SPEC_DOC)
        doc["events"] = "many"
        with pytest.raises(ConfigError, match="bad synthetic spec value"):
            spec_from_json(doc)

    def test_unknown_generator_type_rejected(self):
        doc = copy.deepcopy(SMALL_SPEC_DOC)
        doc["features"][0]["type"] = "fancy"
        with pytest.raises(ConfigError, match="unknown feature generator"):
            spec_from_json(doc)


class TestWriteOutputs:
    def test_stream_and_sidecars_round_trip(self, tmp_path):
        spec = small_spec()
        out = str(tmp_path / "stream.csv")
        paths = write_outputs(spec, out)
        assert set(paths) == {"stream", "truth", "schema"}

        truth_doc = json.loads(open(paths["truth"], encoding="utf-8").read())
        assert truth_doc == {"drifted_indices": list(range(200, 250))}

        schema_doc = json.loads(open(paths["schema"], encoding="utf-8").read())
        assert [f["name"] for f in schema_doc["features"]] == ["amount", "channel"]
        assert [f["kind"] for f in schema_doc["features"]] == [NUMERIC, CATEGORICAL]

        with open(paths["stream"], encoding="utf-8") as handle:
            parsed = list(read_stream(handle, spec.schema(), "csv"))
        expected, _ = generate_events(spec)
        assert parsed == expected

    def test_two_writes_are_byte_identical(self, tmp_path):
        spec = small_spec()
        first = str(tmp_path / "a.csv")
        second = str(tmp_path / "b.csv")
        write_outputs(spec, first)
        write_outputs(spec, second)
        assert open(first, "rb").read() == open(second, "rb").read()
