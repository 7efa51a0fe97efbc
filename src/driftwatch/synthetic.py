"""Synthetic score streams with labeled drift segments.

Stands in for production traffic when exercising the monitor: a baseline
score mixture plus optional feature columns, with drift segments that
swap in shifted distributions for a contiguous index range. The truth
sidecar lists exactly which event indices were drifted, so detection
tests have ground truth to compare against.

Determinism contract: one numpy Generator seeded from SyntheticSpec, and a
fixed draw order per event (score component coin, score value, then per
feature in declared order: one missing-value coin, one value draw).
Same spec and seed always reproduce the same byte stream.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field

import numpy as np

from .stream_model import (
    CATEGORICAL,
    MISSING,
    NUMERIC,
    Event,
    FeatureSchema,
    FeatureSpec,
    FeatureValue,
    write_csv_stream,
)
from .windows import ConfigError


@dataclass(frozen=True)
class ScoreMixture:
    """Two-component Beta mixture on [0, 1].

    ``weight`` is the probability of drawing from the first component.
    """

    weight: float
    a1: float
    b1: float
    a2: float
    b2: float

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise ConfigError("mixture weight must lie in [0, 1]")
        for value in (self.a1, self.b1, self.a2, self.b2):
            if value <= 0.0:
                raise ConfigError("Beta shape parameters must be positive")

    def draw(self, rng: np.random.Generator) -> float:
        coin = rng.random()
        if coin < self.weight:
            return float(rng.beta(self.a1, self.b1))
        return float(rng.beta(self.a2, self.b2))

    @classmethod
    def from_json(cls, data: dict) -> "ScoreMixture":
        return cls(
            float(data["weight"]),
            float(data["a1"]), float(data["b1"]),
            float(data["a2"]), float(data["b2"]),
        )


@dataclass(frozen=True)
class NumericGenerator:
    mean: float
    std: float
    missing_rate: float = 0.0
    kind: str = field(default=NUMERIC, init=False)

    def __post_init__(self):
        if self.std < 0.0:
            raise ConfigError("std must be non-negative")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ConfigError("missing_rate must lie in [0, 1)")

    def draw(self, rng: np.random.Generator) -> FeatureValue:
        missing = rng.random() < self.missing_rate
        value = float(rng.normal(self.mean, self.std))
        return MISSING if missing else value


@dataclass(frozen=True)
class CategoricalGenerator:
    values: tuple[str, ...]
    weights: tuple[float, ...]
    missing_rate: float = 0.0
    kind: str = field(default=CATEGORICAL, init=False)

    def __post_init__(self):
        if len(self.values) != len(self.weights) or not self.values:
            raise ConfigError("values and weights must be non-empty and match")
        if any(w < 0.0 for w in self.weights) or sum(self.weights) <= 0.0:
            raise ConfigError("weights must be non-negative with positive sum")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ConfigError("missing_rate must lie in [0, 1)")

    def draw(self, rng: np.random.Generator) -> FeatureValue:
        missing = rng.random() < self.missing_rate
        coin = rng.random()
        total = sum(self.weights)
        cumulative = []
        running = 0.0
        for w in self.weights:
            running += w / total
            cumulative.append(running)
        position = bisect.bisect_left(cumulative, coin)
        position = min(position, len(self.values) - 1)
        return MISSING if missing else self.values[position]


FeatureGenerator = NumericGenerator | CategoricalGenerator


def _generator_from_json(data: dict) -> FeatureGenerator:
    kind = data.get("type")
    if kind == "numeric":
        return NumericGenerator(
            float(data["mean"]),
            float(data["std"]),
            float(data.get("missing_rate", 0.0)),
        )
    if kind == "categorical":
        return CategoricalGenerator(
            tuple(str(v) for v in data["values"]),
            tuple(float(w) for w in data["weights"]),
            float(data.get("missing_rate", 0.0)),
        )
    raise ConfigError(f"unknown feature generator type: {kind!r}")


@dataclass(frozen=True)
class DriftSegment:
    """Contiguous index range where drifted distributions replace baselines.

    ``score`` of None keeps the baseline score mixture; ``features`` maps
    feature names to override generators, all other features keep theirs.
    """

    start: int
    length: int
    score: ScoreMixture | None = None
    features: tuple[tuple[str, FeatureGenerator], ...] = ()

    def __post_init__(self):
        if self.start < 0 or self.length < 1:
            raise ConfigError("drift segment needs start >= 0 and length >= 1")

    @property
    def end(self) -> int:
        return self.start + self.length


@dataclass(frozen=True)
class SyntheticSpec:
    events: int
    score: ScoreMixture
    features: tuple[tuple[str, FeatureGenerator], ...] = ()
    drifts: tuple[DriftSegment, ...] = ()
    seed: int = 0
    timestamp_start: int = 0
    timestamp_step: int = 1

    def __post_init__(self):
        if self.events < 0:
            raise ConfigError("events must be non-negative")
        if self.timestamp_step < 0:
            raise ConfigError("timestamp_step must be non-negative")
        names = {name for name, _ in self.features}
        ordered = sorted(self.drifts, key=lambda seg: seg.start)
        for earlier, later in zip(ordered, ordered[1:]):
            if later.start < earlier.end:
                raise ConfigError(
                    f"drift segments overlap at index {later.start}"
                )
        for segment in ordered:
            if segment.end > self.events:
                raise ConfigError("drift segment extends past the stream end")
            for name, _ in segment.features:
                if name not in names:
                    raise ConfigError(f"drift overrides unknown feature {name!r}")

    def schema(self) -> FeatureSchema:
        return FeatureSchema(
            tuple(FeatureSpec(name, gen.kind) for name, gen in self.features)
        )


def spec_from_json(data: dict) -> SyntheticSpec:
    try:
        features = tuple(
            (str(entry["name"]), _generator_from_json(entry))
            for entry in data.get("features", [])
        )
        drifts = []
        for entry in data.get("drifts", []):
            score = entry.get("score")
            overrides = tuple(
                (str(name), _generator_from_json(gen))
                for name, gen in entry.get("features", {}).items()
            )
            drifts.append(
                DriftSegment(
                    int(entry["start"]),
                    int(entry["length"]),
                    None if score is None else ScoreMixture.from_json(score),
                    overrides,
                )
            )
        return SyntheticSpec(
            int(data["events"]),
            ScoreMixture.from_json(data["score"]),
            features,
            tuple(drifts),
            int(data.get("seed", 0)),
            int(data.get("timestamp_start", 0)),
            int(data.get("timestamp_step", 1)),
        )
    except KeyError as exc:
        raise ConfigError(f"synthetic spec missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad synthetic spec value: {exc}") from exc


def generate_events(spec: SyntheticSpec) -> tuple[list[Event], list[int]]:
    """Draw the stream; returns (events, drifted event indices)."""
    rng = np.random.default_rng(spec.seed)
    segments = sorted(spec.drifts, key=lambda seg: seg.start)
    segment_at = 0
    events: list[Event] = []
    truth: list[int] = []
    for index in range(spec.events):
        while segment_at < len(segments) and index >= segments[segment_at].end:
            segment_at += 1
        active = None
        if segment_at < len(segments):
            seg = segments[segment_at]
            if seg.start <= index < seg.end:
                active = seg
        score_dist = spec.score
        overrides: dict[str, FeatureGenerator] = {}
        if active is not None:
            truth.append(index)
            if active.score is not None:
                score_dist = active.score
            overrides = dict(active.features)

        score = min(max(score_dist.draw(rng), 0.0), 1.0)
        values = tuple(
            overrides.get(name, gen).draw(rng) for name, gen in spec.features
        )
        timestamp = spec.timestamp_start + index * spec.timestamp_step
        events.append(Event(timestamp, score, values))
    return events, truth


def truth_path_for(output_path: str) -> str:
    return output_path + ".truth.json"


def schema_path_for(output_path: str) -> str:
    return output_path + ".schema.json"


def write_outputs(spec: SyntheticSpec, output_path: str) -> dict[str, str]:
    """Write the CSV stream plus truth and schema sidecars.

    Returns the paths written, keyed by role.
    """
    events, truth = generate_events(spec)
    schema = spec.schema()
    with open(output_path, "w", encoding="utf-8", newline="") as handle:
        write_csv_stream(events, schema, handle)
    truth_path = truth_path_for(output_path)
    with open(truth_path, "w", encoding="utf-8") as handle:
        json.dump({"drifted_indices": truth}, handle)
        handle.write("\n")
    schema_path = schema_path_for(output_path)
    with open(schema_path, "w", encoding="utf-8") as handle:
        handle.write(schema.to_json())
        handle.write("\n")
    return {"stream": output_path, "truth": truth_path, "schema": schema_path}
