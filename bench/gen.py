"""Seeded input generator for the driftwatch benchmark.

Writes, for one workload and one seed, the event stream as CSV, the
feature schema JSON, the monitor config and a truth file (drift onsets
and lengths, the columns each drift moves, the columns that track time).
It uses numpy and the standard library only and imports nothing from
driftwatch, so a change to the program cannot change its inputs. The
feature values of the burn-in are the same for every seed (see
``generate``).

    python3 bench/gen.py --workload score_stream --seed 1 --out DIR

Drifts are placed so that the number of refractory-gated alarms does not
depend on the seed; each report costs seconds, so a run whose alarm
count moved with the seed would not time the same work twice.

* score_stream: the one alarm falls in the long drift-free stretch, or at
  the latest in the first drift, and its refractory period outlasts the
  stream.
* alarm_reports and wide_schema: a score-only drift starts shortly before
  the first emitted point, so the signal is rising there and the first
  point is an alarm. Every later drift starts a fixed number of events
  before the refractory gate reopens, so the point where it reopens sits
  on a rising signal and is the next alarm. The first drift moves no
  feature, because it reaches into the burn-in sample the MIC time
  filter reads.
"""

from __future__ import annotations

import argparse
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Monitor defaults the benchmark relies on without setting them:
# bin_count = 100, sketch_bins = 100, min_signal_samples = 10 * sketch_bins.
BIN_COUNT = 100
SIGNAL_SAMPLES_BEFORE_EMISSION = 1000

BASELINE_MIX = (0.92, 1.5, 12.0, 6.0, 3.0)
DRIFTED_MIX = (0.08, 1.5, 12.0, 12.0, 2.5)
CATEGORIES = ("a", "b", "c", "d")
BASE_CAT_WEIGHTS = (0.5, 0.3, 0.15, 0.05)
DRIFT_CAT_WEIGHTS = (0.05, 0.15, 0.3, 0.5)
TIMESTAMP_START = 1_700_000_000_000


@dataclass(frozen=True)
class Feature:
    name: str
    kind: str  # "numeric" | "categorical" | "counter" | "ramp"
    missing_rate: float = 0.0


@dataclass(frozen=True)
class Drift:
    onset: int
    length: int
    columns: tuple[str, ...]  # feature columns it moves; the score always moves


@dataclass(frozen=True)
class Workload:
    name: str
    n_r: int
    n_t: int
    refractory_events: int
    events: int
    features: tuple[Feature, ...]
    drifts: tuple[Drift, ...]

    @property
    def first_emitted_index(self) -> int:
        return self.n_r + self.n_t + SIGNAL_SAMPLES_BEFORE_EMISSION - 1

    def config_text(self) -> str:
        return (f"monitor.n_r = {self.n_r}\nmonitor.n_t = {self.n_t}\n"
                f"monitor.refractory_events = {self.refractory_events}\n")


def pinned_workload(name, n_r, n_t, refractory, features, drift_columns):
    """Alarms pinned at the first emitted point and at each gate reopening.

    Drift 0 moves the score alone and starts 0.3 n_t before the first
    emitted point. Drift k >= 1 moves the score and ``drift_columns[k-1]``
    and starts 0.6 n_t before the gate reopens at
    ``first + k (refractory + 1)``, lasting 0.65 n_t. The stream ends
    0.4 n_t after the last reopening, before the gate can reopen again.
    """
    first = n_r + n_t + SIGNAL_SAMPLES_BEFORE_EMISSION - 1
    drifts = [Drift(first - (3 * n_t) // 10, (4 * n_t) // 10, ())]
    for k, columns in enumerate(drift_columns, start=1):
        reopen = first + k * (refractory + 1)
        drifts.append(Drift(reopen - (6 * n_t) // 10, (65 * n_t) // 100, columns))
    end = first + len(drift_columns) * (refractory + 1) + (4 * n_t) // 10
    return Workload(name, n_r, n_t, refractory, end, features, tuple(drifts))


# Why these three: score_stream is the per-event path (parse, windows,
# JSD, sketch) with one one-column report; alarm_reports is the report
# path on tall data (3500 rows, 4 columns) with alarms arriving faster than
# the pool builds them; wide_schema is the MIC filter over 10 features and
# the split search on wide data (550 rows, 7 columns after the filter).
#
# score_stream has one alarm: the first alarm point (in the drift-free
# stretch, or at the latest in the first drift) opens a refractory period
# that outlasts the stream. A one-column report costs
# about as much as 30k events, so more alarms would take the per-event
# path below three quarters of the run.
WORKLOADS = {
    "score_stream": Workload(
        "score_stream", 6000, 1000, 115_000, 120_000, (),
        (Drift(60_000, 1000, ()), Drift(100_000, 1000, ())),
    ),
    "alarm_reports": pinned_workload(
        "alarm_reports", 3000, 500, 3000,
        (
            Feature("amount", "numeric", 0.05),
            Feature("latency", "numeric", 0.05),
            Feature("country", "categorical", 0.05),
        ),
        [("amount",), ("country",)],
    ),
    "wide_schema": pinned_workload(
        "wide_schema", 400, 150, 1500,
        (
            Feature("row_counter", "counter"),
            Feature("ramp", "ramp"),
            Feature("drift_num", "numeric", 0.02),
        )
        + tuple(Feature(f"noise_{j}", "numeric", 0.02) for j in range(5))
        + tuple(Feature(f"noise_cat_{j}", "categorical") for j in range(2)),
        [("drift_num",)],
    ),
}


def _drift_mask(workload: Workload, column: str | None) -> np.ndarray:
    """Rows inside a drift that moves ``column`` (None: the score)."""
    mask = np.zeros(workload.events, dtype=bool)
    for drift in workload.drifts:
        if column is None or column in drift.columns:
            mask[drift.onset : drift.onset + drift.length] = True
    return mask


def _mixture(rng, n, mix):
    weight, a1, b1, a2, b2 = mix
    coin = rng.random(n)
    first = rng.beta(a1, b1, n)
    second = rng.beta(a2, b2, n)
    return np.where(coin < weight, first, second)


def _categorical(rng, n, weights):
    return rng.choice(len(CATEGORIES), size=n, p=np.asarray(weights))


def _feature_cells(feature: Feature, rng, rows: np.ndarray, n: int,
                   drifted: np.ndarray) -> list[str]:
    """CSV cells of one feature for the given rows of an n-row stream."""
    count = len(rows)
    if feature.kind == "counter":
        values = rows.astype(np.float64)
    elif feature.kind == "ramp":
        values = 10.0 * rows / n + rng.normal(0.0, 0.5, count)
    elif feature.kind == "numeric":
        values = rng.normal(0.0, 1.0, count) + np.where(drifted[rows], 3.0, 0.0)
    else:
        base = _categorical(rng, count, BASE_CAT_WEIGHTS)
        moved = _categorical(rng, count, DRIFT_CAT_WEIGHTS)
        values = np.where(drifted[rows], moved, base)
    missing = rng.random(count) < feature.missing_rate
    if feature.kind == "categorical":
        cells = [CATEGORIES[v] for v in values.tolist()]
    else:
        cells = [repr(v) for v in values.tolist()]
    return ["" if m else c for c, m in zip(cells, missing.tolist())]


def generate(workload: Workload, seed: int) -> tuple[list[list[str]], dict]:
    """Columns of cell strings (timestamp, score, features) and the truth."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    n = workload.events
    gaps = rng.integers(1, 2000, size=n)
    timestamps = TIMESTAMP_START + np.cumsum(gaps)
    score_drift = _drift_mask(workload, None)
    scores = np.where(
        score_drift, _mixture(rng, n, DRIFTED_MIX), _mixture(rng, n, BASELINE_MIX)
    )
    columns = [[str(t) for t in timestamps.tolist()], [repr(s) for s in scores.tolist()]]
    # Feature values of the burn-in, the sample the MIC time filter reads,
    # are the same for every seed: the filter drops each feature with
    # probability about 1/60 by design, and a dropped column makes every
    # later report cheaper, so with a seeded burn-in the report work would
    # move with the seed.
    burn_in = workload.first_emitted_index + 1
    fixed = np.random.default_rng(zlib.crc32(workload.name.encode()))
    time_columns = [f.name for f in workload.features if f.kind in ("counter", "ramp")]
    for feature in workload.features:
        drifted = _drift_mask(workload, feature.name)
        cells = (_feature_cells(feature, fixed, np.arange(burn_in), n, drifted)
                 + _feature_cells(feature, rng, np.arange(burn_in, n), n, drifted))
        columns.append(cells)
    truth = {
        "workload": workload.name,
        "seed": seed,
        "events": n,
        "n_r": workload.n_r,
        "n_t": workload.n_t,
        "refractory_events": workload.refractory_events,
        "bin_count": BIN_COUNT,
        "first_emitted_index": workload.first_emitted_index,
        "drifts": [
            {"onset": d.onset, "length": d.length, "columns": ["model_score", *d.columns]}
            for d in workload.drifts
        ],
        "time_columns": time_columns,
        "never_drift": [
            f.name for f in workload.features
            if f.name not in time_columns
            and not any(f.name in d.columns for d in workload.drifts)
        ],
    }
    return columns, truth


def write_inputs(workload: Workload, seed: int, out: Path) -> dict[str, Path]:
    """Write stream.csv, schema.json, monitor.conf and truth.json into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    columns, truth = generate(workload, seed)
    paths = {
        "stream": out / "stream.csv",
        "schema": out / "schema.json",
        "config": out / "monitor.conf",
        "truth": out / "truth.json",
    }
    header = ["timestamp", "score", *(f.name for f in workload.features)]
    with open(paths["stream"], "w", encoding="utf-8", newline="") as sink:
        sink.write(",".join(header) + "\n")
        sink.writelines(",".join(row) + "\n" for row in zip(*columns))
    kinds = {"categorical": "categorical"}
    schema = {
        "features": [
            {"name": f.name, "kind": kinds.get(f.kind, "numeric")}
            for f in workload.features
        ]
    }
    paths["schema"].write_text(json.dumps(schema, indent=2) + "\n", encoding="utf-8")
    paths["config"].write_text(workload.config_text(), encoding="utf-8")
    paths["truth"].write_text(json.dumps(truth, indent=2) + "\n", encoding="utf-8")
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the four files")
    args = parser.parse_args(argv)
    paths = write_inputs(WORKLOADS[args.workload], args.seed, Path(args.out))
    print(json.dumps({k: str(v) for k, v in paths.items()}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
