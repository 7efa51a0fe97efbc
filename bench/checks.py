"""Output checks for one ``driftwatch monitor`` run of a benchmark workload.

Each check recomputes what it tests from the input stream and the truth
file, or tests a property the method must have; none compares against a
stored copy of earlier output. ``check_run`` returns a list of failure
messages, empty when the run is correct.

The JSD below is the benchmark's own: equal-width bins on [0, 1] with a
score of 1.0 in the last bin, and base-2 entropies with 0 log 0 = 0.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

SIGNAL_TOLERANCE = 1e-9
AUC_TOLERANCE = 1e-12
MAX_NOISE_REMOVED = 3
REPORT_SUFFIXES = (".json", ".md", ".validation_curve.csv", ".roc.csv")
CHUNK = 4096


def read_scores(stream_path: Path) -> np.ndarray:
    """The score column of a benchmark stream (no quoted cells before it)."""
    with open(stream_path, encoding="utf-8") as source:
        next(source)
        return np.array([float(line.split(",", 2)[1]) for line in source])


def read_signal(signal_path: Path) -> dict[str, np.ndarray]:
    """Columns of signal.csv; numbers parse exactly, as they were written with repr."""
    rows = np.loadtxt(signal_path, delimiter=",", skiprows=1, ndmin=2)
    return {
        "event_index": rows[:, 0].astype(np.int64),
        "signal": rows[:, 2],
        "threshold": rows[:, 3],
        "is_alarm": rows[:, 4].astype(np.int64),
    }


def _entropy_bits(mass: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(mass > 0.0, mass * np.log2(mass), 0.0)
    return -terms.sum(axis=1)


def _cumulative_counts(bins: np.ndarray, start: int, stop: int, bin_count: int) -> np.ndarray:
    """Row k - start holds the per-bin counts of ``bins[:k]``, k in [start, stop)."""
    out = np.zeros((stop - start, bin_count), dtype=np.int64)
    out[0] = np.bincount(bins[:start], minlength=bin_count)
    step = np.zeros((stop - start - 1, bin_count), dtype=np.int64)
    step[np.arange(stop - start - 1), bins[start : stop - 1]] = 1
    out[1:] = out[0] + np.cumsum(step, axis=0)
    return out


def window_jsd(scores: np.ndarray, indices: np.ndarray, n_r: int, n_t: int,
               bin_count: int) -> np.ndarray:
    """JSD of R and T after each event in ``indices`` (consecutive, ascending).

    T holds events (i - n_t, i], R the n_r events before T.
    """
    bins = np.minimum((scores * bin_count).astype(np.int64), bin_count - 1)
    out = np.empty(len(indices))
    for at in range(0, len(indices), CHUNK):
        first, last = int(indices[at]), int(indices[min(at + CHUNK, len(indices)) - 1])
        upto = _cumulative_counts(bins, first + 1, last + 2, bin_count)
        t_low = _cumulative_counts(bins, first + 1 - n_t, last + 2 - n_t, bin_count)
        r_low = _cumulative_counts(bins, first + 1 - n_t - n_r, last + 2 - n_t - n_r,
                                   bin_count)
        p = (t_low - r_low) / n_r
        q = (upto - t_low) / n_t
        value = _entropy_bits(0.5 * (p + q)) - 0.5 * (_entropy_bits(p) + _entropy_bits(q))
        out[at : at + len(value)] = np.clip(value, 0.0, 1.0)
    return out


def recompute_triggers(signal: dict, refractory: int) -> list[int]:
    """Event indices of alarm points that pass the refractory gate."""
    triggers: list[int] = []
    for index in signal["event_index"][signal["is_alarm"] == 1].tolist():
        if not triggers or index - triggers[-1] > refractory:
            triggers.append(index)
    return triggers


def auc_from_roc(points) -> float:
    area = 0.0
    for (fpr_a, tpr_a), (fpr_b, tpr_b) in zip(points, points[1:]):
        area += 0.5 * (tpr_a + tpr_b) * (fpr_b - fpr_a)
    return area


def digests(run_dir: Path) -> dict[str, str]:
    """SHA-256 of signal.csv and of every report file, by file name."""
    names = [p for p in sorted(run_dir.iterdir()) if p.name == "signal.csv"
             or p.name.startswith("alarm_")]
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in names}


def _check_signal(signal, scores, truth, failures):
    first = truth["first_emitted_index"]
    indices = signal["event_index"]
    expected_rows = truth["events"] - first
    if len(indices) != expected_rows or indices[0] != first \
            or not np.array_equal(indices, np.arange(first, first + len(indices))):
        failures.append(
            f"signal.csv: expected rows for events {first}..{truth['events'] - 1}, "
            f"got {len(indices)} rows from {indices[0] if len(indices) else None}"
        )
        return False
    expected = window_jsd(scores, indices, truth["n_r"], truth["n_t"], truth["bin_count"])
    error = np.abs(signal["signal"] - expected)
    worst = int(np.argmax(error))
    if error[worst] > SIGNAL_TOLERANCE:
        failures.append(
            f"signal at event {indices[worst]} is {signal['signal'][worst]!r}, "
            f"recomputed JSD {expected[worst]!r}"
        )
    flags = (signal["signal"] > signal["threshold"]).astype(np.int64)
    wrong = np.nonzero(flags != signal["is_alarm"])[0]
    if len(wrong):
        failures.append(f"is_alarm != (signal > threshold) at event {indices[wrong[0]]}"
                        f" and {len(wrong) - 1} more")
    return True


def pre_drift_share(run_dir: Path, truth: dict) -> float | None:
    """Share of alarm points before the first drift, None if there are none.

    Printed, not checked: the signal is correlated over about one target
    window, so over 52 windows of score_stream the share still moves by
    several points between seeds (3-7% is not held on every seed).
    """
    signal = read_signal(run_dir / "signal.csv")
    before = signal["event_index"] < truth["drifts"][0]["onset"]
    return float((signal["is_alarm"][before] == 1).mean()) if before.any() else None


def _check_detection(signal, truth, failures):
    indices, alarms = signal["event_index"], signal["is_alarm"] == 1
    for drift in truth["drifts"]:
        near = (indices >= drift["onset"]) & (indices <= drift["onset"] + truth["n_t"])
        if not alarms[near].any():
            failures.append(f"no alarm point within n_t of the drift at {drift['onset']}")


def _check_reports(run_dir, signal, manifest, truth, failures):
    triggers = recompute_triggers(signal, truth["refractory_events"])
    listed = [alarm["event_index"] for alarm in manifest["alarms"]]
    if triggers != listed:
        failures.append(f"triggers from signal.csv {triggers} != manifest alarms {listed}")
    row_of = {int(i): k for k, i in enumerate(signal["event_index"].tolist())}
    expected_files = {f"alarm_{a:04d}{s}" for a in range(len(listed)) for s in REPORT_SUFFIXES}
    present = {p.name for p in run_dir.iterdir() if p.name.startswith("alarm_")}
    if present != expected_files:
        failures.append(f"report files: missing {sorted(expected_files - present)}, "
                        f"unexpected {sorted(present - expected_files)}")
    reports = {}
    for alarm, summary in enumerate(manifest["alarms"]):
        path = run_dir / f"alarm_{alarm:04d}.json"
        if not path.is_file():
            continue
        report = reports[alarm] = json.loads(path.read_text(encoding="utf-8"))
        row = row_of.get(summary["event_index"])
        if row is None or summary["signal"] != signal["signal"][row]:
            failures.append(f"alarm {alarm}: manifest signal is not signal.csv's")
        curve = report["validation_curve"]
        if curve["k_values"][0] != 0 or curve["ranked_jsd"][0] != summary["signal"] \
                or curve["random_jsd"][0] != summary["signal"]:
            failures.append(f"alarm {alarm}: validation curve at k = 0 is not the signal")
        cv = report["cross_validation"]
        for fold, (value, roc) in enumerate(zip(cv["fold_aucs"], cv["fold_rocs"])):
            if abs(auc_from_roc(roc) - value) > AUC_TOLERANCE:
                failures.append(f"alarm {alarm} fold {fold}: AUC {value} is not its ROC's")
        if len(cv["fold_aucs"]) != cv["k"] or len(cv["fold_rocs"]) != cv["k"]:
            failures.append(f"alarm {alarm}: {cv['k']} folds but "
                            f"{len(cv['fold_aucs'])} AUCs")
        _check_filter(alarm, report, truth, failures)
    _check_ranking(reports, manifest, truth, failures)


def _check_filter(alarm, report, truth, failures):
    if not truth["time_columns"]:
        return
    removed = {f["name"] for f in report["time_correlation_filter"]["features"]
               if f["removed"]}
    kept_time = set(truth["time_columns"]) - removed
    noise = removed - set(truth["time_columns"])
    if kept_time or len(noise) > MAX_NOISE_REMOVED:
        failures.append(f"alarm {alarm}: MIC filter kept {sorted(kept_time)} and removed "
                        f"{len(noise)} other features")


def _check_ranking(reports, manifest, truth, failures):
    """At the alarm whose T window overlaps a feature drift most, every
    column of that drift outranks every column that never drifts.

    Only columns the discriminator saw are ranked: the MIC time filter
    removes each feature with probability about 1/60 by design (a feature
    whose MIC beats all 59 shuffles), drifted ones included.
    """
    n_t = truth["n_t"]
    for drift in truth["drifts"]:
        if len(drift["columns"]) == 1:  # the score alone
            continue
        start, end = drift["onset"], drift["onset"] + drift["length"]

        def overlap(summary):
            index = summary["event_index"]
            return min(end, index + 1) - max(start, index + 1 - n_t)

        alarm = max(range(len(manifest["alarms"])),
                    key=lambda a: overlap(manifest["alarms"][a]), default=None)
        if alarm is None or overlap(manifest["alarms"][alarm]) <= 0 or alarm not in reports:
            failures.append(f"no report whose T window overlaps the drift at {start}")
            continue
        report = reports[alarm]
        removed = {f["name"] for f in report["time_correlation_filter"]["features"]
                   if f["removed"]}
        order = [entry["feature"] for entry in report["feature_importance"]]
        rank = {name: k for k, name in enumerate(order)}
        worst_drifted = max(rank.get(c, len(order)) for c in drift["columns"]
                            if c not in removed)
        best_quiet = min((rank[c] for c in truth["never_drift"] if c in rank),
                         default=len(order))
        if worst_drifted >= best_quiet:
            failures.append(f"alarm {alarm}: drifted {drift['columns']} do not all outrank "
                            f"never-drifting columns in {order}")


def check_run(run_dir: Path, stream_path: Path, truth: dict) -> list[str]:
    """Every output check on one run directory; returns the failures."""
    failures: list[str] = []
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
        signal = read_signal(run_dir / "signal.csv")
    except (OSError, ValueError) as exc:
        return [f"unreadable run output: {exc}"]
    if manifest["counts"]["events"] != truth["events"]:
        failures.append(f"manifest counts {manifest['counts']['events']} events, "
                        f"the stream has {truth['events']}")
    if _check_signal(signal, read_scores(stream_path), truth, failures):
        _check_detection(signal, truth, failures)
    _check_reports(run_dir, signal, manifest, truth, failures)
    return failures
