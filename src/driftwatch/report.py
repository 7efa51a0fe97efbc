"""Alarm report document and its renderings.

An :class:`AlarmReport` is a frozen explanation of one alarm. It
serializes three ways: a self-contained JSON document, a human-readable
Markdown page, and adjacent CSV files for plotting the validation curve
and the cross-validation ROC points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class RankedEventRow:
    rank: int
    alarm_score: float
    timestamp: int
    extras: dict
    cells: list


@dataclass(frozen=True)
class AlarmReport:
    alarm_index: int
    event_index: int
    timestamp: int
    signal: float
    threshold: float
    r_size: int
    t_size: int
    r_start_timestamp: int
    r_end_timestamp: int
    t_start_timestamp: int
    t_end_timestamp: int
    importances: list
    event_columns: list
    ranked_events: list
    validation: "ValidationCurve"
    cv_mean_auc: float
    cv_fold_aucs: list
    cv_rocs: list
    cv_k: int
    filter_result: "MicFilterResult"
    warnings: list


def to_json_dict(report: AlarmReport) -> dict:
    """Plain-dict form with insertion-ordered keys, ready for json.dumps."""
    return {
        "alarm_index": report.alarm_index,
        "event_index": report.event_index,
        "timestamp": report.timestamp,
        "signal": report.signal,
        "threshold": report.threshold,
        "windows": {
            "r_size": report.r_size,
            "t_size": report.t_size,
            "r_start_timestamp": report.r_start_timestamp,
            "r_end_timestamp": report.r_end_timestamp,
            "t_start_timestamp": report.t_start_timestamp,
            "t_end_timestamp": report.t_end_timestamp,
        },
        "feature_importance": [
            {"feature": name, "gain": gain} for name, gain in report.importances
        ],
        "time_correlation_filter": {
            "estimator": report.filter_result.estimator,
            "shuffles": report.filter_result.shuffles,
            "sample_size": report.filter_result.sample_size,
            "alpha": report.filter_result.alpha,
            "confidence": report.filter_result.confidence,
            "features": [
                {
                    "name": entry.name,
                    "kind": entry.kind,
                    "mic": entry.mic,
                    "shuffle_threshold": entry.shuffle_threshold,
                    "removed": entry.removed,
                    "warning": entry.warning,
                }
                for entry in report.filter_result.features
            ],
        },
        "cross_validation": {
            "k": report.cv_k,
            "mean_auc": report.cv_mean_auc,
            "fold_aucs": report.cv_fold_aucs,
            "fold_rocs": [
                [[fpr, tpr] for fpr, tpr in roc] for roc in report.cv_rocs
            ],
        },
        "validation_curve": {
            "k_values": list(report.validation.k_values),
            "ranked_jsd": list(report.validation.ranked_jsd),
            "random_jsd": list(report.validation.random_jsd),
            "seed_note": report.validation.seed_note,
        },
        "event_columns": report.event_columns,
        "ranked_events": [
            {
                "rank": row.rank,
                "alarm_score": row.alarm_score,
                "timestamp": row.timestamp,
                "extras": row.extras,
                "cells": row.cells,
            }
            for row in report.ranked_events
        ],
        "warnings": report.warnings,
    }


def report_to_json(report: AlarmReport) -> str:
    return json.dumps(to_json_dict(report), indent=2)


def _table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    lines += ["| " + " | ".join(str(cell) for cell in row) + " |" for row in rows]
    return "\n".join(lines)


def render_markdown(report: AlarmReport) -> str:
    """Human-readable rendering with the same content as the JSON form."""
    parts = [
        f"# Alarm {report.alarm_index}",
        "",
        f"Triggered at event {report.event_index} "
        f"(timestamp {report.timestamp}): signal {report.signal:.6f} "
        f"exceeded threshold {report.threshold:.6f}.",
        "",
        "## Windows",
        "",
        _table(
            ["window", "events", "first timestamp", "last timestamp"],
            [
                ["reference (R)", report.r_size,
                 report.r_start_timestamp, report.r_end_timestamp],
                ["target (T)", report.t_size,
                 report.t_start_timestamp, report.t_end_timestamp],
            ],
        ),
        "",
        "## Feature importance",
        "",
        _table(
            ["rank", "feature", "split gain"],
            [
                [rank, name, format(gain, ".6g")]
                for rank, (name, gain) in enumerate(report.importances, start=1)
            ],
        ),
        "",
        "## Time-correlation filter",
        "",
        f"Estimator: {report.filter_result.estimator}; "
        f"{report.filter_result.shuffles} shuffles over "
        f"{report.filter_result.sample_size} sampled events.",
        "",
        _table(
            ["feature", "MIC", "shuffle threshold", "removed"],
            [
                [entry.name, format(entry.mic, ".4f"),
                 format(entry.shuffle_threshold, ".4f"),
                 "yes" if entry.removed else "no"]
                for entry in report.filter_result.features
            ],
        ),
        "",
        "## Discriminator cross-validation",
        "",
        f"{report.cv_k}-fold mean AUC: {report.cv_mean_auc:.4f} "
        f"(folds: {', '.join(format(a, '.4f') for a in report.cv_fold_aucs)})",
        "",
        "## Validation curve",
        "",
        _table(
            ["k removed", "signal after ranked removal", "signal after random removal"],
            [
                [k, format(ranked, ".6f"), format(rand, ".6f")]
                for k, ranked, rand in zip(
                    report.validation.k_values,
                    report.validation.ranked_jsd,
                    report.validation.random_jsd,
                )
            ],
        ),
        "",
        "## Top events",
        "",
    ]
    extra_keys = sorted({key for row in report.ranked_events for key in row.extras})
    header = ["rank", "alarm score", "timestamp", *extra_keys, *report.event_columns]
    rows = [
        [
            row.rank,
            format(row.alarm_score, ".6f"),
            row.timestamp,
            *[row.extras.get(key, "") for key in extra_keys],
            *row.cells,
        ]
        for row in report.ranked_events
    ]
    parts.append(_table(header, rows))
    if report.warnings:
        parts += ["", "## Warnings", ""]
        parts += [f"- {w}" for w in report.warnings]
    parts.append("")
    return "\n".join(parts)


def validation_curve_csv(report: AlarmReport) -> str:
    lines = ["k,ranked_jsd,random_jsd"]
    lines += [
        f"{k},{ranked!r},{rand!r}"
        for k, ranked, rand in zip(
            report.validation.k_values,
            report.validation.ranked_jsd,
            report.validation.random_jsd,
        )
    ]
    return "\n".join(lines) + "\n"


def roc_csv(report: AlarmReport) -> str:
    lines = ["fold,fpr,tpr"]
    for fold, roc in enumerate(report.cv_rocs):
        lines += [f"{fold},{fpr!r},{tpr!r}" for fpr, tpr in roc]
    return "\n".join(lines) + "\n"


def write_report_files(report: AlarmReport, directory, stem: str) -> dict[str, str]:
    """Write the JSON, Markdown, and CSV renderings as UTF-8; returns their paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "json": directory / f"{stem}.json",
        "markdown": directory / f"{stem}.md",
        "validation_curve": directory / f"{stem}.validation_curve.csv",
        "roc": directory / f"{stem}.roc.csv",
    }
    paths["json"].write_text(report_to_json(report), encoding="utf-8")
    paths["markdown"].write_text(render_markdown(report), encoding="utf-8")
    paths["validation_curve"].write_text(validation_curve_csv(report), encoding="utf-8")
    paths["roc"].write_text(roc_csv(report), encoding="utf-8")
    return {key: str(path) for key, path in paths.items()}
