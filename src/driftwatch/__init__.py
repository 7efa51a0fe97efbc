"""Label-free monitoring of model-score streams.

A reference window R and a test window T slide over the stream; the
Jensen-Shannon divergence between their score histograms is the drift
signal, thresholded by a constant-memory streaming percentile sketch.
Alarms ship with a self-explaining report: a small boosted-tree
discriminator between R and T, its feature importances and k-fold AUC,
the most drifted events, and a validation curve showing how the signal
falls as top-ranked events are removed.
"""

from .divergence import IncrementalSignal, ScoreHistogram, jsd
from .explain import (
    FeatureFilterEntry,
    MicFilterResult,
    ReportConfig,
    ValidationCurve,
    build_report,
    encode,
    rank_target_events,
    shuffle_count,
    time_correlation_filter,
    validation_curve,
)
from .gbdt import GBDTParams, TrainingMatrix, TreeEnsemble, auc, fit, kfold_auc
from .monitor import AlarmTrigger, Monitor, MonitorConfig, SignalPoint, select_valleys
from .report import AlarmReport, render_markdown, report_to_json
from .spear import PercentileSketch, update_percentiles
from .stream_model import (
    CATEGORICAL,
    MISSING,
    NUMERIC,
    Event,
    FeatureSchema,
    FeatureSpec,
    StreamError,
    read_stream,
    write_csv_stream,
)
from .synthetic import (
    CategoricalGenerator,
    DriftSegment,
    NumericGenerator,
    ScoreMixture,
    SyntheticSpec,
    generate_events,
)
from .windows import ConfigError, WindowPair

__version__ = "0.1.0"

__all__ = [
    "AlarmReport",
    "AlarmTrigger",
    "CATEGORICAL",
    "CategoricalGenerator",
    "ConfigError",
    "DriftSegment",
    "Event",
    "FeatureFilterEntry",
    "FeatureSchema",
    "FeatureSpec",
    "GBDTParams",
    "IncrementalSignal",
    "MISSING",
    "MicFilterResult",
    "Monitor",
    "MonitorConfig",
    "NUMERIC",
    "NumericGenerator",
    "PercentileSketch",
    "ReportConfig",
    "ScoreHistogram",
    "ScoreMixture",
    "SignalPoint",
    "StreamError",
    "SyntheticSpec",
    "TrainingMatrix",
    "TreeEnsemble",
    "ValidationCurve",
    "WindowPair",
    "auc",
    "build_report",
    "encode",
    "fit",
    "generate_events",
    "jsd",
    "kfold_auc",
    "rank_target_events",
    "read_stream",
    "render_markdown",
    "report_to_json",
    "select_valleys",
    "shuffle_count",
    "time_correlation_filter",
    "update_percentiles",
    "validation_curve",
    "write_csv_stream",
]
