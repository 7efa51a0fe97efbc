"""Alarm explanation pipeline.

Given an alarm's frozen (R, T) snapshots this module removes
time-correlated features, encodes the remaining ones, trains the
discriminator on the R-vs-T labels, ranks the target events, sweeps the
validation curve, and cross-validates the discriminator. The assembled
:class:`~driftwatch.report.AlarmReport` is what users actually read.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import gbdt
from .divergence import ScoreHistogram, jsd
from .monitor import BURN_IN_SAMPLE_SIZE, burn_in_sample_indices
from .report import AlarmReport, RankedEventRow
from .stream_model import (
    CATEGORICAL,
    MISSING,
    MODEL_SCORE_COLUMN,
    NUMERIC,
    Event,
    FeatureSchema,
)
from .windows import ConfigError, check_fields

MIC_ESTIMATOR_NAME = "equi-frequency midrank grid search"
SHUFFLE_ALPHA = 0.05
SHUFFLE_CONFIDENCE = 0.95
TOP_EVENTS = 100
TOP_IMPORTANCES = 10


def _rank_structure(values: np.ndarray):
    """Stable sort order plus midranks of tied-value groups.

    Returns (order, group_of_sorted, group_midrank). All occurrences of a
    value share one midrank (the mean of their sorted positions), so the
    derived bin assignments cannot distinguish tied values by position.
    """
    n = len(values)
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = sorted_vals[1:] != sorted_vals[:-1]
    group_of_sorted = np.cumsum(new_group) - 1
    positions = np.arange(n, dtype=np.float64)
    totals = np.bincount(group_of_sorted, weights=positions)
    sizes = np.bincount(group_of_sorted)
    return order, group_of_sorted, totals / sizes


def _axis_assignments(values: np.ndarray, max_bins: int) -> np.ndarray:
    """Equi-frequency midrank bin assignments; row k is for k + 2 bins."""
    n = len(values)
    order, group_of_sorted, midrank = _rank_structure(values)
    out = np.empty((max_bins - 1, n), dtype=np.intp)
    for bins, assignment in enumerate(out, start=2):
        bin_of_group = np.minimum((midrank * bins / n).astype(np.int64), bins - 1)
        assignment[order] = bin_of_group[group_of_sorted]
    return out


def _grid_bits(joint_counts: np.ndarray, px: np.ndarray, pt: np.ndarray, n: int) -> float:
    # Marginals come from the integer bin counts, not from summing the
    # joint grid: float row sums depend on the reduction axis, while
    # count / n is one division. Together with the sorted summation below
    # this makes the MIC of (x, t) equal that of (t, x) exactly.
    joint = joint_counts.astype(np.float64) / n
    independent = np.outer(px, pt).ravel()
    keep = joint > 0.0
    terms = joint[keep] * np.log2(joint[keep] / independent[keep])
    terms.sort()
    return float(terms.sum())


def _grid_budget(n: int) -> int:
    return int(n ** 0.6)


class _GridSearch:
    """Every grid (a, b) with a * b <= n^0.6 against one fixed t series.

    For each x-bin count a, the t values are cut into the segments that
    every t grid with b <= budget // a respects. One bincount of (a, x bin,
    t segment) codes then holds the joint counts of all grids: each cell is
    a difference of their running sum.
    """

    def __init__(self, t: np.ndarray):
        n = self.n = len(t)
        budget = _grid_budget(n)
        t_assign = _axis_assignments(t, budget // 2)
        self.xlogx = np.arange(n + 1) * np.log2(np.maximum(np.arange(n + 1), 1))
        self.t_counts = [np.bincount(tb, minlength=b) for b, tb in enumerate(t_assign, start=2)]
        self.t_codes = np.empty_like(t_assign, dtype=np.int32)
        self.widths, self.offsets = np.empty((2, len(t_assign), 1), dtype=np.intp)
        self.shapes, lows, highs = [], [], []
        offset = 0
        for a, t_codes, width, start in zip(range(2, budget // 2 + 1), self.t_codes,
                                            self.widths, self.offsets):
            key = t_assign[:budget // a - 1].sum(axis=0)
            _, first, t_codes[:] = np.unique(key, return_index=True, return_inverse=True)
            width[0], start[0] = len(first), offset
            rows = offset + np.arange(a)[:, None] * len(first)
            for b in range(2, budget // a + 1):
                seg_bin, bins = t_assign[b - 2][first], np.arange(b)
                lows.append((rows + np.searchsorted(seg_bin, bins)).ravel())
                highs.append((rows + np.searchsorted(seg_bin, bins, "right")).ravel())
                self.shapes.append((a, b))
            offset += a * len(first)
        self.size, self.low, self.high = offset, np.concatenate(lows), np.concatenate(highs)
        self.starts = np.cumsum([0] + [a * b for a, b in self.shapes])
        self.norms = np.array([math.log2(min(a, b)) for a, b in self.shapes])
        # Screening slack: over a thousand times the rounding error of
        # either form of a grid's mutual information (a few multiples of
        # budget * log2(n) * 2**-53).
        self.slack = 1e-12 * budget * math.log2(n)

    def mic_scores(self, x: np.ndarray, perms) -> list[float]:
        """MIC of x against t, then of x permuted by each of ``perms``.

        The entropy form of each grid's mutual information screens the
        grids; those within ``slack`` of the best are summed exactly by
        :func:`_grid_bits`, so the MIC does not depend on the screening.
        """
        n, shapes = self.n, self.shapes
        x_codes = _axis_assignments(x, len(self.widths) + 1)
        x_counts = [np.bincount(xa, minlength=a) for a, xa in enumerate(x_codes, start=2)]
        x_codes *= self.widths
        x_codes += self.offsets
        marginals = np.array([self.xlogx[x_counts[a - 2]].sum()
                              + self.xlogx[self.t_counts[b - 2]].sum() for a, b in shapes])
        index, scores = np.empty_like(x_codes), []
        for perm in itertools.chain([np.arange(n)], perms):
            # mode="clip": the default mode copies through a buffer.
            np.take(x_codes, perm, axis=1, out=index, mode="clip")
            index += self.t_codes
            counts = np.zeros(self.size + 1, dtype=np.int64)
            np.cumsum(np.bincount(index.ravel(), minlength=self.size), out=counts[1:])
            cells = counts[self.high] - counts[self.low]
            screen = np.add.reduceat(self.xlogx[cells], self.starts[:-1]) - marginals
            screen = (screen / n + math.log2(n)) / self.norms
            best = 0.0
            for g in np.flatnonzero(screen >= screen.max() - self.slack):
                a, b = shapes[g]
                bits = _grid_bits(cells[self.starts[g]:self.starts[g + 1]],
                                  x_counts[a - 2] / n, self.t_counts[b - 2] / n, n)
                best = max(best, bits / math.log2(min(a, b)))
            scores.append(min(best, 1.0))
        return scores


def _is_constant(values: np.ndarray) -> bool:
    return bool(np.all(values == values[0]))


def shuffle_count(alpha: float, p: float) -> int:
    """Shuffles needed so max of the null sample exceeds a level-alpha
    outlier with probability p: ceil(log(1-p) / log(1-alpha))."""
    if not 0.0 < alpha < 1.0 or not 0.0 < p < 1.0:
        raise ValueError("alpha and p must lie strictly inside (0, 1)")
    return math.ceil(math.log1p(-p) / math.log1p(-alpha))


@dataclass(frozen=True)
class FeatureFilterEntry:
    name: str
    kind: str
    mic: float
    shuffle_threshold: float
    removed: bool
    warning: str | None = None


@dataclass(frozen=True)
class MicFilterResult:
    features: tuple[FeatureFilterEntry, ...]
    shuffles: int
    sample_size: int
    alpha: float
    confidence: float
    estimator: str = MIC_ESTIMATOR_NAME

    def removed_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features if f.removed)


def _frequency_codes(counts: Counter) -> dict[str, int]:
    """Most frequent category gets code 1; ties break by value; missing is 0."""
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return {value: code for code, (value, _) in enumerate(ranked, start=1)}


def _numeric_series(events, feature_index):
    """Column as floats with missing imputed to the median; (series, warning)."""
    raw = np.array(
        [
            e.features[feature_index] if e.features[feature_index] is not MISSING else np.nan
            for e in events
        ],
        dtype=np.float64,
    )
    present = raw[~np.isnan(raw)]
    if len(present) == 0:
        return np.zeros(len(raw)), "all values missing"
    if len(present) < len(raw):
        raw = np.where(np.isnan(raw), float(np.median(present)), raw)
    return raw, None


def _categorical_series(events, feature_index):
    values = [e.features[feature_index] for e in events]
    counts = Counter(v for v in values if v is not MISSING)
    codes = _frequency_codes(counts)
    return np.array([codes.get(v, 0) if v is not MISSING else 0 for v in values],
                    dtype=np.float64)


def _check_arity(events, schema: FeatureSchema) -> None:
    """Raise ``ValueError`` unless every event has one feature per schema column."""
    for event in events:
        if len(event.features) != schema.arity:
            raise ValueError(
                f"event at timestamp {event.timestamp} has {len(event.features)} "
                f"features; the schema has {schema.arity}"
            )


def time_correlation_filter(
    burn_in_events: Sequence[Event],
    schema: FeatureSchema,
    seed=0,
) -> MicFilterResult:
    """Flag features whose MIC against event order beats every shuffled MIC.

    Samples ``BURN_IN_SAMPLE_SIZE`` uniformly spaced events from the
    burn-in, computes each feature's MIC against the sample index, then
    the max MIC over the shuffle count that ``SHUFFLE_ALPHA`` and
    ``SHUFFLE_CONFIDENCE`` give. A feature is removed when its MIC
    exceeds that max. Per-feature problems never abort the filter; the
    feature is kept and its entry carries a warning.

    Each feature draws its shuffles from one generator, in schema order,
    constant features included. This process draws them all first and
    keeps the generator's state before each feature's draws; the
    non-constant features are then scored on every usable CPU (see
    ``gbdt._deal_folds``), each redrawing its shuffles from its state, so
    the result is the same on any number of CPUs.
    """
    if len(burn_in_events) == 0:
        raise ValueError("empty burn-in")
    _check_arity(burn_in_events, schema)
    picked = burn_in_sample_indices(len(burn_in_events), BURN_IN_SAMPLE_SIZE)
    if len(picked) < BURN_IN_SAMPLE_SIZE:
        warnings.warn(
            f"burn-in has {len(burn_in_events)} events, fewer than the "
            f"{BURN_IN_SAMPLE_SIZE} requested sample points; using all of them",
            stacklevel=2,
        )
    sample = [burn_in_events[i] for i in picked]
    n = len(sample)
    shuffles = shuffle_count(SHUFFLE_ALPHA, SHUFFLE_CONFIDENCE)
    rng = np.random.default_rng(seed)
    search = None
    if _grid_budget(n) >= 4 and schema.features:
        search = _GridSearch(np.arange(n, dtype=np.float64))

    feature_warnings, searched = [], []
    for index, spec in enumerate(schema.features):
        if spec.kind == NUMERIC:
            series, warning = _numeric_series(sample, index)
        else:
            series, warning = _categorical_series(sample, index), None
        feature_warnings.append(warning)
        if search is not None and not _is_constant(series):
            searched.append((index, series, rng.bit_generator.state))
        # A constant feature draws its shuffles too, so that no later
        # threshold depends on which features were constant.
        for _ in range(shuffles):
            rng.permutation(n)

    def score(task):
        _, series, state = searched[task]
        redraw = np.random.default_rng()
        redraw.bit_generator.state = state
        observed, *null = search.mic_scores(
            series, (redraw.permutation(n) for _ in range(shuffles))
        )
        return observed, max(null)

    scores = dict(zip([index for index, _, _ in searched],
                      gbdt._deal_folds(len(searched), score)))
    entries = []
    for index, (spec, warning) in enumerate(zip(schema.features, feature_warnings)):
        observed, threshold = scores.get(index, (0.0, 0.0))
        entries.append(
            FeatureFilterEntry(
                spec.name, spec.kind, observed, threshold, observed > threshold, warning
            )
        )
    return MicFilterResult(tuple(entries), shuffles, n, SHUFFLE_ALPHA, SHUFFLE_CONFIDENCE)


def encode(
    r_events: tuple[Event, ...],
    t_events: tuple[Event, ...],
    schema: FeatureSchema,
    filter_result: MicFilterResult,
) -> tuple[gbdt.TrainingMatrix, list[str]]:
    """Snapshot events to a training matrix with R labeled 0 and T labeled 1.

    Removed features are dropped. Numeric missing values impute to the
    column median over R and T together; categorical values map to
    frequency-rank codes with missing and unseen as 0. The model score is
    appended as the final column. Returns the matrix and any per-column
    warnings.
    """
    events = list(r_events) + list(t_events)
    _check_arity(events, schema)
    removed = set(filter_result.removed_names())
    kept = [
        (index, spec)
        for index, spec in enumerate(schema.features)
        if spec.name not in removed
    ]
    columns = []
    names = []
    column_warnings = []
    for index, spec in kept:
        if spec.kind == NUMERIC:
            series, warning = _numeric_series(events, index)
            if warning:
                column_warnings.append(f"{spec.name}: {warning}")
        else:
            series = _categorical_series(events, index)
        columns.append(series)
        names.append(spec.name)
    columns.append(np.array([e.score for e in events], dtype=np.float64))
    names.append(MODEL_SCORE_COLUMN)
    x = np.column_stack(columns)
    y = np.concatenate([np.zeros(len(r_events), dtype=np.int64),
                        np.ones(len(t_events), dtype=np.int64)])
    return gbdt.TrainingMatrix(x, y, names), column_warnings


def rank_target_events(t_events: tuple[Event, ...],
                       scores: np.ndarray) -> list[tuple[int, Event, float]]:
    """T events by alarm score descending; score ties go to newer events.

    ``scores`` are the T events' alarm scores in T order, the full model's
    ``train_prob`` on the T rows. Returns (position-in-T, event, alarm
    score) triples in rank order.
    """
    order = sorted(range(len(t_events)), key=lambda i: (-scores[i], -i))
    return [(i, t_events[i], float(scores[i])) for i in order]


@dataclass(frozen=True)
class ValidationCurve:
    """Signal after removing the top-k ranked vs k random events from T."""

    k_values: tuple[int, ...]
    ranked_jsd: tuple[float, ...]
    random_jsd: tuple[float, ...]
    seed_note: str


def validation_curve(
    r_events: tuple[Event, ...],
    t_events: tuple[Event, ...],
    ranked_positions: list[int],
    bin_count: int,
    rng: np.random.Generator | None = None,
) -> ValidationCurve:
    """Sweep k from 0 to half of T by steps of T // 50 (at least 1), removing
    events from T and recomputing the signal.

    The ranked sweep peels events in ranking order; the random sweep peels
    a seeded random permutation, so each k's random removal set contains
    the previous one. Both sweeps share the k grid and bin count, and the
    k = 0 entries equal the alarm signal exactly.
    """
    size = len(t_events)
    step = max(1, size // 50)
    max_k = size // 2
    rng = rng or np.random.default_rng(0)

    hist_r = ScoreHistogram.from_scores((e.score for e in r_events), bin_count)
    base_t = ScoreHistogram.from_scores((e.score for e in t_events), bin_count)
    k_values = tuple(range(0, max_k + 1, step))

    def sweep(removal_order) -> tuple[float, ...]:
        hist = base_t.copy()
        values = []
        removed = 0
        for k in k_values:
            while removed < k:
                hist.remove(t_events[removal_order[removed]].score)
                removed += 1
            values.append(jsd(hist_r, hist))
        return tuple(values)

    ranked_values = sweep(ranked_positions)
    random_values = sweep(rng.permutation(size))
    return ValidationCurve(k_values, ranked_values, random_values,
                           "nested random removal, one permutation per curve")


@dataclass
class ReportConfig:
    """The report setting a config file can set, under ``report.``.

    Everything else a report uses comes from the trigger (the signal's bin
    count) or is fixed: the 50 trees of depth 5 of ``gbdt.GBDTParams``, the
    MIC filter's constants, the validation curve's k grid, ``TOP_EVENTS``
    and ``TOP_IMPORTANCES``.
    """

    cv_folds: int = 5

    def __post_init__(self):
        check_fields(self)
        if self.cv_folds < 2:
            raise ConfigError("cv_folds must be at least 2")


def _display_cell(event: Event, column: str, schema: FeatureSchema) -> str:
    if column == MODEL_SCORE_COLUMN:
        return format(event.score, ".6g")
    index = schema.names.index(column)
    value = event.features[index]
    if value is MISSING:
        return ""
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def build_report(trigger, schema: FeatureSchema, config: ReportConfig | None = None,
                 seed: int = 0, filter_result: MicFilterResult | None = None) -> AlarmReport:
    """Assemble the full explanation for one alarm trigger.

    ``seed`` is the run seed, as given to ``driftwatch monitor --seed``,
    and every stage's randomness derives from it: the filter shuffles
    from ``[seed, 0]``, the validation curve's random removals from
    ``[seed, alarm_index, 1]`` and the CV folds from ``[seed, alarm_index,
    2]``. So a report built here is the one the CLI writes for the same
    alarm. The filter runs on the trigger's burn-in sample only when no
    ``filter_result`` is given; every trigger of a run shares that
    sample, so the first report's ``filter_result`` serves the rest. The
    validation curve uses the trigger's bin count, so it starts at the
    trigger's signal.
    """
    config = config or ReportConfig()
    if filter_result is None:
        filter_result = time_correlation_filter(trigger.burn_in_sample, schema, seed=[seed, 0])

    matrix, column_warnings = encode(
        trigger.r_snapshot, trigger.t_snapshot, schema, filter_result
    )
    explained = []

    def fit_and_rank():
        # Runs while the CV helpers fit their folds.
        model = gbdt.fit(matrix)
        t_scores = model.train_prob[len(trigger.r_snapshot):]
        ranking = rank_target_events(trigger.t_snapshot, t_scores)
        curve = validation_curve(
            trigger.r_snapshot, trigger.t_snapshot,
            [position for position, _, _ in ranking],
            trigger.bin_count,
            rng=np.random.default_rng([seed, trigger.alarm_index, 1]),
        )
        explained.append((gbdt.feature_importance(model), ranking, curve))

    cv = gbdt.kfold_auc(matrix, k=config.cv_folds, seed=[seed, trigger.alarm_index, 2],
                        meanwhile=fit_and_rank)
    ((importances, ranking, curve),) = explained

    event_columns = [name for name, _ in importances]
    top = ranking[:TOP_EVENTS]
    rows = [
        RankedEventRow(
            rank=rank,
            alarm_score=score,
            timestamp=event.timestamp,
            extras=event.extras_dict(),
            cells=[_display_cell(event, column, schema) for column in event_columns],
        )
        for rank, (_, event, score) in enumerate(top, start=1)
    ]

    r_snap, t_snap = trigger.r_snapshot, trigger.t_snapshot
    return AlarmReport(
        alarm_index=trigger.alarm_index,
        event_index=trigger.event_index,
        timestamp=trigger.timestamp,
        signal=trigger.signal,
        threshold=trigger.threshold,
        r_size=len(r_snap),
        t_size=len(t_snap),
        r_start_timestamp=r_snap[0].timestamp,
        r_end_timestamp=r_snap[-1].timestamp,
        t_start_timestamp=t_snap[0].timestamp,
        t_end_timestamp=t_snap[-1].timestamp,
        importances=importances[:TOP_IMPORTANCES],
        event_columns=event_columns,
        ranked_events=rows,
        validation=curve,
        cv_mean_auc=cv.mean_auc,
        cv_fold_aucs=cv.fold_aucs,
        cv_rocs=cv.fold_rocs,
        cv_k=cv.k,
        filter_result=filter_result,
        warnings=column_warnings,
    )
