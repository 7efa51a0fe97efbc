"""Small gradient-boosted tree classifier used as the alarm discriminator.

Binary logistic boosting with exact greedy least-squares splits on
presorted features. The scale is fixed and small (50 trees, depth 5, each
tree shrunk by ``LEARNING_RATE``), so exact splits are affordable and keep
the fit fully deterministic: no subsampling, stable sorts, and first-lowest
tie-breaking everywhere. Any node of two or more rows may split, and a leaf
may hold one row. Each node scores every split of every feature at once on
presorted column blocks, as in XGBoost (Chen & Guestrin, KDD 2016).
"""

from __future__ import annotations

import math
import numbers
import os
import pickle
import signal
import threading
import warnings
from dataclasses import dataclass

import numpy as np

PROBABILITY_CLIP = 1e-15
HESSIAN_FLOOR = 1e-12
GAIN_EPSILON = 1e-12
LEARNING_RATE = 0.1


class TrainingError(Exception):
    """Training matrix unusable for fitting."""


@dataclass
class TrainingMatrix:
    """Dense feature matrix with binary labels."""

    x: np.ndarray
    y: np.ndarray
    column_names: list[str]

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.ndim != 2:
            raise TrainingError("x must be 2-dimensional")
        if self.x.shape[0] != len(self.y):
            raise TrainingError("row counts disagree")
        if self.x.shape[1] != len(self.column_names):
            raise TrainingError("column names disagree with x arity")
        if self.x.shape[1] == 0:
            raise TrainingError("x has no columns")

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]

    @property
    def n_columns(self) -> int:
        return self.x.shape[1]


@dataclass
class GBDTParams:
    n_trees: int = 50
    max_depth: int = 5


@dataclass
class TreeNode:
    """Axis-aligned split, or a leaf when ``feature`` is None."""

    feature: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class TreeEnsemble:
    """A fitted model; ``train_prob`` is ``predict_proba`` of its training rows, bit for bit."""

    initial_score: float
    trees: list[TreeNode]
    column_names: list[str]
    importance: np.ndarray
    train_losses: list[float]
    train_prob: np.ndarray
    degenerate: bool = False


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _log_loss(y: np.ndarray, prob: np.ndarray) -> float:
    p = np.clip(prob, PROBABILITY_CLIP, 1.0 - PROBABILITY_CLIP)
    terms = y * np.log(p) + (1 - y) * np.log1p(-p)
    return float(-terms.sum() / len(y))


def _best_split(values, grad):
    """Best split of a node over all features: (gain, feature, position) or None.

    ``values`` and ``grad`` are (n_features, node_size) blocks, each row in
    its feature's sorted order, and ``position`` is the last left index in
    it, one of ``0 .. node_size - 2``. Gain is S_l^2/n_l + S_r^2/n_r - S^2/n;
    ties go to the first position, then to the lowest feature. A node of
    fewer than 2 rows has no split.
    """
    size = values.shape[1]
    if size < 2:
        return None
    # Row-wise sums of C-contiguous rows are bit-identical to 1-D sums of
    # each row, and the in-place steps round as the plain gain expression.
    grad_total = grad.sum(axis=1)[:, None]
    grad_left = np.cumsum(grad, axis=1)[:, :-1]
    grad_right = grad_total - grad_left
    count_left = np.arange(1, size, dtype=np.float64)
    gains = grad_left * grad_left
    gains /= count_left
    grad_right *= grad_right
    grad_right /= size - count_left
    gains += grad_right
    gains -= grad_total * grad_total / size
    valid = values[:, :-1] < values[:, 1:]
    np.copyto(gains, -np.inf, where=~valid)
    at = np.argmax(gains, axis=1)
    best = gains[np.arange(len(at)), at]
    feature = int(np.argmax(best))
    if not best[feature] > GAIN_EPSILON:
        return None
    return float(best[feature]), feature, int(at[feature])


def _leaf_value(grad_sum: float, hess_sum: float) -> float:
    if hess_sum < HESSIAN_FLOOR:
        return 0.0
    return grad_sum / hess_sum


def _take_rows(blocks, mask, width):
    """The masked entries of each block, as blocks ``width`` wide."""
    at = np.flatnonzero(mask)
    return [block.take(at).reshape(-1, width) for block in blocks]


def _build_tree(order, values, grad, hess, max_depth, importance, leaf_values):
    """Grow one regression tree on the gradient, depth-first.

    A node carries three (n_features, node_size) blocks: its rows in each
    feature's sorted order, the sorted values and the gathered gradient.
    A split partitions all three by one mask, which keeps each row's order.
    A child that cannot split (fewer than 2 rows, or at ``max_depth``)
    takes only its rows and gradient in the first feature's order, which
    are what its leaf value sums. Nodes grow one at a time: a level-wise
    search with one cumsum across nodes would round the prefix sums
    differently and change the trees. Every row's leaf value is written
    into ``leaf_values``.
    """
    goes_left = np.zeros(len(hess), dtype=bool)

    def leaf(rows, node_grad):
        value = _leaf_value(float(node_grad.sum()), float(hess[rows].sum()))
        leaf_values[rows] = value
        return TreeNode(value=value)

    def grow(order, values, node_grad, depth):
        size = order.shape[1]
        found = _best_split(values, node_grad) if depth < max_depth else None
        if found is None:
            return leaf(order[0], node_grad[0])

        gain, feature, position = found
        low = values[feature, position]
        high = values[feature, position + 1]
        threshold = 0.5 * (low + high)
        if not low < threshold < high:
            threshold = low

        n_left = position + 1
        left_rows = order[feature, :n_left]
        goes_left[left_rows] = True
        left = goes_left[order]
        goes_left[left_rows] = False

        importance[feature] += gain

        def child(mask, width):
            if width < 2 or depth + 1 == max_depth:
                return leaf(order[0][mask[0]], node_grad[0][mask[0]])
            return grow(*_take_rows((order, values, node_grad), mask, width), depth + 1)

        return TreeNode(
            feature=feature,
            threshold=threshold,
            left=child(left, n_left),
            right=child(~left, size - n_left),
        )

    return grow(order, values, grad[order], 0)


def _tree_predict(node: TreeNode, x: np.ndarray) -> np.ndarray:
    out = np.empty(x.shape[0], dtype=np.float64)

    def walk(node, rows):
        if node.is_leaf:
            out[rows] = node.value
            return
        mask = x[rows, node.feature] <= node.threshold
        walk(node.left, rows[mask])
        walk(node.right, rows[~mask])

    walk(node, np.arange(x.shape[0]))
    return out


def fit(data: TrainingMatrix, params: GBDTParams | None = None) -> TreeEnsemble:
    """Boost least-squares trees on the logistic residual y - p.

    Per-leaf values take a Newton step (gradient sum over hessian sum)
    and each tree is shrunk by ``LEARNING_RATE``. Single-class data
    yields a degenerate constant model, flagged as such.
    """
    params = params or GBDTParams()
    if data.n_rows == 0:
        raise TrainingError("empty training matrix")
    y = data.y
    positive_rate = float(y.sum()) / data.n_rows
    clamped = min(max(positive_rate, PROBABILITY_CLIP), 1.0 - PROBABILITY_CLIP)
    initial_score = math.log(clamped / (1.0 - clamped))
    importance = np.zeros(data.n_columns, dtype=np.float64)

    raw = np.full(data.n_rows, initial_score, dtype=np.float64)
    prob = _sigmoid(raw)
    losses = [_log_loss(y, prob)]
    if positive_rate in (0.0, 1.0):
        return TreeEnsemble(
            initial_score, [], list(data.column_names), importance, losses, prob, degenerate=True,
        )

    columns = np.ascontiguousarray(data.x.T)
    order = np.argsort(columns, axis=1, kind="mergesort")
    values = np.take_along_axis(columns, order, axis=1)
    leaf_values = np.empty(data.n_rows, dtype=np.float64)
    trees = []
    for _ in range(params.n_trees):
        residual = y - prob
        hessian = prob * (1.0 - prob)
        tree = _build_tree(
            order, values, residual, hessian, params.max_depth, importance, leaf_values,
        )
        trees.append(tree)
        # The training rows reach the same leaves as in _tree_predict: a
        # split never separates equal values, so every left row is at or
        # below the threshold and every right row above it.
        raw = raw + LEARNING_RATE * leaf_values
        prob = _sigmoid(raw)
        losses.append(_log_loss(y, prob))

    return TreeEnsemble(initial_score, trees, list(data.column_names), importance, losses, prob)


def predict_proba(model: TreeEnsemble, x: np.ndarray) -> np.ndarray:
    """Probability of label 1 per row."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != len(model.column_names):
        raise TrainingError(
            f"arity mismatch: model has {len(model.column_names)} columns, got {x.shape[1]}"
        )
    raw = np.full(x.shape[0], model.initial_score, dtype=np.float64)
    for tree in model.trees:
        raw += LEARNING_RATE * _tree_predict(tree, x)
    return _sigmoid(raw)


def feature_importance(model: TreeEnsemble) -> list[tuple[str, float]]:
    """Features by total split gain, descending; ties keep column order."""
    order = sorted(
        range(len(model.column_names)), key=lambda j: (-model.importance[j], j)
    )
    return [(model.column_names[j], float(model.importance[j])) for j in order]


def roc_points(scores: np.ndarray, labels: np.ndarray) -> list[tuple[float, float]]:
    """ROC curve points (fpr, tpr), tie-grouped by distinct score."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    positives = int((labels == 1).sum())
    negatives = int((labels == 0).sum())
    if positives == 0 or negatives == 0:
        raise TrainingError("ROC needs both classes")
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    boundary = np.nonzero(sorted_scores[:-1] != sorted_scores[1:])[0]
    cut = np.concatenate([boundary, [len(scores) - 1]])
    tp = np.cumsum(sorted_labels == 1)[cut]
    fp = np.cumsum(sorted_labels == 0)[cut]
    points = [(0.0, 0.0)]
    points += [(float(f) / negatives, float(t) / positives) for f, t in zip(fp, tp)]
    return points


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the tie-grouped ROC curve by the trapezoid rule."""
    return _area(roc_points(scores, labels))


def _area(points: list[tuple[float, float]]) -> float:
    """Trapezoid-rule area under ROC points, in curve order."""
    area = 0.0
    for (fpr_a, tpr_a), (fpr_b, tpr_b) in zip(points, points[1:]):
        area += 0.5 * (tpr_a + tpr_b) * (fpr_b - fpr_a)
    return area


@dataclass
class KFoldResult:
    mean_auc: float
    fold_aucs: list[float]
    fold_rocs: list[list[tuple[float, float]]]
    k: int


def kfold_auc(
    data: TrainingMatrix,
    k: int = 5,
    params: GBDTParams | None = None,
    seed: int = 0,
    meanwhile=None,
) -> KFoldResult:
    """Stratified k-fold cross validation of the discriminator.

    Folds are deterministic given the seed: each class is shuffled once
    and dealt round-robin. If the minority class has fewer than k rows,
    k is reduced to that count with a warning. The folds are fitted on
    every usable CPU (see ``_deal_folds``); the result is the same on any
    number of them. ``meanwhile``, if given, is called once in this
    process after the helpers start and before this process fits its own
    folds, so other work can run beside them. A k that is not an integer
    of at least 2 raises ``ValueError``.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 2:
        raise ValueError(f"k must be an integer of at least 2, got {k!r}")
    class_counts = [int((data.y == label).sum()) for label in (0, 1)]
    if min(class_counts) < 2:
        raise TrainingError("cross validation needs at least 2 rows of each class")
    if min(class_counts) < k:
        warnings.warn(
            f"reducing k from {k} to {min(class_counts)}: minority class too small",
            stacklevel=2,
        )
        k = min(class_counts)

    rng = np.random.default_rng(seed)
    fold_of = np.empty(data.n_rows, dtype=np.int64)
    for label in (0, 1):
        members = np.nonzero(data.y == label)[0]
        members = members[rng.permutation(len(members))]
        fold_of[members] = np.arange(len(members)) % k

    def run_fold(fold):
        held = fold_of == fold
        train = TrainingMatrix(data.x[~held], data.y[~held], list(data.column_names))
        model = fit(train, params)
        points = roc_points(predict_proba(model, data.x[held]), data.y[held])
        return _area(points), points

    folds = _deal_folds(k, run_fold, meanwhile)
    fold_aucs = [area for area, _ in folds]
    fold_rocs = [points for _, points in folds]
    return KFoldResult(float(np.mean(fold_aucs)), fold_aucs, fold_rocs, k)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _deal_folds(tasks: int, run, meanwhile=None) -> list:
    """``[run(task) for task in range(tasks)]``, dealt across the CPUs.

    The tasks are the folds of ``kfold_auc`` or the features of
    ``explain.time_correlation_filter``. One helper process is forked per
    usable CPU beyond this one, at most ``tasks - 1``, and none while
    another thread runs (a thread could hold a lock that the forked copy
    would wait on forever). Task ``t`` goes to helper ``t mod (helpers +
    1)`` when that is a helper's index and to this process otherwise. A
    helper runs the same code on a forked copy of the data, pickles each
    ``(task, result)`` into a pipe and leaves by ``os._exit``, so no exit
    handler runs and no inherited buffer is flushed in it.

    After the forks this process calls ``meanwhile()``, if given, once,
    then runs its own tasks, then computes every task that no helper
    delivered (no fork, a fork that fails, a helper that dies), so the
    results never depend on the helpers. A raise, from ``meanwhile`` or a
    task, stops every helper; every helper is reaped before this returns
    or raises.
    """
    helpers = max(0, min(_usable_cpus(), tasks) - 1)
    if not hasattr(os, "fork") or threading.active_count() > 1:
        helpers = 0
    results = {}
    started = []
    try:
        for index in range(helpers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                continue
            if pid == 0:
                try:
                    os.close(read_end)
                    with open(write_end, "wb") as writer:
                        for task in range(index, tasks, helpers + 1):
                            pickle.dump((task, run(task)), writer)
                            writer.flush()
                finally:
                    os._exit(0)
            os.close(write_end)  # before the next fork: EOF when this helper exits
            started.append((pid, open(read_end, "rb")))
        if meanwhile is not None:
            meanwhile()
        for task in range(helpers, tasks, helpers + 1):
            results[task] = run(task)
        for _, reader in started:
            try:
                while True:
                    task, result = pickle.load(reader)
                    results[task] = result
            except (EOFError, pickle.UnpicklingError, OSError):
                pass
    except BaseException:
        for pid, _ in started:
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        for pid, reader in started:
            reader.close()
            os.waitpid(pid, 0)
    return [results[task] if task in results else run(task) for task in range(tasks)]
