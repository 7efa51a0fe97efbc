"""Independent reference implementations used only by the test suite.

Everything here is deliberately written in the most literal way possible,
with pure Python (and exact rational arithmetic where it matters), so a
bug in the production code cannot hide behind a shared formula. The
boosted-tree reference, the MIC grid loop and the reference sweep are the
exceptions: they are the per-feature, per-node numpy split search that
the block search in ``driftwatch.gbdt`` replaced, the grid-by-grid MIC
search that the batched one in ``driftwatch.explain`` replaced, and the
percentile sketch's wall sweep as it read before its loop carried the
walls in locals, kept so each pair can be required to give identical
results. ``ensemble_to_json`` is not a reference: it prints a fitted
ensemble as text, so two fits can be compared exactly. Nor is ``mic``: it
scores one pair with the production search, ``explain._GridSearch``, which
the burn-in filter runs on many pairs at once.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from driftwatch import explain, gbdt


def trace_update(positions, x, count):
    """Exact rational transcription of the one-pass wall update.

    Follows the update rule wall by wall: bins left of the new value's
    bin expand right by borrowing mass at the next bin's density, bins at
    or right of it shed mass to the left at their own density, with the
    same zero-width and no-crossing guards as the production code. All
    arithmetic is in Fractions; only the return converts to float.
    """
    walls = [Fraction(v) for v in positions]
    value = Fraction(x)
    n = len(walls) - 1
    per_bin = Fraction(count, n)
    target = Fraction(count + 1, n)

    here = per_bin
    if value < walls[0]:
        walls[0] = value
    if value < walls[1]:
        here = here + 1

    for i in range(1, n):
        deficit = target - here
        if deficit > 0:
            width = walls[i + 1] - walls[i]
            if width <= 0:
                here = per_bin + (1 if value < walls[i + 1] else 0)
                continue
            in_next = per_bin + 1 if value < walls[i + 1] else per_bin
            stop = walls[i] + deficit * width / in_next
            if stop > walls[i + 1]:
                stop = walls[i + 1]
            here = in_next * (walls[i + 1] - stop) / width
            walls[i] = stop
        else:
            width = walls[i] - walls[i - 1]
            if width > 0:
                stop = walls[i] + deficit * width / here
                if stop < walls[i - 1]:
                    stop = walls[i - 1]
                walls[i] = stop
            here = per_bin - deficit

    if value > walls[n]:
        walls[n] = value
    return [float(w) for w in walls]


def reference_sweep(p: list[float], x: float, count: int) -> None:
    """One left-to-right wall update of ``p``, in place.

    ``count`` is the number of values consumed before ``x``. The target
    count per bin after absorbing ``x`` is ``(count + 1) / n``; walls with
    a deficit expand right by borrowing at the next bin's density, walls
    past the new value's bin shed the excess into the next bin at the
    current bin's density. Zero-width bins are treated as infinitely
    dense, so a wall resting on its neighbor does not move and division
    by zero never occurs. Floating-point rounding is clamped so a wall
    never crosses its neighbors.
    """
    n = len(p) - 1
    c_per_bin = count / n
    c_target = (count + 1.0) / n

    c_this = c_per_bin
    if x < p[0]:
        p[0] = x
    if x < p[1]:
        c_this += 1.0

    for i in range(1, n):
        delta = c_target - c_this
        left = p[i]
        if delta > 0.0:
            right = p[i + 1]
            width = right - left
            if width <= 0.0:
                c_this = c_per_bin + (1.0 if x < right else 0.0)
                continue
            count_next = c_per_bin + 1.0 if x < right else c_per_bin
            density = count_next / width
            moved = left + delta / density
            # What is left of the next bin is count_next - delta; reading it
            # off density * (right - moved) cancels when moved nears right.
            if moved > right:
                moved = right
                c_this = 0.0
            else:
                c_this = count_next - delta
            p[i] = moved
        else:
            previous = p[i - 1]
            width = left - previous
            if width <= 0.0:
                c_this = c_per_bin - delta
                continue
            density = c_this / width
            moved = left + delta / density
            if moved < previous:
                moved = previous
            p[i] = moved
            c_this = c_per_bin - delta

    if x > p[n]:
        p[n] = x


def sort_percentile(values, q):
    """Landmark quantile: sort everything, interpolate linearly on rank."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def pair_count_auc(labels, scores):
    """Mann-Whitney AUC by brute-force pair counting; ties count half."""
    positives = [s for s, y in zip(scores, labels) if y == 1]
    negatives = [s for s, y in zip(scores, labels) if y == 0]
    if not positives or not negatives:
        raise ValueError("need both classes")
    wins = 0.0
    for p in positives:
        for m in negatives:
            if p > m:
                wins += 1.0
            elif p == m:
                wins += 0.5
    return wins / (len(positives) * len(negatives))


def batch_jsd(p_counts, q_counts):
    """JSD in shannons from two count lists, pure Python throughout."""
    p_total = sum(p_counts)
    q_total = sum(q_counts)
    p_mass = [c / p_total for c in p_counts]
    q_mass = [c / q_total for c in q_counts]
    mid = [0.5 * (a + b) for a, b in zip(p_mass, q_mass)]

    def entropy(mass):
        return -sum(m * math.log2(m) for m in mass if m > 0.0)

    return entropy(mid) - 0.5 * (entropy(p_mass) + entropy(q_mass))


def histogram_counts(scores, bin_count):
    """Batch histogram build matching the closed-bin-on-one convention."""
    counts = [0] * bin_count
    for score in scores:
        counts[min(int(score * bin_count), bin_count - 1)] += 1
    return counts


def _log_loss(y, prob, weights):
    p = np.clip(prob, gbdt.PROBABILITY_CLIP, 1.0 - gbdt.PROBABILITY_CLIP)
    terms = y * np.log(p) + (1 - y) * np.log1p(-p)
    return float(-(weights * terms).sum() / weights.sum())


def find_split(values, grad, weight):
    """Best split of one presorted column; returns (gain, position) or None.

    ``position`` is the last index of the left part, so each part keeps at
    least one row. Gain is the weighted least-squares impurity reduction
    S_l^2/W_l + S_r^2/W_r - S^2/W.
    """
    n = len(values)
    if n < 2:
        return None
    grad_left = np.cumsum(grad)[:-1]
    weight_left = np.cumsum(weight)[:-1]
    grad_total = float(grad.sum())
    weight_total = float(weight.sum())
    grad_right = grad_total - grad_left
    weight_right = weight_total - weight_left

    valid = values[:-1] < values[1:]
    valid &= (weight_left > 0) & (weight_right > 0)
    if not valid.any():
        return None

    with np.errstate(divide="ignore", invalid="ignore"):
        gains = (
            grad_left * grad_left / weight_left
            + grad_right * grad_right / weight_right
            - grad_total * grad_total / weight_total
        )
    gains = np.where(valid, gains, -np.inf)
    at = int(np.argmax(gains))
    return float(gains[at]), at


def build_tree(x, residual, hessian, weights, sorted_columns, params, importance):
    """Grow one regression tree on the residuals, depth-first."""
    grad = residual * weights
    hess = hessian * weights

    def grow(column_order, depth):
        rows = column_order[0]
        node_size = len(rows)
        grad_sum = float(grad[rows].sum())
        hess_sum = float(hess[rows].sum())
        leaf = gbdt.TreeNode(value=gbdt._leaf_value(grad_sum, hess_sum))
        if depth >= params.max_depth or node_size < 2:
            return leaf

        best_gain = gbdt.GAIN_EPSILON
        best = None
        for feature in range(x.shape[1]):
            ordered = column_order[feature]
            found = find_split(x[ordered, feature], grad[ordered], weights[ordered])
            if found is not None and found[0] > best_gain:
                best_gain, position = found
                best = (feature, position)
        if best is None:
            return leaf

        feature, position = best
        ordered = column_order[feature]
        low = x[ordered[position], feature]
        high = x[ordered[position + 1], feature]
        threshold = 0.5 * (low + high)
        if not low < threshold < high:
            threshold = low

        goes_left = np.zeros(x.shape[0], dtype=bool)
        goes_left[ordered[: position + 1]] = True
        left_order = [order[goes_left[order]] for order in column_order]
        right_order = [order[~goes_left[order]] for order in column_order]

        importance[feature] += best_gain
        return gbdt.TreeNode(
            feature=feature,
            threshold=threshold,
            left=grow(left_order, depth + 1),
            right=grow(right_order, depth + 1),
        )

    return grow(sorted_columns, 0)


def reference_fit(data, params=None):
    """``gbdt.fit`` as it was with per-feature split search and unit weights.

    Each node calls :func:`find_split` once per feature and the boosting
    loop updates the raw scores through ``gbdt._tree_predict``, so
    ``train_prob`` comes from that walk, not from the fit's leaf values.
    """
    params = params or gbdt.GBDTParams()
    y = data.y
    weights = np.ones(data.n_rows, dtype=np.float64)
    positive_rate = float((weights * y).sum() / weights.sum())
    clamped = min(max(positive_rate, gbdt.PROBABILITY_CLIP), 1.0 - gbdt.PROBABILITY_CLIP)
    initial_score = math.log(clamped / (1.0 - clamped))
    importance = np.zeros(data.n_columns, dtype=np.float64)

    raw = np.full(data.n_rows, initial_score, dtype=np.float64)
    losses = [_log_loss(y, gbdt._sigmoid(raw), weights)]
    if positive_rate in (0.0, 1.0):
        return gbdt.TreeEnsemble(
            initial_score, [], list(data.column_names), importance, losses,
            gbdt._sigmoid(raw), degenerate=True,
        )

    sorted_columns = [
        np.argsort(data.x[:, j], kind="mergesort") for j in range(data.n_columns)
    ]
    trees = []
    for _ in range(params.n_trees):
        prob = gbdt._sigmoid(raw)
        residual = y - prob
        hessian = prob * (1.0 - prob)
        tree = build_tree(
            data.x, residual, hessian, weights, sorted_columns, params, importance,
        )
        trees.append(tree)
        raw = raw + gbdt.LEARNING_RATE * gbdt._tree_predict(tree, data.x)
        losses.append(_log_loss(y, gbdt._sigmoid(raw), weights))

    return gbdt.TreeEnsemble(
        initial_score, trees, list(data.column_names), importance, losses, gbdt._sigmoid(raw),
    )


def _node_to_dict(node):
    if node.is_leaf:
        return {"value": node.value}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def ensemble_to_json(model):
    """Every field of a fitted ensemble, trees included, as JSON text."""
    return json.dumps(
        {
            "initial_score": model.initial_score,
            "column_names": model.column_names,
            "importance": list(model.importance),
            "train_losses": model.train_losses,
            "train_prob": list(model.train_prob),
            "degenerate": model.degenerate,
            "trees": [_node_to_dict(tree) for tree in model.trees],
        }
    )


def mutual_information_bits(xa, a, tb, b, n):
    """Mutual information of one (a, b) grid, in bits, from its bin codes."""
    joint = np.bincount(xa * b + tb, minlength=a * b).astype(np.float64) / n
    px = np.bincount(xa, minlength=a).astype(np.float64) / n
    pt = np.bincount(tb, minlength=b).astype(np.float64) / n
    independent = np.outer(px, pt).ravel()
    keep = joint > 0.0
    terms = joint[keep] * np.log2(joint[keep] / independent[keep])
    terms.sort()
    return float(terms.sum())


def mic_from_assignments(x_assign, t_assign, n, budget):
    """MIC as the best normalized grid, scoring one grid per call."""
    best = 0.0
    for a, xa in x_assign.items():
        for b in range(2, budget // a + 1):
            value = mutual_information_bits(xa, a, t_assign[b], b, n)
            value /= math.log2(min(a, b))
            if value > best:
                best = value
    return min(best, 1.0)


def _assignments(values, max_bins):
    """Bin count -> equi-frequency midrank assignment, for 2..max_bins bins."""
    return dict(enumerate(explain._axis_assignments(values, max_bins), start=2))


def mic(x, t) -> float:
    """Maximal information coefficient of one pair, by ``explain._GridSearch``.

    Searches all grid shapes (a, b) with a, b >= 2 and a * b bounded by
    n^0.6, normalizing the mutual information by log2(min(a, b)).
    Deterministic, symmetric in its arguments, bounded in [0, 1], and 0
    for a constant series. Raises ``ValueError`` on a length mismatch, on
    input that is not 1-D and on NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if x.ndim != 1 or t.ndim != 1:
        raise ValueError(f"mic needs 1-D series, got shapes {x.shape} and {t.shape}")
    if len(x) != len(t):
        raise ValueError(f"length mismatch: {len(x)} vs {len(t)}")
    if np.isnan(x).any() or np.isnan(t).any():
        raise ValueError("mic is undefined for NaN values")
    if explain._grid_budget(len(x)) < 4 or explain._is_constant(x) or explain._is_constant(t):
        return 0.0
    return explain._GridSearch(t).mic_scores(x, ())[0]


def reference_mic(x, t):
    """:func:`mic` through the grid-by-grid search."""
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    n = len(x)
    if n < 2 or np.all(x == x[0]) or np.all(t == t[0]):
        return 0.0
    budget = explain._grid_budget(n)
    if budget < 4:
        return 0.0
    return mic_from_assignments(
        _assignments(x, budget // 2), _assignments(t, budget // 2), n, budget
    )


def reference_filter(events, schema, seed):
    """(mic, shuffle_threshold, removed) per feature of the burn-in filter,
    drawing the shuffles in the same order with the grid-by-grid search."""
    picked = explain.burn_in_sample_indices(len(events), explain.BURN_IN_SAMPLE_SIZE)
    sample = [events[i] for i in picked]
    n = len(sample)
    budget = explain._grid_budget(n)
    t_assign = _assignments(np.arange(n, dtype=np.float64), budget // 2)
    rng = np.random.default_rng(seed)
    out = []
    for index, spec in enumerate(schema.features):
        if spec.kind == explain.NUMERIC:
            series = explain._numeric_series(sample, index)[0]
        else:
            series = explain._categorical_series(sample, index)
        shuffles = explain.shuffle_count(explain.SHUFFLE_ALPHA, explain.SHUFFLE_CONFIDENCE)
        perms = [rng.permutation(n) for _ in range(shuffles)]
        if np.all(series == series[0]):
            out.append((0.0, 0.0, False))
            continue
        x_assign = _assignments(series, budget // 2)
        observed = mic_from_assignments(x_assign, t_assign, n, budget)
        threshold = 0.0
        for perm in perms:
            permuted = {bins: codes[perm] for bins, codes in x_assign.items()}
            threshold = max(threshold, mic_from_assignments(permuted, t_assign, n, budget))
        out.append((observed, threshold, observed > threshold))
    return out
