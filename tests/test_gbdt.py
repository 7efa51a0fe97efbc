"""Boosted-tree discriminator: fitting, ROC/AUC, cross validation."""

import os
import pickle
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from driftwatch import gbdt
from helpers import assert_reaped, record_forks, with_cpus
from oracles import ensemble_to_json, pair_count_auc, reference_fit


def matrix(x, y):
    x = np.asarray(x, dtype=np.float64)
    names = [f"f{j}" for j in range(x.shape[1])]
    return gbdt.TrainingMatrix(x, y, names)


def step_problem(n=200, seed=0):
    """One informative column: label is 1 exactly when it exceeds 0.5."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, 3))
    y = (x[:, 0] > 0.5).astype(np.int64)
    return matrix(x, y)


def small_minority_problem():
    """40 rows of which only 3 are positive, too few for 5 folds."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 2))
    y = np.zeros(40, dtype=int)
    y[:3] = 1
    return matrix(x, y)


class TestFit:
    def test_learns_one_dimensional_threshold(self):
        data = step_problem()
        model = gbdt.fit(data)
        prob = gbdt.predict_proba(model, data.x)
        accuracy = ((prob > 0.5).astype(int) == data.y).mean()
        assert accuracy >= 0.99
        assert gbdt.auc(prob, data.y) == 1.0

    def test_importance_concentrates_on_informative_column(self):
        model = gbdt.fit(step_problem())
        ranked = gbdt.feature_importance(model)
        assert ranked[0][0] == "f0"
        assert ranked[0][1] > 10 * max(ranked[1][1], ranked[2][1], 1e-12)

    def test_importance_bookkeeping_identity(self):
        # Every split adds a gain above GAIN_EPSILON to its feature, so a
        # feature has importance exactly when some tree splits on it.
        rng = np.random.default_rng(3)
        x = rng.normal(size=(150, 4))
        y = (x[:, 1] + 0.5 * rng.normal(size=150) > 0).astype(np.int64)
        model = gbdt.fit(matrix(x, y))
        split_on = set()
        stack = list(model.trees)
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                split_on.add(node.feature)
                stack += [node.left, node.right]
        assert set(np.flatnonzero(model.importance > gbdt.GAIN_EPSILON)) == split_on
        assert np.all(model.importance >= 0.0)
        assert len(split_on) >= 2

    def test_single_class_degenerate(self):
        data = matrix(np.ones((5, 2)), np.zeros(5, dtype=int))
        model = gbdt.fit(data)
        assert model.degenerate
        assert model.trees == []
        prob = gbdt.predict_proba(model, data.x)
        assert np.all(prob < 1e-10)

    def test_training_loss_monotone(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(150, 4))
        y = (x[:, 1] + 0.3 * rng.normal(size=150) > 0).astype(np.int64)
        model = gbdt.fit(matrix(x, y))
        losses = model.train_losses
        assert len(losses) == 51
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_deterministic(self):
        data = step_problem(seed=8)
        a = gbdt.fit(data)
        b = gbdt.fit(data)
        assert ensemble_to_json(a) == ensemble_to_json(b)

    def test_tree_and_depth_limits(self):
        params = gbdt.GBDTParams(n_trees=7, max_depth=2)
        model = gbdt.fit(step_problem(), params)
        assert len(model.trees) == 7

        def depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert all(depth(tree) <= 2 for tree in model.trees)

    def test_empty_matrix_rejected(self):
        with pytest.raises(gbdt.TrainingError):
            gbdt.fit(matrix(np.zeros((0, 2)), np.zeros(0, dtype=int)))

    def test_zero_columns_rejected(self):
        with pytest.raises(gbdt.TrainingError, match="no columns"):
            gbdt.TrainingMatrix(np.zeros((4, 0)), [0, 1, 0, 1], [])

    def test_arity_mismatch_rejected(self):
        model = gbdt.fit(step_problem())
        with pytest.raises(gbdt.TrainingError):
            gbdt.predict_proba(model, np.zeros((3, 5)))


def oracle_case(seed, rows, columns, kind):
    """A fixture for the exactness oracle; ``kind`` picks the column values."""
    rng = np.random.default_rng(seed)
    if kind == "normal":
        x = rng.normal(size=(rows, columns))
    elif kind == "codes":  # integer category codes, so most neighbours tie
        x = rng.integers(0, 4, size=(rows, columns)).astype(np.float64)
    else:  # "ties": one decimal, plus a constant first column
        x = np.round(rng.normal(size=(rows, columns)), 1)
        x[:, 0] = 2.5
    y = ((x[:, -1] + rng.normal(size=rows)) > 0).astype(np.int64)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return matrix(x, y)


def assert_same_ensemble(data, params):
    """``fit`` and the reference build the same ``ensemble_to_json`` text.

    On a mismatch only the text around the first difference is shown;
    a full diff of two long JSON strings takes minutes.
    """
    actual = ensemble_to_json(gbdt.fit(data, params))
    expected = ensemble_to_json(reference_fit(data, params))
    if actual != expected:
        at = next(
            (i for i, (a, b) in enumerate(zip(actual, expected)) if a != b),
            min(len(actual), len(expected)),
        )
        pytest.fail(
            f"ensembles differ at character {at}: "
            f"{actual[at - 80:at + 40]!r} != {expected[at - 80:at + 40]!r}"
        )


class TestExactnessOracle:
    """The block split search builds exactly the per-feature reference's ensemble."""

    @pytest.mark.parametrize("columns", [1, 8])
    @pytest.mark.parametrize("kind", ["normal", "codes", "ties"])
    @pytest.mark.parametrize("max_depth", [1, 2, 3, 4, 5, 6])
    def test_same_ensemble_as_reference(self, columns, kind, max_depth):
        data = oracle_case(max_depth * 10 + columns, 120, columns, kind)
        assert_same_ensemble(data, gbdt.GBDTParams(n_trees=8, max_depth=max_depth))

    @pytest.mark.parametrize(
        "x, y",
        [
            ([[0.0], [1.0]], [0, 1]),
            ([[1.0, 3.0], [1.0, 2.0]], [1, 0]),
            ([[5.0, 5.0], [5.0, 5.0]], [0, 1]),
            ([[1.0], [2.0], [3.0]], [1, 1, 1]),
            (np.ones((6, 2)), [0] * 6),
        ],
        ids=["two_rows", "two_rows_constant_column", "two_equal_rows",
             "single_class_ones", "single_class_zeros"],
    )
    def test_same_ensemble_on_tiny_inputs(self, x, y):
        assert_same_ensemble(matrix(x, np.asarray(y, dtype=np.int64)), None)

    @pytest.mark.parametrize("kind", ["normal", "ties"])
    def test_same_ensemble_when_most_leaves_hold_a_few_rows(self, kind):
        # 400 rows split to depth 6 leave most leaves with 1-3 rows.
        data = oracle_case(400, 400, 8, kind)
        assert_same_ensemble(data, gbdt.GBDTParams(n_trees=8, max_depth=6))

    def test_same_ensemble_when_a_root_child_is_one_row(self):
        x = np.arange(30, dtype=np.float64)[:, None]
        y = np.zeros(30, dtype=np.int64)
        y[-1] = 1
        data = matrix(x, y)
        root = gbdt.fit(data).trees[0]
        assert root.right.is_leaf
        assert (x[:, 0] > root.threshold).sum() == 1
        assert_same_ensemble(data, None)


class TestRankInvariance:
    def test_rank_transform_keeps_structure(self):
        data = step_problem(seed=11)
        transformed = data.x.copy()
        # Strictly monotone transform of column 0 via its rank.
        order = np.argsort(transformed[:, 0])
        ranks = np.empty_like(order, dtype=np.float64)
        ranks[order] = np.arange(len(order), dtype=np.float64)
        transformed[:, 0] = ranks
        base = gbdt.fit(data)
        moved = gbdt.fit(matrix(transformed, data.y))

        def skeleton(node):
            if node.is_leaf:
                return ("leaf", round(node.value, 9))
            return (node.feature, skeleton(node.left), skeleton(node.right))

        assert [skeleton(t) for t in base.trees] == [skeleton(t) for t in moved.trees]
        assert np.allclose(base.train_losses, moved.train_losses, atol=1e-12)
        assert np.allclose(
            gbdt.predict_proba(base, data.x), gbdt.predict_proba(moved, transformed)
        )


class TestRocAuc:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert gbdt.auc(scores, labels) == 1.0
        assert gbdt.roc_points(scores, labels)[0] == (0.0, 0.0)
        assert gbdt.roc_points(scores, labels)[-1] == (1.0, 1.0)

    def test_ties_grouped(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        labels = np.array([1, 0, 1, 0])
        points = gbdt.roc_points(scores, labels)
        assert points == [(0.0, 0.0), (1.0, 1.0)]
        assert gbdt.auc(scores, labels) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(gbdt.TrainingError):
            gbdt.auc(np.array([0.1, 0.2]), np.array([1, 1]))

    def test_auc_matches_pair_counting(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(4, 100))
            scores = rng.integers(0, 6, size=n) / 5.0  # heavy ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            expected = pair_count_auc(labels.tolist(), scores.tolist())
            assert abs(gbdt.auc(scores, labels) - expected) < 1e-12


class TestKfold:
    def test_shuffled_labels_near_chance(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(400, 4))
        y = rng.integers(0, 2, size=400)
        result = gbdt.kfold_auc(matrix(x, y), k=5, seed=1)
        assert 0.4 <= result.mean_auc <= 0.6
        assert result.k == 5
        assert len(result.fold_aucs) == 5

    def test_separable_data_high_auc(self):
        result = gbdt.kfold_auc(step_problem(seed=2), k=5, seed=0)
        assert result.mean_auc > 0.95

    def test_small_minority_reduces_k(self):
        with pytest.warns(UserWarning, match="reducing k"):
            result = gbdt.kfold_auc(small_minority_problem(), k=5, seed=0)
        assert result.k == 3

    def test_tiny_minority_rejected(self):
        x = np.zeros((10, 2))
        y = np.zeros(10, dtype=int)
        y[0] = 1
        with pytest.raises(gbdt.TrainingError):
            gbdt.kfold_auc(matrix(x, y))

    def test_deterministic_given_seed(self):
        data = step_problem(seed=5)
        a = gbdt.kfold_auc(data, k=4, seed=9)
        b = gbdt.kfold_auc(data, k=4, seed=9)
        assert a.fold_aucs == b.fold_aucs


def bits(result):
    """Every float of a ``KFoldResult`` in hex, which tells -0.0 from 0.0."""
    return (
        result.k,
        result.mean_auc.hex(),
        [area.hex() for area in result.fold_aucs],
        [[(fpr.hex(), tpr.hex()) for fpr, tpr in roc] for roc in result.fold_rocs],
    )


def assert_bit_identical(a, b):
    assert a == b
    assert bits(a) == bits(b)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
class TestFoldHelpers:
    """``kfold_auc`` deals its folds to forked helpers; results never depend on them."""

    @pytest.mark.parametrize("data, k", [
        (step_problem(seed=4), 5),
        (step_problem(seed=4), 2),
        (small_minority_problem(), 5),
    ], ids=["k5", "k2", "reduced-k"])
    def test_same_result_on_any_cpu_count(self, monkeypatch, data, k):
        forks = record_forks(monkeypatch)
        results = []
        for count in (1, 2, 4):
            with_cpus(monkeypatch, count)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                results.append(gbdt.kfold_auc(data, k=k, seed=11))
            reductions = [w for w in caught if "reducing k" in str(w.message)]
            assert len(reductions) == (1 if results[-1].k < k else 0)
        for result in results[1:]:
            assert_bit_identical(result, results[0])
        assert len(forks) == sum(min(count, results[0].k) - 1 for count in (1, 2, 4))
        assert_reaped(forks)

    def test_helper_that_fails_to_start(self, monkeypatch):
        data = step_problem(seed=6)
        with_cpus(monkeypatch, 1)
        expected = gbdt.kfold_auc(data, k=5, seed=2)
        forks = record_forks(monkeypatch, refuse_first=True)
        with_cpus(monkeypatch, 4)
        assert_bit_identical(gbdt.kfold_auc(data, k=5, seed=2), expected)
        assert len(forks) == 3
        assert_reaped(forks)

    @pytest.mark.parametrize("delivered", [0, 1])
    def test_helper_that_dies(self, monkeypatch, delivered):
        data = step_problem(seed=6)
        with_cpus(monkeypatch, 1)
        expected = gbdt.kfold_auc(data, k=5, seed=2)
        caller = os.getpid()
        fit = gbdt.fit
        fits = []

        def dies_in_the_helper(*args, **kwargs):
            if os.getpid() != caller:
                if len(fits) == delivered:
                    os._exit(1)
                fits.append(None)
            return fit(*args, **kwargs)

        forks = record_forks(monkeypatch)
        monkeypatch.setattr(gbdt, "fit", dies_in_the_helper)
        with_cpus(monkeypatch, 2)
        assert_bit_identical(gbdt.kfold_auc(data, k=5, seed=2), expected)
        assert len(forks) == 1
        assert_reaped(forks)

    def test_helper_that_dies_mid_frame(self, monkeypatch):
        # The helper writes half of its first result, so the caller reads a
        # truncated pickle frame.
        data = step_problem(seed=6)
        with_cpus(monkeypatch, 1)
        expected = gbdt.kfold_auc(data, k=5, seed=2)
        forks = record_forks(monkeypatch)

        def half_a_frame(result, writer):
            frame = pickle.dumps(result)
            writer.write(frame[: len(frame) // 2])
            writer.flush()
            os._exit(1)

        monkeypatch.setattr(pickle, "dump", half_a_frame)
        with_cpus(monkeypatch, 2)
        assert_bit_identical(gbdt.kfold_auc(data, k=5, seed=2), expected)
        assert len(forks) == 1
        assert_reaped(forks)

    def test_helper_runs_no_exit_handler_and_flushes_no_buffer(self, tmp_path):
        # The CLI holds signal.csv open, rows still in its buffer, while a
        # report runs: a helper that flushed its copy would write them twice.
        script = (
            "import atexit, sys\n"
            "import numpy as np\n"
            "from driftwatch import gbdt\n"
            "atexit.register(print, 'exit handler')\n"
            "gbdt._usable_cpus = lambda: 2\n"
            "x = np.random.default_rng(0).random((60, 2))\n"
            "data = gbdt.TrainingMatrix(x, (x[:, 0] > 0.5).astype(int), ['a', 'b'])\n"
            "with open(sys.argv[1], 'w') as buffered:\n"
            "    buffered.write('once\\n')\n"
            "    gbdt.kfold_auc(data)\n"
        )
        path = tmp_path / "buffered.txt"
        env = dict(os.environ, PYTHONPATH=str(Path(gbdt.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "exit handler\n"
        assert path.read_text() == "once\n"

    def test_no_helper_while_another_thread_runs(self, monkeypatch):
        forks = record_forks(monkeypatch)
        with_cpus(monkeypatch, 4)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            result = gbdt.kfold_auc(step_problem(seed=7), k=5, seed=0)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert forks == []
        assert len(result.fold_aucs) == 5

    def test_no_helper_outlives_a_raising_call(self, monkeypatch):
        # The helpers are still busy when the caller raises: they must be
        # stopped, not waited for.
        caller = os.getpid()

        def fails_in_the_caller(*args, **kwargs):
            if os.getpid() == caller:
                raise RuntimeError("fit failed")
            time.sleep(60)

        forks = record_forks(monkeypatch)
        monkeypatch.setattr(gbdt, "fit", fails_in_the_caller)
        with_cpus(monkeypatch, 4)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="fit failed"):
            gbdt.kfold_auc(step_problem(seed=8), k=5, seed=0)
        assert time.monotonic() - start < 30
        assert len(forks) == 3
        assert_reaped(forks)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
class TestDealFolds:
    """``_deal_folds`` on tasks other than folds, and its ``meanwhile`` call."""

    def test_no_tasks_forks_nothing(self, monkeypatch):
        forks = record_forks(monkeypatch)
        with_cpus(monkeypatch, 4)
        calls = []
        assert gbdt._deal_folds(0, lambda task: task, lambda: calls.append(None)) == []
        assert forks == []
        assert calls == [None]

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_any_result_comes_back_unchanged(self, monkeypatch, count):
        def run(task):
            return {"task": task, "rows": np.arange(task, dtype=np.float64) / 3}

        forks = record_forks(monkeypatch)
        with_cpus(monkeypatch, count)
        results = gbdt._deal_folds(5, run)
        assert len(forks) == count - 1
        assert_reaped(forks)
        assert [r["task"] for r in results] == list(range(5))
        for got, expected in zip(results, map(run, range(5))):
            assert got["rows"].tobytes() == expected["rows"].tobytes()

    def test_meanwhile_runs_once_here_after_the_forks(self, monkeypatch):
        forks = record_forks(monkeypatch)
        with_cpus(monkeypatch, 4)
        caller = os.getpid()
        calls = []

        def meanwhile():
            calls.append((os.getpid(), len(forks)))

        assert gbdt._deal_folds(5, lambda task: task * task, meanwhile) == [0, 1, 4, 9, 16]
        assert calls == [(caller, 3)]
        assert_reaped(forks)

    def test_no_helper_outlives_a_raising_meanwhile(self, monkeypatch):
        def meanwhile():
            raise RuntimeError("meanwhile failed")

        def run(task):
            time.sleep(60)

        forks = record_forks(monkeypatch)
        with_cpus(monkeypatch, 4)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="meanwhile failed"):
            gbdt._deal_folds(5, run, meanwhile)
        assert time.monotonic() - start < 30
        assert len(forks) == 3
        assert_reaped(forks)
