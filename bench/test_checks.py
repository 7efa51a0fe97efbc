"""Tests for the benchmark's output checks.

    python3 -m pytest bench/test_checks.py

One small ``driftwatch monitor`` run is made once; each test corrupts a
copy of it and requires the checks to reject the copy.
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
from driftwatch.cli import main  # noqa: E402

# Small windows keep the run to a few seconds: a score-only drift pins the
# first alarm at the first emitted point, a drift of feature "moved" the
# second one at the reopening of the refractory gate.
TINY = gen.pinned_workload(
    "tiny", 300, 100, 600,
    (gen.Feature("moved", "numeric", 0.05), gen.Feature("quiet", "numeric"),
     gen.Feature("kind", "categorical", 0.05)),
    [("moved",)],
)
SEED = 3


@pytest.fixture(scope="module")
def good_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("good")
    inputs = gen.write_inputs(TINY, SEED, base / "input")
    out = base / "run"
    code = main(["monitor", "--input", str(inputs["stream"]), "--schema",
                 str(inputs["schema"]), "--config", str(inputs["config"]),
                 "--out", str(out), "--seed", "0"])
    assert code == 0
    return inputs, out, json.loads(inputs["truth"].read_text())


@pytest.fixture
def run_copy(good_run, tmp_path):
    inputs, out, truth = good_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    return inputs, copy, truth


def _check(inputs, run_dir, truth):
    return checks.check_run(run_dir, inputs["stream"], truth)


def _rewrite_signal_row(run_dir, row, edit):
    path = run_dir / "signal.csv"
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    edit(cells)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_good_run_passes(good_run):
    inputs, out, truth = good_run
    assert _check(inputs, out, truth) == []
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["alarms"]) == 2


def test_signal_moved_by_1e_6_is_rejected(run_copy):
    inputs, run_dir, truth = run_copy
    _rewrite_signal_row(run_dir, 5, lambda c: c.__setitem__(2, repr(float(c[2]) + 1e-6)))
    assert any("recomputed JSD" in f for f in _check(inputs, run_dir, truth))


def test_flipped_is_alarm_is_rejected(run_copy):
    inputs, run_dir, truth = run_copy
    _rewrite_signal_row(run_dir, 7, lambda c: c.__setitem__(4, "0" if c[4] == "1" else "1"))
    assert any("is_alarm" in f for f in _check(inputs, run_dir, truth))


def test_dropped_trigger_is_rejected(run_copy):
    inputs, run_dir, truth = run_copy
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["alarms"].pop()
    path.write_text(json.dumps(manifest))
    assert any("triggers from signal.csv" in f for f in _check(inputs, run_dir, truth))


def test_removed_report_file_is_rejected(run_copy):
    inputs, run_dir, truth = run_copy
    (run_dir / "alarm_0001.roc.csv").unlink()
    assert any("missing ['alarm_0001.roc.csv']" in f for f in _check(inputs, run_dir, truth))


def test_fold_auc_off_its_roc_is_rejected(run_copy):
    inputs, run_dir, truth = run_copy
    path = run_dir / "alarm_0000.json"
    report = json.loads(path.read_text())
    report["cross_validation"]["fold_aucs"][0] += 1e-6
    path.write_text(json.dumps(report))
    assert any("is not its ROC's" in f for f in _check(inputs, run_dir, truth))


def test_swapped_importances_are_rejected(run_copy):
    inputs, run_dir, truth = run_copy
    path = run_dir / "alarm_0001.json"
    report = json.loads(path.read_text())
    report["feature_importance"].reverse()
    path.write_text(json.dumps(report))
    assert any("do not all outrank" in f for f in _check(inputs, run_dir, truth))


def test_window_jsd_matches_a_direct_computation():
    rng = np.random.default_rng(0)
    scores = rng.beta(2.0, 5.0, 400)
    scores[17] = 1.0
    n_r, n_t, bins = 50, 20, 10
    indices = np.arange(n_r + n_t - 1, len(scores))
    fast = checks.window_jsd(scores, indices, n_r, n_t, bins)
    for at, i in enumerate(indices):
        r = scores[i + 1 - n_t - n_r : i + 1 - n_t]
        t = scores[i + 1 - n_t : i + 1]
        p = np.bincount(np.minimum((r * bins).astype(int), bins - 1), minlength=bins) / n_r
        q = np.bincount(np.minimum((t * bins).astype(int), bins - 1), minlength=bins) / n_t

        def entropy(mass):
            mass = mass[mass > 0]
            return -float((mass * np.log2(mass)).sum())

        direct = entropy(0.5 * (p + q)) - 0.5 * (entropy(p) + entropy(q))
        assert abs(fast[at] - direct) < 1e-12
