"""The package's public surface."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import driftwatch
from driftwatch.cli import build_parser, load_run_config

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in driftwatch.__all__ if not hasattr(driftwatch, name)]
    assert missing == []


def test_benchmark_probe_finds_every_name_it_wraps():
    # bench/probe.py replaces module attributes by name; a renamed or
    # inlined layer makes its traced install raise.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")]))
    result = subprocess.run(
        [sys.executable, "-c", "import probe; probe.install(probe.Recorder(), trace=True)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def run_python(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )


def test_importing_the_cli_does_not_import_multiprocessing():
    # Every launch pays for what `import driftwatch.cli` loads.
    result = run_python("import sys, driftwatch.cli; assert 'multiprocessing' not in sys.modules")
    assert result.returncode == 0, result.stderr


FOLDS_ON_TWO_CPUS = """
import os, sys
import numpy as np
from driftwatch import gbdt
forks = []
fork = os.fork
os.fork = lambda: forks.append(None) or fork()
gbdt._usable_cpus = lambda: 2
x = np.random.default_rng(0).random((60, 2))
gbdt.kfold_auc(gbdt.TrainingMatrix(x, (x[:, 0] > 0.5).astype(int), ["a", "b"]))
assert forks, "no fold helper was forked"
assert "multiprocessing" not in sys.modules
"""


def test_fold_helpers_do_not_import_multiprocessing():
    # The helpers fork and pickle over a pipe themselves.
    result = run_python(FOLDS_ON_TWO_CPUS)
    assert result.returncode == 0, result.stderr


def test_readme_names_only_live_cli_options():
    # A flag deleted from the parser must not stay documented.
    parser = build_parser()
    (subcommands,) = [action.choices for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction)]
    live = {option for sub in subcommands.values() for action in sub._actions
            for option in action.option_strings}
    pip_options = {"--no-build-isolation"}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme))
    assert named - pip_options - live == set()


def test_readme_config_example_loads(tmp_path):
    # The example config block must use live keys with valid values.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"The config file is flat .*?\n```\n(.*?)```", readme, re.DOTALL)
    path = tmp_path / "example.conf"
    path.write_text(block, encoding="utf-8")
    monitor_config, _, echo = load_run_config(str(path))
    assert (monitor_config.n_r, monitor_config.n_t) == (6000, 1000)
    assert echo["report"]["cv_folds"] == 5
