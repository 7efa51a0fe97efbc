"""The package's public surface."""

import os
import subprocess
import sys
from pathlib import Path

import driftwatch

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
