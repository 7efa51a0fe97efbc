"""Accuracy study of the streaming percentile sketch.

Feeds the sketch from several stream shapes and reports the error of
its 95th-percentile estimate against the exact landmark quantile at a
few checkpoints. A wall moves right at the density of the bin above it
and left at the density of the bin below it, so where the density
curves through a tail (gaussian, exponential) the walls settle off
their nominal levels by an amount that shrinks with the bin width, not
with more data. The sketch reads each wall at its settled level; the
table shows how close that brings the estimate, and ``--bins`` shows
the effect of wall resolution.

Usage:
    python3 scripts/sketch_accuracy.py [--draws 200000] [--bins 100] [--seed 1]
"""

import argparse

import numpy as np

from driftwatch.spear import PercentileSketch


def make_streams(draws: int, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    coin = rng.integers(0, 2, size=draws)
    jitter = rng.uniform(-0.05, 0.05, size=draws)
    return {
        "uniform": rng.uniform(0.0, 1.0, size=draws),
        "gaussian": rng.normal(0.0, 1.0, size=draws),
        "exponential": rng.exponential(1.0, size=draws),
        "bernoulli-jittered": np.where(coin == 1, 0.8, 0.2) + jitter,
    }


def exact_percentile(values: np.ndarray, q: float) -> float:
    ordered = np.sort(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    frac = rank - low
    if low + 1 == len(ordered):
        return float(ordered[low])
    return float(ordered[low] + frac * (ordered[low + 1] - ordered[low]))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=200_000)
    parser.add_argument("--bins", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    checkpoints = [
        args.draws // 100,
        args.draws // 10,
        args.draws // 2,
        args.draws,
    ]
    print(f"p95 error vs exact landmark quantile, n={args.bins} walls")
    for name, values in make_streams(args.draws, args.seed).items():
        sketch = PercentileSketch(args.bins)
        marks = iter(checkpoints)
        mark = next(marks)
        rows = []
        for seen, value in enumerate(values.tolist(), start=1):
            sketch.consume(value)
            if seen == mark:
                estimate = sketch.percentile(95.0)
                exact = exact_percentile(values[:seen], 95.0)
                rel = abs(estimate - exact) / abs(exact)
                rows.append((seen, estimate, exact, rel))
                mark = next(marks, None)
        print(f"\n{name}")
        print(f"  {'seen':>8}  {'sketch':>10}  {'exact':>10}  {'rel err':>8}")
        for seen, estimate, exact, rel in rows:
            print(f"  {seen:>8}  {estimate:>10.5f}  {exact:>10.5f}  {rel:>7.2%}")


if __name__ == "__main__":
    main()
