"""Streaming percentile sketch: wall updates, the sweep rule, accuracy."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftwatch.spear import (
    PercentileSketch,
    SketchWarmupError,
    update_percentiles,
    wall_rank,
)
from oracles import reference_sweep, sort_percentile, trace_update


class TestUpdatePercentiles:
    def test_growth_hand_trace(self):
        # Walls [0, 5, 10] holding 3 values, new value 6 in the upper bin:
        # target 2 per bin, bin one borrows 0.5 at density (1+1.5)/5.
        assert update_percentiles([0.0, 5.0, 10.0], 6.0, 3) == [0.0, 6.0, 10.0]

    def test_left_expansion_comes_first(self):
        updated = update_percentiles([0.0, 5.0, 10.0], -1.0, 3)
        assert updated[0] == -1.0
        assert updated == pytest.approx(trace_update([0.0, 5.0, 10.0], -1.0, 3), abs=1e-12)

    def test_right_expansion_comes_last(self):
        updated = update_percentiles([0.0, 5.0, 10.0], 12.0, 3)
        assert updated[-1] == 12.0

    def test_input_not_mutated(self):
        positions = [0.0, 5.0, 10.0]
        update_percentiles(positions, 6.0, 3)
        assert positions == [0.0, 5.0, 10.0]

    def test_walls_stay_sorted_on_random_updates(self):
        rng = random.Random(3)
        positions = sorted(rng.random() for _ in range(6))
        for count in range(6, 600):
            positions = update_percentiles(positions, rng.random(), count)
            assert all(a <= b for a, b in zip(positions, positions[1:]))


@given(
    n=st.integers(2, 4),
    seed=st.integers(0, 10**9),
)
@settings(max_examples=150, deadline=None)
def test_forward_update_matches_rational_oracle(n, seed):
    rng = random.Random(seed)
    positions = sorted(rng.uniform(-10, 10) for _ in range(n + 1))
    count = n + 1
    for _ in range(12):
        x = rng.uniform(-12, 12)
        expected = trace_update(positions, x, count)
        actual = update_percentiles(positions, x, count)
        assert actual == pytest.approx(expected, abs=1e-12)
        positions = actual
        count += 1


def _stream(kind, rng, size):
    if kind == "repeated":
        return [rng.choice((0.25, 0.5, 0.5, 0.75)) for _ in range(size)]
    if kind == "zero_one":
        return [rng.choice((0.0, 1.0)) if rng.random() < 0.9 else rng.random()
                for _ in range(size)]
    if kind == "outliers":
        return [rng.choice((-1e300, 1e300)) if rng.random() < 0.05 else rng.gauss(0.0, 1.0)
                for _ in range(size)]
    # Every value falls below the lowest wall or above the highest.
    return [(-1.0) ** i * i for i in range(size)]


class TestReferenceSweep:
    """``consume`` moves the walls exactly as the reference sweep does."""

    def replay(self, sketch, values):
        walls = list(sketch.positions)
        for x in values:
            reference_sweep(walls, x, sketch.count)
            sketch.consume(x)
            assert sketch.positions == walls

    @pytest.mark.parametrize("n", [2, 3, 100])
    @pytest.mark.parametrize("kind", ["repeated", "zero_one", "outliers", "beyond"])
    def test_streams(self, n, kind):
        values = _stream(kind, random.Random(n), 2_000)
        sketch = PercentileSketch(n)
        for x in values[: n + 1]:
            sketch.consume(x)
        self.replay(sketch, values[n + 1:])

    @pytest.mark.parametrize("n", [2, 3, 100])
    def test_zero_width_bins(self, n):
        # Walls resting on one another. Warm-up jitters ties apart, so the
        # walls are set directly.
        rng = random.Random(n)
        sketch = PercentileSketch(n)
        for _ in range(n + 1):
            sketch.consume(rng.random())
        sketch.positions = [0.25] + [0.5] * n
        values = [0.5, 0.75] + _stream("repeated", rng, 500) + _stream("beyond", rng, 50)
        self.replay(sketch, values)

    @pytest.mark.parametrize("n", [2, 3, 100])
    def test_clamped_walls(self, n):
        # consume always passes count > n; only a smaller count leaves a
        # deficit larger than the next bin, so a wall clamps onto it.
        walls = [float(i) for i in range(n + 1)]
        for count, x in ((0.5, n - 0.5), (0.5, 10.0 * n), (1, -5.0)):
            expected = list(walls)
            reference_sweep(expected, x, count)
            assert update_percentiles(walls, x, count) == expected


class TestInitialization:
    def test_first_values_inserted_sorted(self):
        sketch = PercentileSketch(n=3)
        for value in [5.0, 1.0, 9.0, 3.0]:
            sketch.consume(value)
        assert sketch.positions == [1.0, 3.0, 5.0, 9.0]
        assert sketch.initialized

    def test_duplicates_jittered_strictly_sorted(self):
        sketch = PercentileSketch(n=4)
        for _ in range(5):
            sketch.consume(0.0)
        assert all(a < b for a, b in zip(sketch.positions, sketch.positions[1:]))

    def test_percentile_before_warmup_rejected(self):
        sketch = PercentileSketch(n=3)
        sketch.consume(1.0)
        with pytest.raises(SketchWarmupError):
            sketch.percentile(50)

    def test_non_finite_rejected(self):
        sketch = PercentileSketch(n=3)
        with pytest.raises(ValueError):
            sketch.consume(float("nan"))

    def test_jitter_past_the_largest_float_rejected(self):
        # The jitter turns a repeated largest float into inf; inserting it
        # used to leave the next repeat looping on inf == inf.
        sketch = PercentileSketch(n=2)
        sketch.consume(sys.float_info.max)
        for _ in range(2):
            with pytest.raises(ValueError, match="span"):
                sketch.consume(sys.float_info.max)
            assert sketch.positions == [sys.float_info.max]
            assert sketch.count == 1

    def test_warm_up_span_past_the_largest_float_rejected(self):
        sketch = PercentileSketch(n=3)
        for value in (-1e308, -9.5e307):
            sketch.consume(value)
        with pytest.raises(ValueError, match="span"):
            sketch.consume(9.5e307)
        assert sketch.positions == [-1e308, -9.5e307]
        assert sketch.count == 2

    def test_value_stretching_the_walls_past_the_largest_float_rejected(self):
        # Such a span used to overflow a bin width to inf mid-sweep and
        # raise ZeroDivisionError with the walls half-moved.
        sketch = PercentileSketch(n=3)
        for value in (-8e307, -7e307, 7e307, 8e307):
            sketch.consume(value)
        before = list(sketch.positions)
        for value in (-1.2e308, 1.2e308):
            with pytest.raises(ValueError, match="span"):
                sketch.consume(value)
            assert sketch.positions == before
            assert sketch.count == 4
        sketch.consume(-9e307)
        assert sketch.count == 5
        assert sketch.positions[0] == -9e307

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            PercentileSketch(n=3, policy="boustrophedon")


class TestPercentileQuery:
    def setup_method(self):
        self.sketch = PercentileSketch(n=4)
        for value in [0.0, 1.0, 2.0, 3.0, 4.0]:
            self.sketch.consume(value)

    def test_midpoint(self):
        assert self.sketch.percentile(50) == 2.0

    def test_endpoints(self):
        assert self.sketch.percentile(0) == 0.0
        assert self.sketch.percentile(100) == 4.0

    def test_interpolation(self):
        assert self.sketch.percentile(90) == pytest.approx(3.6)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            self.sketch.percentile(101)

    def test_monotone_in_q(self):
        rng = random.Random(9)
        sketch = PercentileSketch(n=10, policy="random", seed=2)
        for _ in range(500):
            sketch.consume(rng.gauss(0, 1))
        quantiles = [sketch.percentile(q) for q in range(0, 101, 5)]
        assert all(a <= b for a, b in zip(quantiles, quantiles[1:]))


class TestWallLevels:
    """The readout places each wall at the level where it settles."""

    def test_warm_sketch_reads_the_sorted_sample(self):
        rng = random.Random(12)
        sample = [rng.expovariate(1.0) for _ in range(51)]
        sketch = PercentileSketch(n=50, policy="random", seed=3)
        for value in sample:
            sketch.consume(value)
        ordered = sorted(sample)
        for q in [0, 2.5, 10, 37.3, 50, 90, 95, 99.9, 100]:
            rank = q / 100.0 * 50
            low = min(int(rank), 49)
            frac = rank - low
            expected = ordered[low] + frac * (ordered[low + 1] - ordered[low])
            assert sketch.percentile(q) == expected

    def test_monotone_in_q_while_levels_unsettled(self):
        rng = random.Random(14)
        sketch = PercentileSketch(n=100, policy="random", seed=4)
        unsettled = 0
        for step in range(3_000):
            sketch.consume(rng.expovariate(1.0))
            if step < 101 or step % 97:
                continue
            beta = 1.0 - (sketch.n + 1.0) / sketch.count
            ranks = [wall_rank(sketch.positions, i, beta) for i in range(sketch.n + 1)]
            unsettled += any(a >= b for a, b in zip(ranks, ranks[1:]))
            estimates = [sketch.percentile(q / 10.0) for q in range(1001)]
            assert all(a <= b for a, b in zip(estimates, estimates[1:]))
        assert unsettled > 0

    def test_equal_widths_keep_nominal_ranks(self):
        positions = [0.0, 0.5, 1.0, 1.5, 2.0]
        assert [wall_rank(positions, i, 0.9) for i in range(5)] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_widening_bins_raise_the_rank(self):
        # Wall 2 of 4 with a bin twice as wide above it as below: it
        # settles where 2 * 2 / (2 * 2 + 2 * 1) = 2/3 of the mass lies
        # below, rank 8/3 rather than 2.
        positions = [0.0, 1.0, 2.0, 4.0, 6.0]
        assert wall_rank(positions, 2, 1.0) == pytest.approx(8.0 / 3.0)
        assert wall_rank(positions, 2, 0.5) == pytest.approx(2.0 + 0.5 * 2.0 / 3.0)


class TestPolicies:
    def test_consume_applies_update_percentiles(self):
        sketch = PercentileSketch(n=8)
        values = random.Random(8)
        warm = [values.gauss(0, 1) for _ in range(9)]
        for value in warm:
            sketch.consume(value)
        positions = sorted(warm)
        for count in range(9, 400):
            value = values.gauss(0, 1)
            sketch.consume(value)
            positions = update_percentiles(positions, value, count)
            assert sketch.positions == positions

    def test_seed_has_no_effect(self):
        walls = []
        for seed in (0, 11):
            sketch = PercentileSketch(n=8, policy="random", seed=seed)
            rng = random.Random(6)
            for _ in range(300):
                sketch.consume(rng.expovariate(1.0))
            walls.append(sketch.positions)
        assert walls[0] == walls[1]

    def test_random_policy_deterministic_per_seed(self):
        streams = []
        for _ in range(2):
            sketch = PercentileSketch(n=8, policy="random", seed=77)
            rng = random.Random(5)
            for _ in range(300):
                sketch.consume(rng.random())
            streams.append(sketch.positions)
        assert streams[0] == streams[1]


class TestAccuracy:
    """Accuracy of the estimator on 5*10^4-value streams.

    Bounded streams track the landmark quantile to well under a
    percentile-sketch bin. Where the density curves through a tail,
    neighboring bins differ in width and the walls settle off their
    nominal levels; reading them at their settled levels brings the
    unbounded streams within the 3% relative target of acceptance
    criterion 02.
    """

    SIZE = 50_000

    def run_stream(self, draw, seed):
        rng = random.Random(seed)
        values = [draw(rng) for _ in range(self.SIZE)]
        sketch = PercentileSketch(100, "random", seed=seed + 1)
        for value in values:
            sketch.consume(value)
        return sketch.percentile(95), sort_percentile(values, 95)

    def test_uniform_absolute_error(self):
        estimate, exact = self.run_stream(lambda r: r.random(), 21)
        assert abs(estimate - exact) <= 0.005

    def test_bernoulli_jittered_absolute_error(self):
        def draw(r):
            return (1.0 if r.random() < 0.5 else 0.0) + 1e-6 * r.random()

        estimate, exact = self.run_stream(draw, 22)
        assert abs(estimate - exact) <= 0.01

    def test_gaussian_relative_envelope(self):
        estimate, exact = self.run_stream(lambda r: r.gauss(0.0, 1.0), 23)
        assert abs(estimate - exact) / abs(exact) <= 0.03

    def test_exponential_relative_envelope(self):
        estimate, exact = self.run_stream(lambda r: r.expovariate(1.0), 24)
        assert abs(estimate - exact) / abs(exact) <= 0.03

    def test_state_size_constant(self):
        sketch = PercentileSketch(50, "random", seed=1)
        rng = random.Random(30)
        sizes = set()
        for step in range(2_000):
            sketch.consume(rng.expovariate(1.0))
            if step > 60:
                sizes.add(len(sketch.positions))
        assert sizes == {51}
