"""Streaming percentile sketch with constant memory and one pass per event.

The sketch keeps ``n + 1`` sorted positions ``P[0] .. P[n]`` interpreted as
estimated percentile locations: ``P[0]`` tracks the running minimum,
``P[n]`` the running maximum, and the walls in between aim to keep the
estimated event count equal in every bin. Each consumed value updates all
walls in a single left-to-right sweep over the wall list, in place, so
time per event is O(n) and space is O(n) regardless of how many values
have streamed through. The sweep reads each wall once, from one copy of
the list per event, and keeps the walls it needs next in locals. The
update is deterministic, as in the P-squared marker update (Jain &
Chlamtac, CACM 1985): the same values give the same walls.

A wall moves right at the density of the bin above it and left at the
density of the bin below it. Where those densities differ, as they do
wherever the density curves through a tail, the wall settles away from
its nominal level ``i / n``. The bias shrinks with the bin width, not
with more data, so :meth:`PercentileSketch.percentile` reads each wall at
the level where its expected step is zero (:func:`wall_rank`) rather
than at ``i / n``.
"""

from __future__ import annotations

import bisect
import math

JITTER = 1e-9


class SketchWarmupError(Exception):
    """Percentile queried before the sketch collected n + 1 values."""


def _sweep_right(p: list[float], x: float, count: int) -> None:
    """One left-to-right wall update of ``p``, in place.

    ``count`` is the number of values consumed before ``x``. The target
    count per bin after absorbing ``x`` is ``(count + 1) / n``; walls with
    a deficit expand right by borrowing at the next bin's density, walls
    past the new value's bin shed the excess into the next bin at the
    current bin's density. Zero-width bins are treated as infinitely
    dense, so a wall resting on its neighbor does not move and division
    by zero never occurs. Floating-point rounding is clamped so a wall
    never crosses its neighbors.

    The loop carries wall ``i`` (``left``), the not yet updated wall
    ``i + 1`` (``right``, read from a copy of ``p[2:]``) and the already
    updated wall ``i - 1`` (``previous``) in locals, and writes back only
    wall ``i``. A bin holding ``x`` counts ``c_with_x``, computed once.
    """
    n = len(p) - 1
    c_per_bin = count / n
    c_target = (count + 1.0) / n
    c_with_x = c_per_bin + 1.0

    c_this = c_per_bin
    previous = p[0]
    if x < previous:
        p[0] = previous = x
    left = p[1]
    if x < left:
        c_this = c_with_x

    for i, right in enumerate(p[2:], 1):
        delta = c_target - c_this
        if delta > 0.0:
            count_next = c_with_x if x < right else c_per_bin
            width = right - left
            if width <= 0.0:
                c_this = count_next
                previous = left
            else:
                moved = left + delta / (count_next / width)
                # What is left of the next bin is count_next - delta; reading
                # it off the density times (right - moved) cancels when moved
                # nears right.
                if moved > right:
                    moved = right
                    c_this = 0.0
                else:
                    c_this = count_next - delta
                p[i] = previous = moved
        else:
            width = left - previous
            if width <= 0.0:
                previous = left
            else:
                moved = left + delta / (c_this / width)
                if moved < previous:
                    moved = previous
                p[i] = previous = moved
            c_this = c_per_bin - delta
        left = right

    if x > p[n]:
        p[n] = x


def update_percentiles(positions: list[float], x: float, count: int) -> list[float]:
    """One wall update (:func:`_sweep_right`) on a copy; returns the new
    positions and leaves the input untouched."""
    p = list(positions)
    _sweep_right(p, x, count)
    return p


def wall_rank(positions: list[float], i: int, beta: float) -> float:
    """Rank, in bins from the minimum, at which wall ``i`` settles.

    A value above wall ``i`` moves it right in proportion to ``i * w_i``,
    where ``w_i`` is the width of the bin above it; a value below moves
    it left in proportion to ``(n - i) * w_{i-1}``. The expected step is
    zero where a fraction ``f = i w_i / (i w_i + (n - i) w_{i-1})`` of
    the stream lies below the wall, which is its nominal level ``i / n``
    only when the two widths agree. The returned rank is
    ``i + beta * (n f - i)``, within [0, n]. The end walls keep ranks 0
    and n, and so does a wall between two empty bins.

    ``beta = 1 - (n + 1) / count`` is 0 while the walls are still the
    sorted first ``n + 1`` values, whose gaps are sampling noise rather
    than density, and tends to 1 as the walls settle.
    """
    n = len(positions) - 1
    if i == 0 or i == n:
        return float(i)
    above = positions[i + 1] - positions[i]
    below = positions[i] - positions[i - 1]
    mass = i * above + (n - i) * below
    if mass <= 0.0:
        return float(i)
    return i + beta * i * (n - i) * (above - below) / mass


class PercentileSketch:
    """Streaming percentile estimator over a scalar value stream.

    The first ``n + 1`` values initialize the positions in sorted order;
    duplicates get a deterministic additive jitter so positions start
    strictly sorted. Each later value sweeps the walls left to right
    (:func:`update_percentiles`, in place).

    ``policy`` accepts only ``"random"`` and ``seed`` has no effect; both
    are kept for callers that pass them.
    """

    def __init__(self, n: int = 100, policy: str = "random", seed: int = 0):
        if n < 2:
            raise ValueError("sketch needs at least 2 bins")
        if policy != "random":
            raise ValueError(f"unknown direction policy {policy!r}")
        self.n = n
        self.positions: list[float] = []
        self.count = 0

    @property
    def initialized(self) -> bool:
        return self.count >= self.n + 1

    def _insert_initial(self, x: float) -> None:
        value = x
        while True:
            at = bisect.bisect_left(self.positions, value)
            if at < len(self.positions) and self.positions[at] == value:
                value += JITTER * (1.0 + abs(value))
                continue
            self.positions.insert(at, value)
            return

    def consume(self, x: float) -> None:
        """Feed one value; the walls update in place in one pass."""
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"rejected value {x!r}: must be finite")
        if not self.initialized:
            self._insert_initial(x)
            self.count += 1
            return

        _sweep_right(self.positions, x, self.count)
        self.count += 1

    def percentile(self, q: float) -> float:
        """Linear interpolation at rank q/100 * n over the walls' ranks.

        Wall ``i`` is read at the rank :func:`wall_rank` gives it, not at
        its nominal rank ``i``. The search starts at wall ``floor(rank)``
        and walks to the nearest pair of adjacent walls whose ranks
        bracket the queried rank, usually without moving. The bracket
        found never moves left as q grows, so the estimate is monotone in
        q even while the ranks are not yet monotone in i. At
        ``count = n + 1``, and wherever neighboring bins have equal
        widths, every rank is nominal and this is plain interpolation
        over the walls.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile {q} outside [0, 100]")
        if not self.initialized:
            raise SketchWarmupError(
                f"sketch warmed with {self.count} of {self.n + 1} values"
            )
        n = self.n
        p = self.positions
        rank = q / 100.0 * n
        k = int(rank)
        if k >= n:
            return p[n]
        beta = 1.0 - (n + 1.0) / self.count
        # Find k with wall_rank(k) <= rank < wall_rank(k + 1). Wall 0 has
        # rank 0 and wall n rank n, so both walks stop inside the sketch.
        low = wall_rank(p, k, beta)
        if low <= rank:
            high = wall_rank(p, k + 1, beta)
            while high <= rank:
                k += 1
                low = high
                high = wall_rank(p, k + 1, beta)
        while low > rank:
            high = low
            k -= 1
            low = wall_rank(p, k, beta)
        frac = (rank - low) / (high - low)
        return p[k] + frac * (p[k + 1] - p[k])
