"""Fixed-bin score histograms and the Jensen-Shannon divergence signal.

The drift signal is the JSD, in shannon units (base-2 entropy), between
the score histograms of the reference and target windows. Histograms keep
integer counts in a plain list, and the JSD is the correctly rounded sum
(``math.fsum``) of one term per bin computed from that bin's two counts
and the two totals. The result therefore depends only on the two count
vectors, not on the order or history that produced them:
:class:`IncrementalSignal`, which recomputes only the terms of the bins a
push touched, returns the batch :func:`jsd` bit for bit at every step.
It bins each pushed score once and keeps the bin index of every windowed
score, so moving an event from T to R, or dropping it from R, bins
nothing. A score outside [0, 1] is refused before it is counted.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from .windows import PushResult


class EmptyWindowError(Exception):
    """Histogram requested over zero events."""


class IncompatibleHistogramsError(Exception):
    """JSD requested between histograms with different binning."""


DEFAULT_BIN_COUNT = 100


def bin_of(score: float, bin_count: int) -> int:
    """Equal-width bin index on [0, 1]; a score of 1.0 lands in the last bin.

    Raises ``ValueError`` for a score outside [0, 1], NaN included.
    """
    if not 0.0 <= score <= 1.0:
        raise ValueError(f"score {score!r} outside [0, 1]")
    return min(int(score * bin_count), bin_count - 1)


@dataclass
class ScoreHistogram:
    """Equal-width histogram of scores on [0, 1].

    ``counts`` is a list of Python ints (any given sequence is converted),
    so add/remove sequences and batch builds agree exactly. A bin count
    below 1, a counts length other than ``bin_count``, a negative count
    or a ``total`` other than the counts' sum raises ``ValueError``.
    """

    bin_count: int = DEFAULT_BIN_COUNT
    counts: list[int] = field(default=None)
    total: int = 0

    def __post_init__(self):
        if self.bin_count < 1:
            raise ValueError(f"bin_count must be at least 1, got {self.bin_count}")
        if self.counts is None:
            self.counts = [0] * self.bin_count
        else:
            self.counts = [int(c) for c in self.counts]
        if len(self.counts) != self.bin_count:
            raise ValueError(f"{len(self.counts)} counts for {self.bin_count} bins")
        if min(self.counts) < 0:
            raise ValueError(f"negative count in {self.counts}")
        if self.total != sum(self.counts):
            raise ValueError(f"total {self.total} is not the counts' sum {sum(self.counts)}")

    @classmethod
    def from_scores(cls, scores: Iterable[float], bin_count: int = DEFAULT_BIN_COUNT) -> "ScoreHistogram":
        hist = cls(bin_count)
        for score in scores:
            hist.add(score)
        if hist.total == 0:
            raise EmptyWindowError("histogram over empty score list")
        return hist

    def add(self, score: float) -> int:
        """Count one score; returns its bin index."""
        index = bin_of(score, self.bin_count)
        self.counts[index] += 1
        self.total += 1
        return index

    def remove(self, score: float) -> int:
        """Uncount one score; returns its bin index."""
        index = bin_of(score, self.bin_count)
        if self.counts[index] == 0:
            raise ValueError(f"removing score {score} from empty bin {index}")
        self.counts[index] -= 1
        self.total -= 1
        return index

    def copy(self) -> "ScoreHistogram":
        return ScoreHistogram(self.bin_count, self.counts, self.total)


def _bin_term(r: int, t: int, n_r: int, n_t: int) -> float:
    """One bin's share of the JSD between masses ``r / n_r`` and ``t / n_t``.

    With ``m`` the average of the two masses the term is
    ``(p log p + q log q) / 2 - m log m``, with ``0 log 0 = 0``, and the
    JSD is the sum of the terms over the bins. Both sums inside the term
    commute, so swapping the histograms gives the same float, and equal
    masses give exactly 0.
    """
    p = r / n_r
    q = t / n_t
    m = 0.5 * (p + q)
    if m == 0.0:
        return 0.0
    return (0.5 * ((p * math.log2(p) if p > 0.0 else 0.0)
                   + (q * math.log2(q) if q > 0.0 else 0.0))
            - m * math.log2(m))


def _clamped_sum(terms) -> float:
    value = math.fsum(terms)
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


def jsd(p: ScoreHistogram, q: ScoreHistogram) -> float:
    """Jensen-Shannon divergence between two histograms, in shannons.

    Returns H(m) - (H(p) + H(q)) / 2 with m the pointwise average
    histogram, as the ``math.fsum`` of the per-bin terms of
    :func:`_bin_term`. ``fsum`` is correctly rounded, so the value is
    exactly symmetric and depends only on the counts, not on the order in
    which the terms are summed. Bounded in [0, 1]; 0 for identical
    histograms, 1 for disjoint supports.
    """
    if p.bin_count != q.bin_count:
        raise IncompatibleHistogramsError(
            f"bin counts differ: {p.bin_count} vs {q.bin_count}"
        )
    n_p, n_q = p.total, q.total
    if n_p == 0 or n_q == 0:
        raise EmptyWindowError("mass of empty histogram")
    return _clamped_sum(
        _bin_term(r, t, n_p, n_q) for r, t in zip(p.counts, q.counts)
    )


class IncrementalSignal:
    """Maintains the two window histograms and their JSD per pushed event.

    Feed every push's displacement result; the counts then equal a batch
    rebuild of the current windows at every step. The bin index of every
    windowed score is kept in two FIFOs mirroring T and R, so an update
    bins only the pushed score and moves or drops cached indices. Each
    bin's JSD term is kept, and :meth:`value` recomputes only the terms of
    the bins changed since its last call (all of them when a window total
    changed, as it does during warm-up), so it equals :func:`jsd` of the
    two histograms exactly.
    """

    def __init__(self, bin_count: int = DEFAULT_BIN_COUNT):
        self.bin_count = bin_count
        self.hist_r = ScoreHistogram(bin_count)
        self.hist_t = ScoreHistogram(bin_count)
        self.t_bins: deque[int] = deque()
        self.r_bins: deque[int] = deque()
        self._terms = [0.0] * bin_count
        self._changed: set[int] = set()
        self._totals: tuple[int, int] | None = None

    def update(self, pushed_score: float, result: PushResult) -> None:
        """Count the pushed score in T, then apply the push's displacements.

        Raises ``ValueError``, before any change, for a score outside
        [0, 1], and for a result that moves an event out of T or drops
        one from R while this signal holds none there: it was not fed
        every push of its window pair.
        """
        moved, dropped = result
        t_bins = self.t_bins
        r_bins = self.r_bins
        if moved is not None and not t_bins:
            raise ValueError("push moved an event out of T, where this signal holds none")
        if dropped is not None and not r_bins:
            raise ValueError("push dropped an event from R, where this signal holds none")
        index = bin_of(pushed_score, self.bin_count)
        changed = self._changed
        hist_t = self.hist_t
        t_counts = hist_t.counts
        t_counts[index] += 1
        t_bins.append(index)
        changed.add(index)
        if moved is None:
            hist_t.total += 1
        else:
            index = t_bins.popleft()
            t_counts[index] -= 1
            self.hist_r.counts[index] += 1
            self.hist_r.total += 1
            r_bins.append(index)
            changed.add(index)
        if dropped is not None:
            index = r_bins.popleft()
            self.hist_r.counts[index] -= 1
            self.hist_r.total -= 1
            changed.add(index)

    def value(self) -> float:
        n_r = self.hist_r.total
        n_t = self.hist_t.total
        if n_r == 0 or n_t == 0:
            raise EmptyWindowError("mass of empty histogram")
        if self._totals != (n_r, n_t):
            self._totals = (n_r, n_t)
            bins = range(self.bin_count)
        else:
            bins = self._changed
        r_counts = self.hist_r.counts
        t_counts = self.hist_t.counts
        terms = self._terms
        for i in bins:
            terms[i] = _bin_term(r_counts[i], t_counts[i], n_r, n_t)
        self._changed.clear()
        return _clamped_sum(terms)
