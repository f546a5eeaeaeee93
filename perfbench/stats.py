"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    value: float
    #: The percentile actually reported, as a fraction (0.99 when the
    #: sample supports p99, lower when it does not).
    quantile: float
    samples: int


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sequence."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    return sorted_values[min(n - 1, max(0, math.ceil(q * n) - 1))]


def tail(values: Sequence[float], target: float = 0.99,
         min_beyond: int = MIN_BEYOND) -> Tail:
    """The ``target`` percentile if at least ``min_beyond`` samples lie
    beyond it, else the highest percentile that has that many beyond.

    With nearest rank, the value at 0-based index ``i`` has ``n - 1 - i``
    samples beyond it, so the highest admissible index is
    ``n - 1 - min_beyond``."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= min_beyond:
        raise ValueError(
            f"{n} samples cannot support a tail with {min_beyond} beyond")
    index = min(math.ceil(target * n) - 1, n - 1 - min_beyond)
    return Tail(ordered[index], (index + 1) / n, n)


def median(values: Sequence[float]) -> float:
    return nearest_rank(sorted(values), 0.5)
