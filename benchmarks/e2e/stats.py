"""The few statistics the benchmark reports, and the rules they obey.

* A tail percentile is printed only when at least :data:`BEYOND` samples lie
  beyond it (p90 needs n >= 100); otherwise the run is refused.
* No maximum-based metric anywhere.
* A one-shot set-up step is repeated and contributes its minimum, because
  on this host such steps are disturbed upward only.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

BEYOND = 10
TAIL = 0.90


class TooFewSamples(RuntimeError):
    """A percentile was asked of fewer samples than its rule allows."""


def median(values: Sequence[float]) -> float:
    if not values:
        raise TooFewSamples("median of no samples")
    return float(statistics.median(values))


def tail(values: Sequence[float], q: float = TAIL) -> float:
    """Nearest-rank ``q`` percentile, refused unless BEYOND samples exceed it."""
    rank = math.ceil(q * len(values) - 1e-9)
    if len(values) - rank < BEYOND:
        raise TooFewSamples(
            f"p{round(q * 100)} of {len(values)} samples leaves "
            f"{len(values) - rank} beyond it, the rule asks for {BEYOND}; "
            "measure for longer")
    return float(sorted(values)[rank - 1])


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and (q3 - q1) / median of repeated runs."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}
