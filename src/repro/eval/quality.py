"""Quality metering for approximate serving (landmark-sketch answers).

The landmark tier trades accuracy for latency; this module measures what
the trade actually buys.  Everything compares an approximate
:class:`~repro.core.query.QueryResult` against the exact answer for the
same query, delegating the metric math to :mod:`repro.eval.metrics`:

* :func:`recall_at_k` — fraction of the exact top-k the approximate answer
  returned (the headline serving-quality number, gated in CI);
* :func:`rank_correlation` — Kendall tau between the exact and approximate
  rankings over their common items;
* :func:`quality_summary` — the aggregate block a bench suite emits for a
  whole workload (mean/min recall, mean correlation).

:func:`result_signature` is the strict bit-identity form used by the
equivalence gates — rankings, scores *and* access accounting — shared by
every bench suite.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core.query import QueryResult
from .metrics import kendall_tau as _kendall_tau
from .metrics import recall_at_k as _recall_at_k

__all__ = [
    "recall_at_k",
    "rank_correlation",
    "result_signature",
    "quality_summary",
]


def _ranking(result: QueryResult) -> List[int]:
    return [item.item_id for item in result.items]


def result_signature(result: QueryResult) -> Dict[str, object]:
    """Comparable identity of a query answer: ranking, scores, accounting."""
    return {
        "items": [(item.item_id, item.score) for item in result.items],
        "accounting": result.accounting.to_dict(),
    }


def recall_at_k(exact: QueryResult, approx: QueryResult,
                k: Optional[int] = None) -> float:
    """Fraction of the exact top-k items present in the approximate top-k.

    ``k`` defaults to the exact answer's length.  An empty exact answer
    has nothing to miss, so recall is 1.0 by convention.
    """
    if k is None:
        k = len(exact.items)
    relevant = _ranking(exact)[:k]
    if not relevant:
        return 1.0
    return _recall_at_k(_ranking(approx), relevant, k)


def rank_correlation(exact: QueryResult, approx: QueryResult) -> float:
    """Kendall tau between the exact and approximate rankings, in [-1, 1].

    Measures ordering agreement over the items both answers returned;
    items the approximate answer dropped are :func:`recall_at_k`'s job.
    """
    return _kendall_tau(_ranking(exact), _ranking(approx))


def quality_summary(exact_results: Sequence[QueryResult],
                    approx_results: Sequence[QueryResult],
                    k: Optional[int] = None) -> Dict[str, float]:
    """Aggregate quality of a workload served approximately vs exactly."""
    if len(exact_results) != len(approx_results):
        raise ValueError(
            f"workload mismatch: {len(exact_results)} exact vs "
            f"{len(approx_results)} approximate results")
    recalls: List[float] = []
    correlations: List[float] = []
    for expected, observed in zip(exact_results, approx_results):
        recalls.append(recall_at_k(expected, observed, k=k))
        correlations.append(rank_correlation(expected, observed))
    count = len(recalls) or 1
    return {
        "queries": float(len(recalls)),
        "recall_mean": sum(recalls) / count,
        "recall_min": min(recalls) if recalls else 1.0,
        "rank_correlation_mean": sum(correlations) / count,
    }
