"""The strict identity of a query answer, shared by every equivalence gate.

:func:`result_signature` is the bit-identity form the bench suites and
property tests compare across execution paths — rankings, scores *and*
access accounting.
"""

from __future__ import annotations

from typing import Dict

from ..core.query import QueryResult

__all__ = ["result_signature"]


def result_signature(result: QueryResult) -> Dict[str, object]:
    """Comparable identity of a query answer: ranking, scores, accounting."""
    return {
        "items": [(item.item_id, item.score) for item in result.items],
        "accounting": result.accounting.to_dict(),
    }
