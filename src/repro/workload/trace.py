"""Query-trace persistence.

Workloads can be saved to and replayed from JSON-lines traces, so a
benchmark run can be repeated on exactly the same queries (or shared
between machines) without re-seeding the generators.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Union

from ..core.query import Query
from ..errors import InvalidQueryError, PersistenceError

PathLike = Union[str, Path]


def save_queries(queries: Iterable[Query], path: PathLike) -> int:
    """Write queries as JSON lines; returns the number written."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for query in queries:
            handle.write(json.dumps(query.to_dict(), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def load_queries(path: PathLike) -> List[Query]:
    """Read a query trace written by :func:`save_queries`."""
    path = Path(path)
    queries: List[Query] = []
    try:
        with path.open("r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    queries.append(Query(
                        seeker=int(record["seeker"]),
                        tags=tuple(str(tag) for tag in record["tags"]),
                        k=int(record.get("k", 10)),
                        effort=record.get("effort"),
                    ))
                except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                        InvalidQueryError) as exc:
                    raise PersistenceError(
                        f"{path}:{lineno}: malformed query record: {exc}"
                    ) from exc
    except OSError as exc:
        raise PersistenceError(f"failed to read query trace {path}: {exc}") from exc
    return queries
