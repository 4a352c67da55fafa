"""Online query serving: concurrency, result caching, update-driven invalidation.

This package turns the single-threaded :class:`~repro.core.engine.SocialSearchEngine`
into a servable system:

* :class:`QueryService` — inline execution on the calling thread,
  in-flight request coalescing, and a seeker/tag-indexed result cache that
  is invalidated selectively when a watched
  :class:`~repro.storage.updates.DatasetUpdater` changes the dataset;
* :class:`ResultCache` / :class:`CacheKey` — the LRU + TTL cache itself;
* :class:`ServiceMetrics` — qps, latency percentiles, cache hit rates;
* :class:`ServiceHTTPServer` / :func:`serve_forever` — the stdlib JSON HTTP
  front end behind ``repro serve``.
"""

from .cache import CacheKey, ResultCache, ResultCacheStatistics
from .http_api import ServiceHTTPServer, serve_forever
from .metrics import ServiceMetrics, percentile
from .service import HOP_BOUNDED_MEASURES, QueryService, ServedResult

__all__ = [
    "CacheKey",
    "ResultCache",
    "ResultCacheStatistics",
    "ServiceMetrics",
    "percentile",
    "QueryService",
    "ServedResult",
    "HOP_BOUNDED_MEASURES",
    "ServiceHTTPServer",
    "serve_forever",
]
