"""Stdlib-only JSON HTTP front end for :class:`~repro.service.QueryService`.

``repro serve`` binds a :class:`ServiceHTTPServer` — a threading
``http.server`` — so the engine can take real concurrent traffic without
any third-party web framework.  Each connection's thread parses the
request, runs the query through :meth:`QueryService.serve` and writes the
reply itself; nothing is handed to another thread.  Endpoints:

``GET /health``
    Liveness probe: dataset name and sizes.
``GET /metrics``
    Prometheus text exposition of the engine-wide metrics registry
    (service throughput/latency, cache behaviour, planner routes,
    write-path epochs — one namespace).
``GET /stats``
    The same numbers as a structured JSON snapshot (plus strings the
    text format cannot carry, like the compaction error).
``GET /trace/<id>``
    One completed query trace from the tracer's ring buffer — spans with
    timings, attributes and parent links.  The ``<id>`` is the
    ``X-Request-Id`` response header of the traced request.  404 when
    tracing is disabled or the trace has been evicted.
``GET /traces``
    Ids and durations of the most recently retained traces.
``GET /query?seeker=4&tags=jazz,vinyl&k=10[&algorithm=social-first]``
``POST /query`` with ``{"seeker": 4, "tags": ["jazz"], "k": 10}``
    Answer one query; the response carries the ranked items, the serving
    outcome (``hit`` / ``coalesced`` / ``computed``) and both engine- and
    service-side latency.  Besides the query's own fields
    (:meth:`~repro.core.query.Query.from_dict`) a request may name an
    ``algorithm``; any other field is a ``400`` naming it.
``GET /explain?seeker=4&tags=jazz,vinyl&k=10[&algorithm=exact]``
``POST /explain`` with the same body as ``/query``
    Return the planner's :class:`~repro.core.plan.ExecutionPlan` for the
    query — algorithm, executor, storage backing and pending delta,
    proximity route, the reason for the route and the frontier bound —
    without executing it.
``POST /update`` with ``{"actions": [...], "friendships": [[u, v, w]], "new_users": 0}``
    Apply a dataset update through the watched :class:`DatasetUpdater`;
    stale cache entries are invalidated before the response is sent.

Errors return ``4xx`` with ``{"error": "..."}``; a request body longer than
:data:`MAX_BODY_BYTES` is refused with ``413`` without being read.  Every
response carries an ``X-Request-Id`` header — the client's own, when
supplied, else a fresh id — which doubles as the query's trace id when
tracing is on.
"""

from __future__ import annotations

import json
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..core.query import Query, int_field, tag_field
from ..errors import ReproError
from ..obs import trace as obs_trace
from ..storage.tagging import TaggingAction
from ..storage.updates import DatasetUpdater
from .service import QueryService

#: Largest request body the server reads.  ``Content-Length`` is the
#: client's claim, and the handler allocates what it announces.
MAX_BODY_BYTES = 1 << 20


class _BodyTooLarge(ValueError):
    """``Content-Length`` announced more than :data:`MAX_BODY_BYTES`."""


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`QueryService`.

    Parameters
    ----------
    address:
        ``(host, port)`` bind address; port 0 picks an ephemeral port
        (exposed afterwards as ``server.server_port``).
    service:
        The query service answering ``/query`` requests.
    updater:
        Updater handling ``/update`` requests.  When omitted, one is created
        over the engine's dataset and watched by the service.
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: QueryService,
                 updater: Optional[DatasetUpdater] = None) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.service = service
        if updater is None:
            updater = DatasetUpdater(service.engine.dataset)
            service.watch(updater)
        self.updater = updater


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Dispatches JSON requests onto the bound :class:`QueryService`."""

    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"

    # Silence the default per-request stderr logging; the service keeps
    # structured metrics instead.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    def _request_id(self) -> str:
        """The request's id: the client's ``X-Request-Id``, else a fresh one.

        ``do_GET``/``do_POST`` stamp ``_rid`` at dispatch time — the
        handler instance is reused across keep-alive requests, so the id
        must be re-derived per request, not memoised per handler.
        """
        return getattr(self, "_rid", None) or uuid.uuid4().hex[:16]

    def _send_body(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", self._request_id())
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _reply(self, status: int, payload: Dict[str, Any]) -> None:
        self._send_body(status, json.dumps(payload).encode("utf-8"),
                        "application/json")

    def _reply_text(self, status: int, text: str,
                    content_type: str = "text/plain; version=0.0.4; "
                                        "charset=utf-8") -> None:
        self._send_body(status, text.encode("utf-8"), content_type)

    def _read_json(self) -> Dict[str, Any]:
        announced = self.headers.get("Content-Length", "0")
        try:
            length = int(announced)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot be reused.
            self.close_connection = True
            if length > MAX_BODY_BYTES:
                raise _BodyTooLarge(
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit")
            raise ValueError(f"invalid Content-Length {announced!r}")
        if length == 0:
            return {}
        data = json.loads(self.rfile.read(length).decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        parsed = urlparse(self.path)
        self._rid = self.headers.get("X-Request-Id") or uuid.uuid4().hex[:16]
        try:
            if parsed.path == "/health":
                self._handle_health()
            elif parsed.path == "/metrics":
                self._reply_text(200, self.server.service.metrics_text())
            elif parsed.path == "/stats":
                self._reply(200, self.server.service.stats())
            elif parsed.path == "/traces":
                self._handle_traces()
            elif parsed.path.startswith("/trace/"):
                self._handle_trace(parsed.path[len("/trace/"):])
            elif parsed.path in ("/query", "/explain"):
                payload: Dict[str, Any] = {
                    key: values[0]
                    for key, values in parse_qs(parsed.query).items()}
                payload["tags"] = payload.get("tags", "").split(",")
                if parsed.path == "/explain":
                    self._handle_explain(payload)
                else:
                    self._handle_query(payload)
            else:
                self._reply(404, {"error": f"unknown path {parsed.path!r}"})
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            self._reply(400, {"error": str(exc)})

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        parsed = urlparse(self.path)
        self._rid = self.headers.get("X-Request-Id") or uuid.uuid4().hex[:16]
        try:
            if parsed.path == "/query":
                self._handle_query(self._read_json())
            elif parsed.path == "/explain":
                self._handle_explain(self._read_json())
            elif parsed.path == "/update":
                self._handle_update(self._read_json())
            else:
                self._reply(404, {"error": f"unknown path {parsed.path!r}"})
        except _BodyTooLarge as exc:
            self._reply(413, {"error": str(exc)})
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            self._reply(400, {"error": str(exc)})

    # ------------------------------------------------------------------ #
    # Handlers
    # ------------------------------------------------------------------ #

    def _handle_health(self) -> None:
        dataset = self.server.service.engine.dataset
        self._reply(200, {
            "status": "ok",
            "dataset": dataset.name,
            "num_users": dataset.num_users,
            "num_items": dataset.num_items,
            "num_actions": dataset.num_actions,
        })

    @staticmethod
    def _parse_query(payload: Dict[str, Any]) -> Query:
        """The query of a /query or /explain payload (minus ``algorithm``)."""
        return Query.from_dict({key: value for key, value in payload.items()
                                if key != "algorithm"})

    def _handle_query(self, payload: Dict[str, Any]) -> None:
        query = self._parse_query(payload)
        served = self.server.service.serve(query,
                                           algorithm=payload.get("algorithm"),
                                           request_id=self._request_id())
        response = served.result.to_dict()
        response["outcome"] = served.outcome
        response["service_latency_seconds"] = served.latency_seconds
        response["request_id"] = self._request_id()
        self._reply(200, response)

    def _handle_trace(self, trace_id: str) -> None:
        tracer = obs_trace.get_tracer()
        if tracer is None:
            self._reply(404, {"error": "tracing is disabled"})
            return
        trace = tracer.get(trace_id)
        if trace is None:
            self._reply(404, {
                "error": f"no retained trace with id {trace_id!r} "
                         "(unsampled, not yet completed, or evicted)"})
            return
        self._reply(200, trace.to_dict())

    def _handle_traces(self) -> None:
        tracer = obs_trace.get_tracer()
        if tracer is None:
            self._reply(404, {"error": "tracing is disabled"})
            return
        self._reply(200, {"traces": [
            {"trace_id": trace.trace_id, "name": trace.name,
             "duration_ms": trace.duration_seconds * 1000.0}
            for trace in tracer.recent()
        ]})

    def _handle_explain(self, payload: Dict[str, Any]) -> None:
        plan = self.server.service.engine.explain_plan(
            self._parse_query(payload), algorithm=payload.get("algorithm"))
        self._reply(200, plan.to_dict())

    def _handle_update(self, payload: Dict[str, Any]) -> None:
        actions = [
            TaggingAction(
                user_id=int_field(entry["user_id"], "user_id"),
                item_id=int_field(entry["item_id"], "item_id"),
                tag=tag_field(entry["tag"], "tag"),
                timestamp=int_field(entry.get("timestamp", 0), "timestamp"))
            for entry in payload.get("actions") or []]
        friendships = [(int_field(u, "friendships"),
                        int_field(v, "friendships"), float(w))
                       for u, v, w in payload.get("friendships") or []]
        new_users = payload.get("new_users")
        summary = self.server.updater.apply(
            actions=actions or None,
            friendships=friendships or None,
            new_users=0 if new_users is None
            else int_field(new_users, "new_users"),
        )
        self._reply(200, {"applied": summary.changed, **summary.to_dict()})


def serve_forever(service: QueryService, host: str = "127.0.0.1",
                  port: int = 8080,
                  updater: Optional[DatasetUpdater] = None) -> None:
    """Blocking convenience used by ``repro serve``; Ctrl-C shuts down cleanly.

    ``updater`` routes ``/update`` requests through an existing updater —
    in durable mode the :class:`~repro.storage.durable.DurableStore`'s own
    WAL-attached updater, so every acknowledged HTTP update is logged
    before the response is sent.
    """
    server = ServiceHTTPServer((host, port), service, updater=updater)
    print(f"repro service listening on http://{host}:{server.server_port} "
          f"(cache={service.config.cache_capacity})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.server_close()
        service.close()
        if service.durable is not None:
            service.durable.close()
