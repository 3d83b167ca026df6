"""The stdlib HTTP surface of the multi-venue sharded IKRQ server.

Endpoints:

* ``POST /search`` — body ``{"venue": "mall-a", "query": {...wire
  query...}, "algorithm": "ToE", "deadline_s": 2.0}`` (all but
  ``query`` optional; ``venue`` defaults to ``"default"``).  Answers
  the dispatcher's response document — which carries the ``venue`` and
  snapshot ``generation`` that served it; HTTP status maps the serving
  status (200 ok, 404 unknown venue, 503 overloaded, 504
  expired/timeout, 400 bad request, 500 error).
* ``POST /ingest`` — body ``{"venue": "mall-a", "snapshot":
  "/path/on/server.snap", "wait": true}``: load the snapshot as the
  venue's next generation and hot-swap it in (see
  :meth:`~repro.serve.pool.ShardDispatcher.ingest`).  ``wait: false``
  returns ``accepted`` immediately and swaps in a background thread.
* ``POST /delta`` — body ``{"venue": "mall-a", "ops": [...]}``: apply
  dynamic edits (door closures, partition seals, door schedules,
  keyword rewrites — see :mod:`repro.dynamic.state` for the op
  vocabulary) over the venue's immutable snapshot, without an ingest.
  The new view is published atomically: every concurrent ``/search``
  is answered under exactly one ``dynamic_version``, never a blend.
  ``/search`` bodies may additionally carry per-query ``"closures"``
  (a ``{"closed_doors": [...], "sealed_partitions": [...]}`` overlay
  merged on top of the venue's persistent one) and ``"at"`` (a
  timestamp, seconds; door schedules compile against it).
* ``GET /venues`` — tenancy control plane: every hosted venue, its
  generations and their lifecycle states, plus per-venue admission
  counters and quotas.
* ``GET /healthz`` — deep liveness: pool size, live-shard count, one
  per-shard supervision record (state, boot/restart counters, pid,
  last failure reason), hosted venue count, and the pool-wide
  restart/failover/late-response totals.  200 only when every shard
  is serving; ``degraded`` (some live) and ``down`` (none) are 503.
* ``GET /metrics`` — Prometheus text: dispatcher counters/histograms
  (labelled by venue) plus one fresh atomic stats snapshot per shard,
  published as ``ikrq_shard_*`` gauges labelled by shard — and by
  venue for the per-tenant breakdown.
* ``GET /debug/traces`` — newest-first summaries of the retained
  request traces (``?limit=N`` and ``?venue=id`` filter); ``GET
  /debug/traces/<trace_id>`` answers one full span tree.  Retention
  follows the dispatcher's :class:`~repro.obs.TracePolicy`: sheds,
  errors and slow requests always, a probabilistic sample otherwise
  (``repro serve --trace-sample / --slow-ms``), and any request whose
  ``POST /search`` body carries ``"trace": true``.

The handler threads only parse JSON and block on the dispatcher — all
CPU-bound search work happens in the shard processes, so a
``ThreadingHTTPServer`` is exactly enough.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.obs.trace import TraceBuffer, TracePolicy
from repro.serve.metrics import MetricsRegistry
from repro.serve.pool import ShardDispatcher, ShardPool, TenantQuota
from repro.serve.snapshot import is_binary_snapshot, is_snapshot_document

_STATUS_HTTP = {
    "ok": 200,
    "accepted": 202,
    "bad_request": 400,
    "unknown_venue": 404,
    "overloaded": 503,
    "shard_down": 503,
    "stale_delta": 503,
    "expired": 504,
    "timeout": 504,
    "error": 500,
}


def _reject_constant(name: str):
    """``json`` accepts ``NaN`` / ``Infinity`` tokens; strict JSON does not."""
    raise ValueError(f"non-standard JSON constant {name!r}")


class _Handler(BaseHTTPRequestHandler):
    server: "_HTTPServer"

    # ------------------------------------------------------------------
    def _send_json(self, code: int, doc: Dict) -> None:
        try:
            body = json.dumps(doc, allow_nan=False).encode("utf-8")
        except ValueError as exc:  # a NaN/∞ must never go out as JSON
            code = 500
            body = json.dumps({"status": "error",
                               "error": repr(exc)}).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, code: int, text: str,
                   content_type: str = "text/plain; charset=utf-8") -> None:
        body = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Optional[Dict]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
            doc = json.loads(self.rfile.read(length) or b"{}",
                             parse_constant=_reject_constant)
        except (ValueError, json.JSONDecodeError) as exc:
            self._send_json(400, {"status": "bad_request",
                                  "error": repr(exc)})
            return None
        if not isinstance(doc, dict):
            self._send_json(400, {"status": "bad_request",
                                  "error": "request body must be a JSON "
                                           "object"})
            return None
        return doc

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            ikrq = self.server.ikrq
            pool = ikrq.pool
            workers = pool.shard_states()
            live = sum(1 for w in workers if w["state"] == "up")
            if live == pool.shards and not pool.closed:
                status, code = "ok", 200
            elif live > 0:
                status, code = "degraded", 503
            else:
                status, code = "down", 503
            self._send_json(code, {
                "status": status,
                "shards": pool.shards,
                "live_shards": live,
                "venues": len(ikrq.dispatcher.registry.venues()),
                "workers": workers,
                "restarts_total": pool.restarts_total,
                "failovers_total": ikrq.dispatcher.failovers,
                "late_responses_total": pool.late_responses,
            })
            return
        if self.path == "/venues":
            ikrq = self.server.ikrq
            dispatcher = ikrq.dispatcher
            counters = dispatcher.admission.venue_counters()
            memory = ikrq.venue_memory()
            venues = []
            for doc in dispatcher.registry.describe():
                doc = dict(doc)
                admission = counters.get(doc["venue"])
                if admission is None:
                    # No traffic yet: synthesise the venue's zeroed
                    # counters so the quota is still visible.
                    quota = dispatcher.admission.quota_for(doc["venue"])
                    admission = {"in_flight": 0, "admitted": 0, "shed": 0,
                                 "max_in_flight": (quota.max_in_flight
                                                   if quota is not None
                                                   else None)}
                doc["admission"] = admission
                dynamic = dispatcher.dynamic.view(doc["venue"])
                if dynamic.version:
                    doc["dynamic"] = dynamic.describe()
                doc["generations"] = [
                    {**gen,
                     **({"memory": memory[(doc["venue"],
                                           gen["generation"])]}
                        if (doc["venue"], gen["generation"]) in memory
                        else {})}
                    for gen in doc["generations"]]
                venues.append(doc)
            self._send_json(200, {"status": "ok", "venues": venues})
            return
        if self.path == "/metrics":
            self._send_text(200, self.server.ikrq.render_metrics(),
                            content_type="text/plain; version=0.0.4")
            return
        if self.path.startswith("/debug/traces"):
            self._get_traces()
            return
        self._send_json(404, {"status": "not_found", "path": self.path})

    def _get_traces(self) -> None:
        """``/debug/traces`` (summaries) and ``/debug/traces/<id>``."""
        parsed = urlparse(self.path)
        buffer = self.server.ikrq.dispatcher.trace_buffer
        rest = parsed.path[len("/debug/traces"):].strip("/")
        if rest:
            doc = buffer.get(rest)
            if doc is None:
                self._send_json(404, {"status": "not_found",
                                      "trace_id": rest})
                return
            self._send_json(200, {"status": "ok", "trace": doc})
            return
        params = parse_qs(parsed.query)
        try:
            limit = int(params.get("limit", ["50"])[0])
        except ValueError:
            self._send_json(400, {"status": "bad_request",
                                  "error": "limit must be an integer"})
            return
        venue = params.get("venue", [None])[0]
        self._send_json(200, {"status": "ok",
                              "traces": buffer.recent(limit=limit,
                                                      venue=venue)})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/search":
            doc = self._read_body()
            if doc is None:
                return
            response = self.server.ikrq.dispatcher.submit(
                doc.get("query"),
                algorithm=doc.get("algorithm", "ToE"),
                deadline_s=doc.get("deadline_s"),
                venue=doc.get("venue"),
                trace=bool(doc.get("trace")),
                closures=doc.get("closures"),
                at=doc.get("at"))
            response.pop("kind", None)
            code = _STATUS_HTTP.get(response.get("status"), 500)
            self._send_json(code, response)
            return
        if self.path == "/ingest":
            doc = self._read_body()
            if doc is None:
                return
            response = self.server.ikrq.ingest(
                doc.get("venue"), doc.get("snapshot"),
                wait=doc.get("wait", True))
            code = _STATUS_HTTP.get(response.get("status"), 500)
            self._send_json(code, response)
            return
        if self.path == "/delta":
            doc = self._read_body()
            if doc is None:
                return
            venue = doc.get("venue")
            if not venue or not isinstance(venue, str):
                self._send_json(400, {"status": "bad_request",
                                      "error": "delta needs a venue id"})
                return
            response = self.server.ikrq.dispatcher.delta(
                venue, doc.get("ops"))
            code = _STATUS_HTTP.get(response.get("status"), 500)
            self._send_json(code, response)
            return
        self._send_json(404, {"status": "not_found", "path": self.path})

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the metrics endpoint replaces access logging


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # socketserver's default listen backlog (5) drops connections under
    # open-loop burst arrivals — admission control must be the only
    # thing that sheds, so size the accept queue for traffic spikes.
    request_queue_size = 128
    ikrq: "IKRQServer"


class IKRQServer:
    """Pool + tenant dispatcher + HTTP front end, owned together.

    Single tenant (the venue is hosted as ``"default"``)::

        server = IKRQServer(snapshot_path, workers=2)

    Multi-tenant, with a per-venue admission quota::

        server = IKRQServer(
            venues={"mall-a": "a.snap", "airport-b": "b.snap"},
            workers=4, max_pending=64,
            default_quota=TenantQuota(max_in_flight=16))
        host, port = server.start()
        ...  # POST /search {"venue": "mall-a", ...}
        server.ingest("mall-a", "a.v2.snap")   # zero-downtime swap
        server.shutdown()
    """

    def __init__(self,
                 snapshot_path: Optional[str] = None,
                 workers: int = 2,
                 host: str = "127.0.0.1",
                 port: int = 0,
                 max_pending: int = 64,
                 deadline_s: Optional[float] = None,
                 service_options: Optional[Dict] = None,
                 venues: Optional[Mapping[str, str]] = None,
                 default_quota: Optional[TenantQuota] = None,
                 quotas: Optional[Mapping[str, TenantQuota]] = None,
                 mmap_snapshots: bool = False,
                 matrix_spill_dir: Optional[str] = None,
                 matrix_max_rows: Optional[int] = None,
                 gc_keep_last: Optional[int] = None,
                 trace_sample: float = 0.01,
                 slow_ms: float = 500.0,
                 trace_buffer_size: int = 256,
                 heartbeat_interval: float = 2.0,
                 heartbeat_timeout: float = 30.0,
                 restart_backoff_s: float = 0.5,
                 restart_budget: int = 5,
                 failover_retries: int = 1,
                 fault_plan=None) -> None:
        self.metrics = MetricsRegistry()
        options = dict(service_options or {})
        if mmap_snapshots:
            options["mmap"] = True
        if matrix_spill_dir is not None:
            options["matrix_spill_dir"] = str(matrix_spill_dir)
        if matrix_max_rows is not None:
            options["matrix_max_rows"] = matrix_max_rows
        self.pool = ShardPool(snapshot_path, shards=workers,
                              service_options=options,
                              venues=venues,
                              heartbeat_interval=heartbeat_interval,
                              heartbeat_timeout=heartbeat_timeout,
                              restart_backoff_s=restart_backoff_s,
                              restart_budget=restart_budget,
                              fault_plan=fault_plan)
        self.dispatcher = ShardDispatcher(
            self.pool, max_pending=max_pending, deadline_s=deadline_s,
            metrics=self.metrics, default_quota=default_quota,
            quotas=quotas, gc_keep_last=gc_keep_last,
            trace_policy=TracePolicy(sample_rate=trace_sample,
                                     slow_ms=slow_ms),
            trace_buffer=TraceBuffer(capacity=trace_buffer_size),
            failover_retries=failover_retries)
        self._httpd = _HTTPServer((host, port), _Handler)
        self._httpd.ikrq = self
        self._thread: Optional[threading.Thread] = None
        self._memory_lock = threading.Lock()
        self._memory_cache: Tuple[float, Dict] = (0.0, {})

    # ------------------------------------------------------------------
    # Ingest (the server-side half of ``repro ingest``)
    # ------------------------------------------------------------------
    def ingest(self,
               venue: Optional[str],
               snapshot_path: Optional[str],
               wait: bool = True) -> Dict:
        """Hot-swap ``venue`` onto ``snapshot_path``.

        The path must name a snapshot file readable by the *server*
        process (either encoding); it is validated before any shard is
        touched.  ``wait=False`` runs the swap in a background thread
        and answers ``accepted`` immediately — the generation number
        is only allocated once the background ingest starts, so watch
        ``GET /venues`` for the flip.
        """
        if not venue or not isinstance(venue, str):
            return {"status": "bad_request",
                    "error": "ingest needs a venue id"}
        if not snapshot_path or not isinstance(snapshot_path, str):
            return {"status": "bad_request",
                    "error": "ingest needs a snapshot path"}
        try:
            if not is_binary_snapshot(snapshot_path):
                with open(snapshot_path, "r", encoding="utf-8") as fh:
                    if not is_snapshot_document(json.load(fh)):
                        raise ValueError("not a snapshot document")
        except (OSError, ValueError) as exc:
            return {"status": "bad_request",
                    "error": f"unreadable snapshot {snapshot_path!r}: "
                             f"{exc!r}"}
        if wait:
            return self.dispatcher.ingest(venue, snapshot_path)
        thread = threading.Thread(
            target=self.dispatcher.ingest, args=(venue, snapshot_path),
            daemon=True, name=f"ikrq-ingest-{venue}")
        thread.start()
        return {"status": "accepted", "venue": venue}

    # ------------------------------------------------------------------
    #: How long a ``venue_memory`` scrape stays fresh.  The breakdown
    #: rides on a stats RPC broadcast that queues behind each
    #: single-threaded shard's in-flight searches, so ``/venues``
    #: polling must not multiply that load or stall behind one slow
    #: query more than once per window.
    MEMORY_CACHE_TTL = 5.0

    def venue_memory(self) -> Dict[Tuple[str, int], Dict[str, int]]:
        """Per-``(venue, generation)`` memory breakdown, summed over
        shards (cached for :data:`MEMORY_CACHE_TTL` seconds).

        ``heap_bytes`` is genuinely additive (every shard holds its
        own copy); ``mapped_bytes`` sums each shard's mapping of the
        *same* snapshot file, i.e. it is virtual address space over
        one shared page-cache copy — the physical cost is roughly the
        per-shard value, not the sum.  ``docs/memory.md`` spells out
        how to read the two.
        """
        with self._memory_lock:
            stamp, cached = self._memory_cache
            if time.monotonic() - stamp < self.MEMORY_CACHE_TTL:
                return cached
        out: Dict[Tuple[str, int], Dict[str, int]] = {}
        for doc in self.pool.stats():
            if doc.get("status") != "ok":
                continue
            for entry in doc.get("venue_stats", []):
                key = (entry.get("venue"), entry.get("generation"))
                agg = out.setdefault(key, {})
                for name, value in (entry.get("memory") or {}).items():
                    agg[name] = agg.get(name, 0) + int(value)
        with self._memory_lock:
            self._memory_cache = (time.monotonic(), out)
        return out

    # ------------------------------------------------------------------
    def render_metrics(self) -> str:
        """Dispatcher metrics plus a fresh per-shard stats scrape.

        Aggregate per-shard gauges keep their PR-2 names
        (``ikrq_shard_<counter>{shard=...}``); the per-tenant
        breakdown adds a ``venue`` label, and registry/admission state
        surfaces as ``ikrq_venue_*`` gauges.  Per-generation gauge
        series are dropped and re-published on every scrape, so a
        retired generation's rows disappear instead of rendering their
        frozen final values forever.
        """
        self.metrics.drop_gauges("generation")
        search_totals: Dict[str, Dict[str, int]] = {}
        for doc in self.pool.stats():
            if doc.get("status") != "ok":
                continue
            shard = doc.get("shard")
            self.metrics.merge_gauges(
                {f"ikrq_shard_{name}": value
                 for name, value in doc.get("stats", {}).items()},
                shard=shard)
            if doc.get("rss_bytes"):
                self.metrics.set_gauge("ikrq_shard_rss_bytes",
                                       doc["rss_bytes"], shard=shard)
            for entry in doc.get("venue_stats", []):
                self.metrics.merge_gauges(
                    {f"ikrq_shard_{name}": value
                     for name, value in entry.get("stats", {}).items()},
                    shard=shard, venue=entry.get("venue"),
                    generation=entry.get("generation"))
                # Per-venue SearchStats sums (expansions, cache
                # hits/misses, evictions …): accumulated per venue
                # across shards and generations, published below as
                # ikrq_search_<counter>{venue=...}.
                totals = search_totals.setdefault(entry.get("venue"), {})
                for name, value in (entry.get("search") or {}).items():
                    totals[name] = totals.get(name, 0) + int(value)
                # The memory tier breakdown of each loaded (venue,
                # generation): heap vs. mapped vs. spilled bytes.
                self.metrics.merge_gauges(
                    {f"ikrq_shard_memory_{name}": value
                     for name, value in (entry.get("memory") or {}).items()},
                    shard=shard, venue=entry.get("venue"),
                    generation=entry.get("generation"))
                # Which Dijkstra each shard runs: an info gauge
                # (constant 1) labelled ``native`` (the C build) or
                # ``python`` (no compiler: the interpreted loop).
                if entry.get("kernel"):
                    self.metrics.set_gauge(
                        "ikrq_shard_kernel_info", 1, shard=shard,
                        venue=entry.get("venue"),
                        generation=entry.get("generation"),
                        kernel=entry.get("kernel"))
        for venue, totals in search_totals.items():
            self.metrics.merge_gauges(
                {f"ikrq_search_{name}": value
                 for name, value in totals.items()}, venue=venue)
        registry = self.dispatcher.registry
        for venue in registry.venues():
            active = registry.active_generation(venue)
            if active is not None:
                self.metrics.set_gauge("ikrq_venue_active_generation",
                                       active, venue=venue)
        for venue, counters in (
                self.dispatcher.admission.venue_counters().items()):
            self.metrics.set_gauge("ikrq_venue_in_flight",
                                   counters["in_flight"], venue=venue)
            self.metrics.set_gauge("ikrq_venue_shed_total",
                                   counters["shed"], venue=venue)
            if counters.get("max_in_flight") is not None:
                self.metrics.set_gauge("ikrq_venue_quota_max_in_flight",
                                       counters["max_in_flight"],
                                       venue=venue)
        live = 0
        for worker in self.pool.shard_states():
            up = 1 if worker["state"] == "up" else 0
            live += up
            self.metrics.set_gauge("ikrq_shard_up", up,
                                   shard=worker["shard"])
        self.metrics.set_gauge("ikrq_live_shards", live)
        self.metrics.set_gauge("ikrq_worker_restarts",
                               self.pool.restarts_total)
        self.metrics.set_gauge("ikrq_shards", self.pool.shards)
        self.metrics.set_gauge("ikrq_venues",
                               len(registry.venues()))
        self.metrics.set_gauge(
            "ikrq_in_flight", self.dispatcher.admission.in_flight)
        return self.metrics.render()

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def start(self) -> Tuple[str, int]:
        """Serve in a background thread; returns the bound address."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, daemon=True,
                name="ikrq-http")
            self._thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI path)."""
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop the HTTP loop, then the shard pool — clean exit."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.pool.close()

    def __enter__(self) -> "IKRQServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
