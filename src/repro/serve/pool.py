"""Multi-venue shard-process pool, tenant dispatcher and admission.

Each shard is a worker *process* (beating the GIL on the CPU-bound
search hot path) that loads index snapshots for **every hosted venue**
and serves requests over a multiprocessing queue, one
:class:`~repro.core.engine.QueryService` per loaded ``(venue,
generation)``.  The dispatcher routes every request to the shard owned
by its ``(venue, ps, pt)`` hash, so the per-endpoint attachment maps,
keyword conversions and answer LRUs of one venue's endpoint always
land on the same warm shard.

Venues are dynamic: :meth:`ShardPool.load` broadcasts a new snapshot
generation into every shard, :meth:`ShardPool.evict` drops one, and
:meth:`ShardDispatcher.ingest` composes the two with the
:class:`~repro.serve.registry.SnapshotRegistry` into a zero-downtime
hot-swap — load everywhere, atomically flip the active generation,
drain in-flight requests off the old generation, evict it.  A request
resolves its generation exactly once, at admission, so every answer
comes from exactly one generation and stays byte-identical to a
sequential ``engine.search`` on that snapshot.

The pool is *supervised*: a watcher thread pairs each worker's process
sentinel with periodic heartbeat pings and declares a shard dead the
moment it exits or stops answering.  Death fails every pending RPC on
that shard immediately with ``{"status": "shard_down"}`` (instead of
letting callers run out the full RPC timeout), and the supervisor
respawns the worker with exponential backoff under a restart budget —
a crash-looping shard is *quarantined*, not respawned forever.  A
replacement worker warm-restarts: it reloads every ``(venue,
generation)`` the fleet is currently serving (snapshot cold-start is
milliseconds) and rejoins the affinity ring only after reporting
ready.  Searches are pure, so the dispatcher retries a ``shard_down``
answer on a live sibling shard — the failover answer is byte-identical
by construction.  A ``timeout`` is not retried: searches are also
deterministic, so a sibling would rerun the same slow query and double
its cost.

Admission control is explicit and tenant-aware: at most
``max_pending`` requests may be in flight across the pool, and each
venue may carry a quota capping *its* in-flight share — anything
beyond either bound is *shed* immediately with an
``{"status": "overloaded"}`` answer instead of queueing into a latency
collapse, and one noisy venue cannot starve the rest.  When shards are
down, both bounds tighten proportionally (degraded mode): a pool at
half strength admits half its normal depth rather than queueing into
dead capacity.  Requests may additionally carry a wall-clock deadline
— a shard that dequeues an already-expired request answers
``expired`` without evaluating it.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import os
import threading
import time
import zlib
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from repro.dynamic.overlay import ClosureOverlay
from repro.dynamic.state import DeltaError, DynamicStore
from repro.obs.logging import log_event
from repro.obs.trace import (STAGE_ADMISSION, STAGE_DECODE, STAGE_DISPATCH,
                             STAGE_ENGINE, STAGE_GENERATION,
                             STAGE_QUEUE_WAIT, STAGES, EngineTrace,
                             TraceBuffer, TracePolicy, TraceRecorder,
                             iter_spans, shift_spans, span_doc)
from repro.serve.faults import FaultInjector, FaultPlan
from repro.serve.registry import (DEFAULT_VENUE, Generation,
                                  SnapshotRegistry)
from repro.serve.wire import (answer_to_wire, ping_to_wire, pong_to_wire,
                              query_from_wire, shard_down_doc,
                              trace_reply_to_wire, trace_request_to_wire)

#: Extra seconds the dispatcher waits past a request deadline before
#: giving up on the shard's answer.
_DEADLINE_GRACE = 2.0
#: Fallback RPC timeout when a request has no deadline: long enough
#: for any sane query, short enough to detect a dead shard.
_DEFAULT_RPC_TIMEOUT = 300.0

_log = logging.getLogger("repro.serve")


def process_rss_bytes() -> int:
    """Resident-set size of the calling process, in bytes (0 when the
    platform exposes neither ``/proc`` nor ``resource``).

    Without ``/proc`` the fallback is ``ru_maxrss`` — the lifetime
    *peak* RSS, the closest portable approximation — which Linux
    reports in kilobytes but macOS/BSD report in bytes.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        return pages * (os.sysconf("SC_PAGE_SIZE")
                        if hasattr(os, "sysconf") else 4096)
    except (OSError, ValueError, IndexError):
        pass
    try:  # pragma: no cover - non-/proc platforms
        import resource
        import sys as _sys
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(maxrss) * (1024 if _sys.platform.startswith("linux")
                              else 1)
    except Exception:  # pragma: no cover
        return 0


def shard_for(ps: Sequence[float],
              pt: Sequence[float],
              shards: int,
              venue: str = DEFAULT_VENUE) -> int:
    """The shard owning ``(venue, ps, pt)`` (wire triples).

    Stable across processes and runs (CRC32 of the canonical repr, not
    ``hash()``), so repeated traffic for one venue's endpoint pair
    always hits the same shard's warm caches; including the venue
    spreads the hot endpoints of co-hosted tenants over different
    shards.
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    key = repr((venue, tuple(float(v) for v in ps),
                tuple(float(v) for v in pt)))
    return zlib.crc32(key.encode("utf-8")) % shards


def _drop_queue(queue) -> None:
    """Retire a multiprocessing queue nobody should touch again: close
    its pipe ends and (for feeder-thread queues) stop the feeder so the
    interpreter's atexit finalizer does not block joining a feeder that
    never saw a sentinel."""
    if queue is None:
        return
    try:
        queue.close()
    except Exception:  # pragma: no cover - already torn down
        pass
    cancel = getattr(queue, "cancel_join_thread", None)
    if cancel is not None:
        try:
            cancel()
        except Exception:  # pragma: no cover
            pass


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
class _BadQuery(ValueError):
    """A search request whose query document does not validate."""


def _shard_worker(shard_id: int,
                  boot: int,
                  initial: Sequence[Tuple[str, int, str]],
                  requests,
                  responses,
                  options: Dict) -> None:
    """Entry point of one shard process.

    ``boot`` is the worker's incarnation counter (0 = initial start,
    1 = first supervised restart, …); it is stamped on every response
    so the router can tell a replacement's messages from a dead
    predecessor's stragglers.  ``initial`` lists every ``(venue,
    generation, snapshot_path)`` the worker must serve; it loads all
    of them before reporting ready (a warm restart simply passes the
    fleet's current assignment list here), then serves ``search`` /
    ``load`` / ``evict`` / ``stats`` / ``ping`` messages until
    shutdown.  The worker is single-threaded by design: a ``load``
    occupies the shard for the (millisecond) snapshot adoption and the
    engine map never races.

    Memory-tiering options: ``mmap`` backs every loaded engine's index
    buffers with a shared mapping of its snapshot file (all shards map
    the same generation file, so the fleet holds one page-cache copy);
    ``matrix_spill_dir`` gives each loaded engine a private row-cache
    file ``<venue>.g<generation>.shard<i>.rows`` under that directory
    (removed again when the generation is evicted, and truncated on
    open, so a restarted worker reusing the path starts clean);
    ``matrix_max_rows`` caps resident matrix rows per engine.

    ``options["fault_plan"]`` (wire-encoded :class:`FaultPlan` rules)
    arms deterministic fault injection at three points — process
    start, each load, each search — for the fleet fault tests
    (``tests/test_faults.py``, e.g. ``TestKillMidStream``); see
    :mod:`repro.serve.faults`.
    """
    from repro.core.engine import QueryService
    from repro.dynamic.state import apply_keyword_ops
    from repro.serve.snapshot import _UNSET, load_snapshot, warm_mapped
    from repro.space.graph import DoorGraph
    from repro.space.skeleton import SkeletonIndex

    services: Dict[Tuple[str, int], "QueryService"] = {}
    #: venue -> (keyword_version, cumulative keyword ops) — the last
    #: delta broadcast this worker saw, replayed onto every generation
    #: of the venue it loads later (an ingest after a delta).
    kw_ops: Dict[str, Tuple[int, List[Dict]]] = {}
    #: (venue, generation, keyword_version) -> sibling QueryService.
    kw_services: Dict[Tuple[str, int, int], "QueryService"] = {}
    use_mmap = bool(options.get("mmap"))
    spill_dir = options.get("matrix_spill_dir")
    matrix_max_rows = options.get("matrix_max_rows", _UNSET)
    injector = FaultInjector(options.get("fault_plan"), shard_id, boot)

    def _service_for(engine) -> "QueryService":
        return QueryService(
            engine, workers=1,
            point_map_capacity=options.get("point_map_capacity", 128),
            keyword_cache_capacity=options.get("keyword_cache_capacity", 512),
            answer_cache_capacity=options.get("answer_cache_capacity", 1024))

    def _build_kw_variant(venue: str, generation: int,
                          kw_version: int, ops: List[Dict]) -> None:
        """A sibling service whose engine replays the venue's keyword
        ops onto the pristine snapshot index.  Replay is always from
        the snapshot (ops are cumulative), so any two workers at the
        same keyword version hold identical indexes.  Only the two
        newest versions per ``(venue, generation)`` stay resident —
        the dispatcher never stamps requests with older ones."""
        base = services.get((venue, generation))
        key = (venue, generation, kw_version)
        if base is None or key in kw_services:
            return
        kindex = apply_keyword_ops(base.engine.kindex, ops)
        kw_services[key] = _service_for(base.engine.keyword_sibling(kindex))
        stale = sorted(v for (ven, gen, v) in kw_services
                       if ven == venue and gen == generation)[:-2]
        for v in stale:
            kw_services.pop((venue, generation, v), None)

    def _load(venue: str, generation: int, path: str) -> float:
        rule = FaultInjector.apply(injector.fire("load"))
        if rule is not None and rule.action == "reject_load":
            raise RuntimeError(
                f"fault injected: reject_load on shard {shard_id}")
        started = time.perf_counter()
        spill_path = None
        if spill_dir:
            os.makedirs(spill_dir, exist_ok=True)
            spill_path = os.path.join(
                spill_dir, f"{venue}.g{generation}.shard{shard_id}.rows")
        engine = load_snapshot(path, mmap=use_mmap,
                               matrix_spill_path=spill_path,
                               matrix_max_rows=matrix_max_rows)
        # Warm pass: sequential prefetch of a mapped snapshot moves
        # first-touch page-ins off the request path (covers both the
        # initial load and every hot-swap ingest, which land here).
        warm_mapped(engine)
        services[(venue, generation)] = _service_for(engine)
        recorded = kw_ops.get(venue)
        if recorded is not None:
            # A generation ingested after a keyword delta must serve
            # the venue's current keyword version from its first query.
            _build_kw_variant(venue, generation, recorded[0], recorded[1])
        return time.perf_counter() - started

    FaultInjector.apply(injector.fire("start"))
    try:
        for venue, generation, path in sorted(initial):
            _load(venue, int(generation), path)
    except Exception as exc:  # startup failure: report, don't hang
        responses.put({"kind": "ready", "shard": shard_id, "boot": boot,
                       "error": repr(exc)})
        return
    responses.put({"kind": "ready", "shard": shard_id, "boot": boot,
                   "venues": sorted({venue for venue, _, _ in initial}),
                   "csr_builds": DoorGraph.csr_builds,
                   "s2s_builds": SkeletonIndex.s2s_builds,
                   "kernels": sorted({service.engine.kernel_backend
                                      for service in services.values()})})
    allow_sleep = bool(options.get("allow_sleep"))
    while True:
        msg = requests.get()
        if msg is None or msg.get("kind") == "shutdown":
            # Spill files are per-process scratch: remove them for the
            # still-loaded generations too, not only evicted ones.
            for service in services.values():
                matrix = service.engine._matrix
                if matrix is not None:
                    matrix.close_spill()
            break
        req_id = msg.get("id")
        base = {"kind": "response", "id": req_id, "shard": shard_id,
                "boot": boot}
        kind = msg.get("kind")
        if kind == "ping":
            responses.put(pong_to_wire(shard_id, boot))
            continue
        if kind == "stats":
            venue_stats = []
            aggregate: Dict[str, int] = {}
            for (venue, generation), service in sorted(services.items()):
                snap = service.stats_snapshot().as_dict()
                # "search" rides beside "stats" (whose field set is
                # pinned to ServiceStats.FIELDS): the SearchStats sums
                # of every evaluation this service actually ran.
                venue_stats.append({"venue": venue,
                                    "generation": generation,
                                    "kernel":
                                        service.engine.kernel_backend,
                                    "stats": snap,
                                    "search": service.search_counters(),
                                    "memory":
                                        service.engine.memory_breakdown()})
                for name, value in snap.items():
                    aggregate[name] = aggregate.get(name, 0) + value
            responses.put({**base, "status": "ok", "stats": aggregate,
                           "venue_stats": venue_stats,
                           "rss_bytes": process_rss_bytes()})
            continue
        if kind == "load":
            try:
                seconds = _load(msg["venue"], msg["generation"], msg["path"])
                responses.put({**base, "status": "ok",
                               "venue": msg["venue"],
                               "generation": msg["generation"],
                               "load_seconds": seconds})
            except Exception as exc:
                responses.put({**base, "status": "error",
                               "error": repr(exc)})
            continue
        if kind == "evict":
            dropped = services.pop(
                (msg.get("venue"), msg.get("generation")), None)
            if dropped is not None:
                matrix = dropped.engine._matrix
                if matrix is not None:
                    # The spill file is per-(engine, shard) scratch —
                    # recomputable rows, deleted with the generation.
                    matrix.close_spill()
                for key in [k for k in kw_services
                            if k[:2] == (msg.get("venue"),
                                         msg.get("generation"))]:
                    kw_services.pop(key, None)
            responses.put({**base, "status": "ok",
                           "evicted": dropped is not None})
            continue
        if kind == "validate":
            # Id check for door-state deltas: the dispatcher holds no
            # venue model, so it asks one live shard whether the ids
            # exist before publishing a persistent overlay (a bogus id
            # published unchecked would fail every later search).
            venue = str(msg.get("venue"))
            engine = next((svc.engine
                           for (ven, gen), svc in sorted(services.items())
                           if ven == venue), None)
            if engine is None:
                responses.put({**base, "status": "unknown_venue",
                               "venue": venue})
                continue
            responses.put({
                **base, "status": "ok", "venue": venue,
                "unknown_doors": sorted(
                    d for d in (msg.get("doors") or [])
                    if d not in engine.space.doors),
                "unknown_partitions": sorted(
                    p for p in (msg.get("partitions") or [])
                    if p not in engine.space.partitions)})
            continue
        if kind == "delta":
            # Keyword-delta broadcast: record the venue's cumulative
            # ops and build the sibling engines for every loaded
            # generation *before* replying — the dispatcher publishes
            # the new keyword version only once the fleet has acked,
            # so no search can arrive stamped with a version this
            # worker does not hold.
            venue = str(msg.get("venue"))
            try:
                kw_version = int(msg.get("kw_version", 0))
                ops = [dict(op) for op in (msg.get("ops") or [])]
                kw_ops[venue] = (kw_version, ops)
                built = 0
                for ven, gen in sorted(services):
                    if ven == venue:
                        _build_kw_variant(ven, gen, kw_version, ops)
                        built += 1
                responses.put({**base, "status": "ok", "venue": venue,
                               "kw_version": kw_version,
                               "generations": built})
            except Exception as exc:
                responses.put({**base, "status": "error", "venue": venue,
                               "error": repr(exc)})
            continue
        # -------------------------------------------------- search
        rule = FaultInjector.apply(injector.fire("search"))
        crash_after = rule is not None and rule.action == "crash_after_reply"
        venue = msg.get("venue", DEFAULT_VENUE)
        generation = msg.get("generation")
        base["venue"] = venue
        base["generation"] = generation
        service = services.get((venue, generation))
        if service is None:
            responses.put({**base, "status": "unknown_venue"})
            continue
        kw_version = int(msg.get("kw_version") or 0)
        if kw_version:
            variant = kw_services.get((venue, generation, kw_version))
            if variant is None:
                recorded = kw_ops.get(venue)
                if recorded is not None and recorded[0] == kw_version:
                    _build_kw_variant(venue, generation, kw_version,
                                      recorded[1])
                    variant = kw_services.get(
                        (venue, generation, kw_version))
            if variant is None:
                # Should not happen (publish waits for the fleet ack;
                # warm restarts replay deltas before serving) — answer
                # explicitly rather than serving the wrong index.
                responses.put({**base, "status": "stale_delta",
                               "kw_version": kw_version})
                continue
            service = variant
        overlay_doc = msg.get("overlay")
        started = time.perf_counter()
        # Worker-side trace sub-tree.  Offsets are relative to the
        # request's *enqueue* instant (the dispatcher's dispatch-span
        # start): the queue wait opens the forest at 0, derived from
        # the payload's wall-clock stamp — the only clock comparable
        # across processes — and everything after runs on this
        # process's perf_counter.
        trace_req = msg.get("trace")
        trace_spans: Optional[List[Dict]] = None
        queue_wait_ms = 0.0
        if trace_req:
            enqueued_at = float(trace_req.get("enqueued_at", 0.0))
            if enqueued_at > 0.0:
                queue_wait_ms = max(0.0,
                                    (time.time() - enqueued_at) * 1000.0)
            trace_spans = [span_doc(STAGE_QUEUE_WAIT, 0.0, queue_wait_ms)]

        def _offset() -> float:
            return queue_wait_ms + (time.perf_counter() - started) * 1000.0

        def _put(doc: Dict) -> None:
            if trace_spans is not None:
                doc["trace"] = trace_reply_to_wire(queue_wait_ms,
                                                   trace_spans)
            responses.put(doc)

        try:
            deadline = msg.get("deadline")
            if deadline is not None and time.time() > deadline:
                _put({**base, "status": "expired"})
                continue
            if allow_sleep and msg.get("sleep"):
                # Test-only latency injection (saturation tests); the
                # HTTP surface never forwards a sleep field.
                time.sleep(float(msg["sleep"]))
            decode_start = _offset()
            try:
                query = query_from_wire(msg["query"])
            except (TypeError, ValueError) as exc:
                raise _BadQuery(str(exc)) from exc
            if trace_spans is not None:
                trace_spans.append(span_doc(
                    STAGE_DECODE, decode_start, _offset() - decode_start))
                engine_trace = EngineTrace(fine=bool(trace_req.get("fine")))
                engine_start = _offset()
                answer = service.search(query, msg.get("algorithm", "ToE"),
                                        overlay=overlay_doc,
                                        trace=engine_trace)
                engine_ms = _offset() - engine_start
                trace_spans.append(span_doc(
                    STAGE_ENGINE, engine_start, engine_ms,
                    children=engine_trace.stage_spans(engine_start,
                                                      engine_ms),
                    **engine_trace.annotations))
            else:
                answer = service.search(query, msg.get("algorithm", "ToE"),
                                        overlay=overlay_doc)
            doc = answer_to_wire(answer)
            doc.update(base)
            doc["status"] = "ok"
            doc["elapsed"] = time.perf_counter() - started
            _put(doc)
        except _BadQuery as exc:
            # A malformed or non-finite query is the client's error: a
            # 400, answered without failover.
            _put({**base, "status": "bad_request", "error": str(exc)})
        except Exception as exc:
            _put({**base, "status": "error", "error": repr(exc)})
        if crash_after:
            # The answer is already on the wire; die like an OOM kill
            # landing between two requests.
            FaultInjector.crash()


# ----------------------------------------------------------------------
# Pool
# ----------------------------------------------------------------------
class _PendingSlot:
    """One blocked RPC: the caller parks on ``event``; the router (or
    the supervisor failing a dead shard's slots) fills ``response`` and
    sets it.  ``shard`` is the *target* shard so supervision can sweep
    exactly the calls a death strands."""

    __slots__ = ("event", "response", "shard")

    def __init__(self, shard: int) -> None:
        self.event = threading.Event()
        self.response: Optional[Dict] = None
        self.shard = shard


class _ShardState:
    """Supervision state of one shard slot (the *slot* outlives any
    single worker process: ``proc``/``queue``/``boot`` are replaced on
    every respawn)."""

    __slots__ = ("index", "proc", "queue", "rq", "state", "boot",
                 "boot_error", "boot_started", "boot_assignments",
                 "last_seen", "last_ping", "restart_times", "backoff_exp",
                 "next_restart_at", "down_reason", "exitcode")

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc = None
        self.queue = None
        self.rq = None
        #: starting -> up -> down -> (starting ...) | quarantined
        self.state = "down"
        self.boot = -1
        self.boot_error: Optional[str] = None
        self.boot_started = 0.0
        self.boot_assignments: set = set()
        self.last_seen = 0.0
        self.last_ping = 0.0
        #: Monotonic stamps of recent restarts (the budget window).
        self.restart_times: List[float] = []
        self.backoff_exp = 0
        self.next_restart_at = 0.0
        self.down_reason: Optional[str] = None
        self.exitcode: Optional[int] = None


def _normalise_venues(snapshot_path: Optional[str],
                      venues: Optional[Mapping[str, str]]) -> Dict[str, str]:
    initial: Dict[str, str] = {str(v): str(p)
                               for v, p in (venues or {}).items()}
    if snapshot_path is not None:
        initial.setdefault(DEFAULT_VENUE, str(snapshot_path))
    if not initial:
        raise ValueError(
            "a shard pool needs a snapshot_path or a venues mapping")
    return initial


class ShardPool:
    """A supervised pool of shard processes serving one or many venues.

    The pool owns the request queue of every shard, one response pipe
    *per worker incarnation* with a reader thread matching responses
    back to blocked callers by request id, and a supervisor thread
    watching worker liveness (process sentinel + heartbeats) that
    fails a dead shard's pending calls fast and respawns it with
    backoff under a restart budget.  Responses deliberately do NOT
    share one queue across workers: a shared queue's write lock is
    held by whichever worker is mid-``put``, so a SIGKILL landing in
    that window would wedge every *other* worker's replies forever —
    with per-worker pipes a kill can only ever corrupt the dead
    worker's own channel, which dies with it.  ``call`` is the low-level blocking RPC, ``broadcast``
    fans one control message over every *live* shard; routing policy,
    failover, tenancy and admission control live in
    :class:`ShardDispatcher`.

    ``ShardPool(path, shards=2)`` keeps the single-tenant shape — the
    snapshot is hosted as venue ``"default"`` at generation 1.
    Multi-tenant pools pass ``venues={"mall-a": path_a, ...}`` instead
    (or additionally).

    Supervision knobs: a worker missing heartbeats for
    ``heartbeat_timeout`` seconds (or whose process exits) is declared
    down; its replacement starts after an exponential backoff
    (``restart_backoff_s`` doubling up to ``restart_backoff_max_s``);
    more than ``restart_budget`` restarts within ``restart_window_s``
    quarantines the shard instead.  ``heartbeat_timeout=0`` disables
    the stall detector (the sentinel still catches exits).
    ``fault_plan`` threads a :class:`~repro.serve.faults.FaultPlan`
    into every worker for deterministic fault testing
    (``tests/test_faults.py``).
    """

    def __init__(self,
                 snapshot_path: Optional[str] = None,
                 shards: int = 2,
                 service_options: Optional[Dict] = None,
                 allow_sleep: bool = False,
                 start_timeout: float = 120.0,
                 mp_context: Optional[str] = None,
                 venues: Optional[Mapping[str, str]] = None,
                 heartbeat_interval: float = 2.0,
                 heartbeat_timeout: float = 30.0,
                 restart_backoff_s: float = 0.5,
                 restart_backoff_max_s: float = 30.0,
                 restart_budget: int = 5,
                 restart_window_s: float = 60.0,
                 fault_plan: Optional[Union[FaultPlan,
                                            Sequence[Dict]]] = None) -> None:
        if shards < 1:
            raise ValueError("shards must be at least 1")
        self._ctx = multiprocessing.get_context(mp_context)
        #: Initial venue -> snapshot path map (all at generation 1).
        self.initial_venues: Dict[str, str] = _normalise_venues(
            snapshot_path, venues)
        self.snapshot_path = (str(snapshot_path)
                              if snapshot_path is not None else None)
        self.shards = shards
        self.start_timeout = float(start_timeout)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.restart_backoff_s = float(restart_backoff_s)
        self.restart_backoff_max_s = float(restart_backoff_max_s)
        self.restart_budget = int(restart_budget)
        self.restart_window_s = float(restart_window_s)
        options = dict(service_options or {})
        options["allow_sleep"] = allow_sleep
        if fault_plan is not None:
            options["fault_plan"] = (fault_plan.to_wire()
                                     if isinstance(fault_plan, FaultPlan)
                                     else list(fault_plan))
        self._options = options
        #: What the fleet is serving right now: every ``(venue,
        #: generation)`` a live worker should hold, with its snapshot
        #: path — the warm-restart manifest a replacement reloads.
        self._assignments: Dict[Tuple[str, int], str] = {
            (venue, 1): path
            for venue, path in self.initial_venues.items()}
        #: venue -> (keyword_version, cumulative keyword ops): the
        #: delta manifest a replacement worker replays before serving
        #: (recorded before each delta broadcast, like assignments).
        self._dynamic_deltas: Dict[str, Tuple[int, List[Dict]]] = {}
        self._lock = threading.Lock()
        self._ready_cond = threading.Condition(self._lock)
        self._pending: Dict[int, _PendingSlot] = {}
        self._next_id = 0
        self._closed = False
        self._initial_done = False
        self._listeners: List[Callable[[str, Dict], None]] = []
        #: Supervision counters (also surfaced on /healthz + /metrics).
        self.restarts_total = 0
        self.late_responses = 0
        #: Per-shard build counters reported at startup; snapshot loads
        #: must show no increment over the pre-fork value.
        self.worker_builds: List[Dict] = []
        self._states = [_ShardState(i) for i in range(shards)]
        self._supervisor_wake = threading.Event()
        self._reader_threads: List[threading.Thread] = []
        # Each _spawn starts the worker's reader thread first, so every
        # startup message flows through the same dispatch path as
        # steady-state ones — a fast shard's first real response can't
        # be lost in the startup window.
        for st in self._states:
            self._spawn(st)
        self._supervisor = threading.Thread(
            target=self._supervise, daemon=True, name="ikrq-supervisor")
        self._supervisor.start()
        error: Optional[str] = None
        deadline = time.monotonic() + self.start_timeout
        with self._ready_cond:
            while not all(st.state == "up" for st in self._states):
                failed = next((st for st in self._states
                               if st.boot_error is not None), None)
                if failed is not None:
                    error = (f"shard {failed.index} failed to start: "
                             f"{failed.boot_error}")
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    error = "shard pool start timed out"
                    break
                self._ready_cond.wait(min(remaining, 0.2))
        if error is not None:
            self.close()
            raise RuntimeError(error)
        self._initial_done = True

    # ------------------------------------------------------------------
    # Listeners (the dispatcher maps these onto metrics counters)
    # ------------------------------------------------------------------
    def add_listener(self,
                     listener: Callable[[str, Dict], None]) -> None:
        """Subscribe to supervision events: ``worker_exit``,
        ``worker_restart``, ``worker_ready``, ``worker_quarantined``,
        ``rpc_late_response``.  Listeners run on pool threads and must
        not block; exceptions are swallowed."""
        self._listeners.append(listener)

    def _emit(self, event: str, fields: Dict) -> None:
        for listener in list(self._listeners):
            try:
                listener(event, fields)
            except Exception:  # pragma: no cover - listener bug
                pass

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, st: _ShardState) -> None:
        """Start (or restart) the worker for one shard slot, handing it
        the fleet's current assignment manifest."""
        with self._lock:
            st.boot += 1
            boot = st.boot
            assignments = dict(self._assignments)
            st.boot_assignments = set(assignments)
            st.state = "starting"
            st.boot_error = None
            st.down_reason = None
            now = time.monotonic()
            st.boot_started = now
            st.last_seen = now
            st.last_ping = now
            # Fresh queues per boot: the dead worker's request queue
            # may hold requests nobody will ever answer (replaying
            # them into the replacement would serve stale work first),
            # and its response pipe may be wedged mid-write by the
            # kill.  The old request queue's feeder thread must be
            # torn down here, or multiprocessing's atexit finalizer
            # joins it forever.
            _drop_queue(st.queue)
            _drop_queue(st.rq)
            st.queue = self._ctx.Queue()
            st.rq = self._ctx.SimpleQueue()
        reader = threading.Thread(
            target=self._read_responses, args=(st, boot, st.rq),
            daemon=True, name=f"ikrq-reader-{st.index}.{boot}")
        reader.start()
        self._reader_threads.append(reader)
        st.proc = self._ctx.Process(
            target=_shard_worker,
            args=(st.index, boot,
                  [(venue, gen, path)
                   for (venue, gen), path in sorted(assignments.items())],
                  st.queue, st.rq, self._options),
            daemon=True, name=f"ikrq-shard-{st.index}")
        st.proc.start()

    def _respawn(self, st: _ShardState) -> None:
        with self._lock:
            if self._closed or st.state != "down":
                return
        self.restarts_total += 1
        log_event(_log, logging.WARNING, "worker_restart",
                  shard=st.index, boot=st.boot + 1,
                  reason=st.down_reason)
        self._emit("worker_restart", {"shard": st.index,
                                      "boot": st.boot + 1,
                                      "reason": st.down_reason})
        self._spawn(st)

    def _declare_down(self, st: _ShardState, reason: str) -> None:
        """Mark one shard dead: kill any remains, fail its pending
        RPCs immediately, and either schedule a backoff restart or
        quarantine a crash-looper over its budget."""
        proc = st.proc
        failed: List[Tuple[int, _PendingSlot]] = []
        with self._lock:
            if self._closed or st.state in ("down", "quarantined"):
                return
            now = time.monotonic()
            st.exitcode = proc.exitcode if proc is not None else None
            st.down_reason = reason
            st.restart_times = [t for t in st.restart_times
                                if now - t < self.restart_window_s]
            quarantined = len(st.restart_times) >= self.restart_budget
            if quarantined:
                st.state = "quarantined"
            else:
                st.state = "down"
                st.restart_times.append(now)
                delay = min(self.restart_backoff_max_s,
                            self.restart_backoff_s * (2 ** st.backoff_exp))
                st.backoff_exp += 1
                st.next_restart_at = now + delay
            for rid, slot in list(self._pending.items()):
                if slot.shard == st.index:
                    failed.append((rid, slot))
                    del self._pending[rid]
        if proc is not None and proc.is_alive():
            # A stalled worker is alive but useless; reap it so the
            # replacement doesn't race it for the response queue.
            proc.kill()
        for rid, slot in failed:
            slot.response = shard_down_doc(st.index, reason, rid)
            slot.event.set()
        log_event(_log, logging.WARNING, "worker_exit",
                  shard=st.index, boot=st.boot, reason=reason,
                  exitcode=st.exitcode, pending_failed=len(failed),
                  quarantined=quarantined)
        self._emit("worker_exit", {"shard": st.index, "boot": st.boot,
                                   "reason": reason,
                                   "exitcode": st.exitcode,
                                   "pending_failed": len(failed)})
        if quarantined:
            log_event(_log, logging.ERROR, "worker_quarantined",
                      shard=st.index, boot=st.boot,
                      restarts_in_window=len(st.restart_times),
                      restart_budget=self.restart_budget,
                      window_s=self.restart_window_s)
            self._emit("worker_quarantined",
                       {"shard": st.index, "boot": st.boot,
                        "restarts_in_window": len(st.restart_times)})
        self._supervisor_wake.set()

    def _on_ready(self, msg: Dict) -> None:
        shard = msg.get("shard")
        if not isinstance(shard, int) or not 0 <= shard < self.shards:
            return
        st = self._states[shard]
        boot_error: Optional[str] = None
        catch_up = 0
        with self._lock:
            if msg.get("boot") != st.boot or st.state != "starting":
                return  # a dead predecessor's straggler
            if "error" in msg:
                if not self._initial_done:
                    st.boot_error = str(msg["error"])
                    st.state = "down"
                    st.down_reason = "boot_error"
                    self._ready_cond.notify_all()
                    return
                boot_error = str(msg["error"])
            else:
                # Catch-up: the fleet's assignments may have moved
                # while this worker booted (an ingest it missed).
                # Enqueue the delta *before* flipping "up" — the
                # worker drains its queue in FIFO order, so these
                # apply before the first routed search can arrive.
                current = dict(self._assignments)
                for (venue, gen), path in sorted(current.items()):
                    if (venue, gen) not in st.boot_assignments:
                        st.queue.put({"kind": "load", "venue": venue,
                                      "generation": gen, "path": path})
                        catch_up += 1
                for venue, gen in sorted(st.boot_assignments
                                         - set(current)):
                    st.queue.put({"kind": "evict", "venue": venue,
                                  "generation": gen})
                    catch_up += 1
                # Keyword-delta replay: a fresh worker booted from
                # pristine snapshots; hand it every venue's recorded
                # delta before it serves (same FIFO guarantee as the
                # catch-up loads).  Idempotent on workers that already
                # saw the broadcast.
                for venue, (kw_version, ops) in sorted(
                        self._dynamic_deltas.items()):
                    st.queue.put({"kind": "delta", "venue": venue,
                                  "kw_version": kw_version, "ops": ops})
                    catch_up += 1
                st.state = "up"
                st.backoff_exp = 0
                st.down_reason = None
                st.exitcode = None
                st.last_seen = time.monotonic()
                self.worker_builds.append(
                    {"shard": shard,
                     "csr_builds": msg.get("csr_builds"),
                     "s2s_builds": msg.get("s2s_builds")})
                self._ready_cond.notify_all()
        if boot_error is not None:
            self._declare_down(st, f"boot_error: {boot_error}")
            return
        if st.boot > 0:
            log_event(_log, logging.INFO, "worker_ready",
                      shard=shard, boot=st.boot,
                      venues=msg.get("venues"), catch_up=catch_up)
        self._emit("worker_ready", {"shard": shard, "boot": st.boot,
                                    "catch_up": catch_up})

    def _supervise(self) -> None:
        """Sentinel + heartbeat watcher; also the restart scheduler."""
        tick = max(0.01, min(0.25, self.heartbeat_interval / 4.0))
        while not self._closed:
            self._supervisor_wake.wait(tick)
            self._supervisor_wake.clear()
            if self._closed:
                break
            now = time.monotonic()
            dead: List[Tuple[_ShardState, str]] = []
            restart: List[_ShardState] = []
            ping: List[_ShardState] = []
            with self._lock:
                initial_done = self._initial_done
                for st in self._states:
                    proc = st.proc
                    if st.state == "up":
                        if proc is None or not proc.is_alive():
                            dead.append((st, "exit"))
                        elif (self.heartbeat_timeout > 0
                              and now - st.last_seen
                              > self.heartbeat_timeout):
                            dead.append((st, "heartbeat_timeout"))
                        elif now - st.last_ping >= self.heartbeat_interval:
                            st.last_ping = now
                            ping.append(st)
                    elif st.state == "starting":
                        if proc is None:
                            continue  # _spawn mid-flight
                        if not proc.is_alive():
                            if initial_done:
                                dead.append((st, "boot_exit"))
                            elif st.boot_error is None:
                                st.boot_error = (
                                    "worker exited during start "
                                    f"(exitcode {proc.exitcode})")
                                st.state = "down"
                                st.down_reason = "boot_exit"
                                self._ready_cond.notify_all()
                        elif (initial_done and now - st.boot_started
                              > self.start_timeout):
                            dead.append((st, "boot_timeout"))
                    elif (st.state == "down" and initial_done
                          and now >= st.next_restart_at):
                        restart.append(st)
            for st, reason in dead:
                self._declare_down(st, reason)
            for st in restart:
                self._respawn(st)
            for st in ping:
                try:
                    st.queue.put(ping_to_wire())
                except Exception:  # queue torn down mid-death
                    pass

    # ------------------------------------------------------------------
    # Response routing
    # ------------------------------------------------------------------
    def _read_responses(self, st: _ShardState, boot: int, rq) -> None:
        """Reader thread of one worker incarnation's response pipe.

        Exits when the pipe is torn down, when the pool closes, or —
        after the incarnation has been replaced — once the pipe runs
        dry (draining first, so a slow reply from the *current* boot is
        still counted as a late response rather than lost).
        """
        reader = rq._reader
        while True:
            try:
                if not reader.poll(0.2):
                    if self._closed or st.boot != boot:
                        return
                    continue
                msg = rq.get()
            except (EOFError, OSError, ValueError):
                return  # pipe closed under us (respawn or pool close)
            try:
                self._dispatch_response(msg)
            except Exception:  # pragma: no cover - reader must survive
                _log.exception("response reader failed on %r", msg)

    def _dispatch_response(self, msg: Dict) -> None:
        if not isinstance(msg, dict):
            return
        shard = msg.get("shard")
        if isinstance(shard, int) and 0 <= shard < self.shards:
            st = self._states[shard]
            # Any traffic from the *current* incarnation counts as a
            # heartbeat; a dead predecessor's stragglers must not keep
            # its replacement's slot looking alive.
            if msg.get("boot") == st.boot:
                st.last_seen = time.monotonic()
        kind = msg.get("kind")
        if kind == "ready":
            self._on_ready(msg)
            return
        if kind == "pong":
            return
        rid = msg.get("id")
        if rid is None:
            return  # fire-and-forget control reply (warm-restart catch-up)
        with self._lock:
            slot = self._pending.pop(rid, None)
        if slot is not None:
            slot.response = msg
            slot.event.set()
            return
        # Satellite: a response whose caller already gave up is the
        # earliest symptom of a stalling shard — count it and say so.
        self.late_responses += 1
        log_event(_log, logging.WARNING, "rpc_late_response",
                  shard=shard, request_id=rid,
                  status=msg.get("status"), venue=msg.get("venue"))
        self._emit("rpc_late_response", {"shard": shard,
                                         "request_id": rid,
                                         "status": msg.get("status")})

    def _register_slot(self, shard: int) -> Tuple[int, _PendingSlot]:
        slot = _PendingSlot(shard)
        with self._lock:
            self._next_id += 1
            req_id = self._next_id
            self._pending[req_id] = slot
        return req_id, slot

    # ------------------------------------------------------------------
    # RPC
    # ------------------------------------------------------------------
    def call(self,
             shard: int,
             payload: Dict,
             timeout: Optional[float] = None) -> Dict:
        """Blocking RPC to one shard; returns the response document.

        A dead or quarantined target answers ``{"status":
        "shard_down"}`` immediately; a timeout yields ``{"status":
        "timeout"}`` — the shard's late answer (if any) is counted by
        the router as a late response.
        """
        if self._closed:
            raise RuntimeError("shard pool is closed")
        st = self._states[shard]
        if st.state != "up":
            return shard_down_doc(shard, st.down_reason or st.state)
        req_id, slot = self._register_slot(shard)
        payload = dict(payload)
        payload["id"] = req_id
        try:
            st.queue.put(payload)
        except Exception:  # queue closed by a concurrent death
            with self._lock:
                self._pending.pop(req_id, None)
            return shard_down_doc(shard, "queue_closed", req_id)
        if st.state != "up" and not slot.event.is_set():
            # The shard died between the liveness check and the put;
            # the death sweep may have run before our slot existed.
            with self._lock:
                missed = self._pending.pop(req_id, None)
            if missed is not None:
                return shard_down_doc(shard, st.down_reason or "down",
                                      req_id)
        if not slot.event.wait(timeout if timeout is not None
                               else _DEFAULT_RPC_TIMEOUT):
            with self._lock:
                self._pending.pop(req_id, None)
            return {"status": "timeout", "id": req_id, "shard": shard}
        return slot.response or {"status": "error", "error": "empty response"}

    def broadcast(self,
                  payload: Dict,
                  timeout: Optional[float] = None) -> List[Dict]:
        """One control RPC to every *live* shard, dispatched before any
        waiting starts (the shards work concurrently); returns one
        response document per shard slot, in shard order — dead or
        quarantined slots answer ``{"status": "shard_down"}``
        synchronously."""
        if self._closed:
            raise RuntimeError("shard pool is closed")
        slots: List[Optional[Tuple[int, _PendingSlot]]] = []
        for shard in range(self.shards):
            st = self._states[shard]
            if st.state != "up":
                slots.append(None)
                continue
            req_id, slot = self._register_slot(shard)
            doc = dict(payload)
            doc["id"] = req_id
            try:
                st.queue.put(doc)
            except Exception:
                with self._lock:
                    self._pending.pop(req_id, None)
                slots.append(None)
                continue
            slots.append((req_id, slot))
        wait_until = time.monotonic() + (timeout if timeout is not None
                                         else _DEFAULT_RPC_TIMEOUT)
        responses: List[Dict] = []
        for shard, entry in enumerate(slots):
            if entry is None:
                responses.append(shard_down_doc(
                    shard, self._states[shard].down_reason
                    or self._states[shard].state))
                continue
            req_id, slot = entry
            remaining = max(0.0, wait_until - time.monotonic())
            if not slot.event.wait(remaining):
                with self._lock:
                    self._pending.pop(req_id, None)
                responses.append({"status": "timeout", "id": req_id,
                                  "shard": shard})
                continue
            responses.append(slot.response
                             or {"status": "error",
                                 "error": "empty response"})
        return responses

    # ------------------------------------------------------------------
    # Venue control plane (used by ShardDispatcher.ingest)
    # ------------------------------------------------------------------
    def load(self,
             venue: str,
             generation: int,
             path: Union[str, "object"],
             timeout: float = 120.0) -> List[Dict]:
        """Load snapshot ``path`` as ``venue``'s ``generation`` in every
        live shard; returns the per-shard load reports.

        The assignment is recorded *before* the broadcast: a worker
        that dies mid-load is replaced by one whose warm restart
        includes the new generation, so a crash inside an ingest can
        delay the flip but never wedge the venue between generations.
        """
        with self._lock:
            self._assignments[(str(venue), int(generation))] = str(path)
        return self.broadcast({"kind": "load", "venue": str(venue),
                               "generation": int(generation),
                               "path": str(path)}, timeout=timeout)

    def evict(self,
              venue: str,
              generation: int,
              timeout: float = 30.0) -> List[Dict]:
        """Drop ``(venue, generation)`` from every live shard (and from
        the warm-restart manifest, so replacements don't reload it)."""
        with self._lock:
            self._assignments.pop((str(venue), int(generation)), None)
        return self.broadcast({"kind": "evict", "venue": str(venue),
                               "generation": int(generation)},
                              timeout=timeout)

    def record_delta(self, venue: str, kw_version: int,
                     ops: Sequence[Dict]) -> None:
        """Record a venue's cumulative keyword delta in the
        warm-restart manifest (call *before* broadcasting it, so a
        worker dying mid-broadcast is replaced by one that replays)."""
        with self._lock:
            self._dynamic_deltas[str(venue)] = (int(kw_version),
                                                [dict(op) for op in ops])

    def stats(self, timeout: float = 30.0) -> List[Dict]:
        """One atomic stats snapshot per live shard (aggregate + per
        venue); dead slots report ``shard_down``."""
        return self.broadcast({"kind": "stats"}, timeout=timeout)

    def assignments(self) -> Dict[Tuple[str, int], str]:
        """The warm-restart manifest: every ``(venue, generation)`` a
        live worker should currently serve, with its snapshot path."""
        with self._lock:
            return dict(self._assignments)

    # ------------------------------------------------------------------
    # Liveness / the affinity ring
    # ------------------------------------------------------------------
    def shard_state(self, shard: int) -> str:
        return self._states[shard].state

    def live_shards(self) -> List[int]:
        return [st.index for st in self._states if st.state == "up"]

    def resolve_shard(self, shard: int) -> Optional[int]:
        """``shard`` itself when live, else the next live shard on the
        ring (``None`` when the whole fleet is down).  Every shard
        hosts every venue, so any live sibling serves byte-identical
        answers — only cache warmth is lost."""
        for step in range(self.shards):
            candidate = (shard + step) % self.shards
            if self._states[candidate].state == "up":
                return candidate
        return None

    def next_live_shard(self, after: int) -> Optional[int]:
        """The first live shard strictly after ``after`` on the ring —
        the failover target for a request that just failed there."""
        for step in range(1, self.shards):
            candidate = (after + step) % self.shards
            if self._states[candidate].state == "up":
                return candidate
        return None

    def shard_states(self) -> List[Dict]:
        """Deep per-shard health view (the ``/healthz`` payload)."""
        out: List[Dict] = []
        with self._lock:
            for st in self._states:
                proc = st.proc
                out.append({
                    "shard": st.index,
                    "state": st.state,
                    "boot": st.boot,
                    "restarts": max(0, st.boot),
                    "pid": proc.pid if proc is not None else None,
                    "alive": bool(proc is not None and proc.is_alive()),
                    "reason": st.down_reason,
                    "exitcode": st.exitcode,
                })
        return out

    def kill_shard(self, shard: int) -> bool:
        """SIGKILL one worker (``tests/test_faults.py::TestKillMidStream``
        kills one under load); the
        supervisor notices through the sentinel and takes over.
        Returns whether a live process was actually signalled."""
        proc = self._states[shard].proc
        killed = bool(proc is not None and proc.is_alive())
        if killed:
            proc.kill()
        self._supervisor_wake.set()
        return killed

    def wait_all_up(self, timeout: float = 30.0) -> bool:
        """Block until every shard slot is serving (or ``timeout``)."""
        deadline = time.monotonic() + timeout
        with self._ready_cond:
            while not all(st.state == "up" for st in self._states):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._ready_cond.wait(min(remaining, 0.1))
        return True

    # ------------------------------------------------------------------
    def close(self, join_timeout: float = 10.0) -> None:
        """Shut every shard down and reap the processes.

        Teardown escalates: cooperative shutdown message, join with a
        deadline, ``terminate()`` stragglers, then ``kill()`` anything
        still stuck — ``close()`` can neither hang forever nor leak a
        worker process."""
        if self._closed:
            return
        self._closed = True
        self._supervisor_wake.set()
        supervisor = getattr(self, "_supervisor", None)
        if (supervisor is not None and supervisor.is_alive()
                and supervisor is not threading.current_thread()):
            supervisor.join(timeout=join_timeout)
        for st in self._states:
            if st.queue is None:
                continue
            try:
                st.queue.put(None)
            except Exception:
                pass
        deadline = time.monotonic() + join_timeout
        for st in self._states:
            if st.proc is not None:
                st.proc.join(timeout=max(0.0,
                                         deadline - time.monotonic()))
        stuck = [st for st in self._states
                 if st.proc is not None and st.proc.is_alive()]
        if stuck:
            for st in stuck:
                st.proc.terminate()
            deadline = time.monotonic() + join_timeout
            for st in stuck:
                st.proc.join(timeout=max(0.0,
                                         deadline - time.monotonic()))
            for st in stuck:
                if st.proc.is_alive():
                    st.proc.kill()
                    st.proc.join(timeout=5.0)
                    log_event(_log, logging.WARNING,
                              "worker_killed_on_close", shard=st.index,
                              pid=st.proc.pid)
        # Tear the pipes down (this also snaps the reader threads out
        # of their polls) and retire every request queue's feeder
        # thread so interpreter exit never blocks in multiprocessing's
        # atexit finalizers.
        for st in self._states:
            _drop_queue(st.queue)
            _drop_queue(st.rq)
        deadline = time.monotonic() + 2.0
        for reader in self._reader_threads:
            if reader.is_alive():
                reader.join(timeout=max(0.0,
                                        deadline - time.monotonic()))

    @property
    def closed(self) -> bool:
        return self._closed

    def alive(self) -> bool:
        return (not self._closed
                and all(st.state == "up" for st in self._states))

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Admission control + dispatch
# ----------------------------------------------------------------------
class TenantQuota:
    """Per-venue admission quota.

    ``max_in_flight`` caps the venue's simultaneous in-flight requests
    (its share of the pool-wide queue depth); beyond it the venue's own
    traffic is shed while other tenants keep being admitted.
    """

    __slots__ = ("max_in_flight",)

    def __init__(self, max_in_flight: int) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        self.max_in_flight = max_in_flight

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TenantQuota(max_in_flight={self.max_in_flight})"


class AdmissionController:
    """Bounded in-flight admission: admit or shed, never queue blindly.

    Two bounds compose: the pool-wide ``max_pending`` (total queue
    depth) and an optional per-venue :class:`TenantQuota`.  A request
    is admitted only when both hold; shed accounting is kept per venue
    so the metrics show *who* is being noisy.

    ``capacity_fraction`` is the degraded-mode lever: with live/total
    shards passed in, both bounds scale proportionally (never below
    1), so a pool at half strength admits half its normal depth
    instead of queueing the full depth into dead capacity.
    """

    def __init__(self,
                 max_pending: int,
                 default_quota: Optional[TenantQuota] = None,
                 quotas: Optional[Mapping[str, TenantQuota]] = None) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self.max_pending = max_pending
        self.default_quota = default_quota
        self._quotas: Dict[str, TenantQuota] = dict(quotas or {})
        self._lock = threading.Lock()
        self._in_flight = 0
        self.admitted = 0
        self.shed = 0
        self._venue_in_flight: Dict[str, int] = {}
        self._venue_admitted: Dict[str, int] = {}
        self._venue_shed: Dict[str, int] = {}

    def set_quota(self, venue: str, quota: Optional[TenantQuota]) -> None:
        """Install (or with ``None`` remove) a venue's quota."""
        with self._lock:
            if quota is None:
                self._quotas.pop(venue, None)
            else:
                self._quotas[venue] = quota

    def quota_for(self, venue: str) -> Optional[TenantQuota]:
        with self._lock:
            return self._quotas.get(venue, self.default_quota)

    def try_acquire(self,
                    venue: str = DEFAULT_VENUE,
                    capacity_fraction: float = 1.0) -> bool:
        with self._lock:
            fraction = min(1.0, max(0.0, float(capacity_fraction)))
            effective_max = max(1, math.ceil(self.max_pending * fraction))
            quota = self._quotas.get(venue, self.default_quota)
            venue_max = (max(1, math.ceil(quota.max_in_flight * fraction))
                         if quota is not None else None)
            venue_in_flight = self._venue_in_flight.get(venue, 0)
            if (self._in_flight >= effective_max
                    or (venue_max is not None
                        and venue_in_flight >= venue_max)):
                self.shed += 1
                self._venue_shed[venue] = self._venue_shed.get(venue, 0) + 1
                return False
            self._in_flight += 1
            self.admitted += 1
            self._venue_in_flight[venue] = venue_in_flight + 1
            self._venue_admitted[venue] = (
                self._venue_admitted.get(venue, 0) + 1)
            return True

    def release(self, venue: str = DEFAULT_VENUE) -> None:
        with self._lock:
            self._in_flight -= 1
            self._venue_in_flight[venue] = (
                self._venue_in_flight.get(venue, 1) - 1)

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def venue_counters(self) -> Dict[str, Dict[str, int]]:
        """Per-venue ``{in_flight, admitted, shed, max_in_flight}``."""
        with self._lock:
            venues = (set(self._venue_in_flight) | set(self._venue_shed)
                      | set(self._quotas))
            out: Dict[str, Dict[str, int]] = {}
            for venue in sorted(venues):
                quota = self._quotas.get(venue, self.default_quota)
                out[venue] = {
                    "in_flight": self._venue_in_flight.get(venue, 0),
                    "admitted": self._venue_admitted.get(venue, 0),
                    "shed": self._venue_shed.get(venue, 0),
                    "max_in_flight": (quota.max_in_flight
                                      if quota is not None else None),
                }
            return out


class ShardDispatcher:
    """Routes wire queries to shards; the tenant-aware front door.

    ``submit`` is thread-safe (the HTTP layer calls it from many
    handler threads) and always returns a response document — results,
    ``overloaded`` when admission sheds, ``unknown_venue`` for an
    unhosted tenant, ``expired``/``timeout`` when a deadline passes,
    ``shard_down`` when the fleet cannot serve at all, or
    ``error``/``bad_request``.  Every request resolves its venue's
    active snapshot generation exactly once, at admission, and the
    response document carries ``venue`` and ``generation`` back.

    Failover: searches are pure, so a request whose shard answers
    ``shard_down`` is retried on the next live sibling (up to
    ``failover_retries`` times, within the original deadline); the
    sibling hosts the same engines, so the answer is byte-identical —
    only cache warmth differs.  A request that times out is answered
    ``timeout`` without a retry: the search is deterministic, so a
    sibling would only repeat the slow evaluation.  A request whose
    *affinity* shard is already known-dead is rerouted before the
    first attempt.

    ``ingest`` is the zero-downtime hot-swap entry point (see
    :meth:`ingest`); it tolerates workers dying mid-ingest — the
    supervisor's warm restart reloads the new generation from the
    pool's assignment manifest.
    """

    def __init__(self,
                 pool: ShardPool,
                 max_pending: int = 64,
                 deadline_s: Optional[float] = None,
                 metrics=None,
                 registry: Optional[SnapshotRegistry] = None,
                 default_quota: Optional[TenantQuota] = None,
                 quotas: Optional[Mapping[str, TenantQuota]] = None,
                 gc_keep_last: Optional[int] = None,
                 trace_policy: Optional[TracePolicy] = None,
                 trace_buffer: Optional[TraceBuffer] = None,
                 failover_retries: int = 1) -> None:
        self.pool = pool
        self.admission = AdmissionController(
            max_pending, default_quota=default_quota, quotas=quotas)
        self.deadline_s = deadline_s
        self.metrics = metrics
        self.failover_retries = max(0, int(failover_retries))
        #: Total failover reroutes/retries (also a labelled counter on
        #: /metrics when a registry is attached).
        self.failovers = 0
        #: Trace retention policy and the ring the kept span trees land
        #: in (``GET /debug/traces``).  Coarse spans are recorded for
        #: *every* request — the policy only decides retention and
        #: which requests carry the fine engine-stage split.
        self.trace_policy = trace_policy or TracePolicy()
        self.trace_buffer = (TraceBuffer() if trace_buffer is None
                             else trace_buffer)
        if registry is None:
            registry = SnapshotRegistry()
            for venue, path in pool.initial_venues.items():
                gen = registry.add(venue, path)
                registry.activate(venue, gen.generation)
        self.registry = registry
        #: Generation GC policy: after each successful ingest, retired
        #: generations beyond the newest ``gc_keep_last`` are marked
        #: deleted and their snapshot files removed from disk (unless
        #: still referenced elsewhere).  ``None`` keeps every file
        #: forever — the historical behaviour, and the safe default
        #: when snapshot files are operator-managed.
        self.gc_keep_last = gc_keep_last
        self._ingest_lock = threading.Lock()
        #: Per-venue dynamic state (closures, schedules, keyword
        #: deltas), versioned and swapped atomically; see
        #: :mod:`repro.dynamic.state` and :meth:`delta`.
        self.dynamic = DynamicStore()
        self._delta_lock = threading.Lock()
        pool.add_listener(self._on_pool_event)

    # ------------------------------------------------------------------
    def _on_pool_event(self, event: str, fields: Dict) -> None:
        """Map the pool's supervision events onto metrics counters."""
        if self.metrics is None:
            return
        shard = fields.get("shard")
        if event == "worker_restart":
            self.metrics.inc("ikrq_worker_restarts_total", shard=shard)
        elif event == "worker_exit":
            self.metrics.inc("ikrq_worker_exits_total", shard=shard,
                             reason=str(fields.get("reason")))
        elif event == "worker_quarantined":
            self.metrics.inc("ikrq_worker_quarantined_total", shard=shard)
        elif event == "rpc_late_response":
            self.metrics.inc("ikrq_rpc_late_responses_total", shard=shard)

    def _venue_label(self, venue: str) -> str:
        """The metrics label for a venue — hosted ids only.

        Caller-supplied strings for venues we do not host must not
        become label values: each distinct value would mint a new
        counter series forever (unbounded registry growth and a
        Prometheus label-cardinality explosion from garbage traffic).
        """
        return venue if self.registry.has_venue(venue) else "_unhosted_"

    def _record(self, status: str, venue: str,
                elapsed: Optional[float] = None) -> None:
        if self.metrics is None:
            return
        self.metrics.inc("ikrq_requests_total", status=status,
                         venue=self._venue_label(venue))
        if elapsed is not None:
            self.metrics.observe("ikrq_request_latency_seconds", elapsed)

    def _count_failover(self, venue: str, from_shard: int,
                        to_shard: int, recorder: TraceRecorder,
                        kind: str) -> None:
        self.failovers += 1
        if self.metrics is not None:
            self.metrics.inc("ikrq_failovers_total",
                             venue=self._venue_label(venue), kind=kind)
        log_event(_log, logging.WARNING, "failover",
                  trace_id=recorder.trace_id, venue=venue,
                  from_shard=from_shard, to_shard=to_shard, kind=kind)

    def _finalise_trace(self,
                        recorder: TraceRecorder,
                        response: Dict,
                        venue: str,
                        sampled: bool,
                        forced: bool) -> Dict:
        """Close one request's trace: stamp the ``trace_id`` on the
        response, feed the stage histograms, retain the span tree when
        the policy says so, and emit the slow-query / error log line.

        Every dispatcher response passes through here — the coarse
        span tree exists for every request, retention is the only
        sampled decision."""
        status = str(response.get("status", "error"))
        policy = self.trace_policy
        doc = recorder.finish(status, venue=venue, sampled=sampled)
        duration_ms = doc["duration_ms"]
        doc["slow"] = policy.is_slow(duration_ms)
        doc["reason"] = policy.keep_reason(status, duration_ms, sampled,
                                           forced)
        response["trace_id"] = doc["trace_id"]
        label = self._venue_label(venue)
        if self.metrics is not None:
            for span in iter_spans(doc["spans"]):
                if span["name"] in STAGES:
                    self.metrics.observe(
                        "ikrq_stage_latency_seconds",
                        span["duration_ms"] / 1000.0,
                        stage=span["name"], venue=label)
        if doc["reason"] is not None:
            self.trace_buffer.add(doc)
        if doc["slow"] and status == "ok":
            log_event(_log, logging.WARNING, "slow_query",
                      trace_id=doc["trace_id"], venue=label,
                      status=status, duration_ms=duration_ms,
                      slow_ms=policy.slow_ms,
                      algorithm=doc.get("algorithm"),
                      shard=doc.get("shard"))
        elif status == "error":
            log_event(_log, logging.WARNING, "request_error",
                      trace_id=doc["trace_id"], venue=label,
                      duration_ms=duration_ms,
                      error=response.get("error"))
        return response

    def submit(self,
               query_doc: Dict,
               algorithm: str = "ToE",
               deadline_s: Optional[float] = None,
               sleep: Optional[float] = None,
               venue: Optional[str] = None,
               trace: bool = False,
               closures: Optional[Dict] = None,
               at: Optional[float] = None) -> Dict:
        """Evaluate one wire query through its venue's affinity shard
        (or, when that shard is down, a live sibling).

        ``closures`` is a per-query closure overlay in wire form
        (``{"closed_doors": [...], "sealed_partitions": [...]}``); it
        is merged with the venue's persistent overlay and — when
        ``at`` (a Unix timestamp) is supplied — with the doors whose
        schedules are closed at that instant.  The effective overlay
        and the venue's dynamic version are resolved exactly once, at
        admission, and shipped with the request: every answer reflects
        exactly one dynamic version, never a blend.

        ``trace=True`` forces retention of this request's span tree
        (and the fine engine-stage split) regardless of the sampling
        policy — the HTTP surface maps a ``"trace": true`` body field
        onto it.  Every response carries a ``trace_id``; whether the
        span tree behind it was retained in ``/debug/traces`` is the
        :class:`TracePolicy`'s call.
        """
        venue = DEFAULT_VENUE if venue is None else str(venue)
        forced = bool(trace)
        sampled = forced or self.trace_policy.sample()
        recorder = TraceRecorder()
        recorder.annotate(algorithm=algorithm)
        if (not isinstance(query_doc, dict)
                or "ps" not in query_doc or "pt" not in query_doc):
            self._record("bad_request", venue)
            return self._finalise_trace(
                recorder, {"status": "bad_request", "venue": venue,
                           "error": "query must carry ps and pt"},
                venue, sampled, forced)
        try:
            extra_overlay = ClosureOverlay.from_wire(closures)
            at = None if at is None else float(at)
            if deadline_s is not None:
                deadline_s = float(deadline_s)
            if not all(math.isfinite(v) for v in (at, deadline_s)
                       if v is not None):
                raise ValueError("at and deadline_s must be finite")
        except (TypeError, ValueError) as exc:
            self._record("bad_request", venue)
            return self._finalise_trace(
                recorder, {"status": "bad_request", "venue": venue,
                           "error": str(exc)},
                venue, sampled, forced)
        # One atomic read of the venue's dynamic state: the effective
        # overlay, keyword version and dynamic version all come from
        # this single view reference.
        dyn = self.dynamic.view(venue)
        overlay = dyn.effective_overlay(at=at, extra=extra_overlay)
        if dyn.version:
            recorder.annotate(dynamic_version=dyn.version)
        with recorder.span(STAGE_ADMISSION) as admission_span:
            if not self.registry.has_venue(venue):
                admission_span["annotations"]["decision"] = "unknown_venue"
                self._record("unknown_venue", venue)
                return self._finalise_trace(
                    recorder,
                    {"status": "unknown_venue", "venue": venue,
                     "error": f"venue {venue!r} is not hosted here"},
                    venue, sampled, forced)
            live = len(self.pool.live_shards())
            if live == 0:
                admission_span["annotations"]["decision"] = "no_live_shards"
                self._record("shard_down", venue)
                return self._finalise_trace(
                    recorder,
                    {"status": "shard_down", "venue": venue,
                     "error": "no live shards"},
                    venue, sampled, forced)
            # Degraded mode: admission tightens with the live fraction
            # so a half-dead pool sheds rather than queueing the full
            # depth into the survivors.
            admitted = self.admission.try_acquire(
                venue, capacity_fraction=live / float(self.pool.shards))
            admission_span["annotations"]["decision"] = (
                "admitted" if admitted else "shed")
        if not admitted:
            if self.metrics is not None:
                self.metrics.inc("ikrq_shed_total", venue=venue)
            self._record("overloaded", venue)
            return self._finalise_trace(
                recorder, {"status": "overloaded", "venue": venue},
                venue, sampled, forced)
        generation: Optional[Generation] = None
        try:
            try:
                with recorder.span(STAGE_GENERATION) as gen_span:
                    generation = self.registry.acquire(venue)
                    gen_span["annotations"]["generation"] = (
                        generation.generation)
            except KeyError:
                self._record("unknown_venue", venue)
                return self._finalise_trace(
                    recorder,
                    {"status": "unknown_venue", "venue": venue,
                     "error": f"venue {venue!r} is not hosted here"},
                    venue, sampled, forced)
            recorder.annotate(generation=generation.generation)
            try:
                affinity = shard_for(query_doc["ps"], query_doc["pt"],
                                     self.pool.shards, venue)
            except (TypeError, ValueError) as exc:
                self._record("bad_request", venue)
                return self._finalise_trace(
                    recorder, {"status": "bad_request", "venue": venue,
                               "error": repr(exc)},
                    venue, sampled, forced)
            shard = self.pool.resolve_shard(affinity)
            if shard is None:  # the fleet died since the live check
                self._record("shard_down", venue)
                return self._finalise_trace(
                    recorder,
                    {"status": "shard_down", "venue": venue,
                     "error": "no live shards"},
                    venue, sampled, forced)
            if shard != affinity:
                recorder.annotate(rerouted_from=affinity)
                self._count_failover(venue, affinity, shard, recorder,
                                     kind="reroute")
            recorder.annotate(shard=shard)
            limit = deadline_s if deadline_s is not None else self.deadline_s
            payload: Dict = {"kind": "search", "query": query_doc,
                             "algorithm": algorithm, "venue": venue,
                             "generation": generation.generation}
            if overlay:
                payload["overlay"] = overlay.to_wire()
            if dyn.keyword_version:
                payload["kw_version"] = dyn.keyword_version
            if limit is not None:
                payload["deadline"] = time.time() + limit
            if sleep is not None:
                payload["sleep"] = sleep
            with recorder.span(STAGE_DISPATCH) as dispatch_span:
                dispatch_span["annotations"]["shard"] = shard
                attempts = 0
                while True:
                    payload["trace"] = trace_request_to_wire(
                        recorder.trace_id, sampled, time.time())
                    if limit is not None:
                        # The deadline is absolute: a failover retry
                        # only gets the original request's remaining
                        # budget, never a fresh one.
                        timeout = (payload["deadline"] + _DEADLINE_GRACE
                                   - time.time())
                        if timeout <= 0:
                            response = {"status": "expired",
                                        "venue": venue, "shard": shard}
                            break
                    else:
                        timeout = None
                    response = self.pool.call(shard, payload,
                                              timeout=timeout)
                    status = (response.get("status")
                              if isinstance(response, dict) else "error")
                    if (status != "shard_down"
                            or attempts >= self.failover_retries):
                        break
                    sibling = self.pool.next_live_shard(shard)
                    if sibling is None:
                        break
                    attempts += 1
                    self._count_failover(venue, shard, sibling, recorder,
                                         kind="retry")
                    shard = sibling
                    dispatch_span["annotations"]["shard"] = shard
                    dispatch_span["annotations"]["failovers"] = attempts
                    recorder.annotate(shard=shard, failovers=attempts)
                # Graft the worker's sub-tree (offsets relative to the
                # enqueue instant) under the dispatch span.
                wire = (response.pop("trace", None)
                        if isinstance(response, dict) else None)
                if wire:
                    recorder.attach(shift_spans(
                        wire["spans"], dispatch_span["start_ms"]))
            if self.metrics is not None:
                # Shard-side evaluation time (excludes queueing and
                # dispatch): the second latency histogram on /metrics,
                # so p50/p95/p99 of pure search time can be read next
                # to the end-to-end request latencies.
                elapsed_shard = response.get("elapsed")
                if elapsed_shard is not None:
                    self.metrics.observe("ikrq_shard_search_latency_seconds",
                                         elapsed_shard, shard=shard,
                                         venue=venue)
            if isinstance(response, dict):
                # Which dynamic state produced this answer — the
                # sibling of the snapshot ``generation`` echo.
                response["dynamic_version"] = dyn.version
            self._record(response.get("status", "error"), venue,
                         recorder.elapsed_ms() / 1000.0)
            return self._finalise_trace(recorder, response, venue,
                                        sampled, forced)
        finally:
            if generation is not None:
                self.registry.release(generation)
            self.admission.release(venue)

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------
    def ingest(self,
               venue: str,
               snapshot_path: str,
               drain_timeout: float = 60.0,
               load_timeout: float = 120.0) -> Dict:
        """Load ``snapshot_path`` as ``venue``'s next generation and
        hot-swap it in without dropping traffic.

        The sequence (one ingest at a time; concurrent calls serialise):

        1. register the next generation (state ``loading``),
        2. broadcast the load into every live shard — traffic keeps
           flowing on the current generation while shards adopt the
           snapshot,
        3. **atomically flip** the active generation in the registry —
           from this instant every new request lands on the new
           generation,
        4. **drain barrier** — wait until requests in flight on the old
           generation have all finished (they complete on the engines
           they started on, so answers stay byte-identical throughout),
        5. evict the old generation from every shard and retire it,
        6. **garbage-collect**: with a ``gc_keep_last`` policy, retired
           generations beyond the rollback window are marked deleted
           and their snapshot files removed from disk (logged, and
           reported under ``gc`` in the result) — without it, repeated
           ingests would accumulate dead generation files forever.

        A worker that dies mid-ingest does not wedge the venue: its
        load report comes back ``shard_down`` (tolerated — the warm
        restart reloads the new generation from the pool's assignment
        manifest before the replacement serves a single request), the
        flip proceeds on the survivors, and only a *deterministic*
        load failure (bad snapshot) or the whole fleet being down
        aborts the swap all-or-nothing.

        Returns a report with per-phase latencies; ``status`` is
        ``"ok"`` or ``"error"`` (a load failure leaves the old
        generation active and untouched — ingest is all-or-nothing).
        """
        venue = str(venue)
        started = time.perf_counter()
        with self._ingest_lock:
            gen = self.registry.add(venue, snapshot_path)
            load_started = time.perf_counter()
            reports = self.pool.load(venue, gen.generation, snapshot_path,
                                     timeout=load_timeout)
            down = [doc for doc in reports
                    if doc.get("status") == "shard_down"]
            failed = [doc for doc in reports
                      if doc.get("status") not in ("ok", "shard_down")]
            if failed or len(down) == len(reports):
                self.registry.fail(venue, gen.generation)
                # Evict from every shard: the ones that *did* load the
                # generation would otherwise hold its engines forever
                # (numbers are never reused).  A shard still finishing
                # a timed-out load processes the evict right after it,
                # same queue, so nothing leaks there either.  The
                # evict also removes the assignment, so warm restarts
                # stop reloading the failed generation.
                self.pool.evict(venue, gen.generation)
                if self.metrics is not None:
                    self.metrics.inc("ikrq_ingest_total", venue=venue,
                                     status="error")
                first = (failed or down)[0]
                return {"status": "error", "venue": venue,
                        "generation": gen.generation,
                        "error": (f"{len(failed)} shard(s) failed to load: "
                                  f"{first.get('error', first)}"
                                  if failed else
                                  "no live shards to load into")}
            if down:
                # Survivable mid-ingest deaths: the flip proceeds on
                # the live shards; replacements warm-restart onto the
                # new generation from the assignment manifest.
                log_event(_log, logging.WARNING, "ingest_degraded",
                          venue=venue, generation=gen.generation,
                          down_shards=[doc.get("shard") for doc in down])
            load_seconds = time.perf_counter() - load_started
            gen.load_seconds = load_seconds
            previous = self.registry.activate(venue, gen.generation)
            drain_started = time.perf_counter()
            drained = True
            if previous is not None:
                drained = self.registry.drain(previous,
                                              timeout=drain_timeout)
                self.pool.evict(venue, previous.generation)
                self.registry.retire(previous)
            drain_seconds = time.perf_counter() - drain_started
            gc_report = self._collect_garbage(venue)
            swap_seconds = time.perf_counter() - started
            if self.metrics is not None:
                self.metrics.inc("ikrq_ingest_total", venue=venue,
                                 status="ok")
                self.metrics.observe("ikrq_swap_latency_seconds",
                                     swap_seconds, venue=venue)
            return {
                "status": "ok",
                "venue": venue,
                "generation": gen.generation,
                "previous_generation": (previous.generation
                                        if previous is not None else None),
                "load_seconds": load_seconds,
                "drain_seconds": drain_seconds,
                "swap_seconds": swap_seconds,
                "drained": drained,
                "shards_loaded": len(reports) - len(down),
                "shards_down": len(down),
                "gc": gc_report,
            }

    # ------------------------------------------------------------------
    # Dynamic deltas
    # ------------------------------------------------------------------
    def delta(self,
              venue: str,
              ops: Sequence[Dict],
              timeout: float = 60.0) -> Dict:
        """Apply dynamic edit ``ops`` to a venue without re-ingesting.

        Door-state and schedule ops (``close_door`` / ``open_door`` /
        ``seal_partition`` / ``unseal_partition`` / ``set_schedule`` /
        ``clear_schedule``) only touch the dispatcher's
        :class:`~repro.dynamic.state.DynamicStore` — their closures
        are compiled into each request's banned sets at admission, and
        every shard cache is keyed by overlay identity, so no
        invalidation is needed beyond the version bump.  Keyword ops
        are additionally broadcast into every live shard, where a
        sibling engine (sharing the mmap'd snapshot indexes) replays
        them under the new ``keyword_version``.

        Atomicity: the new view is *derived* first, the keyword
        broadcast runs against the fleet, and only then is the view
        *published* — a concurrent query sees either the old or the
        new version in full, never a blend, and is never stamped with
        a keyword version its shard cannot serve.  One delta at a
        time; concurrent calls serialise.
        """
        venue = str(venue)
        started = time.perf_counter()
        if not self.registry.has_venue(venue):
            return {"status": "unknown_venue", "venue": venue,
                    "error": f"venue {venue!r} is not hosted here"}
        with self._delta_lock:
            try:
                old, new = self.dynamic.derive(venue, ops)
            except DeltaError as exc:
                if self.metrics is not None:
                    self.metrics.inc("ikrq_delta_total", venue=venue,
                                     status="bad_request")
                return {"status": "bad_request", "venue": venue,
                        "error": str(exc)}
            doors = sorted(new.overlay.closed_doors
                           | {did for did, _ in new.schedules})
            partitions = sorted(new.overlay.sealed_partitions)
            if doors or partitions:
                # Ask one live shard whether the ids exist before
                # anything is published (the dispatcher holds no venue
                # model); bogus ids must answer bad_request, not break
                # the venue's traffic.
                verdict: Optional[Dict] = None
                for shard in self.pool.live_shards():
                    verdict = self.pool.call(
                        shard, {"kind": "validate", "venue": venue,
                                "doors": doors, "partitions": partitions},
                        timeout=timeout)
                    if verdict.get("status") == "ok":
                        break
                if verdict is None or verdict.get("status") != "ok":
                    return {"status": "error", "venue": venue,
                            "error": "no live shard could validate the "
                                     "delta ids"}
                unknown = (list(verdict.get("unknown_doors") or [])
                           + list(verdict.get("unknown_partitions") or []))
                if unknown:
                    if self.metrics is not None:
                        self.metrics.inc("ikrq_delta_total", venue=venue,
                                         status="bad_request")
                    return {
                        "status": "bad_request", "venue": venue,
                        "error": (f"unknown ids in delta: doors "
                                  f"{verdict.get('unknown_doors')}, "
                                  f"partitions "
                                  f"{verdict.get('unknown_partitions')}")}
            reports: List[Dict] = []
            if new.keyword_version != old.keyword_version:
                kw_payload = [dict(op) for op in new.keyword_ops]
                # Manifest first: a worker dying mid-broadcast is
                # replaced by one that replays the delta before
                # serving (same ordering as snapshot assignments).
                self.pool.record_delta(venue, new.keyword_version,
                                       kw_payload)
                reports = self.pool.broadcast(
                    {"kind": "delta", "venue": venue,
                     "kw_version": new.keyword_version,
                     "ops": kw_payload}, timeout=timeout)
                failed = [doc for doc in reports
                          if doc.get("status") not in ("ok", "shard_down")]
                if failed:
                    # Deterministic replay failure (bad op against this
                    # snapshot): nothing was published, the venue stays
                    # on the old version everywhere.
                    self.pool.record_delta(
                        venue, old.keyword_version,
                        [dict(op) for op in old.keyword_ops])
                    if self.metrics is not None:
                        self.metrics.inc("ikrq_delta_total", venue=venue,
                                         status="error")
                    first = failed[0]
                    return {"status": "error", "venue": venue,
                            "error": (f"{len(failed)} shard(s) failed to "
                                      f"apply: {first.get('error', first)}")}
            self.dynamic.publish(venue, new)
        log_event(_log, logging.INFO, "delta_applied", venue=venue,
                  version=new.version,
                  keyword_version=new.keyword_version,
                  ops=len(list(ops)),
                  keyword_broadcast=bool(reports),
                  closed_doors=len(new.overlay.closed_doors),
                  sealed_partitions=len(new.overlay.sealed_partitions))
        if self.metrics is not None:
            self.metrics.inc("ikrq_delta_total", venue=venue, status="ok")
        return {
            "status": "ok",
            "venue": venue,
            "version": new.version,
            "keyword_version": new.keyword_version,
            "overlay": new.overlay.to_wire(),
            "scheduled_doors": sorted(did for did, _ in new.schedules),
            "keyword_broadcast": bool(reports),
            "shards_applied": sum(1 for doc in reports
                                  if doc.get("status") == "ok"),
            "elapsed": time.perf_counter() - started,
        }

    def _collect_garbage(self, venue: str) -> List[Dict]:
        """Apply the ``gc_keep_last`` policy to ``venue``'s generations.

        The registry decides *which* generations die (retired beyond
        the rollback window, plus failed ones — never active, draining
        or loading; see :meth:`SnapshotRegistry.collect`); this method
        owns the file removal, skipping any snapshot path a live
        generation of *any* venue still references.  Every deletion is
        logged and counted (``ikrq_gc_deleted_total``).
        """
        if self.gc_keep_last is None:
            return []
        report: List[Dict] = []
        for gen in self.registry.collect(venue, self.gc_keep_last):
            removed = False
            deferred = False
            if self.registry.path_in_use(gen.path):
                log_event(_log, logging.INFO, "gc_file_kept",
                          venue=venue, generation=gen.generation,
                          path=gen.path,
                          detail="still referenced by a live generation")
            else:
                try:
                    os.remove(gen.path)
                    removed = True
                    log_event(_log, logging.INFO, "gc_file_deleted",
                              venue=venue, generation=gen.generation,
                              path=gen.path)
                except FileNotFoundError:
                    log_event(_log, logging.INFO, "gc_file_already_gone",
                              venue=venue, generation=gen.generation,
                              path=gen.path)
                except OSError as exc:
                    # Transient failure: put the record back to
                    # ``retired`` so the next ingest's sweep retries —
                    # a terminal ``deleted`` record with the file still
                    # on disk would be an invisible, permanent leak.
                    self.registry.restore_retired(gen)
                    deferred = True
                    log_event(_log, logging.WARNING, "gc_delete_deferred",
                              venue=venue, generation=gen.generation,
                              path=gen.path, error=repr(exc),
                              detail="will retry on the next ingest")
            if not deferred and self.metrics is not None:
                self.metrics.inc("ikrq_gc_deleted_total", venue=venue)
            report.append({"generation": gen.generation,
                           "path": gen.path,
                           "file_removed": removed,
                           "deferred": deferred})
        return report
