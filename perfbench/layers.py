"""The traced run (``--trace 1``): where each millisecond goes.

The workload's fixed-rate traffic runs twice on one fleet: untraced,
then with ``"trace": true`` on every request (the p50 of each is
reported, so the tracing overhead shows).  Each traced request's
span tree (``GET /debug/traces/<id>``) splits its HTTP round trip:

* ``server.http_ms`` — round trip minus the dispatcher trace duration
  (HTTP parse, JSON encode, sockets, handler threads),
* ``pool.admission_ms`` — the admission and generation-acquire spans,
* ``pool.queue_wait_ms``, ``wire.decode_ms``, ``engine.search_ms`` —
  the shard worker's spans,
* ``pool.ipc_ms`` — ``shard_dispatch`` minus the worker's spans (pipe
  transit both ways, answer encoding),
* ``graph.relaxation_ms`` / ``skeleton.lower_bound_ms`` /
  ``framework.merge_ms`` — the engine span's fine split (merge is the
  engine's own residual),
* ``trace.residual_ms`` — dispatcher time outside every span: the part
  of the round trip no layer claims.

Means per request, so the parts add up to the mean round trip.
Counters come from ``/metrics`` scraped before and after the traffic;
``engine.inproc_qps`` / ``engine.service_qps`` time sequential
``IKRQEngine.search`` / ``QueryService.search`` calls on the same
queries in this process, and ``snapshot.load_s`` times
``load_snapshot``.  No tracing is added inside the program.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Sequence

from repro.core.engine import QueryService
from repro.dynamic import ClosureOverlay
from repro.serve.snapshot import load_snapshot

import checks
import loadgen
import run
from loadgen import Item
from venue import Venue
from workloads import Traffic, Workload, search_body

#: Span trees fetched and decomposed per run: the newest traced
#: answers, which the dispatcher's trace ring (256 entries) still holds.
TRACES = 200
#: Idle delta probes, each followed by one search under the new overlay
#: (one distinct overlay per probe, so every probe rebuilds its state).
DYNAMIC_PROBES = 6
#: Queries replayed sequentially in-process.
INPROC_QUERIES = 60
LOADS = 3


def _span_parts(trace: Dict) -> Dict[str, float]:
    parts = dict.fromkeys(
        ("admission", "queue_wait", "decode", "ipc", "engine",
         "relaxation", "lower_bound", "merge", "residual"), 0.0)
    claimed = 0.0
    for span in trace["spans"]:
        name, ms = span["name"], span["duration_ms"]
        claimed += ms
        if name in ("admission", "generation_acquire"):
            parts["admission"] += ms
        elif name == "shard_dispatch":
            worker = 0.0
            for child in span.get("children", ()):
                cms = child["duration_ms"]
                worker += cms
                if child["name"] == "queue_wait":
                    parts["queue_wait"] += cms
                elif child["name"] == "wire_decode":
                    parts["decode"] += cms
                elif child["name"] == "engine":
                    parts["engine"] += cms
                    for stage in child.get("children", ()):
                        parts[stage["name"]] += stage["duration_ms"]
            parts["ipc"] += ms - worker
    parts["residual"] = trace["duration_ms"] - claimed
    return parts


def decompose(port: int, items: Sequence[Item]) -> Dict:
    """Mean per-request layer times over the newest traced answers."""
    ok = sorted((it for it in items if it.path == "/search" and it.ok),
                key=lambda it: it.ended)
    sample = ok[-TRACES:]
    sums: Dict[str, float] = {}
    for item in sample:
        trace_id = json.loads(item.raw)["trace_id"]
        doc = loadgen.get_json(port, f"/debug/traces/{trace_id}")
        if doc.get("status") != "ok":
            raise RuntimeError(f"trace {trace_id} was not retained")
        trace = doc["trace"]
        parts = _span_parts(trace)
        parts["http"] = item.rtt_ms - trace["duration_ms"]
        parts["rtt"] = item.rtt_ms
        for name, value in parts.items():
            sums[name] = sums.get(name, 0.0) + value
    return {name: value / len(sample) for name, value in sums.items()}


def dynamic_probes(port: int, traffic: Traffic,
                   reference: checks.Reference) -> Dict[str, float]:
    """``POST /delta`` round trips and the first search after each.

    Every probe closes a distinct venue-wide door set, so each first
    search rebuilds its overlay state; its answer must match a
    from-scratch engine on the venue edited by exactly the overlay the
    delta published.
    """
    deltas: List[float] = []
    firsts: List[float] = []
    mismatches = 0
    queries = ([traffic.queries[q] for q in traffic.pool] if traffic.pool
               else traffic.fresh_queries(DYNAMIC_PROBES))
    for i in range(DYNAMIC_PROBES):
        close, reopen = traffic.surge_bodies(offset=i)
        query = queries[i % len(queries)]
        algorithm = traffic.algorithms[i % len(traffic.algorithms)]
        docs = []
        for path, body in (("/delta", close),
                           ("/search", search_body(query, algorithm)),
                           ("/delta", reopen)):
            started = time.perf_counter()
            code, raw = loadgen.request(port, "POST", path, body)
            ms = (time.perf_counter() - started) * 1000.0
            if code != 200:
                raise RuntimeError(f"probe {path} failed: HTTP {code} {raw!r}")
            (deltas if path == "/delta" else firsts).append(ms)
            docs.append(json.loads(raw))
        applied, answer, _ = docs
        overlay = ClosureOverlay.from_wire(applied["overlay"])
        if (answer.get("dynamic_version") != applied["version"]
                or checks.canonical_answer(answer)
                != reference.answer(query, algorithm, overlay)):
            mismatches += 1
    return {"delta_ms": loadgen.median(deltas),
            "first_search_ms": loadgen.median(firsts),
            "mismatches": mismatches}


def inprocess(venue: Venue, traffic: Traffic, items: Sequence[Item]) -> Dict:
    """Sequential engine and service throughput on the same queries,
    and the snapshot load time."""
    loads = []
    for _ in range(LOADS):
        started = time.perf_counter()
        engine = load_snapshot(venue.snapshot, mmap=True)
        loads.append(time.perf_counter() - started)
    keys = [it.key for it in items if it.path == "/search"][:INPROC_QUERIES]
    started = time.perf_counter()
    for qid, algorithm in keys:
        engine.search(traffic.queries[qid], algorithm)
    engine_s = time.perf_counter() - started
    service = QueryService(load_snapshot(venue.snapshot, mmap=True),
                           workers=1)
    started = time.perf_counter()
    for qid, algorithm in keys:
        service.search(traffic.queries[qid], algorithm)
    service_s = time.perf_counter() - started
    return {"load_s": loadgen.median(loads),
            "inproc_qps": len(keys) / engine_s,
            "service_qps": len(keys) / service_s}


def traced_run(workload: Workload, seed: int, seconds: int) -> Dict:
    venue = Venue()
    traffic = Traffic(workload, venue, seed)
    reference = checks.Reference(venue)
    phase_s = seconds * 0.4
    rate = workload.rate_qps
    with run.start_fleet(venue, setups=1) as fleet:
        run.warm(fleet.port, traffic)
        before = loadgen.scrape_metrics(fleet.port)
        plain = loadgen.run_phase(fleet.port,
                                  traffic.phase_items(rate, phase_s))
        traced = loadgen.run_phase(
            fleet.port, traffic.phase_items(rate, phase_s, trace=True))
        after = loadgen.scrape_metrics(fleet.port)
        parts = decompose(fleet.port, traced.items)
        dynamic = dynamic_probes(fleet.port, traffic, reference)
    local = inprocess(venue, traffic, traced.items)

    items = plain.items + traced.items
    identity = checks.verify(
        items, traffic.queries, reference,
        run.COLD_SAMPLE if workload.pool is None else None, seed)
    hit_ratio = run.answer_hit_ratio(before, after)

    def delta(name: str, **labels) -> float:
        return run.counter_delta(before, after, name, **labels)

    served = delta("ikrq_shard_queries_served", lacks_label="venue") or 1.0
    point_hits = delta("ikrq_shard_point_map_hits", lacks_label="venue")
    point_misses = delta("ikrq_shard_point_map_misses", lacks_label="venue")
    pre_hits = delta("ikrq_search_precomputed_hits")
    pre_misses = delta("ikrq_search_precomputed_misses")
    searches = [it for it in items if it.path == "/search"]
    failed = sum(1 for it in items if not it.ok)
    shed = sum(1 for it in searches if it.code == 503)
    plain_lat = loadgen.phase_latency(plain, workload.limit_ms)
    traced_lat = loadgen.phase_latency(traced, workload.limit_ms)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "server.http_ms": (parts["http"], "ms"),
        "pool.admission_ms": (parts["admission"], "ms"),
        "pool.queue_wait_ms": (parts["queue_wait"], "ms"),
        "pool.ipc_ms": (parts["ipc"], "ms"),
        "pool.shed_frac": (ratio(shed, len(searches)), "frac"),
        "pool.failovers": (delta("ikrq_failovers_total"), "count"),
        "wire.decode_ms": (parts["decode"], "ms"),
        "engine.search_ms": (parts["engine"], "ms"),
        "engine.inproc_qps": (local["inproc_qps"], "1/s"),
        "engine.service_qps": (local["service_qps"], "1/s"),
        "engine.answer_hit_ratio": (hit_ratio, "frac"),
        "engine.point_map_hit_ratio": (
            ratio(point_hits, point_hits + point_misses), "frac"),
        "framework.merge_ms": (parts["merge"], "ms"),
        "framework.expansions_per_q": (
            delta("ikrq_search_expansions") / served, "count"),
        "framework.pruned_per_q": (
            delta("ikrq_search_pruned_total") / served, "count"),
        "framework.connects_per_q": (
            delta("ikrq_search_connects") / served, "count"),
        "graph.relaxation_ms": (parts["relaxation"], "ms"),
        "graph.dijkstra_calls_per_q": (
            delta("ikrq_search_dijkstra_calls") / served, "count"),
        "graph.matrix_hit_ratio": (
            ratio(pre_hits, pre_hits + pre_misses), "frac"),
        "graph.matrix_evictions": (
            delta("ikrq_shard_door_matrix_evictions", lacks_label="venue"),
            "count"),
        "skeleton.lower_bound_ms": (parts["lower_bound"], "ms"),
        "dynamic.delta_ms": (dynamic["delta_ms"], "ms"),
        "dynamic.first_search_after_delta_ms": (dynamic["first_search_ms"],
                                                "ms"),
        "snapshot.load_s": (local["load_s"], "s"),
        "gen.send_lag_p95_ms": (plain_lat["send_lag_p95_ms"], "ms"),
        "gen.cpu_frac": (plain.cpu_s / plain.wall_s, "frac"),
        "trace.residual_ms": (parts["residual"], "ms"),
        "trace.rtt_ms": (parts["rtt"], "ms"),
        "trace.untraced_p50_ms": (plain_lat["p50_ms"], "ms"),
        "trace.traced_p50_ms": (traced_lat["p50_ms"], "ms"),
    }
    gates = run.workload_gates(workload, identity, hit_ratio)
    gates["overlay_answers_identical"] = dynamic["mismatches"] == 0
    gates["no_failures"] = failed == 0
    record = {"environment": run.environment(seed, workload, seconds),
              "venue": venue.describe(), "gates": gates,
              "identity": identity, "untraced_phase": plain_lat,
              "traced_phase": traced_lat, "layers_mean_ms": parts}
    return run.finish(metrics, record, len(items), failed)
