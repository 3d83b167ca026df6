"""The observability subsystem: span trees, sampling policy, the trace
ring, structured JSON-lines logging, the engine stage probe, and the
traced path through the sharded dispatcher."""

from __future__ import annotations

import io
import json
import logging
import random
import threading
import time

import pytest

from repro.core import IKRQ, IKRQEngine, QueryService
from repro.obs import (STAGES, EngineTrace, JsonLinesFormatter, TraceBuffer,
                       TracePolicy, TraceRecorder, format_trace, iter_spans,
                       log_event, new_trace_id, setup_serve_logging,
                       shift_spans, span_doc)


# ----------------------------------------------------------------------
# Span documents
# ----------------------------------------------------------------------
class TestSpanDocs:
    def test_span_doc_rounds_and_nests(self):
        child = span_doc("engine", 1.23456, 7.89012, note="x")
        parent = span_doc("shard_dispatch", 0.0, 10.0, children=[child])
        assert child["start_ms"] == 1.235
        assert child["duration_ms"] == 7.89
        assert child["annotations"] == {"note": "x"}
        assert parent["children"] == [child]

    def test_shift_spans_is_recursive(self):
        spans = [span_doc("queue_wait", 0.0, 2.0,
                          children=[span_doc("engine", 0.5, 1.0)])]
        shifted = shift_spans(spans, 10.0)
        assert shifted[0]["start_ms"] == 10.0
        assert shifted[0]["children"][0]["start_ms"] == 10.5

    def test_iter_spans_walks_children(self):
        spans = [span_doc("a", 0.0, 1.0,
                          children=[span_doc("b", 0.0, 0.5)]),
                 span_doc("c", 1.0, 1.0)]
        assert [s["name"] for s in iter_spans(spans)] == ["a", "b", "c"]

    def test_trace_ids_are_distinct(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64


# ----------------------------------------------------------------------
# Recorder
# ----------------------------------------------------------------------
class TestTraceRecorder:
    def test_nesting_follows_with_blocks(self):
        rec = TraceRecorder()
        with rec.span("admission", decision="admitted"):
            pass
        with rec.span("shard_dispatch") as outer:
            with rec.span("engine"):
                time.sleep(0.001)
        doc = rec.finish("ok", venue="default")
        names = [s["name"] for s in doc["spans"]]
        assert names == ["admission", "shard_dispatch"]
        dispatch = doc["spans"][1]
        assert [c["name"] for c in dispatch["children"]] == ["engine"]
        assert dispatch["duration_ms"] >= dispatch["children"][0][
            "duration_ms"]
        assert doc["venue"] == "default"
        assert doc["status"] == "ok" and doc["trace_id"] == rec.trace_id
        assert outer["name"] == "shard_dispatch"

    def test_attach_grafts_under_open_span(self):
        rec = TraceRecorder()
        worker = [span_doc("queue_wait", 0.0, 1.5)]
        with rec.span("shard_dispatch") as frame:
            rec.attach(shift_spans(worker, frame["start_ms"]))
        doc = rec.finish("ok")
        children = doc["spans"][0]["children"]
        assert [c["name"] for c in children] == ["queue_wait"]

    def test_annotations_land_on_the_document(self):
        rec = TraceRecorder()
        rec.annotate(algorithm="ToE", shard=1)
        doc = rec.finish("ok")
        assert doc["algorithm"] == "ToE" and doc["shard"] == 1


# ----------------------------------------------------------------------
# Engine stage split
# ----------------------------------------------------------------------
class TestEngineTrace:
    def test_coarse_trace_has_no_stage_spans(self):
        trace = EngineTrace(fine=False)
        assert trace.stage_spans(0.0, 10.0) == []

    def test_fine_spans_cover_the_engine_window(self):
        trace = EngineTrace(fine=True)
        trace.stages["relaxation"] = 0.004
        trace.stages["lower_bound"] = 0.001
        spans = trace.stage_spans(100.0, 10.0)
        assert [s["name"] for s in spans] == ["relaxation", "lower_bound",
                                              "merge"]
        assert spans[0]["start_ms"] == 100.0
        assert spans[1]["start_ms"] == 104.0
        assert spans[2]["duration_ms"] == pytest.approx(5.0, abs=0.01)
        assert sum(s["duration_ms"] for s in spans) == pytest.approx(
            10.0, abs=0.01)

    def test_merge_residual_never_negative(self):
        trace = EngineTrace(fine=True)
        # Probe overhead can make measured stages exceed the window.
        trace.stages["relaxation"] = 0.020
        spans = trace.stage_spans(0.0, 10.0)
        assert spans[-1]["name"] == "merge"
        assert spans[-1]["duration_ms"] == 0.0


# ----------------------------------------------------------------------
# Sampling / retention policy
# ----------------------------------------------------------------------
class TestTracePolicy:
    def test_rejects_bad_sample_rate(self):
        with pytest.raises(ValueError):
            TracePolicy(sample_rate=1.5)
        with pytest.raises(ValueError):
            TracePolicy(sample_rate=-0.1)

    def test_sample_extremes(self):
        assert not any(TracePolicy(sample_rate=0.0).sample()
                       for _ in range(50))
        assert all(TracePolicy(sample_rate=1.0).sample()
                   for _ in range(50))

    def test_sample_rate_is_probabilistic(self):
        policy = TracePolicy(sample_rate=0.5, rng=random.Random(7))
        hits = sum(policy.sample() for _ in range(2000))
        assert 800 < hits < 1200

    def test_keep_reason_precedence(self):
        policy = TracePolicy(sample_rate=0.0, slow_ms=100.0)
        assert policy.keep_reason("overloaded", 0.0, sampled=True,
                                  forced=True) == "forced"
        assert policy.keep_reason("overloaded", 500.0,
                                  sampled=True) == "shed"
        assert policy.keep_reason("error", 500.0, sampled=True) == "error"
        assert policy.keep_reason("ok", 500.0, sampled=True) == "slow"
        assert policy.keep_reason("ok", 5.0, sampled=True) == "sampled"
        assert policy.keep_reason("ok", 5.0, sampled=False) is None

    def test_slow_threshold_disabled_at_zero(self):
        policy = TracePolicy(slow_ms=0.0)
        assert not policy.is_slow(10_000.0)
        assert TracePolicy(slow_ms=1.0).is_slow(1.0)


# ----------------------------------------------------------------------
# Trace ring
# ----------------------------------------------------------------------
class TestTraceBuffer:
    def _doc(self, i, venue="default"):
        return {"trace_id": f"t{i:04d}", "status": "ok", "venue": venue,
                "duration_ms": float(i), "ts": float(i), "spans": []}

    def test_evicts_oldest_beyond_capacity(self):
        buf = TraceBuffer(capacity=3)
        for i in range(5):
            buf.add(self._doc(i))
        assert len(buf) == 3
        assert buf.get("t0000") is None and buf.get("t0001") is None
        assert buf.get("t0004")["duration_ms"] == 4.0

    def test_recent_is_newest_first_and_filters_venue(self):
        buf = TraceBuffer(capacity=8)
        for i in range(4):
            buf.add(self._doc(i, venue="mall" if i % 2 else "airport"))
        listing = buf.recent(limit=10)
        assert [d["trace_id"] for d in listing] == [
            "t0003", "t0002", "t0001", "t0000"]
        mall = buf.recent(limit=10, venue="mall")
        assert [d["trace_id"] for d in mall] == ["t0003", "t0001"]
        # Summaries carry no span payload.
        assert all("spans" not in d for d in listing)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)

    def test_concurrent_adds_respect_capacity(self):
        buf = TraceBuffer(capacity=16)

        def pound(base):
            for i in range(200):
                buf.add({"trace_id": f"{base}-{i}", "status": "ok",
                         "ts": 0.0, "duration_ms": 0.0, "spans": []})

        threads = [threading.Thread(target=pound, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(buf) == 16


# ----------------------------------------------------------------------
# CLI rendering
# ----------------------------------------------------------------------
class TestFormatTrace:
    def test_renders_header_and_tree(self):
        rec = TraceRecorder()
        with rec.span("shard_dispatch"):
            with rec.span("engine", answer_cache="miss"):
                pass
        doc = rec.finish("ok", venue="default", reason="slow", slow=True)
        text = format_trace(doc)
        assert f"trace {doc['trace_id']}" in text
        assert "venue=default" in text and "slow" in text
        assert "└─ shard_dispatch" in text
        assert "└─ engine" in text and "answer_cache=miss" in text


# ----------------------------------------------------------------------
# Structured JSON-lines logging
# ----------------------------------------------------------------------
class TestJsonLogging:
    def test_log_event_renders_one_json_object(self):
        stream = io.StringIO()
        logger = setup_serve_logging(stream=stream)
        try:
            log_event(logging.getLogger("repro.serve"), logging.WARNING,
                      "slow_query", trace_id="abc", duration_ms=12.5)
        finally:
            logger.handlers.clear()
        doc = json.loads(stream.getvalue().strip())
        assert doc["event"] == "slow_query"
        assert doc["trace_id"] == "abc" and doc["duration_ms"] == 12.5
        assert doc["level"] == "WARNING"
        assert doc["logger"] == "repro.serve"

    def test_setup_is_idempotent(self):
        stream = io.StringIO()
        logger = setup_serve_logging(stream=stream)
        try:
            setup_serve_logging(stream=stream)
            marked = [h for h in logger.handlers
                      if getattr(h, "_repro_obs_handler", False)]
            assert len(marked) == 1
        finally:
            logger.handlers.clear()

    def test_plain_records_still_format(self):
        record = logging.LogRecord("repro.serve", logging.INFO, __file__,
                                   1, "venue %s ready", ("mall",), None)
        doc = json.loads(JsonLinesFormatter().format(record))
        assert doc["event"] == "venue mall ready"

    def test_level_guard_skips_disabled_events(self):
        stream = io.StringIO()
        logger = setup_serve_logging(level=logging.WARNING, stream=stream)
        try:
            log_event(logging.getLogger("repro.serve"), logging.DEBUG,
                      "noisy")
        finally:
            logger.handlers.clear()
        assert stream.getvalue() == ""


# ----------------------------------------------------------------------
# The engine stage probe + the traced QueryService path
# ----------------------------------------------------------------------
class TestTracedSearch:
    def test_probe_only_observes(self, fig1, fig1_engine):
        query = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=60.0,
                     keywords=("latte", "apple"), k=3)
        bare = fig1_engine.search(query, "ToE")
        trace = EngineTrace(fine=True)
        ctx = fig1_engine.context(query)
        ctx.attach_stage_probe(trace.stages)
        probed = fig1_engine.search(query, "ToE", context=ctx)
        from repro.serve import answer_to_wire, canonical_json
        assert canonical_json(answer_to_wire(probed)) \
            == canonical_json(answer_to_wire(bare))
        assert set(trace.stages) <= {"relaxation", "lower_bound"}
        assert trace.stages.get("relaxation", 0.0) > 0.0

    def test_new_pair_fill_counts_as_lower_bound(self):
        """A fine-traced first-seen endpoint pair fills its dense
        bounds inside the lower-bound stage, and answers exactly like
        an untraced evaluation."""
        from repro.core.query import QueryContext
        from repro.datasets.synth import SynthMallConfig, build_synth_mall
        from repro.serve import answer_to_wire, canonical_json
        assert "fill_door_bounds" in QueryContext._LOWER_BOUND_PROBES
        space, kindex = build_synth_mall(
            SynthMallConfig(floors=2, rooms_per_floor=10, seed=9))
        engine = IKRQEngine(space, kindex)
        doors = sorted(space.doors)
        query = IKRQ(ps=space.door(doors[3]).position,
                     pt=space.door(doors[-5]).position, delta=300.0,
                     keywords=tuple(sorted(kindex.iwords)[:2]), k=3)
        assert query.ps.floor != query.pt.floor
        for algorithm in ("ToE", "KoE"):
            traced_service = QueryService(engine, workers=1)
            trace = EngineTrace(fine=True)
            traced = traced_service.search(query, algorithm, trace=trace)
            entry = next(iter(traced_service._point_maps.values()))
            assert entry["lb_from_ps"][0] is not None
            assert entry["lb_to_pt"][0] is not None
            assert trace.stages.get("lower_bound", 0.0) > 0.0
            bare = QueryService(engine, workers=1).search(query, algorithm)
            assert bare.routes
            assert (canonical_json(answer_to_wire(traced))
                    == canonical_json(answer_to_wire(bare)))

    def test_service_annotates_cache_outcome_and_counters(self, fig1):
        engine = IKRQEngine(fig1.space, fig1.kindex)
        service = QueryService(engine, workers=1)
        query = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=60.0,
                     keywords=("coffee",), k=2)
        miss = EngineTrace(fine=True)
        service.search(query, "ToE", trace=miss)
        assert miss.annotations["answer_cache"] == "miss"
        assert miss.annotations["expansions"] > 0
        assert miss.stages.get("relaxation", 0.0) > 0.0
        hit = EngineTrace(fine=True)
        service.search(query, "ToE", trace=hit)
        assert hit.annotations["answer_cache"] == "hit"
        assert hit.stages == {}
        totals = service.search_counters()
        assert set(totals) == set(QueryService.SEARCH_COUNTERS)
        assert totals["expansions"] == miss.annotations["expansions"]


# ----------------------------------------------------------------------
# Dispatcher-level tracing over the process pool
# ----------------------------------------------------------------------
class TestDispatcherTracing:
    @pytest.fixture(scope="class")
    def snapshot_path(self, tmp_path_factory):
        from repro.datasets import paper_fig1
        from repro.serve import save_snapshot
        fixture = paper_fig1()
        engine = IKRQEngine(fixture.space, fixture.kindex)
        path = tmp_path_factory.mktemp("obs") / "fig1.snapshot.json"
        save_snapshot(path, engine)
        return str(path)

    def test_forced_trace_round_trips_the_worker(self, snapshot_path,
                                                 fig1):
        from repro.serve import (MetricsRegistry, ShardDispatcher,
                                 ShardPool, query_to_wire)
        query = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=60.0,
                     keywords=("latte", "apple"), k=3)
        with ShardPool(snapshot_path, shards=1) as pool:
            dispatcher = ShardDispatcher(
                pool, max_pending=4, metrics=MetricsRegistry(),
                trace_policy=TracePolicy(sample_rate=0.0, slow_ms=0.0))
            response = dispatcher.submit(query_to_wire(query), "ToE",
                                         trace=True)
            assert response["status"] == "ok"
            doc = dispatcher.trace_buffer.get(response["trace_id"])
            assert doc is not None and doc["reason"] == "forced"
            names = {s["name"] for s in iter_spans(doc["spans"])}
            assert set(STAGES) <= names
            top = sum(s["duration_ms"] for s in doc["spans"])
            assert top <= doc["duration_ms"] + 0.001
            # Every stage fed the per-stage latency histogram.
            metrics = dispatcher.metrics.render()
            for stage in STAGES:
                assert (f'ikrq_stage_latency_seconds_bucket{{'
                        f'stage="{stage}",venue="default",le="+Inf"}}'
                        in metrics)

    def test_unsampled_ok_request_is_not_retained(self, snapshot_path,
                                                  fig1):
        from repro.serve import ShardDispatcher, ShardPool, query_to_wire
        query = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=60.0,
                     keywords=("coffee",), k=1)
        with ShardPool(snapshot_path, shards=1) as pool:
            dispatcher = ShardDispatcher(
                pool, max_pending=4,
                trace_policy=TracePolicy(sample_rate=0.0, slow_ms=0.0))
            response = dispatcher.submit(query_to_wire(query), "ToE")
            assert response["status"] == "ok"
            # The id is stamped (joinable in logs) but nothing retained.
            assert response["trace_id"]
            assert dispatcher.trace_buffer.get(response["trace_id"]) is None
            assert len(dispatcher.trace_buffer) == 0

    def test_server_keeps_the_configured_trace_ring(self, snapshot_path,
                                                    fig1):
        """An empty ring is falsy (``__len__``) yet must not be swapped
        for a default one: ``trace_buffer_size`` is honoured."""
        from repro.serve import IKRQServer, ShardDispatcher, query_to_wire
        query = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=60.0,
                     keywords=("latte",), k=1)
        with IKRQServer(snapshot_path, workers=1,
                        trace_buffer_size=3) as server:
            server.start()
            ring = server.dispatcher.trace_buffer
            assert ring.capacity == 3
            for _ in range(5):
                response = server.dispatcher.submit(
                    query_to_wire(query), "ToE", trace=True)
                assert response["status"] == "ok"
                assert ring.get(response["trace_id"]) is not None
            assert len(ring) == 3
            given = TraceBuffer(capacity=2)
            assert ShardDispatcher(server.pool,
                                   trace_buffer=given).trace_buffer is given
