"""The sharded serving layer: wire format, affinity, admission,
metrics, shard pool and HTTP surface."""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core import IKRQ, IKRQEngine, QueryService, ServiceStats
from repro.serve import (AdmissionController, IKRQServer, MetricsRegistry,
                         ShardDispatcher, ShardPool, answer_to_wire,
                         canonical_json, query_from_wire, query_to_wire,
                         save_snapshot, shard_for)
from repro.serve.wire import point_from_wire, point_to_wire
from repro.geometry import Point


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory):
    from repro.datasets import paper_fig1
    fixture = paper_fig1()
    engine = IKRQEngine(fixture.space, fixture.kindex)
    path = tmp_path_factory.mktemp("serve") / "fig1.snapshot.json"
    save_snapshot(path, engine)
    return str(path)


@pytest.fixture(scope="module")
def queries(fig1):
    return [
        IKRQ(ps=fig1.ps, pt=fig1.pt, delta=55.0 + 5.0 * i,
             keywords=("coffee",) if i % 2 else ("latte", "apple"), k=2)
        for i in range(4)
    ]


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
class TestWire:
    def test_point_round_trip(self):
        p = Point(7.25, 39.5, 1.5)
        assert point_from_wire(point_to_wire(p)) == p
        assert point_from_wire([1.0, 2.0]) == Point(1.0, 2.0, 0.0)

    def test_point_rejects_garbage(self):
        with pytest.raises(ValueError):
            point_from_wire([1.0])
        with pytest.raises(ValueError):
            point_from_wire("nope")

    def test_query_round_trip(self, queries):
        for query in queries:
            assert query_from_wire(query_to_wire(query)) == query

    def test_query_defaults(self):
        doc = {"ps": [0.0, 1.0], "pt": [2.0, 3.0], "delta": 10.0,
               "keywords": ["coffee"]}
        query = query_from_wire(doc)
        assert query.k == 1 and query.alpha == 0.5 and query.tau == 0.2

    def test_query_missing_field(self):
        with pytest.raises(ValueError, match="keywords"):
            query_from_wire({"ps": [0, 0], "pt": [1, 1], "delta": 5.0})

    def test_query_rejects_non_finite_numbers(self, queries):
        base = query_to_wire(queries[0])
        for field in ("delta", "alpha", "tau", "soft_slack", "gamma"):
            for value in ("nan", "inf", "-inf"):
                with pytest.raises(ValueError, match="finite"):
                    query_from_wire(dict(base, **{field: value}))
        for field in ("ps", "pt"):
            with pytest.raises(ValueError, match="finite"):
                query_from_wire(dict(base, **{field: [0.0, "nan", 0.0]}))
        for tau in (-0.1, 1.5):
            with pytest.raises(ValueError, match="tau"):
                query_from_wire(dict(base, tau=tau))

    #: Mistyped fields that a coercing decoder would have served.
    MISTYPED = (
        {"keywords": "latte"},          # a string, not an array
        {"keywords": [1, None]},        # non-string members
        {"keywords": ["latte", True]},
        {"k": 2.9},                     # a float, not an integer
        {"k": 2.0},
        {"k": True},                    # bools are not integers
        {"k": "2"},
        {"delta": "50"},                # numeric strings
        {"delta": True},
        {"alpha": "0.5"},
        {"tau": False},
        {"soft_slack": None},
        {"gamma": [0.0]},
        {"ps": [0.0, "1.0", 0.0]},      # point coordinates
        {"pt": [True, 1.0]},
        {"pt": [0.0, 1.0, None]},
    )

    def test_query_rejects_mistyped_fields(self, queries):
        base = query_to_wire(queries[0])
        for bad in self.MISTYPED:
            with pytest.raises(ValueError):
                query_from_wire(dict(base, **bad))

    def test_query_accepts_json_integers_as_numbers(self, queries):
        base = query_to_wire(queries[0])
        doc = dict(base, delta=60, ps=[7, 39, 0], alpha=1, gamma=0)
        query = query_from_wire(doc)
        assert query.delta == 60.0 and query.ps.x == 7.0
        assert query.alpha == 1.0 and query.gamma == 0.0
        assert query_from_wire(dict(base, keywords=("latte",))).keywords \
            == ("latte",)

    def test_canonical_json_is_key_order_independent(self):
        assert (canonical_json({"b": 1, "a": [1.5]})
                == canonical_json({"a": [1.5], "b": 1}))


# ----------------------------------------------------------------------
# Affinity hashing
# ----------------------------------------------------------------------
class TestAffinity:
    def test_stable_and_in_range(self):
        ps, pt = [1.25, 2.5, 0.0], [3.0, 4.0, 0.0]
        first = shard_for(ps, pt, 4)
        assert 0 <= first < 4
        for _ in range(5):
            assert shard_for(ps, pt, 4) == first

    def test_spreads_over_shards(self):
        hits = {shard_for([float(i), 0.0, 0.0], [0.0, float(i), 0.0], 4)
                for i in range(64)}
        assert len(hits) == 4

    def test_single_shard(self):
        assert shard_for([1.0, 2.0, 0.0], [3.0, 4.0, 0.0], 1) == 0

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_for([0.0, 0.0], [1.0, 1.0], 0)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_sheds_beyond_capacity(self):
        ctrl = AdmissionController(max_pending=2)
        assert ctrl.try_acquire() and ctrl.try_acquire()
        assert not ctrl.try_acquire()
        assert ctrl.shed == 1 and ctrl.admitted == 2
        ctrl.release()
        assert ctrl.try_acquire()
        assert ctrl.in_flight == 2

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            AdmissionController(0)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counters_and_labels(self):
        reg = MetricsRegistry()
        reg.inc("requests_total", status="ok")
        reg.inc("requests_total", status="ok")
        reg.inc("requests_total", status="overloaded")
        assert reg.counter_value("requests_total", status="ok") == 2
        text = reg.render()
        assert '# TYPE requests_total counter' in text
        assert 'requests_total{status="ok"} 2' in text
        assert 'requests_total{status="overloaded"} 1' in text

    def test_gauges(self):
        reg = MetricsRegistry()
        reg.set_gauge("in_flight", 3)
        reg.set_gauge("in_flight", 1)
        assert 'in_flight 1' in reg.render()

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry(buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            reg.observe("latency_seconds", value)
        text = reg.render()
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="1.0"} 3' in text
        assert 'latency_seconds_bucket{le="+Inf"} 4' in text
        assert 'latency_seconds_count 4' in text
        assert 'latency_seconds_sum 6.05' in text

    def test_merge_gauges_with_labels(self):
        reg = MetricsRegistry()
        reg.merge_gauges({"shard_queries": 7}, shard=1)
        assert 'shard_queries{shard="1"} 7' in reg.render()

    def test_drop_gauges_by_label_key(self):
        reg = MetricsRegistry()
        reg.set_gauge("served", 3, shard=0, generation=1)
        reg.set_gauge("served", 5, shard=0)
        reg.drop_gauges("generation")
        text = reg.render()
        assert 'generation="1"' not in text
        assert 'served{shard="0"} 5' in text

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.inc("requests_total", venue='mall "A"\\east\nwing')
        text = reg.render()
        assert ('requests_total{venue="mall \\"A\\"\\\\east\\nwing"} 1'
                in text)
        # An unescaped newline would split the sample across lines.
        assert len(text.strip().splitlines()) == 2

    def test_escape_order_backslash_first(self):
        # A pre-escaped quote must not be double-unescapable: the
        # backslash escapes first, then the quote.
        from repro.serve.metrics import _escape_label_value
        assert _escape_label_value('\\"') == '\\\\\\"'
        assert _escape_label_value("plain") == "plain"

    def test_format_value(self):
        from repro.serve.metrics import _format_value
        assert _format_value(3.0) == "3"
        assert _format_value(0.25) == "0.25"
        # repr keeps full float precision (no %g truncation).
        assert _format_value(0.1 + 0.2) == repr(0.1 + 0.2)

    def test_histogram_renders_consistent_under_concurrent_observe(self):
        reg = MetricsRegistry(buckets=(0.1, 1.0))
        stop = threading.Event()

        def pound():
            while not stop.is_set():
                reg.observe("latency_seconds", 0.05)

        thread = threading.Thread(target=pound)
        thread.start()
        try:
            for _ in range(50):
                text = reg.render()
                for line in text.splitlines():
                    if line.startswith('latency_seconds_bucket{le="+Inf"}'):
                        inf_count = int(line.rsplit(" ", 1)[1])
                    elif line.startswith("latency_seconds_count"):
                        count = int(line.rsplit(" ", 1)[1])
                assert inf_count == count
        finally:
            stop.set()
            thread.join()


# ----------------------------------------------------------------------
# ServiceStats atomicity (satellite: thread-safe snapshotting)
# ----------------------------------------------------------------------
class TestServiceStats:
    def test_snapshot_is_a_consistent_copy(self):
        stats = ServiceStats()
        stats.add(queries_served=3, answer_hits=1)
        snap = stats.snapshot()
        stats.add(queries_served=1)
        assert snap.queries_served == 3 and snap.answer_hits == 1
        assert stats.queries_served == 4

    def test_unknown_field_rejected(self):
        stats = ServiceStats()
        with pytest.raises(TypeError):
            stats.add(bogus=1)
        with pytest.raises(TypeError):
            ServiceStats(bogus=1)

    def test_concurrent_increments_are_not_lost(self):
        stats = ServiceStats()

        def bump():
            for _ in range(500):
                stats.add(queries_served=1, answer_misses=1)

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = stats.snapshot()
        assert snap.queries_served == 2000
        assert snap.answer_misses == 2000

    def test_service_snapshot_reports_matrix_evictions(self, fig1):
        engine = IKRQEngine(fig1.space, fig1.kindex,
                            door_matrix_max_rows=2)
        service = QueryService(engine, workers=1)
        query = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=60.0,
                     keywords=("coffee", "apple"), k=2)
        service.search(query, "KoE*")
        snap = service.stats_snapshot()
        assert snap.door_matrix_evictions > 0
        assert snap.door_matrix_evictions == engine.door_matrix().evictions
        assert snap.queries_served == 1


# ----------------------------------------------------------------------
# Shard pool + dispatcher (process level)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestShardPool:
    def test_answers_byte_identical_and_affine(self, snapshot_path,
                                               fig1_engine, queries):
        with ShardPool(snapshot_path, shards=2) as pool:
            dispatcher = ShardDispatcher(pool, max_pending=8)
            expected_shard = shard_for(
                point_to_wire(queries[0].ps), point_to_wire(queries[0].pt), 2)
            for query in queries:
                response = dispatcher.submit(query_to_wire(query), "ToE")
                assert response["status"] == "ok"
                assert response["shard"] == expected_shard
                expected = answer_to_wire(fig1_engine.search(query, "ToE"))
                got = {"algorithm": response["algorithm"],
                       "routes": response["routes"]}
                assert canonical_json(got) == canonical_json(expected)
            stats = pool.stats()
            served = {doc["shard"]: doc["stats"]["queries_served"]
                      for doc in stats}
            # (ps, pt)-affinity: every query hit the same warm shard.
            assert served[expected_shard] == len(queries)
            assert served[1 - expected_shard] == 0

    def test_workers_skip_index_rebuild(self, snapshot_path):
        from repro.space.graph import DoorGraph
        from repro.space.skeleton import SkeletonIndex
        csr_before = DoorGraph.csr_builds
        s2s_before = SkeletonIndex.s2s_builds
        with ShardPool(snapshot_path, shards=2) as pool:
            # Workers report their post-load build counters; forked
            # children inherit the parent's count and must not add to
            # it (spawned children must show zero builds).
            for info in pool.worker_builds:
                assert info["csr_builds"] <= csr_before
                assert info["s2s_builds"] <= s2s_before

    def test_sheds_when_queue_full(self, snapshot_path, queries):
        with ShardPool(snapshot_path, shards=1, allow_sleep=True) as pool:
            dispatcher = ShardDispatcher(pool, max_pending=1)
            doc = query_to_wire(queries[0])
            slow = {}

            def occupy():
                slow["response"] = dispatcher.submit(doc, "ToE", sleep=1.0)

            thread = threading.Thread(target=occupy)
            thread.start()
            # Wait until the slow request holds the admission slot.
            deadline = time.time() + 5.0
            while dispatcher.admission.in_flight == 0:
                if time.time() > deadline:
                    pytest.fail("slow request never admitted")
                time.sleep(0.01)
            shed = dispatcher.submit(query_to_wire(queries[1]), "ToE")
            assert shed["status"] == "overloaded"
            assert shed["venue"] == "default"
            # Sheds are always traced: the response carries a trace_id
            # and the retained trace records the shed decision.
            doc = dispatcher.trace_buffer.get(shed["trace_id"])
            assert doc is not None and doc["reason"] == "shed"
            assert dispatcher.admission.shed == 1
            thread.join()
            assert slow["response"]["status"] == "ok"
            # Capacity freed: the same query is admitted now.
            again = dispatcher.submit(query_to_wire(queries[1]), "ToE")
            assert again["status"] == "ok"

    def test_expired_deadline_is_not_evaluated(self, snapshot_path, queries):
        with ShardPool(snapshot_path, shards=1, allow_sleep=True) as pool:
            dispatcher = ShardDispatcher(pool, max_pending=4)
            doc = query_to_wire(queries[0])
            results = {}

            def occupy():
                results["slow"] = dispatcher.submit(doc, "ToE", sleep=0.6)

            thread = threading.Thread(target=occupy)
            thread.start()
            time.sleep(0.1)
            # Queued behind the sleeper; expired by the time the shard
            # dequeues it.
            results["late"] = dispatcher.submit(doc, "ToE", deadline_s=0.1)
            thread.join()
            assert results["slow"]["status"] == "ok"
            assert results["late"]["status"] in ("expired", "timeout")

    def test_bad_request_paths(self, snapshot_path):
        with ShardPool(snapshot_path, shards=1) as pool:
            dispatcher = ShardDispatcher(pool, max_pending=4)
            assert dispatcher.submit(None)["status"] == "bad_request"
            assert (dispatcher.submit({"ps": [0.0, 0.0]})["status"]
                    == "bad_request")
            # An invalid query is the client's error, not the shard's.
            broken = dispatcher.submit(
                {"ps": [0.0, 0.0], "pt": [1.0, 1.0], "delta": -5.0,
                 "keywords": ["coffee"]})
            assert broken["status"] == "bad_request"
            assert "positive" in broken["error"]

    def test_stats_round_trip(self, snapshot_path, queries):
        with ShardPool(snapshot_path, shards=2) as pool:
            dispatcher = ShardDispatcher(pool, max_pending=4)
            dispatcher.submit(query_to_wire(queries[0]), "ToE")
            stats = pool.stats()
            assert len(stats) == 2
            for doc in stats:
                assert doc["status"] == "ok"
                assert set(doc["stats"]) == set(ServiceStats.FIELDS)


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestHTTPServer:
    @pytest.fixture()
    def server(self, snapshot_path):
        with IKRQServer(snapshot_path, workers=2, max_pending=8) as server:
            server.start()
            yield server

    def _post(self, server, doc):
        host, port = server.address
        body = json.dumps(doc).encode("utf-8")
        request = urllib.request.Request(
            f"http://{host}:{port}/search", data=body,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=60) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def _get(self, server, path):
        host, port = server.address
        with urllib.request.urlopen(
                f"http://{host}:{port}{path}", timeout=30) as resp:
            return resp.status, resp.read().decode("utf-8")

    def test_search_byte_identical(self, server, fig1_engine, queries):
        for query in queries:
            code, doc = self._post(server, {"query": query_to_wire(query),
                                            "algorithm": "ToE"})
            assert code == 200 and doc["status"] == "ok"
            expected = answer_to_wire(fig1_engine.search(query, "ToE"))
            got = {"algorithm": doc["algorithm"], "routes": doc["routes"]}
            assert canonical_json(got) == canonical_json(expected)

    def test_bad_request_is_400(self, server):
        code, doc = self._post(server, {"query": {"ps": [0.0, 0.0]}})
        assert code == 400 and doc["status"] == "bad_request"

    def test_non_finite_numbers_are_400(self, server, queries):
        """Seeded: NaN / ∞ as JSON tokens or strings, in any numeric
        query field, and τ outside [0, 1] get a 400 — never ``ok`` with
        a NaN score."""
        rng = random.Random(61)
        base = query_to_wire(queries[0])
        bad = (float("nan"), float("inf"), float("-inf"),
               "nan", "inf", "-Infinity")
        for _ in range(24):
            doc = json.loads(json.dumps(base))
            field = rng.choice(("delta", "alpha", "tau", "soft_slack",
                                "gamma", "ps", "pt"))
            if field in ("ps", "pt"):
                doc[field][rng.randrange(3)] = rng.choice(bad)
            else:
                doc[field] = rng.choice(bad + (-0.5, 1.5) if field == "tau"
                                        else bad)
            # json.dumps writes float NaN/∞ as the NaN/Infinity tokens.
            code, reply = self._post(server, {"query": doc})
            assert code == 400, (field, doc, reply)
            assert reply["status"] == "bad_request"
        # Strict JSON: a NaN token is refused even where no number is
        # validated (``trace`` is only tested for truth).
        for extra in ({"deadline_s": "nan"}, {"deadline_s": float("inf")},
                      {"at": "inf"}, {"at": float("nan")},
                      {"trace": float("nan")}):
            code, reply = self._post(server, dict(extra, query=base))
            assert code == 400 and reply["status"] == "bad_request", extra

    def test_mistyped_fields_are_400(self, server, queries):
        base = query_to_wire(queries[0])
        for bad in TestWire.MISTYPED:
            code, reply = self._post(server, {"query": dict(base, **bad)})
            assert code == 400, (bad, reply)
            assert reply["status"] == "bad_request"

    def test_non_object_body_is_400(self, server):
        code, doc = self._post(server, [1, 2, 3])
        assert code == 400 and doc["status"] == "bad_request"

    def test_healthz(self, server):
        code, text = self._get(server, "/healthz")
        assert code == 200
        doc = json.loads(text)
        assert doc["status"] == "ok"
        assert doc["shards"] == 2
        assert doc["live_shards"] == 2
        assert doc["venues"] == 1
        assert doc["restarts_total"] == 0
        workers = doc["workers"]
        assert [w["shard"] for w in workers] == [0, 1]
        for worker in workers:
            assert worker["state"] == "up"
            assert worker["alive"] is True
            assert worker["boot"] == 0

    def test_unknown_path_is_404(self, server):
        try:
            self._get(server, "/nope")
            pytest.fail("expected HTTP 404")
        except urllib.error.HTTPError as err:
            assert err.code == 404

    def test_metrics_scrape(self, server, queries):
        self._post(server, {"query": query_to_wire(queries[0])})
        code, text = self._get(server, "/metrics")
        assert code == 200
        assert 'ikrq_requests_total{status="ok",venue="default"}' in text
        assert "ikrq_request_latency_seconds_bucket" in text
        assert "ikrq_shard_queries_served" in text
        assert "ikrq_shards 2" in text
        assert 'ikrq_venue_active_generation{venue="default"} 1' in text
        assert "ikrq_venues 1" in text
