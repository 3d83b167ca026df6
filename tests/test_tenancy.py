"""Multi-venue tenancy: registry lifecycle, per-tenant quotas,
(venue, ps, pt) routing, zero-downtime hot-swaps and the HTTP
control plane."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core import IKRQ, IKRQEngine
from repro.datasets.synth import build_synth_mall
from repro.geometry import Point, Rect
from repro.keywords.mappings import KeywordIndex
from repro.serve import (AdmissionController, IKRQServer, ShardDispatcher,
                         ShardPool, SnapshotRegistry, TenantQuota,
                         answer_to_wire, canonical_json, query_to_wire,
                         save_snapshot, shard_for)
from repro.space import IndoorSpaceBuilder, PartitionKind


def _corridor_mall():
    """A second, genuinely different venue: four shops on a corridor."""
    b = IndoorSpaceBuilder()
    rooms = []
    for i in range(4):
        rooms.append(b.add_partition(
            f"room{i}", Rect(i * 10.0, 10.0, (i + 1) * 10.0, 20.0)))
        b.add_partition(f"cell{i}", Rect(i * 10.0, 0.0, (i + 1) * 10.0, 10.0),
                        PartitionKind.HALLWAY)
        b.add_door(f"rd{i}", Point(i * 10.0 + 5.0, 10.0),
                   between=(f"room{i}", f"cell{i}"))
        if i > 0:
            b.add_door(f"cd{i}", Point(i * 10.0, 5.0),
                       between=(f"cell{i - 1}", f"cell{i}"))
    space = b.build()
    kindex = KeywordIndex()
    shops = [("espressobar", ("coffee", "latte", "beans")),
             ("gadgetsine", ("phone", "laptop", "charger")),
             ("beanhouse", ("coffee", "beans", "mocha")),
             ("booknook", ("books", "maps", "pens"))]
    for room, (iword, twords) in zip(rooms, shops):
        kindex.assign_iword(room, iword)
        kindex.add_twords(iword, twords)
    return space, kindex


@pytest.fixture(scope="module")
def corridor_venue():
    space, kindex = _corridor_mall()
    engine = IKRQEngine(space, kindex)
    ps = Point(2.0, 5.0, 0.0)
    pt = Point(35.0, 5.0, 0.0)
    return engine, ps, pt


@pytest.fixture(scope="module")
def venue_snapshots(tmp_path_factory, fig1, corridor_venue):
    """Two genuinely different venues: fig1 and the corridor mall."""
    tmp = tmp_path_factory.mktemp("tenancy")
    fig1_engine = IKRQEngine(fig1.space, fig1.kindex)
    corridor_engine, _, _ = corridor_venue
    paths = {"fig1": str(tmp / "fig1.snap.json"),
             "corridor": str(tmp / "corridor.snap.json")}
    save_snapshot(paths["fig1"], fig1_engine)
    save_snapshot(paths["corridor"], corridor_engine)
    return paths


@pytest.fixture(scope="module")
def venue_queries(fig1, corridor_venue):
    _, ps, pt = corridor_venue
    return {
        "fig1": IKRQ(ps=fig1.ps, pt=fig1.pt, delta=60.0,
                     keywords=("latte", "apple"), k=2),
        "corridor": IKRQ(ps=ps, pt=pt, delta=120.0,
                         keywords=("coffee", "books"), k=2),
    }


def _expected(engine: IKRQEngine, query: IKRQ, algorithm: str = "ToE") -> str:
    return canonical_json(answer_to_wire(engine.search(query, algorithm)))


def _got(response: dict) -> str:
    return canonical_json({"algorithm": response.get("algorithm"),
                           "routes": response.get("routes")})


# ----------------------------------------------------------------------
# Registry lifecycle
# ----------------------------------------------------------------------
class TestSnapshotRegistry:
    def test_generation_numbers_are_monotonic_and_never_reused(self):
        registry = SnapshotRegistry()
        g1 = registry.add("mall", "a.snap")
        g2 = registry.add("mall", "b.snap")
        assert (g1.generation, g2.generation) == (1, 2)
        assert g1.state == g2.state == "loading"
        registry.activate("mall", 2)
        assert registry.add("mall", "c.snap").generation == 3

    def test_activate_flips_and_marks_previous_draining(self):
        registry = SnapshotRegistry()
        g1 = registry.add("mall", "a.snap")
        assert registry.activate("mall", 1) is None
        assert g1.state == "active"
        assert registry.active_generation("mall") == 1
        g2 = registry.add("mall", "b.snap")
        previous = registry.activate("mall", 2)
        assert previous is g1 and g1.state == "draining"
        assert registry.active_generation("mall") == 2
        assert registry.acquire("mall") is g2
        registry.release(g2)

    def test_acquire_is_atomic_with_the_flip(self):
        registry = SnapshotRegistry()
        registry.add("mall", "a.snap")
        registry.activate("mall", 1)
        g1 = registry.acquire("mall")
        registry.add("mall", "b.snap")
        registry.activate("mall", 2)
        # The in-flight request still pins generation 1; new requests
        # land on 2.
        assert g1.generation == 1 and g1.in_flight == 1
        assert registry.acquire("mall").generation == 2

    def test_acquire_unknown_venue_raises(self):
        registry = SnapshotRegistry()
        with pytest.raises(KeyError):
            registry.acquire("nowhere")
        registry.add("mall", "a.snap")  # loading but not active yet
        with pytest.raises(KeyError):
            registry.acquire("mall")

    def test_drain_waits_for_release(self):
        registry = SnapshotRegistry()
        registry.add("mall", "a.snap")
        registry.activate("mall", 1)
        gen = registry.acquire("mall")
        assert not registry.drain(gen, timeout=0.05)

        def release_soon():
            time.sleep(0.05)
            registry.release(gen)

        thread = threading.Thread(target=release_soon)
        thread.start()
        assert registry.drain(gen, timeout=5.0)
        thread.join()

    def test_failed_generation_cannot_activate(self):
        registry = SnapshotRegistry()
        registry.add("mall", "a.snap")
        registry.fail("mall", 1)
        with pytest.raises(ValueError):
            registry.activate("mall", 1)

    def test_describe_shape(self):
        registry = SnapshotRegistry()
        registry.add("mall", "a.snap")
        registry.activate("mall", 1)
        registry.add("shop", "s.snap")
        docs = {doc["venue"]: doc for doc in registry.describe()}
        assert set(docs) == {"mall", "shop"}
        assert docs["mall"]["active_generation"] == 1
        assert docs["shop"]["active_generation"] is None
        assert docs["mall"]["generations"][0]["state"] == "active"


# ----------------------------------------------------------------------
# Per-tenant quotas (pure admission logic)
# ----------------------------------------------------------------------
class TestTenantQuotas:
    def test_noisy_venue_cannot_starve_another(self):
        ctrl = AdmissionController(
            max_pending=10, quotas={"noisy": TenantQuota(2)})
        assert ctrl.try_acquire("noisy") and ctrl.try_acquire("noisy")
        # The noisy tenant is at quota: its traffic sheds...
        assert not ctrl.try_acquire("noisy")
        # ...while the quiet tenant still has the whole pool.
        for _ in range(8):
            assert ctrl.try_acquire("quiet")
        counters = ctrl.venue_counters()
        assert counters["noisy"]["shed"] == 1
        assert counters["noisy"]["in_flight"] == 2
        assert counters["quiet"]["shed"] == 0
        assert counters["quiet"]["in_flight"] == 8

    def test_global_bound_still_applies(self):
        ctrl = AdmissionController(max_pending=2,
                                   default_quota=TenantQuota(5))
        assert ctrl.try_acquire("a") and ctrl.try_acquire("b")
        assert not ctrl.try_acquire("c")
        ctrl.release("a")
        assert ctrl.try_acquire("c")

    def test_release_frees_the_venue_slot(self):
        ctrl = AdmissionController(max_pending=10,
                                   quotas={"v": TenantQuota(1)})
        assert ctrl.try_acquire("v")
        assert not ctrl.try_acquire("v")
        ctrl.release("v")
        assert ctrl.try_acquire("v")

    def test_quota_validation(self):
        with pytest.raises(ValueError):
            TenantQuota(0)


# ----------------------------------------------------------------------
# Multi-venue pool + dispatcher (process level)
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestMultiVenuePool:
    def test_routes_by_venue_and_stays_byte_identical(
            self, venue_snapshots, venue_queries, fig1, corridor_venue):
        engines = {"fig1": IKRQEngine(fig1.space, fig1.kindex),
                   "corridor": corridor_venue[0]}
        with ShardPool(venues=venue_snapshots, shards=2) as pool:
            dispatcher = ShardDispatcher(pool, max_pending=8)
            for venue, query in venue_queries.items():
                response = dispatcher.submit(
                    query_to_wire(query), "ToE", venue=venue)
                assert response["status"] == "ok"
                assert response["venue"] == venue
                assert response["generation"] == 1
                assert response["shard"] == shard_for(
                    query_to_wire(query)["ps"], query_to_wire(query)["pt"],
                    2, venue)
                assert _got(response) == _expected(engines[venue], query)

    def test_unknown_venue_is_refused(self, venue_snapshots, venue_queries):
        with ShardPool(venues=venue_snapshots, shards=1) as pool:
            dispatcher = ShardDispatcher(pool, max_pending=4)
            response = dispatcher.submit(
                query_to_wire(venue_queries["fig1"]), "ToE",
                venue="atlantis")
            assert response["status"] == "unknown_venue"

    def test_hot_swap_is_zero_downtime_and_byte_identical(
            self, tmp_path, venue_snapshots, venue_queries, fig1):
        """Hammer the venue across an ingest; every answer must be
        byte-identical and come from generation 1 or 2 — after the
        swap returns, only from 2."""
        engine = IKRQEngine(fig1.space, fig1.kindex)
        query = venue_queries["fig1"]
        expected = _expected(engine, query)
        # The replacement generation: a rebuilt engine over the same
        # venue, snapshotted in the *binary* encoding this time.
        gen2_path = tmp_path / "fig1.gen2.snap"
        save_snapshot(gen2_path, IKRQEngine(fig1.space, fig1.kindex),
                      binary=True)
        with ShardPool(venues={"fig1": venue_snapshots["fig1"]},
                       shards=2) as pool:
            dispatcher = ShardDispatcher(pool, max_pending=16)
            doc = query_to_wire(query)
            stop = threading.Event()
            observed = []
            failures = []

            def hammer():
                while not stop.is_set():
                    response = dispatcher.submit(doc, "ToE", venue="fig1")
                    if response.get("status") != "ok":
                        failures.append(response)
                        return
                    observed.append(response["generation"])
                    if _got(response) != expected:
                        failures.append("mismatch")
                        return

            threads = [threading.Thread(target=hammer) for _ in range(3)]
            for t in threads:
                t.start()
            time.sleep(0.2)
            report = dispatcher.ingest("fig1", str(gen2_path))
            after_swap = dispatcher.submit(doc, "ToE", venue="fig1")
            stop.set()
            for t in threads:
                t.join()
            assert not failures
            assert report["status"] == "ok"
            assert report["generation"] == 2
            assert report["previous_generation"] == 1
            assert report["drained"] is True
            assert set(observed) <= {1, 2}
            assert after_swap["status"] == "ok"
            assert after_swap["generation"] == 2
            assert _got(after_swap) == expected
            # The registry reflects the completed lifecycle.
            registry = dispatcher.registry
            assert registry.active_generation("fig1") == 2
            states = {g["generation"]: g["state"]
                      for doc_ in registry.describe()
                      for g in doc_["generations"]}
            assert states == {1: "retired", 2: "active"}

    def test_failed_ingest_leaves_old_generation_serving(
            self, tmp_path, venue_snapshots, venue_queries, fig1):
        engine = IKRQEngine(fig1.space, fig1.kindex)
        query = venue_queries["fig1"]
        broken = tmp_path / "broken.snap.json"
        broken.write_text("{\"format\": \"nonsense\"}")
        with ShardPool(venues={"fig1": venue_snapshots["fig1"]},
                       shards=1) as pool:
            dispatcher = ShardDispatcher(pool, max_pending=4)
            report = dispatcher.ingest("fig1", str(broken))
            assert report["status"] == "error"
            assert dispatcher.registry.active_generation("fig1") == 1
            response = dispatcher.submit(
                query_to_wire(query), "ToE", venue="fig1")
            assert response["status"] == "ok"
            assert response["generation"] == 1
            assert _got(response) == _expected(engine, query)

    def test_quota_sheds_noisy_venue_but_serves_quiet_one(
            self, venue_snapshots, venue_queries):
        """One venue saturated with slow requests cannot push another
        venue's traffic out — the quota sheds the noisy tenant only."""
        with ShardPool(venues=venue_snapshots, shards=2,
                       allow_sleep=True) as pool:
            dispatcher = ShardDispatcher(
                pool, max_pending=8,
                quotas={"fig1": TenantQuota(1)})
            noisy_doc = query_to_wire(venue_queries["fig1"])
            quiet_doc = query_to_wire(venue_queries["corridor"])
            slow = {}

            def occupy():
                slow["response"] = dispatcher.submit(
                    noisy_doc, "ToE", venue="fig1", sleep=1.0)

            thread = threading.Thread(target=occupy)
            thread.start()
            deadline = time.time() + 5.0
            while dispatcher.admission.in_flight == 0:
                if time.time() > deadline:
                    pytest.fail("slow request never admitted")
                time.sleep(0.01)
            shed = dispatcher.submit(noisy_doc, "ToE", venue="fig1")
            assert shed["status"] == "overloaded"
            assert shed["venue"] == "fig1"
            assert shed["trace_id"]  # sheds are always traced
            quiet = dispatcher.submit(quiet_doc, "ToE", venue="corridor")
            assert quiet["status"] == "ok"
            thread.join()
            assert slow["response"]["status"] == "ok"
            counters = dispatcher.admission.venue_counters()
            assert counters["fig1"]["shed"] == 1
            assert counters["corridor"]["shed"] == 0

    def test_stats_carry_per_venue_breakdown(self, venue_snapshots,
                                             venue_queries):
        with ShardPool(venues=venue_snapshots, shards=1) as pool:
            dispatcher = ShardDispatcher(pool, max_pending=4)
            dispatcher.submit(query_to_wire(venue_queries["fig1"]),
                              "ToE", venue="fig1")
            stats = pool.stats()
            assert len(stats) == 1
            doc = stats[0]
            assert doc["status"] == "ok"
            by_venue = {entry["venue"]: entry
                        for entry in doc["venue_stats"]}
            assert set(by_venue) == {"fig1", "corridor"}
            assert by_venue["fig1"]["generation"] == 1
            assert by_venue["fig1"]["stats"]["queries_served"] == 1
            assert by_venue["corridor"]["stats"]["queries_served"] == 0
            served = doc["stats"]["queries_served"]
            assert served == 1  # the aggregate sums venues


# ----------------------------------------------------------------------
# HTTP control plane
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestHTTPTenancy:
    @pytest.fixture()
    def server(self, venue_snapshots):
        with IKRQServer(venues=venue_snapshots, workers=2,
                        max_pending=8,
                        default_quota=TenantQuota(4)) as server:
            server.start()
            yield server

    def _post(self, server, path, doc):
        host, port = server.address
        body = json.dumps(doc).encode("utf-8")
        request = urllib.request.Request(
            f"http://{host}:{port}{path}", data=body,
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

    def test_search_with_venue_field(self, server, venue_queries,
                                     corridor_venue):
        engine, _, _ = corridor_venue
        query = venue_queries["corridor"]
        code, doc = self._post(server, "/search",
                               {"venue": "corridor",
                                "query": query_to_wire(query)})
        assert code == 200 and doc["status"] == "ok"
        assert doc["venue"] == "corridor" and doc["generation"] == 1
        assert _got(doc) == _expected(engine, query)

    def test_unknown_venue_is_404(self, server, venue_queries):
        code, doc = self._post(
            server, "/search",
            {"venue": "atlantis",
             "query": query_to_wire(venue_queries["fig1"])})
        assert code == 404 and doc["status"] == "unknown_venue"

    def test_venues_listing(self, server):
        code, text = self._get(server, "/venues")
        assert code == 200
        listing = json.loads(text)
        venues = {doc["venue"]: doc for doc in listing["venues"]}
        assert set(venues) == {"fig1", "corridor"}
        for doc in venues.values():
            assert doc["active_generation"] == 1
            assert doc["generations"][0]["state"] == "active"
            assert doc["admission"]["max_in_flight"] == 4

    def test_http_ingest_round_trip(self, server, venue_snapshots,
                                    venue_queries, fig1):
        engine = IKRQEngine(fig1.space, fig1.kindex)
        query = venue_queries["fig1"]
        code, swap = self._post(server, "/ingest",
                                {"venue": "fig1",
                                 "snapshot": venue_snapshots["fig1"],
                                 "wait": True})
        assert code == 200 and swap["status"] == "ok"
        assert swap["generation"] == 2
        code, doc = self._post(server, "/search",
                               {"venue": "fig1",
                                "query": query_to_wire(query)})
        assert code == 200 and doc["generation"] == 2
        assert _got(doc) == _expected(engine, query)

    def test_retired_generation_gauges_disappear(self, server,
                                                 venue_snapshots,
                                                 venue_queries):
        self._post(server, "/search",
                   {"venue": "fig1",
                    "query": query_to_wire(venue_queries["fig1"])})
        _, before = self._get(server, "/metrics")
        assert 'generation="1"' in before
        code, swap = self._post(server, "/ingest",
                                {"venue": "fig1",
                                 "snapshot": venue_snapshots["fig1"]})
        assert code == 200 and swap["generation"] == 2
        _, after = self._get(server, "/metrics")
        gen1_rows = [line for line in after.splitlines()
                     if 'generation="1"' in line]
        # corridor still serves generation 1; fig1's retired
        # generation-1 series must be gone, not frozen.
        assert all('venue="corridor"' in line for line in gen1_rows)
        assert any('generation="2"' in line and 'venue="fig1"' in line
                   for line in after.splitlines())

    def test_ingest_rejects_garbage(self, server):
        code, doc = self._post(server, "/ingest",
                               {"venue": "fig1",
                                "snapshot": "/nonexistent.snap"})
        assert code == 400 and doc["status"] == "bad_request"
        code, doc = self._post(server, "/ingest", {"venue": "fig1"})
        assert code == 400
        code, doc = self._post(server, "/ingest",
                               {"snapshot": "x.snap"})
        assert code == 400

    def test_metrics_carry_venue_labels(self, server, venue_queries):
        self._post(server, "/search",
                   {"venue": "corridor",
                    "query": query_to_wire(venue_queries["corridor"])})
        code, text = self._get(server, "/metrics")
        assert code == 200
        assert 'ikrq_requests_total{status="ok",venue="corridor"}' in text
        assert 'ikrq_venue_active_generation{venue="corridor"} 1' in text
        assert 'ikrq_venue_quota_max_in_flight{venue="corridor"} 4' in text
        assert "ikrq_venues 2" in text
        assert ('ikrq_shard_queries_served{generation="1",shard=' in text
                or 'ikrq_shard_queries_served{generation="1",venue=' in text)


# ----------------------------------------------------------------------
# Hot swap under load on paper-method queries
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestHotSwapUnderLoad:
    def test_swap_mid_stream_is_atomic_and_byte_identical(
            self, tenant_fleet, tenant_snapshots, tmp_path):
        """Hammer two malls and ingest a rebuilt generation 2 of the
        first one mid-stream.  Every answer is ``ok`` or shed and
        byte-identical; the swapped venue answers from generation 1 or
        2, and only from 2 once ``ingest`` has returned; the other
        venue never leaves generation 1."""
        swap, stable = sorted(tenant_fleet)
        # Generation 2: a from-scratch rebuild of the same venue.
        space, kindex = build_synth_mall(tenant_fleet[swap].config)
        gen2_path = str(tmp_path / f"{swap}.gen2.snap.bin")
        save_snapshot(gen2_path, IKRQEngine(space, kindex), binary=True)
        swapped = threading.Event()
        stop = threading.Event()
        lock = threading.Lock()
        served = {name: 0 for name in tenant_fleet}
        # (venue, status, identical, generation, started after swap)
        outcomes = []

        def hammer(venue):
            docs = [query_to_wire(q) for q in venue.queries]
            expected = venue.expected["ToE"]
            i = 0
            while not stop.is_set():
                after = swapped.is_set()
                response = dispatcher.submit(docs[i], "ToE",
                                             venue=venue.name)
                status = response.get("status")
                with lock:
                    outcomes.append((
                        venue.name, status,
                        status == "ok"
                        and _got(response) == expected[i],
                        response.get("generation"), after))
                    served[venue.name] += 1
                i = (i + 1) % len(docs)

        def wait_for(predicate):
            deadline = time.monotonic() + 60.0
            while not predicate() and time.monotonic() < deadline:
                time.sleep(0.002)

        with ShardPool(venues=tenant_snapshots, shards=2) as pool:
            dispatcher = ShardDispatcher(pool, max_pending=64)
            threads = [threading.Thread(target=hammer, args=(venue,))
                       for venue in tenant_fleet.values()]
            for thread in threads:
                thread.start()
            try:
                wait_for(lambda: min(served.values()) >= 8)
                report = dispatcher.ingest(swap, gen2_path)
                swapped.set()
                at_swap = served[swap]
                wait_for(lambda: served[swap] >= at_swap + 16)
            finally:
                stop.set()
                for thread in threads:
                    thread.join()

        assert report["status"] == "ok" and report["generation"] == 2
        assert [o for o in outcomes if o[1] not in ("ok", "overloaded")] \
            == []
        ok = [o for o in outcomes if o[1] == "ok"]
        assert all(o[2] for o in ok)
        swap_gens = [(o[3], o[4]) for o in ok if o[0] == swap]
        assert {gen for gen, _ in swap_gens} == {1, 2}
        assert {gen for gen, after in swap_gens if after} == {2}
        assert {o[3] for o in ok if o[0] == stable} == {1}


# ----------------------------------------------------------------------
# Route-word bitmask satellite: masks are carried and faithful
# ----------------------------------------------------------------------
class TestRouteWordMasks:
    def test_routes_carry_exact_masks(self, fig1):
        engine = IKRQEngine(fig1.space, fig1.kindex)
        query = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=60.0,
                     keywords=("latte", "apple"), k=3)
        ctx = engine.context(query)
        assert ctx._use_masks
        route = ctx.start_route()
        assert route.words_mask == fig1.kindex.iword_mask(route.words)
        answer = engine.search(query, "ToE")
        for result in answer.routes:
            mask = result.route.words_mask
            assert mask == fig1.kindex.iword_mask(result.route.words)
            assert mask.bit_count() == len(result.route.words)

    def test_mask_and_reference_paths_agree(self, fig1):
        from repro.space.baseline import build_reference_engine, \
            reference_context
        engine = IKRQEngine(fig1.space, fig1.kindex)
        reference = build_reference_engine(fig1.space, fig1.kindex)
        query = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=70.0,
                     keywords=("coffee", "phone"), k=3)
        fast = engine.search(query, "ToE")
        slow = reference.search(query, "ToE",
                                context=reference_context(reference, query))
        assert canonical_json(answer_to_wire(fast)) == canonical_json(
            answer_to_wire(slow))
        # The reference context never engages the mask path.
        ctx = reference_context(reference, query)
        assert not ctx._use_masks
        assert ctx.start_route().words_mask == 0
