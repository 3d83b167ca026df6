"""Supervision, crash failover and deterministic fault injection.

Every pool here runs with fast supervision clocks (tens of
milliseconds) so the crash → detect → fail-pending → respawn cycle
completes in test time; production defaults are seconds.  Faults are
injected deterministically through :class:`FaultPlan` — no external
``kill`` racing the request stream — so each test exercises one exact
window (crash before the reply, crash during an ingest load, a stall,
a deterministic load failure, a crash loop).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import IKRQ, IKRQEngine
from repro.serve import (AdmissionController, DEFAULT_VENUE, FaultPlan,
                         ShardDispatcher, ShardPool, TenantQuota,
                         answer_to_wire, canonical_json, load_snapshot,
                         query_to_wire, save_snapshot, shard_for)
from repro.serve.faults import FaultRule


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory):
    from repro.datasets import paper_fig1
    fixture = paper_fig1()
    engine = IKRQEngine(fixture.space, fixture.kindex)
    path = tmp_path_factory.mktemp("faults") / "fig1.snapshot.json"
    save_snapshot(path, engine)
    return str(path)


@pytest.fixture(scope="module")
def engine(snapshot_path):
    return load_snapshot(snapshot_path)


@pytest.fixture(scope="module")
def query_doc(fig1):
    return query_to_wire(IKRQ(ps=fig1.ps, pt=fig1.pt, delta=60.0,
                              keywords=("latte", "apple"), k=3))


def _expected(engine, query_doc, algorithm="ToE"):
    from repro.serve import query_from_wire
    return canonical_json(
        answer_to_wire(engine.search(query_from_wire(query_doc),
                                     algorithm)))


def _got(response):
    return canonical_json({"algorithm": response["algorithm"],
                           "routes": response["routes"]})


def _fast_pool(snapshot_path, plan, **kwargs):
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("heartbeat_interval", 0.1)
    kwargs.setdefault("heartbeat_timeout", 5.0)
    kwargs.setdefault("restart_backoff_s", 0.05)
    kwargs.setdefault("restart_backoff_max_s", 0.2)
    return ShardPool(snapshot_path, fault_plan=plan, **kwargs)


@pytest.mark.slow
class TestCrashFailover:
    def test_crash_mid_request_fails_fast_and_fails_over(
            self, snapshot_path, engine, query_doc):
        affinity = shard_for(query_doc["ps"], query_doc["pt"], 2)
        sibling = 1 - affinity
        # The affinity shard dies *between* dequeuing the first search
        # and replying; the restart (boot 1) is clean.
        plan = FaultPlan().crash_before_reply(affinity, index=0, to_boot=0)
        pool = _fast_pool(snapshot_path, plan)
        try:
            dispatcher = ShardDispatcher(pool, failover_retries=1)
            started = time.monotonic()
            response = dispatcher.submit(query_doc)
            elapsed = time.monotonic() - started
            # Fast failure + failover: nowhere near the 300 s RPC
            # timeout the pre-supervision pool would have burned.
            assert response["status"] == "ok"
            assert elapsed < 30.0
            assert response["shard"] == sibling
            assert dispatcher.failovers >= 1
            assert _got(response) == _expected(engine, query_doc)
            # The supervisor replaces the crashed worker; once it is
            # back, the affinity shard serves byte-identical answers.
            assert pool.wait_all_up(timeout=20.0)
            assert pool.restarts_total >= 1
            response = dispatcher.submit(query_doc)
            assert response["status"] == "ok"
            assert response["shard"] == affinity
            assert _got(response) == _expected(engine, query_doc)
        finally:
            pool.close()

    def test_pool_call_fast_shard_down_without_failover(
            self, snapshot_path, query_doc):
        plan = FaultPlan().crash_before_reply(0, every=True, to_boot=0)
        pool = _fast_pool(snapshot_path, plan)
        try:
            started = time.monotonic()
            response = pool.call(0, {"kind": "search", "query": query_doc,
                                     "venue": DEFAULT_VENUE,
                                     "generation": 1}, timeout=60.0)
            assert response["status"] == "shard_down"
            assert response["shard"] == 0
            assert time.monotonic() - started < 15.0
        finally:
            pool.close()

    def test_stalled_worker_hits_heartbeat_timeout_and_restarts(
            self, snapshot_path, engine, query_doc):
        plan = FaultPlan().stall(0, index=0, seconds=60.0, to_boot=0)
        pool = _fast_pool(snapshot_path, plan, heartbeat_interval=0.05,
                          heartbeat_timeout=0.5)
        try:
            response = pool.call(0, {"kind": "search", "query": query_doc,
                                     "venue": DEFAULT_VENUE,
                                     "generation": 1}, timeout=30.0)
            # The stall detector declares the hung worker dead and
            # sweeps the pending call — no reply ever comes from it.
            assert response["status"] == "shard_down"
            assert pool.wait_all_up(timeout=20.0)
            assert pool.restarts_total >= 1
            response = pool.call(0, {"kind": "search", "query": query_doc,
                                     "venue": DEFAULT_VENUE,
                                     "generation": 1}, timeout=60.0)
            assert response["status"] == "ok"
            assert _got(response) == _expected(engine, query_doc)
        finally:
            pool.close()


@pytest.mark.slow
class TestKillMidStream:
    """An external SIGKILL while two venues are under load: no request
    fails, every answer stays byte-identical, and the fleet heals."""

    def test_sigkill_under_load_keeps_answers_identical(
            self, tenant_fleet, tenant_snapshots):
        pool = ShardPool(venues=tenant_snapshots, shards=2,
                         heartbeat_interval=0.1, heartbeat_timeout=5.0,
                         restart_backoff_s=0.05, restart_backoff_max_s=0.2)
        try:
            dispatcher = ShardDispatcher(pool, failover_retries=2)
            lock = threading.Lock()
            completed = [0]
            outcomes = []  # (venue, query index, status, identical)

            def hammer(venue):
                docs = [query_to_wire(q) for q in venue.queries]
                expected = venue.expected["ToE"]
                for i in list(range(len(docs))) * 2:
                    response = dispatcher.submit(docs[i], "ToE",
                                                 venue=venue.name)
                    status = response.get("status")
                    with lock:
                        outcomes.append((
                            venue.name, i, status,
                            status == "ok" and _got(response) == expected[i]))
                        completed[0] += 1

            threads = [threading.Thread(target=hammer, args=(venue,))
                       for venue in tenant_fleet.values()]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 60.0
            while completed[0] < 20 and time.monotonic() < deadline:
                time.sleep(0.002)
            killed = pool.kill_shard(0)
            at_kill = completed[0]
            for thread in threads:
                thread.join()

            assert killed
            assert len(outcomes) == 2 * sum(
                len(v.queries) for v in tenant_fleet.values())
            assert at_kill < len(outcomes)  # the kill landed mid-stream
            bad = [o for o in outcomes if o[2] not in ("ok", "overloaded")]
            assert bad == []
            mismatched = [o for o in outcomes if o[2] == "ok" and not o[3]]
            assert mismatched == []
            assert pool.wait_all_up(timeout=30.0)
            assert pool.restarts_total >= 1
            # The healed fleet answers every query, the restarted worker
            # included, byte-identical to the reference.
            for venue in tenant_fleet.values():
                for query, expected in zip(venue.queries,
                                           venue.expected["ToE"]):
                    response = dispatcher.submit(query_to_wire(query), "ToE",
                                                 venue=venue.name)
                    assert response["status"] == "ok"
                    assert _got(response) == expected
        finally:
            pool.close()


@pytest.mark.slow
class TestNoRetryOnTimeout:
    def test_timed_out_search_is_not_rerun_on_a_sibling(
            self, snapshot_path, query_doc):
        # The affinity shard stalls past the request's deadline (the
        # stall detector is off, so it is slow, not dead).  Searches
        # are deterministic: a sibling would only repeat the slow
        # evaluation, so the dispatcher answers without a failover.
        affinity = shard_for(query_doc["ps"], query_doc["pt"], 2)
        sibling = 1 - affinity
        plan = FaultPlan().stall(affinity, index=0, seconds=4.0)
        pool = _fast_pool(snapshot_path, plan, heartbeat_timeout=0.0)
        try:
            dispatcher = ShardDispatcher(pool, failover_retries=1)
            response = dispatcher.submit(query_doc, deadline_s=0.2)
            assert response["status"] in ("timeout", "expired")
            assert response["shard"] == affinity
            assert dispatcher.failovers == 0
            stats = pool.call(sibling, {"kind": "stats"}, timeout=30.0)
            assert stats["status"] == "ok"
            assert stats["stats"]["queries_served"] == 0
            assert stats["stats"]["answer_misses"] == 0
        finally:
            pool.close()


@pytest.mark.slow
class TestQuarantine:
    def test_crash_loop_exhausts_budget_and_quarantines(
            self, snapshot_path, engine, query_doc):
        # Initial boot is fine; every *restart* dies before loading
        # anything — the canonical crash loop.
        plan = FaultPlan().crash_on_start(0)
        pool = _fast_pool(snapshot_path, plan, restart_budget=2,
                          restart_window_s=60.0)
        try:
            dispatcher = ShardDispatcher(pool, failover_retries=1)
            pool.kill_shard(0)
            deadline = time.monotonic() + 30.0
            while (pool.shard_state(0) != "quarantined"
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert pool.shard_state(0) == "quarantined"
            assert pool.restarts_total == 2
            assert pool.live_shards() == [1]
            assert not pool.alive()
            # The half-dead pool still serves: shard-0 affinity
            # traffic is rerouted to the survivor, byte-identical.
            for _ in range(4):
                response = dispatcher.submit(query_doc)
                assert response["status"] == "ok"
                assert response["shard"] == 1
                assert _got(response) == _expected(engine, query_doc)
        finally:
            pool.close()


@pytest.mark.slow
class TestIngestUnderFailure:
    def test_worker_death_mid_ingest_keeps_venue_consistent(
            self, snapshot_path, engine, query_doc):
        # Load op index 1 is the ingest broadcast (index 0 was the
        # boot-time load); the crash is capped to boot 0 so the
        # replacement's warm-restart reloads are clean.
        plan = FaultPlan().crash_before_reply(1, op="load", index=1,
                                              to_boot=0)
        pool = _fast_pool(snapshot_path, plan)
        try:
            dispatcher = ShardDispatcher(pool, failover_retries=1)
            report = dispatcher.ingest(DEFAULT_VENUE, snapshot_path,
                                       load_timeout=60.0)
            # The flip proceeds on the survivor instead of wedging the
            # venue between generations.
            assert report["status"] == "ok"
            assert report["generation"] == 2
            assert report["shards_down"] == 1
            assert report["shards_loaded"] == 1
            assert (dispatcher.registry.active_generation(DEFAULT_VENUE)
                    == 2)
            # The replacement warm-restarts onto the new generation
            # from the assignment manifest and serves it identically.
            assert pool.wait_all_up(timeout=20.0)
            assert set(pool.assignments()) == {(DEFAULT_VENUE, 2)}
            for shard in (0, 1):
                response = pool.call(
                    shard, {"kind": "search", "query": query_doc,
                            "venue": DEFAULT_VENUE, "generation": 2},
                    timeout=60.0)
                assert response["status"] == "ok"
                assert _got(response) == _expected(engine, query_doc)
            response = dispatcher.submit(query_doc)
            assert response["status"] == "ok"
            assert response["generation"] == 2
        finally:
            pool.close()

    def test_deterministic_load_failure_still_aborts_ingest(
            self, snapshot_path, query_doc):
        plan = FaultPlan().reject_load(1, index=1, to_boot=0)
        pool = _fast_pool(snapshot_path, plan)
        try:
            dispatcher = ShardDispatcher(pool)
            report = dispatcher.ingest(DEFAULT_VENUE, snapshot_path)
            # A *deterministic* load failure (bad snapshot) is not a
            # crash: all-or-nothing still holds, nobody restarts.
            assert report["status"] == "error"
            assert (dispatcher.registry.active_generation(DEFAULT_VENUE)
                    == 1)
            assert pool.restarts_total == 0
            assert pool.alive()
            response = dispatcher.submit(query_doc)
            assert response["status"] == "ok"
            assert response["generation"] == 1
        finally:
            pool.close()


@pytest.mark.slow
class TestTeardownAndLateResponses:
    def test_close_escalates_past_a_stuck_worker(self, snapshot_path,
                                                 query_doc):
        # heartbeat_timeout=0 disables the stall detector: the worker
        # sits in a 60 s sleep when close() runs, so the cooperative
        # shutdown sentinel is never read and teardown must escalate.
        plan = FaultPlan().stall(0, index=0, seconds=60.0)
        pool = _fast_pool(snapshot_path, plan, heartbeat_timeout=0.0)
        response = pool.call(0, {"kind": "search", "query": query_doc,
                                 "venue": DEFAULT_VENUE, "generation": 1},
                             timeout=0.2)
        assert response["status"] == "timeout"
        started = time.monotonic()
        pool.close(join_timeout=1.0)
        assert time.monotonic() - started < 10.0
        assert all(not worker["alive"] for worker in pool.shard_states())

    def test_late_response_is_counted_not_dropped(self, snapshot_path,
                                                  query_doc):
        plan = FaultPlan().stall(0, index=0, seconds=0.4)
        pool = _fast_pool(snapshot_path, plan, heartbeat_timeout=0.0)
        try:
            response = pool.call(0, {"kind": "search", "query": query_doc,
                                     "venue": DEFAULT_VENUE,
                                     "generation": 1}, timeout=0.05)
            assert response["status"] == "timeout"
            deadline = time.monotonic() + 10.0
            while pool.late_responses == 0 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.late_responses == 1
        finally:
            pool.close()


class TestDegradedAdmission:
    def test_capacity_fraction_scales_pool_bound(self):
        admission = AdmissionController(max_pending=4)
        assert admission.try_acquire("v", capacity_fraction=0.5)
        assert admission.try_acquire("v", capacity_fraction=0.5)
        # ceil(4 * 0.5) = 2: the third concurrent request sheds.
        assert not admission.try_acquire("v", capacity_fraction=0.5)
        assert admission.try_acquire("v", capacity_fraction=1.0)
        admission.release("v")
        admission.release("v")
        admission.release("v")

    def test_capacity_fraction_scales_quota_and_floors_at_one(self):
        admission = AdmissionController(
            max_pending=8, default_quota=TenantQuota(max_in_flight=2))
        # ceil(2 * 0.5) = 1 per venue — but never zero: even at a tiny
        # live fraction another venue still gets one slot (the pool
        # bound scales too, ceil(8 * 0.25) = 2, so "b" fits).
        assert admission.try_acquire("a", capacity_fraction=0.5)
        assert not admission.try_acquire("a", capacity_fraction=0.5)
        assert admission.try_acquire("b", capacity_fraction=0.25)
        admission.release("a")
        admission.release("b")

    def test_tiny_fraction_floors_at_one_slot(self):
        # Even with one live shard in a huge fleet, the pool must
        # admit *something* — max(1, ceil(...)) never reaches zero.
        admission = AdmissionController(max_pending=100)
        assert admission.try_acquire("v", capacity_fraction=0.001)
        assert not admission.try_acquire("v", capacity_fraction=0.001)
        admission.release("v")

    def test_zero_fraction_still_admits_one(self):
        admission = AdmissionController(
            max_pending=4, default_quota=TenantQuota(max_in_flight=2))
        assert admission.try_acquire("v", capacity_fraction=0.0)
        assert not admission.try_acquire("v", capacity_fraction=0.0)
        admission.release("v")

    def test_fraction_clamps_above_one(self):
        # A fraction > 1 (more live shards reported than configured)
        # must not inflate the queue depth past max_pending.
        admission = AdmissionController(max_pending=2)
        assert admission.try_acquire("v", capacity_fraction=5.0)
        assert admission.try_acquire("v", capacity_fraction=5.0)
        assert not admission.try_acquire("v", capacity_fraction=5.0)
        admission.release("v")
        admission.release("v")

    def test_negative_fraction_clamps_to_the_floor(self):
        admission = AdmissionController(max_pending=8)
        assert admission.try_acquire("v", capacity_fraction=-1.0)
        assert not admission.try_acquire("v", capacity_fraction=-1.0)
        admission.release("v")

    def test_quota_scaling_uses_ceil_not_floor(self):
        # quota 3 at fraction 0.4: ceil(1.2) = 2 slots, not floor's 1.
        admission = AdmissionController(
            max_pending=16, default_quota=TenantQuota(max_in_flight=3))
        assert admission.try_acquire("v", capacity_fraction=0.4)
        assert admission.try_acquire("v", capacity_fraction=0.4)
        assert not admission.try_acquire("v", capacity_fraction=0.4)
        admission.release("v")
        admission.release("v")

    def test_degraded_pool_bound_caps_tenants_jointly(self):
        # Per-venue quotas of 4 would allow 2+2 at fraction 0.5, but
        # the pool bound ceil(6 * 0.5) = 3 is the binding constraint:
        # the fourth concurrent request sheds on the *pool*, not the
        # venue, and the shed is charged to the venue that sent it.
        admission = AdmissionController(
            max_pending=6, default_quota=TenantQuota(max_in_flight=4))
        assert admission.try_acquire("a", capacity_fraction=0.5)
        assert admission.try_acquire("a", capacity_fraction=0.5)
        assert admission.try_acquire("b", capacity_fraction=0.5)
        assert not admission.try_acquire("b", capacity_fraction=0.5)
        counters = admission.venue_counters()
        assert counters["b"]["shed"] == 1
        assert counters["a"]["shed"] == 0
        for venue in ("a", "a", "b"):
            admission.release(venue)

    def test_per_venue_quota_binds_before_the_pool_under_degradation(self):
        # The mirror case: plenty of pool depth, but the noisy venue's
        # scaled quota (ceil(2 * 0.5) = 1) sheds its second request
        # while a quiet venue is still admitted.
        admission = AdmissionController(
            max_pending=32, default_quota=TenantQuota(max_in_flight=2))
        assert admission.try_acquire("noisy", capacity_fraction=0.5)
        assert not admission.try_acquire("noisy", capacity_fraction=0.5)
        assert admission.try_acquire("quiet", capacity_fraction=0.5)
        counters = admission.venue_counters()
        assert counters["noisy"]["shed"] == 1
        assert counters["quiet"]["shed"] == 0
        admission.release("noisy")
        admission.release("quiet")

    def test_recovery_restores_full_depth(self):
        admission = AdmissionController(max_pending=3)
        assert admission.try_acquire("v", capacity_fraction=1.0 / 3.0)
        assert not admission.try_acquire("v", capacity_fraction=1.0 / 3.0)
        # All shards back: the remaining depth opens up immediately.
        assert admission.try_acquire("v", capacity_fraction=1.0)
        assert admission.try_acquire("v", capacity_fraction=1.0)
        assert not admission.try_acquire("v", capacity_fraction=1.0)
        for _ in range(3):
            admission.release("v")


class TestFaultPlanWire:
    def test_rules_round_trip(self):
        plan = (FaultPlan()
                .crash_before_reply(1, index=3, to_boot=0)
                .crash_after_reply(0, from_boot=1)
                .stall(1, seconds=2.5)
                .reject_load(0, every=True)
                .crash_on_start(1))
        docs = plan.to_wire()
        back = FaultPlan.from_wire(docs)
        assert back.to_wire() == docs
        assert bool(back)
        assert not FaultPlan()

    def test_boot_gating(self):
        rule = FaultRule("search", 0, "crash", from_boot=1, to_boot=2)
        assert [rule.matches_boot(b) for b in range(4)] == [
            False, True, True, False]
