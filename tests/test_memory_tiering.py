"""Memory tiering: aligned snapshots, mmap loads, row spill, generation GC."""

from __future__ import annotations

import json
import os
import struct
import threading
import time

import pytest

from repro.core import IKRQ, IKRQEngine
from repro.core.engine import QueryService
from repro.serve.pool import ShardDispatcher, ShardPool
from repro.serve.registry import SnapshotRegistry
from repro.serve.snapshot import (BINARY_MAGIC, SNAPSHOT_ALIGN,
                                  load_snapshot, read_snapshot,
                                  save_snapshot)
from repro.serve.wire import answer_to_wire, canonical_json, query_to_wire
from repro.space.graph import DoorMatrix
from repro.space.rowcache import RowCacheFile


@pytest.fixture(scope="module")
def warm_engine(fig1):
    engine = IKRQEngine(fig1.space, fig1.kindex)
    engine.door_matrix()
    return engine


@pytest.fixture(scope="module")
def aligned_path(warm_engine, tmp_path_factory):
    path = tmp_path_factory.mktemp("tiering") / "aligned.snap.bin"
    save_snapshot(path, warm_engine, binary=True)
    return str(path)


@pytest.fixture(scope="module")
def legacy_path(warm_engine, tmp_path_factory):
    path = tmp_path_factory.mktemp("tiering") / "legacy.snap.bin"
    save_snapshot(path, warm_engine, binary=True, page_align=None)
    return str(path)


def _header(path):
    with open(path, "rb") as fh:
        assert fh.read(len(BINARY_MAGIC)) == BINARY_MAGIC
        _, header_len = struct.unpack("<II", fh.read(8))
        return json.loads(fh.read(header_len).decode("utf-8")), header_len


# ----------------------------------------------------------------------
# The aligned (v2.1) layout
# ----------------------------------------------------------------------
class TestAlignedLayout:
    def test_sections_are_page_aligned(self, aligned_path):
        header, header_len = _header(aligned_path)
        assert header["align"] == SNAPSHOT_ALIGN
        payload_base = -(-(len(BINARY_MAGIC) + 8 + header_len)
                         // SNAPSHOT_ALIGN) * SNAPSHOT_ALIGN
        size = os.path.getsize(aligned_path)
        for name, typecode, count, offset in header["arrays"]:
            assert offset % SNAPSHOT_ALIGN == 0, name
            assert (payload_base + offset) % SNAPSHOT_ALIGN == 0, name
            assert payload_base + offset <= size

    def test_legacy_layout_has_no_offsets(self, legacy_path):
        header, _ = _header(legacy_path)
        assert "align" not in header
        assert all(len(entry) == 3 for entry in header["arrays"])

    def test_both_layouts_normalise_identically(self, aligned_path,
                                                legacy_path, warm_engine):
        norm = lambda doc: json.loads(json.dumps(doc, sort_keys=True))  # noqa: E731
        assert (norm(read_snapshot(aligned_path))
                == norm(read_snapshot(legacy_path)))

    def test_eager_loads_equal_across_layouts(self, aligned_path,
                                              legacy_path, warm_engine):
        a = load_snapshot(aligned_path)
        b = load_snapshot(legacy_path)
        assert (a.graph.csr_arrays() == b.graph.csr_arrays()
                == warm_engine.graph.csr_arrays())
        assert a._matrix.warm_rows() == b._matrix.warm_rows()

    def test_truncated_aligned_file_rejected(self, aligned_path, tmp_path):
        data = open(aligned_path, "rb").read()
        clipped = tmp_path / "clipped.bin"
        clipped.write_bytes(data[:len(data) - 64])
        with pytest.raises(ValueError, match="truncated"):
            read_snapshot(str(clipped))
        with pytest.raises(ValueError, match="truncated"):
            load_snapshot(str(clipped), mmap=True)


# ----------------------------------------------------------------------
# mmap loads
# ----------------------------------------------------------------------
class TestMmapLoad:
    def test_buffers_are_mapped_views(self, aligned_path):
        engine = load_snapshot(aligned_path, mmap=True)
        assert engine.mapped_bytes > 0
        graph = engine.graph
        for buf in (graph._door_ids, graph._indptr, graph._nbr,
                    graph._via, graph._wt, engine.skeleton._s2s):
            assert isinstance(buf, memoryview)
        breakdown = engine.memory_breakdown()
        assert breakdown["mapped_bytes"] > 0
        # Every CSR/skeleton buffer is mapped; heap holds at most
        # matrix rows faulted after load (none yet).
        assert breakdown["heap_bytes"] == 0

    def test_mmap_answers_bit_identical_to_eager(self, fig1, aligned_path):
        eager = load_snapshot(aligned_path)
        mapped = load_snapshot(aligned_path, mmap=True)
        assert mapped.graph.csr_arrays() == eager.graph.csr_arrays()
        assert mapped.skeleton.export() == eager.skeleton.export()
        assert mapped._matrix.warm_rows() == eager._matrix.warm_rows()
        for algo in ("ToE", "KoE", "KoE*"):
            query = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=60.0,
                         keywords=("latte", "apple"), k=3)
            expected = canonical_json(
                answer_to_wire(eager.search(query, algo)))
            got = canonical_json(answer_to_wire(mapped.search(query, algo)))
            assert got == expected, algo

    def test_mmap_falls_back_on_legacy_layout(self, legacy_path):
        engine = load_snapshot(legacy_path, mmap=True)
        assert engine.mapped_bytes == 0
        assert not isinstance(engine.graph._wt, memoryview)

    def test_mmap_skips_index_builds(self, aligned_path):
        from repro.space.graph import DoorGraph
        from repro.space.skeleton import SkeletonIndex
        csr_before = DoorGraph.csr_builds
        s2s_before = SkeletonIndex.s2s_builds
        load_snapshot(aligned_path, mmap=True)
        assert DoorGraph.csr_builds == csr_before
        assert SkeletonIndex.s2s_builds == s2s_before


# ----------------------------------------------------------------------
# The spill tier
# ----------------------------------------------------------------------
class TestSpillTier:
    def test_row_cache_round_trip_is_byte_identical(self, fig1_engine,
                                                    tmp_path):
        graph = fig1_engine.graph
        cache = RowCacheFile(graph, tmp_path / "rows.cache")
        doors = sorted(fig1_engine.space.doors)[:4]
        for did in doors:
            tree = graph.dijkstra_tree(did)
            assert cache.store(did, tree)
            assert not cache.store(did, tree)  # pure rows: stored once
            faulted = cache.load(did)
            assert faulted.dist.tobytes() == tree.dist.tobytes()
            assert faulted.pred.tobytes() == tree.pred.tobytes()
            assert faulted.pred_via.tobytes() == tree.pred_via.tobytes()
            assert list(faulted.touched) == sorted(tree.touched)
        assert cache.load(10**9) is None
        assert len(cache) == len(doors)
        assert cache.nbytes == os.path.getsize(cache.path)
        cache.close()
        assert not os.path.exists(cache.path)

    def test_eviction_spills_and_faults_back(self, fig1_engine, tmp_path):
        graph = fig1_engine.graph
        matrix = DoorMatrix(graph, max_rows=2,
                            spill_path=tmp_path / "spill.rows")
        reference = DoorMatrix(graph)
        doors = sorted(fig1_engine.space.doors)
        for di in doors:
            for dj in doors[:2]:
                assert matrix.distance(di, dj) == reference.distance(di, dj)
                assert matrix.route(di, dj) == reference.route(di, dj)
        assert matrix.num_cached_rows() <= 2  # budget holds throughout
        assert matrix.evictions > 0
        assert matrix.spills > 0
        counters = matrix.memory_counters()
        assert counters["spilled_rows"] == len(matrix._spill)
        assert counters["spilled_bytes"] > 0
        # Revisit the coldest door: must fault from disk, not recompute.
        before_hits = matrix.spill_hits
        assert matrix.distance(doors[0], doors[1]) \
            == reference.distance(doors[0], doors[1])
        assert matrix.spill_hits == before_hits + 1

    def test_spill_counters_flow_into_service_stats(self, fig1, tmp_path):
        engine = IKRQEngine(fig1.space, fig1.kindex,
                            door_matrix_max_rows=2,
                            door_matrix_spill_path=str(tmp_path / "s.rows"))
        service = QueryService(engine, workers=1)
        query = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=60.0,
                     keywords=("coffee", "apple"), k=2)
        service.search(query, "KoE*")
        service.search(query, "KoE*")
        snap = service.stats_snapshot()
        matrix = engine.door_matrix()
        assert snap.door_matrix_spills == matrix.spills > 0
        assert snap.door_matrix_spill_hits == matrix.spill_hits
        assert snap.door_matrix_spill_misses == matrix.spill_misses > 0

    def test_budgeted_mmap_load_spills_preloaded_rows(self, aligned_path,
                                                      tmp_path):
        engine = load_snapshot(aligned_path, mmap=True,
                               matrix_spill_path=str(tmp_path / "w.rows"),
                               matrix_max_rows=2)
        matrix = engine._matrix
        assert matrix.num_cached_rows() == 2
        assert matrix.spills > 0  # displaced warm rows went to disk
        eager = load_snapshot(aligned_path)
        doors = sorted(engine.space.doors)
        for did in matrix._spill.sources():
            assert matrix.distance(did, doors[0]) \
                == eager.door_matrix().distance(did, doors[0])


class TestTieredTenant:
    def test_tiered_tenant_serves_paper_queries_identically(
            self, tenant_fleet, tmp_path):
        """A tenant loaded with every memory tier on — mmap'd buffers,
        a two-row matrix budget, a disk spill tier — answers KoE* on
        paper-method queries byte-identical to an eager load, with
        nothing on the heap after the load and rows faulting back from
        disk."""
        venue = tenant_fleet["mall-00"]
        warm = IKRQEngine(venue.engine.space, venue.engine.kindex)
        warm.door_matrix()
        path = str(tmp_path / "tenant.snap.bin")
        save_snapshot(path, warm, binary=True)
        eager = load_snapshot(path)
        tiered = load_snapshot(path, mmap=True,
                               matrix_spill_path=str(tmp_path / "t.rows"),
                               matrix_max_rows=2)
        assert tiered.memory_breakdown()["heap_bytes"] == 0
        for query, expected in zip(venue.queries, venue.expected["KoE*"]):
            assert canonical_json(answer_to_wire(
                eager.search(query, "KoE*"))) == expected
            assert canonical_json(answer_to_wire(
                tiered.search(query, "KoE*"))) == expected
        matrix = tiered.door_matrix()
        assert matrix.spills > 0
        assert matrix.spill_hits > 0


# ----------------------------------------------------------------------
# The running byte count
# ----------------------------------------------------------------------
def walked_bytes(matrix):
    """What ``estimated_bytes`` used to return: a walk of every row."""
    return sum(tree.estimated_bytes() for tree in matrix._rows.values())


def assert_count_matches_walk(matrix):
    walk = walked_bytes(matrix)
    assert matrix.estimated_bytes() == walk
    counters = matrix.memory_counters()
    assert counters["resident_rows"] == len(matrix._rows)
    assert (counters["resident_heap_bytes"]
            + counters["resident_mapped_bytes"]) == walk


class TestRunningByteCount:
    def test_count_follows_builds_evictions_spills_and_derivations(
            self, fig1_engine, tmp_path):
        graph = fig1_engine.graph
        matrix = DoorMatrix(graph, max_rows=3,
                            spill_path=tmp_path / "count.rows")
        assert matrix.estimated_bytes() == 0
        doors = sorted(fig1_engine.space.doors)
        # Lazy builds, then LRU evictions that spill to disk.
        for did in doors[:3]:
            matrix.distance(did, doors[0])
            assert_count_matches_walk(matrix)
        for did in doors[3:8]:
            matrix.distance(did, doors[0])
            assert_count_matches_walk(matrix)
        assert matrix.evictions > 0 and matrix.spills > 0
        # Faulted back from the spill file: ``touched`` is lazy.
        hits = matrix.spill_hits
        matrix.distance(doors[0], doors[1])
        assert matrix.spill_hits == hits + 1
        faulted = matrix._rows[doors[0]]
        assert faulted._touched is None
        assert_count_matches_walk(matrix)
        # Deriving ``touched`` after insertion grows the row.
        before = matrix.estimated_bytes()
        assert len(faulted.touched) > 0
        assert matrix.estimated_bytes() > before
        assert_count_matches_walk(matrix)
        # The grown row leaves the count exactly when evicted.
        for did in doors[8:12]:
            matrix.distance(did, doors[0])
            assert_count_matches_walk(matrix)
        assert doors[0] not in matrix._rows

    def test_count_follows_preloads(self, warm_engine, aligned_path):
        # Mapped warm rows enter with a lazy ``touched``.
        engine = load_snapshot(aligned_path, mmap=True)
        matrix = engine._matrix
        assert matrix.num_cached_rows() > 0
        assert all(tree.is_mapped() and tree._touched is None
                   for tree in matrix._rows.values())
        assert_count_matches_walk(matrix)
        # Dict-shaped export derives every ``touched``.
        matrix.warm_rows()
        assert_count_matches_walk(matrix)
        # Preloads over resident rows replace them in the count, and
        # a budgeted preload evicts.
        heap_rows = warm_engine.door_matrix().warm_trees()
        matrix.preload_trees(heap_rows)
        assert_count_matches_walk(matrix)
        budgeted = DoorMatrix(warm_engine.graph, max_rows=2)
        budgeted.preload_trees(heap_rows)
        assert budgeted.num_cached_rows() == 2
        assert_count_matches_walk(budgeted)


# ----------------------------------------------------------------------
# Generation GC
# ----------------------------------------------------------------------
class TestGenerationGC:
    def _registry_with_history(self, states):
        registry = SnapshotRegistry()
        gens = []
        for i, state in enumerate(states):
            gen = registry.add("mall", f"/snap/{i + 1}.bin")
            gen.state = state
            gens.append(gen)
        return registry, gens

    def test_collect_honours_keep_last(self):
        registry, gens = self._registry_with_history(
            ["retired", "retired", "retired", "active"])
        deleted = registry.collect("mall", keep_last=1)
        assert [g.generation for g in deleted] == [1, 2]
        assert [g.state for g in gens] == ["deleted", "deleted",
                                           "retired", "active"]
        assert all(g.deleted_unix is not None for g in deleted)
        # A second sweep finds nothing new.
        assert registry.collect("mall", keep_last=1) == []

    def test_collect_with_window_wider_than_history(self):
        # keep_last larger than the retired count must delete nothing
        # (a negative slice here once ate into the rollback window).
        registry, gens = self._registry_with_history(
            ["retired", "retired", "active"])
        assert registry.collect("mall", keep_last=3) == []
        assert [g.state for g in gens] == ["retired", "retired", "active"]

    def test_restore_retired_reoffers_after_failed_delete(self):
        registry, gens = self._registry_with_history(["retired", "active"])
        (doomed,) = registry.collect("mall", keep_last=0)
        assert doomed.state == "deleted"
        registry.restore_retired(doomed)
        assert doomed.state == "retired"
        assert doomed.deleted_unix is None
        # The next sweep offers it again.
        assert [g.generation
                for g in registry.collect("mall", keep_last=0)] == [1]

    def test_collect_never_touches_live_states(self):
        registry, gens = self._registry_with_history(
            ["retired", "draining", "active", "loading"])
        deleted = registry.collect("mall", keep_last=0)
        assert [g.generation for g in deleted] == [1]
        assert [g.state for g in gens] == ["deleted", "draining",
                                           "active", "loading"]

    def test_collect_skips_undrained_generations(self):
        registry, gens = self._registry_with_history(["retired", "active"])
        gens[0].in_flight = 1  # a drain that timed out
        assert registry.collect("mall", keep_last=0) == []
        gens[0].in_flight = 0
        assert [g.generation
                for g in registry.collect("mall", keep_last=0)] == [1]

    def test_collect_reaps_failed_generations(self):
        registry, gens = self._registry_with_history(
            ["retired", "failed", "active"])
        deleted = registry.collect("mall", keep_last=1)
        # Generation 1 is inside the rollback window; the failed one
        # never served and dies regardless of keep_last.
        assert [g.generation for g in deleted] == [2]

    def test_path_in_use_sees_all_venues(self):
        registry = SnapshotRegistry()
        a = registry.add("mall-a", "/snap/shared.bin")
        b = registry.add("mall-b", "/snap/shared.bin")
        a.state = "retired"
        b.state = "active"
        assert registry.path_in_use("/snap/shared.bin")
        registry.collect("mall-a", keep_last=0)
        assert registry.path_in_use("/snap/shared.bin")  # b still live
        b.state = "deleted"
        assert not registry.path_in_use("/snap/shared.bin")

    def test_ingest_deletes_retired_files(self, warm_engine, tmp_path):
        paths = []
        for i in range(4):
            path = tmp_path / f"gen{i}.snap.bin"
            save_snapshot(path, warm_engine, binary=True)
            paths.append(str(path))
        with ShardPool(paths[0], shards=1) as pool:
            dispatcher = ShardDispatcher(pool, max_pending=8,
                                         gc_keep_last=1)
            reports = [dispatcher.ingest("default", p) for p in paths[1:]]
        assert all(r["status"] == "ok" for r in reports)
        assert reports[0]["gc"] == []  # nothing beyond the window yet
        deleted = [d for r in reports for d in r["gc"]]
        assert [d["generation"] for d in deleted] == [1, 2]
        assert all(d["file_removed"] for d in deleted)
        survivors = [os.path.exists(p) for p in paths]
        assert survivors == [False, False, True, True]

    def test_failed_file_removal_defers_instead_of_orphaning(
            self, warm_engine, tmp_path):
        paths = []
        for i in range(2):
            path = tmp_path / f"gen{i}.snap.bin"
            save_snapshot(path, warm_engine, binary=True)
            paths.append(str(path))
        with ShardPool(paths[0], shards=1) as pool:
            dispatcher = ShardDispatcher(pool, max_pending=8,
                                         gc_keep_last=0)
            report = dispatcher.ingest("default", paths[1])
            assert report["status"] == "ok"
            # Make generation 1's path undeletable (os.remove on a
            # directory raises an OSError that is not FileNotFound).
            gen1 = dispatcher.registry._generations["default"][1]
            blocker = tmp_path / "blocker"
            blocker.mkdir()
            gen1.state = "retired"
            gen1.path = str(blocker)
            report = dispatcher.ingest("default", paths[1])
        (entry,) = [d for d in report["gc"] if d["generation"] == 1]
        assert entry["deferred"] and not entry["file_removed"]
        # Back to retired: the next sweep will retry, nothing orphaned.
        assert gen1.state == "retired"

    def _ingest_under_lease_checks(self, fig1, warm_engine, tmp_path,
                                   window_s):
        """Swap generations while a hammer serves and, holding a lease
        on the active generation (the one every request takes), checks
        that its file exists ``window_s`` later."""
        paths = []
        for i in range(3):
            path = tmp_path / f"gen{i}.snap.bin"
            save_snapshot(path, warm_engine, binary=True)
            paths.append(str(path))
        query_doc = query_to_wire(IKRQ(
            ps=fig1.ps, pt=fig1.pt, delta=60.0,
            keywords=("latte",), k=1))
        failures = []
        stop = threading.Event()
        with ShardPool(paths[0], shards=1) as pool:
            dispatcher = ShardDispatcher(pool, max_pending=16,
                                         gc_keep_last=0)
            registry = dispatcher.registry

            def hammer():
                while not stop.is_set():
                    response = dispatcher.submit(query_doc, "ToE")
                    if response.get("status") != "ok":
                        failures.append(response)
                        return
                    active = registry.acquire("default")
                    try:
                        time.sleep(window_s)
                        if not os.path.exists(active.path):
                            failures.append(
                                f"active file gone: {active.path}")
                            return
                    finally:
                        registry.release(active)

            thread = threading.Thread(target=hammer)
            thread.start()
            try:
                # The last swap re-ingests the file that is active at
                # that moment: the retired generation then shares its
                # path with the new active one, and GC must keep it.
                for path in (paths[1], paths[2], paths[2]):
                    report = dispatcher.ingest("default", path)
                    assert report["status"] == "ok"
            finally:
                stop.set()
                thread.join()
        assert failures == []
        # keep_last=0 deleted every retired generation's file except
        # the one the active generation still points at.
        assert not os.path.exists(paths[0])
        assert not os.path.exists(paths[1])
        assert os.path.exists(paths[2])

    def test_gc_never_deletes_active_under_concurrent_ingest(
            self, fig1, warm_engine, tmp_path):
        self._ingest_under_lease_checks(fig1, warm_engine, tmp_path, 0.0)

    def test_gc_waits_for_a_lease_held_across_a_swap(
            self, fig1, warm_engine, tmp_path):
        # A 50 ms window between taking the lease and checking the file
        # makes the swaps land inside it: the drain must wait it out.
        self._ingest_under_lease_checks(fig1, warm_engine, tmp_path, 0.05)


# ----------------------------------------------------------------------
# Memory reporting across the pool
# ----------------------------------------------------------------------
class TestMemoryReporting:
    def test_stats_broadcast_carries_memory_and_rss(self, aligned_path,
                                                    tmp_path):
        with ShardPool(aligned_path, shards=1,
                       service_options={
                           "mmap": True,
                           "matrix_spill_dir": str(tmp_path / "spill"),
                           "matrix_max_rows": 2}) as pool:
            docs = pool.stats()
        assert len(docs) == 1 and docs[0]["status"] == "ok"
        assert docs[0]["rss_bytes"] > 0
        entry = docs[0]["venue_stats"][0]
        memory = entry["memory"]
        assert memory["mapped_bytes"] > 0
        assert memory["spilled_rows"] > 0  # warm rows beyond the budget
        assert memory["matrix_resident_rows"] == 2
        stats = entry["stats"]
        assert stats["door_matrix_spills"] > 0
