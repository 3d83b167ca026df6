"""QueryService, algorithm aliases, the door-matrix budget, and the
early-exit fix of the unified Dijkstra."""

from __future__ import annotations

import math

import pytest

from repro.core import IKRQ, IKRQEngine, QueryService, canonical_algorithm
from repro.core.engine import _ALIASES, ALGORITHMS
from repro.space import DoorGraph
from repro.space.graph import DoorMatrix

INF = math.inf


# ----------------------------------------------------------------------
# Algorithm aliases
# ----------------------------------------------------------------------
class TestAliases:
    @pytest.mark.parametrize("alias", sorted(_ALIASES))
    def test_every_alias_resolves(self, alias):
        canonical = canonical_algorithm(alias)
        assert canonical in ALGORITHMS + ("naive",)
        assert canonical == _ALIASES[alias]

    @pytest.mark.parametrize("alias", sorted(_ALIASES))
    def test_aliases_are_case_insensitive(self, alias):
        assert canonical_algorithm(alias.upper()) == _ALIASES[alias]

    def test_paper_spellings(self):
        assert canonical_algorithm("ToE\\D") == "ToE-D"
        assert canonical_algorithm("KoE\\B") == "KoE-B"
        assert canonical_algorithm("KoE*") == "KoE*"

    def test_unknown_name_lists_canonicals_and_aliases(self):
        with pytest.raises(ValueError) as err:
            canonical_algorithm("bogus")
        message = str(err.value)
        for canonical in ALGORITHMS + ("naive",):
            assert canonical in message
        # Paper spellings and other non-trivial aliases are listed too.
        for alias in ("toe\\d", "koe\\b", "koestar", "baseline"):
            assert alias in message


# ----------------------------------------------------------------------
# Unified Dijkstra early exit (targets already settled at entry)
# ----------------------------------------------------------------------
class TestDijkstraEarlyExit:
    def test_source_only_target_explores_nothing(self, fig1):
        graph = DoorGraph(fig1.space)
        d1 = fig1.did("d1")
        dist, pred = graph.dijkstra(d1, targets={d1})
        assert dist == {d1: 0.0}
        assert pred == {}

    def test_empty_target_set_explores_nothing(self, fig1):
        graph = DoorGraph(fig1.space)
        d1 = fig1.did("d1")
        dist, pred = graph.dijkstra(d1, targets=set())
        assert dist == {d1: 0.0}
        assert pred == {}

    def test_workspace_reuse_is_isolated(self, fig1):
        """Runs sharing one workspace equal runs on fresh workspaces."""
        graph = DoorGraph(fig1.space)
        shared = graph.new_workspace()
        doors = sorted(fig1.space.doors)[:6]
        for source in doors:
            reused = graph.dijkstra(source, workspace=shared)
            fresh = graph.dijkstra(source, workspace=graph.new_workspace())
            assert reused == fresh


# ----------------------------------------------------------------------
# Memory-budgeted DoorMatrix + engine eagerness
# ----------------------------------------------------------------------
class TestDoorMatrixBudget:
    def test_cap_evicts_lru(self, fig1):
        graph = DoorGraph(fig1.space)
        matrix = DoorMatrix(graph, max_rows=2)
        doors = sorted(fig1.space.doors)[:4]
        for did in doors:
            matrix.distance(did, doors[0])
        assert matrix.num_cached_rows() == 2
        assert matrix.evictions == 2

    def test_lru_order_keeps_hot_rows(self, fig1):
        graph = DoorGraph(fig1.space)
        matrix = DoorMatrix(graph, max_rows=2)
        a, b, c = sorted(fig1.space.doors)[:3]
        matrix.distance(a, b)
        matrix.distance(b, a)
        matrix.distance(a, c)   # refresh a: b becomes the LRU row
        matrix.distance(c, a)   # evicts b
        assert matrix.evictions == 1
        assert set(matrix._rows) == {a, c}

    def test_evicted_rows_recompute_identically(self, fig1):
        graph = DoorGraph(fig1.space)
        budget = DoorMatrix(graph, max_rows=1)
        free = DoorMatrix(graph)
        doors = sorted(fig1.space.doors)[:5]
        for di in doors:
            for dj in doors:
                assert budget.distance(di, dj) == free.distance(di, dj)
                assert budget.route(di, dj) == free.route(di, dj)

    def test_eager_respects_cap(self, fig1):
        graph = DoorGraph(fig1.space)
        matrix = DoorMatrix(graph, eager=True, max_rows=3)
        assert matrix.num_cached_rows() == 3
        # Budgeted eager prefill stops at the cap instead of computing
        # every row and evicting most of them.
        assert matrix.evictions == 0

    def test_default_workspace_is_thread_local(self, fig1):
        import threading
        graph = DoorGraph(fig1.space)
        seen = {}

        def grab(name):
            seen[name] = graph.workspace

        threads = [threading.Thread(target=grab, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen[0] is not seen[1]
        assert graph.workspace is graph.workspace

    def test_invalid_cap_rejected(self, fig1):
        graph = DoorGraph(fig1.space)
        with pytest.raises(ValueError):
            DoorMatrix(graph, max_rows=0)

    def test_engine_eagerness_is_configurable(self, fig1):
        lazy = IKRQEngine(fig1.space, fig1.kindex, door_matrix_eager=False)
        assert lazy.door_matrix().num_cached_rows() == 0
        eager = IKRQEngine(fig1.space, fig1.kindex)
        assert (eager.door_matrix().num_cached_rows()
                == fig1.space.num_doors)

    def test_engine_budget_reaches_koestar_stats(self, fig1):
        engine = IKRQEngine(fig1.space, fig1.kindex,
                            door_matrix_max_rows=2)
        query = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=60.0,
                     keywords=("coffee", "apple"), k=2)
        first = engine.search(query, "KoE*")
        assert engine.door_matrix().num_cached_rows() <= 2
        assert engine.door_matrix().evictions > 0
        # Per-search stat counts this search's evictions, not the
        # engine-held matrix's lifetime total.
        assert first.stats.matrix_evictions > 0
        second = engine.search(query, "KoE*")
        assert (first.stats.matrix_evictions + second.stats.matrix_evictions
                == engine.door_matrix().evictions)
        # The budgeted matrix must not change results.
        unbudgeted = IKRQEngine(fig1.space, fig1.kindex)
        reference = unbudgeted.search(query, "KoE*")
        assert ([(r.kp, r.distance, r.score) for r in second.routes]
                == [(r.kp, r.distance, r.score) for r in reference.routes])


# ----------------------------------------------------------------------
# QueryService plumbing
# ----------------------------------------------------------------------
@pytest.fixture
def service_setup(fig1):
    engine = IKRQEngine(fig1.space, fig1.kindex)
    queries = [
        IKRQ(ps=fig1.ps, pt=fig1.pt, delta=55.0 + 5.0 * i,
             keywords=("coffee",) if i % 2 else ("latte", "apple"), k=2)
        for i in range(6)
    ]
    return engine, queries


class TestQueryService:
    def test_validation(self, service_setup):
        engine, _ = service_setup
        with pytest.raises(ValueError):
            QueryService(engine, workers=0)
        with pytest.raises(ValueError):
            QueryService(engine, point_map_capacity=0)
        with pytest.raises(ValueError):
            QueryService(engine, answer_cache_capacity=-1)
        service = QueryService(engine)
        with pytest.raises(ValueError):
            service.search_batch([], workers=0)

    def test_single_search_counts(self, service_setup):
        engine, queries = service_setup
        service = QueryService(engine, workers=1)
        answer = service.search(queries[0])
        assert answer.routes
        assert service.stats.queries_served == 1
        assert service.stats.point_map_misses == 1

    def test_endpoint_lru_is_shared(self, service_setup):
        engine, queries = service_setup
        service = QueryService(engine, workers=1)
        service.search_batch(queries)
        assert service.stats.point_map_misses == 1
        assert service.stats.point_map_hits == len(queries) - 1
        assert service.stats.keyword_cache_misses == 2

    def test_point_map_capacity_evicts(self, fig1):
        engine = IKRQEngine(fig1.space, fig1.kindex)
        service = QueryService(engine, workers=1, point_map_capacity=1,
                               answer_cache_capacity=0)
        q1 = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=60.0, keywords=("coffee",))
        q2 = IKRQ(ps=fig1.pt, pt=fig1.ps, delta=60.0, keywords=("coffee",))
        service.search(q1)
        service.search(q2)
        service.search(q1)
        assert service.stats.point_map_misses == 3
        assert len(service._point_maps) == 1

    def test_answer_cache_can_be_disabled(self, service_setup):
        engine, queries = service_setup
        service = QueryService(engine, workers=1, answer_cache_capacity=0)
        service.search_batch([queries[0]] * 4)
        assert service.stats.answer_hits == 0
        assert service.stats.answer_misses == 0
        assert service.stats.queries_served == 4

    def test_batch_preserves_order(self, service_setup):
        engine, queries = service_setup
        service = QueryService(engine, workers=3)
        batched = service.search_batch(queries, workers=3)
        assert [a.query for a in batched] == queries

    def test_naive_through_service(self, service_setup):
        engine, queries = service_setup
        service = QueryService(engine, workers=2)
        batched = service.search_batch(queries[:3], "naive")
        sequential = [engine.search(q, "naive") for q in queries[:3]]
        assert ([[(r.kp, r.distance) for r in a.routes] for a in batched]
                == [[(r.kp, r.distance) for r in a.routes]
                    for a in sequential])

    def test_endpoint_entry_carries_terminal_map(self, service_setup):
        """The (ps, pt) LRU shares the terminal-side attachment map the
        connect step pre-checks completions against."""
        engine, queries = service_setup
        service = QueryService(engine, workers=1)
        answer = service.search(queries[0])
        assert answer.routes
        entry = next(iter(service._point_maps.values()))
        query = queries[0]
        space = engine.space
        v_pt = space.host_partition(query.pt).pid
        expected = {door: space.door(door).position.distance_to(query.pt)
                    for door in space.p2d_enter(v_pt)}
        assert entry["terminal_attach"] == expected
        # A bare context computes the identical map on demand.
        ctx = engine.context(query)
        assert ctx.terminal_attachments() == expected

    def test_terminal_map_shared_results_identical(self, service_setup):
        engine, queries = service_setup
        service = QueryService(engine, workers=1, answer_cache_capacity=0)
        served = [service.search(q) for q in queries]
        direct = [engine.search(q) for q in queries]
        assert ([[(r.kp, r.distance, r.score) for r in a.routes]
                 for a in served]
                == [[(r.kp, r.distance, r.score) for r in a.routes]
                    for a in direct])

    def test_koe_served_answers_match_direct(self, service_setup):
        """KoE's point-tail continuations run the same bounded Dijkstra
        through the service as on a bare engine: served answers are
        byte-identical to direct ones, and non-empty."""
        from repro.serve.wire import answer_to_wire, canonical_json
        engine, queries = service_setup
        service = QueryService(engine, workers=1,
                               answer_cache_capacity=0)
        for query in queries:
            served = service.search(query, "KoE")
            direct = engine.search(query, "KoE")
            assert served.routes
            assert (canonical_json(answer_to_wire(served))
                    == canonical_json(answer_to_wire(direct)))


class TestThroughputBench:
    def test_smoke_run_verifies_and_wins(self):
        from repro.bench.throughput import run_throughput
        result = run_throughput(venue="fig1", pool=4, repeat=3,
                                endpoints=2, workers=1, seed=5)
        assert result["verified_identical"]
        assert result["queries"] == 12
        assert result["batched_qps"] > 0
        assert result["sequential_qps"] > 0
