"""Array-native core ⇔ retained dict reference core equivalence.

The flat/bitmask implementations (CSR workspaces + FlatTree results,
flat δs2s with precomputed attachments, interned-bitmask keyword
matching, flat door-matrix rows) must reproduce the dict-of-dict
reference semantics of ``repro.space.baseline`` exactly — same
numbers, same orders, same answers.
"""

from __future__ import annotations

import random

import pytest

from repro.core import IKRQ, IKRQEngine
from repro.core.query import QueryContext
from repro.datasets import paper_fig1
from repro.datasets.synth import SynthMallConfig, build_synth_mall
from repro.keywords.matching import QueryKeywords, candidate_iword_set
from repro.serve.wire import answer_to_wire, canonical_json
from repro.space.baseline import (DictDoorGraph, DictDoorMatrix,
                                  DictQueryKeywords, DictSkeletonIndex,
                                  build_reference_engine, reference_context,
                                  set_candidate_iword_set)
from repro.space.graph import DoorGraph, DoorMatrix, FlatTree
from repro.space.skeleton import SkeletonIndex


@pytest.fixture(scope="module")
def mall():
    return build_synth_mall(SynthMallConfig(
        floors=3, rooms_per_floor=16, words_per_room=5, seed=11))


@pytest.fixture(scope="module")
def mall_graph(mall):
    return DoorGraph(mall[0])


@pytest.fixture(scope="module")
def mall_dict_graph(mall):
    return DictDoorGraph(mall[0])


# ----------------------------------------------------------------------
# Keywords: bitmask vs. frozenset algebra
# ----------------------------------------------------------------------
class TestKeywordMasks:
    def test_candidate_sets_match_reference(self, fig1, mall):
        for kindex in (fig1.kindex, mall[1]):
            words = (sorted(kindex.iwords)
                     + sorted(kindex.vocabulary.twords)[:40]
                     + ["definitely-unknown-word"])
            for word in words:
                assert (candidate_iword_set(kindex, word)
                        == set_candidate_iword_set(kindex, word)), word

    def test_candidate_sets_match_across_tau(self, mall):
        kindex = mall[1]
        for tau in (0.0, 0.1, 0.35, 0.9):
            for word in sorted(kindex.vocabulary.twords)[:15]:
                assert (candidate_iword_set(kindex, word, tau)
                        == set_candidate_iword_set(kindex, word, tau))

    def test_relevance_of_iword_set_matches_reference(self, mall):
        kindex = mall[1]
        iwords = sorted(kindex.iwords)
        twords = sorted(kindex.vocabulary.twords)
        rng = random.Random(5)
        queries = [tuple(rng.sample(iwords, 2) + rng.sample(twords, 2))
                   for _ in range(6)]
        for keywords in queries:
            fast = QueryKeywords(kindex, keywords)
            slow = DictQueryKeywords(kindex, keywords)
            assert fast.candidates == slow.candidates
            for _ in range(24):
                subset = frozenset(rng.sample(iwords,
                                              rng.randrange(0, 6)))
                assert (fast.relevance_of_iword_set(subset)
                        == slow.relevance_of_iword_set(subset))

    def test_relevance_mask_equals_set(self, mall):
        kindex = mall[1]
        iwords = sorted(kindex.iwords)
        qk = QueryKeywords(kindex, (iwords[0], iwords[3]))
        subset = frozenset(iwords[:4])
        assert (qk.relevance_of_iword_mask(kindex.iword_mask(subset))
                == qk.relevance_of_iword_set(subset))

    def test_iword_interning(self, mall):
        kindex = mall[1]
        for wi in kindex.iwords:
            wid = kindex.iword_id(wi)
            assert wid is not None
            assert kindex.iword_name(wid) == wi
        assert kindex.iword_id("nope-not-a-word") is None


# ----------------------------------------------------------------------
# Skeleton: flat attachments vs. nested lists
# ----------------------------------------------------------------------
class TestSkeletonEquivalence:
    def test_lower_bounds_match(self, mall):
        space = mall[0]
        flat = SkeletonIndex(space)
        nested = DictSkeletonIndex(space)
        doors = sorted(space.doors)
        rng = random.Random(3)
        pairs = [(rng.choice(doors), rng.choice(doors)) for _ in range(200)]
        for di, dj in pairs:
            assert flat.lower_bound(di, dj) == nested.lower_bound(di, dj)

    def test_point_lower_bounds_match(self, mall):
        space = mall[0]
        flat = SkeletonIndex(space)
        nested = DictSkeletonIndex(space)
        rng = random.Random(4)
        pids = sorted(space.partitions)
        doors = sorted(space.doors)
        for _ in range(40):
            pid = rng.choice(pids)
            p = space.partition(pid).footprint.random_interior_point(rng)
            d = rng.choice(doors)
            assert flat.lower_bound(p, d) == nested.lower_bound(p, d)
            assert flat.lower_bound(d, p) == nested.lower_bound(d, p)

    def test_via_partition_matches(self, mall):
        space = mall[0]
        flat = SkeletonIndex(space)
        nested = DictSkeletonIndex(space)
        rng = random.Random(6)
        pids = sorted(space.partitions)
        for _ in range(20):
            ps = space.partition(
                rng.choice(pids)).footprint.random_interior_point(rng)
            pt = space.partition(
                rng.choice(pids)).footprint.random_interior_point(rng)
            pid = rng.choice(pids)
            assert (flat.lower_bound_via_partition(ps, pid, pt)
                    == nested.lower_bound_via_partition(ps, pid, pt))

    def test_export_unchanged_by_flat_layout(self, mall):
        space = mall[0]
        flat = SkeletonIndex(space)
        rebuilt = SkeletonIndex.from_precomputed(
            space, **{"stair_doors": flat.export()["stair_doors"],
                      "s2s": flat.export()["s2s"]})
        assert rebuilt.export() == flat.export()
        assert rebuilt.lower_bound(sorted(space.doors)[0],
                                   sorted(space.doors)[-1]) \
            == flat.lower_bound(sorted(space.doors)[0],
                                sorted(space.doors)[-1])


# ----------------------------------------------------------------------
# Graph: CSR workspaces vs. dict Dijkstra
# ----------------------------------------------------------------------
class TestGraphEquivalence:
    def test_dijkstra_dicts_match(self, mall_graph, mall_dict_graph, mall):
        doors = sorted(mall[0].doors)
        rng = random.Random(9)
        for source in rng.sample(doors, 12):
            dist_a, pred_a = mall_graph.dijkstra(source)
            dist_b, pred_b = mall_dict_graph.dijkstra(source)
            assert dist_a == dist_b
            assert pred_a == pred_b

    def test_multi_target_routes_match(self, mall_graph, mall_dict_graph,
                                       mall):
        space = mall[0]
        rng = random.Random(10)
        doors = sorted(space.doors)
        checked = 0
        for source in rng.sample(doors, 30):
            vias = sorted(space.d2p_enter(source))
            if not vias:
                continue
            first_via = vias[0]
            targets = set(rng.sample(doors, 8))
            got = mall_graph.multi_target_routes(source, first_via, targets)
            ref = mall_dict_graph.multi_target_routes(
                source, first_via, targets)
            assert got == ref
            checked += 1
        assert checked > 10


# ----------------------------------------------------------------------
# Door matrix: flat trees vs. dict rows
# ----------------------------------------------------------------------
class TestFlatMatrix:
    def test_distance_and_route_match_dict_rows(self, mall_graph,
                                                mall_dict_graph, mall):
        flat = DoorMatrix(mall_graph)
        ref = DictDoorMatrix(mall_dict_graph)
        doors = sorted(mall[0].doors)
        rng = random.Random(13)
        for _ in range(60):
            di = rng.choice(doors)
            dj = rng.choice(doors)
            assert flat.distance(di, dj) == ref.distance(di, dj)
            assert flat.route(di, dj) == ref.route(di, dj)

    def test_warm_rows_round_trip(self, mall_graph, mall):
        matrix = DoorMatrix(mall_graph)
        doors = sorted(mall[0].doors)[:5]
        for did in doors:
            matrix.distance(did, doors[0])
        rows = matrix.warm_rows()
        fresh = DoorMatrix(mall_graph)
        fresh.preload_rows(rows)
        assert fresh.warm_rows() == rows
        for did in doors:
            assert (fresh.route(did, doors[-1])
                    == matrix.route(did, doors[-1]))

    def test_flat_tree_from_dicts_round_trip(self, mall_graph, mall):
        source = sorted(mall[0].doors)[0]
        tree = mall_graph.dijkstra_tree(source)
        rebuilt = FlatTree.from_dicts(mall_graph, tree.dist_dict(),
                                      tree.pred_dict())
        assert rebuilt.dist_dict() == tree.dist_dict()
        assert rebuilt.pred_dict() == tree.pred_dict()
        target = sorted(mall[0].doors)[-1]
        assert rebuilt.route_to(target) == tree.route_to(target)


# ----------------------------------------------------------------------
# End to end: whole-engine equivalence
# ----------------------------------------------------------------------
def _wire(answer):
    return canonical_json(answer_to_wire(answer))


class TestEngineEquivalence:
    def test_fig1_all_algorithms(self, fig1):
        engine = IKRQEngine(fig1.space, fig1.kindex)
        reference = build_reference_engine(fig1.space, fig1.kindex)
        cases = [
            (IKRQ(ps=fig1.ps, pt=fig1.pt, delta=60.0,
                  keywords=("latte", "apple"), k=3), algo)
            for algo in ("ToE", "KoE", "KoE*", "ToE-D", "ToE-B",
                         "KoE-D", "KoE-B", "naive")
        ] + [
            (IKRQ(ps=fig1.pt, pt=fig1.ps, delta=70.0,
                  keywords=("coffee", "phone"), k=5, alpha=0.3), algo)
            for algo in ("ToE", "KoE", "KoE*")
        ]
        for query, algo in cases:
            got = engine.search(query, algo)
            ref = reference.search(
                query, algo, context=reference_context(reference, query))
            assert _wire(got) == _wire(ref), algo

    def test_synth_mall_cross_floor(self, mall):
        space, kindex = mall
        engine = IKRQEngine(space, kindex, door_matrix_eager=False)
        reference = build_reference_engine(space, kindex)
        rng = random.Random(21)
        iwords = sorted(kindex.iwords)
        twords = sorted(kindex.vocabulary.twords)
        pids = sorted(space.partitions)
        for algo in ("ToE", "KoE"):
            for _ in range(6):
                ps = space.partition(
                    rng.choice(pids)).footprint.random_interior_point(rng)
                pt = space.partition(
                    rng.choice(pids)).footprint.random_interior_point(rng)
                query = IKRQ(
                    ps=ps, pt=pt, delta=500.0,
                    keywords=(rng.choice(iwords), rng.choice(twords)),
                    k=3)
                got = engine.search(query, algo)
                ref = reference.search(
                    query, algo,
                    context=reference_context(reference, query))
                assert _wire(got) == _wire(ref), algo

    def test_reference_context_uses_set_algebra(self, fig1):
        reference = build_reference_engine(fig1.space, fig1.kindex)
        query = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=60.0,
                     keywords=("latte",), k=1)
        ctx = reference_context(reference, query)
        assert isinstance(ctx, QueryContext)
        assert isinstance(ctx.qk, DictQueryKeywords)
        assert not ctx._use_heads  # dict skeleton keeps the legacy path
