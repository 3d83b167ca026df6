"""Tests for the door graph: Dijkstra, regular continuations, matrix."""

import math

import pytest

from repro.geometry import Point
from repro.space import DoorGraph
from repro.space.graph import DoorMatrix, FlatTree

INF = math.inf


@pytest.fixture(scope="module")
def graph(fig1):
    return DoorGraph(fig1.space)


class TestAdjacency:
    def test_edges_within_partition(self, fig1, graph):
        d2 = fig1.did("d2")
        neighbours = {n for n, _, _ in graph.neighbours(d2)}
        # Through v2 one can reach d5 and d6; through v1, d1 and d3.
        assert {fig1.did("d5"), fig1.did("d6"),
                fig1.did("d1"), fig1.did("d3")} <= neighbours

    def test_no_self_loops(self, fig1, graph):
        for did in fig1.space.doors:
            assert all(n != did for n, _, _ in graph.neighbours(did))

    def test_edge_weight_is_euclidean(self, fig1, graph):
        d2 = fig1.did("d2")
        for n, via, w in graph.neighbours(d2):
            pos_a = fig1.space.door(d2).position
            pos_b = fig1.space.door(n).position
            assert w == pytest.approx(pos_a.distance_to(pos_b))

    def test_num_edges_positive(self, graph):
        assert graph.num_edges() > 0


class TestDijkstra:
    def test_trivial_source(self, fig1, graph):
        dist, pred = graph.dijkstra(fig1.did("d2"))
        assert dist[fig1.did("d2")] == 0.0

    def test_distances_satisfy_triangle(self, fig1, graph):
        """dist is a shortest-path metric: no edge can shortcut it."""
        source = fig1.did("d1")
        dist, _ = graph.dijkstra(source)
        for u in fig1.space.doors:
            if u not in dist:
                continue
            for v, _, w in graph.neighbours(u):
                assert dist.get(v, INF) <= dist[u] + w + 1e-9

    def test_banned_doors_are_avoided(self, fig1, graph):
        d1, d13 = fig1.did("d1"), fig1.did("d13")
        banned = frozenset({fig1.did("d13")})
        dist, _ = graph.dijkstra(d1, banned=banned)
        assert d13 not in dist

    def test_banned_forces_detour(self, fig1, graph):
        # From d2 to d7 directly via v2->d6->(v3)->d7 or via d5.
        d2, d7 = fig1.did("d2"), fig1.did("d7")
        free, _ = graph.dijkstra(d2)
        detour, _ = graph.dijkstra(
            d2, banned=frozenset({fig1.did("d5")}))
        assert detour[d7] >= free[d7]

    def test_bound_cuts_search(self, fig1, graph):
        dist, _ = graph.dijkstra(fig1.did("d1"), bound=5.0)
        assert all(d <= 5.0 for d in dist.values())

    def test_early_exit_with_targets(self, fig1, graph):
        d1, d3 = fig1.did("d1"), fig1.did("d3")
        dist, _ = graph.dijkstra(d1, targets={d3})
        assert d3 in dist


class TestShortestRoute:
    def test_route_reconstruction(self, fig1, graph):
        d1, d7 = fig1.did("d1"), fig1.did("d7")
        result = graph.shortest_route(d1, d7)
        assert result is not None
        doors, vias, dist = result
        assert doors[-1] == d7
        assert len(doors) == len(vias)
        # Recompute the distance along the reconstruction.
        total, prev = 0.0, d1
        for door in doors:
            total += fig1.space.door(prev).position.distance_to(
                fig1.space.door(door).position)
            prev = door
        assert total == pytest.approx(dist)

    def test_route_same_source_target(self, fig1, graph):
        d1 = fig1.did("d1")
        assert graph.shortest_route(d1, d1) == ([], [], 0.0)

    def test_unreachable_returns_none(self, fig1, graph):
        d1, d15 = fig1.did("d1"), fig1.did("d15")
        out = graph.shortest_route(d1, d15, bound=1.0)
        assert out is None

    def test_first_hop_via_restriction(self, fig1, graph):
        # From d13 (v5/v7): restricted to leave v7 first, the path to
        # d5 cannot take the direct v5 edge.
        d13, d5 = fig1.did("d13"), fig1.did("d5")
        free = graph.shortest_route(d13, d5)
        restricted = graph.shortest_route(
            d13, d5, first_hop_via=fig1.pid("v7"))
        assert restricted is not None
        assert restricted[2] > free[2]
        # First via must be v7.
        assert restricted[1][0] == fig1.pid("v7")


class TestMultiTarget:
    def test_routes_to_partition_doors(self, fig1, graph):
        d2 = fig1.did("d2")
        targets = set(fig1.space.p2d_enter(fig1.pid("v3")))
        routes = graph.multi_target_routes(
            d2, fig1.pid("v2"), targets)
        assert fig1.did("d6") in routes
        doors, vias, dist = routes[fig1.did("d6")]
        assert doors == [fig1.did("d6")]
        assert vias == [fig1.pid("v2")]

    def test_routes_from_point(self, fig1, graph):
        targets = {fig1.did("d6"), fig1.did("d7")}
        routes = graph.routes_from_point(
            fig1.ps, fig1.pid("v1"), targets)
        assert set(routes) == targets
        for target, (doors, vias, dist) in routes.items():
            assert doors[-1] == target
            assert vias[0] == fig1.pid("v1")

    def test_routes_from_point_respects_banned(self, fig1, graph):
        targets = {fig1.did("d7")}
        banned = frozenset({fig1.did("d2"), fig1.did("d3"), fig1.did("d1")})
        routes = graph.routes_from_point(
            fig1.ps, fig1.pid("v1"), targets, banned=banned)
        assert routes == {}


class TestPointDistances:
    def test_point_to_point_same_partition(self, fig1, graph):
        p = fig1.points["p1"]
        q = p.translated(dx=2.0)
        assert graph.point_to_point_distance(p, q) == pytest.approx(2.0)

    def test_point_to_point_matches_manual(self, fig1, graph):
        """ps -> pt must be ≤ the hand-computed (ps, d3, pt) walk."""
        space = fig1.space
        d3 = space.door(fig1.did("d3")).position
        manual = fig1.ps.distance_to(d3) + d3.distance_to(fig1.pt)
        assert graph.point_to_point_distance(fig1.ps, fig1.pt) <= manual + 1e-9

    def test_distances_from_point_bounded(self, fig1, graph):
        dists = graph.distances_from_point(fig1.ps, bound=10.0)
        assert dists
        assert all(v <= 10.0 for v in dists.values())


class TestDoorMatrix:
    def test_matches_dijkstra(self, fig1, graph):
        matrix = DoorMatrix(graph)
        d1, d7 = fig1.did("d1"), fig1.did("d7")
        dist, _ = graph.dijkstra(d1)
        assert matrix.distance(d1, d7) == pytest.approx(dist[d7])

    def test_route_roundtrip(self, fig1, graph):
        matrix = DoorMatrix(graph)
        d1, d7 = fig1.did("d1"), fig1.did("d7")
        doors, vias, dist = matrix.route(d1, d7)
        assert doors[-1] == d7
        assert dist == pytest.approx(matrix.distance(d1, d7))

    def test_lazy_rows(self, fig1, graph):
        matrix = DoorMatrix(graph)
        assert matrix.num_cached_rows() == 0
        matrix.distance(fig1.did("d1"), fig1.did("d7"))
        assert matrix.num_cached_rows() == 1

    def test_eager_fills_all_rows(self, fig1, graph):
        matrix = DoorMatrix(graph, eager=True)
        assert matrix.num_cached_rows() == fig1.space.num_doors
        assert matrix.estimated_bytes() > 0

    def test_unreachable_pair(self, fig1, graph):
        matrix = DoorMatrix(graph)
        # Every door pair in fig1 is connected; use a bound-free check
        # of self-distance instead.
        d1 = fig1.did("d1")
        assert matrix.distance(d1, d1) == 0.0


# ----------------------------------------------------------------------
# Workspace ``touched`` and the tree freeze
# ----------------------------------------------------------------------
def _kernel_graphs(space):
    """The interpreted graph, plus the C one where the kernel builds."""
    from repro.space.kernels import native_sssp
    graphs = [("python", DoorGraph(space))]
    sssp = native_sssp()
    if sssp is not None:
        native = DoorGraph(space)
        native.set_kernel(sssp)
        graphs.append(("native", native))
    return graphs


def _loop_freeze(ws, graph):
    """The per-index freeze, kept verbatim as the bulk copy's oracle."""
    from array import array
    from repro.space.graph import FlatTree, _ROOT
    n = len(graph._door_ids)
    dist = array("d", [INF]) * n
    pred = array("q", [_ROOT]) * n
    pred_via = array("q", [-1]) * n
    touched = array("q", ws.touched)
    for idx in touched:
        dist[idx] = ws.dist[idx]
        pred[idx] = ws.pred[idx]
        pred_via[idx] = ws.pred_via[idx]
    return FlatTree(graph._door_ids, graph._door_index,
                    dist, pred, pred_via, touched)


def _tree_bytes(tree):
    return (bytes(tree.dist), bytes(tree.pred), bytes(tree.pred_via),
            bytes(tree.touched))


@pytest.fixture(scope="module")
def mall_space():
    from repro.datasets.synth import SynthMallConfig, build_synth_mall
    space, _ = build_synth_mall(
        SynthMallConfig(floors=3, rooms_per_floor=10, seed=5))
    return space


class TestTouchedAndFreeze:
    def test_touched_is_duplicate_free(self, mall_space):
        """The bulk-copy freeze relies on it: ``len(touched) == n``
        must mean every door was reached."""
        import random
        rng = random.Random(61)
        doors = sorted(mall_space.doors)
        partitions = sorted(mall_space.partitions)
        for name, graph in _kernel_graphs(mall_space):
            ws = graph.new_workspace()
            full = 0
            for _ in range(30):
                bound = rng.choice((INF, rng.uniform(5.0, 60.0)))
                graph.dijkstra_tree(rng.choice(doors), bound=bound,
                                    workspace=ws)
                assert len(ws.touched) == len(set(ws.touched)), name
                full += len(ws.touched) == graph.num_nodes
                pid = rng.choice(partitions)
                p = mall_space.partition(pid).footprint.center
                graph.distances_from_point(p, bound=bound, workspace=ws)
                assert len(ws.touched) == len(set(ws.touched)), name
                tree = FlatTree.from_workspace(ws, graph)
                assert _tree_bytes(tree) == _tree_bytes(
                    _loop_freeze(ws, graph)), name
            assert full, f"no {name} run reached every door"

    def test_bulk_freeze_equals_loop_freeze(self, mall_space):
        for name, graph in _kernel_graphs(mall_space):
            ws = graph.new_workspace()
            for did in sorted(mall_space.doors)[::7]:
                # A bounded run first leaves stale slots behind.
                graph.dijkstra_tree(did, bound=10.0, workspace=ws)
                tree = graph.dijkstra_tree(did, workspace=ws)
                assert len(tree.touched) == graph.num_nodes, name
                assert _tree_bytes(tree) == _tree_bytes(
                    _loop_freeze(ws, graph)), name
            p = mall_space.partition(
                sorted(mall_space.partitions)[0]).footprint.center
            graph.distances_from_point(p, workspace=ws)
            tree = FlatTree.from_workspace(ws, graph)
            assert len(tree.touched) == graph.num_nodes
            assert _tree_bytes(tree) == _tree_bytes(
                _loop_freeze(ws, graph)), name
