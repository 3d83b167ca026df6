"""Tests for the search framework: connect, caps, stats, variants."""

import pytest

from repro.core import (
    IKRQ,
    IKRQEngine,
    SearchConfig,
    TopologyOrientedExpansion,
    IKRQSearch,
    canonical_algorithm,
    config_for,
)
from repro.core.engine import ALGORITHMS
from repro.geometry import Point
from tests.conftest import random_small_space
from tests.test_equivalence import build_query


class TestAlgorithmRegistry:
    @pytest.mark.parametrize("alias,expected", [
        ("toe", "ToE"), ("KoE", "KoE"), ("koe*", "KoE*"),
        ("ToE\\D", "ToE-D"), ("koe\\b", "KoE-B"), ("toe-p", "ToE-P"),
        ("baseline", "naive"),
    ])
    def test_aliases(self, alias, expected):
        assert canonical_algorithm(alias) == expected

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            canonical_algorithm("dijkstra")

    def test_registry_complete(self):
        assert len(ALGORITHMS) == 8

    @pytest.mark.parametrize("name,dist,kb,prime", [
        ("ToE", True, True, True),
        ("ToE-D", False, True, True),
        ("ToE-B", True, False, True),
        ("ToE-P", True, True, False),
        ("KoE-D", False, True, True),
        ("KoE-B", True, False, True),
    ])
    def test_config_for(self, name, dist, kb, prime):
        cfg = config_for(name)
        assert cfg.use_distance_pruning is dist
        assert cfg.use_kbound_pruning is kb
        assert cfg.use_prime_pruning is prime

    def test_config_exhaustive_flag(self):
        assert config_for("ToE", exhaustive=True).expand_after_coverage
        assert not config_for("ToE").expand_after_coverage


class TestQueryValidation:
    def test_bad_delta(self, fig1):
        with pytest.raises(ValueError):
            IKRQ(ps=fig1.ps, pt=fig1.pt, delta=0.0, keywords=("x",))

    def test_bad_k(self, fig1):
        with pytest.raises(ValueError):
            IKRQ(ps=fig1.ps, pt=fig1.pt, delta=10.0, keywords=("x",), k=0)

    def test_bad_alpha(self, fig1):
        with pytest.raises(ValueError):
            IKRQ(ps=fig1.ps, pt=fig1.pt, delta=10.0,
                 keywords=("x",), alpha=1.5)

    def test_empty_keywords(self, fig1):
        with pytest.raises(ValueError):
            IKRQ(ps=fig1.ps, pt=fig1.pt, delta=10.0, keywords=())


class TestConnectBehaviour:
    def test_same_partition_trivial_route(self, fig1, fig1_engine):
        """ps and pt in one partition: the doorless route qualifies."""
        p1 = fig1.points["p1"]
        p1b = p1.translated(dx=3.0)
        answer = fig1_engine.query(p1, p1b, delta=50.0,
                                   keywords=["zara"], k=1, alpha=0.0)
        assert answer.routes
        best = answer.routes[0]
        assert best.route.doors == ()
        assert best.distance == pytest.approx(3.0)

    def test_expand_through_terminal_finds_through_routes(
            self, fig1, fig1_engine):
        """Routes passing v(pt) mid-way exist (Example 8's R2)."""
        query = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=80.0,
                     keywords=("latte", "apple"), k=5, alpha=0.5)
        answer = fig1_engine.search(query, "ToE")
        v5 = fig1.pid("v5")
        through = [r for r in answer.routes
                   if list(r.route.vias).count(v5) > 1]
        assert through, "no route passes through the terminal partition"

    def test_disable_expand_through_terminal(self, fig1, fig1_engine):
        query = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=80.0,
                     keywords=("latte", "apple"), k=5, alpha=0.5)
        cfg = SearchConfig(expand_through_terminal=False)
        answer = fig1_engine.search(query, "ToE", config=cfg)
        # Every returned route stops at its first terminal-partition
        # entry (except via keyword loops inside v5's neighbours).
        full = fig1_engine.search(query, "ToE")
        assert len(answer.routes) <= len(full.routes)

    def test_unreachable_terminal_returns_empty(self, fig1, fig1_engine):
        query = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=5.0,
                     keywords=("latte",), k=1)
        answer = fig1_engine.search(query, "ToE")
        assert answer.routes == []


class TestExpansionCap:
    def test_cap_limits_pops(self, fig1, fig1_engine):
        query = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=80.0,
                     keywords=("latte", "apple"), k=5)
        answer = fig1_engine.search(query, "ToE-P", max_expansions=10)
        assert answer.stats.stamps_popped <= 11

    def test_uncapped_by_default(self, fig1, fig1_engine):
        query = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=60.0,
                     keywords=("latte",), k=1)
        answer = fig1_engine.search(query, "ToE")
        assert answer.stats.stamps_popped > 10


class TestStats:
    def test_counters_populated(self, fig1, fig1_engine):
        query = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=60.0,
                     keywords=("latte", "apple"), k=3)
        answer = fig1_engine.search(query, "ToE")
        s = answer.stats
        assert s.stamps_created > 0
        assert s.stamps_popped > 0
        assert s.expansions > 0
        assert s.complete_routes > 0
        assert s.max_queue_len > 0
        assert s.peak_route_items > 0
        assert s.elapsed_seconds > 0
        assert s.estimated_peak_mb() > 0

    def test_pruning_counters_distance(self, fig1, fig1_engine):
        """A tight Δ exercises the distance rules."""
        query = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=22.0,
                     keywords=("latte", "apple"), k=1)
        answer = fig1_engine.search(query, "ToE")
        s = answer.stats
        assert s.pruned_rule1 + s.pruned_rule2 + s.pruned_distance > 0

    def test_prime_pruning_counter(self, fig1, fig1_engine):
        query = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=80.0,
                     keywords=("latte", "apple"), k=3)
        answer = fig1_engine.search(query, "ToE")
        assert answer.stats.pruned_rule5 > 0

    def test_as_dict_keys(self, fig1, fig1_engine):
        query = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=40.0,
                     keywords=("latte",), k=1)
        d = fig1_engine.search(query, "ToE").stats.as_dict()
        assert {"stamps_popped", "pruned_rule5",
                "estimated_peak_mb"} <= set(d)

    @pytest.mark.parametrize("cap", [None, 3])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_stamp_but_the_start_is_connected(self, fig1, fig1_engine,
                                                    algorithm, cap):
        """``connects == stamps_created - 1``: the start stamp is pushed
        unconnected and every other stamp is connected exactly once,
        including those Rule 5 rejects before they are built."""
        cases = [(fig1_engine, IKRQ(ps=fig1.ps, pt=fig1.pt, delta=80.0,
                                    keywords=("latte", "apple"), k=3))]
        for seed in range(6):
            space, kindex, ps, pt = random_small_space(seed)
            cases.append((IKRQEngine(space, kindex),
                          build_query(space, kindex, ps, pt, seed)))
        for engine, query in cases:
            s = engine.search(query, algorithm, max_expansions=cap).stats
            assert s.connects == s.stamps_created - 1, (algorithm, cap)
            assert s.connects > 0

    def test_live_route_items_balanced(self, fig1, fig1_engine):
        query = IKRQ(ps=fig1.ps, pt=fig1.pt, delta=60.0,
                     keywords=("latte",), k=2)
        answer = fig1_engine.search(query, "ToE")
        assert answer.stats.live_route_items == 0  # queue fully drained


class TestQueryAnswer:
    def test_answer_accessors(self, fig1, fig1_engine):
        answer = fig1_engine.query(fig1.ps, fig1.pt, delta=60.0,
                                   keywords=["latte"], k=2)
        assert answer.best is answer.routes[0]
        assert answer.scores() == [r.score for r in answer.routes]
        assert answer.distances() == [r.distance for r in answer.routes]
        assert answer.algorithm == "ToE"

    def test_empty_answer_best_none(self, fig1, fig1_engine):
        answer = fig1_engine.query(fig1.ps, fig1.pt, delta=5.0,
                                   keywords=["latte"], k=1)
        assert answer.best is None
