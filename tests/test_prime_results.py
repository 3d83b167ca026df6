"""Tests for the prime table (Algorithms 3/4) and top-k collection."""

import pytest

from repro.core.prime import PrimeTable
from repro.core.results import RouteResult, TopKResults
from repro.core.route import Route
from repro.geometry import Point


def make_result(kp, distance, score, relevance=1.5):
    items = (Point(0, 0),) + tuple(range(1, max(2, int(distance) % 5 + 2))) \
        + (Point(9, 9),)
    route = Route(items=items, vias=(0,) * (len(items) - 1),
                  distance=distance, words=frozenset(),
                  sims=(0.5,), door_counts={}, kp=tuple(kp))
    return RouteResult(route=route, kp=tuple(kp),
                       relevance=relevance, score=score)


class TestPrimeTable:
    def test_check_empty_passes(self):
        t = PrimeTable()
        assert t.check(5, (1, 2), 10.0)

    def test_update_then_shorter_passes(self):
        t = PrimeTable()
        t.update(5, (1, 2), 10.0)
        assert t.check(5, (1, 2), 8.0)

    def test_update_then_longer_fails(self):
        t = PrimeTable()
        t.update(5, (1, 2), 10.0)
        assert not t.check(5, (1, 2), 12.0)

    def test_equal_distance_passes(self):
        """A stamp re-checked at pop sees its own record (Algorithm 3
        must not prune it)."""
        t = PrimeTable()
        t.update(5, (1, 2), 10.0)
        assert t.check(5, (1, 2), 10.0)

    def test_update_keeps_minimum(self):
        t = PrimeTable()
        t.update(5, (1, 2), 10.0)
        assert t.update(5, (1, 2), 7.0)
        assert not t.update(5, (1, 2), 9.0)
        assert t.best(5, (1, 2)) == 7.0

    def test_different_tails_are_different_classes(self):
        t = PrimeTable()
        t.update(5, (1, 2), 10.0)
        assert t.check(6, (1, 2), 50.0)

    def test_different_kp_are_different_classes(self):
        t = PrimeTable()
        t.update(5, (1, 2), 10.0)
        assert t.check(5, (1, 2, 3), 50.0)

    def test_point_tail_key(self):
        t = PrimeTable()
        p = Point(1, 1)
        t.update(p, (1,), 5.0)
        assert not t.check(Point(2, 2), (1,), 9.0)  # points share key -1

    def test_counters(self):
        t = PrimeTable()
        t.update(5, (1,), 10.0)
        t.check(5, (1,), 12.0)
        t.check(5, (1,), 9.0)
        assert t.checks == 2
        assert t.rejections == 1

    @pytest.mark.parametrize("record,distance", [
        (None, 10.0), (12.0, 10.0), (10.0, 10.0), (9.0, 10.0)])
    def test_admit_is_update_then_check(self, record, distance):
        """``admit`` leaves the table as ``update`` does and returns what
        ``check`` would say right after, without counting."""
        admitted, reference = PrimeTable(), PrimeTable()
        if record is not None:
            admitted.update(5, (1,), record)
            reference.update(5, (1,), record)
        verdict = admitted.admit(5, (1,), distance)
        reference.update(5, (1,), distance)
        assert verdict == reference.check(5, (1,), distance)
        assert admitted.best(5, (1,)) == reference.best(5, (1,))
        assert admitted.checks == admitted.rejections == 0

    def test_len_and_bytes(self):
        t = PrimeTable()
        t.update(1, (1,), 1.0)
        t.update(2, (1, 2), 1.0)
        assert len(t) == 2
        assert t.estimated_bytes() > 0


class TestTopKResults:
    def test_k_validation(self):
        with pytest.raises(ValueError):
            TopKResults(0)

    def test_insert_and_rank(self):
        tk = TopKResults(2)
        tk.add(make_result((1, 9), 10.0, 0.5))
        tk.add(make_result((1, 2, 9), 12.0, 0.8))
        tk.add(make_result((1, 3, 9), 14.0, 0.3))
        top = tk.top()
        assert [r.score for r in top] == [0.8, 0.5]

    def test_prime_replacement_prefers_shorter(self):
        """Within a class the shorter route wins even at lower score."""
        tk = TopKResults(3)
        tk.add(make_result((1, 9), 20.0, 0.9))
        tk.add(make_result((1, 9), 15.0, 0.7))
        top = tk.top()
        assert len(top) == 1
        assert top[0].distance == 15.0
        assert tk.replaced == 1

    def test_longer_homogeneous_rejected(self):
        tk = TopKResults(3)
        tk.add(make_result((1, 9), 15.0, 0.7))
        assert not tk.add(make_result((1, 9), 20.0, 0.9))
        assert tk.top()[0].distance == 15.0

    def test_kbound_zero_until_k_classes(self):
        tk = TopKResults(3)
        tk.add(make_result((1, 9), 10.0, 0.9))
        tk.add(make_result((2, 9), 10.0, 0.8))
        assert tk.kbound == 0.0
        tk.add(make_result((3, 9), 10.0, 0.7))
        assert tk.kbound == 0.7

    def test_kbound_tracks_kth_best(self):
        tk = TopKResults(2)
        for i, score in enumerate((0.5, 0.6, 0.9)):
            tk.add(make_result((i, 9), 10.0, score))
        assert tk.kbound == 0.6

    def test_kbound_can_decrease_on_replacement(self):
        tk = TopKResults(1)
        tk.add(make_result((1, 9), 20.0, 0.9))
        assert tk.kbound == 0.9
        tk.add(make_result((1, 9), 10.0, 0.4))
        assert tk.kbound == 0.4

    def test_no_dedup_mode_keeps_homogeneous(self):
        tk = TopKResults(5, deduplicate=False)
        tk.add(make_result((1, 9), 10.0, 0.9))
        tk.add(make_result((1, 9), 12.0, 0.8))
        assert len(tk.top()) == 2

    def test_homogeneous_rate(self):
        tk = TopKResults(3, deduplicate=False)
        tk.add(make_result((1, 9), 10.0, 0.9))
        tk.add(make_result((1, 9), 12.0, 0.8))
        tk.add(make_result((2, 9), 12.0, 0.7))
        assert tk.homogeneous_rate() == pytest.approx(2 / 3)

    def test_homogeneous_rate_zero_with_dedup(self):
        tk = TopKResults(3)
        tk.add(make_result((1, 9), 10.0, 0.9))
        tk.add(make_result((2, 9), 12.0, 0.8))
        assert tk.homogeneous_rate() == 0.0

    def test_empty(self):
        tk = TopKResults(3)
        assert tk.top() == []
        assert tk.kbound == 0.0
        assert tk.homogeneous_rate() == 0.0

    def test_tie_break_by_distance(self):
        tk = TopKResults(2)
        tk.add(make_result((1, 9), 20.0, 0.5))
        tk.add(make_result((2, 9), 10.0, 0.5))
        assert tk.top()[0].distance == 10.0
