"""Tests for the indoor space model: entities, builder, topology."""

import random

import pytest

from repro.geometry import Point, Rect
from repro.space import (
    Door,
    IndoorSpace,
    IndoorSpaceBuilder,
    Partition,
    PartitionKind,
)


class TestEntities:
    def test_partition_floor_and_level(self):
        p = Partition(0, Rect(0, 0, 5, 5, level=2.0))
        assert p.floor == 2
        assert p.level == 2.0

    def test_partition_contains(self):
        p = Partition(0, Rect(0, 0, 5, 5))
        assert p.contains(Point(2, 2))
        assert not p.contains(Point(9, 9))

    def test_door_two_way(self):
        d = Door(0, Point(1, 1), frozenset({1, 2}), frozenset({1, 2}))
        assert d.partitions() == frozenset({1, 2})
        assert not d.is_staircase_door

    def test_door_one_way(self):
        d = Door(0, Point(1, 1), enters=frozenset({2}), leaves=frozenset({1}))
        assert d.partitions() == frozenset({1, 2})

    def test_staircase_door_detection(self):
        d = Door(0, Point(1, 1, 1.5), frozenset({1}), frozenset({1}))
        assert d.is_staircase_door
        assert d.floor == 1

    def test_default_kind_is_room(self):
        p = Partition(0, Rect(0, 0, 1, 1))
        assert p.kind is PartitionKind.ROOM


class TestBuilder:
    def test_builds_and_resolves_names(self, corridor):
        space, rooms, cells, b = corridor
        assert b.pid("room0") == rooms[0]
        assert b.did("rd0") in space.doors

    def test_duplicate_partition_name_rejected(self):
        b = IndoorSpaceBuilder()
        b.add_partition("a", Rect(0, 0, 1, 1))
        with pytest.raises(ValueError):
            b.add_partition("a", Rect(1, 0, 2, 1))

    def test_duplicate_door_name_rejected(self):
        b = IndoorSpaceBuilder()
        b.add_partition("a", Rect(0, 0, 2, 2))
        b.add_partition("b", Rect(2, 0, 4, 2))
        b.add_door("d", Point(2, 1), between=("a", "b"))
        with pytest.raises(ValueError):
            b.add_door("d", Point(2, 1.5), between=("a", "b"))

    def test_unknown_partition_name_in_door(self):
        b = IndoorSpaceBuilder()
        b.add_partition("a", Rect(0, 0, 1, 1))
        with pytest.raises(KeyError):
            b.add_door("d", Point(0, 0), between=("a", "nope"))

    def test_between_and_enters_mutually_exclusive(self):
        b = IndoorSpaceBuilder()
        b.add_partition("a", Rect(0, 0, 1, 1))
        with pytest.raises(ValueError):
            b.add_door("d", Point(0, 0), between=("a",), enters=("a",))

    def test_door_must_connect_something(self):
        b = IndoorSpaceBuilder()
        with pytest.raises(ValueError):
            b.add_door("d", Point(0, 0))

    def test_one_way_door(self):
        b = IndoorSpaceBuilder()
        a = b.add_partition("a", Rect(0, 0, 2, 2))
        c = b.add_partition("c", Rect(2, 0, 4, 2))
        d = b.add_door("d", Point(2, 1), enters=("c",), leaves=("a",))
        space = b.build()
        assert space.d2p_enter(d) == frozenset({c})
        assert space.d2p_leave(d) == frozenset({a})


class TestIndoorSpace:
    def test_validates_door_references(self):
        door = Door(0, Point(0, 0), frozenset({7}), frozenset({7}))
        with pytest.raises(ValueError):
            IndoorSpace([Partition(0, Rect(0, 0, 1, 1))], [door])

    def test_topology_mappings_roundtrip(self, corridor):
        space, rooms, cells, b = corridor
        rd0 = b.did("rd0")
        assert rooms[0] in space.d2p_enter(rd0)
        assert rd0 in space.p2d_enter(rooms[0])
        assert rd0 in space.p2d_leave(rooms[0])

    def test_p2d_of_middle_cell(self, corridor):
        space, rooms, cells, b = corridor
        # cell1 has: room door rd1, cd1 (to cell0), cd2 (to cell2).
        assert len(space.p2d_leave(cells[1])) == 3

    def test_host_partition_basic(self, corridor):
        space, rooms, cells, b = corridor
        assert space.host_partition(Point(5, 15)).pid == rooms[0]
        assert space.host_partition(Point(5, 5)).pid == cells[0]

    def test_host_partition_outside_raises(self, corridor):
        space, *_ = corridor
        with pytest.raises(ValueError):
            space.host_partition(Point(-50, -50))

    def test_host_partition_prefers_smaller_on_tie(self):
        b = IndoorSpaceBuilder()
        big = b.add_partition("big", Rect(0, 0, 20, 20))
        small = b.add_partition("small", Rect(18, 0, 20, 2))
        b.add_door("d", Point(18, 1), between=("big", "small"))
        space = b.build()
        # The corner point lies on both footprints; the smaller wins.
        assert space.host_partition(Point(19, 1)).pid == small

    def test_num_floors(self, fig1):
        assert fig1.space.num_floors == 1

    def test_staircase_index_empty_on_single_floor(self, fig1):
        assert fig1.space.staircase_doors_on_floor(0) == []

    def test_counts(self, fig1):
        assert fig1.space.num_partitions == 12
        assert fig1.space.num_doors == 17


class TestMultiFloorTopology:
    @pytest.fixture(scope="class")
    def tower(self):
        """Two stacked rooms joined by a staircase."""
        b = IndoorSpaceBuilder()
        b.add_partition("low", Rect(0, 0, 10, 10, level=0.0))
        b.add_partition("high", Rect(0, 0, 10, 10, level=1.0))
        b.add_partition("stair0", Rect(10, 0, 12, 2, level=0.0),
                        PartitionKind.STAIRCASE)
        b.add_partition("stair1", Rect(10, 0, 12, 2, level=1.0),
                        PartitionKind.STAIRCASE)
        b.add_door("e0", Point(10, 1, 0.0), between=("low", "stair0"))
        b.add_door("e1", Point(10, 1, 1.0), between=("high", "stair1"))
        b.add_door("up", Point(11, 1, 0.5), between=("stair0", "stair1"))
        return b.build(), b

    def test_staircase_door_serves_both_floors(self, tower):
        space, b = tower
        up = b.did("up")
        assert up in space.staircase_doors_on_floor(0)
        assert up in space.staircase_doors_on_floor(1)

    def test_staircase_partitions_listed(self, tower):
        space, b = tower
        assert {p.name for p in space.staircase_partitions()} == {
            "stair0", "stair1"}

    def test_num_floors_two(self, tower):
        space, _ = tower
        assert space.num_floors == 2


# ----------------------------------------------------------------------
# Point location: floor buckets against the linear scan
# ----------------------------------------------------------------------
def linear_host(space, p):
    """The point-location oracle: scan every partition.

    ``host_partition`` before it bucketed partitions by floor, kept
    verbatim as the reference.
    """
    hits = [part for part in space.partitions.values() if part.contains(p)]
    if not hits:
        raise ValueError(f"point {p} is not inside any partition")
    return min(hits, key=lambda part: (part.footprint.area, part.pid))


def location_venues():
    from repro.datasets import paper_fig1
    from repro.datasets.synth import SynthMallConfig, build_synth_mall
    from repro.dynamic import ClosureOverlay
    from repro.dynamic.overlay import apply_closures
    mall, _ = build_synth_mall(
        SynthMallConfig(floors=3, rooms_per_floor=10, seed=5))
    doors = sorted(mall.doors)
    partitions = sorted(mall.partitions)
    overlay = ClosureOverlay(closed_doors=frozenset(doors[::9]),
                             sealed_partitions=frozenset(partitions[::11]))
    return [("fig1", paper_fig1().space), ("mall3", mall),
            ("mall3-closures", apply_closures(mall, overlay))]


def probe_points(space, rng):
    """Interior, wall, corner, door, staircase and outside points."""
    points = []
    levels = sorted({part.footprint.level
                     for part in space.partitions.values()})
    for part in space.partitions.values():
        rect = part.footprint
        points.append(rect.random_interior_point(rng, margin=0.0))
        # Corners and wall midpoints: shared walls and touching
        # footprints, where several partitions contain the point.
        points.extend(rect.corners())
        mid_x = (rect.x_min + rect.x_max) / 2.0
        mid_y = (rect.y_min + rect.y_max) / 2.0
        points.extend(Point(x, y, rect.level) for x, y in (
            (rect.x_min, mid_y), (rect.x_max, mid_y),
            (mid_x, rect.y_min), (mid_x, rect.y_max)))
        if part.kind is PartitionKind.STAIRCASE:
            # A half-level point truncates onto the staircase's floor.
            points.append(Point(mid_x, mid_y, rect.level + 0.5))
    # Door positions lie on shared walls; staircase doors sit at
    # half levels.
    points.extend(door.position for door in space.doors.values())
    # Outside every partition: far off the plan, above the top floor,
    # below the ground floor.
    for _ in range(20):
        points.append(Point(rng.uniform(1e4, 2e4), rng.uniform(-5, 5),
                            rng.choice(levels)))
    points.append(Point(1.0, 1.0, max(levels) + 3.0))
    points.append(Point(1.0, 1.0, -2.0))
    rng.shuffle(points)
    return points


@pytest.mark.parametrize("venue", location_venues(), ids=lambda v: v[0])
def test_bucketed_point_location_matches_linear_scan(venue):
    name, space = venue
    rng = random.Random(sum(map(ord, name)))
    ties = stairs = outside = 0
    for p in probe_points(space, rng):
        try:
            expected = linear_host(space, p)
        except ValueError:
            outside += 1
            with pytest.raises(ValueError):
                space.host_partition(p)
            continue
        got = space.host_partition(p)
        assert got.pid == expected.pid, (name, p)
        # A second lookup is served from the point cache.
        assert space.host_partition(p) is got
        ties += sum(part.contains(p)
                    for part in space.partitions.values()) > 1
        stairs += expected.kind is PartitionKind.STAIRCASE
    # Non-vacuous: the tie-break, staircases and misses all ran.
    assert ties and outside
    assert stairs or not space.staircase_partitions()
