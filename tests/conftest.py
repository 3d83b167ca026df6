"""Shared fixtures: the Fig. 1 venue, engines, random small spaces, and
two synthetic tenant malls with paper-method query streams."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

import pytest

from repro.core import IKRQ, IKRQEngine
from repro.datasets import QueryGenerator, paper_fig1
from repro.datasets.synth import (SynthMallConfig, build_synth_mall,
                                  tenant_mall_configs, venue_diameter)
from repro.geometry import Point, Rect
from repro.keywords.mappings import KeywordIndex
from repro.serve import answer_to_wire, canonical_json, save_snapshot
from repro.space import IndoorSpaceBuilder, PartitionKind


@pytest.fixture(scope="session")
def fig1():
    """The paper's Fig. 1 fixture (immutable; session-scoped)."""
    return paper_fig1()


@pytest.fixture(scope="session")
def fig1_engine(fig1):
    return IKRQEngine(fig1.space, fig1.kindex)


# ----------------------------------------------------------------------
# Tiny hand-made spaces
# ----------------------------------------------------------------------
def make_corridor_space(rooms: int = 3):
    """A corridor of hallway cells with one room per cell.

    Layout (rooms on top, hallway below)::

        [room0][room1][room2]...
        [cell0][cell1][cell2]...

    Doors: room_i <-> cell_i, cell_i <-> cell_{i+1}.
    Returns (space, room_pids, cell_pids, builder).
    """
    b = IndoorSpaceBuilder()
    cells: List[int] = []
    room_ids: List[int] = []
    for i in range(rooms):
        room_ids.append(b.add_partition(
            f"room{i}", Rect(i * 10.0, 10.0, (i + 1) * 10.0, 20.0)))
        cells.append(b.add_partition(
            f"cell{i}", Rect(i * 10.0, 0.0, (i + 1) * 10.0, 10.0),
            PartitionKind.HALLWAY))
    for i in range(rooms):
        b.add_door(f"rd{i}", Point(i * 10.0 + 5.0, 10.0),
                   between=(f"room{i}", f"cell{i}"))
        if i > 0:
            b.add_door(f"cd{i}", Point(i * 10.0, 5.0),
                       between=(f"cell{i-1}", f"cell{i}"))
    return b.build(), room_ids, cells, b


@pytest.fixture
def corridor():
    return make_corridor_space(4)


def corridor_keywords(room_ids: List[int]) -> KeywordIndex:
    """Shops along the corridor: coffee / electronics themes."""
    index = KeywordIndex()
    data = [
        ("espressobar", ("coffee", "latte", "beans")),
        ("gadgetsine", ("phone", "laptop", "charger")),
        ("beanhouse", ("coffee", "beans", "mocha")),
        ("booknook", ("books", "maps", "pens")),
    ]
    for room, (iword, twords) in zip(room_ids, data):
        index.assign_iword(room, iword)
        index.add_twords(iword, twords)
    return index


# ----------------------------------------------------------------------
# Random small spaces for equivalence / property testing
# ----------------------------------------------------------------------
def random_small_space(seed: int,
                       n_rooms: int = 5) -> Tuple[object, KeywordIndex, Point, Point]:
    """A random corridor-with-branches venue plus keyword assignment.

    Small enough for the naive baseline to enumerate exhaustively,
    varied enough (dead ends, shared i-words, multi-door rooms) to
    exercise loops, prime classes and indirect matching.
    """
    rng = random.Random(seed)
    n_cells = rng.randint(3, 5)
    b = IndoorSpaceBuilder()
    cells = []
    for i in range(n_cells):
        cells.append(b.add_partition(
            f"cell{i}", Rect(i * 10.0, 0.0, (i + 1) * 10.0, 8.0),
            PartitionKind.HALLWAY))
        if i > 0:
            b.add_door(f"cd{i}", Point(i * 10.0, rng.uniform(2.0, 6.0)),
                       between=(cells[i - 1], cells[i]))
    rooms = []
    for i in range(n_rooms):
        cell = rng.randrange(n_cells)
        x0 = cell * 10.0 + rng.uniform(0.0, 4.0)
        room = b.add_partition(
            f"room{i}", Rect(x0, 8.0, x0 + 5.0, 14.0))
        rooms.append(room)
        b.add_door(f"rd{i}", Point(x0 + rng.uniform(0.5, 4.5), 8.0),
                   between=(room, cells[cell]))
        if rng.random() < 0.3:
            # A second door into the same or the next cell over.
            cell2 = min(cell + 1, n_cells - 1)
            if x0 + 4.0 >= cell2 * 10.0:
                b.add_door(f"rd{i}b", Point(x0 + 4.5, 8.0),
                           between=(room, cells[cell2]))
    space = b.build()

    index = KeywordIndex()
    vocab = ["coffee", "latte", "beans", "phone", "laptop",
             "books", "maps", "mocha", "tea", "cake"]
    brands = ["alpha", "bravo", "chai", "delta", "echo", "foxtrot"]
    for i, room in enumerate(rooms):
        brand = rng.choice(brands)
        index.assign_iword(room, brand)
        twords = rng.sample(vocab, k=rng.randint(1, 4))
        index.add_twords(brand, twords)

    ps = space.partition(cells[0]).footprint.random_interior_point(rng)
    pt = space.partition(cells[-1]).footprint.random_interior_point(rng)
    return space, index, ps, pt


# ----------------------------------------------------------------------
# Tenant malls with paper-method queries (the fleet-property tests)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TenantVenue:
    """One synthetic tenant, its queries and their reference answers.

    ``expected[algorithm][i]`` is the canonical JSON of
    ``engine.search(queries[i], algorithm)`` — what a served answer
    must equal byte for byte.
    """

    name: str
    config: SynthMallConfig
    engine: IKRQEngine
    queries: Tuple[IKRQ, ...]
    expected: Dict[str, Tuple[str, ...]]


def paper_queries(engine: IKRQEngine, count: int = 16,
                  seed: int = 11) -> Tuple[IKRQ, ...]:
    """Section V-A1 queries: endpoints δs2t = 0.35 · venue diameter
    apart, Δ = η · achieved δs2t, |QW| = 4 at i-word fraction 0.6."""
    gen = QueryGenerator(engine.space, engine.kindex, graph=engine.graph,
                         seed=seed)
    s2t = 0.35 * venue_diameter(engine.space)
    queries = []
    for _ in range(count):
        ps, pt, achieved = gen.endpoints(s2t)
        queries.append(IKRQ(ps=ps, pt=pt, delta=1.8 * achieved,
                            keywords=gen.sample_keywords(4, 0.6),
                            k=7, alpha=0.5, tau=0.2))
    return tuple(queries)


@pytest.fixture(scope="session")
def tenant_fleet() -> Dict[str, TenantVenue]:
    """Two distinct 2-floor tenant malls, 16 paper-method queries each.

    Every reference answer is asserted non-empty: a byte-identity gate
    over empty route lists would pass on a fleet that answers nothing.
    """
    fleet = {}
    configs = tenant_mall_configs(2, floors=2, rooms_per_floor=16,
                                  words_per_room=3)
    for name, cfg in sorted(configs.items()):
        space, kindex = build_synth_mall(cfg)
        engine = IKRQEngine(space, kindex, door_matrix_eager=False)
        queries = paper_queries(engine)
        expected = {}
        for algorithm in ("ToE", "KoE", "KoE*"):
            answers = [engine.search(q, algorithm) for q in queries]
            assert all(a.routes for a in answers), (name, algorithm)
            expected[algorithm] = tuple(
                canonical_json(answer_to_wire(a)) for a in answers)
        fleet[name] = TenantVenue(name, cfg, engine, queries, expected)
    return fleet


@pytest.fixture(scope="session")
def tenant_snapshots(tenant_fleet, tmp_path_factory) -> Dict[str, str]:
    """``venue -> path`` of a binary snapshot per tenant mall."""
    tmp = tmp_path_factory.mktemp("tenants")
    paths = {}
    for name, venue in tenant_fleet.items():
        paths[name] = str(tmp / f"{name}.snap.bin")
        save_snapshot(paths[name], venue.engine, binary=True)
    return paths
