"""The C kernels against the interpreted loops, bit for bit.

Every engine attaches the compiled Dijkstra and skeleton lower bound
(:mod:`repro.space.kernels`) when ``_kernels.c`` builds and runs the
interpreted loops when it does not; the two must never differ by a
single answer byte.  These tests hold the C Dijkstra to that across:

* raw graph state — ``dijkstra`` dist/pred maps, ``dijkstra_tree``
  buffer bytes (including visit order), route reconstruction — under
  randomized banned sets, banned partitions, target sets and bounds,
* engine-level query answers (full result signatures),
* snapshot-loaded engines, both eager heap buffers and ``mmap``-backed
  read-only memoryviews, with and without banned partitions,
* a fuzz sweep over randomized synthetic venues,

and hold the C lower bound to it on seeded attachment pairs (heap and
mapped δs2s tables, empty attachments) and on engine answers, and the
dense endpoint-against-every-door fill (``TestDenseDoorBounds``, which
also runs — on the interpreted fill — where the C build is
unavailable) to the per-door ``lower_bound_heads`` and Rule 3's
partition bound.  They also check the selection itself: a broken
compiler falls back to both interpreted loops, and a mapped snapshot
search attaches the C loop without importing numpy.  The interpreted
references are reached with ``DoorGraph.set_kernel(None)`` and
``SkeletonIndex.set_kernel(None)``.

Fuzz failures print per-seed reproduction instructions; every fuzz
case is reconstructible from its seed alone.

Where ``_kernels.c`` cannot build (no C compiler) the ``native`` cases
skip and the rest of the suite runs on the interpreted loop.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest

import repro
from repro.core import IKRQ, IKRQEngine
from repro.dynamic import ClosureOverlay
from repro.geometry import Point
from repro.serve.wire import answer_to_wire, canonical_json, query_to_wire
from repro.space import DoorGraph
from repro.space.kernels import kernel_info, native_bounds, native_sssp
from tests.conftest import random_small_space

INF = math.inf

#: The C Dijkstra, or ``None`` where ``_kernels.c`` cannot build.
SSSP = native_sssp()


def c_sssp():
    """The C Dijkstra, skipping the calling test when it cannot build."""
    if SSSP is None:
        pytest.skip(f"C Dijkstra unavailable: {kernel_info()['unavailable']}")
    return SSSP


def interpreted(engine):
    """Detach ``engine``'s C kernels: the interpreted reference."""
    engine.graph.set_kernel(None)
    engine.skeleton.set_kernel(None)
    return engine


def tree_bytes(tree):
    return (bytes(tree.dist), bytes(tree.pred), bytes(tree.pred_via),
            bytes(tree.touched))


def answer_signatures(answers):
    return [[(tuple(repr(i) for i in r.route.items), r.route.vias,
              r.distance, r.score) for r in a.routes] for a in answers]


def wire(answer):
    return canonical_json(answer_to_wire(answer))


def venues():
    from repro.datasets import paper_fig1
    from repro.datasets.synth import SynthMallConfig, build_synth_mall
    out = [("fig1", paper_fig1().space)]
    for seed in (0, 3):
        space, _, _, _ = random_small_space(seed)
        out.append((f"synthetic{seed}", space))
    mall, _ = build_synth_mall(
        SynthMallConfig(floors=3, rooms_per_floor=10, seed=5))
    out.append(("mall3", mall))
    return out


@pytest.fixture(scope="module", params=venues(), ids=lambda v: v[0])
def venue(request):
    name, space = request.param
    return space


def random_cases(space, rng, n=30):
    doors = sorted(space.doors)
    partitions = sorted(space.partitions)
    for _ in range(n):
        source = rng.choice(doors)
        banned = frozenset(rng.sample(doors, k=rng.randint(0, 3))) - {source}
        banned_parts = (None if rng.random() < 0.5 else frozenset(
            rng.sample(partitions, k=rng.randint(1, 2))))
        bound = rng.choice((INF, rng.uniform(5.0, 80.0)))
        targets = (None if rng.random() < 0.4 else
                   set(rng.sample(doors, k=rng.randint(1, 4))))
        yield source, banned, banned_parts, targets, bound


def run_child(script, *args, stdin=None, env=None):
    """Run ``script`` in a fresh interpreter; its stdout is one JSON doc."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    child_env = dict(os.environ, **(env or {}))
    child_env["PYTHONPATH"] = src
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          input=stdin, capture_output=True, text=True,
                          env=child_env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


#: Child: engine over the ``mall_fixture`` venue, answers to stdin's
#: wire queries under every algorithm, plus the engine's kernel info.
FALLBACK_CHILD = """
import json, sys
from repro.core import IKRQEngine
from repro.datasets.synth import SynthMallConfig, build_synth_mall
from repro.serve.wire import answer_to_wire, canonical_json, query_from_wire
space, kindex = build_synth_mall(
    SynthMallConfig(floors=2, rooms_per_floor=10, seed=9))
engine = IKRQEngine(space, kindex)
queries = [query_from_wire(d) for d in json.load(sys.stdin)]
answers = [canonical_json(answer_to_wire(engine.search(q, algo)))
           for q in queries for algo in ("ToE", "KoE", "KoE*")]
# The interpreted lower bound builds its δs2s list mirror on first use.
print(json.dumps({"info": engine.kernel_info(), "answers": answers,
                  "interpreted_bound_ran":
                      engine.skeleton._s2s_hot is not None}))
"""

#: Child: a shard-style mapped snapshot load and one ToE search.
MAPPED_CHILD = """
import json, sys
from repro.serve.snapshot import load_snapshot
from repro.serve.wire import answer_to_wire, canonical_json, query_from_wire
engine = load_snapshot(sys.argv[1], mmap=True)
query = query_from_wire(json.load(sys.stdin))
answer = canonical_json(answer_to_wire(engine.search(query, "ToE")))
print(json.dumps({"kernel": engine.kernel_backend,
                  "mapped": engine.mapped_bytes,
                  "numpy": "numpy" in sys.modules,
                  "answer": answer}))
"""


# ----------------------------------------------------------------------
# Selection: the C Dijkstra when it builds, else the interpreted loop
# ----------------------------------------------------------------------
class TestResolution:
    def test_default_is_python(self):
        # Only engines attach the kernel; a bare graph is interpreted.
        graph = DoorGraph(random_small_space(1)[0])
        assert graph.kernel_name == "python"
        assert graph._sssp is None

    def test_python_suite_has_no_hooks(self):
        graph = DoorGraph(random_small_space(1)[0])
        graph.set_kernel(c_sssp())
        assert graph.kernel_name == "native"
        graph.set_kernel(None)
        assert graph.kernel_name == "python"
        assert graph._sssp is None

    def test_engine_attaches_c_when_it_builds(self):
        space, kindex, _, _ = random_small_space(1)
        engine = IKRQEngine(space, kindex)
        expected = "python" if SSSP is None else "native"
        assert engine.kernel_backend == expected
        assert engine.graph._sssp is SSSP

    def test_engine_reports_backend(self):
        space, kindex, _, _ = random_small_space(1)
        engine = IKRQEngine(space, kindex)
        info = engine.kernel_info()
        assert set(info) == {"active", "lower_bound", "unavailable"}
        assert info["active"] == engine.kernel_backend
        assert info["lower_bound"] == engine.skeleton.kernel_name
        assert info["lower_bound"] == info["active"]
        assert (info["unavailable"] is None) == (SSSP is not None)
        interpreted(engine)
        assert engine.kernel_backend == "python"
        assert engine.kernel_info()["active"] == "python"
        assert engine.kernel_info()["lower_bound"] == "python"

    def test_broken_compiler_falls_back_to_interpreted(self, tmp_path):
        """No compiler and no cached build: the engine runs the
        interpreted loop and answers byte-identically."""
        space, kindex = mall_fixture()
        queries = mall_queries(space, kindex, random.Random(43))
        reference = interpreted(IKRQEngine(space, kindex))
        expected = [wire(reference.search(q, algo))
                    for q in queries for algo in ("ToE", "KoE", "KoE*")]
        assert any('"routes":[{' in doc for doc in expected)
        out = run_child(
            FALLBACK_CHILD,
            stdin=json.dumps([query_to_wire(q) for q in queries]),
            env={"CC": "/nonexistent/cc",
                 "REPRO_KERNEL_CACHE": str(tmp_path / "cache")})
        assert out["info"]["active"] == "python"
        assert out["info"]["lower_bound"] == "python"
        assert "no C compiler" in out["info"]["unavailable"]
        assert out["interpreted_bound_ran"]
        assert out["answers"] == expected

    def test_build_cache_key_covers_the_compile_command(self, tmp_path,
                                                        monkeypatch):
        """A changed flag list (or compiler) names a different cached
        object, so a flag change never reuses a stale build."""
        from repro.space.kernels import native_backend
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        source = b"int f(void) { return 0; }"
        flags = native_backend._FLAGS
        assert "-ffp-contract=off" in flags
        path = native_backend._so_path(source, "cc", flags)
        assert path == native_backend._so_path(source, "cc", flags)
        assert path != native_backend._so_path(
            source, "cc", tuple(f for f in flags if f != "-ffp-contract=off"))
        assert path != native_backend._so_path(source, "cc", flags + ("-g",))
        assert path != native_backend._so_path(source, "clang", flags)
        assert path != native_backend._so_path(source + b" ", "cc", flags)

    def test_mapped_snapshot_search_loads_no_numpy(self, tmp_path):
        """A shard-style mapped load attaches the C loop and never
        imports numpy (which would cost every shard its RSS)."""
        c_sssp()
        from repro.serve.snapshot import save_snapshot
        space, kindex = mall_fixture()
        reference = interpreted(IKRQEngine(space, kindex))
        query = next(q for q in mall_queries(space, kindex,
                                             random.Random(43))
                     if reference.search(q, "ToE").routes)
        expected = wire(reference.search(query, "ToE"))
        path = tmp_path / "venue.snap.bin"
        save_snapshot(path, reference, binary=True)
        out = run_child(MAPPED_CHILD, str(path),
                        stdin=json.dumps(query_to_wire(query)))
        assert out["kernel"] == "native"
        assert out["mapped"] > 0
        assert out["numpy"] is False
        assert out["answer"] == expected


# ----------------------------------------------------------------------
# Raw graph identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["native"])
class TestGraphIdentity:
    def test_dijkstra_state_matches_interpreted(self, venue, backend):
        space = venue
        plain = DoorGraph(space)
        fast = DoorGraph(space)
        fast.set_kernel(c_sssp())
        assert fast.kernel_name == backend
        rng = random.Random(23)
        for source, banned, bp, targets, bound in random_cases(space, rng):
            ref = plain.dijkstra(source, banned=banned,
                                 targets=set(targets) if targets else None,
                                 bound=bound, banned_partitions=bp)
            got = fast.dijkstra(source, banned=banned,
                                targets=set(targets) if targets else None,
                                bound=bound, banned_partitions=bp)
            assert got == ref

    def test_tree_buffers_match_interpreted(self, venue, backend):
        space = venue
        plain = DoorGraph(space)
        fast = DoorGraph(space)
        fast.set_kernel(c_sssp())
        for source in sorted(space.doors)[::3]:
            ref = plain.dijkstra_tree(source)
            got = fast.dijkstra_tree(source)
            assert tree_bytes(got) == tree_bytes(ref)

    def test_routes_match_interpreted(self, venue, backend):
        space = venue
        plain = DoorGraph(space)
        fast = DoorGraph(space)
        fast.set_kernel(c_sssp())
        rng = random.Random(29)
        doors = sorted(space.doors)
        for _ in range(25):
            source = rng.choice(doors)
            vias = sorted(space.d2p_leave(source))
            if not vias:
                continue
            first_via = rng.choice(vias)
            targets = set(rng.sample(doors, k=rng.randint(1, 5)))
            banned = frozenset(rng.sample(doors, k=rng.randint(0, 3)))
            bp = (None if rng.random() < 0.5 else
                  frozenset(rng.sample(sorted(space.partitions), k=1)))
            bound = rng.choice((INF, rng.uniform(5.0, 80.0)))
            ref = plain.multi_target_routes(source, first_via, targets,
                                            banned=banned, bound=bound,
                                            banned_partitions=bp)
            got = fast.multi_target_routes(source, first_via, targets,
                                           banned=banned, bound=bound,
                                           banned_partitions=bp)
            assert got == ref

    def test_point_routes_match_interpreted(self, venue, backend):
        space = venue
        plain = DoorGraph(space)
        fast = DoorGraph(space)
        fast.set_kernel(c_sssp())
        rng = random.Random(31)
        doors = sorted(space.doors)
        partitions = sorted(space.partitions)
        for _ in range(20):
            pid = rng.choice(partitions)
            p = space.partition(pid).footprint.random_interior_point(rng)
            host = space.host_partition(p).pid
            targets = set(rng.sample(doors, k=rng.randint(1, 4)))
            banned = frozenset(rng.sample(doors, k=rng.randint(0, 3)))
            ref = plain.routes_from_point(p, host, targets, banned=banned)
            got = fast.routes_from_point(p, host, targets, banned=banned)
            assert got == ref


class TestBannedPartitions:
    """The first-class banned-partition API on the interpreted core."""

    def test_banned_partition_excludes_its_edges(self, venue):
        space = venue
        graph = DoorGraph(space)
        rng = random.Random(37)
        doors = sorted(space.doors)
        partitions = sorted(space.partitions)
        for _ in range(15):
            source = rng.choice(doors)
            bp = frozenset(rng.sample(partitions, k=rng.randint(1, 2)))
            dist, pred = graph.dijkstra(source, banned_partitions=bp)
            # No settled door may have been reached through a banned
            # partition.
            for door, (prev, via) in pred.items():
                assert via not in bp, (door, via)

    def test_empty_set_equals_none(self, venue):
        space = venue
        graph = DoorGraph(space)
        source = sorted(space.doors)[0]
        assert (graph.dijkstra(source, banned_partitions=frozenset())
                == graph.dijkstra(source))


# ----------------------------------------------------------------------
# Engine-level and snapshot identity
# ----------------------------------------------------------------------
def mall_fixture():
    from repro.datasets.synth import SynthMallConfig, build_synth_mall
    space, kindex = build_synth_mall(
        SynthMallConfig(floors=2, rooms_per_floor=10, seed=9))
    return space, kindex


def mall_queries(space, kindex, rng, n=6):
    doors = sorted(space.doors)
    iwords = sorted(kindex.iwords)
    queries = []
    for _ in range(n):
        ps = space.door(rng.choice(doors)).position
        pt = space.door(rng.choice(doors)).position
        keywords = tuple(rng.sample(iwords, k=min(3, len(iwords))))
        queries.append(IKRQ(ps=ps, pt=pt, delta=rng.uniform(180.0, 360.0),
                            keywords=keywords, k=rng.choice((1, 3))))
    return queries


@pytest.mark.parametrize("backend", ["native"])
class TestEngineIdentity:
    def test_answers_match_interpreted_engine(self, backend):
        space, kindex = mall_fixture()
        queries = mall_queries(space, kindex, random.Random(43))
        c_sssp()
        plain = interpreted(IKRQEngine(space, kindex))
        fast = IKRQEngine(space, kindex)
        assert fast.kernel_backend == backend
        assert fast.kernel_info()["active"] == backend
        ref = [plain.search(q, "ToE") for q in queries]
        got = [fast.search(q, "ToE") for q in queries]
        assert any(a.routes for a in ref)
        assert answer_signatures(got) == answer_signatures(ref)

    @pytest.mark.parametrize("mapped", [False, True],
                             ids=["eager", "mmap"])
    def test_snapshot_loaded_engine_matches(self, backend, mapped,
                                            tmp_path):
        from repro.serve.snapshot import load_snapshot, save_snapshot
        c_sssp()
        space, kindex = mall_fixture()
        rng = random.Random(47)
        queries = mall_queries(space, kindex, rng)
        plain = interpreted(IKRQEngine(space, kindex))
        ref = [plain.search(q, "ToE") for q in queries]
        path = tmp_path / "venue.snap.bin"
        save_snapshot(path, plain, binary=True)
        loaded = load_snapshot(path, mmap=mapped)
        assert loaded.kernel_backend == backend
        assert (loaded.mapped_bytes > 0) == mapped
        got = [loaded.search(q, "ToE") for q in queries]
        assert answer_signatures(got) == answer_signatures(ref)
        # Raw banned-set runs over the loaded buffers (read-only
        # memoryviews under mmap) must also match the live graph.
        doors = sorted(space.doors)
        for _ in range(10):
            source = rng.choice(doors)
            banned = frozenset(rng.sample(doors, k=2)) - {source}
            assert (loaded.graph.dijkstra(source, banned=banned)
                    == plain.graph.dijkstra(source, banned=banned))

    def test_mapped_snapshot_with_banned_partitions_matches(self, backend,
                                                            tmp_path):
        """The C loop over read-only mapped buffers with a banned-
        partition edge mask, against the interpreted live graph."""
        from repro.serve.snapshot import load_snapshot, save_snapshot
        c_sssp()
        space, kindex = mall_fixture()
        plain = interpreted(IKRQEngine(space, kindex))
        path = tmp_path / "venue.snap.bin"
        save_snapshot(path, plain, binary=True)
        loaded = load_snapshot(path, mmap=True)
        assert loaded.kernel_backend == backend
        assert loaded.mapped_bytes > 0
        rng = random.Random(53)
        doors = sorted(space.doors)
        partitions = sorted(space.partitions)
        masked = 0
        for _ in range(30):
            source = rng.choice(doors)
            banned = frozenset(rng.sample(doors, k=2)) - {source}
            bp = frozenset(rng.sample(partitions, k=rng.randint(1, 3)))
            got = loaded.graph.dijkstra(source, banned=banned,
                                        banned_partitions=bp)
            assert got == plain.graph.dijkstra(source, banned=banned,
                                               banned_partitions=bp)
            masked += got != loaded.graph.dijkstra(source, banned=banned)
            vias = sorted(space.d2p_leave(source))
            if vias:
                first_via = rng.choice(vias)
                targets = set(rng.sample(doors, k=3))
                assert (loaded.graph.multi_target_routes(
                            source, first_via, targets, banned_partitions=bp)
                        == plain.graph.multi_target_routes(
                            source, first_via, targets, banned_partitions=bp))
        assert masked, "no banned-partition set changed a single run"
        # Whole queries under sealed partitions (the closure overlay).
        queries = mall_queries(space, kindex, rng)
        nonempty = 0
        for pid in rng.sample(partitions, k=3):
            overlay = ClosureOverlay(sealed_partitions=frozenset({pid}))
            for query in queries:
                for algorithm in ("ToE", "KoE", "KoE*"):
                    ref = plain.search(query, algorithm, overlay=overlay)
                    got = loaded.search(query, algorithm, overlay=overlay)
                    assert wire(got) == wire(ref)
                    nonempty += bool(ref.routes)
        assert nonempty


# ----------------------------------------------------------------------
# The C skeleton lower bound
# ----------------------------------------------------------------------
def c_bounds():
    """The C lower-bound factory, skipping when it cannot build."""
    c_sssp()
    return native_bounds()


def bound_bits(value):
    return float(value).hex()


def attachment_items(space, rng, n=40):
    """Seeded doors and free points over every floor, plus a point on
    a floor without staircases (an empty attachment)."""
    doors = sorted(space.doors)
    partitions = sorted(space.partitions)
    items = rng.sample(doors, k=min(n, len(doors)))
    for _ in range(n // 2):
        part = space.partition(rng.choice(partitions))
        items.append(part.footprint.random_interior_point(rng))
    top = max(p.footprint.level for p in space.partitions.values())
    items.append(Point(1.0, 1.0, top + 5.0))
    return items


@contextlib.contextmanager
def detached(skeleton):
    """The skeleton with its C bound detached, restored on exit."""
    kernel = skeleton._bounds
    skeleton._bounds = None
    try:
        yield skeleton
    finally:
        skeleton._bounds = kernel


def dense_reference(skeleton, endpoint, endpoint_is_a, door_ids):
    """The interpreted ``lower_bound_heads`` of ``endpoint`` against
    every door, as float bits."""
    with detached(skeleton):
        fixed = skeleton.heads(endpoint)
        lbh = skeleton.lower_bound_heads
        return [bound_bits(lbh(fixed, skeleton.heads(d)) if endpoint_is_a
                           else lbh(skeleton.heads(d), fixed))
                for d in door_ids]


class TestLowerBoundIdentity:
    @pytest.mark.parametrize("mapped", [False, True], ids=["heap", "mmap"])
    def test_bounds_match_interpreted_bit_for_bit(self, mapped, tmp_path):
        from repro.serve.snapshot import load_snapshot, save_snapshot
        from repro.datasets.synth import SynthMallConfig, build_synth_mall
        bounds = c_bounds()
        space, kindex = build_synth_mall(
            SynthMallConfig(floors=4, rooms_per_floor=10, seed=9))
        engine = IKRQEngine(space, kindex)
        if mapped:
            path = tmp_path / "venue.snap.bin"
            save_snapshot(path, engine, binary=True)
            engine = load_snapshot(path, mmap=True)
            assert isinstance(engine.skeleton._s2s, memoryview)
        skeleton = engine.skeleton
        assert skeleton.kernel_name == "native"
        rng = random.Random(59)
        items = attachment_items(space, rng)
        heads = [skeleton.heads(item) for item in items]
        assert not heads[-1][3], "the last item must have no stair rows"
        pairs = [(rng.randrange(len(heads)), rng.randrange(len(heads)))
                 for _ in range(3000)]
        pairs += [(len(heads) - 1, i) for i in range(0, len(heads), 5)]
        pairs += [(i, len(heads) - 1) for i in range(0, len(heads), 5)]
        native = [skeleton.lower_bound_heads(heads[i], heads[j])
                  for i, j in pairs]
        via_pids = rng.sample(sorted(space.partitions), k=15)
        native_via = [skeleton.lower_bound_via_partition_heads(
            heads[i], pid, heads[j]) for i, j in pairs[:60]
            for pid in via_pids[:3]]
        skeleton.set_kernel(None)
        assert skeleton.kernel_name == "python"
        ref = [skeleton.lower_bound_heads(heads[i], heads[j])
               for i, j in pairs]
        ref_via = [skeleton.lower_bound_via_partition_heads(
            heads[i], pid, heads[j]) for i, j in pairs[:60]
            for pid in via_pids[:3]]
        assert list(map(bound_bits, native)) == list(map(bound_bits, ref))
        assert (list(map(bound_bits, native_via))
                == list(map(bound_bits, ref_via)))
        # Non-vacuous: finite cross-floor bounds and empty-attachment
        # infinities both occurred.
        cross = [v for (i, j), v in zip(pairs, ref)
                 if heads[i][1] != heads[j][1] and v != INF]
        assert cross and INF in ref
        # The dense entry point fills the same values either way round,
        # from a point on a stairless floor and from two free points.
        skeleton.set_kernel(bounds)
        door_ids = engine.graph._door_ids
        doors = [item for item in items if isinstance(item, int)]
        for fixed in (items[-1], items[len(doors)], items[len(doors) + 1]):
            for fixed_is_a in (True, False):
                dense = skeleton.door_bounds(fixed, fixed_is_a, door_ids)
                assert (list(map(bound_bits, dense))
                        == dense_reference(skeleton, fixed, fixed_is_a,
                                           door_ids))

    def test_engine_answers_match_with_bound_detached(self):
        """Kernel attached vs detached under sealed-partition
        overlays, on every algorithm."""
        c_bounds()
        space, kindex = mall_fixture()
        rng = random.Random(67)
        queries = mall_queries(space, kindex, rng, n=5)
        assert any(q.ps.floor != q.pt.floor for q in queries)
        fast = IKRQEngine(space, kindex)
        plain = IKRQEngine(space, kindex)
        plain.skeleton.set_kernel(None)
        assert plain.kernel_info()["lower_bound"] == "python"
        assert fast.kernel_info()["lower_bound"] == "native"
        nonempty = 0
        overlays = [None] + [
            ClosureOverlay(sealed_partitions=frozenset({pid}))
            for pid in rng.sample(sorted(space.partitions), k=2)]
        for overlay in overlays:
            for query in queries:
                for algorithm in ("ToE", "KoE", "KoE*"):
                    ref = plain.search(query, algorithm, overlay=overlay)
                    got = fast.search(query, algorithm, overlay=overlay)
                    assert wire(got) == wire(ref)
                    nonempty += bool(ref.routes)
        assert nonempty

    def test_new_pair_answers_like_a_seen_pair(self):
        """A (ps, pt) first seen answers byte-identically to the same
        query served after its endpoint entry was cached."""
        from repro.core.engine import QueryService
        space, kindex = mall_fixture()
        engine = IKRQEngine(space, kindex)
        rng = random.Random(71)
        queries = mall_queries(space, kindex, rng, n=6)
        iwords = sorted(kindex.iwords)
        nonempty = 0
        for query in queries:
            for algorithm in ("ToE", "KoE", "KoE*"):
                fresh = QueryService(engine, workers=1)
                new_pair = fresh.search(query, algorithm)
                warmed = QueryService(engine, workers=1)
                other = tuple(rng.sample(iwords, k=2))
                warmed.search(replace(query, keywords=other), algorithm)
                seen_pair = warmed.search(query, algorithm)
                assert warmed.stats.point_map_hits == 1
                assert fresh.stats.point_map_hits == 0
                assert wire(seen_pair) == wire(new_pair)
                nonempty += bool(new_pair.routes)
        assert nonempty


# ----------------------------------------------------------------------
# The dense endpoint bounds (every door at once)
# ----------------------------------------------------------------------
def stairless_mall():
    """The test mall plus a detached floor (level 5) without stair
    doors: its door has no stair rows, so every cross-floor bound to
    it is +inf."""
    from repro.geometry import Rect
    from repro.space import IndoorSpace
    from repro.space.entities import Door, Partition
    space, kindex = mall_fixture()
    pid = max(space.partitions) + 1
    both = frozenset({pid, pid + 1})
    rooms = [Partition(pid, Rect(0.0, 0.0, 10.0, 10.0, level=5.0)),
             Partition(pid + 1, Rect(10.0, 0.0, 20.0, 10.0, level=5.0))]
    door = Door(max(space.doors) + 1, Point(10.0, 5.0, 5.0), both, both)
    return IndoorSpace(list(space.partitions.values()) + rooms,
                       list(space.doors.values()) + [door]), kindex


def dense_venue(name):
    if name == "fig1":
        from repro.datasets import paper_fig1
        fig1 = paper_fig1()
        return fig1.space, fig1.kindex
    return stairless_mall() if name == "stairless" else mall_fixture()


def dense_endpoints(space, rng):
    """Door positions (stair doors sit at half levels), free points on
    every floor, and a point on a floor without stair doors."""
    doors = sorted(space.doors)
    stairs = [d for d in doors if space.door(d).is_staircase_door]
    picked = rng.sample(doors, k=min(6, len(doors))) + stairs[:4]
    points = [space.door(d).position for d in picked]
    for part in rng.sample(sorted(space.partitions.values(),
                                  key=lambda p: p.pid), k=6):
        points.append(part.footprint.random_interior_point(rng))
    top = max(p.footprint.level for p in space.partitions.values())
    points.append(Point(1.0, 1.0, top + 7.0))
    return points


class TestDenseDoorBounds:
    """The dense ``|ps, d|L`` / ``|d, pt|L`` fill against the
    interpreted per-door ``lower_bound_heads``, bit for bit — the C
    fill where ``_kernels.c`` builds, else the interpreted fill."""

    @pytest.mark.parametrize("mapped", [False, True], ids=["heap", "mmap"])
    @pytest.mark.parametrize("venue", ["fig1", "mall", "stairless"])
    def test_dense_bounds_match_lower_bound_heads(self, venue, mapped,
                                                  tmp_path):
        from repro.serve.snapshot import load_snapshot, save_snapshot
        space, kindex = dense_venue(venue)
        engine = IKRQEngine(space, kindex)
        if mapped:
            path = tmp_path / "venue.snap.bin"
            save_snapshot(path, engine, binary=True)
            engine = load_snapshot(path, mmap=True)
            assert isinstance(engine.skeleton._s2s, memoryview)
        skeleton = engine.skeleton
        assert skeleton.kernel_name == kernel_info()["lower_bound"]
        door_ids = engine.graph._door_ids
        door_pos = [space.door(d).position for d in door_ids]
        kinds = set()
        for p in dense_endpoints(space, random.Random(83)):
            for is_a in (True, False):
                dense = skeleton.door_bounds(p, is_a, door_ids)
                ref = dense_reference(skeleton, p, is_a, door_ids)
                assert list(map(bound_bits, dense)) == ref, (p, is_a)
                for q, value in zip(door_pos, dense):
                    if q.level == p.level:
                        kinds.add("same floor")
                    elif abs(q.level - p.level) == 0.5:
                        kinds.add("touching level")
                    elif value == INF:
                        kinds.add("no stair rows")
                    else:
                        kinds.add("cross floor")
        expected = {"same floor", "no stair rows"}
        if venue != "fig1":
            expected |= {"touching level", "cross floor"}
        assert expected <= kinds
        if venue == "stairless":
            # The stairless floor's door against an endpoint on a
            # floor with stair doors: the door side has no rows.
            k = engine.graph._door_index[max(space.doors)]
            ps = space.door(sorted(space.doors)[0]).position
            assert skeleton.heads(ps)[3]
            assert skeleton.door_bounds(ps, True, door_ids)[k] == INF
            assert skeleton.door_bounds(ps, False, door_ids)[k] == INF

    @pytest.mark.parametrize("mapped", [False, True], ids=["heap", "mmap"])
    def test_rule3_from_arrays_matches_partition_bound(self, mapped,
                                                       tmp_path):
        """Rule 3 read from the dense arrays equals
        ``lower_bound_via_partition_heads`` for ``ps`` and door sources,
        on the plain venue and under a closure overlay's view."""
        from repro.serve.snapshot import load_snapshot, save_snapshot
        space, kindex = mall_fixture()
        engine = IKRQEngine(space, kindex)
        if mapped:
            path = tmp_path / "venue.snap.bin"
            save_snapshot(path, engine, binary=True)
            engine = load_snapshot(path, mmap=True)
        skeleton = engine.skeleton
        rng = random.Random(89)
        queries = mall_queries(space, kindex, rng, n=4)
        assert any(q.ps.floor != q.pt.floor for q in queries)
        pids = sorted(space.partitions)
        doors = sorted(space.doors)
        overlays = [None, ClosureOverlay(
            closed_doors=frozenset(rng.sample(doors, k=3)),
            sealed_partitions=frozenset(rng.sample(pids, k=2)))]
        finite = 0
        for overlay in overlays:
            for query in queries:
                ctx = engine.context(query, overlay=overlay)
                from_ps, to_pt = ctx.fill_door_bounds()
                door_ids = engine.graph._door_ids
                assert list(map(bound_bits, from_ps)) == dense_reference(
                    skeleton, query.ps, True, door_ids)
                assert list(map(bound_bits, to_pt)) == dense_reference(
                    skeleton, query.pt, False, door_ids)
                ht = skeleton.heads(query.pt)
                sources = [query.ps] + rng.sample(doors, k=3)
                for source in sources:
                    for pid in rng.sample(pids, k=8):
                        got = ctx.lb_via_partition(source, pid)
                        with detached(skeleton):
                            ref = skeleton.lower_bound_via_partition_heads(
                                skeleton.heads(source), pid, ht,
                                space=ctx.space)
                        assert bound_bits(got) == bound_bits(ref)
                        finite += got != INF
        assert finite


# ----------------------------------------------------------------------
# Fuzz sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(8))
def test_fuzz_random_venues_bit_identical(seed):
    """Randomized venues x randomized runs, C against interpreted.

    Reproduce one failing seed with::

        PYTHONPATH=src python -m pytest \
            "tests/test_kernels.py::test_fuzz_random_venues_bit_identical[SEED]"

    or interactively::

        from tests.conftest import random_small_space
        space, _, _, _ = random_small_space(SEED)

    and replay the printed case tuple against ``DoorGraph.dijkstra``.
    """
    sssp = c_sssp()
    space, _, _, _ = random_small_space(seed, n_rooms=4 + seed % 3)
    plain = DoorGraph(space)
    fast = DoorGraph(space)
    fast.set_kernel(sssp)
    rng = random.Random(1000 + seed)
    for case in random_cases(space, rng, n=20):
        source, banned, bp, targets, bound = case
        ref = plain.dijkstra(source, banned=banned,
                             targets=set(targets) if targets else None,
                             bound=bound, banned_partitions=bp)
        got = fast.dijkstra(source, banned=banned,
                            targets=set(targets) if targets else None,
                            bound=bound, banned_partitions=bp)
        assert got == ref, (
            f"the C Dijkstra diverged on venue seed {seed}, case "
            f"{case!r}; reproduce with random_small_space({seed}, "
            f"n_rooms={4 + seed % 3}) and this exact case tuple")
