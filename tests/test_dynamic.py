"""Dynamic overlay layer: every overlay answer is byte-identical to a
from-scratch engine rebuilt on the physically edited venue.

The contract under test (``docs/dynamic.md``):

* ``engine.search(q, algo, overlay=ov)`` equals
  ``IKRQEngine(apply_closures(space, ov), kindex).search(q, algo)``
  for every algorithm including the naive baseline — same routes,
  same scores, same wire bytes,
* door schedules reduce to the closure case once compiled against a
  query timestamp,
* keyword deltas reduce to an engine over the edited
  :class:`~repro.keywords.mappings.KeywordIndex`,
* the shared caches (answer LRU, endpoint-attachment LRU, door-matrix
  rows) can never leak a pre-closure value into an overlaid answer or
  vice versa,
* the serve layer applies deltas atomically: concurrent traffic sees
  exactly one ``dynamic_version`` per answer, never a blend, with the
  snapshot generation untouched.

Fuzz failures print per-seed reproduction instructions; every fuzz
case is reconstructible from its seed alone::

    PYTHONPATH=src python -m pytest \
        "tests/test_dynamic.py::test_fuzz_closure_identity[SEED]"

The CI ``dynamic-smoke`` job runs this file on both Dijkstra loops —
the default leg, where engines attach the C build, and a
``CC=/nonexistent`` leg, where they run the interpreted loop — so the
seeded scenarios below are exercised on each.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core import IKRQ, IKRQEngine, QueryService
from repro.dynamic import (DAY_S, WEEK_S, ClosureOverlay, DeltaError,
                           DoorSchedule, DynamicStore, DynamicView,
                           EMPTY_OVERLAY, apply_closures, apply_keyword_ops,
                           compile_closed_doors, validate_ops, week_offset)
from repro.serve.wire import answer_to_wire, canonical_json
from tests.conftest import random_small_space
from tests.test_kernels import answer_signatures, c_sssp

ALGOS = ("ToE", "KoE", "KoE*", "naive")


def wire(answer):
    return canonical_json(answer_to_wire(answer))


def random_overlay(rng, space, max_doors=4, max_partitions=2):
    doors = sorted(space.doors)
    partitions = sorted(space.partitions)
    closed = rng.sample(doors, k=rng.randint(1, min(max_doors, len(doors))))
    sealed = (rng.sample(partitions,
                         k=rng.randint(1, min(max_partitions,
                                              len(partitions))))
              if rng.random() < 0.4 else [])
    return ClosureOverlay(frozenset(closed), frozenset(sealed))


def random_queries(rng, space, kindex, ps, pt, n=3):
    iwords = sorted(kindex.iwords)
    queries = [IKRQ(ps=ps, pt=pt, delta=rng.uniform(40.0, 120.0),
                    keywords=tuple(rng.sample(
                        iwords, k=min(rng.randint(1, 3), len(iwords)))),
                    k=rng.choice((1, 3)))]
    doors = sorted(space.doors)
    for _ in range(n - 1):
        a = space.door(rng.choice(doors)).position
        b = space.door(rng.choice(doors)).position
        queries.append(IKRQ(ps=a, pt=b, delta=rng.uniform(40.0, 120.0),
                            keywords=tuple(rng.sample(
                                iwords,
                                k=min(rng.randint(1, 3), len(iwords)))),
                            k=rng.choice((1, 3))))
    return queries


def assert_identical(engine, rebuilt, queries, overlay, repro,
                     algorithms=ALGOS):
    """Overlay answers vs. the rebuilt engine, plus the service path."""
    service = QueryService(engine)
    for query in queries:
        for algorithm in algorithms:
            expected = rebuilt.search(query, algorithm)
            got = engine.search(query, algorithm, overlay=overlay)
            assert answer_signatures([got]) == answer_signatures(
                [expected]) and wire(got) == wire(expected), (
                f"overlay answer diverged from the rebuilt venue: "
                f"{algorithm} {query} overlay={overlay!r}; {repro}")
            via_service = service.search(query, algorithm, overlay=overlay)
            assert wire(via_service) == wire(expected), (
                f"QueryService overlay answer diverged: {algorithm} "
                f"{query} overlay={overlay!r}; {repro}")


# ----------------------------------------------------------------------
# ClosureOverlay unit behaviour
# ----------------------------------------------------------------------
class TestClosureOverlay:
    def test_wire_round_trip(self):
        ov = ClosureOverlay(frozenset({3, 1}), frozenset({7}))
        assert ClosureOverlay.from_wire(ov.to_wire()) == ov
        assert ov.to_wire() == {"closed_doors": [1, 3],
                                "sealed_partitions": [7]}
        assert ClosureOverlay.from_wire(None) == EMPTY_OVERLAY
        assert not EMPTY_OVERLAY and ov

    def test_merge_unions(self):
        a = ClosureOverlay(frozenset({1}), frozenset({2}))
        b = ClosureOverlay(frozenset({3}))
        assert a.merge(b) == ClosureOverlay(frozenset({1, 3}),
                                            frozenset({2}))
        assert a.merge(EMPTY_OVERLAY) == a

    def test_from_wire_rejects_garbage(self):
        for doc in ({"closed_doors": "nope"}, {"unknown_field": [1]},
                    {"closed_doors": [True]}, {"closed_doors": [1.5]}, 7):
            with pytest.raises(ValueError):
                ClosureOverlay.from_wire(doc)

    def test_validate_rejects_unknown_ids(self, fig1):
        with pytest.raises(ValueError, match="unknown door"):
            ClosureOverlay(frozenset({424242})).validate(fig1.space)
        with pytest.raises(ValueError, match="unknown partition"):
            ClosureOverlay(
                sealed_partitions=frozenset({424242})).validate(fig1.space)

    def test_apply_closures_keeps_every_door(self, fig1):
        space = fig1.space
        did = sorted(space.doors)[0]
        edited = apply_closures(space, ClosureOverlay(frozenset({did})))
        # Door ids (and hence CSR dense indexing) are preserved: the
        # closed door stays in the venue with no enter/leave sets.
        assert sorted(edited.doors) == sorted(space.doors)
        assert not edited.d2p_enter(did) and not edited.d2p_leave(did)
        assert sorted(edited.partitions) == sorted(space.partitions)

    def test_apply_sealed_partition_strips_other_doors(self, fig1):
        space = fig1.space
        pid = sorted(space.partitions)[1]
        edited = apply_closures(
            space, ClosureOverlay(sealed_partitions=frozenset({pid})))
        for did in sorted(edited.doors):
            assert pid not in edited.d2p_enter(did)
            assert pid not in edited.d2p_leave(did)


# ----------------------------------------------------------------------
# DoorSchedule unit behaviour
# ----------------------------------------------------------------------
class TestDoorSchedule:
    def test_plain_window(self):
        s = DoorSchedule(((3600.0, 7200.0),))
        assert not s.is_open(0.0)
        # Week offset 0 is Monday 00:00; the epoch was a Thursday.
        monday = 4 * DAY_S  # 1970-01-05
        assert week_offset(monday) == 0.0
        assert s.is_open(monday + 3600.0)
        assert s.is_open(monday + 7199.0)
        assert not s.is_open(monday + 7200.0)
        assert s.is_open(monday + WEEK_S + 3600.0)  # weekly repeat

    def test_wrapping_window(self):
        # Open Sunday 23:00 through Monday 01:00.
        s = DoorSchedule(((WEEK_S - 3600.0, 3600.0),))
        monday = 4 * DAY_S
        assert s.is_open(monday)  # inside the wrapped tail
        assert s.is_open(monday - 1800.0)
        assert not s.is_open(monday + 3600.0)

    def test_daily_and_lockdown(self):
        s = DoorSchedule.daily(9 * 3600.0, 17 * 3600.0)
        monday = 4 * DAY_S
        for day in range(7):
            assert s.is_open(monday + day * DAY_S + 10 * 3600.0)
            assert not s.is_open(monday + day * DAY_S + 8 * 3600.0)
        assert not DoorSchedule.always_closed().is_open(monday)

    def test_rejects_bad_windows(self):
        for windows in (((0.0, 0.0),), ((-1.0, 5.0),),
                        ((0.0, WEEK_S + 1.0),), (("a", "b"),), ((1.0,),)):
            with pytest.raises(ValueError):
                DoorSchedule(windows)
        with pytest.raises(ValueError):
            DoorSchedule.from_wire("nope")

    def test_compile_closed_doors(self):
        monday = 4 * DAY_S
        schedules = {1: DoorSchedule.daily(9 * 3600.0, 17 * 3600.0),
                     2: DoorSchedule.always_closed()}
        assert compile_closed_doors(schedules, monday) == {1, 2}
        assert compile_closed_doors(
            schedules, monday + 10 * 3600.0) == {2}

    def test_week_boundary_wrap_edges(self):
        # Open Sunday 22:00 through Monday 02:00 — the window crosses
        # the schedule anchor (Monday 00:00 UTC), so membership is
        # "t >= start or t < end" and every edge matters exactly.
        start = WEEK_S - 2 * 3600.0
        end = 4 * 3600.0
        s = DoorSchedule(((start, end),))
        monday = 4 * DAY_S  # 1970-01-05: week offset 0
        sunday_2200 = monday - 2 * 3600.0
        assert week_offset(sunday_2200) == start
        assert s.is_open(sunday_2200)          # open AT the start edge
        assert not s.is_open(sunday_2200 - 1)  # closed just before it
        assert s.is_open(monday)               # the anchor instant
        assert week_offset(monday) == 0.0
        assert s.is_open(monday + 4 * 3600.0 - 1)  # last open second
        assert not s.is_open(monday + 4 * 3600.0)  # closed AT the end
        # The wrap repeats weekly in both directions.
        assert s.is_open(monday + WEEK_S)
        assert s.is_open(monday - WEEK_S)
        assert s.is_open(sunday_2200 + WEEK_S)
        assert not s.is_open(sunday_2200 - 1 + WEEK_S)

    def test_compile_closed_doors_at_exact_window_edges(self):
        monday = 4 * DAY_S
        plain = DoorSchedule(((3600.0, 7200.0),))           # Mon 01-02
        wrapped = DoorSchedule(((WEEK_S - 3600.0, 3600.0),))  # Sun 23-Mon 01
        schedules = {1: plain, 2: wrapped}
        # At the wrapped window's start edge only door 2 is open.
        assert compile_closed_doors(
            schedules, monday - 3600.0) == {1}
        # At Monday 00:00 (the anchor) still only door 2.
        assert compile_closed_doors(schedules, monday) == {1}
        # At 01:00 the wrapped window ends exactly as the plain one
        # begins: half-open intervals hand over with no overlap gap.
        assert compile_closed_doors(
            schedules, monday + 3600.0) == {2}
        assert compile_closed_doors(
            schedules, monday + 3600.0 - 1) == {1}
        # At the plain window's end edge both are closed.
        assert compile_closed_doors(
            schedules, monday + 7200.0) == {1, 2}


# ----------------------------------------------------------------------
# DynamicStore / DynamicView unit behaviour
# ----------------------------------------------------------------------
class TestDynamicStore:
    def test_versions_accumulate(self):
        store = DynamicStore()
        store.apply("v", [{"op": "close_door", "did": 3}])
        store.apply("v", [{"op": "seal_partition", "pid": 7}])
        view = store.view("v")
        assert view.version == 2 and view.keyword_version == 0
        assert view.overlay == ClosureOverlay(frozenset({3}),
                                              frozenset({7}))
        store.apply("v", [{"op": "open_door", "did": 3},
                          {"op": "unseal_partition", "pid": 7}])
        assert store.view("v").overlay == EMPTY_OVERLAY
        assert store.view("v").version == 3
        assert store.view("other").version == 0

    def test_keyword_ops_bump_keyword_version(self):
        store = DynamicStore()
        store.apply("v", [{"op": "close_door", "did": 1}])
        assert store.view("v").keyword_version == 0
        store.apply("v", [{"op": "set_iword", "pid": 2, "iword": "x"}])
        view = store.view("v")
        assert view.keyword_version == 1 and view.version == 2
        assert view.keyword_ops == (
            {"op": "set_iword", "pid": 2, "iword": "x"},)

    def test_derive_does_not_publish(self):
        store = DynamicStore()
        old, new = store.derive("v", [{"op": "close_door", "did": 1}])
        assert new.version == 1 and store.view("v").version == 0
        store.publish("v", new)
        assert store.view("v") is new

    def test_validate_ops_rejects_garbage(self):
        for ops in ([], "nope", [{"op": "close_door"}],
                    [{"op": "close_door", "did": "3"}],
                    [{"op": "close_door", "did": True}],
                    [{"op": "set_iword", "pid": 1}],
                    [{"op": "set_twords", "iword": "x", "twords": [1]}],
                    [{"op": "set_schedule", "did": 1, "open": [[0, 0]]}],
                    [{"op": "explode"}]):
            with pytest.raises(DeltaError):
                validate_ops(ops)

    def test_effective_overlay_merges_all_sources(self):
        monday = 4 * DAY_S
        view = DynamicView(
            version=1,
            overlay=ClosureOverlay(frozenset({1})),
            schedules=((2, DoorSchedule.always_closed()),
                       (3, DoorSchedule.daily(9 * 3600.0, 17 * 3600.0))))
        # No timestamp: schedules do not participate.
        assert view.effective_overlay() == ClosureOverlay(frozenset({1}))
        # Monday 00:00: door 2 always closed, door 3 outside hours.
        assert view.effective_overlay(at=monday).closed_doors == {1, 2, 3}
        # Monday 10:00 plus a per-query extra closure.
        merged = view.effective_overlay(
            at=monday + 10 * 3600.0,
            extra=ClosureOverlay(frozenset({9})))
        assert merged.closed_doors == {1, 2, 9}

    def test_schedule_ops_round_trip(self):
        store = DynamicStore()
        store.apply("v", [{"op": "set_schedule", "did": 4,
                           "open": [[0.0, 3600.0]]}])
        assert store.view("v").schedule_map() == {
            4: DoorSchedule(((0.0, 3600.0),))}
        store.apply("v", [{"op": "clear_schedule", "did": 4}])
        assert store.view("v").schedules == ()


# ----------------------------------------------------------------------
# apply_keyword_ops
# ----------------------------------------------------------------------
class TestKeywordOps:
    def test_edits_derive_a_fresh_index(self, fig1):
        kindex = fig1.kindex
        pid = sorted(kindex.labelled_partitions())[0]
        out = apply_keyword_ops(kindex, [
            {"op": "set_iword", "pid": pid, "iword": "rebranded"},
            {"op": "add_twords", "iword": "rebranded",
             "twords": ["fresh", "new"]},
        ])
        assert out.p2i(pid) == "rebranded"
        assert {"fresh", "new"} <= set(out.i2t("rebranded"))
        # The source index is untouched (immutability of generations).
        assert kindex.p2i(pid) != "rebranded"

    def test_clear_and_set_twords(self, fig1):
        kindex = fig1.kindex
        pid = sorted(kindex.labelled_partitions())[0]
        iword = kindex.p2i(pid)
        out = apply_keyword_ops(kindex, [
            {"op": "clear_iword", "pid": pid},
            {"op": "set_twords", "iword": iword, "twords": ["only"]},
        ])
        assert pid not in out.labelled_partitions()
        assert set(out.i2t(iword)) == {"only"}


# ----------------------------------------------------------------------
# Headline fuzz: closure identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(12))
def test_fuzz_closure_identity(seed):
    """Random closures on random venues: overlay == rebuilt, all algos.

    Reproduce one failing seed with::

        PYTHONPATH=src python -m pytest \
            "tests/test_dynamic.py::test_fuzz_closure_identity[SEED]"
    """
    space, kindex, ps, pt = random_small_space(seed, n_rooms=4 + seed % 3)
    engine = IKRQEngine(space, kindex)
    rng = random.Random(2000 + seed)
    for round_no in range(3):
        overlay = random_overlay(rng, space)
        repro = (f"random_small_space({seed}, n_rooms={4 + seed % 3}), "
                 f"rng seed {2000 + seed}, round {round_no}")
        rebuilt = IKRQEngine(apply_closures(space, overlay), kindex)
        queries = random_queries(rng, space, kindex, ps, pt)
        assert_identical(engine, rebuilt, queries, overlay, repro)
        # The wire dict form must behave exactly like the object.
        q = queries[0]
        assert wire(engine.search(q, "ToE", overlay=overlay.to_wire())) \
            == wire(rebuilt.search(q, "ToE"))


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_schedule_identity(seed):
    """Random weekly schedules compiled at random timestamps reduce to
    the closure case: answers equal the rebuilt edited venue.

    Reproduce with::

        PYTHONPATH=src python -m pytest \
            "tests/test_dynamic.py::test_fuzz_schedule_identity[SEED]"
    """
    space, kindex, ps, pt = random_small_space(seed)
    engine = IKRQEngine(space, kindex)
    rng = random.Random(3000 + seed)
    doors = sorted(space.doors)
    schedules = {}
    for did in rng.sample(doors, k=min(3, len(doors))):
        if rng.random() < 0.25:
            schedules[did] = DoorSchedule.always_closed()
        elif rng.random() < 0.5:
            start = rng.uniform(0.0, DAY_S - 2.0)
            schedules[did] = DoorSchedule.daily(
                start, rng.uniform(start + 1.0, DAY_S))
        else:
            start = rng.uniform(0.0, WEEK_S - 1.0)
            end = rng.uniform(0.0, WEEK_S)  # may wrap
            if end == start:
                end = start + 1.0
            schedules[did] = DoorSchedule(((start, end),))
    for round_no in range(4):
        at = rng.uniform(0.0, 4.0 * WEEK_S)
        closed = compile_closed_doors(schedules, at)
        view = DynamicView(version=1,
                           schedules=tuple(sorted(schedules.items())))
        overlay = view.effective_overlay(at=at)
        assert overlay.closed_doors == closed
        repro = (f"random_small_space({seed}), rng seed {3000 + seed}, "
                 f"round {round_no}, at={at!r}")
        if not overlay:
            assert wire(engine.search(
                IKRQ(ps=ps, pt=pt, delta=80.0,
                     keywords=(sorted(kindex.iwords)[0],), k=1),
                "ToE", overlay=overlay)) is not None
            continue
        rebuilt = IKRQEngine(apply_closures(space, overlay), kindex)
        queries = random_queries(rng, space, kindex, ps, pt, n=2)
        assert_identical(engine, rebuilt, queries, overlay, repro,
                         algorithms=("ToE", "KoE*"))


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_delta_identity(seed):
    """Random delta sequences (door flips + keyword edits) through a
    DynamicStore: the overlaid keyword-sibling engine equals a
    from-scratch engine on the edited venue and edited index.

    Reproduce with::

        PYTHONPATH=src python -m pytest \
            "tests/test_dynamic.py::test_fuzz_delta_identity[SEED]"
    """
    space, kindex, ps, pt = random_small_space(seed)
    engine = IKRQEngine(space, kindex)
    rng = random.Random(4000 + seed)
    doors = sorted(space.doors)
    labelled = sorted(kindex.labelled_partitions())
    store = DynamicStore()
    for round_no in range(2):
        ops = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            if kind < 0.35:
                ops.append({"op": rng.choice(("close_door", "open_door")),
                            "did": rng.choice(doors)})
            elif kind < 0.5:
                ops.append({"op": rng.choice(("seal_partition",
                                              "unseal_partition")),
                            "pid": rng.choice(sorted(space.partitions))})
            elif kind < 0.75:
                ops.append({"op": "set_iword",
                            "pid": rng.choice(labelled),
                            "iword": rng.choice(("fuzzbrand", "coffee",
                                                 "rebrand"))})
            else:
                ops.append({"op": "add_twords",
                            "iword": rng.choice(sorted(kindex.iwords)),
                            "twords": rng.sample(
                                ("tea", "cake", "zing"), k=2)})
        store.apply("v", ops)
        view = store.view("v")
        repro = (f"random_small_space({seed}), rng seed {4000 + seed}, "
                 f"round {round_no}, ops={ops!r}")
        kindex2 = apply_keyword_ops(kindex, view.keyword_ops)
        live = engine.keyword_sibling(kindex2)
        rebuilt = IKRQEngine(apply_closures(space, view.overlay), kindex2)
        overlay = view.overlay if view.overlay else None
        for query in random_queries(rng, space, kindex2, ps, pt, n=2):
            for algorithm in ("ToE", "KoE", "naive"):
                expected = rebuilt.search(query, algorithm)
                got = live.search(query, algorithm, overlay=overlay)
                assert wire(got) == wire(expected), (
                    f"delta answer diverged: {algorithm} {query}; {repro}")


# ----------------------------------------------------------------------
# Kernel + snapshot coverage (C ctypes over mmap memoryviews)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["native", "python"])
@pytest.mark.parametrize("mapped", [False, True], ids=["eager", "mmap"])
def test_overlay_identity_on_snapshot_loaded_engines(backend, mapped,
                                                     tmp_path):
    """Closures over snapshot-loaded engines — the C Dijkstra attached
    (reading read-only ``mmap`` memoryview buffers) or detached —
    match the interpreted rebuilt venue byte for byte."""
    from repro.serve.snapshot import load_snapshot, save_snapshot
    space, kindex, ps, pt = random_small_space(2, n_rooms=6)
    plain = IKRQEngine(space, kindex)
    plain.graph.set_kernel(None)
    path = tmp_path / "venue.snap.bin"
    save_snapshot(path, plain, binary=True)
    loaded = load_snapshot(path, mmap=mapped)
    loaded.graph.set_kernel(c_sssp() if backend == "native" else None)
    assert loaded.kernel_backend == backend
    if mapped:
        assert loaded.mapped_bytes > 0
    rng = random.Random(97)
    for _ in range(3):
        overlay = random_overlay(rng, space)
        rebuilt = IKRQEngine(apply_closures(space, overlay), kindex)
        rebuilt.graph.set_kernel(None)
        for query in random_queries(rng, space, kindex, ps, pt, n=2):
            for algorithm in ("ToE", "KoE", "KoE*"):
                got = loaded.search(query, algorithm, overlay=overlay)
                assert wire(got) == wire(rebuilt.search(query, algorithm))
    # Raw banned-set runs over the loaded (possibly mmap) buffers.
    doors = sorted(space.doors)
    for _ in range(8):
        source = rng.choice(doors)
        banned = frozenset(rng.sample(doors, k=2)) - {source}
        bp = frozenset(rng.sample(sorted(space.partitions), k=1))
        assert (loaded.graph.dijkstra(source, banned=banned,
                                      banned_partitions=bp)
                == plain.graph.dijkstra(source, banned=banned,
                                        banned_partitions=bp))


# ----------------------------------------------------------------------
# Cache-poisoning regressions (overlay-aware cache keys)
# ----------------------------------------------------------------------
class TestCacheIsolation:
    def test_closure_never_served_from_warm_caches(self):
        """Warm every cache tier without an overlay, then ask the same
        query under a closure: the answer must match a cold rebuilt
        engine, and the original answer must survive the interleaving."""
        space, kindex, ps, pt = random_small_space(5)
        engine = IKRQEngine(space, kindex)
        service = QueryService(engine)
        query = IKRQ(ps=ps, pt=pt, delta=90.0,
                     keywords=(sorted(kindex.iwords)[0],), k=2)
        baseline = {algo: wire(service.search(query, algo))
                    for algo in ("ToE", "KoE*")}
        # Close a door actually used by the baseline best route, if any.
        answer = engine.search(query, "ToE")
        route_doors = (answer.routes[0].route.doors
                       if answer.routes else ())
        closed = route_doors[0] if route_doors else sorted(space.doors)[0]
        overlay = ClosureOverlay(frozenset({closed}))
        rebuilt = IKRQEngine(apply_closures(space, overlay), kindex)
        for algo in ("ToE", "KoE*"):
            got = service.search(query, algo, overlay=overlay)
            assert wire(got) == wire(rebuilt.search(query, algo)), (
                f"{algo}: closure answered from a pre-closure cache")
            # Interleaved plain traffic still sees the open venue.
            assert wire(service.search(query, algo)) == baseline[algo]

    def test_overlay_matrix_rows_are_banned_scoped(self):
        space, kindex, _, _ = random_small_space(3)
        engine = IKRQEngine(space, kindex)
        base = engine.door_matrix()
        did = sorted(space.doors)[0]
        overlay = ClosureOverlay(frozenset({did}))
        scoped = engine._overlay_matrix(engine.overlay_state(overlay))
        rebuilt = IKRQEngine(apply_closures(space, overlay),
                             kindex).door_matrix()
        fresh = IKRQEngine(space, kindex).door_matrix()
        doors = sorted(space.doors)
        live = [d for d in doors if d != did]
        for s in live:
            for t in live:
                assert scoped.distance(s, t) == rebuilt.distance(s, t)
            # The closed door is unreachable from every live door
            # (only its self-distance convention differs, and a closed
            # door can never appear as a route door).
            assert scoped.distance(s, did) == float("inf")
            assert rebuilt.distance(s, did) == float("inf")
        for s in doors:
            for t in doors:
                # The base matrix was not poisoned by overlay rows.
                assert base.distance(s, t) == fresh.distance(s, t)

    def test_overlay_matrix_refuses_to_spill(self, tmp_path):
        """Spill files are keyed by row index only — banned-scoped
        rows must never reach one."""
        from repro.space.graph import DoorMatrix
        space, kindex, _, _ = random_small_space(3)
        engine = IKRQEngine(space, kindex)
        with pytest.raises(ValueError, match="spill"):
            DoorMatrix(engine.graph,
                       spill_path=str(tmp_path / "rows.cache"),
                       banned=frozenset({sorted(space.doors)[0]}))

    def test_endpoint_entries_are_overlay_keyed(self):
        space, kindex, ps, pt = random_small_space(4)
        engine = IKRQEngine(space, kindex)
        service = QueryService(engine)
        overlay = ClosureOverlay(frozenset({sorted(space.doors)[0]}))
        plain_entry = service._endpoint_entry(ps, pt)
        overlaid_entry = service._endpoint_entry(ps, pt, overlay)
        assert plain_entry is not overlaid_entry
        assert service._endpoint_entry(ps, pt) is plain_entry
        assert service._endpoint_entry(ps, pt, overlay) is overlaid_entry

    def test_overlay_state_lru_bounded(self):
        space, kindex, _, _ = random_small_space(6)
        engine = IKRQEngine(space, kindex)
        engine.overlay_cache_capacity = 2
        doors = sorted(space.doors)
        states = [engine.overlay_state(ClosureOverlay(frozenset({did})))
                  for did in doors[:4]]
        assert len(engine._overlay_states) <= 2
        # Re-requesting an evicted overlay builds an equivalent state.
        again = engine.overlay_state(ClosureOverlay(frozenset({doors[0]})))
        assert sorted(again.view.doors) == sorted(space.doors)


# ----------------------------------------------------------------------
# Serve layer: atomic deltas under concurrent traffic
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serve_snapshot(tmp_path_factory):
    from repro.datasets import paper_fig1
    from repro.serve import save_snapshot
    fixture = paper_fig1()
    engine = IKRQEngine(fixture.space, fixture.kindex)
    path = tmp_path_factory.mktemp("dynamic") / "fig1.snapshot.json"
    save_snapshot(path, engine)
    return str(path), fixture


@pytest.mark.slow
class TestServeDeltas:
    def test_delta_is_atomic_under_concurrent_search(self, serve_snapshot):
        """Hammer ``submit`` from threads while door and keyword deltas
        flip underneath: every answer must match the rebuilt venue of
        exactly the dynamic version it is stamped with — no torn
        reads, no stale keyword variants, no non-shed failures."""
        from repro.serve import ShardDispatcher, ShardPool
        from repro.serve.wire import query_to_wire
        path, fixture = serve_snapshot
        space, kindex = fixture.space, fixture.kindex
        query = IKRQ(ps=fixture.ps, pt=fixture.pt, delta=60.0,
                     keywords=("latte", "apple"), k=3)
        wire_query = query_to_wire(query)
        base_engine = IKRQEngine(space, kindex)
        route_doors = base_engine.search(query, "ToE").routes[0].route.doors
        d1, d2 = route_doors[0], sorted(space.doors)[-1]
        labelled = sorted(kindex.labelled_partitions())[0]
        # The exact delta sequence the writer thread will apply, and
        # the expected answer per resulting dynamic version.
        deltas = [
            [{"op": "close_door", "did": d1}],
            [{"op": "close_door", "did": d2}],
            [{"op": "set_iword", "pid": labelled, "iword": "latte"}],
            [{"op": "open_door", "did": d1}],
        ]
        store = DynamicStore()
        expected = {}
        view = store.view("default")
        for version, ops in enumerate([None] + deltas):
            if ops is not None:
                _, view = store.apply("default", ops)
            kindex_v = apply_keyword_ops(kindex, view.keyword_ops)
            rebuilt = IKRQEngine(apply_closures(space, view.overlay),
                                 kindex_v)
            answer = rebuilt.search(query, "ToE")
            expected[version] = canonical_json(
                {"algorithm": answer.algorithm,
                 "routes": answer_to_wire(answer)["routes"]})
        assert len(set(expected.values())) >= 3  # the deltas do bite
        failures = []
        responses = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                responses.append(dispatcher.submit(dict(wire_query)))

        with ShardPool(path, shards=2) as pool:
            dispatcher = ShardDispatcher(pool, max_pending=64)
            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            try:
                import time
                for ops in deltas:
                    time.sleep(0.05)
                    applied = dispatcher.delta("default", ops)
                    assert applied["status"] == "ok", applied
                time.sleep(0.05)
            finally:
                stop.set()
                for t in threads:
                    t.join(timeout=30)
        assert len(responses) > 20
        for response in responses:
            status = response.get("status")
            if status == "overloaded":
                continue  # an honest shed, not a failure
            if status != "ok":
                failures.append(response)
                continue
            version = response.get("dynamic_version")
            got = canonical_json({"algorithm": response["algorithm"],
                                  "routes": response["routes"]})
            assert got == expected[version], (
                f"answer stamped dynamic_version={version} does not "
                f"match that version's rebuilt venue")
        assert not failures, failures
        assert {r.get("dynamic_version") for r in responses
                if r.get("status") == "ok"} >= {0, len(deltas)}

    def test_delta_swaps_without_reingest(self, serve_snapshot):
        from repro.serve import ShardDispatcher, ShardPool
        from repro.serve.wire import query_to_wire
        path, fixture = serve_snapshot
        query = query_to_wire(IKRQ(ps=fixture.ps, pt=fixture.pt,
                                   delta=60.0, keywords=("coffee",), k=2))
        with ShardPool(path, shards=1) as pool:
            dispatcher = ShardDispatcher(pool, max_pending=8)
            before = dispatcher.submit(dict(query))
            assert before["status"] == "ok" and before["generation"] == 1
            did = sorted(fixture.space.doors)[0]
            applied = dispatcher.delta(
                "default", [{"op": "close_door", "did": did}])
            assert applied["status"] == "ok" and applied["version"] == 1
            after = dispatcher.submit(dict(query))
            # Same snapshot generation — the delta was an overlay, not
            # an ingest.
            assert after["generation"] == 1
            assert after["dynamic_version"] == 1
            assert (dispatcher.registry.active_generation("default") == 1)

    def test_delta_rejects_unknown_ids_and_venues(self, serve_snapshot):
        from repro.serve import ShardDispatcher, ShardPool
        path, _ = serve_snapshot
        with ShardPool(path, shards=1) as pool:
            dispatcher = ShardDispatcher(pool, max_pending=8)
            bad = dispatcher.delta("default",
                                   [{"op": "close_door", "did": 424242}])
            assert bad["status"] == "bad_request"
            assert "424242" in bad["error"]
            # The failed delta must not have advanced the version.
            assert dispatcher.dynamic.view("default").version == 0
            assert dispatcher.delta(
                "nope", [{"op": "close_door", "did": 1}]
            )["status"] == "unknown_venue"
            assert dispatcher.delta("default", "garbage")["status"] \
                == "bad_request"

    def test_ingest_after_delta_replays_keyword_ops(self, serve_snapshot):
        """A generation loaded after a keyword delta must serve the
        edited index: the pool's delta manifest replays into newly
        loaded engines."""
        from repro.serve import ShardDispatcher, ShardPool
        from repro.serve.wire import query_to_wire
        path, fixture = serve_snapshot
        space, kindex = fixture.space, fixture.kindex
        query = IKRQ(ps=fixture.ps, pt=fixture.pt, delta=60.0,
                     keywords=("latte",), k=2)
        labelled = sorted(kindex.labelled_partitions())[0]
        kw_ops = [{"op": "set_iword", "pid": labelled, "iword": "latte"}]
        rebuilt = IKRQEngine(space, apply_keyword_ops(kindex, kw_ops))
        expected = rebuilt.search(query, "ToE")
        with ShardPool(path, shards=1) as pool:
            dispatcher = ShardDispatcher(pool, max_pending=8)
            applied = dispatcher.delta("default", kw_ops)
            assert applied["status"] == "ok" and applied["keyword_broadcast"]
            swap = dispatcher.ingest("default", path)
            assert swap["status"] == "ok" and swap["generation"] == 2
            served = dispatcher.submit(query_to_wire(query))
            assert served["status"] == "ok"
            assert served["generation"] == 2
            got = canonical_json({"algorithm": served["algorithm"],
                                  "routes": served["routes"]})
            assert got == canonical_json(
                {"algorithm": expected.algorithm,
                 "routes": answer_to_wire(expected)["routes"]})

    def test_per_query_closures_and_at(self, serve_snapshot):
        from repro.serve import ShardDispatcher, ShardPool
        from repro.serve.wire import query_to_wire
        path, fixture = serve_snapshot
        space, kindex = fixture.space, fixture.kindex
        query = IKRQ(ps=fixture.ps, pt=fixture.pt, delta=60.0,
                     keywords=("coffee",), k=2)
        wire_query = query_to_wire(query)
        base_engine = IKRQEngine(space, kindex)
        did = base_engine.search(query, "ToE").routes[0].route.doors[0]
        overlay = ClosureOverlay(frozenset({did}))
        rebuilt = IKRQEngine(apply_closures(space, overlay), kindex)
        expected_closed = canonical_json(
            {"algorithm": "ToE",
             "routes": answer_to_wire(rebuilt.search(query, "ToE"))["routes"]})
        with ShardPool(path, shards=1) as pool:
            dispatcher = ShardDispatcher(pool, max_pending=8)
            # Per-query closure.
            got = dispatcher.submit(dict(wire_query),
                                    closures=overlay.to_wire())
            assert got["status"] == "ok"
            assert canonical_json({"algorithm": got["algorithm"],
                                   "routes": got["routes"]}) \
                == expected_closed
            # Schedule + timestamp: closed at Monday 03:00, open at 12:00.
            applied = dispatcher.delta(
                "default",
                [{"op": "set_schedule", "did": did,
                  "open": [[9 * 3600.0, 17 * 3600.0]]}])
            assert applied["status"] == "ok"
            monday = 4 * DAY_S
            closed = dispatcher.submit(dict(wire_query),
                                       at=monday + 3 * 3600.0)
            assert canonical_json({"algorithm": closed["algorithm"],
                                   "routes": closed["routes"]}) \
                == expected_closed
            open_ = dispatcher.submit(dict(wire_query),
                                      at=monday + 12 * 3600.0)
            base = base_engine.search(query, "ToE")
            assert canonical_json({"algorithm": open_["algorithm"],
                                   "routes": open_["routes"]}) \
                == canonical_json({"algorithm": base.algorithm,
                                   "routes": answer_to_wire(base)["routes"]})
            # Garbage closures are rejected before dispatch.
            bad = dispatcher.submit(dict(wire_query),
                                    closures={"closed_doors": "x"})
            assert bad["status"] == "bad_request"
