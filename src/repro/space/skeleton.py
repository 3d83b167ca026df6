"""Skeleton lower-bound indoor distances (Xie et al., ICDE 2013).

The pruning rules of the paper need a cheap *lower bound* ``|xi, xj|L``
on the true indoor walking distance between two items:

* same floor — the straight-line Euclidean distance,
* different floors — any path must thread through staircase doors, so
  the bound is the minimum over pairs of staircase doors ``(sdi, sdj)``
  of ``|xi, sdi|E + δs2s(sdi, sdj) + |sdj, xj|E``, where ``δs2s`` is
  the skeleton distance between staircase doors.

``δs2s`` is precomputed once per space by running all-pairs shortest
paths over the (small) staircase-door graph whose edge weights are
Euclidean distances — themselves lower bounds of real walks — so the
composite value never exceeds the true indoor distance.

The all-pairs table is stored as one flat ``array('d')`` of ``n * n``
doubles (row-major) rather than a list of lists, and the staircase
door coordinates are hoisted into parallel flat coordinate arrays, so
the double loop of :meth:`SkeletonIndex.lower_bound` — which runs
under Pruning Rules 1–4 on every expansion — indexes typed buffers
instead of chasing nested Python objects.  The arithmetic matches
:meth:`~repro.geometry.Point.distance_to` operation for operation, so
bounds are bit-identical to the nested-list implementation.
"""

from __future__ import annotations

import heapq
import math
from array import array
from typing import Dict, List, Tuple, Union

from repro.geometry import Point
from repro.geometry.point import FLOOR_HEIGHT
from repro.space.indoor_space import IndoorSpace

INF = math.inf

#: A skeleton query item: a door id or a free point.
Item = Union[int, Point]

#: A precomputed attachment over the staircase doors of the item's
#: floor: ``(position, floor, level, [(row, head), ...],
#: [(row * n, head), ...], address, packed)``.  Floor and level ride
#: along so the same-floor check costs tuple loads instead of property
#: calls; the second pair list carries the premultiplied δs2s row base
#: for the outer loop of :meth:`SkeletonIndex.lower_bound_heads`.
#: ``packed`` is the buffer the C bound reads: the pairs' stair rows,
#: then their heads as raw doubles, in the same head-ascending order;
#: ``address`` is its base address.
Attachment = Tuple[Point, int, float,
                   List[Tuple[int, float]], List[Tuple[int, float]],
                   int, array]

_sqrt = math.sqrt


def _levels_touch(level_a: float, level_b: float) -> bool:
    """Whether two levels are close enough for plain Euclid to bound.

    A stair door at level ``f + 0.5`` touches both floor ``f`` and
    floor ``f + 1``.  Single source of the 0.5 invariant — the flat
    fast paths, the item entry point and the dict reference core all
    route through it.
    """
    return abs(level_a - level_b) <= 0.5


class SkeletonIndex:
    """Lower-bound distance oracle over an :class:`IndoorSpace`.

    The index is tiny (staircase doors only) and query time is
    ``O(|SD(floor_a)| * |SD(floor_b)|)``, typically a few dozen
    multiply-adds.
    """

    #: Process-wide count of δs2s all-pairs constructions; snapshot
    #: loads bypass the build and must leave this untouched.
    s2s_builds = 0

    #: Whether callers may use the precomputed-attachment fast path
    #: (:meth:`heads` / :meth:`lower_bound_heads`).  The dict-based
    #: reference index switches this off so the retained legacy code
    #: path stays measurable.
    supports_heads = True

    def __init__(self, space: IndoorSpace) -> None:
        self._space = space
        self._stair_doors: List[int] = sorted(
            did for did, door in space.doors.items() if door.is_staircase_door)
        self._finish_init()
        self._build_s2s()

    def _finish_init(self) -> None:
        """Derived flat state shared by every constructor."""
        space = self._space
        self._index: Dict[int, int] = {
            did: i for i, did in enumerate(self._stair_doors)}
        self._positions: List[Point] = [
            space.door(did).position for did in self._stair_doors]
        # Parallel coordinate buffers of the staircase doors; ``_pz``
        # pre-applies the floor height exactly as ``Point.z`` does.
        self._px = array("d", (p.x for p in self._positions))
        self._py = array("d", (p.y for p in self._positions))
        self._pz = array("d", (p.level * FLOOR_HEIGHT
                               for p in self._positions))
        self._floor_rows: Dict[int, List[int]] = {}
        # Lazily filled per-door attachment table: door id ->
        # (position, [(stair row, |door, sd|E), ...] for its floor).
        # Pure in the space, so one table serves every query; door
        # items then enter the lower-bound double loop with *no*
        # per-call sqrt at all.
        self._door_heads: Dict[int, "Attachment"] = {}
        # The C lower bound (see :meth:`set_kernel`), or ``None`` for
        # the interpreted double loop.
        self._bounds = None

    @classmethod
    def from_precomputed(cls,
                         space: IndoorSpace,
                         stair_doors: List[int],
                         s2s: List[List[float]]) -> "SkeletonIndex":
        """Rebuild an index from exported ``(stair_doors, s2s)`` data.

        Mirrors :meth:`DoorGraph.from_csr`: no all-pairs computation
        runs, so snapshot-loaded workers skip the build entirely.
        """
        flat = array("d", (INF if v is None else v
                           for row in s2s for v in row))
        return cls.from_precomputed_flat(space, stair_doors, flat)

    @classmethod
    def from_precomputed_flat(cls,
                              space: IndoorSpace,
                              stair_doors: List[int],
                              s2s_flat: array) -> "SkeletonIndex":
        """Adopt a flat row-major δs2s buffer (binary snapshot v2).

        ``s2s_flat`` must hold ``len(stair_doors) ** 2`` doubles; no
        conversion or all-pairs computation runs.  Typed buffers
        (``array`` objects, or read-only ``memoryview`` slices of an
        ``mmap``-ed snapshot payload) are adopted without copying —
        the index never mutates its table.  (The boxed-float hot
        mirror ``_s2s_hot`` is still built per process: it is a list
        of Python objects, inherently heap state — and tiny, since the
        table only spans staircase doors.)
        """
        n = len(stair_doors)
        if len(s2s_flat) != n * n:
            raise ValueError(
                f"flat s2s table must hold {n * n} entries, "
                f"got {len(s2s_flat)}")
        index = cls.__new__(cls)
        index._space = space
        index._stair_doors = list(stair_doors)
        index._finish_init()
        index._set_s2s(s2s_flat if isinstance(s2s_flat, (array, memoryview))
                       else array("d", s2s_flat))
        return index

    def _set_s2s(self, s2s: array) -> None:
        self._s2s = s2s
        # List mirror for the interpreted loop, built on its first
        # use: list indexing hands out the already-boxed floats, where
        # ``array('d')`` would box a fresh float object per access.
        # The array remains the canonical (exported, snapshot-packed)
        # representation, and the only one the C bound reads.
        self._s2s_hot = None

    def set_kernel(self, bounds) -> None:
        """Attach the C lower bound, or detach it with ``None``.

        ``bounds`` is :func:`repro.space.kernels.native_bounds`'s
        factory; engines attach it when the kernel library builds.
        It reads the δs2s table in place.  Both loops are
        bit-identical, so attaching or detaching never changes a bound.
        """
        self._bounds = (None if bounds is None
                        else bounds(self._s2s, len(self._stair_doors)))

    @property
    def kernel_name(self) -> str:
        """``native`` with the C lower bound attached, else ``python``."""
        return "python" if self._bounds is None else "native"

    def export(self) -> Dict[str, list]:
        """JSON-serialisable ``(stair_doors, s2s)`` snapshot payload.

        Unreachable pairs (``inf``) are encoded as ``None`` — JSON has
        no infinity.  (The binary snapshot v2 packs
        :meth:`export_flat` instead, where ``inf`` survives natively.)
        """
        n = len(self._stair_doors)
        s2s = self._s2s
        return {
            "stair_doors": list(self._stair_doors),
            "s2s": [[None if s2s[i * n + j] == INF else s2s[i * n + j]
                     for j in range(n)]
                    for i in range(n)],
        }

    def export_flat(self) -> Tuple[List[int], array]:
        """``(stair_doors, flat row-major δs2s buffer)`` for snapshot v2."""
        return list(self._stair_doors), self._s2s

    @property
    def staircase_doors(self) -> List[int]:
        return list(self._stair_doors)

    def _build_s2s(self) -> None:
        """All-pairs skeleton distances between staircase doors.

        Staircase doors are connected to each other by straight-line
        segments whenever they serve overlapping floors (one can walk
        from one to the other without passing a third floor level in
        between); Dijkstra over that graph gives the skeleton metric.
        """
        SkeletonIndex.s2s_builds += 1
        n = len(self._stair_doors)
        positions = self._positions
        adj: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if abs(positions[i].level - positions[j].level) <= 1.0:
                    w = positions[i].distance_to(positions[j])
                    adj[i].append((j, w))
                    adj[j].append((i, w))
        s2s = array("d", [INF]) * (n * n)
        for src in range(n):
            base = src * n
            s2s[base + src] = 0.0
            heap: List[Tuple[float, int]] = [(0.0, src)]
            visited = [False] * n
            while heap:
                d, u = heapq.heappop(heap)
                if visited[u]:
                    continue
                visited[u] = True
                for v, w in adj[u]:
                    nd = d + w
                    if nd < s2s[base + v]:
                        s2s[base + v] = nd
                        heapq.heappush(heap, (nd, v))
        self._set_s2s(s2s)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _position(self, x: Item) -> Point:
        if isinstance(x, int):
            return self._space.door(x).position
        return x

    def _stair_doors_for_floor(self, floor: int) -> List[int]:
        rows = self._floor_rows.get(floor)
        if rows is None:
            rows = [self._index[did]
                    for did in self._space.staircase_doors_on_floor(floor)]
            self._floor_rows[floor] = rows
        return rows

    def _heads(self, x: Item) -> Attachment:
        """``(position, [(stair row, |x, sd|E), ...])`` of an item.

        For doors the attachment is cached on the index (pure in the
        space); free points compute theirs (two per query: ``ps`` /
        ``pt``) on the fly.  The distances use the exact arithmetic of
        :meth:`~repro.geometry.Point.distance_to`, so cached heads
        change no bound by even an ulp.
        """
        if isinstance(x, int):
            cached = self._door_heads.get(x)
            if cached is not None:
                return cached
            pos = self._space.door(x).position
        else:
            pos = x
        rows = self._stair_doors_for_floor(pos.floor)
        px = self._px
        py = self._py
        pz = self._pz
        ax = pos.x
        ay = pos.y
        az = pos.level * FLOOR_HEIGHT
        pairs: List[Tuple[int, float]] = []
        for ia in rows:
            dx = ax - px[ia]
            dy = ay - py[ia]
            dz = az - pz[ia]
            pairs.append((ia, _sqrt(dx * dx + dy * dy + dz * dz)))
        # Ascending by head distance: once a head reaches the best
        # bound, every later pair is dominated (δs2s and tails are
        # non-negative) and the outer loop may stop — an exact
        # short-circuit, not an approximation.
        pairs.sort(key=lambda pair: pair[1])
        n = len(self._stair_doors)
        based = [(ia * n, head) for ia, head in pairs]
        packed = array("q", [ia for ia, _ in pairs])
        packed.frombytes(array("d", [head for _, head in pairs]).tobytes())
        attachment = (pos, pos.floor, pos.level, pairs, based,
                      packed.buffer_info()[0], packed)
        if isinstance(x, int):
            self._door_heads[x] = attachment
        return attachment

    def heads(self, x: Item) -> Attachment:
        """Public access to the attachment of an item.

        Query contexts hold the attachments of their fixed endpoints
        (``ps`` / ``pt``) and call :meth:`lower_bound_heads` directly,
        so the per-call attachment cost disappears from the pruning
        hot path entirely.
        """
        return self._heads(x)

    def lower_bound(self, xi: Item, xj: Item) -> float:
        """The skeleton lower-bound distance ``|xi, xj|L``."""
        a = self._position(xi)
        b = self._position(xj)
        # Same floor (or a touching stair door): plain Euclid, no
        # attachment arrays needed.
        if a.floor == b.floor or _levels_touch(a.level, b.level):
            return a.distance_to(b)
        return self.lower_bound_heads(self._heads(xi), self._heads(xj))

    def lower_bound_heads(self, ha: Attachment, hb: Attachment) -> float:
        """``|a, b|L`` from two precomputed attachments."""
        a, floor_a, level_a, _, based_a, addr_a, _ = ha
        b, floor_b, level_b, pairs_b, _, addr_b, _ = hb
        if floor_a == floor_b or _levels_touch(level_a, level_b):
            return a.distance_to(b)
        if not based_a or not pairs_b:
            return INF
        bounds = self._bounds
        if bounds is not None:
            return bounds.one(bounds.addr, bounds.n, addr_a, len(based_a),
                              addr_b, len(pairs_b))
        s2s = self._s2s_hot
        if s2s is None:
            s2s = self._s2s_hot = list(self._s2s)
        best = INF
        for base, head in based_a:
            if head >= best:
                break  # pairs are head-ascending; the rest is dominated
            for ib, tail in pairs_b:
                total = head + s2s[base + ib] + tail
                if total < best:
                    best = total
        return best

    def fill_lower_bounds(self, fixed: Attachment, fixed_is_a: bool,
                          doors, out: dict) -> None:
        """Store the bound between ``fixed`` and each door in ``out``.

        ``out[d]`` becomes ``lower_bound_heads(fixed, heads(d))`` with
        ``fixed_is_a``, else ``lower_bound_heads(heads(d), fixed)`` —
        the same value, computed the same way: same-floor doors take
        the Euclidean distance here, and one call of the C bound
        covers every cross-floor door.  Without the kernel attached
        each door takes :meth:`lower_bound_heads`.
        """
        heads = self._heads
        bounds = self._bounds
        if bounds is None:
            lbh = self.lower_bound_heads
            for door in doors:
                out[door] = (lbh(fixed, heads(door)) if fixed_is_a
                             else lbh(heads(door), fixed))
            return
        pos, floor, level, pairs, _, addr, _ = fixed
        batch = []
        items = array("q")
        for door in doors:
            h = heads(door)
            if h[1] == floor or _levels_touch(level, h[2]):
                out[door] = (pos.distance_to(h[0]) if fixed_is_a
                             else h[0].distance_to(pos))
                continue
            batch.append(door)
            items.append(h[5])
            items.append(len(h[3]))
        if batch:
            values = bounds.bounds(addr, len(pairs), fixed_is_a, items)
            for door, value in zip(batch, values):
                out[door] = value

    @staticmethod
    def _touching_levels(a: Point, b: Point) -> bool:
        """Whether one item is a stair door adjacent to the other's floor.

        Plain Euclidean distance is already a valid lower bound in
        that case; see :func:`_levels_touch`.
        """
        return _levels_touch(a.level, b.level)

    def lower_bound_via_partition(self,
                                  xs: Item,
                                  pid: int,
                                  xt: Item) -> float:
        """Pruning Rule 3's ``δLB(xs, vi, xt)``.

        The minimum over enterable doors ``di`` and leaveable doors
        ``dj`` of partition ``pid`` of ``|xs, di|L + δd2d(di, dj) +
        |dj, xt|L``; the middle term is the intra-partition Euclidean
        distance (zero when ``di == dj``).
        """
        return self.lower_bound_via_partition_heads(
            self._heads(xs), pid, self._heads(xt))

    def lower_bound_via_partition_heads(
            self,
            hs: Attachment,
            pid: int,
            ht: Attachment,
            space=None) -> float:
        """Pruning Rule 3 from precomputed endpoint triples.

        The endpoint attachment arrays are computed once per query;
        only the (cached) door triples of the candidate partition vary
        inside the loop.

        ``space`` overrides the topology the ``p2d`` sets are read
        from — queries under a closure overlay pass their edited view
        so the bound only considers doors that are actually open.  The
        head attachments and the δs2s skeleton itself are pure
        geometry over door positions (closures keep every door), so
        the same index serves every overlay.
        """
        if space is None:
            space = self._space
        heads = self._heads
        lbh = self.lower_bound_heads
        best = INF
        for di in space.p2d_enter(pid):
            head = lbh(hs, heads(di))
            if head >= best:
                continue
            pos_i = space.door(di).position
            for dj in space.p2d_leave(pid):
                mid = 0.0 if di == dj else pos_i.distance_to(
                    space.door(dj).position)
                total = head + mid + lbh(heads(dj), ht)
                if total < best:
                    best = total
        return best
