"""The :class:`IndoorSpace` container with topology mappings.

This is the substrate model from Lu et al. (ICDE 2012) that the paper
relies on.  It stores partitions and doors and exposes the four
topology mappings used throughout the paper:

* ``d2p_enter(d)``  — partitions one can enter through door ``d``
  (written ``D2P-enter`` / ``D2PA`` in the paper),
* ``d2p_leave(d)``  — partitions one can leave through door ``d``
  (``D2P-leave`` / ``D2P@``),
* ``p2d_enter(v)``  — enterable doors of partition ``v`` (``P2DA``),
* ``p2d_leave(v)``  — leaveable doors of partition ``v`` (``P2D@``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.geometry import Point
from repro.space.entities import Door, Partition, PartitionKind


class IndoorSpace:
    """An indoor venue: partitions, doors, and their topology.

    Instances are immutable once constructed (use
    :class:`repro.space.builder.IndoorSpaceBuilder` to assemble one);
    derived indexes are computed eagerly so queries are cheap.
    """

    def __init__(self, partitions: Iterable[Partition], doors: Iterable[Door]) -> None:
        self._partitions: Dict[int, Partition] = {p.pid: p for p in partitions}
        self._doors: Dict[int, Door] = {d.did: d for d in doors}
        self._validate()

        self._p2d_enter: Dict[int, FrozenSet[int]] = {}
        self._p2d_leave: Dict[int, FrozenSet[int]] = {}
        self._build_p2d()

        self._staircase_doors_by_floor: Dict[int, List[int]] = {}
        self._build_staircase_index()

        # Point location buckets: ``Rect.contains`` rejects every
        # footprint whose ``int(level)`` differs from the point's, so
        # scanning one floor's bucket finds exactly the hits a scan of
        # every partition would.
        self._partitions_by_floor: Dict[int, List[Partition]] = {}
        for part in self._partitions.values():
            self._partitions_by_floor.setdefault(
                int(part.footprint.level), []).append(part)
        self._host_cache: Dict[Point, Partition] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        for door in self._doors.values():
            for pid in door.partitions():
                if pid not in self._partitions:
                    raise ValueError(
                        f"door {door.did} references unknown partition {pid}")

    def _build_p2d(self) -> None:
        enter: Dict[int, set] = {pid: set() for pid in self._partitions}
        leave: Dict[int, set] = {pid: set() for pid in self._partitions}
        for door in self._doors.values():
            for pid in door.enters:
                enter[pid].add(door.did)
            for pid in door.leaves:
                leave[pid].add(door.did)
        self._p2d_enter = {pid: frozenset(ds) for pid, ds in enter.items()}
        self._p2d_leave = {pid: frozenset(ds) for pid, ds in leave.items()}

    def _build_staircase_index(self) -> None:
        by_floor: Dict[int, List[int]] = {}
        for door in self._doors.values():
            if not door.is_staircase_door:
                continue
            lower = int(door.level)  # door at f + 0.5 serves floors f and f+1
            by_floor.setdefault(lower, []).append(door.did)
            by_floor.setdefault(lower + 1, []).append(door.did)
        self._staircase_doors_by_floor = {
            floor: sorted(dids) for floor, dids in by_floor.items()
        }

    # ------------------------------------------------------------------
    # Entity access
    # ------------------------------------------------------------------
    @property
    def partitions(self) -> Dict[int, Partition]:
        return self._partitions

    @property
    def doors(self) -> Dict[int, Door]:
        return self._doors

    def partition(self, pid: int) -> Partition:
        return self._partitions[pid]

    def door(self, did: int) -> Door:
        return self._doors[did]

    @property
    def num_partitions(self) -> int:
        return len(self._partitions)

    @property
    def num_doors(self) -> int:
        return len(self._doors)

    @property
    def num_floors(self) -> int:
        if not self._partitions:
            return 0
        return 1 + max(p.floor for p in self._partitions.values())

    # ------------------------------------------------------------------
    # Topology mappings (paper Section II-A)
    # ------------------------------------------------------------------
    def d2p_enter(self, did: int) -> FrozenSet[int]:
        """Partitions one can enter through door ``did`` (``D2PA``)."""
        return self._doors[did].enters

    def d2p_leave(self, did: int) -> FrozenSet[int]:
        """Partitions one can leave through door ``did`` (``D2P@``)."""
        return self._doors[did].leaves

    def p2d_enter(self, pid: int) -> FrozenSet[int]:
        """Enterable doors of partition ``pid`` (``P2DA``)."""
        return self._p2d_enter[pid]

    def p2d_leave(self, pid: int) -> FrozenSet[int]:
        """Leaveable doors of partition ``pid`` (``P2D@``)."""
        return self._p2d_leave[pid]

    # ------------------------------------------------------------------
    # Point location
    # ------------------------------------------------------------------
    def host_partition(self, p: Point) -> Partition:
        """The partition containing point ``p`` (``v(p)`` in the paper).

        Raises :class:`ValueError` if no partition contains the point.
        Containment is resolved by footprint; when footprints touch,
        the partition with the smallest area wins (rooms beat the
        hallway cells they abut).
        """
        cached = self._host_cache.get(p)
        if cached is not None:
            return cached
        floor = self._partitions_by_floor.get(int(p.level), ())
        hits = [part for part in floor if part.contains(p)]
        if not hits:
            raise ValueError(f"point {p} is not inside any partition")
        best = min(hits, key=lambda part: (part.footprint.area, part.pid))
        if len(self._host_cache) < 65536:
            self._host_cache[p] = best
        return best

    def staircase_doors_on_floor(self, floor: int) -> List[int]:
        """Staircase doors serving ``floor`` (``SD(x)`` in the paper)."""
        return self._staircase_doors_by_floor.get(floor, [])

    def staircase_partitions(self) -> List[Partition]:
        return [p for p in self._partitions.values()
                if p.kind is PartitionKind.STAIRCASE]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IndoorSpace({self.num_partitions} partitions, "
                f"{self.num_doors} doors, {self.num_floors} floors)")
