"""Routes over the indoor door topology (paper Definition 1).

A route ``R = (xs, d1, ..., dn, xt)`` is a path through a sequence of
doors; the first and last items may be free points.  Besides the item
sequence, :class:`Route` records the *via* sequence — ``vias[i]`` is
the partition traversed between ``items[i]`` and ``items[i + 1]`` —
which makes route distance, key partitions and the regularity checks
well defined even when a door touches several partitions.

Routes also accumulate the query-scoped derived state the search needs
in O(1) per extension:

* ``words`` — the route words ``RW(R)`` (Definition 5),
* ``sims`` — per query keyword, the best similarity of a matching
  i-word on the route (drives keyword relevance, Definition 6),
* ``door_counts`` — door multiplicities for the regularity principle.

Routes are never changed once built; extensions produce new routes
that share nothing mutable with their parents.  The class is not
``frozen``: a frozen dataclass sets every field through
``object.__setattr__``, which more than doubles the cost of building
one on the expansion hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple, Union

from repro.geometry import Point

#: A route item: a door id or a free indoor point.
Item = Union[int, Point]


@dataclass(slots=True)
class Route:
    """A (partial or complete) route, never changed once built.

    Attributes:
        items: The item sequence ``(xs, d1, ..., [xt])``.
        vias: ``vias[i]`` is the partition crossed between ``items[i]``
            and ``items[i+1]`` (``len(vias) == len(items) - 1``).
        distance: The route distance ``δ(R)``.
        words: Route words ``RW(R)`` accumulated so far.
        sims: Per-query-keyword best matching similarity.
        door_counts: Door id → number of appearances on the route.
    """

    items: Tuple[Item, ...]
    vias: Tuple[int, ...]
    distance: float
    words: FrozenSet[str]
    sims: Tuple[float, ...]
    door_counts: Dict[int, int] = field(compare=False)
    #: Incrementally maintained key-partition sequence ``KP(R)``:
    #: the start partition, then keyword-covering partitions at first
    #: traversal, then (for complete routes) the terminal partition.
    kp: Tuple[int, ...] = ()
    #: The interned-id bitmask mirror of ``words``, carried on the
    #: route so word merges on the expansion hot path are bitwise ops
    #: instead of frozenset algebra with per-string re-interning.
    #: Derived state, excluded from equality: it is 0 whenever the
    #: owning context runs the reference (mask-free) word path, and
    #: exactly ``kindex.iword_mask(words)`` otherwise.
    words_mask: int = field(default=0, compare=False)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def head(self) -> Item:
        return self.items[0]

    @property
    def tail(self) -> Item:
        return self.items[-1]

    @property
    def tail_door(self) -> Optional[int]:
        """The tail as a door id, or ``None`` when it is a point."""
        tail = self.items[-1]
        return tail if isinstance(tail, int) else None

    @property
    def num_items(self) -> int:
        return len(self.items)

    @property
    def doors(self) -> Tuple[int, ...]:
        """The door subsequence of the route."""
        return tuple(x for x in self.items if isinstance(x, int))

    @property
    def is_complete(self) -> bool:
        """Whether both endpoints are points (start and terminal)."""
        return (len(self.items) >= 2
                and isinstance(self.items[0], Point)
                and isinstance(self.items[-1], Point))

    def count(self, door: int) -> int:
        return self.door_counts.get(door, 0)

    def contains_door(self, door: int) -> bool:
        return door in self.door_counts

    @property
    def covered_count(self) -> int:
        """Number of query keywords covered (``NQW`` of Definition 6)."""
        return sum(1 for s in self.sims if s > 0.0)

    @property
    def relevance(self) -> float:
        """Keyword relevance ``ρ(R)`` (Definition 6)."""
        covered = 0
        total = 0.0
        for s in self.sims:
            total += s
            if s > 0.0:
                covered += 1
        if covered == 0:
            return 0.0
        return covered + total / covered

    # ------------------------------------------------------------------
    # Regularity (paper's Principle of Regularity)
    # ------------------------------------------------------------------
    def may_append_door(self, door: int) -> bool:
        """Whether appending ``door`` keeps the route regular.

        A door may appear at most twice and only consecutively (the
        one-hop loop ``(d, d)``); any other repetition would place
        doors between two identical doors.
        """
        seen = self.door_counts.get(door, 0)
        if seen == 0:
            return True
        if seen >= 2:
            return False
        return self.items[-1] == door

    def is_regular(self) -> bool:
        """Full regularity audit of the door sequence (used by tests
        and the naive baseline; the search maintains the invariant
        incrementally via :meth:`may_append_door`)."""
        doors = self.doors
        last_pos: Dict[int, int] = {}
        counts: Dict[int, int] = {}
        for pos, door in enumerate(doors):
            counts[door] = counts.get(door, 0) + 1
            if counts[door] > 2:
                return False
            if counts[door] == 2 and last_pos[door] != pos - 1:
                return False
            last_pos[door] = pos
        return True

    # ------------------------------------------------------------------
    # Extension (query-scoped state is supplied by the caller —
    # normally :class:`repro.core.query.QueryContext`)
    # ------------------------------------------------------------------
    def extended(self,
                 item: Item,
                 via: int,
                 cost: float,
                 new_words: FrozenSet[str],
                 new_sims: Tuple[float, ...],
                 new_kp: Tuple[int, ...],
                 new_mask: int = 0) -> "Route":
        """A new route with ``item`` appended through partition ``via``."""
        counts = dict(self.door_counts)
        if isinstance(item, int):
            counts[item] = counts.get(item, 0) + 1
        return Route(
            items=self.items + (item,),
            vias=self.vias + (via,),
            distance=self.distance + cost,
            words=new_words,
            sims=new_sims,
            door_counts=counts,
            kp=new_kp,
            words_mask=new_mask,
        )

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def describe(self, space=None) -> str:
        """Human-readable route string in the paper's arrow notation."""
        parts = []
        for i, item in enumerate(self.items):
            if isinstance(item, int):
                if space is not None:
                    parts.append(space.door(item).name or f"d{item}")
                else:
                    parts.append(f"d{item}")
            else:
                parts.append(f"({item.x:.1f},{item.y:.1f})@{item.level:g}")
            if i < len(self.vias):
                via = self.vias[i]
                if space is not None:
                    vname = space.partition(via).name or f"v{via}"
                else:
                    vname = f"v{via}"
                parts.append(f"-[{vname}]->")
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Route({self.describe()}, δ={self.distance:.2f})"
