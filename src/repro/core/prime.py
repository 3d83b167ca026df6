"""The prime-route table ``Hprime`` (Algorithms 3 and 4).

Homogeneous routes share the hash key ``(R.tail, KP(R))`` — all
expanding routes share the head ``ps``, so tail plus key-partition
sequence identifies the homogeneity class.  The table records the
shortest distance seen per class; a route longer than its class record
is not (temporarily) prime and is pruned by Pruning Rule 5.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Hash key of a homogeneity class: (tail door id or -1 for a point
#: tail, key partition sequence).
PrimeKey = Tuple[int, Tuple[int, ...]]


class PrimeTable:
    """Shortest-distance-per-homogeneity-class hashtable.

    ``check`` implements Algorithm 3 and ``update`` Algorithm 4.  A
    route whose distance *equals* the recorded class distance passes
    the check: the record is normally the route's own earlier update
    (stamps are checked again when popped from the queue after having
    been recorded at creation).
    """

    def __init__(self) -> None:
        self._table: Dict[PrimeKey, float] = {}
        self.checks = 0
        self.rejections = 0

    @staticmethod
    def key(tail, kp: Tuple[int, ...]) -> PrimeKey:
        tail_id = tail if isinstance(tail, int) else -1
        return (tail_id, kp)

    def check(self, tail, kp: Tuple[int, ...], distance: float) -> bool:
        """Algorithm 3: is the route (temporarily) prime?"""
        self.checks += 1
        recorded = self._table.get(self.key(tail, kp))
        if recorded is None or recorded >= distance:
            return True
        self.rejections += 1
        return False

    def update(self, tail, kp: Tuple[int, ...], distance: float) -> bool:
        """Algorithm 4: record the route if it is the class's shortest.

        Returns whether the table changed.
        """
        key = self.key(tail, kp)
        recorded = self._table.get(key)
        if recorded is None or recorded > distance:
            self._table[key] = distance
            return True
        return False

    def admit(self, tail, kp: Tuple[int, ...], distance: float) -> bool:
        """Algorithm 4, then the verdict of Algorithm 3 on the same route.

        Records the route if it is the class's shortest and returns
        whether a :meth:`check` of it made before any other update of
        its class passes: ``False`` exactly when the class already held
        a shorter route.  Counts nothing — the caller counts the checks
        it stands in for.
        """
        key = self.key(tail, kp)
        recorded = self._table.get(key)
        if recorded is None or recorded > distance:
            self._table[key] = distance
            return True
        return recorded == distance

    def best(self, tail, kp: Tuple[int, ...]) -> float:
        """The recorded class distance (``inf`` when absent)."""
        return self._table.get(self.key(tail, kp), float("inf"))

    def export_entries(self) -> list:
        """The table as sorted JSON-serialisable ``[tail, kp, dist]`` rows.

        Serve snapshots persist a table learned from traffic as an
        advisory artifact (diagnostics / offline analysis); live query
        evaluation always starts from an empty per-search table, so a
        snapshotted table never changes results.
        """
        return [[tail, list(kp), dist]
                for (tail, kp), dist in sorted(self._table.items())]

    @classmethod
    def from_entries(cls, entries: list) -> "PrimeTable":
        """Rebuild a table from :meth:`export_entries` rows."""
        table = cls()
        for tail, kp, dist in entries:
            table._table[(tail, tuple(kp))] = dist
        return table

    def __len__(self) -> int:
        return len(self._table)

    def estimated_bytes(self) -> int:
        """Rough footprint, counted towards the memory metric."""
        total = 0
        for (tail, kp) in self._table:
            total += 80 + 8 * len(kp)
        return total
