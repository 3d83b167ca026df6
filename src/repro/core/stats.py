"""Instrumentation counters for IKRQ searches.

The paper reports running time and memory per query.  Wall-clock time
is measured by the bench harness; :class:`SearchStats` adds the
implementation-independent counters that explain *why* an algorithm is
fast or slow (pruning hit counts, expansion counts) and a live-memory
proxy used for the memory figures: the peak number of route items held
by queued stamps, the prime table, and — for KoE* — the precomputed
matrix rows, converted to approximate bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: Approximate in-memory size of one route item inside a stamp (tuple
#: slot + door id / point object share, measured on CPython 3.11).
BYTES_PER_ROUTE_ITEM = 96
#: Fixed per-stamp overhead (dataclass + tuples + floats).
BYTES_PER_STAMP = 280


@dataclass
class SearchStats:
    """Counters collected by one IKRQ search run."""

    stamps_created: int = 0
    stamps_popped: int = 0
    expansions: int = 0
    connects: int = 0
    complete_routes: int = 0
    dijkstra_calls: int = 0
    precomputed_hits: int = 0
    precomputed_misses: int = 0
    #: Rows the (memory-budgeted) KoE* door matrix has evicted so far.
    matrix_evictions: int = 0

    pruned_rule1: int = 0
    pruned_rule2: int = 0
    pruned_rule3: int = 0
    pruned_rule4: int = 0
    pruned_rule5: int = 0
    pruned_regularity: int = 0
    pruned_distance: int = 0

    max_queue_len: int = 0
    live_route_items: int = 0
    peak_route_items: int = 0
    prime_table_entries: int = 0
    aux_bytes: int = 0

    elapsed_seconds: float = 0.0

    # ------------------------------------------------------------------
    @property
    def total_pruned(self) -> int:
        return (self.pruned_rule1 + self.pruned_rule2 + self.pruned_rule3
                + self.pruned_rule4 + self.pruned_rule5)

    def estimated_peak_bytes(self) -> int:
        """The memory proxy reported by the bench harness."""
        stamp_bytes = (self.peak_route_items * BYTES_PER_ROUTE_ITEM
                       + self.max_queue_len * BYTES_PER_STAMP)
        return stamp_bytes + self.aux_bytes

    def estimated_peak_mb(self) -> float:
        return self.estimated_peak_bytes() / (1024.0 * 1024.0)

    def as_dict(self) -> Dict[str, float]:
        return {
            "stamps_created": self.stamps_created,
            "stamps_popped": self.stamps_popped,
            "expansions": self.expansions,
            "connects": self.connects,
            "complete_routes": self.complete_routes,
            "dijkstra_calls": self.dijkstra_calls,
            "matrix_evictions": self.matrix_evictions,
            "pruned_rule1": self.pruned_rule1,
            "pruned_rule2": self.pruned_rule2,
            "pruned_rule3": self.pruned_rule3,
            "pruned_rule4": self.pruned_rule4,
            "pruned_rule5": self.pruned_rule5,
            "pruned_regularity": self.pruned_regularity,
            "pruned_distance": self.pruned_distance,
            "max_queue_len": self.max_queue_len,
            "peak_route_items": self.peak_route_items,
            "prime_table_entries": self.prime_table_entries,
            "estimated_peak_mb": self.estimated_peak_mb(),
            "elapsed_seconds": self.elapsed_seconds,
        }
