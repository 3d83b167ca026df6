"""Search stamps: the expansion unit of Algorithm 1.

A stamp ``S(v, R, δ, ρ, ψ)`` records a route expanded to a door (or
the start point), the last partition the route has *entered*, and the
route's distance, keyword relevance and ranking score.  Stamps are the
elements of the priority queue driving the search.  Like routes,
stamps are never changed once built, and are not ``frozen`` for the
same construction cost (see :mod:`repro.core.route`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.route import Route


@dataclass(slots=True)
class Stamp:
    """A five-tuple ``S(v, R, δ, ρ, ψ)`` (paper Section IV-B).

    ``partition`` is the last partition the route reached (entered
    through its tail door; the host partition of ``ps`` for the
    initial stamp).
    """

    partition: int
    route: Route
    distance: float
    relevance: float
    score: float

    @classmethod
    def of(cls, partition: int, route: Route, score: float) -> "Stamp":
        return cls(partition=partition,
                   route=route,
                   distance=route.distance,
                   relevance=route.relevance,
                   score=score)

    @property
    def tail(self):
        return self.route.tail

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Stamp(v{self.partition}, δ={self.distance:.2f}, "
                f"ρ={self.relevance:.3f}, ψ={self.score:.4f}, "
                f"{self.route.describe()})")
