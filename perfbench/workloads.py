"""The traffic mixes and the request items each phase sends.

Both workloads run on the same venue and fixed query streams (one for
the fixed-rate windows, one for the saturation steps); the run's seed
draws the fixed-rate windows' arrival times and, on a repeating pool,
which pool query each request sends.  Saturation steps replay one
fixed arrival pattern (``Traffic.step_items``).  Fixed rates and
latency limits are set here, once, and never derived from a run's own
measurements.

Each latency limit sits on the knee of its workload's p95-versus-rate
curve, where p95 climbs several-fold within a few percent of rate, so
a noisy p95 moves the saturation rate little.  Each fixed rate sits at
about a third of the saturation rate or below, so the fixed-rate
windows measure service time rather than a queue, even on a host that
runs half as fast.  The saturation search starts at
``sat_start_share`` of the rate the first fixed-rate window's median
round trip would allow the senders (``SENDERS`` × 1000 / RTT ms) —
near the saturation rate on a fast or a slow host alike — and climbs
or falls by ``SAT_FACTOR`` until a passing and a failing step bracket
it, then bisects.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.query import IKRQ
from repro.serve.wire import query_to_wire

from loadgen import Item, poisson_times
from venue import Venue, algorithm_cycle, query_stream, take

VENUE_ID = "mall"
#: ToE : KoE : KoE* = 5 : 3 : 2 (the soak's historical mix).
MIX = (("ToE", 5), ("KoE", 3), ("KoE*", 2))
#: A delta probe closes every 7th door (~14% of them).
SURGE_STRIDE = 7
#: Share of ``--seconds`` spent at the fixed rate.  It and the rest are
#: each cut into ``SAT_STEPS`` equal parts, and a run alternates them:
#: fixed-rate window, saturation step, fixed-rate window, ...
FIXED_SHARE = 0.45
SAT_STEPS = 4
#: Saturation search: rate factor while bracketing, and the widest
#: final bracket (share of its lower end) a valid run may end with —
#: one bisection of a ``SAT_FACTOR`` bracket.  Four steps bracket and
#: bisect once whenever the saturation rate lies within ``SAT_FACTOR``
#: squared of the first step's rate; otherwise extra steps, up to
#: ``SAT_MAX_STEPS`` in all, go on until they do.
SAT_FACTOR = 1.3
SAT_WIDTH = 0.15
SAT_MAX_STEPS = 7
#: (ps, pt) pairs the distinct-query stream cycles through.
ENDPOINT_PAIRS = 400
#: Seed of the arrival pattern every saturation step replays.
STEP_PATTERN = 0
#: Seed of the query stream the saturation steps draw from on
#: ``cold-paper`` (the fixed-rate windows use ``venue.QUERY_SEED``).
STEP_QUERY_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    rate_qps: float        # fixed offered rate of the latency phase
    limit_ms: float        # the p95 latency limit (SLO)
    pool: Optional[int]    # repeating pool size; None = every query new
    sat_start_share: float  # first saturation step / fixed-phase RTT rate


#: Why each workload exists is recorded in ``BENCHMARK.json``: the
#: engine layers dominate ``cold-paper``, the serving front end
#: dominates ``hot-repeat``.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(name="cold-paper", rate_qps=9.0, limit_ms=600.0, pool=None,
             sat_start_share=0.55),
    Workload(name="hot-repeat", rate_qps=100.0, limit_ms=50.0, pool=16,
             sat_start_share=0.8),
)}


def search_body(query: IKRQ, algorithm: str, trace: bool = False) -> bytes:
    doc = {"venue": VENUE_ID, "query": query_to_wire(query),
           "algorithm": algorithm}
    if trace:
        doc["trace"] = True
    return json.dumps(doc).encode()


class Traffic:
    """Seeded request source of one run.

    ``queries`` registers every query sent; item keys are
    ``(query index, algorithm)`` so answers can be checked later.
    """

    def __init__(self, workload: Workload, venue: Venue, seed: int) -> None:
        self.workload = workload
        self.venue = venue
        self.rng = random.Random(seed)
        self.algorithms = algorithm_cycle(MIX)
        pairs = ENDPOINT_PAIRS if workload.pool is None else workload.pool
        #: Each source is a query stream and its place in the algorithm
        #: cycle.  Fixed-rate phases and saturation steps draw from
        #: sources of their own, so the queries of the fixed-rate
        #: windows do not depend on how many the steps before them sent.
        self._sources: Dict[str, List] = {
            "fixed": [query_stream(venue, pairs), 0],
            "step": [query_stream(venue, pairs, seed=STEP_QUERY_SEED), 0]
            if workload.pool is None else None,
        }
        self.queries: List[IKRQ] = []
        self.pool: List[int] = []
        if workload.pool is not None:
            self.pool = [self._register(q) for q in
                         take(self._sources["fixed"][0], workload.pool)]

    def _register(self, query: IKRQ) -> int:
        self.queries.append(query)
        return len(self.queries) - 1

    def next_search(self, trace: bool = False,
                    source: str = "fixed") -> Tuple[bytes, Tuple]:
        entry = self._sources[source] or self._sources["fixed"]
        stream, position = entry
        if self.pool:
            qid = self.rng.choice(self.pool)
        else:
            qid = self._register(next(stream))
        algorithm = self.algorithms[position % len(self.algorithms)]
        entry[1] = position + 1
        return (search_body(self.queries[qid], algorithm, trace),
                (qid, algorithm))

    def fresh_queries(self, count: int) -> List[IKRQ]:
        """Queries outside the timed traffic (warm-up, probes)."""
        return take(self._sources["fixed"][0], count)

    def prewarm_items(self) -> List[Item]:
        """Every (pool query, algorithm) once: fills the answer caches."""
        return [Item(0.0, "/search", search_body(self.queries[qid], name),
                     (qid, name))
                for qid in self.pool for name, _ in MIX]

    def surge_bodies(self, offset: int) -> Tuple[bytes, bytes]:
        """A venue-wide closure event (every 7th door from ``offset``)
        and the delta reopening it.  Each offset is a distinct overlay."""
        doors = sorted(self.venue.space.doors)[offset::SURGE_STRIDE]
        return tuple(
            json.dumps({"venue": VENUE_ID,
                        "ops": [{"op": op, "did": did} for did in doors]},
                       ).encode()
            for op in ("close_door", "open_door"))

    def phase_items(self, rate: float, duration_s: float,
                    trace: bool = False) -> List[Item]:
        """A Poisson schedule of searches at ``rate``, drawn from the
        run's seed."""
        return self._items(rate, duration_s, self.rng, trace, "fixed")

    def step_items(self, rate: float, duration_s: float) -> List[Item]:
        """A saturation step: every step of every run replays one
        Poisson pattern (common random numbers) at ``rate``.

        The pattern's first ``rate × duration_s`` instants are the same
        draws at any rate, so steps at nearby rates meet the same clumps
        and lulls, and two runs' searches differ in their rates and the
        program's speed, not in arrival luck."""
        return self._items(rate, duration_s, random.Random(STEP_PATTERN),
                           False, "step")

    def _items(self, rate: float, duration_s: float, rng: random.Random,
               trace: bool, source: str) -> List[Item]:
        items = []
        for at in poisson_times(rate, duration_s, rng):
            body, key = self.next_search(trace, source)
            items.append(Item(at, "/search", body, key))
        return items
