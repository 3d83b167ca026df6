"""Benchmark inputs: the venue, its baked snapshot, and the query pools.

The venue and its query streams are fixed (a 30-floor synthetic mall
and seeded runs of the paper's generator over it); the run's
``--seed`` draws the arrival schedules and which pool query each
request repeats (``workloads.py``).  Baking the warm
KoE* door matrix into the snapshot costs tens of seconds, so the
snapshot is cached under ``.bench_build/perfbench/<key>/`` in the
checkout, keyed by the venue config and a digest of the program
sources.  Queries follow the paper's Section V-A1 generator
(``QueryGenerator``): δs2t fixed per venue, Δ = η·δs2t, |QW| keywords
with an i-word share β.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro.core.query import IKRQ
from repro.datasets.queries import QueryGenerator
from repro.datasets.synth import (SynthMallConfig, build_synth_mall,
                                  mall_stats, venue_diameter)
from repro.space.graph import DoorGraph

ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = ROOT / ".bench_build" / "perfbench"

#: The one venue every workload runs on.
MALL = SynthMallConfig(floors=30, rooms_per_floor=48, words_per_room=8,
                       seed=7)


@dataclass(frozen=True)
class QueryShape:
    """Section V-A1 parameters (the paper's Table IV defaults)."""

    s2t_share: float = 0.35  # δs2t as a share of the venue diameter
    eta: float = 1.8
    qw_size: int = 4
    beta: float = 0.6
    k: int = 7
    alpha: float = 0.5
    tau: float = 0.2


SHAPE = QueryShape()
#: Seed of the fixed-rate query stream, which is fixed with the venue
#: (saturation steps draw from a second stream, ``workloads.py``).
QUERY_SEED = 0


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    digest.update(json.dumps(asdict(MALL), sort_keys=True).encode())
    return digest.hexdigest()[:16]


class Venue:
    """The mall model plus the path of its warm-matrix snapshot."""

    def __init__(self) -> None:
        self.space, self.kindex = build_synth_mall(MALL)
        self.graph = DoorGraph(self.space)
        self.s2t = venue_diameter(self.space) * SHAPE.s2t_share
        self.snapshot = CACHE_DIR / _source_digest() / "mall.snap.bin"
        if not self.snapshot.exists():
            self._bake()

    def _bake(self) -> None:
        """Build every door-matrix row and write the binary snapshot."""
        from repro.core.engine import IKRQEngine
        from repro.serve.snapshot import save_snapshot
        engine = IKRQEngine(self.space, self.kindex, door_matrix_eager=True)
        engine.door_matrix()
        self.snapshot.parent.mkdir(parents=True, exist_ok=True)
        partial = self.snapshot.with_suffix(f".{os.getpid()}.part")
        save_snapshot(partial, engine, binary=True)
        os.replace(partial, self.snapshot)

    def describe(self) -> Dict:
        return {"config": asdict(MALL), **mall_stats(self.space, self.kindex),
                "s2t_m": round(self.s2t, 3), "shape": asdict(SHAPE)}


def query_stream(venue: Venue, endpoint_pairs: int,
                 seed: int = QUERY_SEED) -> Iterator[IKRQ]:
    """An endless stream of distinct paper-method queries.

    ``endpoint_pairs`` (ps, pt) pairs are drawn once and cycled, and
    every query draws a fresh keyword list, so no two queries are equal
    and each one misses the answer cache.  Cycling more pairs than a
    shard's point-map LRU holds keeps the per-endpoint caches cold too.
    A stream is the same in every run: a phase then measures the same
    queries whatever the run's seed, and only the timing noise is left
    in the spread between runs, not which queries a seed happened to
    draw.
    """
    gen = QueryGenerator(venue.space, venue.kindex, graph=venue.graph,
                         seed=seed)
    pairs = [gen.endpoints(venue.s2t) for _ in range(endpoint_pairs)]
    seen = set()
    i = 0
    while True:
        ps, pt, achieved = pairs[i % len(pairs)]
        i += 1
        query = IKRQ(ps=ps, pt=pt, delta=SHAPE.eta * achieved,
                     keywords=gen.sample_keywords(SHAPE.qw_size, SHAPE.beta),
                     k=SHAPE.k, alpha=SHAPE.alpha, tau=SHAPE.tau)
        if query not in seen:
            seen.add(query)
            yield query


def take(stream: Iterator[IKRQ], count: int) -> List[IKRQ]:
    return [next(stream) for _ in range(count)]


def algorithm_cycle(mix: Tuple[Tuple[str, int], ...]) -> List[str]:
    """A shuffled block holding each algorithm its exact integer share.

    Phases draw algorithms by walking this block, so every phase runs
    the configured mix exactly instead of a random approximation.
    """
    block = [name for name, count in mix for _ in range(count)]
    random.Random(QUERY_SEED).shuffle(block)
    return block
