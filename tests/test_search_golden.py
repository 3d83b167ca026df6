"""Golden answers and search counters on paper-method queries.

Every case evaluates one query with one algorithm on a small synthetic
mall and is pinned by two things: the sha256 of the canonical answer
(the wire bytes a served answer must equal) and every
``SearchStats.as_dict()`` field except the wall clock.  A change to the
search internals that keeps answers but moves a counter — a stamp built
that used to be pruned, a prime check skipped — fails here, and so does
one that keeps the counters but reorders the result set.

The gate is non-vacuous: every pinned answer is non-empty and at least
one ToE case rejects stamps through Pruning Rule 5.

Regenerate the fixture only for a change that is meant to alter answers
or counters::

    PYTHONPATH=src python tests/test_search_golden.py --write
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

import pytest

from repro.core import IKRQ, IKRQEngine, QueryAnswer
from repro.core.stats import SearchStats
from repro.datasets import QueryGenerator
from repro.datasets.synth import (SynthMallConfig, build_synth_mall,
                                  venue_diameter)
from repro.dynamic import ClosureOverlay
from repro.serve.wire import answer_to_wire, canonical_json

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "search_golden.json")

VENUE = SynthMallConfig(floors=2, rooms_per_floor=24, words_per_room=3,
                        seed=7)
NUM_QUERIES = 30
QUERY_SEED = 11
#: Algorithm, max_expansions.  ToE-P keeps no prime classes, so it is
#: capped as the bench harness caps it.
ALGORITHMS: Tuple[Tuple[str, Optional[int]], ...] = (
    ("ToE", None), ("ToE-D", None), ("ToE-B", None), ("ToE-P", 200),
    ("KoE", None), ("KoE*", None),
)
#: Queries that also run the extension cases below.
EXTRA_QUERIES = range(5)
EXTRA_ALGORITHMS = ("ToE", "KoE", "KoE*")
#: A cap that cuts most of these searches short (KoE pops far fewer
#: stamps than ToE).
SMALL_CAPS = {"ToE": 40, "KoE": 8, "KoE*": 8}

#: The stats fields pinned per case (``elapsed_seconds`` is wall time).
FIELDS: Tuple[str, ...] = tuple(
    name for name in SearchStats().as_dict() if name != "elapsed_seconds")


@lru_cache(maxsize=1)
def venue() -> Tuple[IKRQEngine, Tuple[IKRQ, ...]]:
    """The mall, its engine (with a popularity map for the γ cases) and
    the Section V-A1 queries: endpoints 0.35 · diameter apart,
    Δ = 1.8 · achieved δs2t, |QW| = 4 at i-word fraction 0.6, k = 3."""
    space, kindex = build_synth_mall(VENUE)
    popularity = {pid: (pid * 37 % 11) / 10.0
                  for pid in sorted(space.partitions)}
    engine = IKRQEngine(space, kindex, popularity=popularity,
                        door_matrix_eager=False)
    gen = QueryGenerator(space, kindex, graph=engine.graph,
                         seed=QUERY_SEED)
    s2t = 0.35 * venue_diameter(space)
    queries = []
    for _ in range(NUM_QUERIES):
        ps, pt, achieved = gen.endpoints(s2t)
        queries.append(IKRQ(ps=ps, pt=pt, delta=1.8 * achieved,
                            keywords=gen.sample_keywords(4, 0.6),
                            k=3, alpha=0.5, tau=0.2))
    return engine, tuple(queries)


def _overlay(engine: IKRQEngine, query: IKRQ) -> ClosureOverlay:
    """Close the middle door of the query's best ToE route, so the
    overlay forces a detour."""
    doors = engine.search(query, "ToE").best.route.doors
    return ClosureOverlay(frozenset({doors[len(doors) // 2]}))


def golden_cases() -> Iterator[Tuple[str, QueryAnswer]]:
    """``(case name, answer)`` for every pinned case, in fixture order."""
    engine, queries = venue()
    for algorithm, cap in ALGORITHMS:
        for i, query in enumerate(queries):
            yield (f"{algorithm}/q{i:02d}",
                   engine.search(query, algorithm, max_expansions=cap))
    for i in EXTRA_QUERIES:
        query = queries[i]
        for algorithm in EXTRA_ALGORITHMS:
            yield (f"{algorithm}/q{i:02d}/soft_slack",
                   engine.search(dataclasses.replace(query, soft_slack=0.25),
                                 algorithm))
            yield (f"{algorithm}/q{i:02d}/gamma",
                   engine.search(dataclasses.replace(query, gamma=0.5),
                                 algorithm))
            yield (f"{algorithm}/q{i:02d}/closure",
                   engine.search(query, algorithm,
                                 overlay=_overlay(engine, query)))
            yield (f"{algorithm}/q{i:02d}/capped",
                   engine.search(query, algorithm,
                                 max_expansions=SMALL_CAPS[algorithm]))


def signature(answer: QueryAnswer) -> List:
    """``[answer sha256, *pinned stats]`` of one answer."""
    stats = answer.stats.as_dict()
    digest = hashlib.sha256(
        canonical_json(answer_to_wire(answer)).encode()).hexdigest()
    return [digest] + [stats[name] for name in FIELDS]


def load_fixture() -> Dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def computed() -> Dict[str, Tuple[QueryAnswer, List]]:
    return {name: (answer, signature(answer))
            for name, answer in golden_cases()}


class TestSearchGolden:
    def test_fixture_covers_every_case(self, computed):
        golden = load_fixture()
        assert golden["fields"] == list(FIELDS)
        assert sorted(golden["cases"]) == sorted(computed)

    def test_answers_and_counters_match(self, computed):
        golden = load_fixture()["cases"]
        mismatched = []
        for name, (_, sig) in computed.items():
            if golden.get(name) != sig:
                mismatched.append(name)
        detail = []
        for name in mismatched[:5]:
            want, got = golden.get(name), computed[name][1]
            if want is None:
                detail.append(f"{name}: not in the fixture")
                continue
            fields = ("answer",) + FIELDS
            diffs = [f"{f}: {w!r} -> {g!r}"
                     for f, w, g in zip(fields, want, got) if w != g]
            detail.append(f"{name}: " + "; ".join(diffs))
        assert not mismatched, (
            f"{len(mismatched)} of {len(computed)} cases drifted:\n"
            + "\n".join(detail))

    def test_every_answer_is_non_empty(self, computed):
        empty = [name for name, (answer, _) in computed.items()
                 if not answer.routes]
        assert not empty

    def test_rule5_fires_on_toe(self, computed):
        rule5 = FIELDS.index("pruned_rule5") + 1
        assert any(sig[rule5] > 0 for name, (_, sig) in computed.items()
                   if name.startswith("ToE/"))

    def test_extension_cases_change_something(self, computed):
        """The extension cases are not silent copies of the base case."""
        for suffix in ("soft_slack", "gamma", "closure", "capped"):
            assert any(
                computed[f"{alg}/q{i:02d}/{suffix}"][1]
                != computed[f"{alg}/q{i:02d}"][1]
                for alg in EXTRA_ALGORITHMS for i in EXTRA_QUERIES), suffix


def write_fixture() -> None:
    cases = {name: signature(answer) for name, answer in golden_cases()}
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    lines = ",\n".join(f"  {json.dumps(name)}: {json.dumps(sig)}"
                       for name, sig in cases.items())
    with open(FIXTURE, "w") as fh:
        fh.write('{"fields": ' + json.dumps(list(FIELDS))
                 + ',\n "cases": {\n' + lines + "\n}}\n")
    print(f"wrote {len(cases)} cases to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write_fixture()
