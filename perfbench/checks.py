"""Answer identity against sequential in-process engines.

Every ``ok`` answer is grouped by ``(query, algorithm)``.  A checked
group must hold exactly one answer, byte for byte the canonical JSON a
sequential engine produces for that query: the snapshot engine for
plain traffic, and for an answer served under closures a from-scratch
engine on the venue physically edited by them (``apply_closures``),
which shares nothing with the fleet.
"""

from __future__ import annotations

import json
import random
from typing import Dict, Optional, Sequence, Tuple

from repro.core.engine import IKRQEngine
from repro.core.query import IKRQ
from repro.dynamic import ClosureOverlay, apply_closures
from repro.serve.snapshot import load_snapshot
from repro.serve.wire import answer_to_wire, canonical_json

from loadgen import Item
from venue import Venue


def canonical_answer(doc: Dict) -> str:
    """The byte-identity form of a ``/search`` response."""
    return canonical_json({"algorithm": doc["algorithm"],
                           "routes": doc["routes"]})


class Reference:
    """Sequential engines answering what the fleet should answer."""

    def __init__(self, venue: Venue) -> None:
        self.venue = venue
        self.engine = load_snapshot(venue.snapshot, mmap=True)

    def answer(self, query: IKRQ, algorithm: str,
               overlay: Optional[ClosureOverlay] = None) -> str:
        engine = self.engine
        if overlay is not None and not overlay.is_empty:
            engine = IKRQEngine(apply_closures(self.venue.space, overlay),
                                self.venue.kindex, door_matrix_eager=False)
        return canonical_json(answer_to_wire(engine.search(query, algorithm)))


def verify(items: Sequence[Item], queries: Sequence[IKRQ],
           reference: Reference, sample: Optional[int], seed: int) -> Dict:
    """Check ``sample`` groups (all when ``None``) of ``ok`` answers.

    No delta is published while the traffic runs, so an answer stamped
    with any dynamic version but 0 is a mismatch in itself.
    """
    groups: Dict[Tuple, Dict[str, int]] = {}
    nonempty = ok = stray = 0
    for item in items:
        if item.path != "/search" or not item.ok:
            continue
        doc = json.loads(item.raw)
        ok += 1
        nonempty += bool(doc["routes"])
        stray += bool(doc.get("dynamic_version"))
        bucket = groups.setdefault(item.key, {})
        canon = canonical_answer(doc)
        bucket[canon] = bucket.get(canon, 0) + 1
    keys = sorted(groups, key=repr)
    if sample is not None and sample < len(keys):
        keys = random.Random(seed).sample(keys, sample)
    checked = 0
    mismatches = stray
    for key in keys:
        qid, algorithm = key
        expected = reference.answer(queries[qid], algorithm)
        for canon, count in groups[key].items():
            checked += count
            if canon != expected:
                mismatches += count
    return {"ok_answers": ok,
            "nonempty_frac": nonempty / ok if ok else 0.0,
            "groups": len(groups), "checked": checked,
            "mismatches": mismatches}
