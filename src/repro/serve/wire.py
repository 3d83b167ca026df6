"""JSON wire format of the serving surface.

Queries and answers cross process and HTTP boundaries as plain JSON
documents.  The encoding is lossless for everything the byte-identity
guarantee covers: floats round-trip exactly (``json`` emits the
shortest ``repr`` that parses back to the same double), door ids stay
ints, and free points become ``{"point": [x, y, level]}`` items.

A query document::

    {"ps": [x, y, level], "pt": [x, y, level], "delta": 60.0,
     "keywords": ["latte", "apple"], "k": 3,
     "alpha": 0.5, "tau": 0.2, "soft_slack": 0.0, "gamma": 0.0}

Field types are checked, never coerced: ``keywords`` is an array of
strings, ``k`` an integer, and every other numeric field and point
coordinate a number.  Booleans and numeric strings are refused
(``ValueError``, which the serving layer answers as ``bad_request``).

The *venue* a query targets is not part of the query document — it is
routing state, carried as a sibling field of the HTTP body
(``{"venue": "mall-a", "query": {...}}``) and echoed back on the
response together with the snapshot ``generation`` that served it.

An answer document (the ``routes`` payload is what the byte-identity
tests compare against a local ``engine.search``)::

    {"algorithm": "ToE",
     "routes": [{"items": [...], "vias": [...], "distance": ...,
                 "kp": [...], "relevance": ..., "score": ...}]}
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Union

from repro.core.engine import QueryAnswer
from repro.core.query import IKRQ
from repro.core.results import RouteResult
from repro.geometry import Point

#: A wire route item: a door id, or a point wrapper dict.
WireItem = Union[int, Dict[str, List[float]]]


def point_to_wire(p: Point) -> List[float]:
    # Coerce: a Point built with int coordinates (level=0 is common)
    # would serialise as "0" where the wire round-trip yields "0.0",
    # breaking canonical-JSON byte-identity on numerically equal data.
    return [float(p.x), float(p.y), float(p.level)]


def _number(value, name: str) -> float:
    """``value`` as a float, if it is a JSON number (not a bool, not a
    string — ``"50"`` and ``true`` are refused, not coerced)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def point_from_wire(values: Sequence[float]) -> Point:
    if not isinstance(values, (list, tuple)) or len(values) not in (2, 3):
        raise ValueError(f"point must be [x, y] or [x, y, level], got {values!r}")
    level = _number(values[2], "point level") if len(values) == 3 else 0.0
    return Point(_number(values[0], "point x"),
                 _number(values[1], "point y"), level)


def query_to_wire(query: IKRQ) -> Dict:
    return {
        "ps": point_to_wire(query.ps),
        "pt": point_to_wire(query.pt),
        "delta": query.delta,
        "keywords": list(query.keywords),
        "k": query.k,
        "alpha": query.alpha,
        "tau": query.tau,
        "soft_slack": query.soft_slack,
        "gamma": query.gamma,
    }


def query_from_wire(doc: Dict) -> IKRQ:
    if not isinstance(doc, dict):
        raise ValueError("query document must be a JSON object")
    try:
        ps = point_from_wire(doc["ps"])
        pt = point_from_wire(doc["pt"])
        delta = _number(doc["delta"], "delta")
        words = doc["keywords"]
    except KeyError as exc:
        raise ValueError(f"query document missing field {exc.args[0]!r}")
    if not isinstance(words, (list, tuple)):
        raise ValueError(f"keywords must be an array of strings, "
                         f"got {words!r}")
    for word in words:
        if not isinstance(word, str):
            raise ValueError(f"keywords must be an array of strings, "
                             f"got {word!r} in it")
    k = doc.get("k", 1)
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError(f"k must be an integer, got {k!r}")
    return IKRQ(
        ps=ps, pt=pt, delta=delta, keywords=tuple(words), k=k,
        alpha=_number(doc.get("alpha", 0.5), "alpha"),
        tau=_number(doc.get("tau", 0.2), "tau"),
        soft_slack=_number(doc.get("soft_slack", 0.0), "soft_slack"),
        gamma=_number(doc.get("gamma", 0.0), "gamma"),
    )


def _item_to_wire(item) -> WireItem:
    if isinstance(item, int):
        return item
    return {"point": point_to_wire(item)}


def route_result_to_wire(result: RouteResult) -> Dict:
    route = result.route
    return {
        "items": [_item_to_wire(i) for i in route.items],
        "vias": list(route.vias),
        "distance": route.distance,
        "kp": list(result.kp),
        "relevance": result.relevance,
        "score": result.score,
    }


def answer_to_wire(answer: QueryAnswer) -> Dict:
    """The response payload: exactly what byte-identity compares."""
    return {
        "algorithm": answer.algorithm,
        "routes": [route_result_to_wire(r) for r in answer.routes],
    }


def canonical_json(doc) -> str:
    """One canonical byte representation of a wire document.

    Sorted keys, no whitespace — two answers are byte-identical iff
    their canonical JSON strings are equal.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Supervision control documents
# ----------------------------------------------------------------------
def ping_to_wire() -> Dict:
    """The supervisor's liveness probe.  Carries no ``id``: the pong is
    fire-and-forget and must never collide with the RPC slot table."""
    return {"kind": "ping"}


def pong_to_wire(shard: int, boot: int) -> Dict:
    """A worker's heartbeat reply.  ``boot`` is the worker's incarnation
    counter — the router only refreshes a shard's liveness clock when
    the boot matches, so a zombie predecessor's late pong cannot keep a
    replaced shard looking alive."""
    return {"kind": "pong", "shard": int(shard), "boot": int(boot)}


def shard_down_doc(shard: int,
                   reason: Optional[str] = None,
                   req_id: Optional[int] = None) -> Dict:
    """The synthetic response a caller gets when its shard is dead:
    the supervision layer's equivalent of ``timeout``, delivered
    immediately instead of after the full RPC wait."""
    doc: Dict = {"status": "shard_down", "shard": int(shard)}
    if reason is not None:
        doc["reason"] = str(reason)
    if req_id is not None:
        doc["id"] = req_id
    return doc


# ----------------------------------------------------------------------
# Trace wire documents
# ----------------------------------------------------------------------
def trace_request_to_wire(trace_id: str,
                          fine: bool,
                          enqueued_at: float) -> Dict:
    """The dispatcher's trace envelope riding on a shard payload.

    ``enqueued_at`` is a ``time.time()`` wall-clock stamp — the only
    clock comparable across the dispatcher and worker processes; the
    worker derives its queue-wait span from it.
    """
    return {"id": str(trace_id), "fine": bool(fine),
            "enqueued_at": float(enqueued_at)}


def trace_reply_to_wire(queue_wait_ms: float, spans: List[Dict]) -> Dict:
    """The worker's trace sub-tree riding back on a shard response:
    the measured queue wait plus the worker-side span forest (offsets
    relative to the worker's dequeue instant)."""
    return {"queue_wait_ms": round(float(queue_wait_ms), 3),
            "spans": list(spans)}
