"""Deterministic fault injection for the shard fleet.

Chaos testing a multi-process pool with ``kill -9`` from the outside
is inherently racy: the interesting failure windows (a worker dying
*between* dequeuing a request and replying, or *after* replying but
before the next request) are microseconds wide.  A :class:`FaultPlan`
moves the trigger inside the worker, where the window is exact: the
plan rides into :func:`~repro.serve.pool._shard_worker` through the
pool's ``service_options`` and each worker evaluates it with a
:class:`FaultInjector` at three deterministic points — process start,
every ``load`` message, every ``search`` message.

Supported actions:

* ``crash`` / ``crash_before_reply`` — ``os._exit`` before the
  response is enqueued: the caller sees the crash as a dead shard.
* ``crash_after_reply`` — the response *is* delivered, then the
  worker dies: the caller succeeds, the supervisor still has a corpse
  to replace (exercises restart without a failed request).
* ``stall`` — sleep for ``stall_s`` without replying: exercises the
  heartbeat-timeout path (a hung worker is indistinguishable from a
  live slow one except through missed heartbeats).
* ``reject_load`` — raise from the snapshot load: a *deterministic*
  load failure (as opposed to a crash), so ingest's all-or-nothing
  contract can be tested separately from its crash tolerance.

Rules select their firing point by ``op`` (``"start"``, ``"load"``,
``"search"``), ``shard``, and either a 0-based per-op ``index`` or
``every=True``.  ``from_boot`` / ``to_boot`` gate a rule on the
worker's boot counter (0 = initial start, 1 = first restart, …):
``from_boot=1`` with ``every`` makes the initial boot succeed and
every replacement die — the crash-loop shape that drives a shard into
the supervisor's restart budget and quarantine — while ``to_boot=0``
scripts a one-incarnation fault whose replacement is clean (a load
crash that must not re-fire during the replacement's warm-restart
reloads, say).

The plan is plain data (``to_wire`` / ``from_wire``) so it crosses
the process boundary like every other pool option, and the injector
is deliberately dumb — no clocks, no randomness — so a fault test
(``tests/test_faults.py::TestKillMidStream`` and its neighbours)
replays identically.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence

#: Exit code of an injected crash — distinguishable from a real
#: segfault (negative signal) or a clean return (0) in test asserts.
FAULT_EXIT_CODE = 86

_ACTIONS = ("crash", "crash_before_reply", "crash_after_reply",
            "stall", "reject_load")
_OPS = ("start", "load", "search")


class FaultRule:
    """One scripted fault: *where* (op/shard/index/boot) and *what*."""

    __slots__ = ("op", "shard", "action", "index", "every", "from_boot",
                 "to_boot", "stall_s")

    def __init__(self, op: str, shard: int, action: str,
                 index: Optional[int] = 0, every: bool = False,
                 from_boot: int = 0, to_boot: Optional[int] = None,
                 stall_s: float = 3600.0) -> None:
        if op not in _OPS:
            raise ValueError(f"op must be one of {_OPS}, got {op!r}")
        if action not in _ACTIONS:
            raise ValueError(
                f"action must be one of {_ACTIONS}, got {action!r}")
        self.op = op
        self.shard = int(shard)
        self.action = action
        self.index = None if every else int(index or 0)
        self.every = bool(every)
        self.from_boot = int(from_boot)
        self.to_boot = None if to_boot is None else int(to_boot)
        self.stall_s = float(stall_s)

    def matches_boot(self, boot: int) -> bool:
        return (boot >= self.from_boot
                and (self.to_boot is None or boot <= self.to_boot))

    def to_wire(self) -> Dict:
        return {"op": self.op, "shard": self.shard, "action": self.action,
                "index": self.index, "every": self.every,
                "from_boot": self.from_boot, "to_boot": self.to_boot,
                "stall_s": self.stall_s}

    @classmethod
    def from_wire(cls, doc: Dict) -> "FaultRule":
        return cls(doc["op"], doc["shard"], doc["action"],
                   index=doc.get("index"), every=bool(doc.get("every")),
                   from_boot=doc.get("from_boot", 0),
                   to_boot=doc.get("to_boot"),
                   stall_s=doc.get("stall_s", 3600.0))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = "every" if self.every else f"#{self.index}"
        return (f"FaultRule({self.action} on {self.op} {where} of shard "
                f"{self.shard}, from_boot={self.from_boot})")


class FaultPlan:
    """A scripted set of :class:`FaultRule`\\ s with builder helpers."""

    def __init__(self, rules: Optional[Sequence[FaultRule]] = None) -> None:
        self.rules: List[FaultRule] = list(rules or ())

    # -------------------------------------------------- builders
    def crash_before_reply(self, shard: int, op: str = "search",
                           index: int = 0, every: bool = False,
                           from_boot: int = 0,
                           to_boot: Optional[int] = None) -> "FaultPlan":
        """Die after dequeuing the request, before any reply."""
        self.rules.append(FaultRule(op, shard, "crash_before_reply",
                                    index=index, every=every,
                                    from_boot=from_boot, to_boot=to_boot))
        return self

    def crash_after_reply(self, shard: int, index: int = 0,
                          from_boot: int = 0) -> "FaultPlan":
        """Reply normally, then die — the caller never notices."""
        self.rules.append(FaultRule("search", shard, "crash_after_reply",
                                    index=index, from_boot=from_boot))
        return self

    def stall(self, shard: int, index: int = 0, seconds: float = 3600.0,
              from_boot: int = 0,
              to_boot: Optional[int] = None) -> "FaultPlan":
        """Hang without replying (heartbeat-timeout fodder)."""
        self.rules.append(FaultRule("search", shard, "stall", index=index,
                                    from_boot=from_boot, to_boot=to_boot,
                                    stall_s=seconds))
        return self

    def reject_load(self, shard: int, index: int = 0, every: bool = False,
                    from_boot: int = 0,
                    to_boot: Optional[int] = None) -> "FaultPlan":
        """Raise from the next matching snapshot load."""
        self.rules.append(FaultRule("load", shard, "reject_load",
                                    index=index, every=every,
                                    from_boot=from_boot, to_boot=to_boot))
        return self

    def crash_on_start(self, shard: int,
                       from_boot: int = 1) -> "FaultPlan":
        """Die before loading anything — with the default
        ``from_boot=1`` the initial boot succeeds and every *restart*
        crashes, the crash-loop shape the quarantine tests need."""
        self.rules.append(FaultRule("start", shard, "crash", every=True,
                                    from_boot=from_boot))
        return self

    # -------------------------------------------------- wire
    def to_wire(self) -> List[Dict]:
        return [rule.to_wire() for rule in self.rules]

    @classmethod
    def from_wire(cls, docs: Optional[Sequence[Dict]]) -> "FaultPlan":
        return cls([FaultRule.from_wire(doc) for doc in docs or ()])

    def __bool__(self) -> bool:
        return bool(self.rules)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.rules!r})"


class FaultInjector:
    """The worker-side evaluator of one shard's slice of a plan.

    ``fire(op)`` advances the per-op counter and returns the first
    matching rule (or ``None``); crash/stall side effects are the
    caller's job *except* for the common inline helpers below, which
    keep the worker's call sites one line each.
    """

    def __init__(self, rules: Optional[Sequence[Dict]], shard: int,
                 boot: int) -> None:
        plan = FaultPlan.from_wire(rules)
        self._rules = [rule for rule in plan.rules
                       if rule.shard == shard and rule.matches_boot(boot)]
        self._counts: Dict[str, int] = {}

    def fire(self, op: str) -> Optional[FaultRule]:
        index = self._counts.get(op, 0)
        self._counts[op] = index + 1
        for rule in self._rules:
            if rule.op != op:
                continue
            if rule.every or rule.index == index:
                return rule
        return None

    # -------------------------------------------------- inline helpers
    @staticmethod
    def crash() -> None:
        """Die the way a segfault/OOM kill dies: no cleanup, no
        queue flushing, no atexit — ``os._exit``."""
        os._exit(FAULT_EXIT_CODE)

    @staticmethod
    def apply(rule: Optional[FaultRule]) -> Optional[FaultRule]:
        """Apply a *pre-reply* rule: crash or stall inline, pass
        ``crash_after_reply`` / ``reject_load`` back to the caller."""
        if rule is None:
            return None
        if rule.action in ("crash", "crash_before_reply"):
            FaultInjector.crash()
        if rule.action == "stall":
            time.sleep(rule.stall_s)
            return None
        return rule
