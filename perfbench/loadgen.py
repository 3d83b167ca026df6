"""Open-loop HTTP load against the fleet process.

A pacer thread releases each request at its scheduled instant into a
FIFO; at most two sender threads, each holding one connection at a
time, take requests from it.  When the fleet falls behind, requests
wait in the FIFO and their latency — always measured from the
scheduled instant — grows, so a stall cannot hide (no coordinated
omission).
"""

from __future__ import annotations

import http.client
import json
import math
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

SENDERS = 2
REQUEST_TIMEOUT_S = 60.0
FLEET_START_TIMEOUT_S = 120.0


# ----------------------------------------------------------------------
# Fleet process
# ----------------------------------------------------------------------
def placement() -> Optional[Tuple[int, int]]:
    """``(client core, fleet front-end core)``, or ``None`` on one core.

    Pinning the load generator and the fleet's HTTP front end to
    different cores keeps the scheduler from stacking the two
    interpreter-bound processes on one core in some runs and not in
    others — a bimodal run-to-run swing as large as the effects the
    benchmark must resolve.  It mirrors a client on another host.
    """
    if not hasattr(os, "sched_getaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[-1]) if len(cpus) >= 2 else None


def pin_client() -> None:
    """Pin this process (call before it starts any thread)."""
    cpus = placement()
    if cpus is not None:
        os.sched_setaffinity(0, {cpus[0]})


class Fleet:
    """Runs ``fleet.py`` in its own process group and stops all of it."""

    def __init__(self, venue: str, snapshot: Path, probe: Dict,
                 setups: int) -> None:
        root = Path(__file__).resolve().parent.parent
        cmd = [sys.executable, str(Path(__file__).with_name("fleet.py")),
               "--venue", venue, "--snapshot", str(snapshot),
               "--setups", str(setups), "--probe", json.dumps(probe)]
        self.proc = subprocess.Popen(
            cmd, cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            start_new_session=True)
        line: List[bytes] = []
        reader = threading.Thread(
            target=lambda: line.append(self.proc.stdout.readline()),
            daemon=True)
        reader.start()
        reader.join(FLEET_START_TIMEOUT_S)
        doc = json.loads(line[0]) if line and line[0] else {}
        if "port" not in doc:
            self.stop()
            raise RuntimeError(f"fleet failed to start: {doc or 'no output'}")
        self.port = int(doc["port"])
        self.setup_s: List[float] = [float(v) for v in doc["setup_s"]]
        cpus = placement()
        if cpus is not None:
            # The front end's threads (and the handler threads they
            # start) keep to the fleet's core.  Each shard keeps to one
            # core as well, one shard per core, so the engine work does
            # not migrate between cores (and lose its caches) in some
            # runs and not in others.
            task = f"/proc/{self.proc.pid}/task"
            shards = []
            for tid in os.listdir(task):
                try:
                    os.sched_setaffinity(int(tid), {cpus[1]})
                    with open(f"{task}/{tid}/children") as fh:
                        shards += [int(pid) for pid in fh.read().split()]
                except (ProcessLookupError, FileNotFoundError):
                    pass  # a thread that just ended
            for i, pid in enumerate(sorted(shards)):
                os.sched_setaffinity(pid, {cpus[i % len(cpus)]})

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30.0)
            except (OSError, subprocess.TimeoutExpired):
                pass
        try:  # the shards live in the fleet's process group
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
def request(port: int, method: str, path: str,
            body: Optional[bytes] = None) -> Tuple[int, bytes]:
    """One request on a fresh connection; ``(code, body)``, code 0 on a
    transport failure."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    except (OSError, http.client.HTTPException) as exc:
        return 0, repr(exc).encode()
    finally:
        conn.close()


def get_json(port: int, path: str) -> Dict:
    code, raw = request(port, "GET", path)
    try:
        return json.loads(raw)
    except ValueError:
        return {"status": "transport_error", "code": code}


def scrape_metrics(port: int) -> Dict[str, float]:
    """``/metrics`` flattened to ``"name{labels}" -> value``."""
    code, raw = request(port, "GET", "/metrics")
    if code != 200:
        raise RuntimeError(f"/metrics answered HTTP {code}")
    out: Dict[str, float] = {}
    for line in raw.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            out[name] = float(value)
        except ValueError:
            continue
    return out


def metric_sum(scrape: Dict[str, float], name: str,
               has_label: Optional[str] = None,
               lacks_label: Optional[str] = None) -> float:
    """Sum every series of ``name``, filtered on label presence."""
    total = 0.0
    for key, value in scrape.items():
        base, _, labels = key.partition("{")
        if base != name:
            continue
        if has_label and f'{has_label}="' not in labels:
            continue
        if lacks_label and f'{lacks_label}="' in labels:
            continue
        total += value
    return total


# ----------------------------------------------------------------------
# Open-loop phases
# ----------------------------------------------------------------------
@dataclass
class Item:
    """One scheduled request: ``at_s`` is its intended offset."""

    at_s: float
    path: str
    body: bytes
    key: Tuple = ()
    code: int = -1
    raw: bytes = b""
    enqueued: float = math.nan
    started: float = math.nan
    ended: float = math.nan

    @property
    def ok(self) -> bool:
        return self.code == 200

    @property
    def latency_ms(self) -> float:
        return (self.ended - self.at_s) * 1000.0

    @property
    def rtt_ms(self) -> float:
        return (self.ended - self.started) * 1000.0


@dataclass
class PhaseResult:
    items: List[Item]          # the released requests, answered
    backlog_at_end: int        # released but unfinished at the last release
    stopped_early: bool
    wall_s: float
    cpu_s: float               # this process's CPU time over the phase

    def searches(self) -> List[Item]:
        return [it for it in self.items if it.path == "/search"]

    @classmethod
    def pooled(cls, results: Sequence["PhaseResult"]) -> "PhaseResult":
        """Several phases at one rate, taken as one."""
        return cls([it for r in results for it in r.items],
                   max(r.backlog_at_end for r in results),
                   any(r.stopped_early for r in results),
                   sum(r.wall_s for r in results),
                   sum(r.cpu_s for r in results))


def poisson_times(rate: float, duration_s: float, rng) -> List[float]:
    """Poisson arrivals conditioned on their expected count: that many
    uniform instants, sorted.  Gaps stay exponential-like (clumps and
    lulls included); only the run-to-run count noise is gone."""
    count = max(1, round(rate * duration_s))
    return sorted(rng.uniform(0.0, duration_s) for _ in range(count))


def run_phase(port: int, items: Sequence[Item],
              max_backlog: Optional[int] = None) -> PhaseResult:
    """Release ``items`` open-loop; returns once every released one is
    answered.  With ``max_backlog``, the pacer stops releasing once more
    than that many requests wait or run (the step has clearly failed);
    the unreleased rest is never attempted."""
    fifo: "queue.Queue[Optional[Item]]" = queue.Queue()
    done = [0]
    lock = threading.Lock()
    t0 = time.perf_counter() + 0.01

    def sender() -> None:
        while True:
            item = fifo.get()
            if item is None:
                return
            item.started = time.perf_counter() - t0
            item.code, item.raw = request(port, "POST", item.path, item.body)
            item.ended = time.perf_counter() - t0
            with lock:
                done[0] += 1

    threads = [threading.Thread(target=sender, daemon=True)
               for _ in range(SENDERS)]
    for thread in threads:
        thread.start()
    cpu0 = os.times()
    released: List[Item] = []
    stopped = False
    backlog = 0
    for item in items:
        delay = item.at_s - (time.perf_counter() - t0)
        if delay > 0.0:
            time.sleep(delay)
        with lock:
            backlog = len(released) - done[0]
        if max_backlog is not None and backlog > max_backlog:
            stopped = True
            break
        item.enqueued = time.perf_counter() - t0
        released.append(item)
        fifo.put(item)
    with lock:
        backlog = len(released) - done[0]
    for _ in threads:
        fifo.put(None)
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    cpu1 = os.times()
    cpu = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    return PhaseResult(released, backlog, stopped, wall, cpu)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        return math.nan
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


#: Fewest samples a window's p95 is taken over (≥ 10 beyond it).
WINDOW_SAMPLES = 200


def windowed(values: Sequence[float], q: float) -> float:
    """The median, over consecutive windows of at least
    ``WINDOW_SAMPLES`` values, of each window's ``q`` percentile.

    A phase too short for two windows is one window.  With several, a
    host stall that lands in one window moves that window's tail but
    not the median across windows.
    """
    count = max(1, len(values) // WINDOW_SAMPLES)
    size = len(values) / count
    return median([percentile(values[round(i * size):round((i + 1) * size)],
                              q) for i in range(count)])


def phase_latency(result: PhaseResult, limit_ms: float) -> Dict:
    """p50/p95 from intended send time, SLO share, failures."""
    searches = result.searches()
    ok = [it.latency_ms for it in searches if it.ok]
    within = sum(1 for it in searches if it.ok and it.latency_ms <= limit_ms)
    return {
        "attempted": len(searches),
        "failed": sum(1 for it in searches if not it.ok),
        "p50_ms": windowed(ok, 50),
        "p95_ms": windowed(ok, 95),
        "slo_ok_frac": within / len(searches) if searches else 0.0,
        "send_lag_p95_ms": percentile(
            [(it.enqueued - it.at_s) * 1000.0 for it in result.items], 95),
    }


# ----------------------------------------------------------------------
# Saturation search
# ----------------------------------------------------------------------
def _bracket_width(lo: Optional[Dict], hi: Optional[Dict]) -> float:
    if lo is None or hi is None:
        return math.inf
    return hi["rate_qps"] / lo["rate_qps"] - 1.0


def saturation_search(step: Callable[[float], Dict], start_rate: float,
                      factor: float, limit_ms: float, count: int,
                      max_count: int, width: float) -> Dict:
    """Bracket, then bisect, the highest rate a step passes at.

    Rates climb (or fall) by ``factor`` until a passing and a failing
    step bracket the saturation rate, and then bisect the bracket.
    ``count`` steps run in every run.  Only when they end without a
    bracket of at most ``width`` (the host changed speed after the
    start rate was chosen, or one step's p95 was a fluke) do more
    steps follow, up to ``max_count``, so a slow spell of a shared host
    lengthens a run instead of failing it.  The reported ``sat_qps`` is
    where a least-squares line through every step's (log rate, log p95)
    crosses ``limit_ms``, kept within the final bracket.  One step's
    p95 near saturation is noisy (a few arrival clumps set it); the fit
    averages that noise over all steps instead of resting on the two
    that happen to end the bracket.
    """
    lo = hi = None
    rate = start_rate
    steps: List[Dict] = []
    while len(steps) < max_count and (len(steps) < count or
                                      _bracket_width(lo, hi) > width):
        verdict = step(rate)
        steps.append(verdict)
        if verdict["passed"]:
            lo = verdict if lo is None or rate > lo["rate_qps"] else lo
        else:
            hi = verdict if hi is None or rate < hi["rate_qps"] else hi
        if hi is None:
            rate *= factor
        elif lo is None:
            rate /= factor
        else:
            rate = math.sqrt(lo["rate_qps"] * hi["rate_qps"])
    if lo is None or hi is None:
        return {"sat_qps": lo["rate_qps"] if lo else 0.0,
                "bracket_width": None, "steps": steps}
    lo_rate, hi_rate = lo["rate_qps"], hi["rate_qps"]
    points = [(math.log(s["rate_qps"]), math.log(s["p95_ms"]))
              for s in steps if s["p95_ms"] > 0.0]
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    slope = (sum((x - mx) * (y - my) for x, y in points) / sxx
             if sxx else 0.0)
    if slope > 0.0:
        sat = math.exp(mx + (math.log(limit_ms) - my) / slope)
    else:  # p95 did not rise with rate: take the bracket's middle
        sat = math.sqrt(lo_rate * hi_rate)
    return {"sat_qps": min(hi_rate, max(lo_rate, sat)),
            "bracket": [lo_rate, hi_rate],
            "bracket_width": _bracket_width(lo, hi), "fit_slope": slope,
            "steps": steps}
