"""The repository benchmark: paper-method traffic on the live HTTP fleet.

One run builds (or reuses) the venue snapshot, starts the sharded
``IKRQServer`` fleet in a process of its own, and drives it over real
HTTP with an open-loop Poisson load from this process — at most two
sender threads, each holding one connection at a time.  Every ``ok``
answer it checks must be byte-identical to a sequential in-process
engine; any mismatch, failed request or broken workload gate makes
the run exit non-zero.

    python3 perfbench/run.py --workload cold-paper --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload hot-repeat --seed 1 --seconds 50 --trace 1
    python3 perfbench/run.py --steady 10 --workload all   # spread vs. bound

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

* ``setup_s`` — median, over seven server constructions, of the time
  from ``IKRQServer(...)`` to every shard holding the venue and the
  first ``ok`` answer,
* ``p50_ms`` / ``p95_ms`` / ``slo_ok_frac`` — at the workload's fixed
  offered rate, latency from the scheduled send instant, and the share
  of requests answered ``ok`` within the workload's latency limit,
* ``shard_rss_mb`` — the largest shard resident size at the end.

Between the fixed-rate windows the run searches the saturation rate
``sat_qps``: the Poisson rate at which p95 reaches the limit, with no
failures and no growing backlog — bracketed by a failing step,
bisected, then read off a fit of p95 against rate over every step,
kept within the final bracket.  It goes into the record, and a run
whose search ends unbracketed fails, but it is not an end-to-end
metric: it follows the spare capacity of the whole 2-core host, which
on a shared host swings between runs about twice as far as the
latencies do, beyond any bound the benchmark may set.  Windows and
steps alternate, so each kind of measurement spans the whole run.

The ``POST /delta`` path is measured by the traced run only
(``dynamic.delta_ms``); no timed workload writes.

``--trace 1`` runs the fixed-rate traffic once untraced and once with
every request traced, and reports the per-layer metrics (``layers.py``).
The last line of standard output is the result object; the line
before it is a JSON record of the run's environment, gates and details.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

try:
    from repro.serve.wire import query_to_wire
except ImportError as exc:  # not run from a checkout of the program
    print(f"perfbench: cannot import the program from "
          f"{HERE.parent / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)

import checks  # noqa: E402
import loadgen  # noqa: E402
from loadgen import Fleet, Item  # noqa: E402
from venue import Venue, query_stream, take  # noqa: E402
from workloads import (FIXED_SHARE, MIX, SAT_FACTOR,  # noqa: E402
                       SAT_MAX_STEPS, SAT_STEPS, SAT_WIDTH, VENUE_ID,
                       WORKLOADS, Traffic, Workload, search_body)

SETUPS = 7
#: ``ok`` answers byte-checked per run where every query is distinct.
COLD_SAMPLE = 30
MIN_FIXED_SAMPLES = 200   # ≥ 10 samples beyond p95
WARM_QUERIES = 12


# ----------------------------------------------------------------------
# Pieces shared by the timed and traced runs
# ----------------------------------------------------------------------
def start_fleet(venue: Venue, setups: int = SETUPS) -> Fleet:
    """The fleet, first answering a fixed query (independent of seed)."""
    query = take(query_stream(venue, endpoint_pairs=1), 1)[0]
    probe = {"venue": VENUE_ID, "query": query_to_wire(query),
             "algorithm": "ToE"}
    return Fleet(VENUE_ID, venue.snapshot, probe, setups)


def warm(port: int, traffic: Traffic) -> None:
    """Fill the answer caches of a repeating pool and run every code
    path once with queries outside the timed traffic."""
    items = traffic.prewarm_items()
    for i, query in enumerate(traffic.fresh_queries(WARM_QUERIES)):
        items.append(Item(0.0, "/search",
                          search_body(query, MIX[i % len(MIX)][0])))
    for item in items:
        code, raw = loadgen.request(port, "POST", "/search", item.body)
        if code != 200:
            raise RuntimeError(f"warm-up request failed: HTTP {code} {raw!r}")


def in_flight(rate: float, workload: Workload) -> float:
    """Requests a step may hold in flight without a growing queue: one
    per sender, plus those that arrive within the latency limit."""
    return loadgen.SENDERS + rate * workload.limit_ms / 1000.0


def judge(result: loadgen.PhaseResult, rate: float,
          workload: Workload) -> Dict:
    """One saturation step's verdict."""
    lat = loadgen.phase_latency(result, workload.limit_ms)
    backlog_ok = result.backlog_at_end <= in_flight(rate, workload)
    passed = (not result.stopped_early and lat["failed"] == 0
              and lat["p95_ms"] <= workload.limit_ms and backlog_ok)
    return {"rate_qps": rate, "passed": passed,
            "stopped_early": result.stopped_early,
            "backlog_at_end": result.backlog_at_end, **lat}


def sat_start(fixed: loadgen.PhaseResult, workload: Workload) -> float:
    """The first saturation step's rate, from a fixed-rate window's
    median round trip: the program's speed on this host in this run."""
    rtt_ms = loadgen.median([it.rtt_ms for it in fixed.searches()
                             if it.ok])
    return workload.sat_start_share * loadgen.SENDERS * 1000.0 / rtt_ms


def max_backlog(rate: float, workload: Workload) -> int:
    """A backlog at which a step has clearly failed and stops early."""
    return int(3.0 * in_flight(rate, workload))


def shard_rss_mb(scrape: Dict[str, float]) -> float:
    values = [v for k, v in scrape.items()
              if k.startswith("ikrq_shard_rss_bytes{")]
    return max(values) / 2.0 ** 20 if values else 0.0


def counter_delta(before: Dict[str, float], after: Dict[str, float],
                  name: str, **labels) -> float:
    return (loadgen.metric_sum(after, name, **labels)
            - loadgen.metric_sum(before, name, **labels))


def answer_hit_ratio(before: Dict[str, float],
                     after: Dict[str, float]) -> float:
    hits = counter_delta(before, after, "ikrq_shard_answer_hits",
                         lacks_label="venue")
    misses = counter_delta(before, after, "ikrq_shard_answer_misses",
                           lacks_label="venue")
    return hits / (hits + misses) if hits + misses else 0.0


def workload_gates(workload: Workload, identity: Dict,
                   hit_ratio: float) -> Dict[str, bool]:
    """The checks that make a run's numbers mean what they claim."""
    return {
        "identity_checked": identity["checked"] > 0,
        "identity_identical": identity["mismatches"] == 0,
        "nonempty_answers": identity["nonempty_frac"] >= 0.9,
        # Distinct queries must miss the answer cache; a pre-warmed
        # repeating pool must hit it.
        "answer_cache_regime": (hit_ratio <= 0.02 if workload.pool is None
                                else hit_ratio >= 0.99),
    }


def environment(seed: int, workload: Workload, seconds: int) -> Dict:
    return {"seed": seed, "seconds": seconds, "cores": os.cpu_count(),
            "python": platform.python_version(),
            "workload": {**vars(workload), "fixed_share": FIXED_SHARE,
                         "sat_steps": SAT_STEPS,
                         "sat_max_steps": SAT_MAX_STEPS,
                         "sat_factor": SAT_FACTOR, "sat_width": SAT_WIDTH}}


def finish(metrics: Dict, record: Dict, attempted: int,
           failed: int) -> Dict:
    record["gates"]["metrics_finite"] = all(
        math.isfinite(value) for value, _ in metrics.values())
    correct = all(record["gates"].values())
    return {"record": record,
            "result": {"correct": correct, "attempted": attempted,
                       "failed": failed,
                       "metrics": {name: {"value": value if math.isfinite(
                                                  value) else 0.0,
                                          "unit": unit}
                                   for name, (value, unit)
                                   in metrics.items()}}}


# ----------------------------------------------------------------------
# Timed run (--trace 0)
# ----------------------------------------------------------------------
def timed_run(workload: Workload, seed: int, seconds: int) -> Dict:
    venue = Venue()
    traffic = Traffic(workload, venue, seed)
    reference = checks.Reference(venue)
    window_s = seconds * FIXED_SHARE / SAT_STEPS
    step_s = seconds * (1.0 - FIXED_SHARE) / SAT_STEPS
    phases: List[loadgen.PhaseResult] = []
    windows: List[loadgen.PhaseResult] = []
    with start_fleet(venue) as fleet:
        warm(fleet.port, traffic)
        before = loadgen.scrape_metrics(fleet.port)

        # Fixed-rate windows and saturation steps alternate, so both
        # kinds of measurement span the whole run and a slow spell of
        # the host weighs on them alike.
        def fixed_window() -> None:
            result = loadgen.run_phase(
                fleet.port, traffic.phase_items(workload.rate_qps, window_s))
            phases.append(result)
            windows.append(result)

        def step(rate: float) -> Dict:
            result = loadgen.run_phase(
                fleet.port, traffic.step_items(rate, step_s),
                max_backlog(rate, workload))
            phases.append(result)
            if len(windows) < SAT_STEPS:
                fixed_window()
            return judge(result, rate, workload)

        fixed_window()
        sat = loadgen.saturation_search(
            step, sat_start(windows[0], workload), SAT_FACTOR,
            workload.limit_ms, SAT_STEPS, SAT_MAX_STEPS, SAT_WIDTH)
        after = loadgen.scrape_metrics(fleet.port)
        rss = shard_rss_mb(after)

    fixed = loadgen.PhaseResult.pooled(windows)
    items = [it for phase in phases for it in phase.items]
    identity = checks.verify(items, traffic.queries, reference,
                             COLD_SAMPLE if workload.pool is None else None,
                             seed)
    latency = loadgen.phase_latency(fixed, workload.limit_ms)
    hit_ratio = answer_hit_ratio(before, after)
    failed = sum(1 for it in items if not it.ok)
    gates = workload_gates(workload, identity, hit_ratio)
    # A failing rate was observed and bisection narrowed the bracket.
    gates["sat_bracketed"] = (sat["bracket_width"] is not None
                              and sat["bracket_width"] <= SAT_WIDTH)
    gates["fixed_phase_samples"] = (
        latency["attempted"] - latency["failed"] >= MIN_FIXED_SAMPLES)
    gates["no_failures"] = failed == 0
    metrics = {
        "setup_s": (loadgen.median(fleet.setup_s), "s"),
        "p50_ms": (latency["p50_ms"], "ms"),
        "p95_ms": (latency["p95_ms"], "ms"),
        "slo_ok_frac": (latency["slo_ok_frac"], "frac"),
        "shard_rss_mb": (rss, "MB"),
    }
    record = {"environment": environment(seed, workload, seconds),
              "venue": venue.describe(), "gates": gates,
              "identity": identity, "answer_hit_ratio": hit_ratio,
              "fixed_phase": latency, "saturation": sat,
              "setup_runs_s": fleet.setup_s,
              "gen_cpu_frac": fixed.cpu_s / fixed.wall_s}
    return finish(metrics, record, len(items), failed)


def report(name: str, out: Dict) -> str:
    lines = [f"perfbench {name}:"]
    for metric, doc in out["result"]["metrics"].items():
        lines.append(f"  {metric:36s} {doc['value']:14.4f} {doc['unit']}")
    failed = [g for g, ok in out["record"]["gates"].items() if not ok]
    lines.append("  gates: " + ("FAILED " + ", ".join(failed) if failed
                                else "all passed"))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="cold-paper",
                        help="a workload name, or 'all' with --steady")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run each workload N times, seeds --seed "
                             "onwards, and print spreads against the bounds")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or int(spec["run_seconds"])
    if args.steady:
        import steady
        return steady.main(spec, args.workload, args.steady, args.seed,
                           seconds, args.trace)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    loadgen.pin_client()
    if args.trace:
        import layers
        out = layers.traced_run(workload, args.seed, seconds)
    else:
        out = timed_run(workload, args.seed, seconds)
    print(report(workload.name, out), file=sys.stderr)
    print(json.dumps(out["record"], default=str))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
