"""Steadiness mode: repeat each workload and compare spreads to bounds.

``run.py --steady N --seed S`` runs every chosen workload N times,
seeds S..S+N-1, each in a fresh process exactly as a single run would,
and prints per end-to-end metric the median, the quartiles
(``statistics.quantiles``, n=4) and the spread — the interquartile
distance as a share of the median — next to the metric's ``bound`` in
``BENCHMARK.json``.  A spread must stay within its bound and should
stay below a third of it; the spread of ``setup_s`` is printed but not
judged, since only its median is compared between two sets of runs.
Exits non-zero when any run fails or any judged spread is over bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        try:
            gates = json.loads(lines[-2])["gates"]
            why = ", ".join(g for g, ok in gates.items() if not ok)
        except (IndexError, KeyError, ValueError):
            why = "no record"
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"(exit {proc.returncode}: {why})")
    sat = json.loads(lines[-2]).get("saturation")
    if sat:  # the search behind the gate, for the log
        result["search"] = (f"sat_qps={sat['sat_qps']:.4g} "
                            f"steps={len(sat['steps'])}")
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


#: Metrics whose spread is reported but not judged.
UNJUDGED = ("setup_s",)


def main(spec: Dict, workload: str, runs: int, first_seed: int,
         seconds: int, trace: int) -> int:
    names = ([w["name"] for w in spec["workloads"]] if workload == "all"
             else [workload])
    metrics = spec["per_layer" if trace else "end_to_end"]
    status = 0
    for name in names:
        values: Dict[str, List[float]] = {m["name"]: [] for m in metrics}
        for seed in range(first_seed, first_seed + runs):
            try:
                result = one_run(name, seed, seconds, trace)
            except RuntimeError as exc:
                print(f"  {exc}", flush=True)
                status = 1
                continue
            for metric, doc in result["metrics"].items():
                values.setdefault(metric, []).append(doc["value"])
            print(f"  {name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                + f" {result.get('search', '')}", flush=True)
        print(f"{name}: {runs} runs x {seconds} s")
        for metric in metrics:
            series = values.get(metric["name"], [])
            if len(series) < 2:
                continue
            s = spread(series)
            bound = metric.get("bound")
            verdict = ""
            if metric["name"] in UNJUDGED:
                verdict = "not judged"
            elif bound is not None:
                verdict = ("ok" if s["spread"] <= bound / 3.0 else
                           "within bound" if s["spread"] <= bound else
                           "OVER BOUND")
                if verdict == "OVER BOUND":
                    status = 1
            print(f"  {metric['name']:30s} median {s['median']:12.4f} "
                  f"q1 {s['q1']:12.4f} q3 {s['q3']:12.4f} "
                  f"spread {s['spread']:7.3f}"
                  + (f"  bound {bound:5.2f} {verdict}" if bound else ""))
    return status
