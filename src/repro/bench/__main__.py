"""Command-line runner for the paper's experiments.

Regenerate any figure of the evaluation (Section V)::

    python -m repro.bench fig05                 # one figure, CI scale
    python -m repro.bench fig05 --scale 1.0     # paper-size venue
    python -m repro.bench all --scale 0.25      # every figure
    python -m repro.bench --list                # figure index
    python -m repro.bench scale --smoke         # array core vs. dict core

Each figure prints its time (and, where applicable, memory /
homogeneous-rate) series in the same axes as the paper.  Absolute
milliseconds are not comparable to the authors' Java testbed; the
*shapes* — who wins, by what factor, where crossovers fall — are what
the reproduction tracks (see EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.bench import experiments as E
from repro.bench import scale as S
from repro.bench.reporting import format_series

#: Which series to print per figure: (x key, metrics).
FIGURE_AXES = {
    "fig04": ("setting", ("time_ms",)),
    "fig05": ("k", ("time_ms",)),
    "fig06_07": ("qw", ("time_ms", "memory_mb")),
    "fig08_09": ("eta", ("time_ms", "memory_mb")),
    "fig10": ("beta", ("time_ms",)),
    "fig11": ("floors", ("time_ms",)),
    "fig12": ("s2t", ("time_ms",)),
    "fig13_14": ("eta", ("time_ms", "memory_mb")),
    "fig15": ("eta", ("time_ms",)),
    "fig16": ("k", ("homogeneous_rate",)),
    "fig17_18": ("qw", ("time_ms", "memory_mb")),
    "fig19": ("eta", ("time_ms",)),
    "fig20": ("qw", ("homogeneous_rate",)),
}

DESCRIPTIONS = {
    "fig04": "default-setting overview of all seven algorithms",
    "fig05": "running time vs. k",
    "fig06_07": "time and memory vs. |QW|",
    "fig08_09": "time and memory vs. eta",
    "fig10": "time vs. i-word fraction beta (ToE vs KoE)",
    "fig11": "time vs. floor count (ToE vs KoE)",
    "fig12": "time vs. start-terminal distance (ToE vs KoE)",
    "fig13_14": "KoE vs KoE*: time and memory vs. eta",
    "fig15": "ToE vs ToE\\P: time vs. eta",
    "fig16": "ToE\\P homogeneous rate vs. k",
    "fig17_18": "real data: time and memory vs. |QW|",
    "fig19": "real data: time vs. eta",
    "fig20": "real data: ToE\\P homogeneous rate vs. |QW|",
}

#: The one non-figure experiment (not in the paper).
SCALE_DESCRIPTION = ("array-native core vs. the retained dict core on "
                     "growing synthetic malls (identity-verified, with "
                     "latency percentiles and snapshot cold-start times)")


def run_figure(figure: str, scale: float, instances: int,
               repeats: int) -> dict:
    func = E.REGISTRY[figure]
    x_key, metrics = FIGURE_AXES[figure]
    print(f"\n=== {figure}: {DESCRIPTIONS[figure]} "
          f"(scale={scale}, instances={instances}, repeats={repeats}) ===")
    started = time.perf_counter()
    results = func(scale=scale, instances=instances, repeats=repeats)
    elapsed = time.perf_counter() - started
    for metric in metrics:
        print(f"\n[{metric}]")
        print(format_series(results, x_key, metric))
    print(f"\n({figure} completed in {elapsed:.1f}s)")
    return {
        "figure": figure,
        "description": DESCRIPTIONS[figure],
        "x_key": x_key,
        "elapsed_seconds": round(elapsed, 3),
        "settings": [
            {
                "setting": r.setting,
                "runs": {
                    name: {
                        "time_ms": run.avg_time_ms,
                        "memory_mb": run.avg_memory_mb,
                        "routes": run.avg_routes,
                        "homogeneous_rate": run.avg_homogeneous_rate,
                    }
                    for name, run in r.runs.items()
                },
            }
            for r in results
        ],
    }


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "scale":
        # The scale bench owns its own CLI (--floors, --smoke, ...):
        # `python -m repro.bench scale --floors 10`.
        return S.main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the paper's evaluation figures.")
    parser.add_argument("figures", nargs="*",
                        help="figure ids (e.g. fig05), or 'all'")
    parser.add_argument("--list", action="store_true",
                        help="list available figures")
    parser.add_argument("--scale", type=float, default=E.DEFAULT_SCALE,
                        help="venue scale; 1.0 = paper size "
                             f"(default {E.DEFAULT_SCALE})")
    parser.add_argument("--instances", type=int, default=E.DEFAULT_INSTANCES,
                        help="query instances per setting (paper: 10)")
    parser.add_argument("--repeats", type=int, default=E.DEFAULT_REPEATS,
                        help="runs per instance (paper: 5)")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write results to this JSON file")
    args = parser.parse_args(argv)

    if args.list or not args.figures:
        print("available figures:")
        for fig in E.REGISTRY:
            print(f"  {fig:10s} {DESCRIPTIONS[fig]}")
        print(f"  {'scale':10s} {SCALE_DESCRIPTION}")
        return 0

    figures = list(E.REGISTRY) if "all" in args.figures else args.figures
    if "scale" in figures:
        parser.error("run the scale bench as its own command: "
                     "python -m repro.bench scale [--floors ...]")
    unknown = [f for f in figures if f not in E.REGISTRY]
    if unknown:
        parser.error(f"unknown figures: {unknown}; use --list")
    documents = [run_figure(figure, args.scale, args.instances, args.repeats)
                 for figure in figures]
    if args.json is not None:
        args.json.write_text(json.dumps({
            "scale": args.scale,
            "instances": args.instances,
            "repeats": args.repeats,
            "figures": documents,
        }, indent=1))
        print(f"\nresults written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
