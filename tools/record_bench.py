#!/usr/bin/env python
"""Append one ``perfbench/run.py`` result to ``BENCH_throughput.json``.

``perfbench/run.py`` prints its result object as the last line of
standard output, after a record of the run.  This tool appends that
object to the trajectory as a ``perfbench`` entry, together with the
workload, seed and length from the record, the host's core count, the
git revision that was measured and a required note on why the numbers
moved, so every point of the perf history explains itself::

    python3 perfbench/run.py --workload cold-paper --seed 1 > run.out
    python tools/record_bench.py run.out --why "floor-indexed point location"
    python tools/record_bench.py parent.out --rev 5632804 --why "baseline"

The input may also come on standard input.  ``--rev`` defaults to the
``HEAD`` of this checkout; pass it when the run measured another
revision (a clean copy of the parent commit, say).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.bench.reporting import append_trajectory  # noqa: E402


def last_json_line(text: str) -> Dict:
    """The JSON object on the last non-blank line of ``text``."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output to record")
    result = json.loads(lines[-1])
    if not isinstance(result, dict):
        raise ValueError("the last line is not a JSON object")
    return result


def run_of(text: str) -> Dict:
    """Workload, seed and length from the run record, when present.

    The record is the line before the result; output without one (or
    with another shape) yields an empty dict.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    try:
        env = json.loads(lines[-2])["environment"]
        return {"workload": env["workload"]["name"], "seed": env["seed"],
                "seconds": env["seconds"]}
    except (IndexError, ValueError, KeyError, TypeError):
        return {}


def head_revision() -> str:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def make_entry(text: str, why: str, rev: str,
               cores: Optional[int] = None) -> Dict:
    """The trajectory entry for one run's standard output."""
    if not why.strip():
        raise ValueError("--why must say why the numbers moved")
    return {"mode": "perfbench", "result": last_json_line(text),
            **run_of(text),
            "cores": cores if cores is not None else os.cpu_count(),
            "git_rev": rev, "why": why.strip()}


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input", nargs="?",
                        help="perfbench standard output (default: stdin)")
    parser.add_argument("--why", required=True,
                        help="why the numbers moved (required)")
    parser.add_argument("--rev", help="measured git revision "
                                      "(default: HEAD of this checkout)")
    parser.add_argument("--trajectory", default=str(
        ROOT / "BENCH_throughput.json"), help="trajectory file to append to")
    args = parser.parse_args(argv)
    text = (Path(args.input).read_text(encoding="utf-8") if args.input
            else sys.stdin.read())
    try:
        entry = make_entry(text, args.why, args.rev or head_revision())
    except ValueError as exc:
        parser.error(str(exc))
    append_trajectory(args.trajectory, entry)
    print(f"record_bench: appended {entry['git_rev'][:12]} "
          f"({entry['cores']} cores) to {args.trajectory}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
