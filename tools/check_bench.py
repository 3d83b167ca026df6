#!/usr/bin/env python
"""Schema validator for ``BENCH_throughput.json`` trajectories.

Every bench harness appends one entry per run; a malformed append
(missing verdict keys, wrong envelope, clock skew) would silently
corrupt the perf history that later sessions diff against.  This
checker fails fast instead.  It validates:

* the envelope — ``{"format": "repro-bench-trajectory", "version": 1,
  "entries": [...]}``,
* every entry's ``mode`` is known and carries that mode's required
  keys (the per-kind contract below),
* ``recorded_unix`` is present, numeric, plausibly a real timestamp,
  and monotonically non-decreasing across the file (appends only —
  a reordered or hand-edited history is an error),
* soak entries additionally carry reproducible phase configs (seed +
  process + a ``schedule_sha256`` fingerprint per phase).

Run it locally or in CI (exit 0 clean, 1 with findings)::

    python tools/check_bench.py                      # repo trajectory
    python tools/check_bench.py /tmp/some_traj.json  # explicit paths
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

ENVELOPE_FORMAT = "repro-bench-trajectory"
ENVELOPE_VERSION = 1

#: Required top-level keys per bench kind.  Deliberately the *stable
#: contract* subset, not every key a mode happens to emit today.
REQUIRED_KEYS: Dict[str, Tuple[str, ...]] = {
    "batched": ("venue", "algorithm", "queries", "workers",
                "sequential_qps", "batched_qps", "speedup",
                "verified_identical"),
    "serve": ("venue", "algorithm", "queries", "workers",
              "threaded_qps", "sharded_qps", "speedup",
              "verified_identical"),
    "scale": ("venue", "algorithm", "floors", "partitions", "doors",
              "array_qps", "dict_qps", "latency_ms", "cold_start",
              "verified_identical"),
    "tenancy": ("venues", "shards", "queries", "qps", "shed_rate",
                "swap", "latency_ms", "verified_identical"),
    "memory": ("budget_bytes", "tenants_eager", "tenants_tiered",
               "tenant_ratio", "spill", "verified_identical"),
    "chaos": ("venues", "shards", "kills_planned", "kills_fired",
              "failovers", "statuses", "latency_ms", "shed_rate",
              "zero_non_shed_failures", "recovered", "p99_bounded",
              "verified_identical"),
    "soak": ("config", "slo", "phases", "saturation_qps",
             "slo_gates_met", "zero_non_shed_failures",
             "surge_recovered", "surge_overlay_identical",
             "verified_identical"),
    # Appended by tools/record_bench.py from a perfbench/run.py run.
    "perfbench": ("result", "cores", "git_rev", "why"),
}

#: Keys every phase record of a soak entry must carry for the run to
#: be reproducible and judgeable from the trajectory alone.
SOAK_PHASE_KEYS = ("phase", "config", "schedule_sha256", "offered_qps",
                   "achieved_qps", "shed_rate", "failed",
                   "latency_from_intended_ms", "spot_checks")

#: ``recorded_unix`` sanity range: 2020..2100.
_TS_MIN, _TS_MAX = 1_577_836_800, 4_102_444_800


def _check_soak(entry: Dict, where: str, problems: List[str]) -> None:
    phases = entry.get("phases")
    if not isinstance(phases, list) or not phases:
        problems.append(f"{where}: soak entry has no phases")
        return
    surge = entry.get("surge")
    for phase in phases + ([surge] if isinstance(surge, dict) else []):
        name = phase.get("phase", "?")
        missing = [key for key in SOAK_PHASE_KEYS if key not in phase]
        if missing:
            problems.append(f"{where} phase {name!r}: missing keys "
                            f"{missing}")
            continue
        config = phase["config"]
        if not isinstance(config, dict) or "seed" not in config \
                or "process" not in config:
            problems.append(f"{where} phase {name!r}: config is not "
                            f"reproducible (needs seed + process)")
        digest = phase["schedule_sha256"]
        if not (isinstance(digest, str) and len(digest) == 64):
            problems.append(f"{where} phase {name!r}: schedule_sha256 "
                            f"is not a sha256 hex digest")


def check_trajectory(path: Path) -> List[str]:
    """All schema problems of one trajectory file (empty = clean)."""
    problems: List[str] = []
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable trajectory: {exc}"]
    if not isinstance(doc, dict):
        return [f"{path}: envelope must be a JSON object"]
    if doc.get("format") != ENVELOPE_FORMAT:
        problems.append(f"{path}: format is {doc.get('format')!r}, "
                        f"expected {ENVELOPE_FORMAT!r}")
    if doc.get("version") != ENVELOPE_VERSION:
        problems.append(f"{path}: version is {doc.get('version')!r}, "
                        f"expected {ENVELOPE_VERSION}")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        problems.append(f"{path}: entries must be a list")
        return problems
    last_ts = None
    for i, entry in enumerate(entries):
        where = f"{path} entry[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: not an object")
            continue
        mode = entry.get("mode")
        if mode not in REQUIRED_KEYS:
            problems.append(f"{where}: unknown mode {mode!r} (known: "
                            f"{sorted(REQUIRED_KEYS)})")
            continue
        missing = [key for key in REQUIRED_KEYS[mode]
                   if key not in entry]
        if missing:
            problems.append(f"{where} (mode={mode}): missing required "
                            f"keys {missing}")
        ts = entry.get("recorded_unix")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool):
            problems.append(f"{where}: recorded_unix must be numeric, "
                            f"got {ts!r}")
        elif not (_TS_MIN <= ts <= _TS_MAX):
            problems.append(f"{where}: recorded_unix {ts} is not a "
                            f"plausible timestamp")
        else:
            if last_ts is not None and ts < last_ts:
                problems.append(
                    f"{where}: recorded_unix {ts} precedes the "
                    f"previous entry's {last_ts} — trajectory files "
                    f"are append-only")
            last_ts = ts
        if mode == "soak" and not missing:
            _check_soak(entry, where, problems)
    return problems


def main(argv: Sequence[str] = ()) -> int:
    paths = ([Path(arg) for arg in argv] if argv
             else [ROOT / "BENCH_throughput.json"])
    problems: List[str] = []
    checked = 0
    for path in paths:
        problems.extend(check_trajectory(path))
        checked += 1
    if problems:
        print(f"check_bench: {len(problems)} problem(s) in {checked} "
              f"trajectory file(s):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    total = sum(
        len(json.loads(p.read_text(encoding="utf-8")).get("entries", []))
        for p in paths)
    print(f"check_bench: {total} entries across {checked} trajectory "
          f"file(s), all well-formed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
