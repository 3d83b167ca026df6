"""Plain-text rendering of benchmark results (figure-style tables),
latency percentiles, and the append-only trajectory artifact."""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.bench.harness import SettingResult

#: Default trajectory artifact, relative to the invoking directory
#: (the repo root in CI and normal usage).
DEFAULT_ARTIFACT = "BENCH_throughput.json"


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """A minimal fixed-width table."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([f"{v:.3f}" if isinstance(v, float) else str(v)
                      for v in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_series(results: List[SettingResult],
                  x_key: str,
                  metric: str = "time_ms",
                  algorithms: Sequence[str] = ()) -> str:
    """Render a parameter sweep as one row per x value (figure series).

    ``metric`` is one of ``time_ms``, ``memory_mb``, ``routes`` or
    ``homogeneous_rate``.
    """
    if not results:
        return "(no results)"
    algs = list(algorithms) or sorted(results[0].runs)
    headers = [x_key] + list(algs)
    rows = []
    for result in results:
        row: List = [result.setting.get(x_key, "?")]
        for alg in algs:
            run = result.runs.get(alg)
            if run is None:
                row.append("-")
                continue
            if metric == "time_ms":
                row.append(run.avg_time_ms)
            elif metric == "memory_mb":
                row.append(run.avg_memory_mb)
            elif metric == "routes":
                row.append(run.avg_routes)
            elif metric == "homogeneous_rate":
                row.append(run.avg_homogeneous_rate)
            else:
                raise ValueError(f"unknown metric {metric!r}")
        rows.append(row)
    return format_table(headers, rows)


def latency_percentiles(seconds: Sequence[float]) -> Dict[str, float]:
    """p50/p95/p99 (+ mean/max) of a latency sample, in milliseconds.

    Nearest-rank percentiles over the sorted sample — deterministic,
    no interpolation — so trajectory entries compare cleanly across
    runs.
    """
    if not seconds:
        return {}
    data = sorted(seconds)
    n = len(data)

    def pct(p: float) -> float:
        k = max(0, min(n - 1, math.ceil(p / 100.0 * n) - 1))
        return data[k] * 1000.0

    return {
        "p50_ms": pct(50.0),
        "p95_ms": pct(95.0),
        "p99_ms": pct(99.0),
        "mean_ms": sum(data) / n * 1000.0,
        "max_ms": data[-1] * 1000.0,
    }


def append_trajectory(path: Union[str, Path], entry: Dict) -> None:
    """Append one run to the trajectory artifact.

    The artifact is a growing JSON document (``entries`` in run order)
    so successive commits/runs chart the performance history; a
    corrupt or foreign file is replaced rather than crashed on.
    """
    artifact = Path(path)
    doc: Dict = {"format": "repro-bench-trajectory", "version": 1,
                 "entries": []}
    if artifact.exists():
        try:
            existing = json.loads(artifact.read_text())
            if (isinstance(existing, dict)
                    and existing.get("format") == doc["format"]
                    and isinstance(existing.get("entries"), list)):
                doc = existing
        except (ValueError, OSError):
            pass
    entry = dict(entry)
    entry.setdefault("recorded_unix", round(time.time(), 3))
    doc["entries"].append(entry)
    artifact.write_text(json.dumps(doc, indent=1, sort_keys=True))
