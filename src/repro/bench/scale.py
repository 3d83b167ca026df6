"""Array-native core vs. the retained dict core on growing venues.

``repro.bench scale`` is the proving ground of the array-native hot
path: for each venue size it

1. generates a deterministic multi-floor synthetic mall
   (:mod:`repro.datasets.synth`),
2. builds two engines over the *same* venue — the production
   array-native core (CSR workspaces, flat δs2s, flat matrix rows,
   bitmask keywords) and the retained dict-of-dict reference core
   (:mod:`repro.space.baseline`),
3. replays one shuffled query stream through both sequentially,
   recording per-query latencies,
4. verifies the full result signatures are identical (routes, vias,
   distances, scores — the equivalence harness),
5. cold-starts a third engine from a **binary v2 snapshot**, replays
   the stream again, and verifies identity a third time, timing the
   v1-JSON vs. v2-binary snapshot load on the side,
6. replays the stream through an engine with the C Dijkstra
   detached (the interpreted loop), verifying byte-identity a fourth
   time, and micro-benchmarks full Dijkstra tree builds on the C and
   interpreted loops with an in-run byte-identity gate — the kernel
   speedup entries of the trajectory (the array engine itself runs
   the C Dijkstra whenever ``_kernels.c`` builds; ``kernel`` records
   which),
7. splits one untimed instrumented pass into relaxation vs.
   lower-bound vs. merge wall time (where does a query's time go?),
8. replays the stream once more with serve-style request tracing
   (:mod:`repro.obs` recorder + engine-stage probe every Nth query)
   against a bare twin engine and reports the qps overhead — the
   audit for the ≤2% tracing budget,
9. appends one entry per size — qps for all modes, the speedup over
   the dict core, the kernel speedups, the stage split, the
   tracing overhead, p50/p95/p99 latencies and cold-start times — to
   the ``BENCH_throughput.json`` trajectory.

Run it from the shell::

    python -m repro.bench scale --floors 10
    python -m repro.bench scale --floors 2,6,10 --rooms-per-floor 48
    python -m repro.bench scale --smoke          # tiny CI self-check
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

import random

from repro.bench.throughput import (DEFAULT_ARTIFACT, _signature,
                                    append_trajectory, latency_percentiles)
from repro.core.engine import IKRQEngine, canonical_algorithm
from repro.obs import STAGE_ENGINE, EngineTrace, TraceRecorder
from repro.datasets.queries import QueryGenerator
from repro.datasets.synth import (SynthMallConfig, build_synth_mall,
                                  mall_stats, venue_diameter)
from repro.serve.snapshot import load_snapshot, save_snapshot
from repro.space.baseline import build_reference_engine, reference_context

#: Timed passes per engine.  The fastest pass counts, and competing
#: engines run their passes interleaved, so a scheduler hiccup on a
#: shared runner hits every core alike instead of skewing the ratio.
TIMED_PASSES = 3


def _one_pass(engine: IKRQEngine, stream, algorithm: str,
              context_for=None):
    """One sequential replay: ``(answers, seconds, latencies)``."""
    answers = []
    latencies: List[float] = []
    started = time.perf_counter()
    for query in stream:
        q_started = time.perf_counter()
        if context_for is None:
            answers.append(engine.search(query, algorithm))
        else:
            answers.append(engine.search(
                query, algorithm, context=context_for(engine, query)))
        latencies.append(time.perf_counter() - q_started)
    return answers, time.perf_counter() - started, latencies


def _timed_interleaved(contenders: List[Tuple[IKRQEngine, Optional[object]]],
                       stream,
                       algorithm: str,
                       passes: int = TIMED_PASSES) -> List[Tuple]:
    """Best-of-``passes`` replay for several engines, interleaved.

    ``contenders`` is a list of ``(engine, context_for)`` pairs; each
    pass runs every contender once before the next pass starts, so
    background load perturbs all of them symmetrically.  Returns one
    ``(answers, best seconds, best latencies)`` triple per contender.
    """
    best = [(None, float("inf"), []) for _ in contenders]
    for _ in range(max(1, passes)):
        for i, (engine, context_for) in enumerate(contenders):
            answers, total, latencies = _one_pass(
                engine, stream, algorithm, context_for)
            if total < best[i][1]:
                best[i] = (answers, total, latencies)
            else:
                best[i] = (answers, best[i][1], best[i][2])
    return best


def _cold_start_times(engine: IKRQEngine,
                      ) -> Tuple[Dict[str, float], IKRQEngine]:
    """Save v1/v2 snapshots and time a cold load of each."""
    with tempfile.TemporaryDirectory(prefix="repro-scale-") as tmp:
        json_path = os.path.join(tmp, "snapshot.json")
        binary_path = os.path.join(tmp, "snapshot.bin")
        save_snapshot(json_path, engine)
        save_snapshot(binary_path, engine, binary=True)
        sizes = {"json_bytes": os.path.getsize(json_path),
                 "binary_bytes": os.path.getsize(binary_path)}
        started = time.perf_counter()
        load_snapshot(json_path)
        json_s = time.perf_counter() - started
        started = time.perf_counter()
        loaded = load_snapshot(binary_path)
        binary_s = time.perf_counter() - started
    return {"json_load_s": json_s, "binary_load_s": binary_s,
            "speedup": json_s / binary_s if binary_s else float("inf"),
            **sizes}, loaded


def _stage_breakdown(engine: IKRQEngine, stream, algorithm: str) -> Dict:
    """Relaxation vs lower-bound vs merge wall-time split.

    One extra *untimed* instrumented replay.  "Relaxation" is the
    route-growing work: the graph's batch Dijkstra entry point
    (matrix rows, KoE* continuations, connect) plus the per-door
    ``extend_to_door`` extension ToE relaxes edges with.
    "Lower-bound" is the Rule 1-4 work: the context's lower-bound
    entry points (``QueryContext._LOWER_BOUND_PROBES``, the dense
    per-endpoint fill included) plus the skeleton's entry points
    underneath (a shared reentrancy guard keeps nested
    calls from double-counting).  Everything neither stage covers —
    stamp/heap bookkeeping, route merging, ranking — lands in
    ``merge_s``.  Instrumentation is instance-local and removed
    afterwards, so the timed passes are never perturbed; the
    per-call timer overhead slightly inflates the instrumented
    stages, which is the conservative direction for a "how much is
    left to accelerate" split.
    """
    graph = engine.graph
    skeleton = engine.skeleton
    acc = {"relaxation_s": 0.0, "lower_bound_s": 0.0}
    depth = [0]

    def _timed(fn, key):
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] = 0
                acc[key] += time.perf_counter() - started
        return wrapper

    lb_names = [name for name in
                ("lower_bound", "lower_bound_heads",
                 "lower_bound_via_partition",
                 "lower_bound_via_partition_heads")
                if hasattr(skeleton, name)]
    originals = [(graph, "_run_dijkstra", graph._run_dijkstra)]
    originals += [(skeleton, name, getattr(skeleton, name))
                  for name in lb_names]
    originals.append((engine, "context", engine.context))
    graph._run_dijkstra = _timed(graph._run_dijkstra, "relaxation_s")
    for name in lb_names:
        setattr(skeleton, name, _timed(getattr(skeleton, name),
                                       "lower_bound_s"))
    orig_context = engine.context

    def instrumented_context(query, **kwargs):
        ctx = orig_context(query, **kwargs)
        ctx.extend_to_door = _timed(ctx.extend_to_door, "relaxation_s")
        for name in ctx._LOWER_BOUND_PROBES:
            setattr(ctx, name, _timed(getattr(ctx, name), "lower_bound_s"))
        return ctx

    engine.context = instrumented_context
    try:
        started = time.perf_counter()
        for query in stream:
            engine.search(query, algorithm)
        total = time.perf_counter() - started
    finally:
        for obj, name, fn in originals:
            try:
                delattr(obj, name)  # restore the class attribute
            except AttributeError:
                setattr(obj, name, fn)
    merge = max(0.0, total - acc["relaxation_s"] - acc["lower_bound_s"])
    out = {"total_s": total, "relaxation_s": acc["relaxation_s"],
           "lower_bound_s": acc["lower_bound_s"], "merge_s": merge}
    if total > 0.0:
        out["relaxation_pct"] = 100.0 * acc["relaxation_s"] / total
        out["lower_bound_pct"] = 100.0 * acc["lower_bound_s"] / total
        out["merge_pct"] = 100.0 * merge / total
    return out


#: Every Nth query of the traced overhead contender runs with the fine
#: engine-stage probe attached — the worker's behaviour under the
#: default 1% sampling plus forced/slow traces, rounded up to stay
#: conservative.
TRACE_FINE_EVERY = 20


def _tracing_overhead(space, kindex, stream, distinct, algorithm: str,
                      fine_every: int = TRACE_FINE_EVERY,
                      passes: int = TIMED_PASSES) -> Dict:
    """Serve-style tracing cost on sequential engine throughput.

    Replays the stream through two fresh warmed engines — one bare,
    one doing per-query what the shard worker does for every request
    (a :class:`TraceRecorder` engine span, an :class:`EngineTrace`,
    the stage-span graft and the finished trace document), with the
    fine stage probe attached every ``fine_every``-th query.  Passes
    are interleaved and best-of like the main replay, answers are
    signature-checked (tracing must only observe), and the qps delta
    is reported as ``overhead_pct`` — the number the ≤2% tracing
    budget in docs/observability.md is audited against.
    """
    plain = IKRQEngine(space, kindex, door_matrix_eager=False)
    traced = IKRQEngine(space, kindex, door_matrix_eager=False)
    for query in distinct:
        plain.search(query, algorithm)
        traced.search(query, algorithm)

    def _plain_pass():
        # Bare loop, not _one_pass: its per-query latency stopwatch
        # would pad the plain side and understate the overhead.
        answers = []
        started = time.perf_counter()
        for query in stream:
            answers.append(plain.search(query, algorithm))
        return answers, time.perf_counter() - started

    counter = [0]

    def _traced_pass():
        answers = []
        started = time.perf_counter()
        for query in stream:
            recorder = TraceRecorder()
            trace = EngineTrace(fine=counter[0] % fine_every == 0)
            counter[0] += 1
            with recorder.span(STAGE_ENGINE) as span:
                ctx = traced.context(query)
                if trace.fine:
                    ctx.attach_stage_probe(trace.stages)
                answers.append(traced.search(query, algorithm, context=ctx))
                engine_ms = recorder.elapsed_ms() - span["start_ms"]
                span["children"] = trace.stage_spans(span["start_ms"],
                                                     engine_ms)
                span["annotations"].update(trace.annotations)
            recorder.finish("ok")
        return answers, time.perf_counter() - started

    best_plain = best_traced = float("inf")
    plain_answers = traced_answers = None
    for _ in range(max(1, passes)):
        answers, seconds = _plain_pass()
        if seconds < best_plain:
            best_plain, plain_answers = seconds, answers
        answers, seconds = _traced_pass()
        if seconds < best_traced:
            best_traced, traced_answers = seconds, answers
    if _signature(traced_answers) != _signature(plain_answers):
        raise AssertionError(
            "tracing changed the answers — probes must only observe")
    n = len(stream)
    overhead = ((best_traced - best_plain) / best_plain * 100.0
                if best_plain else 0.0)
    return {
        "plain_qps": n / best_plain if best_plain else float("inf"),
        "traced_qps": n / best_traced if best_traced else float("inf"),
        "plain_seconds": best_plain,
        "traced_seconds": best_traced,
        "overhead_pct": overhead,
        "fine_every": fine_every,
        "verified_identical": True,
    }


#: Passes for the kernel-stage micro benchmark (best-of, interleaved).
KERNEL_PASSES = 3


def _kernel_stage(space, sources_cap: int = 48) -> Dict:
    """The C Dijkstra vs the interpreted loop, with in-run identity.

    Times full ``dijkstra_tree`` builds over a deterministic source
    sample — the matrix-row/batch-relaxation work — on one graph with
    the C Dijkstra attached and detached.  Passes alternate between
    the two so a machine-load swing hits both, and the best of
    ``KERNEL_PASSES`` counts.  The C trees must equal the interpreted
    ones byte for byte (buffers and visit order; a mismatch raises).
    Without a C compiler the ``native`` row records why.
    """
    from repro.space.graph import DoorGraph
    from repro.space.kernels import kernel_info, native_sssp

    doors = sorted(space.doors)
    step = max(1, len(doors) // sources_cap)
    sources = doors[::step][:sources_cap]
    graph = DoorGraph(space)
    sssp = native_sssp()
    contenders = [("python", None)] + ([("native", sssp)] if sssp else [])
    best = {name: float("inf") for name, _ in contenders}
    outputs = {}
    for _ in range(KERNEL_PASSES):
        for name, kernel in contenders:
            graph.set_kernel(kernel)
            started = time.perf_counter()
            trees = [graph.dijkstra_tree(src) for src in sources]
            best[name] = min(best[name], time.perf_counter() - started)
            outputs[name] = [(bytes(t.dist), bytes(t.pred),
                              bytes(t.pred_via), bytes(t.touched))
                             for t in trees]
    if sssp is not None and outputs["native"] != outputs["python"]:
        raise AssertionError(
            "the C Dijkstra's trees differ from the interpreted loop's")
    backends = {name: {"available": True,
                       "relaxation_qps": (len(sources) / seconds
                                          if seconds else float("inf")),
                       "relaxation_seconds": seconds}
                for name, seconds in best.items()}
    if sssp is None:
        backends["native"] = {"available": False,
                              "reason": kernel_info()["unavailable"]}
    else:
        backends["native"]["speedup_relaxation"] = (
            backends["native"]["relaxation_qps"]
            / backends["python"]["relaxation_qps"])
    return {
        "backends": backends,
        "relaxation_sources": len(sources),
        "verified_identical": True,
    }


def build_scale_stream(engine: IKRQEngine,
                       pool: int = 16,
                       repeat: int = 2,
                       qw_size: int = 6,
                       seed: int = 7) -> List:
    """A paper-methodology traffic stream over a big venue.

    ``pool`` distinct instances are drawn with the Section V-A1 query
    generator (start/terminal δs2t at ~35% of the venue diameter,
    ``Δ = 1.8 · δs2t``, six keywords — the top of the paper's |QW|
    sweep — at i-word fraction 0.6) and the
    pool repeats ``repeat`` times in a deterministic shuffle — traffic
    that actually crosses floors and hunts keywords, unlike the tiny
    fig1 streams.
    """
    space = engine.space
    qgen = QueryGenerator(space, engine.kindex, graph=engine.graph,
                          seed=seed)
    s2t = max(venue_diameter(space) * 0.35, 1.0)
    workload = qgen.workload(s2t=s2t, eta=1.8, qw_size=qw_size, beta=0.6,
                             k=7, alpha=0.5, tau=0.2, instances=pool)
    distinct = list(workload.queries)
    stream = [distinct[i % len(distinct)]
              for i in range(len(distinct) * repeat)]
    random.Random(seed).shuffle(stream)
    return stream


def run_scale_size(floors: int,
                   rooms_per_floor: int = 48,
                   words_per_room: int = 8,
                   seed: int = 7,
                   algorithm: str = "ToE",
                   pool: int = 16,
                   repeat: int = 2,
                   qw_size: int = 6) -> Dict:
    """One venue size: build, replay, verify, measure."""
    algorithm = canonical_algorithm(algorithm)
    cfg = SynthMallConfig(floors=floors, rooms_per_floor=rooms_per_floor,
                          words_per_room=words_per_room, seed=seed)
    started = time.perf_counter()
    space, kindex = build_synth_mall(cfg)
    venue_build_s = time.perf_counter() - started

    started = time.perf_counter()
    engine = IKRQEngine(space, kindex, door_matrix_eager=False)
    index_build_s = time.perf_counter() - started
    reference = build_reference_engine(space, kindex)

    stream = build_scale_stream(engine, pool=pool, repeat=repeat,
                                qw_size=qw_size, seed=seed)
    delta = stream[0].delta if stream else 0.0
    # Warm both engines on every distinct query once: the timed region
    # then measures steady-state serving (engine-level pure caches
    # filled on both sides), not first-touch construction costs.
    distinct = list(dict.fromkeys(stream))
    for query in distinct:
        engine.search(query, algorithm)
        reference.search(query, algorithm,
                         context=reference_context(reference, query))

    timed = _timed_interleaved(
        [(engine, None), (reference, reference_context)],
        stream, algorithm)
    array_answers, array_s, array_lat = timed[0]
    dict_answers, dict_s, dict_lat = timed[1]
    if _signature(array_answers) != _signature(dict_answers):
        raise AssertionError(
            "array-native results differ from the dict reference core")

    cold_start, snapshot_engine = _cold_start_times(engine)
    for query in distinct:
        snapshot_engine.search(query, algorithm)
    snap_answers, snap_s, snap_lat = _timed_interleaved(
        [(snapshot_engine, None)], stream, algorithm)[0]
    if _signature(snap_answers) != _signature(array_answers):
        raise AssertionError(
            "v2-cold-started engine results differ from the live engine")

    n = len(stream)
    # End-to-end replay on the interpreted loops: same stream, same
    # warm-up, answers byte-identical to the array engine, which runs
    # the C kernels whenever they build.
    interpreted = IKRQEngine(space, kindex, door_matrix_eager=False)
    interpreted.graph.set_kernel(None)
    interpreted.skeleton.set_kernel(None)
    for query in distinct:
        interpreted.search(query, algorithm)
    py_answers, py_s, py_lat = _timed_interleaved(
        [(interpreted, None)], stream, algorithm)[0]
    if _signature(py_answers) != _signature(array_answers):
        raise AssertionError(
            "interpreted-loop results differ from the C Dijkstra's")
    kernel_end_to_end = {
        "interpreted_qps": n / py_s if py_s else float("inf"),
        "interpreted_seconds": py_s,
        "interpreted_latency_ms": latency_percentiles(py_lat),
        "speedup_vs_interpreted": (py_s / array_s
                                   if py_s and array_s else float("inf")),
    }
    kernel_stage = _kernel_stage(space)
    # The split replays on a *fresh* engine: a warmed engine serves the
    # whole stream from matrix-row caches and every stage but merge
    # vanishes.  Cold, the pass shows where a new shard's time goes —
    # the relaxation and lower-bound shares.
    stage_breakdown = _stage_breakdown(
        IKRQEngine(space, kindex, door_matrix_eager=False), stream,
        algorithm)
    tracing = _tracing_overhead(space, kindex, stream, distinct, algorithm)
    result = {
        "mode": "scale",
        "venue": "synth",
        "algorithm": algorithm,
        "kernel": engine.kernel_backend,
        "floors": floors,
        "rooms_per_floor": rooms_per_floor,
        "words_per_room": words_per_room,
        "delta": delta,
        "queries": n,
        "distinct_queries": pool,
        **mall_stats(space, kindex),
        "venue_build_seconds": venue_build_s,
        "index_build_seconds": index_build_s,
        "array_qps": n / array_s if array_s else float("inf"),
        "dict_qps": n / dict_s if dict_s else float("inf"),
        "snapshot_v2_qps": n / snap_s if snap_s else float("inf"),
        "array_seconds": array_s,
        "dict_seconds": dict_s,
        "snapshot_v2_seconds": snap_s,
        "latency_ms": {
            "array": latency_percentiles(array_lat),
            "dict": latency_percentiles(dict_lat),
            "snapshot_v2": latency_percentiles(snap_lat),
        },
        "cold_start": cold_start,
        "stage_breakdown": stage_breakdown,
        "tracing": tracing,
        "kernel_stage": kernel_stage,
        "kernel_end_to_end": kernel_end_to_end,
        "verified_identical": True,
    }
    result["speedup_vs_dict"] = (result["array_qps"] / result["dict_qps"]
                                 if result["dict_qps"] else float("inf"))
    return result


def _format_kernel_lines(result: Dict) -> List[str]:
    lines = []
    split = result.get("stage_breakdown")
    if split and split.get("total_s"):
        lines.append(
            f"  stage split: relaxation {split.get('relaxation_pct', 0):.1f}% "
            f"lower-bound {split.get('lower_bound_pct', 0):.1f}% "
            f"merge {split.get('merge_pct', 0):.1f}% "
            f"(of {split['total_s'] * 1000.0:.1f} ms/pass)")
    stage = result.get("kernel_stage")
    if stage:
        parts = []
        for name in ("python", "native"):
            entry = stage["backends"][name]
            if not entry["available"]:
                parts.append(f"{name}=n/a ({entry['reason']})")
                continue
            text = f"{name}={entry['relaxation_qps']:.1f}/s"
            if "speedup_relaxation" in entry:
                text += f" ({entry['speedup_relaxation']:.1f}x)"
            parts.append(text)
        lines.append("  kernel sssp: " + "  ".join(parts)
                     + f"  (bit-identical: {stage['verified_identical']})")
    tracing = result.get("tracing")
    if tracing:
        lines.append(
            f"  tracing    : {tracing['traced_qps']:.1f} q/s traced vs "
            f"{tracing['plain_qps']:.1f} q/s plain -> "
            f"{tracing['overhead_pct']:+.2f}% overhead "
            f"(fine probe every {tracing['fine_every']}th query, "
            f"identical: {tracing['verified_identical']})")
    e2e = result.get("kernel_end_to_end")
    if e2e:
        lines.append(
            f"  e2e kernel : {result['kernel']} "
            f"{e2e['speedup_vs_interpreted']:.2f}x vs interpreted loop "
            f"({e2e['interpreted_qps']:.1f} q/s)")
    return lines


def format_scale_report(result: Dict) -> str:
    lat = result["latency_ms"]["array"]
    cold = result["cold_start"]
    return "\n".join([
        f"floors={result['floors']} rooms/floor={result['rooms_per_floor']} "
        f"partitions={result['partitions']} doors={result['doors']} "
        f"algorithm={result['algorithm']} queries={result['queries']} "
        f"delta={result['delta']:.0f}m",
        f"  array core : {result['array_qps']:10.1f} q/s "
        f"({result['array_seconds'] * 1000.0:8.1f} ms)",
        f"  dict core  : {result['dict_qps']:10.1f} q/s "
        f"({result['dict_seconds'] * 1000.0:8.1f} ms)",
        f"  v2 cold    : {result['snapshot_v2_qps']:10.1f} q/s",
        f"  speedup    : {result['speedup_vs_dict']:10.2f}x   "
        f"results identical: {result['verified_identical']}",
        f"  latency ms : p50={lat['p50_ms']:.2f} p95={lat['p95_ms']:.2f} "
        f"p99={lat['p99_ms']:.2f}",
        f"  cold start : json={cold['json_load_s'] * 1000.0:.1f} ms "
        f"({cold['json_bytes']} B)  binary="
        f"{cold['binary_load_s'] * 1000.0:.1f} ms ({cold['binary_bytes']} B) "
        f"-> {cold['speedup']:.2f}x",
    ] + _format_kernel_lines(result))


def run_scale(floors: Sequence[int] = (10,),
              rooms_per_floor: int = 48,
              words_per_room: int = 8,
              seed: int = 7,
              algorithm: str = "ToE",
              pool: int = 16,
              repeat: int = 2,
              qw_size: int = 6,
              artifact: Optional[str] = DEFAULT_ARTIFACT) -> List[Dict]:
    """The full sweep: one entry per floor count, trajectory appended."""
    results = []
    for count in floors:
        result = run_scale_size(
            count, rooms_per_floor=rooms_per_floor,
            words_per_room=words_per_room, seed=seed, algorithm=algorithm,
            pool=pool, repeat=repeat, qw_size=qw_size)
        print(format_scale_report(result))
        if artifact:
            append_trajectory(artifact, result)
            print(f"trajectory appended to {artifact}")
        results.append(result)
    return results


def _parse_floors(text: str) -> List[int]:
    try:
        floors = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"floors must be a comma-separated list of ints, got {text!r}")
    if not floors or any(f < 1 for f in floors):
        raise argparse.ArgumentTypeError("floor counts must be >= 1")
    return floors


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the array-native core against the retained "
                    "dict core on growing synthetic malls.")
    parser.add_argument("--floors", type=_parse_floors, default=[10],
                        help="comma-separated floor counts (default 10)")
    parser.add_argument("--rooms-per-floor", type=int, default=48)
    parser.add_argument("--words-per-room", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--algorithm", default="ToE")
    parser.add_argument("--pool", type=int, default=16,
                        help="distinct queries in the traffic pool")
    parser.add_argument("--repeat", type=int, default=2,
                        help="how often the pool repeats in the stream")
    parser.add_argument("--qw-size", type=int, default=6,
                        help="keywords per query (default 6, the top "
                             "of the paper's |QW| sweep)")
    parser.add_argument("--artifact", default=None,
                        help="trajectory JSON to append results to "
                             f"(default {DEFAULT_ARTIFACT}, or "
                             "bench_scale_smoke.json under --smoke; "
                             "'' disables)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI run: 2 floors, small pool; fails on "
                             "identity mismatch or a missing trajectory "
                             "append")
    args = parser.parse_args(argv)
    if args.smoke:
        # The smoke exists to prove the append happens, so it writes a
        # scratch artifact by default (never the tracked trajectory)
        # and refuses the '' disable.
        if args.artifact == "":
            parser.error("--smoke verifies the trajectory append and "
                         "needs an artifact; do not pass --artifact ''")
        artifact = args.artifact or "bench_scale_smoke.json"
        results = run_scale(
            floors=[2], rooms_per_floor=16, words_per_room=4,
            seed=args.seed, algorithm=args.algorithm,
            pool=6, repeat=2, qw_size=3, artifact=artifact)
        if not all(r.get("verified_identical") for r in results):
            print("scale smoke FAILED: results not identical")
            return 1
        import json
        from pathlib import Path
        try:
            doc = json.loads(Path(artifact).read_text())
            entries = [e for e in doc.get("entries", [])
                       if e.get("mode") == "scale"]
        except (OSError, ValueError):
            entries = []
        if not entries:
            print(f"scale smoke FAILED: no scale entry appended to "
                  f"{artifact}")
            return 1
        print(f"scale smoke ok: {len(results)} size(s) verified identical "
              f"across array/dict/v2-snapshot cores, trajectory at "
              f"{artifact}")
        return 0
    artifact = DEFAULT_ARTIFACT if args.artifact is None else args.artifact
    run_scale(floors=args.floors, rooms_per_floor=args.rooms_per_floor,
              words_per_room=args.words_per_room, seed=args.seed,
              algorithm=args.algorithm, pool=args.pool, repeat=args.repeat,
              qw_size=args.qw_size, artifact=artifact)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via wrapper
    import sys
    sys.exit(main())
