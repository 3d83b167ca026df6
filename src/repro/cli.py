"""`python -m repro` — query a serialized venue from the shell.

Workflow::

    # export a venue (e.g. from a generator or your own builder)
    python -m repro export-fig1 venue.json

    # inspect it
    python -m repro info venue.json

    # ask for routes
    python -m repro query venue.json \
        --from 7.4,39.5,0 --to 23.3,31.4,0 \
        --delta 60 --keywords latte,apple --k 3 --algorithm ToE

    # draw a floor with the best route
    python -m repro render venue.json --floor 0 --out floor.svg \
        --from 7.4,39.5,0 --to 23.3,31.4,0 --delta 60 --keywords latte

    # bake the built indexes into a serve snapshot, then serve it
    python -m repro snapshot venue.json venue.snap.json
    python -m repro serve venue.snap.json --workers 2 --port 8080

    # host several venues in one server and hot-swap one of them
    python -m repro serve --venue mall-a=a.snap --venue airport-b=b.snap
    python -m repro ingest --venue mall-a a.v2.snap --server \
        http://127.0.0.1:8080

    # tail retained request traces (sheds, errors, slow, sampled)
    python -m repro trace --server http://127.0.0.1:8080 --follow
    python -m repro trace 9f2c4a1d0b3e5f67   # one span tree by id
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from repro.core import IKRQ, IKRQEngine, QueryService
from repro.core.directions import render_directions
from repro.datasets import paper_fig1
from repro.geometry import Point
from repro.space import load_space, save_space
from repro.viz import RouteStyle, render_svg, save_svg


def _parse_point(text: str) -> Point:
    parts = [float(v) for v in text.split(",")]
    if len(parts) == 2:
        parts.append(0.0)
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"point must be 'x,y' or 'x,y,level', got {text!r}")
    return Point(parts[0], parts[1], parts[2])


def _cmd_export_fig1(args) -> int:
    fixture = paper_fig1()
    save_space(args.path, fixture.space, fixture.kindex)
    print(f"wrote {fixture.space} to {args.path}")
    return 0


def _cmd_info(args) -> int:
    space, kindex = load_space(args.path)
    print(space)
    if kindex is not None:
        stats = kindex.stats()
        print(f"keywords: {int(stats['num_iwords'])} i-words, "
              f"{int(stats['num_twords'])} t-words, "
              f"{int(stats['num_labelled_partitions'])} labelled partitions")
    by_kind = {}
    for p in space.partitions.values():
        by_kind[p.kind.value] = by_kind.get(p.kind.value, 0) + 1
    print("partitions by kind:",
          ", ".join(f"{k}={v}" for k, v in sorted(by_kind.items())))
    return 0


def _load_engine(path):
    space, kindex = load_space(path)
    if kindex is None:
        raise SystemExit("venue file carries no keyword index")
    return space, kindex, IKRQEngine(space, kindex)


def _cmd_query(args) -> int:
    space, kindex, engine = _load_engine(args.path)
    query = IKRQ(ps=args.from_point, pt=args.to_point, delta=args.delta,
                 keywords=tuple(args.keywords.split(",")), k=args.k,
                 alpha=args.alpha, tau=args.tau)
    if args.workers > 0:
        service = QueryService(engine, workers=args.workers)
        answer = service.search_batch(
            [query], algorithm=args.algorithm, workers=args.workers)[0]
    else:
        answer = engine.search(query, algorithm=args.algorithm)
    if not answer.routes:
        print("no feasible route")
        return 1
    for rank, result in enumerate(answer.routes, start=1):
        print(f"#{rank}: ψ={result.score:.4f} ρ={result.relevance:.3f} "
              f"δ={result.distance:.1f} m")
        if args.directions:
            ctx = engine.context(answer.query)
            print(render_directions(ctx, result.route))
        else:
            print("   " + result.route.describe(space))
    return 0


def _cmd_render(args) -> int:
    space, kindex, engine = _load_engine(args.path)
    routes = []
    styles = []
    markers = []
    if args.from_point and args.to_point and args.keywords:
        answer = engine.query(
            ps=args.from_point, pt=args.to_point, delta=args.delta,
            keywords=args.keywords.split(","), k=args.k,
            algorithm=args.algorithm)
        for i, result in enumerate(answer.routes):
            routes.append(result.route)
            styles.append(RouteStyle(
                color=["#d62728", "#1f77b4", "#2ca02c"][i % 3],
                label=f"#{i + 1} ψ={result.score:.3f}"))
        markers = [("ps", args.from_point), ("pt", args.to_point)]
    svg = render_svg(space, floor=args.floor, kindex=kindex,
                     routes=routes, route_styles=styles, markers=markers)
    save_svg(args.out, svg)
    print(f"wrote {args.out}")
    return 0


def _resolve_snapshot(path: str,
                      out: Optional[str] = None,
                      warm_matrix: bool = False) -> tuple:
    """The snapshot file to serve: ``path`` itself when it already is
    one (JSON v1 or binary v2), else a snapshot baked from the venue
    file (written to ``out`` or a temporary file).  Returns
    ``(snapshot_path, is_temporary)`` so the caller can clean a baked
    temporary up on exit."""
    from repro.serve import (is_binary_snapshot, is_snapshot_document,
                             save_snapshot)
    if is_binary_snapshot(path):
        return path, False
    doc = json.loads(Path(path).read_text())
    if is_snapshot_document(doc):
        return path, False
    space, kindex = load_space(path)
    if kindex is None:
        raise SystemExit("venue file carries no keyword index")
    engine = IKRQEngine(space, kindex)
    if warm_matrix:
        engine.door_matrix()
    is_temporary = out is None
    if is_temporary:
        handle = tempfile.NamedTemporaryFile(
            prefix="repro-snapshot-", suffix=".json", delete=False)
        handle.close()
        out = handle.name
    save_snapshot(out, engine)
    return out, is_temporary


def _cmd_snapshot(args) -> int:
    from repro.serve import save_snapshot
    space, kindex = load_space(args.path)
    if kindex is None:
        raise SystemExit("venue file carries no keyword index")
    engine = IKRQEngine(space, kindex)
    if args.warm_matrix:
        engine.door_matrix()
    save_snapshot(args.out, engine, matrix_rows=args.matrix_rows,
                  binary=args.binary)
    size = Path(args.out).stat().st_size
    encoding = "binary v2" if args.binary else "JSON v1"
    print(f"wrote {encoding} snapshot of {space} to {args.out} "
          f"({size} bytes, {engine.graph.num_edges()} CSR edges, "
          f"{engine._matrix.num_cached_rows() if engine._matrix else 0} "
          f"warm matrix rows)")
    return 0


def _post_json(base: str, path: str, doc: dict, timeout: float = 120.0):
    """POST a JSON document; returns the decoded JSON response."""
    import urllib.error
    import urllib.request

    body = json.dumps(doc).encode("utf-8")
    request = urllib.request.Request(
        base + path, data=body,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return json.loads(err.read())


def _serve_smoke(server, venues: dict) -> int:
    """In-process smoke: fig1 queries over HTTP for every hosted venue,
    byte-identity checked against local engines, a hot-swap ingest
    round-trip, /venues + /metrics scraped, clean shutdown."""
    import urllib.request

    from repro.serve import (answer_to_wire, canonical_json, load_snapshot,
                             query_to_wire)

    engines = {venue: load_snapshot(path) for venue, path in venues.items()}
    fixture = paper_fig1()
    cases = [
        (IKRQ(ps=fixture.ps, pt=fixture.pt, delta=60.0,
              keywords=("latte", "apple"), k=3), "ToE"),
        (IKRQ(ps=fixture.ps, pt=fixture.pt, delta=60.0,
              keywords=("coffee",), k=2), "KoE"),
        (IKRQ(ps=fixture.ps, pt=fixture.pt, delta=70.0,
              keywords=("phone", "coffee"), k=2), "KoE*"),
        (IKRQ(ps=fixture.pt, pt=fixture.ps, delta=60.0,
              keywords=("latte",), k=1), "ToE"),
    ]

    def check_venue(base: str, venue: str, generation=None) -> bool:
        engine = engines[venue]
        for query, algorithm in cases:
            doc = _post_json(base, "/search",
                             {"venue": venue,
                              "query": query_to_wire(query),
                              "algorithm": algorithm}, timeout=60)
            if doc.get("status") != "ok":
                print(f"smoke FAILED: {venue}/{algorithm} -> {doc}")
                return False
            if generation is not None and doc.get("generation") != generation:
                print(f"smoke FAILED: {venue} answered from generation "
                      f"{doc.get('generation')}, expected {generation}")
                return False
            expected = answer_to_wire(engine.search(query, algorithm))
            got = {"algorithm": doc["algorithm"], "routes": doc["routes"]}
            if canonical_json(got) != canonical_json(expected):
                print(f"smoke FAILED: {venue}/{algorithm} answer differs "
                      "from sequential engine.search")
                return False
        return True

    host, port = server.start()
    base = f"http://{host}:{port}"
    try:
        for venue in sorted(venues):
            if not check_venue(base, venue, generation=1):
                return 1
        # Hot-swap round trip: re-ingest the first venue's snapshot as
        # generation 2 and verify answers stay byte-identical.
        swap_venue = sorted(venues)[0]
        swap = _post_json(base, "/ingest",
                          {"venue": swap_venue,
                           "snapshot": venues[swap_venue], "wait": True})
        if swap.get("status") != "ok" or swap.get("generation") != 2:
            print(f"smoke FAILED: ingest -> {swap}")
            return 1
        if not check_venue(base, swap_venue, generation=2):
            return 1
        with urllib.request.urlopen(base + "/venues", timeout=30) as resp:
            listing = json.loads(resp.read())
        listed = {doc["venue"]: doc for doc in listing.get("venues", [])}
        if set(listed) != set(venues) \
                or listed[swap_venue]["active_generation"] != 2:
            print(f"smoke FAILED: /venues -> {listing}")
            return 1
        # Trace round trip: force one traced request, fetch its span
        # tree back from /debug/traces/<id>, check the stage names and
        # that the recorded stages sum within the end-to-end latency.
        # The query must be one the earlier checks did NOT ask — an
        # answer-cache hit would (correctly) skip the engine stages.
        query = IKRQ(ps=fixture.ps, pt=fixture.pt, delta=65.0,
                     keywords=("latte", "apple"), k=2)
        algorithm = "ToE"
        traced = _post_json(base, "/search",
                            {"venue": swap_venue,
                             "query": query_to_wire(query),
                             "algorithm": algorithm, "trace": True},
                            timeout=60)
        trace_id = traced.get("trace_id")
        if traced.get("status") != "ok" or not trace_id:
            print(f"smoke FAILED: traced search -> {traced}")
            return 1
        with urllib.request.urlopen(base + f"/debug/traces/{trace_id}",
                                    timeout=30) as resp:
            trace_doc = json.loads(resp.read())["trace"]
        if trace_doc.get("trace_id") != trace_id:
            print(f"smoke FAILED: trace_id did not round-trip: "
                  f"{trace_doc.get('trace_id')} != {trace_id}")
            return 1
        names = set()

        def _walk(spans):
            for span in spans:
                names.add(span.get("name"))
                _walk(span.get("children", []))

        _walk(trace_doc.get("spans", []))
        expected_stages = {"admission", "generation_acquire",
                           "shard_dispatch", "queue_wait", "wire_decode",
                           "engine", "relaxation", "lower_bound", "merge"}
        if not expected_stages <= names:
            print(f"smoke FAILED: trace missing stages "
                  f"{sorted(expected_stages - names)} (got {sorted(names)})")
            return 1
        top_ms = sum(span.get("duration_ms", 0.0)
                     for span in trace_doc.get("spans", []))
        if top_ms > trace_doc.get("duration_ms", 0.0) + 0.001:
            print(f"smoke FAILED: stage durations sum {top_ms:.3f} ms "
                  f"beyond end-to-end {trace_doc.get('duration_ms')} ms")
            return 1
        # Slow-query path: drop the threshold so a normal request
        # counts as deliberately slow, then check it was retained
        # with the slow flag (and without a trace=true body).
        policy = server.dispatcher.trace_policy
        saved_slow_ms = policy.slow_ms
        policy.slow_ms = 0.0001
        try:
            slow = _post_json(base, "/search",
                              {"venue": swap_venue,
                               "query": query_to_wire(query),
                               "algorithm": algorithm}, timeout=60)
        finally:
            policy.slow_ms = saved_slow_ms
        slow_id = slow.get("trace_id")
        with urllib.request.urlopen(base + f"/debug/traces/{slow_id}",
                                    timeout=30) as resp:
            slow_doc = json.loads(resp.read())["trace"]
        if not slow_doc.get("slow") or slow_doc.get("reason") != "slow":
            print(f"smoke FAILED: slow query not retained as slow: "
                  f"{slow_doc.get('slow')!r}/{slow_doc.get('reason')!r}")
            return 1
        # Dynamic delta step: close a door on the best route and
        # relabel a partition's i-word through POST /delta (no
        # ingest), then verify the served answer — same generation,
        # bumped dynamic_version — is byte-identical to an engine
        # rebuilt on the physically edited venue.  The same query was
        # asked pre-delta above, so this also proves the per-shard
        # answer/endpoint caches cannot leak a pre-closure result.
        from repro.core import IKRQEngine as _Engine
        from repro.dynamic import ClosureOverlay, apply_closures
        from repro.dynamic.state import apply_keyword_ops
        engine = engines[swap_venue]
        baseline = engine.search(query, algorithm)
        if not baseline.routes or not baseline.routes[0].route.doors:
            print("smoke FAILED: no doored baseline route for the "
                  "delta step")
            return 1
        closed_door = baseline.routes[0].route.doors[0]
        labelled = sorted(engine.kindex.labelled_partitions())[0]
        kw_ops = [{"op": "set_iword", "pid": labelled, "iword": "latte"}]
        applied = _post_json(base, "/delta",
                             {"venue": swap_venue,
                              "ops": [{"op": "close_door",
                                       "did": closed_door}] + kw_ops},
                             timeout=60)
        if applied.get("status") != "ok" or not applied.get(
                "keyword_broadcast"):
            print(f"smoke FAILED: delta -> {applied}")
            return 1
        kindex2 = apply_keyword_ops(engine.kindex, kw_ops)
        closed_space = apply_closures(
            engine.space, ClosureOverlay(frozenset({closed_door})))
        expected_closed = answer_to_wire(
            _Engine(closed_space, kindex2).search(query, algorithm))
        served = _post_json(base, "/search",
                            {"venue": swap_venue,
                             "query": query_to_wire(query),
                             "algorithm": algorithm}, timeout=60)
        if (served.get("status") != "ok"
                or served.get("generation") != 2
                or served.get("dynamic_version") != applied["version"]
                or canonical_json({"algorithm": served["algorithm"],
                                   "routes": served["routes"]})
                != canonical_json(expected_closed)):
            print(f"smoke FAILED: post-delta answer differs from the "
                  f"rebuilt edited venue (status "
                  f"{served.get('status')}, generation "
                  f"{served.get('generation')}, dynamic_version "
                  f"{served.get('dynamic_version')})")
            return 1
        # Swap the persistent closure for a weekly schedule closing
        # the same door except during the week's first second: a
        # query carrying "at" inside the closed window must match the
        # closure answer; one without "at" sees the door open.
        rescheduled = _post_json(
            base, "/delta",
            {"venue": swap_venue,
             "ops": [{"op": "open_door", "did": closed_door},
                     {"op": "set_schedule", "did": closed_door,
                      "open": [[0.0, 1.0]]}]}, timeout=60)
        if rescheduled.get("status") != "ok":
            print(f"smoke FAILED: schedule delta -> {rescheduled}")
            return 1
        expected_open = answer_to_wire(
            _Engine(engine.space, kindex2).search(query, algorithm))
        for at, expected in ((7200.0, expected_closed),
                             (None, expected_open)):
            body = {"venue": swap_venue, "query": query_to_wire(query),
                    "algorithm": algorithm}
            if at is not None:
                body["at"] = at
            timed = _post_json(base, "/search", body, timeout=60)
            got = {"algorithm": timed.get("algorithm"),
                   "routes": timed.get("routes")}
            if (timed.get("status") != "ok"
                    or canonical_json(got) != canonical_json(expected)):
                print(f"smoke FAILED: scheduled-door answer at={at!r} "
                      f"differs from the rebuilt venue")
                return 1
        with urllib.request.urlopen(base + "/healthz", timeout=30) as resp:
            health = json.loads(resp.read())
        with urllib.request.urlopen(base + "/metrics", timeout=30) as resp:
            metrics = resp.read().decode("utf-8")
        for series in ("ikrq_requests_total", "ikrq_shard_queries_served",
                       "ikrq_request_latency_seconds_bucket",
                       "ikrq_shard_search_latency_seconds_bucket",
                       "ikrq_stage_latency_seconds_bucket",
                       'stage="engine"', 'stage="queue_wait"',
                       "ikrq_search_expansions",
                       "ikrq_venue_active_generation", "ikrq_venues",
                       "ikrq_shard_kernel_info",
                       "ikrq_shard_up", "ikrq_live_shards",
                       "ikrq_delta_total",
                       f'venue="{swap_venue}"'):
            if series not in metrics:
                print(f"smoke FAILED: /metrics missing {series!r}")
                return 1
    finally:
        server.shutdown()
    served = sum(
        int(line.rsplit(" ", 1)[1])
        for line in metrics.splitlines()
        if line.startswith("ikrq_shard_queries_served{shard="))
    kernels = sorted({part.split('"')[1]
                      for line in metrics.splitlines()
                      if line.startswith("ikrq_shard_kernel_info{")
                      for part in line.split(",")
                      if part.strip().startswith("kernel=")})
    print(f"serve smoke ok: {len(venues)} venue(s) x {len(cases)} queries "
          f"byte-identical over HTTP (before and after a generation-2 "
          f"hot-swap of {swap_venue!r}), health={health['status']}, "
          f"shards={health['shards']}, shard queries={served}, "
          f"kernel={'/'.join(kernels) or 'unknown'}, "
          f"trace {trace_id} round-tripped with all 9 stages, "
          f"slow-query trace retained, delta (closure + keyword + "
          f"schedule) byte-identical to the rebuilt venue, clean "
          f"shutdown")
    return 0


def _parse_venue_spec(text: str):
    venue, sep, path = text.partition("=")
    if not sep or not venue.strip() or not path.strip():
        raise argparse.ArgumentTypeError(
            f"--venue takes ID=PATH (e.g. mall-a=a.snap), got {text!r}")
    return venue.strip(), path.strip()


def _cmd_serve(args) -> int:
    from repro.obs import setup_serve_logging
    from repro.serve import DEFAULT_VENUE, IKRQServer, TenantQuota

    # Structured JSON-lines serve log on stderr: slow queries, request
    # errors and GC events, each stamped with its trace_id.
    setup_serve_logging()
    specs = list(args.venues or [])
    if args.path is not None:
        specs.append((DEFAULT_VENUE, args.path))
    if not specs:
        raise SystemExit(
            "serve needs a snapshot/venue file or at least one "
            "--venue ID=PATH")
    if len({venue for venue, _ in specs}) != len(specs):
        raise SystemExit("duplicate venue ids in --venue/PATH arguments")
    venues = {}
    temporaries = []
    deadline_s = args.deadline_ms / 1000.0 if args.deadline_ms else None
    default_quota = (TenantQuota(args.tenant_quota)
                     if args.tenant_quota else None)
    try:
        for venue, path in specs:
            # A single positional path keeps the PR-2 behaviour of
            # writing its baked snapshot to --snapshot.
            out = args.snapshot if path == args.path else None
            snapshot_path, is_temporary = _resolve_snapshot(
                path, out=out, warm_matrix=args.warm_matrix)
            venues[venue] = snapshot_path
            if is_temporary:
                temporaries.append(snapshot_path)
        server = IKRQServer(
            venues=venues, workers=args.workers, host=args.host,
            port=args.port, max_pending=args.queue_depth,
            deadline_s=deadline_s, default_quota=default_quota,
            mmap_snapshots=args.mmap,
            matrix_spill_dir=args.matrix_spill,
            matrix_max_rows=args.matrix_budget,
            gc_keep_last=args.gc_keep,
            trace_sample=args.trace_sample,
            slow_ms=args.slow_ms,
            trace_buffer_size=args.trace_buffer,
            heartbeat_interval=args.heartbeat_ms / 1000.0,
            heartbeat_timeout=args.heartbeat_timeout_ms / 1000.0,
            restart_backoff_s=args.restart_backoff_ms / 1000.0,
            restart_budget=args.restart_budget,
            failover_retries=args.failover_retries)
        if args.smoke:
            return _serve_smoke(server, venues)
        host, port = server.address
        quota_note = (f", per-venue quota {args.tenant_quota}"
                      if default_quota else "")
        print(f"serving {len(venues)} venue(s) "
              f"({', '.join(sorted(venues))}) on http://{host}:{port} "
              f"({args.workers} shard processes, queue depth "
              f"{args.queue_depth}{quota_note}, trace sample "
              f"{args.trace_sample:g}, slow threshold {args.slow_ms:g} ms); "
              f"POST /search, POST /ingest, GET /venues, GET /healthz, "
              f"GET /metrics, GET /debug/traces")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.shutdown()
            print("server stopped")
        return 0
    finally:
        for path in temporaries:
            Path(path).unlink(missing_ok=True)


def _cmd_trace(args) -> int:
    """Tail / pretty-print span trees from a running server."""
    import time as _time
    import urllib.error
    import urllib.request

    from repro.obs import format_trace

    base = args.server.rstrip("/")

    def fetch(path: str) -> dict:
        with urllib.request.urlopen(base + path, timeout=30) as resp:
            return json.loads(resp.read())

    if args.trace_id:
        try:
            doc = fetch(f"/debug/traces/{args.trace_id}")
        except urllib.error.HTTPError as err:
            if err.code == 404:
                print(f"trace {args.trace_id!r} not found (evicted from "
                      f"the ring, or never retained)")
                return 1
            raise
        print(format_trace(doc["trace"]))
        return 0

    params = f"?limit={args.limit}"
    if args.venue:
        params += f"&venue={args.venue}"
    seen: set = set()
    first_pass = True
    while True:
        listing = fetch("/debug/traces" + params)
        fresh = [summary for summary in
                 reversed(listing.get("traces", []))  # oldest first
                 if summary["trace_id"] not in seen]
        for summary in fresh:
            seen.add(summary["trace_id"])
            try:
                detail = fetch(f"/debug/traces/{summary['trace_id']}")
            except urllib.error.HTTPError:
                continue  # evicted between the list and the fetch
            print(format_trace(detail["trace"]))
        if first_pass and not fresh and not args.follow:
            print("no retained traces (sheds, errors, slow and sampled "
                  "requests are kept; POST /search with \"trace\": true "
                  "forces one)")
        first_pass = False
        if not args.follow:
            return 0
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _cmd_ingest(args) -> int:
    snapshot_path, is_temporary = _resolve_snapshot(
        args.path, out=args.snapshot, warm_matrix=args.warm_matrix)
    try:
        if is_temporary and not args.wait:
            raise SystemExit(
                "--no-wait needs a durable snapshot file: pass a baked "
                "snapshot, or --snapshot OUT to keep the baked file "
                "until the server has loaded it")
        response = _post_json(args.server.rstrip("/"), "/ingest",
                              {"venue": args.venue,
                               "snapshot": str(Path(snapshot_path).resolve()),
                               "wait": args.wait})
        status = response.get("status")
        if status == "ok":
            print(f"venue {args.venue!r} hot-swapped to generation "
                  f"{response['generation']} "
                  f"(load {response['load_seconds'] * 1000.0:.1f} ms, "
                  f"drain {response['drain_seconds'] * 1000.0:.1f} ms, "
                  f"swap {response['swap_seconds'] * 1000.0:.1f} ms)")
            return 0
        if status == "accepted":
            print(f"ingest of venue {args.venue!r} accepted; the swap "
                  f"runs in the background (watch GET /venues)")
            return 0
        print(f"ingest FAILED: {response}")
        return 1
    finally:
        if is_temporary:
            Path(snapshot_path).unlink(missing_ok=True)


def _parse_iword_spec(text: str):
    pid, sep, iword = text.partition("=")
    try:
        pid = int(pid)
    except ValueError:
        sep = ""
    if not sep or not iword.strip():
        raise argparse.ArgumentTypeError(
            f"--set-iword takes PID=IWORD (e.g. 12=coffee), got {text!r}")
    return pid, iword.strip()


def _cmd_delta(args) -> int:
    """Apply dynamic edits to a venue of a running server."""
    ops = []
    for did in args.close_door or []:
        ops.append({"op": "close_door", "did": did})
    for did in args.open_door or []:
        ops.append({"op": "open_door", "did": did})
    for pid in args.seal_partition or []:
        ops.append({"op": "seal_partition", "pid": pid})
    for pid in args.unseal_partition or []:
        ops.append({"op": "unseal_partition", "pid": pid})
    for pid, iword in args.set_iword or []:
        ops.append({"op": "set_iword", "pid": pid, "iword": iword})
    for pid in args.clear_iword or []:
        ops.append({"op": "clear_iword", "pid": pid})
    if args.ops:
        try:
            extra = json.loads(args.ops)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"--ops is not valid JSON: {exc}")
        if not isinstance(extra, list):
            raise SystemExit("--ops must be a JSON list of op objects")
        ops.extend(extra)
    if not ops:
        raise SystemExit("delta needs at least one operation (e.g. "
                         "--close-door 3, --set-iword 12=coffee, or --ops)")
    response = _post_json(args.server.rstrip("/"), "/delta",
                          {"venue": args.venue, "ops": ops})
    if response.get("status") != "ok":
        print(f"delta FAILED: {response}")
        return 1
    overlay = response.get("overlay") or {}
    print(f"venue {args.venue!r} now at dynamic version "
          f"{response['version']} (keyword version "
          f"{response['keyword_version']}): "
          f"closed doors {overlay.get('closed_doors', [])}, "
          f"sealed partitions {overlay.get('sealed_partitions', [])}, "
          f"scheduled doors {response.get('scheduled_doors', [])}"
          + (f", keyword rewrite applied on "
             f"{response['shards_applied']} shard(s)"
             if response.get("keyword_broadcast") else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Query and render serialized indoor venues.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("export-fig1", help="write the Fig. 1 venue")
    p.add_argument("path")
    p.set_defaults(func=_cmd_export_fig1)

    p = sub.add_parser("info", help="summarise a venue file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_info)

    def add_query_args(p, require_query: bool):
        p.add_argument("path")
        p.add_argument("--from", dest="from_point", type=_parse_point,
                       required=require_query, help="start point x,y[,level]")
        p.add_argument("--to", dest="to_point", type=_parse_point,
                       required=require_query, help="terminal point")
        p.add_argument("--delta", type=float, default=100.0,
                       help="distance constraint (m)")
        p.add_argument("--keywords", default="" if not require_query else None,
                       required=require_query,
                       help="comma-separated query keywords")
        p.add_argument("--k", type=int, default=3)
        p.add_argument("--alpha", type=float, default=0.5)
        p.add_argument("--tau", type=float, default=0.2)
        p.add_argument("--algorithm", default="ToE")

    p = sub.add_parser("query", help="run an IKRQ")
    add_query_args(p, require_query=True)
    p.add_argument("--directions", action="store_true",
                   help="print step-by-step directions")
    p.add_argument("--workers", type=int, default=0,
                   help="evaluate through the batched QueryService layer "
                        "(single queries run inline on its caches; "
                        "0 = direct engine call)")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("render", help="draw a floor (optionally + routes)")
    add_query_args(p, require_query=False)
    p.add_argument("--floor", type=int, default=0)
    p.add_argument("--out", default="floor.svg")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser(
        "snapshot", help="bake a venue + built indexes into a serve snapshot")
    p.add_argument("path", help="venue JSON file")
    p.add_argument("out", help="snapshot file to write")
    p.add_argument("--warm-matrix", action="store_true",
                   help="prebuild the KoE* door matrix into the snapshot")
    p.add_argument("--matrix-rows", type=int, default=None,
                   help="cap on persisted warm matrix rows")
    p.add_argument("--binary", action="store_true",
                   help="write the binary v2 encoding (typed-array "
                        "payload; fastest cold-start on big venues)")
    p.set_defaults(func=_cmd_snapshot)

    p = sub.add_parser(
        "serve", help="multi-venue sharded multi-process HTTP server "
                      "for IKRQ traffic")
    p.add_argument("path", nargs="?", default=None,
                   help="venue JSON or serve snapshot file (hosted as "
                        "venue 'default'); optional when --venue is given")
    p.add_argument("--venue", dest="venues", action="append",
                   type=_parse_venue_spec, metavar="ID=PATH",
                   help="host venue ID from the given venue/snapshot "
                        "file (repeatable)")
    p.add_argument("--workers", type=int, default=2,
                   help="shard processes (each hosts every venue behind "
                        "its own QueryServices)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port (0 = ephemeral)")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="admission cap on in-flight requests; beyond it "
                        "requests are shed with an 'overloaded' answer")
    p.add_argument("--tenant-quota", type=int, default=0,
                   help="per-venue cap on in-flight requests (0 = none); "
                        "a venue at its quota is shed without touching "
                        "other tenants' headroom")
    p.add_argument("--deadline-ms", type=float, default=0.0,
                   help="per-request deadline (0 = none)")
    p.add_argument("--snapshot", default=None,
                   help="where to write the baked snapshot when PATH is "
                        "a venue file (default: a temporary file)")
    p.add_argument("--warm-matrix", action="store_true",
                   help="prebuild the KoE* door matrix before snapshotting")
    p.add_argument("--mmap", action="store_true",
                   help="memory-tier: mmap aligned binary (v2.1) "
                        "snapshots so all shard processes share one "
                        "page-cache copy of each generation's payload")
    p.add_argument("--matrix-spill", default=None, metavar="DIR",
                   help="memory-tier: spill evicted door-matrix rows "
                        "to per-engine row-cache files under DIR and "
                        "fault them back on demand")
    p.add_argument("--matrix-budget", type=int, default=None, metavar="N",
                   help="memory-tier: cap resident door-matrix rows "
                        "per loaded engine (overrides the snapshot's "
                        "baked budget; pair with --matrix-spill)")
    p.add_argument("--gc-keep", type=int, default=None, metavar="N",
                   help="generation GC: after each ingest, keep the "
                        "newest N retired generations for rollback and "
                        "delete older snapshot files from disk "
                        "(default: keep everything)")
    p.add_argument("--trace-sample", type=float, default=0.01,
                   metavar="RATE",
                   help="probability a request is traced at full "
                        "engine-stage detail and retained in "
                        "/debug/traces (sheds, errors and slow requests "
                        "are always retained; 0 disables sampling, 1 "
                        "traces everything)")
    p.add_argument("--slow-ms", type=float, default=500.0,
                   help="slow-query threshold: requests at or over it "
                        "are always retained in /debug/traces and "
                        "logged as structured slow_query events "
                        "(0 disables)")
    p.add_argument("--trace-buffer", type=int, default=256, metavar="N",
                   help="capacity of the in-memory trace ring behind "
                        "GET /debug/traces")
    p.add_argument("--heartbeat-ms", type=float, default=2000.0,
                   help="supervisor heartbeat ping interval per shard")
    p.add_argument("--heartbeat-timeout-ms", type=float, default=30000.0,
                   help="declare a shard dead after this long without a "
                        "heartbeat or any response traffic (0 disables "
                        "the stall detector; process exits are always "
                        "caught)")
    p.add_argument("--restart-backoff-ms", type=float, default=500.0,
                   help="initial restart backoff for a dead shard "
                        "(doubles per consecutive failure, capped at 30 s)")
    p.add_argument("--restart-budget", type=int, default=5,
                   help="restarts allowed per shard per 60 s window "
                        "before it is quarantined instead of respawned")
    p.add_argument("--failover-retries", type=int, default=1,
                   help="how many sibling shards a search that hit a "
                        "dead shard is retried on (searches are pure, so "
                        "retried answers are byte-identical; a timed-out "
                        "search is not retried)")
    p.add_argument("--smoke", action="store_true",
                   help="start, answer fig1 queries over HTTP per venue, "
                        "verify byte-identity across a hot-swap, /venues, "
                        "/metrics and a trace round-trip through "
                        "/debug/traces, then exit")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "trace", help="tail / pretty-print request span trees from a "
                      "running repro serve instance")
    p.add_argument("trace_id", nargs="?", default=None,
                   help="print one trace by id (default: list recent)")
    p.add_argument("--server", default="http://127.0.0.1:8080",
                   help="base URL of the running repro serve instance")
    p.add_argument("--limit", type=int, default=10,
                   help="how many recent traces to print")
    p.add_argument("--venue", default=None,
                   help="only traces of this venue")
    p.add_argument("--follow", action="store_true",
                   help="keep polling for new traces (tail -f style)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="poll interval in seconds with --follow")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "ingest", help="hot-swap a venue of a running server onto a new "
                       "snapshot generation (zero downtime)")
    p.add_argument("path", help="venue JSON or serve snapshot file")
    p.add_argument("--venue", required=True,
                   help="venue id to swap on the target server")
    p.add_argument("--server", default="http://127.0.0.1:8080",
                   help="base URL of the running repro serve instance")
    p.add_argument("--snapshot", default=None,
                   help="where to write the baked snapshot when PATH is "
                        "a venue file (default: a temporary file)")
    p.add_argument("--warm-matrix", action="store_true",
                   help="prebuild the KoE* door matrix before snapshotting")
    p.add_argument("--no-wait", dest="wait", action="store_false",
                   help="return as soon as the server accepts the ingest "
                        "instead of waiting for the swap to finish")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser(
        "delta", help="apply dynamic edits (door closures, partition "
                      "seals, schedules, keyword rewrites) to a venue "
                      "of a running server — no re-ingest")
    p.add_argument("--venue", required=True,
                   help="venue id on the target server")
    p.add_argument("--server", default="http://127.0.0.1:8080",
                   help="base URL of the running repro serve instance")
    p.add_argument("--close-door", type=int, action="append", metavar="DID",
                   help="close a door (repeatable)")
    p.add_argument("--open-door", type=int, action="append", metavar="DID",
                   help="re-open a closed door (repeatable)")
    p.add_argument("--seal-partition", type=int, action="append",
                   metavar="PID", help="seal a partition (repeatable)")
    p.add_argument("--unseal-partition", type=int, action="append",
                   metavar="PID", help="unseal a partition (repeatable)")
    p.add_argument("--set-iword", type=_parse_iword_spec, action="append",
                   metavar="PID=IWORD",
                   help="relabel a partition's i-word (repeatable)")
    p.add_argument("--clear-iword", type=int, action="append", metavar="PID",
                   help="remove a partition's i-word (repeatable)")
    p.add_argument("--ops", default=None, metavar="JSON",
                   help="raw JSON list of delta ops (covers schedules and "
                        "t-word edits; see docs/dynamic.md)")
    p.set_defaults(func=_cmd_delta)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
