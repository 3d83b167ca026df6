"""The serving fleet under test, run as its own process.

Constructs :class:`~repro.serve.server.IKRQServer` ``--setups`` times
and times each from construction to the first ``ok`` answer over HTTP
(the constructor returns once every shard holds every venue).  All but
the last server are shut down again; the last one keeps serving.  The
process then prints one JSON line, ``{"port": ..., "setup_s": [...]}``,
and serves until its standard input closes.

Keeping the fleet out of the load generator's process means the two
never share an interpreter lock, and the shards fork from a small
parent, so their resident size is the program's own.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serve.server import IKRQServer  # noqa: E402

#: One shard process per core of the 2-core host the numbers are for.
SHARDS = 2


def _first_answer(port: int, body: bytes) -> dict:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/search", data=body,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=60.0) as resp:
        return json.loads(resp.read())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--venue", required=True)
    parser.add_argument("--snapshot", required=True)
    parser.add_argument("--setups", type=int, required=True)
    parser.add_argument("--probe", required=True,
                        help="JSON body of the first POST /search")
    args = parser.parse_args()
    body = args.probe.encode("utf-8")
    setups = []
    server = None
    for i in range(args.setups):
        started = time.perf_counter()
        server = IKRQServer(venues={args.venue: args.snapshot},
                            workers=SHARDS, mmap_snapshots=True,
                            trace_sample=0.0, slow_ms=0.0)
        _, port = server.start()
        answer = _first_answer(port, body)
        setups.append(time.perf_counter() - started)
        if answer.get("status") != "ok":
            print(json.dumps({"error": f"first answer {answer}"}), flush=True)
            server.shutdown()
            return 1
        if i + 1 < args.setups:
            server.shutdown()
    print(json.dumps({"port": port, "setup_s": setups}), flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
