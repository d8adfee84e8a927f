#!/usr/bin/env python3
"""Verifies an `ardf serve` torture replay (scripts/serve_torture.sh).

Matches the daemon's response lines positionally against the manifest
scripts/serve_corpus.py wrote (the replay client is strictly
sequential, so order is exact), then enforces the robustness contract:

  - exactly one response line per request line, every line valid JSON;
  - poison lines answer with their designated error code;
  - every good lint render is bit-identical to a fresh single-shot
    `ardf lint --format=json` run over the same file;
  - the starved-budget analyze completed degraded, not wedged;
  - the stats response carries the request-latency histogram (saved as
    the artifact) and counters proving errors, shedding, and at least
    one response-memo hit all happened.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path


def fail(msg):
    print(f"serve_verify.py: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--ardf", required=True)
    ap.add_argument("--expect", required=True)
    ap.add_argument("--responses", required=True)
    ap.add_argument("--latency-out", required=True)
    args = ap.parse_args()

    manifest = json.loads(Path(args.expect).read_text())
    entries = manifest["entries"]
    classes = manifest["poison_classes"]
    lines = Path(args.responses).read_text().splitlines()
    if len(lines) != len(entries):
        fail(f"{len(entries)} requests but {len(lines)} response lines")
    if len(classes) < 6:
        fail(f"only {len(classes)} poison classes in the corpus: {classes}")

    # One fresh single-shot run per distinct file is the bit-identity
    # oracle (exit 1 just means findings were reported).
    def single_shot(path):
        proc = subprocess.run(
            [args.ardf, "lint", "--format=json", path],
            capture_output=True,
            text=True,
        )
        if proc.returncode not in (0, 1):
            fail(f"ardf lint crashed on {path} (rc={proc.returncode})")
        return proc.stdout

    oracle = {}
    stats_result = None
    good = errors = 0
    for pos, (entry, line) in enumerate(zip(entries, lines), start=1):
        try:
            resp = json.loads(line)
        except json.JSONDecodeError as err:
            fail(f"line {pos}: response is not JSON ({err}): {line[:120]}")
        if "id" in entry and resp.get("id") != entry["id"]:
            fail(f"line {pos}: id {resp.get('id')!r} != {entry['id']!r}")
        kind = entry["kind"]
        if kind == "error":
            if resp.get("ok") is not False:
                fail(f"line {pos} ({entry['cls']}): expected error, got "
                     f"{line[:160]}")
            code = resp["error"]["code"]
            if code != entry["code"]:
                fail(f"line {pos} ({entry['cls']}): code {code!r} != "
                     f"{entry['code']!r}")
            errors += 1
        elif kind == "lint":
            if resp.get("ok") is not True:
                fail(f"line {pos}: good lint refused: {line[:160]}")
            path = entry["file"]
            if path not in oracle:
                oracle[path] = single_shot(path)
            if resp["result"]["render"] != oracle[path]:
                fail(f"line {pos}: render for {path} is not bit-identical "
                     f"to single-shot ardf lint")
            good += 1
        elif kind == "analyze-degraded":
            if resp.get("ok") is not True:
                fail(f"line {pos}: starved analyze refused: {line[:160]}")
            if resp["result"]["degraded"] < 1:
                fail(f"line {pos}: starved analyze reported no degradation")
        elif kind == "stats":
            if resp.get("ok") is not True:
                fail(f"line {pos}: stats refused: {line[:160]}")
            stats_result = resp["result"]
        elif kind == "shutdown":
            if resp.get("ok") is not True:
                fail(f"line {pos}: shutdown refused: {line[:160]}")
        else:
            fail(f"line {pos}: unknown manifest kind {kind!r}")

    if stats_result is None:
        fail("no stats response in the replay")
    hist = stats_result["request_ns"]
    if hist["count"] < good + errors:
        fail(f"latency histogram count {hist['count']} < {good + errors} "
             f"answered requests")
    if hist["p50_ns"] <= 0:
        fail("latency histogram has a zero p50")
    counters = stats_result["counters"]
    if counters.get("serve.errors", 0) < 1:
        fail("stats counters record no contained errors")
    # The replay is strictly sequential, so the bounded queue never
    # fills (serve.overloads stays 0 by design); the armed drills prove
    # themselves through the failpoint hit counter instead.
    if counters.get("failpoint.hits", 0) < 2:
        fail("stats counters record fewer than 2 failpoint drill hits")
    if counters.get("serve.cache.hits", 0) < 1:
        fail("stats counters record no response-memo hit")

    Path(args.latency_out).write_text(
        json.dumps(stats_result, indent=2) + "\n"
    )
    print(
        f"serve_verify.py: PASS: {good} good renders bit-identical, "
        f"{errors} poison lines contained ({len(classes)} classes), "
        f"p50={hist['p50_ns']}ns p99={hist['p99_ns']}ns over "
        f"{hist['count']} requests"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
