#!/usr/bin/env python3
"""Builds the poisoned request corpus that scripts/serve_torture.sh
replays against a live `ardf serve` daemon.

Writes two files:

  requests.ndjson  one request per line, in replay order: two
                   sacrificial requests that soak up the armed
                   failpoints (serve.request@1:throw answers the first
                   line with an internal error; serve.session@1:breach
                   sheds the first fresh-document build), then rounds of
                   poison lines interleaved with good lint requests over
                   the bundled example programs, a memo-hit repeat, a
                   stats probe, and an orderly shutdown.
  expect.json      a positional manifest: one entry per request line
                   with the response contract scripts/serve_verify.py
                   enforces (ok/error, error code, bit-identical render,
                   degraded count, ...).

The replay client is strictly sequential (one request in flight), so
positional matching of responses to manifest entries is exact, and the
failpoint @1 ordinals burn deterministically on the sacrificial lines.
"""

import json
import sys
from pathlib import Path


def lint_request(rid, path, source):
    return {"method": "lint", "id": rid, "file": str(path), "source": source}


def main():
    if len(sys.argv) != 4:
        print(
            "usage: serve_corpus.py <examples-dir> <requests.ndjson> "
            "<expect.json>",
            file=sys.stderr,
        )
        return 2
    examples_dir = Path(sys.argv[1])
    examples = sorted(examples_dir.glob("*.arf"))
    if not examples:
        print(f"serve_corpus.py: no .arf files in {examples_dir}",
              file=sys.stderr)
        return 2
    sources = {p: p.read_text() for p in examples}

    lines = []  # raw request lines (some intentionally are not JSON)
    expect = []  # positional manifest, one entry per line

    def add(line, entry):
        lines.append(line)
        expect.append(entry)

    def add_json(obj, entry):
        add(json.dumps(obj, separators=(",", ":")), entry)

    rid = 0

    def next_id():
        nonlocal rid
        rid += 1
        return rid

    # --- Sacrificial requests: burn the armed @1 failpoint ordinals so
    # every later line sees a clean daemon. The throw fires before the
    # request is parsed, so that response carries no id.
    first = examples[0]
    add_json(
        lint_request(next_id(), first, sources[first]),
        {"kind": "error", "code": "internal", "cls": "failpoint-throw"},
    )
    add_json(
        lint_request(next_id(), "sacrificial.arf", sources[first]),
        {"id": rid, "kind": "error", "code": "overloaded",
         "cls": "failpoint-breach"},
    )

    # --- The poison classes. Each returns (line, manifest-entry); ids
    # are omitted where the daemon cannot recover one (the verifier
    # matches positionally).
    deep_source = ("do i0 = 1, 2 {\n" * 300) + "A[i0] = 1;\n" + ("}\n" * 300)

    def poisons():
        yield ('{"method":', {"kind": "error", "code": "bad-request",
                              "cls": "malformed-json"})
        yield ("[" * 4000, {"kind": "error", "code": "bad-request",
                            "cls": "json-depth-bomb"})
        i = next_id()
        yield (
            json.dumps(
                {"method": "analyze", "id": i, "file": "bomb.arf",
                 "source": deep_source},
                separators=(",", ":"),
            ),
            {"id": i, "kind": "error", "code": "bad-request",
             "cls": "source-parser-bomb"},
        )
        # Refused by the line reader before parsing: no id comes back.
        yield (
            '{"method":"lint","source":"' + "a" * 100000 + '"}',
            {"kind": "error", "code": "payload-too-large",
             "cls": "oversized-payload"},
        )
        i = next_id()
        yield (
            json.dumps({"method": "frobnicate", "id": i},
                       separators=(",", ":")),
            {"id": i, "kind": "error", "code": "bad-request",
             "cls": "unknown-method"},
        )
        i = next_id()
        yield (
            json.dumps({"method": "lint", "id": i, "file": "x.arf"},
                       separators=(",", ":")),
            {"id": i, "kind": "error", "code": "bad-request",
             "cls": "missing-source"},
        )
        i = next_id()
        yield (
            json.dumps(
                {"method": "lint", "id": i, "file": "x.arf",
                 "source": [1, 2]},
                separators=(",", ":"),
            ),
            {"id": i, "kind": "error", "code": "bad-request",
             "cls": "mistyped-field"},
        )
        # Hostile-but-legal: a starved budget must degrade, not wedge.
        i = next_id()
        yield (
            json.dumps(
                {"method": "analyze", "id": i, "file": str(first),
                 "source": sources[first], "budget": {"visits": 1}},
                separators=(",", ":"),
            ),
            {"id": i, "kind": "analyze-degraded"},
        )

    # --- Interleave: every poison line is followed by a good lint that
    # must render bit-identically to single-shot `ardf lint`.
    poison_pool = list(poisons())
    pi = 0
    for _round in range(2):
        for path in examples:
            line, entry = poison_pool[pi % len(poison_pool)]
            pi += 1
            add(line, entry)
            add_json(
                lint_request(next_id(), path, sources[path]),
                {"id": rid, "kind": "lint", "file": str(path)},
            )

    # --- Memo hit: same file + source again; the response must replay
    # the identical render (the verifier checks the stats counter too).
    add_json(
        lint_request(next_id(), first, sources[first]),
        {"id": rid, "kind": "lint", "file": str(first)},
    )

    add_json(
        {"method": "stats", "id": 98},
        {"id": 98, "kind": "stats"},
    )
    add_json(
        {"method": "shutdown", "id": 99},
        {"id": 99, "kind": "shutdown"},
    )

    Path(sys.argv[2]).write_text("\n".join(lines) + "\n")
    classes = sorted({e["cls"] for e in expect if "cls" in e})
    Path(sys.argv[3]).write_text(
        json.dumps({"entries": expect, "poison_classes": classes}, indent=2)
        + "\n"
    )
    print(
        f"serve_corpus.py: {len(lines)} request lines, "
        f"{len(classes)} poison classes: {', '.join(classes)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
