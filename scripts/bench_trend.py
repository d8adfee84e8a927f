#!/usr/bin/env python3
"""Merge BENCH_*.json snapshots into one trend table, and gate on drift.

Two modes:

  bench_trend.py [--dir DIR] [--tsv]
      Reads every BENCH_*.json under DIR (default: the repo root) and
      prints a row per benchmark (median-or-single real time in ns)
      from the Google Benchmark snapshots, plus the deterministic
      telemetry counters and histogram summaries from BENCH_stats.json.
      Timings are only comparable under one host fingerprint (build
      type, hardware threads, CPU model, SIMD tier; see
      FINGERPRINT_KEYS), so rows are printed as one table per
      fingerprint, never mixed; with --tsv the fingerprint is a fifth
      column.

  bench_trend.py --check BASELINE CURRENT
      Compares the deterministic counters of two `ardf stats` JSON files
      (the committed BENCH_stats.json vs. a fresh scrape over the same
      inputs). Timings are machine noise and are ignored; the counters
      below are pure functions of the source corpus and the analysis,
      so ANY drift means the analysis itself changed and the snapshot
      must be regenerated deliberately. Exits 1 on drift, 0 otherwise.

Only the standard library is used; no third-party packages.
"""

import argparse
import json
import os
import sys

# Counters that must be bit-stable for a fixed corpus: solver work
# totals and the paper's visit-bound instrumentation. Cache hit/miss
# counters stay out -- they are deterministic too, but legitimately
# shift with engine defaults; the gate is for analysis drift.
DETERMINISTIC_COUNTERS = [
    "solver.node_visits",
    "solver.meet_ops",
    "solver.apply_ops",
    "solver.passes",
    "solver.must.node_visits",
    "solver.must.visit_bound",
    "solver.may.node_visits",
    "solver.may.visit_bound",
]


# Context keys bench/BenchUtils.h's addHostFingerprint records. Timings
# are comparable only between snapshots that agree on all of them.
FINGERPRINT_KEYS = (
    "ardf_library_build_type",
    "ardf_host_nproc",
    "ardf_cpu_model",
    "ardf_isa",
)


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def benchmark_rows(name, doc):
    """Yields (snapshot, benchmark, ns) rows from a Google Benchmark doc.

    With repetitions recorded as aggregates, only the median row is
    forwarded (the stable statistic); single-rep snapshots forward the
    plain iteration rows.
    """
    benches = doc.get("benchmarks", [])
    medians = [b for b in benches if b.get("run_type") == "aggregate"
               and b.get("aggregate_name") == "median"]
    rows = medians if medians else [
        b for b in benches if b.get("run_type", "iteration") == "iteration"
    ]
    for b in rows:
        label = b.get("run_name") or b.get("name", "?")
        yield name, label, float(b.get("real_time", 0.0))


def stats_rows(doc):
    """Yields (section, key, value) rows from an `ardf stats` JSON doc."""
    for key in DETERMINISTIC_COUNTERS:
        if key in doc.get("counters", {}):
            yield "counter", key, doc["counters"][key]
    for name, h in sorted(doc.get("histograms", {}).items()):
        for q in ("count", "p50_ns", "p95_ns", "p99_ns"):
            if q in h:
                yield "histogram", "%s.%s" % (name, q), h[q]


def fingerprint(doc):
    """The host fingerprint a snapshot was recorded under, as text.

    Google Benchmark snapshots carry it in their context (written by
    addHostFingerprint in bench/BenchUtils.h); anything else, including
    snapshots older than the fingerprint, reads as "unrecorded".
    """
    ctx = doc.get("context", {})
    if not all(k in ctx for k in FINGERPRINT_KEYS):
        return "unrecorded"
    return ", ".join("%s=%s" % (k[len("ardf_"):], ctx[k])
                     for k in FINGERPRINT_KEYS)


def cmd_table(root, tsv):
    paths = sorted(
        os.path.join(root, f)
        for f in os.listdir(root)
        if f.startswith("BENCH_") and f.endswith(".json")
    )
    if not paths:
        print("bench_trend.py: no BENCH_*.json under %s" % root,
              file=sys.stderr)
        return 2

    # Timing rows are grouped by host fingerprint: rows measured on
    # different hosts never share a table.
    groups = {}
    for path in paths:
        snap = os.path.basename(path)[len("BENCH_"):-len(".json")]
        try:
            doc = load(path)
        except (OSError, ValueError) as e:
            print("bench_trend.py: skipping %s: %s" % (path, e),
                  file=sys.stderr)
            continue
        rows = groups.setdefault(fingerprint(doc), [])
        if "benchmarks" in doc:
            for _, label, ns in benchmark_rows(snap, doc):
                rows.append((snap, label, "%.0f" % ns, "ns"))
        else:
            for section, key, value in stats_rows(doc):
                rows.append((snap, key, str(value),
                             "ns" if key.endswith("_ns") else section))

    if tsv:
        for host, rows in groups.items():
            for r in rows:
                print("\t".join(r + (host,)))
        return 0

    for n, (host, rows) in enumerate(groups.items()):
        if n:
            print()
        print("host: " + host)
        widths = [max(len(r[i]) for r in rows + [
            ("snapshot", "name", "value", "unit")]) for i in range(4)]
        fmt = "  ".join("%%-%ds" % w for w in widths)
        print(fmt % ("snapshot", "name", "value", "unit"))
        print(fmt % tuple("-" * w for w in widths))
        for r in rows:
            print(fmt % r)
    return 0


def cmd_check(baseline_path, current_path):
    baseline = load(baseline_path)
    current = load(current_path)
    drifted = []
    for key in DETERMINISTIC_COUNTERS:
        b = baseline.get("counters", {}).get(key)
        c = current.get("counters", {}).get(key)
        if b is None or c is None:
            # A counter absent from either side is itself a drift: the
            # telemetry schema changed under the snapshot.
            drifted.append((key, b, c))
        elif b != c:
            drifted.append((key, b, c))
    if drifted:
        print("bench_trend.py: deterministic counters drifted from %s:"
              % baseline_path, file=sys.stderr)
        for key, b, c in drifted:
            print("  %-28s %s -> %s" % (key, b, c), file=sys.stderr)
        print("  If the analysis change is intentional, regenerate the"
              " snapshot with scripts/bench_snapshot.sh.", file=sys.stderr)
        return 1
    print("bench_trend.py: %d deterministic counters match %s"
          % (len(DETERMINISTIC_COUNTERS), baseline_path))
    return 0


def main(argv):
    ap = argparse.ArgumentParser(
        description="Merge BENCH_*.json snapshots; gate deterministic "
                    "counter drift.")
    ap.add_argument("--dir", default=None,
                    help="directory holding BENCH_*.json "
                         "(default: repo root, inferred from this script)")
    ap.add_argument("--tsv", action="store_true",
                    help="machine-readable tab-separated output")
    ap.add_argument("--check", nargs=2, metavar=("BASELINE", "CURRENT"),
                    help="compare deterministic counters of two "
                         "`ardf stats` JSON files; exit 1 on drift")
    args = ap.parse_args(argv)

    if args.check:
        return cmd_check(args.check[0], args.check[1])
    root = args.dir or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    return cmd_table(root, args.tsv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
