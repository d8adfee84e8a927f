#!/usr/bin/env python3
"""ardf-bench: the end-to-end benchmark of ardf.

Builds libardf and the benchmark driver from this checkout (Release, in
$CARGO_TARGET_DIR or .bench_build), then runs one seeded workload:

    python3 ardf-bench/run.py --workload lint-cold --seed 7 --seconds 10 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. The
line before it ("report {...}") carries the host fingerprint and every
per-class latency. Further modes:

    --out FILE          also append {"report", "result"} to FILE (JSON lines)
    --compare A B       compare two --out files; refuses different hosts
    --self-test         failure accounting and exact-repeat checks
    --record-digests    re-record ardf-bench/digests/lint-cold.txt
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "ardf-bench")
DIGESTS = os.path.join(BENCH_DIR, "digests", "lint-cold.txt")
WORKLOADS = ("lint-cold", "serve-edit", "serve-deadline")

# Per-layer metrics that depend on timing (deadlines, shedding, the
# watchdog) and are therefore not part of the exact-repeat check.
TIMING_COUNTS = {
    "lint.checks.degraded", "serve.overloads", "serve.watchdog_kills",
    "dataflow.budget.breaches", "dataflow.budget.degraded_solves",
}


def log(msg):
    print("ardf-bench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "ardf-bench")


def build():
    """Configures (once) and builds the benchmark; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "ardf-bench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  cwd=ROOT)
        except OSError as err:
            log("cannot run %s: %s" % (cmd[0], err))
            return None
        if done.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "ardf-bench")


def run_bench(binary, workload, seed, seconds, trace, env=None):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--root", ROOT]
    if trace:
        cmd += ["--spans-out", os.path.join(
            build_dir(), "spans-%s-%s.json" % (workload, seed))]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          env=env)
    return done.returncode, done.stdout.splitlines()


def parse_output(lines):
    report = next((json.loads(l[len("report "):]) for l in lines
                   if l.startswith("report ")), None)
    result = json.loads(lines[-1]) if lines else None
    return report, result


def self_test(binary):
    """Failure accounting under armed failpoints, and exact repeats."""
    ok = True

    def check(cond, what):
        nonlocal ok
        log(("ok   " if cond else "FAIL ") + what)
        ok = ok and cond

    def run(workload, trace, failpoints=None, seed=11, seconds=2):
        env = dict(os.environ)
        env.pop("ARDF_FAILPOINTS", None)
        if failpoints:
            env["ARDF_FAILPOINTS"] = failpoints
        code, lines = run_bench(binary, workload, seed, seconds, trace, env)
        if code != 0:
            return code, None
        return code, parse_output(lines)[1]

    def counts(result):
        return {k: v["value"] for k, v in result["metrics"].items()
                if v["unit"] in ("count", "bytes", "ratio")
                and k not in TIMING_COUNTS}

    # lint-cold: the first lint check throws once. The benchmark must
    # survive, count exactly that operation, and count the same work.
    _, clean = run("lint-cold", 1)
    check(clean is not None and clean["correct"] and clean["failed"] == 0,
          "lint-cold traced run is correct unarmed")
    code, armed = run("lint-cold", 1, "lint.check@1:throw")
    check(code == 0 and armed is not None and armed["failed"] == 1
          and not armed["correct"],
          "lint-cold counts the one lint.check@1:throw operation as failed")
    if clean and armed:
        check(counts(clean) == counts(armed),
              "lint-cold work counts unchanged by the armed failpoint")
    _, again = run("lint-cold", 1)
    if clean and again:
        check(counts(clean) == counts(again),
              "lint-cold work counts repeat exactly")

    # serve-edit: the fifth request's handler throws.
    code, armed = run("serve-edit", 0, "serve.request@5:throw", seconds=3)
    check(code == 0 and armed is not None and armed["failed"] == 1,
          "serve-edit counts the one serve.request@5:throw request as failed")
    if armed:
        check(set(armed["metrics"]) == set(
            m["name"] for m in load_spec()["end_to_end"]),
            "serve-edit still reports every end-to-end metric")

    for workload in ("serve-edit", "serve-deadline"):
        _, first = run(workload, 1)
        _, second = run(workload, 1)
        check(first is not None and second is not None
              and first["correct"] and second["correct"]
              and counts(first) == counts(second),
              "%s work counts repeat exactly" % workload)
    return 0 if ok else 1


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def compare(path_a, path_b):
    """Median of every metric per workload, side by side."""
    def load(path):
        with open(path) as f:
            return [json.loads(l) for l in f if l.strip()]
    a, b = load(path_a), load(path_b)
    prints = {json.dumps(r["report"]["fingerprint"], sort_keys=True)
              for r in a + b}
    if len(prints) != 1:
        log("refusing to compare results from different hosts:")
        for p in sorted(prints):
            log("  " + p)
        return 3
    for workload in WORKLOADS:
        rows = {}
        for side, recs in (("a", a), ("b", b)):
            for r in recs:
                if r["report"]["workload"] != workload:
                    continue
                for name, m in r["result"]["metrics"].items():
                    rows.setdefault(name, {"a": [], "b": [], "unit": m["unit"]})
                    rows[name][side].append(m["value"])
        if not rows:
            continue
        print("%s" % workload)
        for name, row in rows.items():
            if not row["a"] or not row["b"]:
                continue
            ma, mb = statistics.median(row["a"]), statistics.median(row["b"])
            change = "" if ma == 0 else "%+.1f%%" % (100.0 * (mb - ma) / ma)
            print("  %-40s %14.4f %14.4f %-6s %s (n=%d/%d)" % (
                name, ma, mb, row["unit"], change, len(row["a"]),
                len(row["b"])))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args()

    if args.compare:
        return compare(*args.compare)
    binary = build()
    if binary is None:
        return 2
    if args.record_digests:
        return subprocess.run([binary, "--record-digests", DIGESTS]).returncode
    if args.self_test:
        return self_test(binary)
    if not args.workload:
        p.error("--workload is required")
    code, lines = run_bench(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    if code != 0:
        for line in lines:
            print(line, file=sys.stderr)
        return code
    for line in lines:
        print(line)
    if args.out:
        report, result = parse_output(lines)
        with open(args.out, "a") as f:
            f.write(json.dumps({"report": report, "result": result}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
