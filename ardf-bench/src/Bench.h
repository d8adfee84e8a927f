//===- ardf-bench/src/Bench.h - End-to-end benchmark support ----*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of ardf-bench: clocks, the seeded generator, order
/// statistics, the benchmark's own JSON escaper and response reader, the
/// span recorder of the traced run, and the result/metric tables every
/// workload fills. The library only ever sees generated program text and
/// request lines; nothing here reaches into library internals.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_BENCH_BENCH_H
#define ARDF_BENCH_BENCH_H

#include "telemetry/Telemetry.h"

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ardfbench {

//===----------------------------------------------------------------------===//
// Clocks and process resources
//===----------------------------------------------------------------------===//

/// Monotonic wall clock, nanoseconds.
uint64_t nowNs();

/// CPU time of the whole process (every thread), nanoseconds.
uint64_t processCpuNs();

/// Peak resident set size of the process, MiB.
double peakRssMb();

inline double nsToMs(uint64_t Ns) { return static_cast<double>(Ns) / 1e6; }

//===----------------------------------------------------------------------===//
// Seeded generation
//===----------------------------------------------------------------------===//

/// splitmix64: every input of a run derives from the --seed argument.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next();
  /// Uniform in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi);
  bool chance(unsigned Percent) { return range(1, 100) <= Percent; }

private:
  uint64_t S;
};

/// Derives an independent stream seed from \p A and \p B.
uint64_t mixSeed(uint64_t A, uint64_t B);

/// 64-bit FNV-1a, the digest of rendered outputs.
uint64_t fnv1a(std::string_view Bytes);

std::string hex64(uint64_t V);

//===----------------------------------------------------------------------===//
// Order statistics
//===----------------------------------------------------------------------===//

/// Quantile \p Q of \p V with linear interpolation between order
/// statistics; 0 for an empty sample.
double quantile(std::vector<double> V, double Q);

inline double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

//===----------------------------------------------------------------------===//
// JSON: the benchmark writes its own request lines and reads responses
//===----------------------------------------------------------------------===//

/// \p S as a quoted JSON string literal.
std::string jsonQuote(std::string_view S);

/// A parsed JSON value (just enough for protocol responses).
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Arr;
  std::map<std::string, JsonValue> Obj;

  /// Member \p Key of an object, or a shared null value.
  const JsonValue &operator[](const std::string &Key) const;
  int64_t asInt() const { return static_cast<int64_t>(Num); }
};

/// Parses \p Text; returns false on malformed input.
bool parseJson(std::string_view Text, JsonValue &Out);

//===----------------------------------------------------------------------===//
// Tracing: spans recorded by the benchmark around each call into a layer
//===----------------------------------------------------------------------===//

struct SpanRecord {
  const char *Name;
  uint64_t StartNs;
  uint64_t EndNs;
  int32_t Parent;
  uint32_t Op;
};

/// In-memory span recorder. Every operation gets a root span ("op");
/// layer spans are its direct children. Disabled tracers read no clock
/// and record nothing, which is the untraced side of trace.overhead_pct.
class Tracer {
public:
  explicit Tracer(bool Enabled) : On(Enabled) {}

  class Span {
  public:
    Span(Tracer &T, const char *Name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *Owner = nullptr;
    int32_t Index = -1;
    int32_t Prev = -1;
  };

  /// Opens the root span of operation \p Op.
  void beginOp(uint32_t Op);
  /// Closes it and adds each direct child's duration to the per-layer
  /// totals (by span name).
  void endOp();

  /// Per-layer nanoseconds summed over every finished operation.
  const std::map<std::string, uint64_t> &layerNs() const { return LayerNs; }
  uint64_t opsTraced() const { return Ops; }

  /// Writes every span as Chrome trace-event JSON.
  void writeChromeTrace(std::ostream &OS) const;

private:
  bool On;
  std::vector<SpanRecord> Spans;
  int32_t Current = -1;
  uint32_t CurrentOp = 0;
  size_t OpRoot = 0;
  std::map<std::string, uint64_t> LayerNs;
  uint64_t Ops = 0;
};

//===----------------------------------------------------------------------===//
// Library telemetry counters
//===----------------------------------------------------------------------===//

/// A snapshot of every library counter.
struct CounterSet {
  uint64_t V[ardf::telem::NumCounters] = {};

  static CounterSet of(const ardf::telem::Telemetry &T);
  uint64_t operator[](ardf::telem::Counter C) const {
    return V[static_cast<unsigned>(C)];
  }
  CounterSet operator-(const CounterSet &O) const;
  /// Names of the work counters that differ from \p O ("" when all
  /// repeat). flow.compile_ns is a wall time, not a count, and is skipped.
  std::string differences(const CounterSet &O) const;
};

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Everything one run reports. Metrics are printed in insertion order.
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Failed self-checks (replay mismatch, counters not repeating, ...);
  /// each makes the run incorrect without being an operation.
  std::vector<std::string> CheckFailures;
  /// First few failed operations, for the report.
  std::vector<std::string> FailureNotes;

  /// The result-line metrics (end-to-end with --trace 0, per-layer with 1).
  std::vector<Metric> Metrics;
  /// Per-class latencies and layer times of the "report" line.
  std::vector<Metric> Report;
  std::vector<std::pair<std::string, uint64_t>> Samples;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void report(const std::string &Name, double Value, const std::string &Unit) {
    Report.push_back({Name, Value, Unit});
  }
  /// Records one operation's outcome; \p Note explains a failure.
  void op(bool Ok, const std::string &Note = "");
  /// Marks an operation already recorded as failed (a check made after
  /// the timed phase).
  void fail(const std::string &Note);
  void check(bool Ok, const std::string &What) {
    if (!Ok)
      CheckFailures.push_back(What);
  }
  bool correct() const { return Failed == 0 && CheckFailures.empty(); }
};

/// Latency samples of one operation class.
struct LatencyClass {
  std::vector<double> Ms;
  void add(uint64_t Ns) { Ms.push_back(nsToMs(Ns)); }
  double p50() const { return quantile(Ms, 0.5); }
  double p90() const { return quantile(Ms, 0.9); }
};

/// Options every workload receives.
struct BenchOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Checkout root (examples and goldens are read from there).
  std::string Root = ".";
  /// Where the traced run writes its spans ("" = nowhere).
  std::string SpansOut;
  /// Digest file of the lint-cold pool.
  std::string Digests;
};

/// Set-up repetitions per run; setup_s is their median. A lint-cold
/// set-up is short (tens of ms), so it repeats more often to keep its
/// median steady.
constexpr unsigned ServeSetupReps = 5;
constexpr unsigned LintSetupReps = 15;

/// Median of \p Reps timings of \p Fn (seconds); the last repetition's
/// state is what the caller keeps. \p Reset runs untimed before each
/// repetition, so tearing down the previous repetition's state is not
/// part of set-up.
template <typename ResetFn, typename Fn>
double medianSetupSeconds(unsigned Reps, ResetFn &&Reset, Fn &&F) {
  std::vector<double> S;
  for (unsigned I = 0; I != Reps; ++I) {
    Reset();
    uint64_t T0 = nowNs();
    F();
    S.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }
  return median(S);
}

/// Runs \p Fn(I) for I in [0, N) on up to \p Threads threads.
void parallelFor(size_t N, unsigned Threads,
                 const std::function<void(size_t)> &Fn);

int runLintCold(const BenchOptions &O, RunResult &R);
int runServe(const BenchOptions &O, RunResult &R);
/// Lints every pool program of lint-cold and writes their digests.
int recordLintDigests(const BenchOptions &O);

} // namespace ardfbench

#endif // ARDF_BENCH_BENCH_H
