//===- tools/ardf/Stats.cpp - ardf stats: telemetry report ----------------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `ardf stats`: runs the batched program driver (the four paper problems
/// over every loop) on each .arf input under a telemetry context and
/// reports the counters -- node visits against the paper's 3N/2N bounds,
/// meets, applies, cache hit rates, latency histograms -- as a table,
/// stats JSON, a Prometheus exposition, or a Chrome trace. Exit codes: 0
/// success, 2 usage, I/O or parse failure.
///
//===----------------------------------------------------------------------===//

#include "Cli.h"

#include "driver/ProgramAnalysisDriver.h"

#include <iostream>

using namespace ardf;
using namespace ardf::cli;

namespace {
const char *const Tool = "ardf stats";
} // namespace

int cli::runStats(const std::vector<std::string> &Args) {
  CommonOptions Common;
  DriverOptions Driver;
  bool Json = false, Prometheus = false, NoNested = false, Fixpoint = false;
  std::string JsonOut, PrometheusOut;

  std::vector<Flag> Flags = commonFlags(
      Common, EngineFlag | BudgetFlags | InputCapFlag | TraceFlag);
  Flags.push_back({"--json", Arity::Optional, "FILE",
                   "stats JSON (stdout, or to FILE)",
                   [&](const std::string &V, std::string &) {
                     JsonOut = V;
                     return Json = true;
                   }});
  Flags.push_back({"--format", Arity::Required, "prometheus",
                   "Prometheus text exposition of all counters,\n"
                   "hit-rate gauges and latency histograms",
                   [&](const std::string &V, std::string &Err) {
                     if (V != "prometheus")
                       Err = "unknown format '" + V +
                             "' (expected prometheus)";
                     return Prometheus = Err.empty();
                   }});
  Flags.push_back(textFlag("--prometheus", "FILE", "same, written to FILE",
                           PrometheusOut));
  Flags.push_back(numberFlag("--threads", "driver worker threads (default 1)",
                             Driver.Threads, 1));
  Flags.push_back(
      switchFlag("--no-nested", "analyze outermost loops only", NoNested));
  Flags.push_back(switchFlag("--fixpoint",
                             "iterate to fixpoint instead of the paper's\n"
                             "fixed two-pass schedule",
                             Fixpoint));

  const std::string Usage = usageText(
      "stats [options] <file.arf>...",
      "Analyzes every loop of each input with the four paper problems and\n"
      "reports the telemetry counters of the run: node visits vs. the\n"
      "paper's 3N/2N bounds, meet/apply counts, lowering volume, and\n"
      "session cache hit rates.\n",
      Flags, "exit codes: 0 success, 2 usage/IO failure\n");
  std::vector<std::string> Files;
  if (std::optional<int> Exit = parseArgs(Tool, Args, Flags, Usage, Files))
    return *Exit;
  if (Files.empty())
    return usageError(Tool, "no input files", Usage);
  Prometheus |= !PrometheusOut.empty();
  Driver.Solver.Eng = Common.Engine;
  Driver.Solver.Budget = Common.Budget;
  Driver.IncludeNested = !NoNested;
  if (Fixpoint)
    Driver.Solver.Strat = SolverOptions::Strategy::IterateToFixpoint;

  // A stats run exists to measure, so the latency histograms (which
  // cost clock reads the library otherwise skips) are always on here.
  RunTelemetry Telem(Common.TraceOut);
  uint64_t WallStart = telem::wallNowNs();
  uint64_t CpuStart = telem::cpuNowNs();
  unsigned TotalLoops = 0, TotalVisits = 0;
  DriverReport Totals;
  for (const std::string &File : Files) {
    ParseResult Parsed;
    if (!readProgram(Tool, File, Common.MaxInputBytes, Parsed))
      return 2;
    telem::Span FileSpan("analyze-file", "driver", File.c_str());
    ProgramAnalysisDriver D(Parsed.Prog, Driver);
    D.run();
    TotalLoops += static_cast<unsigned>(D.loops().size());
    TotalVisits += D.totalNodeVisits();
    DriverReport R = D.report();
    Totals.Ok += R.Ok;
    Totals.Degraded += R.Degraded;
    Totals.Failed += R.Failed;
    Totals.Unsupported += R.Unsupported;
    for (const AnalyzedLoop &L : D.loops())
      if (!L.Loop)
        std::cerr << Tool << ": warning: " << File << ": loop at nest path '"
                  << L.NestPath << "' unsupported: " << L.UnsupportedReason
                  << "\n";
    for (const AnalyzedLoop &L : D.loops())
      for (const LoopFailure &F : L.Failures)
        std::cerr << Tool << ": warning: " << File << ": loop over '"
                  << L.Loop->getIndVar() << "': " << F.Phase
                  << " failed: " << F.Message << "\n";
  }
  Telem.stop();
  uint64_t WallNs = telem::wallNowNs() - WallStart;
  uint64_t CpuNs = telem::cpuNowNs() - CpuStart;

  if (!Telem.writeTrace(Tool))
    return 2;
  if (Prometheus)
    return Telem.writeReport(Tool, RunTelemetry::Report::Prometheus,
                             PrometheusOut)
               ? 0
               : 2;
  if (Json)
    return Telem.writeReport(Tool, RunTelemetry::Report::Json, JsonOut) ? 0
                                                                        : 2;
  std::cout << Tool << ": " << Files.size() << " file(s), " << TotalLoops
            << " loop(s), " << TotalVisits << " node visit(s)\n";
  std::cout << "loops: " << Totals.Ok << " ok, " << Totals.Degraded
            << " degraded, " << Totals.Failed << " failed";
  if (Totals.Unsupported != 0)
    std::cout << ", " << Totals.Unsupported << " unsupported";
  std::cout << "\n";
  std::cout << "wall: " << (WallNs / 1000000.0) << " ms, cpu: "
            << (CpuNs / 1000000.0) << " ms\n\n";
  Telem.writeReport(Tool, RunTelemetry::Report::Table, "");
  return 0;
}
