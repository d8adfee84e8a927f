//===- ardf-bench/src/Replay.h - Layer-by-layer replays ---------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's view of an operation: the same calls lintProgram and
/// the analysis server's request handler make, issued one public entry
/// point at a time, each inside a layer span. Every replayed output is
/// compared with the output of the real entry point (lintSource, or the
/// server's response), so a replay that drifts from the library shows up
/// as a failed self-check instead of as wrong attribution.
///
/// Span names are the per-layer metric names without their ".ms" suffix:
/// frontend.parse, analysis.nest, analysis.session, dataflow.instance,
/// dataflow.compile, dataflow.solve, lint.validate, lint.check.<check>,
/// lint.crosscheck, lint.sort, lint.render, driver.run, driver.rerun and
/// serve.protocol.parse.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_BENCH_REPLAY_H
#define ARDF_BENCH_REPLAY_H

#include "Bench.h"

#include "driver/ProgramAnalysisDriver.h"
#include "lint/Diagnostic.h"
#include "lint/LintEngine.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ardfbench {

struct LintOutcome {
  bool Parsed = false;
  std::vector<ardf::Diagnostic> Diags;
  unsigned Divergences = 0;
  unsigned Degraded = 0;
};

/// lintSource(\p Source, \p File, \p Opts), one layer call at a time.
LintOutcome replayLint(Tracer &T, const std::string &Source,
                       const std::string &File, const ardf::LintOptions &Opts);

/// How the real server answered a request (read from its response).
struct ServedAs {
  bool Memo = false;
  /// analyze only: the server built the document's driver from scratch.
  bool Cold = false;
};

/// Replays analysis-server requests against its own per-document warm
/// drivers, mirroring the server's document state from the real
/// responses (cold rebuilds and memo hits are taken from \p ServedAs).
class ServeReplay {
public:
  explicit ServeReplay(uint64_t ServerDeadlineMs)
      : ServerDeadlineMs(ServerDeadlineMs) {}

  /// Replays \p Line. Returns false with \p Why set when the replayed
  /// result differs from \p RealResult (the response's "result" member).
  /// Lints under a request deadline tighter than the server's degrade by
  /// timing, so only their shape is compared.
  bool replay(Tracer &T, const std::string &Line, ServedAs How,
              const JsonValue &RealResult, std::string &Why);

private:
  struct Doc {
    std::vector<std::unique_ptr<ardf::Program>> Programs;
    std::unique_ptr<ardf::ProgramAnalysisDriver> Driver;
  };
  std::map<std::string, Doc> Docs;
  uint64_t ServerDeadlineMs;
};

} // namespace ardfbench

#endif // ARDF_BENCH_REPLAY_H
