//===- ardf-bench/src/Layers.h - Per-layer metrics of a traced run -*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns what a traced run collected into the per-layer metric table.
/// Work counts come from the counting rounds (a fixed prefix of the
/// workload's stream, run twice, which must repeat exactly); layer times
/// are means per operation over the timed traced loop; the budget,
/// shedding and watchdog counts depend on timing and come from the run's
/// concurrent phase.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_BENCH_LAYERS_H
#define ARDF_BENCH_LAYERS_H

#include "Bench.h"

namespace ardfbench {

struct LayerInputs {
  /// Library counters of one counting round.
  CounterSet Counts;
  uint64_t ParseBytes = 0;
  uint64_t RenderBytes = 0;
  uint64_t RequestBytes = 0;
  uint64_t ResponseBytes = 0;
  uint64_t ChecksDegraded = 0;
  uint64_t Reused = 0;
  uint64_t Reanalyzed = 0;

  /// Timing-dependent counts.
  uint64_t BudgetBreaches = 0;
  uint64_t DegradedSolves = 0;
  uint64_t Overloads = 0;
  uint64_t WatchdogKills = 0;

  /// The timed traced loop: layer totals, operations, the real entry
  /// point's time and both replays' times over the same operations.
  std::map<std::string, uint64_t> LayerNs;
  uint64_t TracedOps = 0;
  uint64_t RealOpNs = 0;
  uint64_t TracedNs = 0;
  uint64_t UntracedNs = 0;
};

/// Appends every per-layer metric, in BENCHMARK.json order.
void addLayerMetrics(RunResult &R, const LayerInputs &L);

/// Writes the traced run's spans to BenchOptions::SpansOut, if set.
void writeSpans(const BenchOptions &O, const Tracer &T);

} // namespace ardfbench

#endif // ARDF_BENCH_LAYERS_H
