//===- bench/bench_vs_scalar_replacement.cpp - Flow sensitivity (C3) -----===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// Experiment C3 (Sections 1 and 5): the framework's flow-sensitive reuse
// detection versus dependence-based scalar replacement [Callahan, Carr &
// Kennedy 90]. On straight-line loops both find the same reuse; under
// conditional control flow the baseline gives up while the framework
// keeps finding (and safely rejecting) reuse — the paper's central
// motivation. Measured as reuse opportunities found and as the load
// reduction actually realized.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "analysis/LoopDataFlow.h"
#include "baseline/DepScalarReplacement.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "transform/LoadElimination.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace ardf;

namespace {

unsigned frameworkReuse(const Program &P, const DoLoopStmt &Loop) {
  LoopDataFlow DF(P, Loop, ProblemSpec::availableValuesPerOccurrence());
  unsigned Count = 0;
  for (const ReusePair &Pair : DF.reusePairs(RefSelector::Uses)) {
    (void)Pair;
    ++Count;
  }
  return Count;
}

void printComparison() {
  std::printf("== C3: framework vs dependence-based scalar replacement ==\n");
  std::printf("%6s %6s | %10s %10s | %12s\n", "stmts", "cond%%",
              "baseline", "framework", "loads saved");
  for (unsigned Stmts : {4u, 8u, 16u}) {
    for (int Cond : {0, 30, 60}) {
      std::string Source = ardfbench::makeSyntheticLoop(
          Stmts, 2, Cond, Stmts * 13 + Cond + 1, 500);
      Program P = parseOrDie(Source);
      const DoLoopStmt &Loop = *P.getFirstLoop();

      BaselineSRResult Base = findReuseDependenceBased(P, Loop);
      unsigned FrameworkCount = frameworkReuse(P, Loop);

      // Realized savings from the framework-driven transform.
      LoadElimResult LR = eliminateRedundantLoads(P);
      Interpreter Before(P), After(LR.Transformed);
      for (const char *Arr : {"A", "B"}) {
        Before.seedArray(Arr, 600, 5);
        After.seedArray(Arr, 600, 5);
      }
      Before.run();
      After.run();
      long long Saved =
          static_cast<long long>(Before.stats().ArrayLoads) -
          static_cast<long long>(After.stats().ArrayLoads);
      bool Same = Before.state().Arrays == After.state().Arrays;

      std::printf("%6u %5d%% | %10s %10u | %10lld %s\n", Stmts, Cond,
                  Base.BailedOnControlFlow
                      ? "bailed"
                      : std::to_string(Base.Reuses.size()).c_str(),
                  FrameworkCount, Saved, Same ? "" : "(MISMATCH!)");
    }
  }
  std::printf("shape check: parity at 0%% conditionals; baseline bails and "
              "the framework keeps finding reuse as conditionals grow\n\n");
}

void BM_BaselineAnalysis(benchmark::State &State) {
  std::string Source = ardfbench::makeSyntheticLoop(16, 2, 0, 99, 500);
  Program P = parseOrDie(Source);
  const DoLoopStmt &Loop = *P.getFirstLoop();
  for (auto _ : State) {
    BaselineSRResult R = findReuseDependenceBased(P, Loop);
    benchmark::DoNotOptimize(R.Reuses.data());
  }
}
BENCHMARK(BM_BaselineAnalysis);

void BM_FrameworkAnalysis(benchmark::State &State) {
  std::string Source = ardfbench::makeSyntheticLoop(16, 2, 0, 99, 500);
  Program P = parseOrDie(Source);
  const DoLoopStmt &Loop = *P.getFirstLoop();
  for (auto _ : State) {
    unsigned Count = frameworkReuse(P, Loop);
    benchmark::DoNotOptimize(Count);
  }
}
BENCHMARK(BM_FrameworkAnalysis);

void BM_FrameworkAnalysisConditional(benchmark::State &State) {
  std::string Source = ardfbench::makeSyntheticLoop(16, 2, 50, 99, 500);
  Program P = parseOrDie(Source);
  const DoLoopStmt &Loop = *P.getFirstLoop();
  for (auto _ : State) {
    unsigned Count = frameworkReuse(P, Loop);
    benchmark::DoNotOptimize(Count);
  }
}
BENCHMARK(BM_FrameworkAnalysisConditional);

} // namespace

int main(int argc, char **argv) {
  printComparison();
  benchmark::Initialize(&argc, argv);
  ardfbench::addHostFingerprint(benchmark::AddCustomContext);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
