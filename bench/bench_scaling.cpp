//===- bench/bench_scaling.cpp - Practicality / scaling (C4) -------------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// Experiment C4: the practicality claim. Node visits stay exactly 3N
// (must) / 2N (may) as loops grow; wall-clock per analysis scales with
// N * |G| (tuple width times nodes, the O(N^2) work/space of Section
// 3.2). Sweeps body size, conditional density, and reference density.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "analysis/LoopDataFlow.h"
#include "frontend/Parser.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace ardf;

namespace {

void printScalingTable() {
  std::printf("== C4: analysis scale (must-reaching-defs) ==\n");
  std::printf("%6s | %6s %6s %10s %12s\n", "stmts", "nodes", "|G|",
              "visits", "visits/3N");
  for (unsigned Stmts : {8u, 32u, 128u, 512u}) {
    std::string Source =
        ardfbench::makeSyntheticLoop(Stmts, 4, 20, Stmts + 3, 1000);
    Program P = parseOrDie(Source);
    LoopDataFlow DF(P, *P.getFirstLoop(),
                    ProblemSpec::mustReachingDefs());
    unsigned N = DF.graph().getNumNodes();
    std::printf("%6u | %6u %6u %10u %12.2f\n", Stmts, N,
                DF.framework().getNumTracked(), DF.result().NodeVisits,
                static_cast<double>(DF.result().NodeVisits) / (3.0 * N));
  }
  std::printf("shape check: visits/3N == 1.00 at every size "
              "(the practicality claim)\n\n");
}

std::string sourceFor(int64_t Stmts, int Cond) {
  return ardfbench::makeSyntheticLoop(Stmts, 4, Cond, Stmts * 3 + Cond + 7,
                                      1000);
}

void BM_MustAnalysis(benchmark::State &State) {
  Program P = parseOrDie(sourceFor(State.range(0), 20));
  const DoLoopStmt &Loop = *P.getFirstLoop();
  for (auto _ : State) {
    LoopDataFlow DF(P, Loop, ProblemSpec::mustReachingDefs());
    benchmark::DoNotOptimize(DF.result().In.data());
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_MustAnalysis)->Range(8, 512)->Complexity();

void BM_MayAnalysis(benchmark::State &State) {
  Program P = parseOrDie(sourceFor(State.range(0), 20));
  const DoLoopStmt &Loop = *P.getFirstLoop();
  for (auto _ : State) {
    LoopDataFlow DF(P, Loop, ProblemSpec::reachingReferences());
    benchmark::DoNotOptimize(DF.result().In.data());
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_MayAnalysis)->Range(8, 512)->Complexity();

void BM_AvailableValues(benchmark::State &State) {
  Program P = parseOrDie(sourceFor(State.range(0), 20));
  const DoLoopStmt &Loop = *P.getFirstLoop();
  for (auto _ : State) {
    LoopDataFlow DF(P, Loop, ProblemSpec::availableValues());
    benchmark::DoNotOptimize(DF.result().In.data());
  }
}
BENCHMARK(BM_AvailableValues)->Arg(8)->Arg(64)->Arg(256);

void BM_BusyStores(benchmark::State &State) {
  Program P = parseOrDie(sourceFor(State.range(0), 20));
  const DoLoopStmt &Loop = *P.getFirstLoop();
  for (auto _ : State) {
    LoopDataFlow DF(P, Loop, ProblemSpec::busyStores());
    benchmark::DoNotOptimize(DF.result().In.data());
  }
}
BENCHMARK(BM_BusyStores)->Arg(8)->Arg(64)->Arg(256);

void BM_ConditionalDensity(benchmark::State &State) {
  Program P = parseOrDie(sourceFor(64, State.range(0)));
  const DoLoopStmt &Loop = *P.getFirstLoop();
  for (auto _ : State) {
    LoopDataFlow DF(P, Loop, ProblemSpec::mustReachingDefs());
    benchmark::DoNotOptimize(DF.result().In.data());
  }
}
BENCHMARK(BM_ConditionalDensity)->Arg(0)->Arg(30)->Arg(60)->Arg(90);

} // namespace

int main(int argc, char **argv) {
  printScalingTable();
  benchmark::Initialize(&argc, argv);
  ardfbench::addHostFingerprint(benchmark::AddCustomContext);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
