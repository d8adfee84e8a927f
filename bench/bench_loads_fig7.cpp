//===- bench/bench_loads_fig7.cpp - Fig. 7 redundant loads ---------------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// Experiment F7: redundant load elimination (scalar replacement) on the
// Fig. 7 loop. The conditional use of A[i] re-reads the value the
// unconditional store A[i+1] produced one iteration earlier; the
// transformed loop keeps it in a scalar temporary. Reports the load
// reduction across trip counts plus the deeper-pipeline sweep.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "transform/LoadElimination.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

using namespace ardf;

namespace {

std::string fig7Source(int64_t N) {
  return "do i = 1, " + std::to_string(N) +
         " {\n  if (A[i] > 0) { y = y + A[i]; }\n  A[i+1] = i * x;\n}\n";
}

ExecStats run(const Program &P, int64_t X, int64_t &YOut) {
  Interpreter I(P);
  I.setScalar("x", X);
  I.seedArray("A", 32, 23);
  I.run();
  YOut = I.scalar("y");
  return I.stats();
}

void printFig7Table() {
  std::printf("== F7: Fig. 7 redundant load elimination ==\n");
  std::printf("%8s %4s | %10s %10s %8s %10s\n", "N", "x", "loads",
              "after", "saved%%", "result");
  for (int64_t N : {100, 1000, 10000}) {
    Program P = parseOrDie(fig7Source(N));
    LoadElimResult R = eliminateRedundantLoads(P);
    for (int64_t X : {3, -1}) {
      int64_t YBefore = 0, YAfter = 0;
      ExecStats Before = run(P, X, YBefore);
      ExecStats After = run(R.Transformed, X, YAfter);
      std::printf("%8lld %4lld | %10llu %10llu %7.1f%% %10s\n",
                  static_cast<long long>(N), static_cast<long long>(X),
                  static_cast<unsigned long long>(Before.ArrayLoads),
                  static_cast<unsigned long long>(After.ArrayLoads),
                  Before.ArrayLoads
                      ? 100.0 * (Before.ArrayLoads - After.ArrayLoads) /
                            Before.ArrayLoads
                      : 0.0,
                  YBefore == YAfter ? "identical" : "MISMATCH");
    }
  }

  std::printf("\ndeep reuse sweep (A[i+D] = A[i] + x, N = 1000):\n");
  std::printf("%6s | %10s %10s %14s\n", "D", "loads", "after",
              "temps introduced");
  for (int64_t D : {1, 2, 4, 8}) {
    std::string Source = "do i = 1, 1000 { A[i+" + std::to_string(D) +
                         "] = A[i] + x; }";
    Program P = parseOrDie(Source);
    LoadElimResult R = eliminateRedundantLoads(P);
    int64_t Y = 0;
    ExecStats Before = run(P, 2, Y);
    ExecStats After = run(R.Transformed, 2, Y);
    std::printf("%6lld | %10llu %10llu %14u\n", static_cast<long long>(D),
                static_cast<unsigned long long>(Before.ArrayLoads),
                static_cast<unsigned long long>(After.ArrayLoads),
                R.TempsIntroduced);
  }
  std::printf("shape check: in-loop loads drop to ~0, preheader fills "
              "grow linearly with D\n\n");
}

void BM_LoadElimAnalysis(benchmark::State &State) {
  Program P = parseOrDie(fig7Source(1000));
  for (auto _ : State) {
    LoadElimResult R = eliminateRedundantLoads(P);
    benchmark::DoNotOptimize(R.LoadsEliminated);
  }
}
BENCHMARK(BM_LoadElimAnalysis);

void BM_TransformedExecution(benchmark::State &State) {
  Program P = parseOrDie(fig7Source(1000));
  LoadElimResult R = eliminateRedundantLoads(P);
  for (auto _ : State) {
    Interpreter I(R.Transformed);
    I.setScalar("x", 3);
    I.run();
    benchmark::DoNotOptimize(I.stats().ArrayLoads);
  }
}
BENCHMARK(BM_TransformedExecution);

void BM_OriginalExecution(benchmark::State &State) {
  Program P = parseOrDie(fig7Source(1000));
  for (auto _ : State) {
    Interpreter I(P);
    I.setScalar("x", 3);
    I.run();
    benchmark::DoNotOptimize(I.stats().ArrayLoads);
  }
}
BENCHMARK(BM_OriginalExecution);

} // namespace

int main(int argc, char **argv) {
  printFig7Table();
  benchmark::Initialize(&argc, argv);
  ardfbench::addHostFingerprint(benchmark::AddCustomContext);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
