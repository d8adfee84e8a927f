//===- bench/bench_stores_fig6.cpp - Fig. 6 redundant stores -------------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// Experiment F6: redundant store elimination on the Fig. 6 loop. The
// paper claims the 1-redundant store can be removed from all but the
// final iteration; we verify observational equivalence under the
// interpreter and report the store-count reduction across trip counts
// and condition densities.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"
#include "transform/StoreElimination.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

using namespace ardf;

namespace {

std::string fig6Source(int64_t N) {
  return "do i = 1, " + std::to_string(N) +
         " {\n  A[i] = i + x;\n  if (x == 0) { A[i+1] = 99; }\n}\n";
}

ExecStats run(const Program &P, int64_t X) {
  Interpreter I(P);
  I.setScalar("x", X);
  I.seedArray("A", 64, 11);
  I.run();
  return I.stats();
}

bool sameState(const Program &A, const Program &B, int64_t X) {
  Interpreter IA(A), IB(B);
  IA.setScalar("x", X);
  IB.setScalar("x", X);
  IA.seedArray("A", 64, 11);
  IB.seedArray("A", 64, 11);
  IA.run();
  IB.run();
  return IA.state().Arrays == IB.state().Arrays;
}

void printFig6Table() {
  std::printf("== F6: Fig. 6 redundant store elimination ==\n");
  std::printf("%8s %4s | %10s %10s %8s %10s\n", "N", "x", "stores",
              "after", "saved%%", "state");
  for (int64_t N : {100, 1000, 10000}) {
    Program P = parseOrDie(fig6Source(N));
    StoreElimResult R = eliminateRedundantStores(P);
    for (int64_t X : {0, 1}) {
      ExecStats Before = run(P, X);
      ExecStats After = run(R.Transformed, X);
      std::printf("%8lld %4lld | %10llu %10llu %7.1f%% %10s\n",
                  static_cast<long long>(N), static_cast<long long>(X),
                  static_cast<unsigned long long>(Before.ArrayStores),
                  static_cast<unsigned long long>(After.ArrayStores),
                  100.0 * (Before.ArrayStores - After.ArrayStores) /
                      Before.ArrayStores,
                  sameState(P, R.Transformed, X) ? "identical"
                                                 : "MISMATCH");
    }
  }
  Program P = parseOrDie(fig6Source(1000));
  StoreElimResult R = eliminateRedundantStores(P);
  std::printf("eliminated %u store(s), unpeeled %lld iteration(s): %s\n\n",
              R.StoresEliminated,
              static_cast<long long>(R.UnpeeledIterations),
              R.Notes.empty() ? "" : R.Notes.front().c_str());
}

void BM_StoreElimAnalysis(benchmark::State &State) {
  Program P = parseOrDie(fig6Source(1000));
  for (auto _ : State) {
    StoreElimResult R = eliminateRedundantStores(P);
    benchmark::DoNotOptimize(R.StoresEliminated);
  }
}
BENCHMARK(BM_StoreElimAnalysis);

void BM_TransformedExecution(benchmark::State &State) {
  Program P = parseOrDie(fig6Source(1000));
  StoreElimResult R = eliminateRedundantStores(P);
  for (auto _ : State) {
    Interpreter I(R.Transformed);
    I.setScalar("x", 0);
    I.run();
    benchmark::DoNotOptimize(I.stats().ArrayStores);
  }
}
BENCHMARK(BM_TransformedExecution);

void BM_OriginalExecution(benchmark::State &State) {
  Program P = parseOrDie(fig6Source(1000));
  for (auto _ : State) {
    Interpreter I(P);
    I.setScalar("x", 0);
    I.run();
    benchmark::DoNotOptimize(I.stats().ArrayStores);
  }
}
BENCHMARK(BM_OriginalExecution);

} // namespace

int main(int argc, char **argv) {
  printFig6Table();
  benchmark::Initialize(&argc, argv);
  ardfbench::addHostFingerprint(benchmark::AddCustomContext);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
