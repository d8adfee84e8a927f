//===- bench/bench_table1.cpp - Regenerates the paper's Table 1 ----------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// Experiment T1/F1/F3: prints the Fig. 3 loop flow graph and the exact
// Table 1 data flow tuples (initialization pass + two iterate passes)
// for must-reaching definitions on the Fig. 1 loop, then times the
// whole analysis stack (parse excluded vs included).
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "analysis/LoopDataFlow.h"
#include "frontend/Parser.h"
#include "ir/PrettyPrinter.h"

#include <benchmark/benchmark.h>

#include <iostream>

using namespace ardf;

namespace {

const char *Fig1 = R"(
  do i = 1, 1000 {
    C[i+2] = C[i] * 2;
    B[2*i] = C[i] + X;
    if (C[i] == 0) { C[i] = B[i-1]; }
    B[i] = C[i+1];
  }
)";

void printTable1() {
  Program P = parseOrDie(Fig1);
  SolverOptions Opts;
  Opts.RecordHistory = true;
  LoopDataFlow DF(P, *P.getFirstLoop(), ProblemSpec::mustReachingDefs(),
                  Opts);
  const LoopFlowGraph &Graph = DF.graph();

  std::cout << "== Table 1: must-reaching definitions on Fig. 1 ==\n";
  std::cout << "tuple order " << DF.framework().tupleHeader() << "\n";
  for (const PassSnapshot &Snap : DF.result().History) {
    std::cout << "-- " << Snap.Label << " --\n";
    for (unsigned Id : Graph.reversePostorder()) {
      unsigned Num = Graph.getNode(Id).StmtNumber;
      if (!Num)
        continue;
      std::cout << "  IN[" << Num << "] = " << tupleToString(Snap.In[Id])
                << "  OUT[" << Num << "] = " << tupleToString(Snap.Out[Id])
                << '\n';
    }
  }
  std::cout << "node visits: " << DF.result().NodeVisits << " (= 3 * "
            << Graph.getNumNodes() << ")\n";
  std::cout << "paper fixed point IN[1] = (2, 1, _, T): "
            << (tupleToString(DF.result().In[Graph.getEntry()]) ==
                        "(2, 1, _, T)"
                    ? "REPRODUCED"
                    : "MISMATCH")
            << "\n\n";
}

void BM_Table1Analysis(benchmark::State &State) {
  Program P = parseOrDie(Fig1);
  const DoLoopStmt &Loop = *P.getFirstLoop();
  for (auto _ : State) {
    LoopDataFlow DF(P, Loop, ProblemSpec::mustReachingDefs());
    benchmark::DoNotOptimize(DF.result().In.data());
  }
}
BENCHMARK(BM_Table1Analysis);

void BM_Table1ParseAndAnalyze(benchmark::State &State) {
  for (auto _ : State) {
    Program P = parseOrDie(Fig1);
    LoopDataFlow DF(P, *P.getFirstLoop(),
                    ProblemSpec::mustReachingDefs());
    benchmark::DoNotOptimize(DF.result().In.data());
  }
}
BENCHMARK(BM_Table1ParseAndAnalyze);

} // namespace

int main(int argc, char **argv) {
  printTable1();
  benchmark::Initialize(&argc, argv);
  ardfbench::addHostFingerprint(benchmark::AddCustomContext);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
