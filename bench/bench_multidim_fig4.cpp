//===- bench/bench_multidim_fig4.cpp - Fig. 4 multi-dimensional refs -----===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// Experiment F4 (Section 3.6): per-level analysis of the Fig. 4 nest
// with symbolic dimension sizes. The paper's stated outcome: the X
// recurrence (distance 1) is found with respect to i, the Y recurrence
// (distance 2) with respect to j, and the coupled Z recurrence with
// respect to neither — reproduced and checked here, then timed.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "analysis/LoopDataFlow.h"
#include "frontend/Parser.h"
#include "ir/PrettyPrinter.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

using namespace ardf;

namespace {

const char *Fig4 = R"(
  array X[N, N];
  array Y[N, N];
  array Z[N, N];
  do j = 1, UB2 {
    do i = 1, UB1 {
      X[i+1, j] = X[i, j];
      Y[i, j+1] = Y[i, j-1];
      Z[i+1, j] = Z[i, j-1];
    }
  }
)";

struct Findings {
  bool XFound = false;
  bool YFound = false;
  bool ZFound = false;
  int64_t XDist = -1, YDist = -1;
};

Findings analyze(const Program &P, const DoLoopStmt &Body,
                 const std::string &IV) {
  Findings F;
  LoopDataFlow DF(P, Body, ProblemSpec::mustReachingDefs(), IV);
  for (const ReusePair &Pair : DF.reusePairs(RefSelector::Uses)) {
    const std::string &Array =
        DF.universe().occurrence(Pair.SourceId).arrayName();
    if (Array == "X") {
      F.XFound = true;
      F.XDist = Pair.Distance;
    } else if (Array == "Y") {
      F.YFound = true;
      F.YDist = Pair.Distance;
    } else if (Array == "Z") {
      F.ZFound = true;
    }
  }
  return F;
}

void printFig4Table() {
  Program P = parseOrDie(Fig4);
  const auto *Outer = P.getFirstLoop();
  const auto *Inner = cast<DoLoopStmt>(Outer->getBody()[0].get());

  Findings WrtI = analyze(P, *Inner, "i");
  Findings WrtJ = analyze(P, *Inner, "j");

  std::printf("== F4: Fig. 4 recurrences per analysis level ==\n");
  std::printf("%14s | %12s %12s %12s\n", "analysis", "X[i+1,j]",
              "Y[i,j+1]", "Z[i+1,j]");
  std::printf("%14s | %9s @%lld %9s %3s %12s\n", "w.r.t. i",
              WrtI.XFound ? "found" : "-",
              static_cast<long long>(WrtI.XDist), WrtI.YFound ? "found" : "-",
              "", WrtI.ZFound ? "found" : "-");
  std::printf("%14s | %12s %9s @%lld %12s\n", "w.r.t. j",
              WrtJ.XFound ? "found" : "-", WrtJ.YFound ? "found" : "-",
              static_cast<long long>(WrtJ.YDist),
              WrtJ.ZFound ? "found" : "-");

  bool Reproduced = WrtI.XFound && WrtI.XDist == 1 && !WrtI.YFound &&
                    !WrtI.ZFound && WrtJ.YFound && WrtJ.YDist == 2 &&
                    !WrtJ.XFound && !WrtJ.ZFound;
  std::printf("paper outcome (X@1 wrt i, Y@2 wrt j, Z in neither): %s\n\n",
              Reproduced ? "REPRODUCED" : "MISMATCH");
}

void BM_Fig4AnalysisPerLevel(benchmark::State &State) {
  Program P = parseOrDie(Fig4);
  const auto *Outer = P.getFirstLoop();
  const auto *Inner = cast<DoLoopStmt>(Outer->getBody()[0].get());
  for (auto _ : State) {
    Findings A = analyze(P, *Inner, "i");
    Findings B = analyze(P, *Inner, "j");
    benchmark::DoNotOptimize(A.XFound);
    benchmark::DoNotOptimize(B.YFound);
  }
}
BENCHMARK(BM_Fig4AnalysisPerLevel);

void BM_SymbolicLinearization(benchmark::State &State) {
  Program P = parseOrDie(Fig4);
  const auto *Outer = P.getFirstLoop();
  const auto *Inner = cast<DoLoopStmt>(Outer->getBody()[0].get());
  const auto *AS = cast<AssignStmt>(Inner->getBody()[0].get());
  for (auto _ : State) {
    std::optional<AffineAccess> A =
        makeAffineAccess(*AS->getArrayTarget(), P, "i");
    benchmark::DoNotOptimize(A.has_value());
  }
}
BENCHMARK(BM_SymbolicLinearization);

} // namespace

int main(int argc, char **argv) {
  printFig4Table();
  benchmark::Initialize(&argc, argv);
  ardfbench::addHostFingerprint(benchmark::AddCustomContext);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
