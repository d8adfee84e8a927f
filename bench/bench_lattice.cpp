//===- bench/bench_lattice.cpp - Fig. 2 lattice operations ---------------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// Experiment F2: validates the lattice laws of the Fig. 2 chain at
// runtime (meet/join, increment, saturation) and measures the cost of
// the primitive operations — the constant factor behind every node
// visit of the solver.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "lattice/Distance.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

using namespace ardf;

namespace {

void printLawCheck() {
  std::vector<DistanceValue> Chain = {
      DistanceValue::noInstance(),   DistanceValue::finite(0),
      DistanceValue::finite(1),      DistanceValue::finite(17),
      DistanceValue::finite(999),    DistanceValue::allInstances()};
  unsigned Checked = 0, Failed = 0;
  for (const DistanceValue &A : Chain) {
    for (const DistanceValue &B : Chain) {
      ++Checked;
      // min(x, bottom) = bottom; min(x, top) = x (the paper's laws).
      if (DistanceValue::min(A, DistanceValue::noInstance()) !=
          DistanceValue::noInstance())
        ++Failed;
      if (DistanceValue::min(A, DistanceValue::allInstances()) != A)
        ++Failed;
      if (DistanceValue::min(A, B) != DistanceValue::min(B, A))
        ++Failed;
      if (DistanceValue::max(A, DistanceValue::min(A, B)) != A)
        ++Failed;
    }
  }
  std::printf("== Fig. 2 lattice law check ==\n");
  std::printf("pairs checked: %u, law violations: %u (%s)\n\n", Checked,
              Failed, Failed == 0 ? "REPRODUCED" : "MISMATCH");
}

void BM_Meet(benchmark::State &State) {
  DistanceValue A = DistanceValue::finite(3);
  DistanceValue B = DistanceValue::finite(7);
  for (auto _ : State) {
    DistanceValue C = DistanceValue::min(A, B);
    benchmark::DoNotOptimize(C);
  }
}
BENCHMARK(BM_Meet);

void BM_Increment(benchmark::State &State) {
  DistanceValue A = DistanceValue::finite(3);
  for (auto _ : State) {
    DistanceValue C = A.increment(1000);
    benchmark::DoNotOptimize(C);
  }
}
BENCHMARK(BM_Increment);

void BM_TupleMeet(benchmark::State &State) {
  std::vector<DistanceValue> A(State.range(0), DistanceValue::finite(5));
  std::vector<DistanceValue> B(State.range(0), DistanceValue::finite(2));
  for (auto _ : State) {
    for (size_t I = 0; I != A.size(); ++I)
      A[I] = DistanceValue::min(A[I], B[I]);
    benchmark::DoNotOptimize(A.data());
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_TupleMeet)->Arg(4)->Arg(64)->Arg(1024);

} // namespace

int main(int argc, char **argv) {
  printLawCheck();
  benchmark::Initialize(&argc, argv);
  ardfbench::addHostFingerprint(benchmark::AddCustomContext);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
