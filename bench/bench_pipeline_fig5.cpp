//===- bench/bench_pipeline_fig5.cpp - Fig. 5 register pipelining --------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// Experiment F5: reproduces the Fig. 5 comparison on the simulated
// machine. The paper shows that a 3-stage register pipeline removes all
// in-loop loads of A[i]; we report loads/stores/moves/cycles for the
// conventional code, the explicit-move pipeline, and the rotating
// register window (Cydra 5 ICP, Section 4.1.4), across trip counts and
// pipeline depths.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "codegen/LoopCodeGen.h"
#include "frontend/Parser.h"
#include "machine/Simulator.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

using namespace ardf;

namespace {

MachineStats simulate(const std::string &Source, PipelineMode Mode) {
  Program P = parseOrDie(Source);
  CodeGenOptions Opts;
  Opts.Mode = Mode;
  CodeGenResult CG = generateLoopCode(P, Opts);
  MachineSimulator Sim(CG.Prog);
  auto It = CG.ScalarRegs.find("X");
  if (It != CG.ScalarRegs.end())
    Sim.setReg(It->second, 7);
  Sim.run();
  return Sim.stats();
}

void printFig5Table() {
  std::printf("== F5: Fig. 5 loop A[i+2] = A[i] + X over N iterations ==\n");
  std::printf("%8s %10s | %8s %8s %8s %8s\n", "N", "variant", "loads",
              "stores", "moves", "cycles");
  for (int64_t N : {100, 1000, 10000}) {
    std::string Source =
        "do i = 1, " + std::to_string(N) + " { A[i+2] = A[i] + X; }";
    struct Row {
      const char *Name;
      PipelineMode Mode;
    } Rows[] = {{"conv", PipelineMode::None},
                {"moves", PipelineMode::Moves},
                {"rotate", PipelineMode::Rotate}};
    for (const Row &R : Rows) {
      MachineStats S = simulate(Source, R.Mode);
      std::printf("%8lld %10s | %8llu %8llu %8llu %8llu\n",
                  static_cast<long long>(N), R.Name,
                  static_cast<unsigned long long>(S.Loads),
                  static_cast<unsigned long long>(S.Stores),
                  static_cast<unsigned long long>(S.Moves),
                  static_cast<unsigned long long>(S.Cycles));
    }
  }

  std::printf("\npipeline depth sweep (A[i+D] = A[i] + X, N = 1000):\n");
  std::printf("%6s | %10s %12s %12s\n", "depth", "conv loads",
              "moves cycles", "rot cycles");
  for (int64_t D : {1, 2, 3, 4, 6, 8}) {
    std::string Source = "do i = 1, 1000 { A[i+" + std::to_string(D) +
                         "] = A[i] + X; }";
    MachineStats Conv = simulate(Source, PipelineMode::None);
    MachineStats Mov = simulate(Source, PipelineMode::Moves);
    MachineStats Rot = simulate(Source, PipelineMode::Rotate);
    std::printf("%6lld | %10llu %12llu %12llu\n",
                static_cast<long long>(D + 1),
                static_cast<unsigned long long>(Conv.Loads),
                static_cast<unsigned long long>(Mov.Cycles),
                static_cast<unsigned long long>(Rot.Cycles));
  }
  std::printf("shape check: pipelined loads stay O(depth); rotating beats "
              "moves for deep pipelines\n\n");
}

void BM_SimulateConventional(benchmark::State &State) {
  std::string Source = "do i = 1, 1000 { A[i+2] = A[i] + X; }";
  Program P = parseOrDie(Source);
  CodeGenResult CG = generateLoopCode(P, {});
  for (auto _ : State) {
    MachineSimulator Sim(CG.Prog);
    Sim.run();
    benchmark::DoNotOptimize(Sim.stats().Cycles);
  }
}
BENCHMARK(BM_SimulateConventional);

void BM_SimulateRotating(benchmark::State &State) {
  std::string Source = "do i = 1, 1000 { A[i+2] = A[i] + X; }";
  Program P = parseOrDie(Source);
  CodeGenOptions Opts;
  Opts.Mode = PipelineMode::Rotate;
  CodeGenResult CG = generateLoopCode(P, Opts);
  for (auto _ : State) {
    MachineSimulator Sim(CG.Prog);
    Sim.run();
    benchmark::DoNotOptimize(Sim.stats().Cycles);
  }
}
BENCHMARK(BM_SimulateRotating);

void BM_CodeGenPipelined(benchmark::State &State) {
  Program P = parseOrDie("do i = 1, 1000 { A[i+2] = A[i] + X; }");
  CodeGenOptions Opts;
  Opts.Mode = PipelineMode::Moves;
  for (auto _ : State) {
    CodeGenResult CG = generateLoopCode(P, Opts);
    benchmark::DoNotOptimize(CG.Prog.Code.data());
  }
}
BENCHMARK(BM_CodeGenPipelined);

} // namespace

int main(int argc, char **argv) {
  printFig5Table();
  benchmark::Initialize(&argc, argv);
  ardfbench::addHostFingerprint(benchmark::AddCustomContext);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
