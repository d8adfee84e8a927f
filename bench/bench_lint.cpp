//===- bench/bench_lint.cpp - Lint engine throughput ----------------------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// Measures the end-to-end diagnostics engine: parse + validate + the
// four framework-backed checks per loop, with and without the
// two-engine cross-check, plus the cost of rendering the diagnostics in
// each output format. The cross-check column shows what the permanent
// packed-vs-reference oracle costs when shipped to users; rendering is
// benchmarked separately because CI pipelines run --format=sarif on
// every push.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "lint/LintEngine.h"
#include "lint/Render.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <sstream>

using namespace ardf;

namespace {

std::string loopSourceFor(unsigned Stmts) {
  return ardfbench::makeSyntheticLoop(Stmts, 4, 20, Stmts * 7 + 3, 1000);
}

std::string programSourceFor(unsigned Loops) {
  return ardfbench::makeSyntheticProgram(Loops, 16, 4, 20, 20260807, 1000);
}

LintOptions lintOpts(SolverOptions::Engine Eng, bool CrossCheck) {
  LintOptions Opts;
  Opts.Engine = Eng;
  Opts.CrossCheck = CrossCheck;
  return Opts;
}

void printLintTable() {
  std::printf("== lint throughput: full engine over one synthetic loop ==\n");
  std::printf("%6s | %12s %12s %12s | %6s\n", "stmts", "reference", "packed",
              "crosscheck", "diags");
  for (unsigned Stmts : {8u, 32u, 128u}) {
    std::string Src = loopSourceFor(Stmts);
    unsigned Reps = Stmts <= 8 ? 200 : Stmts <= 32 ? 50 : 10;
    size_t Diags = 0;
    double Times[3];
    const LintOptions Configs[] = {
        lintOpts(SolverOptions::Engine::Reference, false),
        lintOpts(SolverOptions::Engine::PackedKernel, false),
        lintOpts(SolverOptions::Engine::Reference, true),
    };
    for (int C = 0; C != 3; ++C) {
      lintSource(Src, "bench.arf", Configs[C]); // warm-up
      auto Start = std::chrono::steady_clock::now();
      for (unsigned I = 0; I != Reps; ++I) {
        LintResult R = lintSource(Src, "bench.arf", Configs[C]);
        Diags = R.Diags.size();
        benchmark::DoNotOptimize(R.Diags.data());
      }
      Times[C] = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - Start)
                     .count() /
                 Reps;
    }
    std::printf("%6u | %10.2fus %10.2fus %10.2fus | %6zu\n", Stmts,
                Times[0] * 1e6, Times[1] * 1e6, Times[2] * 1e6, Diags);
  }
  std::printf("(crosscheck solves every problem with BOTH engines and "
              "compares the solutions)\n\n");
}

void BM_LintLoop(benchmark::State &State) {
  std::string Src = loopSourceFor(State.range(0));
  LintOptions Opts = lintOpts(SolverOptions::Engine::Reference, false);
  for (auto _ : State)
    benchmark::DoNotOptimize(lintSource(Src, "bench.arf", Opts).Diags.data());
}
BENCHMARK(BM_LintLoop)->Arg(8)->Arg(32)->Arg(128);

void BM_LintLoopPacked(benchmark::State &State) {
  std::string Src = loopSourceFor(State.range(0));
  LintOptions Opts = lintOpts(SolverOptions::Engine::PackedKernel, false);
  for (auto _ : State)
    benchmark::DoNotOptimize(lintSource(Src, "bench.arf", Opts).Diags.data());
}
BENCHMARK(BM_LintLoopPacked)->Arg(8)->Arg(32)->Arg(128);

void BM_LintLoopCrossCheck(benchmark::State &State) {
  std::string Src = loopSourceFor(State.range(0));
  LintOptions Opts = lintOpts(SolverOptions::Engine::Reference, true);
  for (auto _ : State)
    benchmark::DoNotOptimize(lintSource(Src, "bench.arf", Opts).Diags.data());
}
BENCHMARK(BM_LintLoopCrossCheck)->Arg(8)->Arg(32)->Arg(128);

void BM_LintProgram(benchmark::State &State) {
  std::string Src = programSourceFor(State.range(0));
  LintOptions Opts = lintOpts(SolverOptions::Engine::Reference, false);
  for (auto _ : State)
    benchmark::DoNotOptimize(lintSource(Src, "bench.arf", Opts).Diags.data());
}
BENCHMARK(BM_LintProgram)->Arg(4)->Arg(16)->Arg(64);

void BM_RenderText(benchmark::State &State) {
  std::string Src = programSourceFor(16);
  LintResult R = lintSource(Src, "bench.arf",
                            lintOpts(SolverOptions::Engine::Reference, false));
  SourceMap Sources;
  Sources.add("bench.arf", Src);
  for (auto _ : State) {
    std::ostringstream OS;
    renderText(OS, R.Diags, Sources);
    benchmark::DoNotOptimize(OS.str().data());
  }
}
BENCHMARK(BM_RenderText);

void BM_RenderJsonLines(benchmark::State &State) {
  LintResult R =
      lintSource(programSourceFor(16), "bench.arf",
                 lintOpts(SolverOptions::Engine::Reference, false));
  for (auto _ : State) {
    std::ostringstream OS;
    renderJsonLines(OS, R.Diags);
    benchmark::DoNotOptimize(OS.str().data());
  }
}
BENCHMARK(BM_RenderJsonLines);

void BM_RenderSarif(benchmark::State &State) {
  LintResult R =
      lintSource(programSourceFor(16), "bench.arf",
                 lintOpts(SolverOptions::Engine::Reference, false));
  for (auto _ : State) {
    std::ostringstream OS;
    renderSarif(OS, R.Diags);
    benchmark::DoNotOptimize(OS.str().data());
  }
}
BENCHMARK(BM_RenderSarif);

} // namespace

int main(int argc, char **argv) {
  printLintTable();
  benchmark::Initialize(&argc, argv);
  ardfbench::addHostFingerprint(benchmark::AddCustomContext);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
