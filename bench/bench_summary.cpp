//===- bench/bench_summary.cpp - Transfer-summary warm re-solves ---------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// The loop-transfer-summary experiment: Engine::Summary composes each
// node's packed flow functions along the acyclic loop flow graph once
// (closing over the back edge), after which every re-solve of the
// instance is a straight unpack of the precomputed fixed point -- O(N)
// cell writes, zero schedule passes. This bench prices the three legs
// against the packed kernel on the bench_scaling loop family: the
// one-time lowering (cold), the warm per-re-solve application, and the
// kernel sweep the application replaces. The daemon-style incremental
// scenario (edit one loop of a many-loop program, rerun) rides on the
// driver's structural diff.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "analysis/LoopAnalysisSession.h"
#include "dataflow/CompiledFlow.h"
#include "dataflow/FlowSummary.h"
#include "driver/ProgramAnalysisDriver.h"
#include "frontend/Parser.h"
#include "telemetry/Telemetry.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>

using namespace ardf;

namespace {

/// The bench_scaling loop family (same generator parameters and seeds
/// as bench_kernel, so rows are comparable across the two files).
std::string sourceFor(int64_t Stmts) {
  return ardfbench::makeSyntheticLoop(Stmts, 4, 20, Stmts * 3 + 20 + 7,
                                      1000);
}

double secondsOf(unsigned Reps, const std::function<void()> &Fn) {
  auto Start = std::chrono::steady_clock::now();
  for (unsigned I = 0; I != Reps; ++I)
    Fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

void printSummaryTable() {
  std::printf("== transfer-summary apply vs packed kernel (warm "
              "workspace, must-reaching-defs) ==\n");
  std::printf("%6s | %6s %6s %12s %12s %8s %12s\n", "stmts", "nodes", "|G|",
              "kernel", "summary", "speedup", "cold-lower");
  for (unsigned Stmts : {8u, 32u, 128u, 512u}) {
    Program P = parseOrDie(sourceFor(Stmts));
    LoopAnalysisSession Session(P, *P.getFirstLoop());
    const ProblemSpec Spec = ProblemSpec::mustReachingDefs();
    const FrameworkInstance &FW = Session.instance(Spec);
    const CompiledFlowProgram &CF = Session.compiledFlow(Spec);
    const FlowSummary &S = Session.flowSummary(Spec);

    SolveWorkspace KernWS, SumWS;
    solveCompiled(CF, KernWS); // warm-up
    applySummary(S, SumWS);

    unsigned Reps = Stmts <= 32 ? 5000 : Stmts <= 128 ? 1000 : 100;
    double TK = secondsOf(Reps, [&] {
      benchmark::DoNotOptimize(solveCompiled(CF, KernWS).In.data());
    });
    double TS = secondsOf(Reps, [&] {
      benchmark::DoNotOptimize(applySummary(S, SumWS).In.data());
    });
    unsigned LowerReps = Stmts <= 128 ? 200 : 30;
    double TL = secondsOf(LowerReps, [&] {
      FlowSummary L = FlowSummary::lower(CF);
      benchmark::DoNotOptimize(L.FinalIn.data());
      benchmark::DoNotOptimize(L.FinalIn32.data());
    });
    std::printf("%6u | %6u %6u %10.2fus %10.2fus %7.2fx %10.2fus\n", Stmts,
                FW.getGraph().getNumNodes(), FW.getNumTracked(),
                TK / Reps * 1e6, TS / Reps * 1e6, TK / TS,
                TL / LowerReps * 1e6);
  }
  std::printf("(applications are bit-identical to the kernel's "
              "SolveResult; the summary replays budget boundaries and "
              "telemetry, and a workspace already holding the clean "
              "export skips even the unpack -- the O(1) warm path)\n\n");
}

/// Warm re-solve: the summary is composed once outside the timed loop;
/// each iteration is one full budget-checked application. After the
/// first iteration the workspace holds the summary's clean export, so
/// the steady state is the O(1) warm path (counter/budget replay, no
/// export sweep).
void summaryApplyBench(benchmark::State &State, ProblemSpec Spec) {
  Program P = parseOrDie(sourceFor(State.range(0)));
  LoopAnalysisSession Session(P, *P.getFirstLoop());
  const FlowSummary &S = Session.flowSummary(Spec);
  SolveWorkspace WS;
  for (auto _ : State)
    benchmark::DoNotOptimize(applySummary(S, WS).In.data());
}

void BM_SummaryWarmApply(benchmark::State &State) {
  summaryApplyBench(State, ProblemSpec::mustReachingDefs());
}
BENCHMARK(BM_SummaryWarmApply)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

void BM_SummaryWarmApplyMay(benchmark::State &State) {
  summaryApplyBench(State, ProblemSpec::reachingReferences());
}
BENCHMARK(BM_SummaryWarmApplyMay)->Arg(32)->Arg(512);

// The export sweep a *cold* workspace pays: alternating two summaries
// of the same program defeats the warm-skip token every iteration, so
// each apply runs the full fixed-point unpack. This bounds what any
// workspace-switching caller pays; the warm benchmark above is the
// steady state. Each iteration is two applies (one per summary).
void BM_SummaryApplyExport(benchmark::State &State) {
  Program P = parseOrDie(sourceFor(State.range(0)));
  LoopAnalysisSession Session(P, *P.getFirstLoop());
  const CompiledFlowProgram &CF =
      Session.compiledFlow(ProblemSpec::mustReachingDefs());
  FlowSummary S1 = FlowSummary::lower(CF);
  FlowSummary S2 = FlowSummary::lower(CF);
  SolveWorkspace WS;
  for (auto _ : State) {
    benchmark::DoNotOptimize(applySummary(S1, WS).In.data());
    benchmark::DoNotOptimize(applySummary(S2, WS).In.data());
  }
}
BENCHMARK(BM_SummaryApplyExport)->Arg(32)->Arg(128)->Arg(512);

// The kernel sweep the warm apply replaces, re-measured in this binary
// so the committed JSON carries the ratio under one compiler/ISA/run.
void BM_PackedKernelSolve(benchmark::State &State) {
  Program P = parseOrDie(sourceFor(State.range(0)));
  LoopAnalysisSession Session(P, *P.getFirstLoop());
  const CompiledFlowProgram &CF =
      Session.compiledFlow(ProblemSpec::mustReachingDefs());
  SolveWorkspace WS;
  for (auto _ : State)
    benchmark::DoNotOptimize(solveCompiled(CF, WS).In.data());
}
BENCHMARK(BM_PackedKernelSolve)->Arg(8)->Arg(32)->Arg(128)->Arg(512);

// The one-time composition cost a session amortizes over re-solves.
void BM_SummaryColdLower(benchmark::State &State) {
  Program P = parseOrDie(sourceFor(State.range(0)));
  LoopAnalysisSession Session(P, *P.getFirstLoop());
  const CompiledFlowProgram &CF =
      Session.compiledFlow(ProblemSpec::mustReachingDefs());
  for (auto _ : State) {
    FlowSummary S = FlowSummary::lower(CF);
    benchmark::DoNotOptimize(S.FinalIn.data());
    benchmark::DoNotOptimize(S.FinalIn32.data());
  }
}
BENCHMARK(BM_SummaryColdLower)->Arg(32)->Arg(512);

// The daemon scenario: a program of range(0) loops, one of which is
// edited back and forth. Each iteration is two driver.rerun calls (one
// per direction); the structural diff carries every unchanged loop's
// session -- summaries included -- so only the edited loop re-lowers
// and re-solves. Counters export how much summary work actually ran.
void BM_DriverRerunOneEdit(benchmark::State &State) {
  unsigned NumLoops = State.range(0);
  std::string BaseSrc =
      ardfbench::makeSyntheticProgram(NumLoops, 16, 4, 20, 42);
  std::string EditSrc =
      ardfbench::makeSyntheticProgram(NumLoops - 1, 16, 4, 20, 42) +
      ardfbench::makeSyntheticLoop(16, 4, 20, 777);
  Program A = parseOrDie(BaseSrc);
  Program B = parseOrDie(EditSrc);
  DriverOptions Opts;
  Opts.Solver.Eng = SolverOptions::Engine::Summary;
  ProgramAnalysisDriver Driver(A, Opts);
  Driver.run();
  telem::Telemetry Telem;
  telem::TelemetryScope Scope(Telem);
  unsigned Reused = 0;
  for (auto _ : State) {
    Reused += Driver.rerun(B).Reused;
    Reused += Driver.rerun(A).Reused;
    benchmark::DoNotOptimize(Reused);
  }
  State.counters["reused_loops"] =
      benchmark::Counter(Reused, benchmark::Counter::kAvgIterations);
  State.counters["summary_lowerings"] =
      benchmark::Counter(Telem.get(telem::Counter::SummaryLowerings),
                         benchmark::Counter::kAvgIterations);
  State.counters["summary_applies"] =
      benchmark::Counter(Telem.get(telem::Counter::SummaryApplies),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DriverRerunOneEdit)->Arg(8)->Arg(32);

} // namespace

int main(int argc, char **argv) {
  printSummaryTable();
  benchmark::Initialize(&argc, argv);
  ardfbench::addHostFingerprint(benchmark::AddCustomContext);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
