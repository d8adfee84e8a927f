//===- tests/analysis/SessionStatsTest.cpp - Session cache statistics ----===//
//
// The public cache-observability surface of LoopAnalysisSession: every
// memoization layer (framework instances, solutions, compiled flow
// programs, preserve constants) reports hits and misses through
// cacheStats(), and the same tallies are mirrored into the telemetry
// counters when a context is installed.
//
//===----------------------------------------------------------------------===//

#include "analysis/LoopAnalysisSession.h"
#include "driver/ProgramAnalysisDriver.h"
#include "frontend/Parser.h"
#include "lint/Checks.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace ardf;

namespace {

const char *Source =
    "do i = 1, 100 { A[i] = B[i] + B[i-1]; B[i+2] = A[i-1]; "
    "C[i] = A[i] + B[i-2]; }";

struct Fixture {
  Program Prog;
  LoopAnalysisSession Session;
  explicit Fixture(const char *Src)
      : Prog(parseOrDie(Src)), Session(Prog, *Prog.getFirstLoop()) {}
};

} // namespace

TEST(SessionStatsTest, SecondIdenticalSolveIsASolutionHit) {
  Fixture F(Source);
  F.Session.solve(ProblemSpec::availableValues());
  SessionCacheStats S1 = F.Session.cacheStats();
  EXPECT_EQ(S1.SolutionHits, 0u);
  EXPECT_EQ(S1.SolutionMisses, 1u);

  F.Session.solve(ProblemSpec::availableValues());
  SessionCacheStats S2 = F.Session.cacheStats();
  EXPECT_EQ(S2.SolutionHits, 1u);
  EXPECT_EQ(S2.SolutionMisses, 1u);
}

TEST(SessionStatsTest, ChangedSpecIsASolutionMiss) {
  Fixture F(Source);
  F.Session.solve(ProblemSpec::availableValues());
  F.Session.solve(ProblemSpec::busyStores());
  SessionCacheStats S = F.Session.cacheStats();
  EXPECT_EQ(S.SolutionHits, 0u);
  EXPECT_EQ(S.SolutionMisses, 2u);
  // Changed solver options miss too: the packed engine caches its
  // solution separately from the reference engine's.
  SolverOptions Packed;
  Packed.Eng = SolverOptions::Engine::PackedKernel;
  F.Session.solve(ProblemSpec::availableValues(), Packed);
  EXPECT_EQ(F.Session.cacheStats().SolutionMisses, 3u);
}

TEST(SessionStatsTest, InstanceAndCompiledCachesReportHitsAndMisses) {
  Fixture F(Source);
  F.Session.instance(ProblemSpec::availableValues());
  F.Session.instance(ProblemSpec::availableValues());
  F.Session.compiledFlow(ProblemSpec::availableValues());
  F.Session.compiledFlow(ProblemSpec::availableValues());
  SessionCacheStats S = F.Session.cacheStats();
  EXPECT_EQ(S.InstanceMisses, 1u);
  // Three hits: the second instance() plus each compiledFlow() looking
  // up the instance record again.
  EXPECT_EQ(S.InstanceHits, 3u);
  EXPECT_EQ(S.CompiledMisses, 1u);
  EXPECT_EQ(S.CompiledHits, 1u);
}

TEST(SessionStatsTest, PreserveStatsComeFromTheSharedCache) {
  Fixture F(Source);
  F.Session.solve(ProblemSpec::availableValues());
  F.Session.solve(ProblemSpec::busyStores());
  SessionCacheStats S = F.Session.cacheStats();
  EXPECT_EQ(S.PreserveHits, F.Session.preserveCache().hits());
  EXPECT_EQ(S.PreserveMisses, F.Session.preserveCache().misses());
  EXPECT_GT(S.PreserveMisses, 0u);
}

TEST(SessionStatsTest, SolvesPerformedEqualsSolutionMisses) {
  Fixture F(Source);
  F.Session.solve(ProblemSpec::availableValues());
  F.Session.solve(ProblemSpec::availableValues());
  F.Session.solve(ProblemSpec::busyStores());
  EXPECT_EQ(F.Session.solvesPerformed(), 2u);
  EXPECT_EQ(F.Session.cacheStats().SolutionMisses, 2u);
}

TEST(SessionStatsTest, TelemetryMirrorsSessionTallies) {
  telem::Telemetry T;
  {
    telem::TelemetryScope Scope(T);
    Fixture F(Source);
    F.Session.solve(ProblemSpec::availableValues());
    F.Session.solve(ProblemSpec::availableValues());
    F.Session.solve(ProblemSpec::busyStores());
    SessionCacheStats S = F.Session.cacheStats();
    EXPECT_EQ(T.get(telem::Counter::SessionsBuilt), 1u);
    EXPECT_EQ(T.get(telem::Counter::SessionSolutionHits), S.SolutionHits);
    EXPECT_EQ(T.get(telem::Counter::SessionSolutionMisses),
              S.SolutionMisses);
    EXPECT_EQ(T.get(telem::Counter::SessionInstanceHits), S.InstanceHits);
    EXPECT_EQ(T.get(telem::Counter::SessionInstanceMisses),
              S.InstanceMisses);
    EXPECT_EQ(T.get(telem::Counter::PreserveHits), S.PreserveHits);
    EXPECT_EQ(T.get(telem::Counter::PreserveMisses), S.PreserveMisses);
  }
}

TEST(SessionStatsTest, NoTelemetryContextLeavesStatsWorking) {
  ASSERT_EQ(telem::Telemetry::current(), nullptr);
  Fixture F(Source);
  F.Session.solve(ProblemSpec::availableValues());
  EXPECT_EQ(F.Session.cacheStats().SolutionMisses, 1u);
}

namespace {

/// Preserve-cache tallies of one bundled example, summed over the
/// sessions of its supported loops after solving tallyProblems().
struct PreserveTally {
  const char *File;
  uint64_t Hits;
  uint64_t Misses;
};

// Pinned: every framework instance probes the shared cache once per
// (node, killer, same-array tracked element) triple, so these totals are
// a pure function of the examples and the problem list. Any change in
// which pairs are probed -- or in how the probes are tallied -- moves
// them.
const PreserveTally PinnedTallies[] = {
    {"fig1.arf", 33, 27},  {"fig4.arf", 6, 9},     {"fig5.arf", 2, 3},
    {"nested.arf", 9, 16}, {"stencil.arf", 0, 0},
};

/// The lint problems followed by the paper's four (the grouped
/// instances share the per-occurrence ones' preserve cache entries).
std::vector<ProblemSpec> tallyProblems() {
  std::vector<ProblemSpec> Specs = lintProblems();
  for (const ProblemSpec &Spec : paperProblems())
    Specs.push_back(Spec);
  return Specs;
}

Program loadExample(const char *File) {
  std::ifstream In(std::string(ARDF_EXAMPLES_DIR) + "/" + File);
  EXPECT_TRUE(In) << File;
  std::stringstream Text;
  Text << In.rdbuf();
  return parseOrDie(Text.str());
}

} // namespace

TEST(SessionStatsTest, PreserveTalliesArePinnedOverExamples) {
  for (const PreserveTally &Pin : PinnedTallies) {
    Program P = loadExample(Pin.File);
    telem::Telemetry T;
    uint64_t Hits = 0, Misses = 0;
    {
      telem::TelemetryScope Scope(T);
      LoopNestTree Tree(P);
      for (const std::unique_ptr<NestLoop> &L : Tree.all()) {
        if (!L->isSupported())
          continue;
        LoopAnalysisSession Session(P, *L->Analyzed);
        for (const ProblemSpec &Spec : tallyProblems())
          Session.solve(Spec);
        SessionCacheStats S = Session.cacheStats();
        EXPECT_EQ(S.PreserveHits, Session.preserveCache().hits());
        EXPECT_EQ(S.PreserveMisses, Session.preserveCache().misses());
        Hits += S.PreserveHits;
        Misses += S.PreserveMisses;
      }
    }
    EXPECT_EQ(Hits, Pin.Hits) << Pin.File;
    EXPECT_EQ(Misses, Pin.Misses) << Pin.File;
    EXPECT_EQ(T.get(telem::Counter::PreserveHits), Hits) << Pin.File;
    EXPECT_EQ(T.get(telem::Counter::PreserveMisses), Misses) << Pin.File;
  }
}

TEST(SessionStatsTest, ThreadedDriverPreserveTalliesMatchPins) {
  for (const PreserveTally &Pin : PinnedTallies) {
    Program P = loadExample(Pin.File);
    DriverOptions Opts;
    Opts.Threads = 3;
    Opts.Problems = tallyProblems();
    telem::Telemetry T;
    uint64_t Hits = 0, Misses = 0;
    {
      telem::TelemetryScope Scope(T);
      ProgramAnalysisDriver Driver(P, Opts);
      Driver.run();
      for (const AnalyzedLoop &L : Driver.loops()) {
        if (!L.Session)
          continue;
        Hits += L.Session->cacheStats().PreserveHits;
        Misses += L.Session->cacheStats().PreserveMisses;
      }
    }
    EXPECT_EQ(Hits, Pin.Hits) << Pin.File;
    EXPECT_EQ(Misses, Pin.Misses) << Pin.File;
    // Worker threads report into the same context; the per-instance
    // batched updates must add up exactly.
    EXPECT_EQ(T.get(telem::Counter::PreserveHits), Hits) << Pin.File;
    EXPECT_EQ(T.get(telem::Counter::PreserveMisses), Misses) << Pin.File;
  }
}
