//===- tests/dataflow/SimdOracleTest.cpp - Scalar vs SIMD oracle ---------===//
//
// The solver half of the SIMD guarantee: under every dispatch tier the
// host can execute, the packed engine must produce bit-identical
// SolveResults to the Reference engine over the randomized corpus and
// the boundary shapes, for all paper problems (plus per-occurrence
// variants) and both pass strategies. The per-operation half lives in
// VectorOpsTest.cpp; the CI matrix re-runs this whole binary once per
// tier via ARDF_FORCE_ISA to also cover the env-dispatch path.
//
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "dataflow/CompiledFlow.h"
#include "dataflow/VectorOps.h"
#include "frontend/Parser.h"

#include <gtest/gtest.h>

using namespace ardf;
using simd::Isa;

namespace {

ProblemSpec allSpecs[] = {
    ProblemSpec::mustReachingDefs(),
    ProblemSpec::availableValues(),
    ProblemSpec::busyStores(),
    ProblemSpec::reachingReferences(),
    ProblemSpec::availableValuesPerOccurrence(),
    ProblemSpec::busyStoresPerOccurrence(),
};

const char *HandCorpus[] = {
    "do i = 1, 100 { A[i+2] = A[i] + X; }",
    "do i = 1, 5 { A[i+1] = A[i]; }",
    "do i = 1, N { A[i+1] = A[i] + A[i-1]; }",
    "do i = 1, 50 { if (B[i] > 0) { A[i+1] = B[i]; } else { A[i+1] = 0; } "
    "C[i] = A[i] + B[i-2]; }",
    "do i = 1, 10 { X = X + 1; }",
};

std::vector<Isa> supportedTiers() {
  std::vector<Isa> Tiers;
  for (Isa T : {Isa::Scalar, Isa::NEON, Isa::AVX2, Isa::AVX512})
    if (simd::isaSupported(T))
      Tiers.push_back(T);
  return Tiers;
}

/// Pins the dispatch tier for one scope and restores the previous one.
class IsaScope {
public:
  explicit IsaScope(Isa Tier) : Prev(simd::activeIsa()) {
    EXPECT_TRUE(simd::setActiveIsaForTesting(Tier));
  }
  ~IsaScope() { simd::setActiveIsaForTesting(Prev); }

private:
  Isa Prev;
};

/// Solves \p Spec with the Reference engine and with the packed engine
/// under the active tier, asserting bit-identity throughout.
void expectTiersAgree(const std::string &Source, const ProblemSpec &Spec,
                      SolverOptions Opts) {
  Program P = parseOrDie(Source);
  const DoLoopStmt *Loop = P.getFirstLoop();
  ASSERT_NE(Loop, nullptr) << Source;
  LoopFlowGraph Graph(*Loop);
  FrameworkInstance FW(Graph, P, Spec);

  Opts.Eng = SolverOptions::Engine::Reference;
  SolveResult Ref = solveDataFlow(FW, Opts);
  SolverOptions Packed = Opts;
  Packed.Eng = SolverOptions::Engine::PackedKernel;
  SolveResult Vec = solveDataFlow(FW, Packed);

  const char *Tier = simd::isaName(simd::activeIsa());
  EXPECT_EQ(Vec.In, Ref.In) << Spec.Name << " tier=" << Tier;
  EXPECT_EQ(Vec.Out, Ref.Out) << Spec.Name << " tier=" << Tier;
  EXPECT_EQ(Vec.NodeVisits, Ref.NodeVisits) << Spec.Name;
  EXPECT_EQ(Vec.Passes, Ref.Passes) << Spec.Name;
  EXPECT_EQ(Vec.MeetOps, Ref.MeetOps) << Spec.Name;
  EXPECT_EQ(Vec.ApplyOps, Ref.ApplyOps) << Spec.Name;
  EXPECT_EQ(Vec.Converged, Ref.Converged) << Spec.Name;
}

} // namespace

TEST(SimdOracleTest, HandCorpusEveryTier) {
  for (Isa Tier : supportedTiers()) {
    IsaScope Scope(Tier);
    for (const char *Source : HandCorpus)
      for (const ProblemSpec &Spec : allSpecs)
        expectTiersAgree(Source, Spec, SolverOptions());
  }
}

TEST(SimdOracleTest, RandomizedCorpusPaperScheduleEveryTier) {
  for (Isa Tier : supportedTiers()) {
    IsaScope Scope(Tier);
    for (unsigned Stmts : {4u, 17u, 33u})
      for (int Cond : {0, 40})
        for (uint64_t Seed : {1u, 2u}) {
          std::string Source = ardfbench::makeSyntheticLoop(
              Stmts, 4, Cond, Seed * 7919 + Stmts * 31 + Cond, 1000);
          for (const ProblemSpec &Spec : allSpecs)
            expectTiersAgree(Source, Spec, SolverOptions());
        }
  }
}

TEST(SimdOracleTest, RandomizedCorpusIterateToFixpointEveryTier) {
  SolverOptions Opts;
  Opts.Strat = SolverOptions::Strategy::IterateToFixpoint;
  for (Isa Tier : supportedTiers()) {
    IsaScope Scope(Tier);
    for (unsigned Stmts : {6u, 21u}) {
      std::string Source =
          ardfbench::makeSyntheticLoop(Stmts, 3, 30, 131u + Stmts, 500);
      for (const ProblemSpec &Spec : allSpecs)
        expectTiersAgree(Source, Spec, Opts);
    }
  }
}

TEST(SimdOracleTest, SimdSingleSolveMatchesPackedKernel) {
  // A packed solve under every SIMD tier must match the packed kernel
  // on the portable scalar rows, counters included.
  std::string Source = ardfbench::makeSyntheticLoop(25, 4, 30, 4242, 800);
  Program P = parseOrDie(Source);
  LoopFlowGraph Graph(*P.getFirstLoop());
  SolverOptions Packed;
  Packed.Eng = SolverOptions::Engine::PackedKernel;
  for (const ProblemSpec &Spec : allSpecs) {
    FrameworkInstance FW(Graph, P, Spec);
    SolveResult A;
    {
      IsaScope Scope(Isa::Scalar);
      A = solveDataFlow(FW, Packed);
    }
    for (Isa Tier : supportedTiers()) {
      IsaScope Scope(Tier);
      SolveResult B = solveDataFlow(FW, Packed);
      const char *Name = simd::isaName(Tier);
      EXPECT_EQ(B.In, A.In) << Spec.Name << " tier=" << Name;
      EXPECT_EQ(B.Out, A.Out) << Spec.Name << " tier=" << Name;
      EXPECT_EQ(B.NodeVisits, A.NodeVisits) << Spec.Name;
      EXPECT_EQ(B.MeetOps, A.MeetOps) << Spec.Name;
      EXPECT_EQ(B.ApplyOps, A.ApplyOps) << Spec.Name;
    }
  }
}
