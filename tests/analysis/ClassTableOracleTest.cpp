//===- tests/analysis/ClassTableOracleTest.cpp - Class tables vs pairs ---===//
//
// The framework instance and the reuse/dependence clients compute their
// class-dependent quantities once per access-class pair and scan only
// same-array tracked elements. This suite keeps the straightforward
// per-(node or sink, tracked) loops as test-local oracles -- pr from
// pairwise reachability, preserve constants from direct
// computePreserveConstant calls, reuse pairs and dependences from a scan
// of every tracked element -- and requires exact equality, element by
// element and in order, over seeded random loops mixing symbolic
// offsets, non-unit coefficients, non-affine whole-array kills, guards,
// summarized inner loops, reduced while loops, and analyses with respect
// to an enclosing induction variable.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dependence.h"
#include "analysis/LoopDataFlow.h"
#include "analysis/LoopNest.h"
#include "frontend/Parser.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace ardf;

namespace {

struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed * 0x9e3779b97f4a7c15ULL + 11) {}
  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo + static_cast<int64_t>(next() % (Hi - Lo + 1));
  }
  bool chance(int Percent) { return range(1, 100) <= Percent; }
};

/// Random loop programs over arrays A, B, C and the 2-D array M.
class LoopGen {
public:
  explicit LoopGen(uint64_t Seed) : R(Seed) {}

  std::string program() {
    OS << "array M[16, 16];\n";
    if (R.chance(35)) {
      // A counted while the nest reducer rewrites into DO form.
      OS << "i = 1;\nwhile (i <= " << R.range(6, 30) << ") {\n";
      body("i", /*AllowNest=*/true);
      OS << "  i = i + 1;\n}\n";
    } else {
      OS << "do i = 1, " << R.range(6, 30) << " {\n";
      body("i", /*AllowNest=*/true);
      OS << "}\n";
    }
    return OS.str();
  }

private:
  /// An affine (or deliberately non-affine) subscript in \p IV, with
  /// \p Outer as an extra symbolic term inside nested bodies.
  std::string subscript(const std::string &IV, const std::string &Outer) {
    std::ostringstream S;
    switch (R.range(0, 7)) {
    case 0: // non-unit coefficient: non-integer reuse distances
      S << R.range(2, 3) << " * " << IV << " + " << R.range(0, 3);
      break;
    case 1: // symbolic offset
      S << IV << " + n";
      break;
    case 2: // loop-invariant
      S << (R.chance(50) ? std::string("n") : std::to_string(R.range(1, 4)));
      break;
    case 3:
      if (!Outer.empty()) {
        S << IV << " + " << Outer;
        break;
      }
      [[fallthrough]];
    default: {
      S << IV;
      int64_t Off = R.range(-3, 3);
      if (Off > 0)
        S << " + " << Off;
      else if (Off < 0)
        S << " - " << -Off;
      break;
    }
    }
    return S.str();
  }

  std::string ref(const std::string &IV, const std::string &Outer) {
    static const char *Arrays[] = {"A", "B", "C"};
    if (R.chance(8)) // non-affine: a whole-array kill
      return std::string(Arrays[R.range(0, 2)]) + "[B[" + IV + "]]";
    if (R.chance(12))
      return "M[" + subscript(IV, Outer) + ", " +
             std::to_string(R.range(1, 3)) + "]";
    return std::string(Arrays[R.range(0, 2)]) + "[" + subscript(IV, Outer) +
           "]";
  }

  void assign(const std::string &IV, const std::string &Outer,
              const char *Indent) {
    OS << Indent << ref(IV, Outer) << " = " << ref(IV, Outer) << " + "
       << ref(IV, Outer) << ";\n";
  }

  void body(const std::string &IV, bool AllowNest) {
    unsigned N = R.range(2, 7);
    for (unsigned K = 0; K != N; ++K) {
      int Pick = R.range(1, 100);
      if (Pick <= 25) {
        OS << "  if (" << ref(IV, "") << " > " << R.range(-9, 9) << ") {\n";
        assign(IV, "", "    ");
        if (R.chance(50)) {
          OS << "  } else {\n";
          assign(IV, "", "    ");
        }
        OS << "  }\n";
      } else if (Pick <= 40 && AllowNest) {
        // A summarized inner loop whose references mention both IVs.
        OS << "  do j = 1, " << R.range(3, 8) << " {\n";
        unsigned M = R.range(1, 3);
        for (unsigned S = 0; S != M; ++S)
          assign(R.chance(60) ? "j" : IV, R.chance(60) ? IV : "", "    ");
        OS << "  }\n";
      } else {
        assign(IV, "", "  ");
      }
    }
  }

  Rng R;
  std::ostringstream OS;
};

std::vector<ProblemSpec> oracleSpecs() {
  std::vector<ProblemSpec> Specs = {
      ProblemSpec::mustReachingDefs(),
      ProblemSpec::availableValues(),
      ProblemSpec::availableValuesPerOccurrence(),
      ProblemSpec::busyStores(),
      ProblemSpec::busyStoresPerOccurrence(),
      ProblemSpec::reachingReferences(),
  };
  // Grouped may-forward, per-occurrence may-backward, and grouped
  // must-backward with every reference killing.
  Specs.push_back({"grouped-reaching", ProblemMode::May,
                   FlowDirection::Forward, RefSelector::DefsAndUses,
                   RefSelector::Defs, true});
  Specs.push_back({"may-backward", ProblemMode::May, FlowDirection::Backward,
                   RefSelector::DefsAndUses, RefSelector::DefsAndUses,
                   false});
  Specs.push_back({"must-backward-all", ProblemMode::Must,
                   FlowDirection::Backward, RefSelector::Uses,
                   RefSelector::DefsAndUses, true});
  return Specs;
}

/// Oracle pr: pairwise reachability probes per member.
int64_t oraclePr(const FrameworkInstance &FW, unsigned Idx, unsigned Node) {
  const LoopFlowGraph &G = FW.getGraph();
  for (unsigned OccId : FW.trackedMembers(Idx)) {
    unsigned Home = FW.getUniverse().occurrence(OccId).Node;
    if (FW.getSpec().isBackward() ? G.reachesIntraIteration(Node, Home)
                                  : G.reachesIntraIteration(Home, Node))
      return 0;
  }
  return 1;
}

/// Oracle preserve constants: every (node, killer, tracked) triple with
/// a direct, uncached computePreserveConstant call. Fills \p Pre and
/// \p After as dense (node x tracked) matrices.
void oraclePreserves(const FrameworkInstance &FW,
                     std::vector<DistanceValue> &Pre,
                     std::vector<DistanceValue> &After) {
  const ReferenceUniverse &U = FW.getUniverse();
  const ProblemSpec &Spec = FW.getSpec();
  unsigned N = FW.getGraph().getNumNodes();
  unsigned T = FW.getNumTracked();
  Pre.assign(size_t(N) * T, DistanceValue::allInstances());
  After.assign(size_t(N) * T, DistanceValue::allInstances());
  auto MicroPos = [&](const RefOccurrence &Occ) {
    unsigned Forward = Occ.IsDef ? 1 : 0;
    return Spec.isBackward() ? 1 - Forward : Forward;
  };
  for (unsigned Node = 0; Node != N; ++Node)
    for (unsigned KillId : U.occurrencesAt(Node)) {
      const RefOccurrence &Killer = U.occurrence(KillId);
      if (!selects(Spec.Kill, Killer))
        continue;
      for (unsigned Idx = 0; Idx != T; ++Idx) {
        const RefOccurrence &D = FW.getTracked(Idx);
        if (D.arrayName() != Killer.arrayName())
          continue;
        if (FW.trackedIndexOf(KillId) == static_cast<int>(Idx))
          continue;
        bool AfterGen = false;
        for (unsigned MemberId : FW.trackedMembers(Idx))
          if (U.occurrence(MemberId).Node == Node &&
              MicroPos(Killer) > MicroPos(U.occurrence(MemberId)))
            AfterGen = true;
        PreserveQuery Q;
        Q.Preserved = &*D.Affine;
        Q.Killer = Killer.KillsWholeArray ? nullptr : &*Killer.Affine;
        Q.Pr = AfterGen ? 0 : oraclePr(FW, Idx, Node);
        Q.TripCount = FW.getTripCount();
        Q.Mode = Spec.Mode;
        Q.Direction = Spec.Direction;
        DistanceValue &Slot =
            AfterGen ? After[Node * T + Idx] : Pre[Node * T + Idx];
        Slot = DistanceValue::min(Slot, computePreserveConstant(Q));
      }
    }
}

/// Oracle reuse pairs: every (sink, tracked) pair, all arrays.
std::vector<ReusePair> oracleReusePairs(const FrameworkInstance &FW,
                                        const SolveResult &Result,
                                        RefSelector SinkSel) {
  std::vector<ReusePair> Pairs;
  bool Backward = FW.getSpec().isBackward();
  for (const RefOccurrence &Sink : FW.getUniverse().occurrences()) {
    if (!selects(SinkSel, Sink) || !Sink.isTrackable())
      continue;
    for (unsigned Idx = 0; Idx != FW.getNumTracked(); ++Idx) {
      const RefOccurrence &Source = FW.getTracked(Idx);
      if (Source.Id == Sink.Id)
        continue;
      std::optional<Rational> Delta =
          Backward ? constantReuseDistance(*Sink.Affine, *Source.Affine)
                   : constantReuseDistance(*Source.Affine, *Sink.Affine);
      if (!Delta || !Delta->isInteger())
        continue;
      int64_t D = Delta->asInteger();
      if (D < oraclePr(FW, Idx, Sink.Node) ||
          !Result.In[Sink.Node][Idx].covers(D))
        continue;
      Pairs.push_back(ReusePair{Source.Id, Sink.Id, D});
    }
  }
  return Pairs;
}

/// Oracle dependences: every (sink, tracked) pair, string array compare.
std::vector<Dependence> oracleDependences(const LoopDataFlow &DF,
                                          bool IncludeInput) {
  std::vector<Dependence> Deps;
  const FrameworkInstance &FW = DF.framework();
  int64_t Trip = DF.graph().getTripCount();
  for (const RefOccurrence &To : DF.universe().occurrences()) {
    if (!To.isTrackable())
      continue;
    for (unsigned Idx = 0; Idx != FW.getNumTracked(); ++Idx) {
      const RefOccurrence &From = FW.getTracked(Idx);
      if (From.Id == To.Id || From.arrayName() != To.arrayName())
        continue;
      DepKind Kind = From.IsDef ? (To.IsDef ? DepKind::Output : DepKind::Flow)
                                : (To.IsDef ? DepKind::Anti : DepKind::Input);
      if (Kind == DepKind::Input && !IncludeInput)
        continue;
      std::optional<int64_t> D = minOverlapDistance(
          *From.Affine, *To.Affine, oraclePr(FW, Idx, To.Node), Trip);
      if (!D || !DF.valueAt(To.Node, Idx).covers(*D))
        continue;
      Deps.push_back(Dependence{From.Id, To.Id, Kind, *D});
    }
  }
  return Deps;
}

/// Coverage tallies proving the oracle comparisons are not vacuous.
struct Coverage {
  unsigned Loops = 0;
  unsigned WhileLoops = 0;
  unsigned OverrideSessions = 0;
  unsigned WholeArrayKills = 0;
  unsigned GenCells = 0;
  unsigned FinitePreserves = 0;
  unsigned ReusePairs = 0;
  unsigned Dependences = 0;
  unsigned InputDependences = 0;
};

void checkSession(LoopAnalysisSession &Session, const std::string &Where,
                  Coverage &Cov) {
  for (const RefOccurrence &Occ : Session.universe().occurrences())
    Cov.WholeArrayKills += Occ.KillsWholeArray;
  for (const ProblemSpec &Spec : oracleSpecs()) {
    std::string Ctx = Where + " / " + Spec.Name;
    const FrameworkInstance &FW = Session.instance(Spec);
    unsigned N = FW.getGraph().getNumNodes();
    unsigned T = FW.getNumTracked();

    std::vector<DistanceValue> Pre, After;
    oraclePreserves(FW, Pre, After);
    for (unsigned Node = 0; Node != N; ++Node)
      for (unsigned Idx = 0; Idx != T; ++Idx) {
        ASSERT_EQ(FW.pr(Idx, Node), oraclePr(FW, Idx, Node))
            << Ctx << " pr(" << Idx << ", " << Node << ")";
        ASSERT_EQ(FW.preserveAt(Idx, Node), Pre[Node * T + Idx])
            << Ctx << " preserveAt(" << Idx << ", " << Node << ")";
        ASSERT_EQ(FW.preserveAfterGen(Idx, Node), After[Node * T + Idx])
            << Ctx << " preserveAfterGen(" << Idx << ", " << Node << ")";
        Cov.GenCells += FW.generatesAt(Idx, Node);
        Cov.FinitePreserves += Pre[Node * T + Idx].isFinite() ||
                               After[Node * T + Idx].isFinite();
      }

    const SolveResult &Result = Session.solve(Spec);
    for (RefSelector Sel : {RefSelector::Uses, RefSelector::Defs,
                            RefSelector::DefsAndUses}) {
      std::vector<ReusePair> Got = collectReusePairs(FW, Result, Sel);
      std::vector<ReusePair> Want = oracleReusePairs(FW, Result, Sel);
      ASSERT_EQ(Got.size(), Want.size()) << Ctx;
      for (size_t I = 0; I != Got.size(); ++I) {
        ASSERT_EQ(Got[I].SourceId, Want[I].SourceId) << Ctx << " pair " << I;
        ASSERT_EQ(Got[I].SinkId, Want[I].SinkId) << Ctx << " pair " << I;
        ASSERT_EQ(Got[I].Distance, Want[I].Distance) << Ctx << " pair " << I;
      }
      Cov.ReusePairs += Got.size();
    }

    LoopDataFlow DF(Session, Spec);
    for (bool IncludeInput : {false, true}) {
      std::vector<Dependence> Got = extractDependences(DF, IncludeInput).Deps;
      std::vector<Dependence> Want = oracleDependences(DF, IncludeInput);
      ASSERT_EQ(Got.size(), Want.size()) << Ctx << " input=" << IncludeInput;
      for (size_t I = 0; I != Got.size(); ++I) {
        ASSERT_EQ(Got[I].FromId, Want[I].FromId) << Ctx << " dep " << I;
        ASSERT_EQ(Got[I].ToId, Want[I].ToId) << Ctx << " dep " << I;
        ASSERT_EQ(Got[I].Kind, Want[I].Kind) << Ctx << " dep " << I;
        ASSERT_EQ(Got[I].Distance, Want[I].Distance) << Ctx << " dep " << I;
        Cov.InputDependences += Got[I].Kind == DepKind::Input;
      }
      Cov.Dependences += Got.size();
    }
  }
}

} // namespace

TEST(ClassTableOracleTest, TablesMatchPerPairOraclesOnSeededLoops) {
  constexpr uint64_t Seeds = 240;
  Coverage Cov;
  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    std::string Source = LoopGen(Seed).program();
    ParseResult PR = parseProgram(Source);
    ASSERT_TRUE(PR.succeeded()) << PR.diagnosticsToString() << "\n" << Source;
    const Program &P = PR.Prog;
    LoopNestTree Tree(P);
    for (const std::unique_ptr<NestLoop> &L : Tree.all()) {
      if (!L->isSupported())
        continue;
      ++Cov.Loops;
      Cov.WhileLoops += L->isWhile();
      std::string Where = "seed " + std::to_string(Seed) + " loop " + L->path();
      {
        LoopAnalysisSession Session(P, *L->Analyzed);
        checkSession(Session, Where, Cov);
      }
      for (const NestLoop *A : L->ancestors()) {
        if (!A->isSupported())
          continue;
        ++Cov.OverrideSessions;
        LoopAnalysisSession Session(P, *L->Analyzed, A->iv(), A->tripCount());
        checkSession(Session, Where + " wrt " + A->iv(), Cov);
      }
      if (::testing::Test::HasFatalFailure()) {
        ADD_FAILURE() << Source;
        return;
      }
    }
  }
  EXPECT_GE(Cov.Loops, Seeds);
  EXPECT_GT(Cov.WhileLoops, 20u);
  EXPECT_GT(Cov.OverrideSessions, 20u);
  EXPECT_GT(Cov.WholeArrayKills, 100u);
  EXPECT_GT(Cov.GenCells, 1000u);
  EXPECT_GT(Cov.FinitePreserves, 100u);
  EXPECT_GT(Cov.ReusePairs, 1000u);
  EXPECT_GT(Cov.Dependences, 1000u);
  EXPECT_GT(Cov.InputDependences, 100u);
}
