//===- tests/integration/SemanticOracleTest.cpp - Claims vs execution ----===//
//
// The definitive semantic validation of the framework: a tracing
// executor runs random loops iteration by iteration, recording which
// reference occurrence produced every value; every must-reuse claim the
// framework makes (reaching definitions and available values) is then
// checked against the trace:
//
//   if the framework claims "sink u re-reads the value source d
//   generated delta iterations earlier", then on EVERY dynamic
//   execution of u at iteration i (past the delta startup iterations,
//   Section 3.2) where d executed at iteration i - delta, the value u
//   reads must equal the value d generated there.
//
// The delta-reaching-references solution is checked from the other
// side, as the may over-approximation it is: every dynamic dependence
// the trace observes must be covered by it, under both engines.
//
// Any unsound preserve constant, pr predicate, meet, or reuse-distance
// computation shows up as a concrete counterexample here.
//
//===----------------------------------------------------------------------===//

#include "analysis/LoopAnalysisSession.h"
#include "analysis/LoopDataFlow.h"
#include "frontend/Parser.h"
#include "ir/PrettyPrinter.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>

using namespace ardf;

namespace {

/// Deterministic generator (mirrors the transform property tests).
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed * 1099511628211ULL + 3) {}
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

std::string randomRef(Rng &R) {
  static const char *Arrays[] = {"A", "B"};
  std::ostringstream OS;
  OS << Arrays[R.range(0, 1)] << '[';
  if (R.chance(30))
    OS << R.range(1, 2) << " * ";
  OS << 'i';
  int64_t Off = R.range(-2, 2);
  if (Off > 0)
    OS << " + " << Off;
  else if (Off < 0)
    OS << " - " << -Off;
  OS << ']';
  return OS.str();
}

std::string randomLoop(uint64_t Seed) {
  Rng R(Seed);
  std::ostringstream OS;
  OS << "do i = 1, " << R.range(8, 40) << " { ";
  unsigned N = R.range(2, 5);
  for (unsigned S = 0; S != N; ++S) {
    if (R.chance(35)) {
      OS << "if (" << randomRef(R) << " > " << R.range(-60, 60) << ") { "
         << randomRef(R) << " = " << randomRef(R) << " + " << R.range(1, 9)
         << "; } ";
      continue;
    }
    OS << randomRef(R) << " = " << randomRef(R) << " + " << R.range(1, 9)
       << "; ";
  }
  OS << "}";
  return OS.str();
}

/// Traces one loop execution: memory values plus, per reference
/// occurrence and iteration, the value it generated (write for defs,
/// read for uses).
class Tracer {
public:
  Tracer(const Program &P, const DoLoopStmt &Loop,
         const ReferenceUniverse &U)
      : Loop(Loop) {
    for (const RefOccurrence &Occ : U.occurrences())
      ByRef[Occ.Ref] = Occ.Id;
    (void)P;
  }

  void seed(uint64_t Seed) {
    Rng R(Seed ^ 0x5eed);
    for (const char *Arr : {"A", "B"})
      for (int64_t K = -20; K != 120; ++K)
        Mem[Arr][K] = R.range(-100, 100);
  }

  void run() {
    int64_t Trip = Loop.getConstantTripCount();
    ASSERT_GT(Trip, 0);
    for (Iter = 1; Iter <= Trip; ++Iter)
      execStmts(Loop.getBody());
  }

  /// One dynamic generation/read event.
  struct Event {
    int64_t Iter;
    uint64_t Seq;
    int64_t Value;
  };

  /// The generation event of occurrence \p OccId at iteration \p I, if
  /// it executed there.
  std::optional<Event> generated(unsigned OccId, int64_t I) const {
    auto It = Generated.find({OccId, I});
    if (It == Generated.end())
      return std::nullopt;
    return It->second;
  }

  /// All dynamic reads of occurrence \p OccId.
  const std::vector<Event> &reads(unsigned OccId) const {
    static const std::vector<Event> Empty;
    auto It = Reads.find(OccId);
    return It == Reads.end() ? Empty : It->second;
  }

  /// One dynamic array access (read or write) of one element.
  struct Touch {
    unsigned OccId;
    int64_t Iter;
    std::string Array;
    int64_t Index;
    bool IsDef;
  };

  /// Every array access, in execution order.
  const std::vector<Touch> &touches() const { return Touches; }

private:
  int64_t evalExpr(const Expr &E) {
    switch (E.getKind()) {
    case Expr::Kind::IntLit:
      return cast<IntLit>(&E)->getValue();
    case Expr::Kind::VarRef: {
      const std::string &Name = cast<VarRef>(&E)->getName();
      return Name == Loop.getIndVar() ? Iter : Scalars[Name];
    }
    case Expr::Kind::ArrayRef: {
      const auto *AR = cast<ArrayRefExpr>(&E);
      int64_t Index = evalExpr(*AR->getSubscript(0));
      int64_t Value = Mem[AR->getName()][Index];
      unsigned Id = ByRef.at(AR);
      Touches.push_back(Touch{Id, Iter, AR->getName(), Index, false});
      uint64_t S = ++Seq;
      Generated[{Id, Iter}] = Event{Iter, S, Value};
      Reads[Id].push_back(Event{Iter, S, Value});
      return Value;
    }
    case Expr::Kind::Unary: {
      const auto *UE = cast<UnaryExpr>(&E);
      int64_t V = evalExpr(*UE->getOperand());
      return UE->getOp() == UnaryOpKind::Neg ? -V : !V;
    }
    case Expr::Kind::Binary: {
      const auto *BE = cast<BinaryExpr>(&E);
      int64_t L = evalExpr(*BE->getLHS());
      int64_t R = evalExpr(*BE->getRHS());
      switch (BE->getOp()) {
      case BinaryOpKind::Add:
        return L + R;
      case BinaryOpKind::Sub:
        return L - R;
      case BinaryOpKind::Mul:
        return L * R;
      case BinaryOpKind::Div:
        return R == 0 ? 0 : L / R;
      case BinaryOpKind::Eq:
        return L == R;
      case BinaryOpKind::Ne:
        return L != R;
      case BinaryOpKind::Lt:
        return L < R;
      case BinaryOpKind::Le:
        return L <= R;
      case BinaryOpKind::Gt:
        return L > R;
      case BinaryOpKind::Ge:
        return L >= R;
      case BinaryOpKind::And:
        return L && R;
      case BinaryOpKind::Or:
        return L || R;
      }
      return 0;
    }
    }
    return 0;
  }

  void execStmts(const StmtList &Stmts) {
    for (const StmtPtr &S : Stmts) {
      switch (S->getKind()) {
      case Stmt::Kind::Assign: {
        const auto *AS = cast<AssignStmt>(S.get());
        int64_t Value = evalExpr(*AS->getRHS());
        if (const ArrayRefExpr *Target = AS->getArrayTarget()) {
          int64_t Index = evalExpr(*Target->getSubscript(0));
          Mem[Target->getName()][Index] = Value;
          Generated[{ByRef.at(Target), Iter}] = Event{Iter, ++Seq, Value};
          Touches.push_back(
              Touch{ByRef.at(Target), Iter, Target->getName(), Index, true});
        } else {
          Scalars[cast<VarRef>(AS->getLHS())->getName()] = Value;
        }
        break;
      }
      case Stmt::Kind::If: {
        const auto *IS = cast<IfStmt>(S.get());
        if (evalExpr(*IS->getCond()) != 0)
          execStmts(IS->getThen());
        else
          execStmts(IS->getElse());
        break;
      }
      case Stmt::Kind::DoLoop:
      case Stmt::Kind::While:
      case Stmt::Kind::Break:
        FAIL() << "oracle corpus has no nested loops or while/break";
      }
    }
  }

  const DoLoopStmt &Loop;
  std::map<const ArrayRefExpr *, unsigned> ByRef;
  std::map<std::string, std::map<int64_t, int64_t>> Mem;
  std::map<std::string, int64_t> Scalars;
  std::map<std::pair<unsigned, int64_t>, Event> Generated;
  std::map<unsigned, std::vector<Event>> Reads;
  std::vector<Touch> Touches;
  int64_t Iter = 0;
  uint64_t Seq = 0;
};

/// Verifies every reuse pair of \p Spec against the trace.
void verifyClaims(const std::string &Source, uint64_t Seed,
                  ProblemSpec Spec) {
  Program P = parseOrDie(Source);
  const DoLoopStmt &Loop = *P.getFirstLoop();
  LoopDataFlow DF(P, Loop, Spec);
  const ReferenceUniverse &U = DF.universe();

  Tracer T(P, Loop, U);
  T.seed(Seed);
  T.run();

  for (const ReusePair &Pair : DF.reusePairs(RefSelector::Uses)) {
    // Grouped sources: any member generation at i - delta backs the
    // claim; with per-occurrence specs the group is a singleton.
    int SrcIdx = DF.framework().trackedIndexOf(Pair.SourceId);
    ASSERT_GE(SrcIdx, 0);
    for (const auto &Read : T.reads(Pair.SinkId)) {
      int64_t GenIter = Read.Iter - Pair.Distance;
      if (GenIter < 1)
        continue; // startup iterations are exempt (Section 3.2)
      // The value the sink must see is the one produced by the LAST
      // member generation at GenIter preceding the read (members of a
      // grouped source regenerate the value along the iteration).
      std::optional<Tracer::Event> Latest;
      for (unsigned MemberId : DF.framework().trackedMembers(SrcIdx)) {
        std::optional<Tracer::Event> Gen = T.generated(MemberId, GenIter);
        if (!Gen || Gen->Seq >= Read.Seq)
          continue; // did not execute, or not before the read
        if (!Latest || Gen->Seq > Latest->Seq)
          Latest = Gen;
      }
      if (!Latest)
        continue; // no backing execution: the instance does not exist
      EXPECT_EQ(Read.Value, Latest->Value)
          << "UNSOUND claim in " << Spec.Name << ":\n  "
          << exprToString(*U.occurrence(Pair.SinkId).Ref)
          << " at iteration " << Read.Iter << " should re-read what "
          << exprToString(*U.occurrence(Pair.SourceId).Ref)
          << " generated at iteration " << GenIter << "\nloop:\n"
          << Source;
    }
  }
}

/// Verifies that the delta-reaching-references solution under \p Eng
/// covers every dependence the trace observes. A dependence runs from a
/// touch of an element by a tracked reference to a later touch of the
/// same element, at distance d = sink iteration - source iteration, as
/// long as no write of the element lies between them (K = defs). The
/// solution must cover it at the sink's node entry: d >= pr and
/// d <= IN. Sources execute inside the loop, so every checked
/// dependence lies past the startup iterations of Section 3.2 (those
/// whose distance-d instance would predate the loop).
void verifyReachingReferences(const std::string &Source, uint64_t Seed,
                              SolverOptions::Engine Eng) {
  Program P = parseOrDie(Source);
  const DoLoopStmt &Loop = *P.getFirstLoop();
  LoopAnalysisSession Session(P, Loop);
  const ProblemSpec Spec = ProblemSpec::reachingReferences();
  SolverOptions Opts;
  Opts.Eng = Eng;
  const FrameworkInstance &FW = Session.instance(Spec);
  const SolveResult &Result = Session.solve(Spec, Opts);
  ASSERT_TRUE(Result.ok());
  const ReferenceUniverse &U = Session.universe();

  Tracer T(P, Loop, U);
  T.seed(Seed);
  T.run();

  // Per element, the touches since (and including) its last write: the
  // instances a later touch of the element depends on.
  std::map<std::pair<std::string, int64_t>, std::vector<const Tracer::Touch *>>
      Live;
  unsigned Checked = 0;
  for (const Tracer::Touch &Sink : T.touches()) {
    std::vector<const Tracer::Touch *> &Sources =
        Live[{Sink.Array, Sink.Index}];
    unsigned Node = U.occurrence(Sink.OccId).Node;
    for (const Tracer::Touch *Src : Sources) {
      int64_t D = Sink.Iter - Src->Iter;
      // Within one statement execution the uses precede the def; node
      // entry information does not describe that order.
      if (D == 0 && U.occurrence(Src->OccId).Node == Node)
        continue;
      int Idx = FW.trackedIndexOf(Src->OccId);
      ASSERT_GE(Idx, 0);
      ++Checked;
      if (D >= FW.pr(Idx, Node) && Result.In[Node][Idx].covers(D))
        continue;
      ADD_FAILURE() << "UNCOVERED dependence under " << engineName(Eng)
                    << ": " << exprToString(*U.occurrence(Src->OccId).Ref)
                    << " at iteration " << Src->Iter << " -> "
                    << exprToString(*U.occurrence(Sink.OccId).Ref)
                    << " at iteration " << Sink.Iter << " (element "
                    << Sink.Array << "[" << Sink.Index << "], distance " << D
                    << ", pr " << FW.pr(Idx, Node) << ", IN "
                    << Result.In[Node][Idx].toString() << ")\nloop:\n"
                    << Source;
      return;
    }
    if (Sink.IsDef)
      Sources.clear();
    Sources.push_back(&Sink);
  }
  EXPECT_GT(Checked, 0u) << "no dependence observed; loop:\n" << Source;
}

class SemanticOracle : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(SemanticOracle, MustReachingDefsClaimsHold) {
  uint64_t Seed = GetParam();
  verifyClaims(randomLoop(Seed), Seed, ProblemSpec::mustReachingDefs());
}

TEST_P(SemanticOracle, AvailableValuesClaimsHold) {
  uint64_t Seed = GetParam();
  verifyClaims(randomLoop(Seed), Seed, ProblemSpec::availableValues());
}

TEST_P(SemanticOracle, AvailableValuesPerOccurrenceClaimsHold) {
  uint64_t Seed = GetParam();
  verifyClaims(randomLoop(Seed), Seed,
               ProblemSpec::availableValuesPerOccurrence());
}

TEST_P(SemanticOracle, ReachingReferencesCoverObservedDependences) {
  uint64_t Seed = GetParam();
  for (SolverOptions::Engine Eng : {SolverOptions::Engine::Reference,
                                    SolverOptions::Engine::PackedKernel})
    verifyReachingReferences(randomLoop(Seed), Seed, Eng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemanticOracle,
                         ::testing::Range<uint64_t>(1, 61));

// The Fig. 1 loop, claims checked against real execution.
TEST(SemanticOracleFixed, Fig1) {
  const char *Fig1 = R"(
    do i = 1, 50 {
      C[i+2] = C[i] * 2;
      B[2*i] = C[i] + 3;
      if (C[i] == 0) { C[i] = B[i-1]; }
      B[i] = C[i+1];
    })";
  // Arrays named A/B in the tracer seed; rename C -> A textually.
  std::string Source = Fig1;
  for (size_t Pos = 0; (Pos = Source.find('C', Pos)) != std::string::npos;
       ++Pos)
    Source[Pos] = 'A';
  verifyClaims(Source, 42, ProblemSpec::mustReachingDefs());
  verifyClaims(Source, 42, ProblemSpec::availableValues());
}
