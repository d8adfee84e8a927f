//===- tests/cfg/CfgTest.cpp - CFG, dominators, natural loops ------------===//
//
// Three layers of validation for cfg/Cfg.h:
//
//   1. Structural oracles on hand-written programs: block shapes,
//      back edges, natural-loop membership, and the nesting forest are
//      checked against what the structured source dictates.
//   2. A naive iterative dominator computation (set intersection to a
//      fixed point) recomputed inside the test and compared against the
//      Cooper-Harvey-Kennedy tree for every block pair.
//   3. An execution-order oracle: randomized structured programs run
//      both through the source interpreter (trace hook) and through a
//      test-local CFG executor; the sequence of executed source
//      assignments and the final scalar state must agree exactly.
//
//===----------------------------------------------------------------------===//

#include "cfg/Cfg.h"
#include "frontend/Parser.h"
#include "interp/Interpreter.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

using namespace ardf;

namespace {

/// All statements of the source program (the CFG adds synthetic init /
/// guard / increment statements that must be filtered before comparing
/// against the interpreter's trace).
std::set<const Stmt *> sourceStmts(const Program &P) {
  std::set<const Stmt *> Out;
  forEachStmt(P.getStmts(), [&](const Stmt &S) { Out.insert(&S); });
  return Out;
}

/// The natural loop whose Source is the syntactic loop with induction
/// variable \p Iv (DO loops only; whiles are matched by pointer).
int loopWithIv(const Cfg &G, const std::string &Iv) {
  for (unsigned I = 0; I != G.loops().size(); ++I)
    if (const auto *DL = dyn_cast<DoLoopStmt>(G.loops()[I].Source))
      if (DL->getIndVar() == Iv)
        return static_cast<int>(I);
  return -1;
}

} // namespace

//===----------------------------------------------------------------------===//
// Structure
//===----------------------------------------------------------------------===//

TEST(CfgTest, StraightLineIsAcyclic) {
  Program P = parseOrDie("x = 1; y = x + 2; A[1] = y;");
  Cfg G(P);
  EXPECT_TRUE(G.backEdges().empty());
  EXPECT_TRUE(G.loops().empty());
  // Every reachable block is dominated by the entry.
  for (unsigned B = 0; B != G.getNumBlocks(); ++B)
    if (G.isReachable(B)) {
      EXPECT_TRUE(G.dominates(G.getEntry(), B));
    }
}

TEST(CfgTest, IfDiamondBranchesDoNotDominateJoin) {
  Program P = parseOrDie("x = 1;\n"
                         "if (x > 0) { y = 1; } else { y = 2; }\n"
                         "z = y;");
  Cfg G(P);
  EXPECT_TRUE(G.loops().empty());

  // Find the branch block and the blocks holding the two arms.
  unsigned CondBlock = Cfg::InvalidBlock;
  unsigned ThenBlock = Cfg::InvalidBlock, ElseBlock = Cfg::InvalidBlock;
  unsigned JoinBlock = Cfg::InvalidBlock;
  for (unsigned B = 0; B != G.getNumBlocks(); ++B) {
    const CfgBlock &Blk = G.getBlock(B);
    if (Blk.Cond && isa<IfStmt>(Blk.CondOwner)) {
      CondBlock = B;
      ASSERT_EQ(Blk.Succs.size(), 2u);
      ThenBlock = Blk.Succs[0];
      ElseBlock = Blk.Succs[1];
    }
  }
  ASSERT_NE(CondBlock, Cfg::InvalidBlock);
  ASSERT_EQ(G.getBlock(ThenBlock).Succs.size(), 1u);
  JoinBlock = G.getBlock(ThenBlock).Succs[0];
  EXPECT_EQ(G.getBlock(ElseBlock).Succs.size(), 1u);
  EXPECT_EQ(G.getBlock(ElseBlock).Succs[0], JoinBlock);

  EXPECT_TRUE(G.dominates(CondBlock, ThenBlock));
  EXPECT_TRUE(G.dominates(CondBlock, ElseBlock));
  EXPECT_TRUE(G.dominates(CondBlock, JoinBlock));
  EXPECT_FALSE(G.dominates(ThenBlock, JoinBlock));
  EXPECT_FALSE(G.dominates(ElseBlock, JoinBlock));
  EXPECT_EQ(G.immediateDominator(JoinBlock), CondBlock);
}

TEST(CfgTest, SingleDoLoopMakesOneNaturalLoop) {
  Program P = parseOrDie("do i = 1, 10 { A[i] = A[i] + 1; }");
  Cfg G(P);
  ASSERT_EQ(G.loops().size(), 1u);
  ASSERT_EQ(G.backEdges().size(), 1u);

  const NaturalLoop &L = G.loops()[0];
  EXPECT_EQ(L.Source, P.getFirstLoop());
  EXPECT_EQ(G.getBlock(L.Header).LoopHeaderOf, P.getFirstLoop());
  ASSERT_EQ(L.Latches.size(), 1u);

  // The back edge's target is the header, and the header dominates the
  // latch (the defining property of a back edge).
  auto [From, To] = G.backEdges()[0];
  EXPECT_EQ(To, L.Header);
  EXPECT_EQ(From, L.Latches[0]);
  EXPECT_TRUE(G.dominates(To, From));

  // Counted loop without break: the only exit is the header test.
  ASSERT_EQ(L.ExitEdges.size(), 1u);
  EXPECT_EQ(L.ExitEdges[0].first, L.Header);

  // The header dominates every member block.
  for (unsigned B : L.Blocks)
    EXPECT_TRUE(G.dominates(L.Header, B));
}

TEST(CfgTest, WhileLoopIsDiscoveredWithSource) {
  Program P = parseOrDie("i = 1; while (i <= 5) { x = x + i; i = i + 1; }");
  Cfg G(P);
  ASSERT_EQ(G.loops().size(), 1u);
  EXPECT_EQ(G.loops()[0].Source, P.getStmts()[1].get());
  EXPECT_TRUE(isa<WhileStmt>(G.loops()[0].Source));
}

TEST(CfgTest, NestedLoopsFormAForest) {
  Program P = parseOrDie("do i = 1, 4 {\n"
                         "  do j = 1, 4 {\n"
                         "    do k = 1, 4 { x = x + 1; }\n"
                         "  }\n"
                         "  do m = 1, 4 { y = y + 1; }\n"
                         "}\n"
                         "do n = 1, 4 { z = z + 1; }\n");
  Cfg G(P);
  ASSERT_EQ(G.loops().size(), 5u);

  int I = loopWithIv(G, "i"), J = loopWithIv(G, "j"), K = loopWithIv(G, "k");
  int M = loopWithIv(G, "m"), N = loopWithIv(G, "n");
  ASSERT_GE(I, 0);
  ASSERT_GE(J, 0);
  ASSERT_GE(K, 0);
  ASSERT_GE(M, 0);
  ASSERT_GE(N, 0);

  // Nesting forest matches the syntax.
  EXPECT_EQ(G.parentLoopOf(I), -1);
  EXPECT_EQ(G.parentLoopOf(J), I);
  EXPECT_EQ(G.parentLoopOf(K), J);
  EXPECT_EQ(G.parentLoopOf(M), I);
  EXPECT_EQ(G.parentLoopOf(N), -1);

  // Outermost-first: a loop never precedes its parent.
  for (unsigned L = 0; L != G.loops().size(); ++L)
    if (G.parentLoopOf(L) >= 0) {
      EXPECT_LT(static_cast<unsigned>(G.parentLoopOf(L)), L);
    }

  // Member containment follows nesting: every k-block is a j-block, and
  // every j-block an i-block.
  const NaturalLoop &LoopI = G.loops()[I];
  for (unsigned B : G.loops()[K].Blocks)
    EXPECT_TRUE(G.loops()[J].contains(B));
  for (unsigned B : G.loops()[J].Blocks)
    EXPECT_TRUE(LoopI.contains(B));
  // Sibling loops share no blocks.
  for (unsigned B : G.loops()[M].Blocks)
    EXPECT_FALSE(G.loops()[J].contains(B));

  // loopOf reports the innermost container.
  for (unsigned B : G.loops()[K].Blocks)
    EXPECT_EQ(G.loopOf(B), K);
}

TEST(CfgTest, BreakAddsAnExitEdge) {
  Program P = parseOrDie("do i = 1, 10 {\n"
                         "  A[i] = i;\n"
                         "  if (A[i] > 5) { break; }\n"
                         "  x = x + 1;\n"
                         "}\n");
  Cfg G(P);
  ASSERT_EQ(G.loops().size(), 1u);
  // Header test exit plus the break edge.
  EXPECT_EQ(G.loops()[0].ExitEdges.size(), 2u);
}

TEST(CfgTest, CodeAfterUnconditionalBreakIsUnreachable) {
  Program P = parseOrDie("do i = 1, 10 { break; x = 1; }");
  Cfg G(P);
  // The block holding `x = 1` must exist but be unreachable.
  bool FoundUnreachableAssign = false;
  for (unsigned B = 0; B != G.getNumBlocks(); ++B) {
    if (G.isReachable(B))
      continue;
    for (const Stmt *S : G.getBlock(B).Stmts)
      FoundUnreachableAssign |= isa<AssignStmt>(S);
  }
  EXPECT_TRUE(FoundUnreachableAssign);
}

TEST(CfgTest, BreakInInnerLoopExitsOnlyTheInnerLoop) {
  Program P = parseOrDie("do i = 1, 10 {\n"
                         "  do j = 1, 10 {\n"
                         "    if (A[j] > 0) { break; }\n"
                         "    A[j] = 1;\n"
                         "  }\n"
                         "  x = x + 1;\n"
                         "}\n");
  Cfg G(P);
  int I = loopWithIv(G, "i"), J = loopWithIv(G, "j");
  ASSERT_GE(I, 0);
  ASSERT_GE(J, 0);
  // The inner loop gains a break exit; the break's target stays inside
  // the outer loop, so the outer loop keeps its single header exit.
  EXPECT_EQ(G.loops()[J].ExitEdges.size(), 2u);
  EXPECT_EQ(G.loops()[I].ExitEdges.size(), 1u);
  for (auto [From, To] : G.loops()[J].ExitEdges)
    EXPECT_TRUE(G.loops()[I].contains(To));
}

TEST(CfgTest, DotRenderingSmoke) {
  Program P = parseOrDie("do i = 1, 3 { if (x > 0) { y = 1; } }");
  Cfg G(P);
  std::string Dot = G.toDot();
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
  EXPECT_NE(Dot.find("->"), std::string::npos);
  std::ostringstream OS;
  G.dump(OS);
  EXPECT_EQ(OS.str(), Dot);
}

//===----------------------------------------------------------------------===//
// Dominator oracle: naive iterative sets vs the CHK tree
//===----------------------------------------------------------------------===//

namespace {

/// Naive dominator sets: Dom(entry) = {entry}; Dom(b) = {b} union
/// intersection over reachable preds, to a fixed point.
std::vector<std::set<unsigned>> naiveDominators(const Cfg &G) {
  unsigned N = G.getNumBlocks();
  std::set<unsigned> All;
  for (unsigned B = 0; B != N; ++B)
    if (G.isReachable(B))
      All.insert(B);

  std::vector<std::set<unsigned>> Dom(N, All);
  Dom[G.getEntry()] = {G.getEntry()};
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B : All) {
      if (B == G.getEntry())
        continue;
      std::set<unsigned> Meet = All;
      for (unsigned Pred : G.getBlock(B).Preds) {
        if (!G.isReachable(Pred))
          continue;
        std::set<unsigned> Next;
        for (unsigned D : Meet)
          if (Dom[Pred].count(D))
            Next.insert(D);
        Meet = std::move(Next);
      }
      Meet.insert(B);
      if (Meet != Dom[B]) {
        Dom[B] = std::move(Meet);
        Changed = true;
      }
    }
  }
  return Dom;
}

void expectDominatorsMatchNaive(const std::string &Source) {
  Program P = parseOrDie(Source);
  Cfg G(P);
  std::vector<std::set<unsigned>> Dom = naiveDominators(G);
  for (unsigned A = 0; A != G.getNumBlocks(); ++A)
    for (unsigned B = 0; B != G.getNumBlocks(); ++B) {
      bool Naive = G.isReachable(A) && G.isReachable(B) && Dom[B].count(A);
      if (A == B)
        Naive = true; // dominates() is reflexive even when unreachable
      EXPECT_EQ(G.dominates(A, B), Naive)
          << "blocks " << A << " -> " << B << " in:\n"
          << Source;
    }
  // Every back edge target dominates its source.
  for (auto [From, To] : G.backEdges())
    EXPECT_TRUE(G.dominates(To, From));
}

} // namespace

TEST(CfgDominatorTest, MatchesNaiveOnRepresentativePrograms) {
  expectDominatorsMatchNaive("x = 1;");
  expectDominatorsMatchNaive("do i = 1, 9 { A[i] = i; }");
  expectDominatorsMatchNaive(
      "if (x > 0) { y = 1; } else { y = 2; } z = y;");
  expectDominatorsMatchNaive("do i = 1, 9 {\n"
                             "  if (A[i] > 0) { break; }\n"
                             "  do j = 1, 4 { A[j] = A[j] + 1; }\n"
                             "}\n");
  expectDominatorsMatchNaive("i = 0;\n"
                             "while (i < 6) {\n"
                             "  if (x > 2) { x = 0; } else { x = x + 1; }\n"
                             "  i = i + 1;\n"
                             "}\n"
                             "do k = 1, 3 { do m = 1, 3 { y = y + 1; } }\n");
  expectDominatorsMatchNaive("do i = 1, 4 { break; x = 1; } y = 2;");
}

//===----------------------------------------------------------------------===//
// Execution-order oracle: CFG executor vs the source interpreter
//===----------------------------------------------------------------------===//

namespace {

/// Minimal CFG executor: walks blocks from the entry, evaluating the
/// same expression semantics as interp/Interpreter (1-D arrays only),
/// recording every executed source assignment in order.
class CfgExecutor {
public:
  CfgExecutor(const Cfg &G, const std::set<const Stmt *> &Source)
      : G(G), Source(Source) {}

  void run() {
    unsigned Block = G.getEntry();
    uint64_t Fuel = 1u << 20; // cycle guard: randomized loops are small
    while (Fuel--) {
      const CfgBlock &B = G.getBlock(Block);
      for (const Stmt *S : B.Stmts)
        exec(*S);
      if (B.Cond) {
        ASSERT_EQ(B.Succs.size(), 2u);
        Block = eval(*B.Cond) != 0 ? B.Succs[0] : B.Succs[1];
      } else if (!B.Succs.empty()) {
        ASSERT_EQ(B.Succs.size(), 1u);
        Block = B.Succs[0];
      } else {
        EXPECT_EQ(Block, G.getExit());
        return;
      }
    }
    FAIL() << "CFG execution did not terminate";
  }

  const std::vector<const Stmt *> &order() const { return Order; }
  const std::map<std::string, int64_t> &scalars() const { return Scalars; }

private:
  void exec(const Stmt &S) {
    const auto *AS = cast<AssignStmt>(&S);
    int64_t Value = eval(*AS->getRHS());
    if (const ArrayRefExpr *Target = AS->getArrayTarget())
      Arrays[Target->getName()][eval(*Target->getSubscript(0))] = Value;
    else
      Scalars[cast<VarRef>(AS->getLHS())->getName()] = Value;
    if (Source.count(&S))
      Order.push_back(&S);
  }

  int64_t eval(const Expr &E) {
    switch (E.getKind()) {
    case Expr::Kind::IntLit:
      return cast<IntLit>(&E)->getValue();
    case Expr::Kind::VarRef:
      return Scalars[cast<VarRef>(&E)->getName()];
    case Expr::Kind::ArrayRef: {
      const auto *AR = cast<ArrayRefExpr>(&E);
      return Arrays[AR->getName()][eval(*AR->getSubscript(0))];
    }
    case Expr::Kind::Unary: {
      const auto *UE = cast<UnaryExpr>(&E);
      int64_t V = eval(*UE->getOperand());
      return UE->getOp() == UnaryOpKind::Neg ? -V : !V;
    }
    case Expr::Kind::Binary: {
      const auto *BE = cast<BinaryExpr>(&E);
      int64_t L = eval(*BE->getLHS());
      int64_t R = eval(*BE->getRHS());
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

  const Cfg &G;
  const std::set<const Stmt *> &Source;
  std::map<std::string, int64_t> Scalars;
  std::map<std::string, std::map<int64_t, int64_t>> Arrays;
  std::vector<const Stmt *> Order;
};

/// Deterministic generator of structured programs exercising every
/// control form the builder lowers: ifs, DO loops with steps, counted
/// whiles, and guarded breaks.
struct OrderRng {
  uint64_t S;
  explicit OrderRng(uint64_t Seed) : S(Seed * 2654435761u + 17) {}
  uint64_t next() {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    return S;
  }
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo + static_cast<int64_t>(next() % (Hi - Lo + 1));
  }
};

void genStmts(OrderRng &R, unsigned Depth, unsigned LoopDepth, unsigned &Var,
              std::string &Out) {
  unsigned N = R.range(1, 3);
  for (unsigned I = 0; I != N; ++I) {
    switch (Depth == 0 ? 0 : R.range(0, 4)) {
    default: {
      // Assignment mixing scalars and a 1-D array.
      if (R.range(0, 1))
        Out += "A[v" + std::to_string(R.range(0, 2)) + "] = v" +
               std::to_string(R.range(0, 2)) + " + " +
               std::to_string(R.range(-5, 5)) + ";\n";
      else
        Out += "v" + std::to_string(Var++ % 3) + " = A[v0] + v" +
               std::to_string(R.range(0, 2)) + " * " +
               std::to_string(R.range(1, 3)) + ";\n";
      break;
    }
    case 1: {
      Out += "if (v" + std::to_string(R.range(0, 2)) + " > " +
             std::to_string(R.range(-3, 3)) + ") {\n";
      genStmts(R, Depth - 1, LoopDepth, Var, Out);
      if (R.range(0, 1)) {
        Out += "} else {\n";
        genStmts(R, Depth - 1, LoopDepth, Var, Out);
      }
      Out += "}\n";
      break;
    }
    case 2: {
      std::string Iv = "l" + std::to_string(LoopDepth);
      Out += "do " + Iv + " = " + std::to_string(R.range(1, 3)) + ", " +
             std::to_string(R.range(3, 7));
      if (R.range(0, 1))
        Out += ", " + std::to_string(R.range(1, 3));
      Out += " {\n";
      genStmts(R, Depth - 1, LoopDepth + 1, Var, Out);
      Out += "}\n";
      break;
    }
    case 3: {
      std::string Iv = "w" + std::to_string(LoopDepth);
      Out += Iv + " = 0;\n";
      Out += "while (" + Iv + " < " + std::to_string(R.range(1, 5)) + ") {\n";
      genStmts(R, Depth - 1, LoopDepth + 1, Var, Out);
      Out += Iv + " = " + Iv + " + 1;\n";
      Out += "}\n";
      break;
    }
    case 4: {
      if (LoopDepth == 0)
        break; // break outside a loop is not valid input
      Out += "if (v0 > " + std::to_string(R.range(-2, 4)) +
             ") { break; }\n";
      break;
    }
    }
  }
}

std::string orderProgram(uint64_t Seed) {
  OrderRng R(Seed);
  unsigned Var = 0;
  std::string Out = "v0 = " + std::to_string(R.range(-3, 3)) + ";\n" +
                    "v1 = " + std::to_string(R.range(-3, 3)) + ";\n" +
                    "v2 = " + std::to_string(R.range(-3, 3)) + ";\n";
  genStmts(R, 3, 0, Var, Out);
  return Out;
}

} // namespace

class CfgOrderOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CfgOrderOracle, CfgExecutionMatchesInterpreter) {
  std::string Source = orderProgram(GetParam());
  Program P = parseOrDie(Source);
  std::set<const Stmt *> Src = sourceStmts(P);

  // Interpreter side: record source assignments in execution order.
  std::vector<const Stmt *> InterpOrder;
  Interpreter I(P);
  I.setTraceHook([&](const Stmt &S) {
    if (isa<AssignStmt>(&S))
      InterpOrder.push_back(&S);
  });
  I.run();

  // CFG side.
  Cfg G(P);
  CfgExecutor Exec(G, Src);
  Exec.run();
  if (HasFatalFailure())
    FAIL() << "CFG executor aborted on:\n" << Source;

  EXPECT_EQ(Exec.order(), InterpOrder)
      << "execution order diverged (seed " << GetParam() << "):\n"
      << Source;

  // DO-loop induction variables are bookkeeping the two executions
  // handle differently (the CFG's synthetic latch increment runs one
  // step past the bound; the interpreter never materializes it), so
  // they are excluded from the observable-state comparison.
  std::map<std::string, int64_t> CfgScalars = Exec.scalars();
  std::map<std::string, int64_t> InterpScalars = I.state().Scalars;
  forEachStmt(P.getStmts(), [&](const Stmt &S) {
    if (const auto *DL = dyn_cast<DoLoopStmt>(&S)) {
      CfgScalars.erase(DL->getIndVar());
      InterpScalars.erase(DL->getIndVar());
    }
  });
  EXPECT_EQ(CfgScalars, InterpScalars)
      << "final scalar state diverged (seed " << GetParam() << "):\n"
      << Source;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CfgOrderOracle,
                         ::testing::Range<uint64_t>(1, 81));
