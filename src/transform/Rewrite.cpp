//===- transform/Rewrite.cpp - Clone-with-edits rewriting ----------------===//

#include "transform/Rewrite.h"

#include "analysis/LoopAnalysisSession.h"
#include "driver/ProgramAnalysisDriver.h"

#include <cassert>

using namespace ardf;

ExprPtr ardf::rewriteExpr(const Expr &E, RewritePlan &Plan) {
  auto It = Plan.ReplaceExprs.find(&E);
  if (It != Plan.ReplaceExprs.end()) {
    ExprPtr Replacement = std::move(It->second);
    Plan.ReplaceExprs.erase(It);
    assert(Replacement && "expression replacement already consumed");
    return Replacement;
  }
  switch (E.getKind()) {
  case Expr::Kind::IntLit:
  case Expr::Kind::VarRef:
    return E.clone();
  case Expr::Kind::ArrayRef: {
    const auto *AR = cast<ArrayRefExpr>(&E);
    std::vector<ExprPtr> Subs;
    Subs.reserve(AR->getNumSubscripts());
    for (const ExprPtr &S : AR->subscripts())
      Subs.push_back(rewriteExpr(*S, Plan));
    return std::make_unique<ArrayRefExpr>(AR->getName(), std::move(Subs));
  }
  case Expr::Kind::Binary: {
    const auto *BE = cast<BinaryExpr>(&E);
    return std::make_unique<BinaryExpr>(BE->getOp(),
                                        rewriteExpr(*BE->getLHS(), Plan),
                                        rewriteExpr(*BE->getRHS(), Plan));
  }
  case Expr::Kind::Unary: {
    const auto *UE = cast<UnaryExpr>(&E);
    return std::make_unique<UnaryExpr>(UE->getOp(),
                                       rewriteExpr(*UE->getOperand(), Plan));
  }
  }
  return nullptr;
}

namespace {

StmtPtr rewriteStmt(const Stmt &S, RewritePlan &Plan) {
  switch (S.getKind()) {
  case Stmt::Kind::Assign: {
    const auto *AS = cast<AssignStmt>(&S);
    return std::make_unique<AssignStmt>(rewriteExpr(*AS->getLHS(), Plan),
                                        rewriteExpr(*AS->getRHS(), Plan));
  }
  case Stmt::Kind::If: {
    const auto *IS = cast<IfStmt>(&S);
    return std::make_unique<IfStmt>(rewriteExpr(*IS->getCond(), Plan),
                                    rewriteStmts(IS->getThen(), Plan),
                                    rewriteStmts(IS->getElse(), Plan));
  }
  case Stmt::Kind::DoLoop: {
    const auto *DL = cast<DoLoopStmt>(&S);
    return std::make_unique<DoLoopStmt>(
        DL->getIndVar(), rewriteExpr(*DL->getLower(), Plan),
        rewriteExpr(*DL->getUpper(), Plan),
        rewriteStmts(DL->getBody(), Plan), DL->getStep());
  }
  case Stmt::Kind::While: {
    const auto *WS = cast<WhileStmt>(&S);
    return std::make_unique<WhileStmt>(rewriteExpr(*WS->getCond(), Plan),
                                       rewriteStmts(WS->getBody(), Plan));
  }
  case Stmt::Kind::Break:
    return std::make_unique<BreakStmt>();
  }
  return nullptr;
}

} // namespace

StmtList ardf::rewriteStmts(const StmtList &Stmts, RewritePlan &Plan) {
  StmtList Result;
  for (const StmtPtr &Orig : Stmts) {
    auto StandIn = Plan.Analyzed.find(Orig.get());
    const Stmt *S =
        StandIn == Plan.Analyzed.end() ? Orig.get() : StandIn->second;
    auto BeforeIt = Plan.InsertBefore.find(S);
    if (BeforeIt != Plan.InsertBefore.end())
      for (StmtPtr &New : BeforeIt->second)
        Result.push_back(std::move(New));
    if (!Plan.RemoveStmts.count(S))
      Result.push_back(rewriteStmt(*S, Plan));
    auto AfterIt = Plan.InsertAfter.find(S);
    if (AfterIt != Plan.InsertAfter.end())
      for (StmtPtr &New : AfterIt->second)
        Result.push_back(std::move(New));
  }
  return Result;
}

LoopAnalysisSession *ardf::plannableSession(ProgramAnalysisDriver &Driver,
                                            const DoLoopStmt &Loop,
                                            RewritePlan &Plan) {
  if (!Loop.isNormalized())
    return nullptr;
  LoopAnalysisSession *Session = Driver.sessionFor(Loop);
  if (!Session || !Session->loop().equals(Loop))
    return nullptr;
  Plan.Analyzed[&Loop] = &Session->loop();
  return Session;
}

Program ardf::rewriteProgram(const Program &P, RewritePlan &Plan) {
  Program Result;
  for (const ArrayDecl &D : P.arrayDecls()) {
    std::vector<ExprPtr> Sizes;
    Sizes.reserve(D.DimSizes.size());
    for (const ExprPtr &S : D.DimSizes)
      Sizes.push_back(S->clone());
    Result.declareArray(D.Name, std::move(Sizes));
  }
  StmtList Rewritten = rewriteStmts(P.getStmts(), Plan);
  for (StmtPtr &S : Rewritten)
    Result.addStmt(std::move(S));
  return Result;
}

ExprPtr ardf::substituteScalar(const Expr &E, const std::string &Var,
                               const Expr &Replacement) {
  if (const auto *V = dyn_cast<VarRef>(&E))
    if (V->getName() == Var)
      return Replacement.clone();
  // Source locations are preserved so diagnostics on substituted bodies
  // (normalized/reduced loops) still anchor to the original source.
  ExprPtr Copy;
  switch (E.getKind()) {
  case Expr::Kind::IntLit:
  case Expr::Kind::VarRef:
    return E.clone();
  case Expr::Kind::ArrayRef: {
    const auto *AR = cast<ArrayRefExpr>(&E);
    std::vector<ExprPtr> Subs;
    Subs.reserve(AR->getNumSubscripts());
    for (const ExprPtr &S : AR->subscripts())
      Subs.push_back(substituteScalar(*S, Var, Replacement));
    Copy = std::make_unique<ArrayRefExpr>(AR->getName(), std::move(Subs));
    break;
  }
  case Expr::Kind::Binary: {
    const auto *BE = cast<BinaryExpr>(&E);
    Copy = std::make_unique<BinaryExpr>(
        BE->getOp(), substituteScalar(*BE->getLHS(), Var, Replacement),
        substituteScalar(*BE->getRHS(), Var, Replacement));
    break;
  }
  case Expr::Kind::Unary: {
    const auto *UE = cast<UnaryExpr>(&E);
    Copy = std::make_unique<UnaryExpr>(
        UE->getOp(), substituteScalar(*UE->getOperand(), Var, Replacement));
    break;
  }
  }
  if (Copy)
    Copy->setLoc(E.getLoc());
  return Copy;
}

StmtList ardf::substituteScalar(const StmtList &Stmts, const std::string &Var,
                                const Expr &Replacement) {
  StmtList Result;
  Result.reserve(Stmts.size());
  for (const StmtPtr &S : Stmts) {
    switch (S->getKind()) {
    case Stmt::Kind::Assign: {
      const auto *AS = cast<AssignStmt>(S.get());
      Result.push_back(std::make_unique<AssignStmt>(
          substituteScalar(*AS->getLHS(), Var, Replacement),
          substituteScalar(*AS->getRHS(), Var, Replacement)));
      break;
    }
    case Stmt::Kind::If: {
      const auto *IS = cast<IfStmt>(S.get());
      Result.push_back(std::make_unique<IfStmt>(
          substituteScalar(*IS->getCond(), Var, Replacement),
          substituteScalar(IS->getThen(), Var, Replacement),
          substituteScalar(IS->getElse(), Var, Replacement)));
      break;
    }
    case Stmt::Kind::DoLoop: {
      const auto *DL = cast<DoLoopStmt>(S.get());
      // An inner loop with the same induction variable shadows it.
      if (DL->getIndVar() == Var) {
        Result.push_back(S->clone());
        break;
      }
      Result.push_back(std::make_unique<DoLoopStmt>(
          DL->getIndVar(), substituteScalar(*DL->getLower(), Var, Replacement),
          substituteScalar(*DL->getUpper(), Var, Replacement),
          substituteScalar(DL->getBody(), Var, Replacement), DL->getStep()));
      break;
    }
    case Stmt::Kind::While: {
      const auto *WS = cast<WhileStmt>(S.get());
      Result.push_back(std::make_unique<WhileStmt>(
          substituteScalar(*WS->getCond(), Var, Replacement),
          substituteScalar(WS->getBody(), Var, Replacement)));
      break;
    }
    case Stmt::Kind::Break:
      Result.push_back(S->clone());
      break;
    }
    Result.back()->setLoc(S->getLoc());
  }
  return Result;
}
