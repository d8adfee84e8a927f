//===- transform/Rewrite.h - Clone-with-edits rewriting --------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transformation substrate: transforms analyze the original program
/// (whose Expr/Stmt pointers the analysis results refer to) and then
/// produce an edited deep copy. A RewritePlan collects edits keyed by
/// original node pointers; rewriteProgram applies them during cloning:
///
///   * ReplaceExprs  — swap a specific expression occurrence,
///   * RemoveStmts   — drop a statement (from any nesting depth),
///   * InsertBefore/InsertAfter — splice statements around an original,
///   * Analyzed      — rewrite an equal stand-in in place of a statement:
///                     a loop analyzed through ProgramAnalysisDriver is a
///                     copy owned by the loop nest, so edits planned on
///                     that copy are applied by rewriting the copy.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_TRANSFORM_REWRITE_H
#define ARDF_TRANSFORM_REWRITE_H

#include "ir/Program.h"

#include <map>
#include <set>

namespace ardf {

class LoopAnalysisSession;
class ProgramAnalysisDriver;

/// Edits to apply while cloning (see file comment). Replacement
/// expressions and inserted statements are moved out of the plan when
/// applied; each target must therefore be rewritten at most once.
struct RewritePlan {
  std::map<const Expr *, ExprPtr> ReplaceExprs;
  std::set<const Stmt *> RemoveStmts;
  std::map<const Stmt *, StmtList> InsertBefore;
  std::map<const Stmt *, StmtList> InsertAfter;
  std::map<const Stmt *, const Stmt *> Analyzed;

  bool empty() const {
    return ReplaceExprs.empty() && RemoveStmts.empty() &&
           InsertBefore.empty() && InsertAfter.empty();
  }
};

/// Clones \p E, substituting planned replacements.
ExprPtr rewriteExpr(const Expr &E, RewritePlan &Plan);

/// Clones \p Stmts applying all edits of \p Plan.
StmtList rewriteStmts(const StmtList &Stmts, RewritePlan &Plan);

/// Clones \p P applying all edits of \p Plan.
Program rewriteProgram(const Program &P, RewritePlan &Plan);

/// The driver session a transform plans top-level loop \p Loop of the
/// driver's program on, with the analyzed copy recorded as the loop's
/// stand-in in \p Plan. Null, and the loop left as is, when the loop is
/// not normalized, the nest recognizer rejects it (a while or break it
/// cannot reduce), or its analyzed form differs from the source (a
/// reduced while, a normalized inner loop): edits to that form would not
/// be edits to the program.
LoopAnalysisSession *plannableSession(ProgramAnalysisDriver &Driver,
                                      const DoLoopStmt &Loop,
                                      RewritePlan &Plan);

/// Clones \p E substituting every occurrence of scalar \p Var by a clone
/// of \p Replacement (used by unrolling and unpeeling: i -> i + k).
ExprPtr substituteScalar(const Expr &E, const std::string &Var,
                         const Expr &Replacement);

/// Clones \p Stmts with the same substitution applied everywhere.
StmtList substituteScalar(const StmtList &Stmts, const std::string &Var,
                          const Expr &Replacement);

} // namespace ardf

#endif // ARDF_TRANSFORM_REWRITE_H
