//===- lint/LintEngine.h - Whole-program diagnostics engine ----*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ardf lint engine: validates a program (precondition diagnostics),
/// then runs every framework-backed check of lint/Checks.h over each
/// normalized, analyzable loop. One LoopAnalysisSession per loop is
/// shared by all checks, so the loop's flow graph, reference universe,
/// and any problem instance two checks have in common are built and
/// solved exactly once, by the packed kernel engine unless the options
/// name the reference engine. With CrossCheck enabled (off by default)
/// every problem is additionally solved by BOTH solver engines and any
/// divergence is reported as an internal-consistency error -- the
/// engine oracle, opt-in because it costs a second, scalar solve.
///
/// \code
///   LintResult R = lintSource(Text, "fig1.arf");
///   renderText(std::cout, R.Diags, Sources);
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_LINT_LINTENGINE_H
#define ARDF_LINT_LINTENGINE_H

#include "dataflow/Framework.h"
#include "lint/Diagnostic.h"

#include <string>
#include <vector>

namespace ardf {

class LoopNestTree;
class Program;
struct NestLoop;

/// Lint engine configuration.
struct LintOptions {
  /// Primary solver engine every check solves with: the packed kernel
  /// by default, the reference engine on request.
  SolverOptions::Engine Engine = SolverOptions::Engine::PackedKernel;

  /// Opt-in engine oracle: solve each problem with both engines and
  /// report divergence as an engine-divergence error diagnostic.
  bool CrossCheck = false;

  /// Also lint nested loops (each with respect to its own induction
  /// variable).
  bool IncludeNested = true;

  /// Resource ceilings forwarded to every backing solve. A check whose
  /// solve degrades is skipped with an explicit analysis-degraded
  /// diagnostic instead of reporting findings derived from the
  /// conservative fill; the loop's other checks still run.
  SolverBudget Budget;

  /// Attach derivation evidence to every explainable diagnostic
  /// (ardf lint --explain): each finding's backing problem is re-solved
  /// through the reference engine with provenance recording and the
  /// solution cell's derivation trail plus DAG are attached (see
  /// lint/Remarks.h). The configured engine's solves are unaffected.
  bool Explain = false;

  /// Restrict Explain to one check id (--explain=CHECK-ID); empty
  /// explains all checks.
  std::string ExplainCheck;
};

/// Result of one lint run.
struct LintResult {
  std::vector<Diagnostic> Diags;

  /// Loops the framework checks actually ran on (normalized, analyzable
  /// ones; the rest only get precondition diagnostics).
  unsigned LoopsAnalyzed = 0;

  /// Engine cross-check comparisons that diverged (0 is the invariant).
  unsigned EngineDivergences = 0;

  /// Checks skipped (or aborted by a captured exception) because their
  /// backing analysis degraded; each carries an analysis-degraded
  /// diagnostic.
  unsigned ChecksDegraded = 0;

  bool hasErrors() const {
    for (const Diagnostic &D : Diags)
      if (D.isError())
        return true;
    return false;
  }

  unsigned count(DiagSeverity S) const {
    unsigned N = 0;
    for (const Diagnostic &D : Diags)
      N += D.Severity == S ? 1 : 0;
    return N;
  }
};

/// Lints an already-parsed program. \p File is the artifact name stamped
/// into every diagnostic.
LintResult lintProgram(const Program &P, const std::string &File,
                       const LintOptions &Opts = LintOptions());

/// The first phase of one lint run over \p P and its nesting tree
/// \p Nest: appends the precondition diagnostics of the Validate pass to
/// \p Out and returns the loops the run lints, in nest pre-order. Those
/// are all loops (nested ones only under IncludeNested) except the ones
/// containing a statement with an error-severity issue: their analysis
/// would be wrong, and the precondition error already says why.
std::vector<const NestLoop *> lintPreconditions(const Program &P,
                                                const LoopNestTree &Nest,
                                                const std::string &File,
                                                const LintOptions &Opts,
                                                std::vector<Diagnostic> &Out);

/// What lintLoop reports about one loop besides its diagnostics.
struct LoopLintOutcome {
  /// The framework checks ran (the nest recognizer supports the loop).
  bool Analyzed = false;

  /// Engine cross-check comparisons that diverged.
  unsigned EngineDivergences = 0;

  /// A check aborted, or a backing solve of the loop or of one of its
  /// enclosing levels degraded: the output depends on the budget at
  /// hand, and under a deadline on timing.
  bool Degraded = false;
};

/// The per-loop body of lintProgram, which the daemon's incremental
/// lint shares: an analysis-unsupported diagnostic for a loop the nest
/// recognizer rejected; otherwise every framework check over the
/// loop's analyzed form, reading per-level distances from one
/// with-respect-to session per enclosing level (Section 3.6). Appends
/// the loop's diagnostics to \p Out unsorted. Its output depends only
/// on the loop's source and analyzed form, the array declarations, the
/// induction variable, trip count and support of each enclosing level,
/// \p File and \p Opts.
LoopLintOutcome lintLoop(const Program &P, const NestLoop &N,
                         const std::string &File, const LintOptions &Opts,
                         std::vector<Diagnostic> &Out);

/// Parses \p Source and lints it. Parse failures become parse-error
/// diagnostics (and no framework checks run on a partial program).
LintResult lintSource(const std::string &Source, const std::string &File,
                      const LintOptions &Opts = LintOptions());

} // namespace ardf

#endif // ARDF_LINT_LINTENGINE_H
