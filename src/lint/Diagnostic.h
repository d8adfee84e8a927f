//===- lint/Diagnostic.h - Structured lint diagnostics ---------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured diagnostic record every ardf lint check emits: a check
/// id, severity, source anchor, iteration-distance evidence, an optional
/// fix hint, and related source positions. One record carries everything
/// the three renderers (human text, JSON lines, SARIF 2.1.0) need, so a
/// check never formats output itself.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_LINT_DIAGNOSTIC_H
#define ARDF_LINT_DIAGNOSTIC_H

#include "ir/SourceLoc.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ardf {

/// Severity of a lint diagnostic; maps 1:1 onto SARIF levels.
enum class DiagSeverity {
  Error,   ///< Precondition violations and internal-consistency failures.
  Warning, ///< Actionable inefficiencies (redundant loads, dead stores).
  Note     ///< Opportunities and informational facts (reuse, conflicts).
};

/// SARIF-compatible lowercase name ("error", "warning", "note").
const char *severityName(DiagSeverity S);

/// A secondary source position attached to a diagnostic (e.g. the site
/// that generated the reused value).
struct RelatedLoc {
  SourceLoc Loc;
  std::string Message;
};

/// One lint finding.
struct Diagnostic {
  /// Sentinel for "no iteration-distance evidence".
  static constexpr int64_t NoDistance = -1;

  /// Stable rule identifier: "redundant-load", "dead-store",
  /// "loop-carried-reuse", "cross-iteration-conflict", "precondition",
  /// "parse-error", or "engine-divergence".
  std::string CheckId;

  DiagSeverity Severity = DiagSeverity::Warning;

  /// Artifact the diagnostic anchors in (as given to the engine; used
  /// verbatim as the SARIF artifact URI).
  std::string File;

  /// Primary source position (invalid when the program was built
  /// programmatically and carries no locations).
  SourceLoc Loc;

  /// Human-readable statement of the finding (no location prefix).
  std::string Message;

  /// Suggested remediation; empty when the check has none.
  std::string FixHint;

  /// Iteration-distance evidence (the delta of the underlying framework
  /// fact); NoDistance when not applicable.
  int64_t Distance = NoDistance;

  /// Slash-joined induction variables from the outermost loop of the
  /// nest down to the diagnosed loop ("i/j"). Empty for top-level loops
  /// and non-loop diagnostics, so single-loop output is unchanged.
  std::string NestPath;

  /// Per-nest-level iteration distances of the same underlying fact,
  /// outermost level first, innermost (== Distance) last; aligned with
  /// the segments of NestPath. A level where the fact does not hold (or
  /// whose with-respect-to solve degraded) carries NoDistance. Empty
  /// when the loop has no analyzed ancestors.
  std::vector<int64_t> Levels;

  /// Pre-order statement id for precondition findings (0 = none).
  unsigned StmtId = 0;

  /// Secondary positions (e.g. the generating reference).
  std::vector<RelatedLoc> Related;

  /// Explain key (lint/Remarks.h): the backing problem whose solution
  /// cell this finding was derived from, plus the occurrence pair.
  /// Empty problem name = not explainable. Checks stamp the key
  /// unconditionally (it is three cheap fields); the remarks pass only
  /// runs under --explain.
  std::string EvidenceProblem;
  unsigned EvidenceSourceId = 0;
  unsigned EvidenceSinkId = 0;

  /// Chronological derivation evidence attached by the remarks pass
  /// (--explain): the because-trail of the text renderer, the
  /// codeFlow of the SARIF renderer. Empty without --explain.
  std::vector<RelatedLoc> Evidence;

  /// The full derivation DAG as one compact JSON object (embedded
  /// verbatim by the JSON and SARIF renderers). Empty without
  /// --explain.
  std::string DerivationJson;

  bool hasDistance() const { return Distance != NoDistance; }
  bool hasNest() const { return !NestPath.empty(); }
  bool isError() const { return Severity == DiagSeverity::Error; }
  bool hasEvidence() const { return !Evidence.empty(); }
};

/// Stable presentation order: by file, then source position, then check
/// id, then message (ties broken textually so golden files are
/// deterministic).
void sortDiagnostics(std::vector<Diagnostic> &Diags);

} // namespace ardf

#endif // ARDF_LINT_DIAGNOSTIC_H
