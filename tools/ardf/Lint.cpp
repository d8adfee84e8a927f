//===- tools/ardf/Lint.cpp - ardf lint: array reference linter ------------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `ardf lint`: runs the Validate pass plus all framework-backed checks
/// over each .arf input and prints the diagnostics as text, JSON lines,
/// or SARIF 2.1.0. Exit codes: 0 clean (warnings and notes only), 1 at
/// least one error-severity diagnostic, 2 usage or I/O failure.
///
//===----------------------------------------------------------------------===//

#include "Cli.h"

#include "lint/LintEngine.h"
#include "lint/Render.h"

#include <iostream>

using namespace ardf;
using namespace ardf::cli;

namespace {

const char *const Tool = "ardf lint";

enum class Format { Text, JsonLines, Sarif };

} // namespace

int cli::runLint(const std::vector<std::string> &Args) {
  CommonOptions Common;
  LintOptions Lint;
  Format Fmt = Format::Text;
  bool NoNested = false, Strict = false;
  bool ListChecks = false, Quiet = false, Stats = false;
  std::string StatsOut;

  std::vector<Flag> Flags = commonFlags(
      Common, EngineFlag | BudgetFlags | InputCapFlag | TraceFlag);
  Flags.push_back({"--format", Arity::Required, "text|json|sarif",
                   "output format (default: text)",
                   [&Fmt](const std::string &V, std::string &Err) {
                     if (V == "text")
                       Fmt = Format::Text;
                     else if (V == "json")
                       Fmt = Format::JsonLines;
                     else if (V == "sarif")
                       Fmt = Format::Sarif;
                     else
                       Err = "unknown format '" + V +
                             "' (expected text, json, or sarif)";
                     return Err.empty();
                   }});
  Flags.push_back({"--explain", Arity::Optional, "CHECK-ID",
                   "attach each finding's derivation (text\n"
                   "because-trail, JSON DAG, SARIF codeFlows);\n"
                   "=CHECK-ID explains that check only",
                   [&Lint](const std::string &V, std::string &) {
                     Lint.Explain = true;
                     Lint.ExplainCheck = V;
                     return true;
                   }});
  Flags.push_back({"--stats", Arity::Optional, "FILE",
                   "print telemetry counters (table on\n"
                   "stdout, stats JSON with =FILE)",
                   [&](const std::string &V, std::string &) {
                     StatsOut = V;
                     return Stats = true;
                   }});
  Flags.push_back(switchFlag("--cross-check",
                             "also solve with the reference engine and\n"
                             "report any divergence as an error",
                             Lint.CrossCheck));
  Flags.push_back(
      switchFlag("--no-nested", "lint outermost loops only", NoNested));
  Flags.push_back(switchFlag("--strict",
                             "fail (exit 1) when any check was degraded\n"
                             "by a budget or fault",
                             Strict));
  Flags.push_back(switchFlag("--list-checks",
                             "list every check id, then exit 0",
                             ListChecks));
  Flags.push_back(
      switchFlag("--quiet", "suppress the trailing summary line", Quiet));

  const std::string Usage = usageText(
      "lint [options] <file.arf>...",
      "Array reference diagnostics over .arf loop programs, backed by the\n"
      "(G,K) data flow framework: redundant-load, dead-store,\n"
      "loop-carried-reuse, cross-iteration-conflict, plus precondition\n"
      "validation. The checks solve with the packed kernel engine;\n"
      "--cross-check also solves every problem with the reference engine\n"
      "and reports any divergence as an engine-divergence error.\n",
      Flags, "exit codes: 0 clean, 1 error diagnostics, 2 usage/IO failure\n");
  std::vector<std::string> Files;
  if (std::optional<int> Exit = parseArgs(Tool, Args, Flags, Usage, Files))
    return *Exit;
  if (ListChecks) {
    for (const CheckInfo &C : allChecks())
      std::cout << C.Id << "  [" << C.Severity << "]  " << C.Description
                << "\n";
    return 0;
  }
  if (Files.empty())
    return usageError(Tool, "no input files", Usage);
  Lint.Engine = Common.Engine;
  Lint.Budget = Common.Budget;
  Lint.IncludeNested = !NoNested;

  // Telemetry is installed only when requested, so a plain lint run
  // keeps the instrumentation at its zero-overhead-off setting.
  std::optional<RunTelemetry> Telem;
  if (Stats || !Common.TraceOut.empty())
    Telem.emplace(Common.TraceOut);

  SourceMap Sources;
  std::vector<Diagnostic> AllDiags;
  unsigned Loops = 0, Divergences = 0, Degraded = 0;
  bool HadErrors = false;
  for (const std::string &File : Files) {
    std::string Text;
    if (!readInput(Tool, File, Common.MaxInputBytes, Text))
      return 2;
    Sources.add(File, Text);
    telem::Span FileSpan("lint-file", "lint", File.c_str());
    // Last-resort per-file fault boundary: the engine isolates faults
    // per check, but if anything still escapes, the remaining files are
    // linted and this one is reported as an error.
    try {
      LintResult R = lintSource(Text, File, Lint);
      HadErrors |= R.hasErrors();
      Loops += R.LoopsAnalyzed;
      Divergences += R.EngineDivergences;
      Degraded += R.ChecksDegraded;
      AllDiags.insert(AllDiags.end(),
                      std::make_move_iterator(R.Diags.begin()),
                      std::make_move_iterator(R.Diags.end()));
    } catch (const std::exception &E) {
      std::cerr << Tool << ": error: internal error while linting '" << File
                << "': " << E.what() << "\n";
      HadErrors = true;
    }
  }

  if (Fmt == Format::JsonLines) {
    renderJsonLines(std::cout, AllDiags);
  } else if (Fmt == Format::Sarif) {
    renderSarif(std::cout, AllDiags);
  } else {
    renderText(std::cout, AllDiags, Sources);
    if (!Quiet) {
      unsigned Errors = 0, Warnings = 0, Notes = 0;
      for (const Diagnostic &D : AllDiags) {
        Errors += D.Severity == DiagSeverity::Error;
        Warnings += D.Severity == DiagSeverity::Warning;
        Notes += D.Severity == DiagSeverity::Note;
      }
      std::cout << Tool << ": " << Files.size() << " file(s), " << Loops
                << " loop(s) analyzed: " << Errors << " error(s), "
                << Warnings << " warning(s), " << Notes << " note(s)";
      if (Lint.CrossCheck)
        std::cout << "; engine cross-check: " << Divergences
                  << " divergence(s)";
      if (Degraded != 0)
        std::cout << "; " << Degraded << " degraded check(s)";
      std::cout << '\n';
    }
  }

  if (Telem && !Telem->writeTrace(Tool))
    return 2;
  if (Stats && !Telem->writeReport(Tool,
                                   StatsOut.empty()
                                       ? RunTelemetry::Report::Table
                                       : RunTelemetry::Report::Json,
                                   StatsOut))
    return 2;
  if (Strict && Degraded != 0) {
    std::cerr << Tool << ": error: --strict: " << Degraded
              << " check(s) ran degraded\n";
    return 1;
  }
  return HadErrors ? 1 : 0;
}
