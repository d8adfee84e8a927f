//===- tools/ardf/Explain.cpp - ardf explain: solution derivations --------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `ardf explain`: re-solves one problem over one loop through the
/// reference engine with provenance recording, cross-checks it
/// bit-identical against the fast engine, and prints one cell's
/// derivation tree (seed, meets with the losing values, kills, back-edge
/// increments, settling pass). Exit codes: 0 success, 1 cross-check
/// divergence or degraded solve, 2 usage or I/O failure.
///
//===----------------------------------------------------------------------===//

#include "Cli.h"

#include "analysis/LoopAnalysisSession.h"
#include "analysis/LoopNest.h"
#include "dataflow/Provenance.h"

#include <iostream>

using namespace ardf;
using namespace ardf::cli;

namespace {

const char *const Tool = "ardf explain";

/// Maps a problem name (or alias) to its spec. The per-occurrence
/// variants back avail/busy so every cell is one concrete reference.
bool resolveProblem(const std::string &Name, ProblemSpec &Out) {
  if (Name == "must-reach" || Name == "must-reaching-defs")
    Out = ProblemSpec::mustReachingDefs();
  else if (Name == "avail" || Name == "available-values")
    Out = ProblemSpec::availableValuesPerOccurrence();
  else if (Name == "busy" || Name == "busy-stores")
    Out = ProblemSpec::busyStoresPerOccurrence();
  else if (Name == "may-reach" || Name == "reaching-references")
    Out = ProblemSpec::reachingReferences();
  else
    return false;
  return true;
}

} // namespace

int cli::runExplain(const std::vector<std::string> &Args) {
  CommonOptions Common;
  std::string Problem, Cell;
  unsigned LoopIndex = 0;
  int NodeArg = -1;
  bool OutSide = false, Json = false;

  std::vector<Flag> Flags = commonFlags(Common, EngineFlag | InputCapFlag);
  Flags.push_back(textFlag("--problem", "NAME",
                           "must-reach, avail, busy, or may-reach\n"
                           "(aliases: must-reaching-defs, available-values,\n"
                           "busy-stores, reaching-references)",
                           Problem));
  Flags.push_back({"--cell", Arity::Required, "REF",
                   "the tracked reference as diagnostics render it\n"
                   "(e.g. 'A[i - 1]'); omit it to list the candidates",
                   [&Cell](const std::string &V, std::string &) {
                     Cell = V;
                     return true;
                   }});
  Flags.push_back(numberFlag(
      "--loop", "Nth analyzable loop in nest pre-order (default 0)",
      LoopIndex));
  Flags.push_back(numberFlag(
      "--node", "flow node to query (default: the loop exit)", NodeArg));
  Flags.push_back(switchFlag(
      "--out", "query the OUT side of the node (default IN)", OutSide));
  Flags.push_back(
      switchFlag("--json", "also print the derivation DAG as JSON", Json));

  const std::string Usage = usageText(
      "explain <file.arf> --problem NAME --cell REF [options]",
      "Prints the derivation of one solution cell, step by step. The\n"
      "explaining re-solve runs the reference engine with provenance\n"
      "recording and is first cross-checked bit-identical against the\n"
      "fast engine given by --engine (default packed).\n",
      Flags, "exit codes: 0 success, 1 divergence/degraded, 2 usage/IO\n");
  std::vector<std::string> Files;
  if (std::optional<int> Exit = parseArgs(Tool, Args, Flags, Usage, Files))
    return *Exit;
  if (Files.size() != 1)
    return usageError(Tool,
                      Files.empty() ? "no input file"
                                    : "ardf explain takes exactly one "
                                      "input file",
                      Usage);
  if (Problem.empty())
    return usageError(Tool, "--problem is required", Usage);
  ProblemSpec Spec = ProblemSpec::mustReachingDefs();
  if (!resolveProblem(Problem, Spec)) {
    std::cerr << Tool << ": error: unknown problem '" << Problem
              << "' (expected must-reach, avail, busy, or may-reach)\n";
    return 2;
  }
  const std::string &File = Files.front();
  ParseResult Parsed;
  if (!readProgram(Tool, File, Common.MaxInputBytes, Parsed))
    return 2;

  // Everything past the parse runs inside one fault boundary: a
  // malformed-but-parseable program must degrade to an error message,
  // never a crash (the fuzz torture path drives this subcommand too).
  try {
    LoopNestTree Nest(Parsed.Prog);
    const NestLoop *Chosen = nullptr;
    unsigned Supported = 0;
    for (const std::unique_ptr<NestLoop> &N : Nest.all()) {
      if (N->isSupported() && Supported++ == LoopIndex) {
        Chosen = N.get();
        break;
      }
    }
    if (!Chosen) {
      std::cerr << Tool << ": error: --loop " << LoopIndex
                << " out of range; '" << File << "' has " << Supported
                << " analyzable loop(s)\n";
      return 2;
    }

    // Reference re-solve with recording, then the fast-engine solve it
    // must match bit for bit.
    LoopAnalysisSession Session(Parsed.Prog, *Chosen->Analyzed);
    SolverOptions ProvOpts;
    ProvOpts.RecordProvenance = true;
    const SolveResult &Recorded = Session.solve(Spec, ProvOpts);
    SolverOptions FastOpts;
    FastOpts.Eng = Common.Engine;
    const SolveResult &FastResult = Session.solve(Spec, FastOpts);
    if (!Recorded.ok() || !Recorded.Provenance ||
        Recorded.Provenance->Degraded) {
      std::cerr << Tool << ": error: the recording solve degraded ("
                << breachReasonName(Recorded.Breach)
                << "); nothing to explain\n";
      return 1;
    }
    if (FastResult.ok() &&
        !(Recorded.In == FastResult.In && Recorded.Out == FastResult.Out)) {
      std::cerr << Tool
                << ": error: reference re-solve diverged from the fast engine "
                   "on '"
                << Spec.Name << "'; this is an ardf bug\n";
      return 1;
    }
    const SolveProvenance &Prov = *Recorded.Provenance;

    // Resolve the cell by its rendered reference text.
    int Idx = -1;
    for (unsigned T = 0; T != Prov.Tracked.size(); ++T)
      if (Prov.Tracked[T].RefText == Cell)
        Idx = static_cast<int>(T);
    if (Idx < 0) {
      std::cerr << Tool << ": error: "
                << (Cell.empty() ? "--cell is required"
                                 : "no tracked cell '" + Cell +
                                       "' in problem '" + Spec.Name + "'")
                << "; candidates:\n";
      for (const auto &T : Prov.Tracked)
        std::cerr << "  " << T.RefText << "  (" << (T.IsDef ? "def" : "use")
                  << " at " << T.Loc.toString() << ")\n";
      return 2;
    }

    unsigned Node =
        NodeArg >= 0 ? static_cast<unsigned>(NodeArg) : Prov.ExitNode;
    if (Node >= Prov.NumNodes) {
      std::cerr << Tool << ": error: --node " << Node
                << " out of range; the flow graph has " << Prov.NumNodes
                << " node(s)\n";
      return 2;
    }
    DerivationGraph G =
        buildDerivation(Prov, Node, static_cast<unsigned>(Idx), !OutSide);
    printDerivation(std::cout, Prov, G);
    if (Json)
      std::cout << derivationToJson(Prov, G) << "\n";
    return 0;
  } catch (const std::exception &E) {
    std::cerr << Tool << ": error: internal error: " << E.what() << "\n";
  } catch (...) {
    std::cerr << Tool << ": error: unknown internal error\n";
  }
  return 1;
}
