//===- tools/ardf/ardf.cpp - The ardf command-line front end --------------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One binary, four subcommands over the library entry points: `ardf
/// lint` (lintSource + render), `ardf explain` (LoopAnalysisSession +
/// buildDerivation), `ardf stats` (ProgramAnalysisDriver under
/// telemetry) and `ardf serve` (AnalysisServer). A bare `ardf` or an
/// unknown subcommand is a usage error (exit 2).
///
//===----------------------------------------------------------------------===//

#include "Cli.h"

#include <iostream>

using namespace ardf;

int main(int Argc, char **Argv) {
  static const struct {
    const char *Name;
    int (*Run)(const std::vector<std::string> &Args);
    const char *Summary;
  } Subcommands[] = {
      {"lint", cli::runLint, "array reference diagnostics (text/JSON/SARIF)"},
      {"explain", cli::runExplain, "the derivation of one solution cell"},
      {"stats", cli::runStats, "telemetry counters of a driver run"},
      {"serve", cli::runServe, "the NDJSON analysis daemon"},
  };
  std::string Sub = Argc > 1 ? Argv[1] : "";
  for (const auto &S : Subcommands)
    if (Sub == S.Name)
      return S.Run(std::vector<std::string>(Argv + 2, Argv + Argc));
  if (Sub == "--version") {
    std::cout << cli::versionLine() << "\n";
    return 0;
  }
  bool Help = Sub == "--help" || Sub == "-h";
  std::ostream &OS = Help ? std::cout : std::cerr;
  if (!Help)
    OS << "ardf: error: "
       << (Sub.empty() ? "missing subcommand"
                       : "unknown subcommand '" + Sub + "'")
       << " (expected one of: lint, explain, stats, serve)\n\n";
  OS << "usage: ardf <subcommand> [options] [args]\n\n";
  for (const auto &S : Subcommands)
    OS << "  " << S.Name << std::string(10 - std::string(S.Name).size(), ' ')
       << S.Summary << "\n";
  OS << "\n`ardf <subcommand> --help` lists its options; `ardf --version`\n"
        "prints the version and build type.\n";
  return Help ? 0 : 2;
}
