//===- tools/ardf/Cli.cpp - Shared front end of the subcommands -----------===//

#include "Cli.h"

#include "support/BuildInfo.h"
#include "telemetry/Export.h"

#include <algorithm>
#include <fstream>
#include <iostream>

using namespace ardf;
using namespace ardf::cli;

Flag cli::switchFlag(const char *Name, std::string Help, bool &Out) {
  return {Name, Arity::None, "", std::move(Help),
          [&Out](const std::string &, std::string &) { return Out = true; }};
}

Flag cli::textFlag(const char *Name, const char *Meta, std::string Help,
                   std::string &Out) {
  return {Name, Arity::Required, Meta, std::move(Help),
          [Name, Meta, &Out](const std::string &V, std::string &Err) {
            if (V.empty())
              Err = std::string(Name) + " needs a " + Meta;
            else
              Out = V;
            return !V.empty();
          }};
}

std::vector<Flag> cli::commonFlags(CommonOptions &O, unsigned Groups) {
  std::vector<Flag> Flags;
  if (Groups & EngineFlag)
    Flags.push_back({"--engine", Arity::Required, "NAME",
                     std::string("solver engine, one of: ") +
                         engineNameList() + "\n(default: " +
                         engineName(O.Engine) + ")",
                     [&O](const std::string &V, std::string &Err) {
                       if (!parseEngineName(V, O.Engine))
                         Err = "unknown engine '" + V +
                               "' (expected one of: " + engineNameList() +
                               ")";
                       return Err.empty();
                     }});
  if (Groups & BudgetFlags) {
    SolverBudget &B = O.Budget;
    Flags.push_back(numberFlag("--budget-visits",
                               "cap solver node visits per solve",
                               B.MaxNodeVisits, 1));
    Flags.push_back({"--budget-slack", Arity::Required, "F",
                     "cap visits at F x the 3N/2N bound",
                     [&B](const std::string &V, std::string &Err) {
                       double F = 0.0;
                       if (!parseDecimal(V, F) || F <= 0.0)
                         Err = "--budget-slack needs a positive factor";
                       else
                         B.VisitSlack = F;
                       return Err.empty();
                     }});
    Flags.push_back({"--budget-deadline-ms", Arity::Required, "N",
                     "per-solve wall-clock deadline",
                     [&B](const std::string &V, std::string &Err) {
                       uint64_t Ms = 0;
                       if (!parseUnsignedOption("--budget-deadline-ms", V, Ms,
                                                Err, 1, UINT64_MAX / 1000000))
                         return false;
                       B.DeadlineNs = Ms * 1000000ull;
                       return true;
                     }});
    Flags.push_back(numberFlag("--budget-cells", "cap matrix cells per solve",
                               B.MaxMatrixCells, 1));
  }
  if (Groups & InputCapFlag)
    Flags.push_back(numberFlag("--max-input-bytes",
                               "per-file input cap (default 64MiB,\n"
                               "0 = uncapped)",
                               O.MaxInputBytes));
  if (Groups & TraceFlag)
    Flags.push_back(textFlag("--trace-out", "FILE",
                             "write Chrome trace-event JSON\n"
                             "(load in Perfetto / about:tracing)",
                             O.TraceOut));
  return Flags;
}

std::string cli::usageText(const char *Synopsis, const char *About,
                           const std::vector<Flag> &Flags,
                           const char *Exits) {
  const size_t Col = 26;
  std::string U = std::string("usage: ardf ") + Synopsis + "\n\n" + About +
                  "\noptions:\n";
  auto Row = [&](std::string Spelling, const std::string &Help) {
    Spelling.resize(std::max(Spelling.size() + 1, Col - 2), ' ');
    U += "  " + Spelling;
    for (char C : Help)
      U += C == '\n' ? "\n" + std::string(Col, ' ') : std::string(1, C);
    U += "\n";
  };
  for (const Flag &F : Flags) {
    std::string Spelling = F.Name;
    if (F.Kind == Arity::Required)
      Spelling += std::string("=") + F.Meta;
    else if (F.Kind == Arity::Optional)
      Spelling += std::string("[=") + F.Meta + "]";
    Row(Spelling, F.Help);
  }
  Row("--version", "print version and build type");
  Row("--help", "show this message");
  return U + "\nA valued option takes --name=V or --name V; an optional\n"
             "value ([=V]) only --name=V.\n" +
         Exits;
}

int cli::usageError(const char *Tool, const std::string &Msg,
                    const std::string &Usage) {
  std::cerr << Tool << ": error: " << Msg << "\n\n" << Usage;
  return 2;
}

std::string cli::versionLine() {
  return std::string("ardf build=") + libraryBuildType();
}

std::optional<int> cli::parseArgs(const char *Tool,
                                  const std::vector<std::string> &Args,
                                  const std::vector<Flag> &Flags,
                                  const std::string &Usage,
                                  std::vector<std::string> &Positional) {
  for (size_t I = 0; I != Args.size(); ++I) {
    const std::string &Arg = Args[I];
    if (Arg == "--help" || Arg == "-h") {
      std::cout << Usage;
      return 0;
    }
    if (Arg == "--version") {
      std::cout << versionLine() << "\n";
      return 0;
    }
    if (Arg.empty() || Arg[0] != '-') {
      Positional.push_back(Arg);
      continue;
    }
    size_t Eq = Arg.find('=');
    std::string Name = Arg.substr(0, Eq);
    auto F = std::find_if(Flags.begin(), Flags.end(),
                          [&](const Flag &Row) { return Name == Row.Name; });
    if (F == Flags.end() || (F->Kind == Arity::None && Eq != Arg.npos))
      return usageError(Tool, "unknown option '" + Arg + "'", Usage);
    std::string Value;
    if (Eq != Arg.npos) {
      Value = Arg.substr(Eq + 1);
      // A bare Optional flag already means "no value"; "--stats=" is a
      // typo, not a second spelling of it.
      if (Value.empty() && F->Kind == Arity::Optional)
        return usageError(Tool, Name + "= needs a value", Usage);
    } else if (F->Kind == Arity::Required) {
      if (I + 1 == Args.size())
        return usageError(Tool, Name + " needs a value", Usage);
      Value = Args[++I];
    }
    std::string Err;
    if (!F->Apply(Value, Err))
      return usageError(Tool, Err, Usage);
  }
  return std::nullopt;
}

bool cli::readInput(const char *Tool, const std::string &File, uint64_t Cap,
                    std::string &Text) {
  std::string Detail;
  io::ReadStatus RS = io::readInputFile(File, Text, Cap, &Detail);
  if (RS != io::ReadStatus::Ok)
    std::cerr << Tool << ": error: "
              << io::describeReadError(RS, File, Cap, Detail) << "\n";
  return RS == io::ReadStatus::Ok;
}

bool cli::readProgram(const char *Tool, const std::string &File, uint64_t Cap,
                      ParseResult &Parsed) {
  std::string Text;
  if (!readInput(Tool, File, Cap, Text))
    return false;
  Parsed = parseProgram(Text);
  if (Parsed.succeeded())
    return true;
  for (const ParseDiagnostic &PD : Parsed.Diags)
    std::cerr << File << ":" << PD.Line << ":" << PD.Col
              << ": error: " << PD.Message << "\n";
  return false;
}

RunTelemetry::RunTelemetry(std::string Trace) : TraceOut(std::move(Trace)) {
  Telem.enableTimings();
  if (!TraceOut.empty())
    Telem.setSink(&Sink);
  Scope.emplace(Telem);
}

namespace {

/// Opens \p File for writing, or prints why it cannot.
bool openOut(const char *Tool, const std::string &File, std::ofstream &Out) {
  Out.open(File, std::ios::binary);
  if (!Out)
    std::cerr << Tool << ": error: cannot write '" << File << "'\n";
  return static_cast<bool>(Out);
}

} // namespace

bool RunTelemetry::writeTrace(const char *Tool) const {
  std::ofstream Out;
  if (TraceOut.empty())
    return true;
  if (!openOut(Tool, TraceOut, Out))
    return false;
  telem::writeChromeTrace(Out, Sink.events());
  return true;
}

bool RunTelemetry::writeReport(const char *Tool, Report R,
                               const std::string &File) const {
  std::ofstream Out;
  if (!File.empty() && !openOut(Tool, File, Out))
    return false;
  std::ostream &OS = File.empty() ? std::cout : Out;
  if (R == Report::Table)
    telem::writeStatsTable(OS, Telem);
  else if (R == Report::Json)
    telem::writeStatsJson(OS, Telem);
  else
    telem::writePrometheus(OS, Telem);
  return true;
}
