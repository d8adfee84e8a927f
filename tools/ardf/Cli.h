//===- tools/ardf/Cli.h - Shared front end of the subcommands ---*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the subcommands of `ardf` share: one flag-table parser with one
/// rule for valued flags, the rows of the common flags, the usage text
/// generated from the rows, input reading, and one telemetry set-up.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_TOOLS_ARDF_CLI_H
#define ARDF_TOOLS_ARDF_CLI_H

#include "dataflow/Framework.h"
#include "frontend/Parser.h"
#include "support/FileIO.h"
#include "support/ParseNumber.h"
#include "telemetry/Telemetry.h"

#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace ardf::cli {

/// How a flag takes its value. A Required value is `--name=V` or
/// `--name V`; an Optional one only `--name=V`, so a bare `--name` never
/// swallows the argument after it.
enum class Arity { None, Required, Optional };

/// One row of a subcommand's flag table. Apply gets the value (empty for
/// Arity::None and a bare Optional flag; `--name=` with nothing after it
/// is a usage error) and returns false with Err set on a bad value.
struct Flag {
  const char *Name;
  Arity Kind;
  const char *Meta; ///< the value's placeholder in the usage text
  std::string Help; ///< usage text; '\n' continues it on the next line
  std::function<bool(const std::string &Value, std::string &Err)> Apply;
};

/// A flag without a value that sets \p Out.
Flag switchFlag(const char *Name, std::string Help, bool &Out);

/// A Required flag whose value is a non-empty string.
Flag textFlag(const char *Name, const char *Meta, std::string Help,
              std::string &Out);

/// A Required flag whose value is an unsigned integer in [Min, Max].
template <typename T>
Flag numberFlag(const char *Name, std::string Help, T &Out, uint64_t Min = 0,
                uint64_t Max = std::numeric_limits<T>::max()) {
  return {Name, Arity::Required, "N", std::move(Help),
          [Name, &Out, Min, Max](const std::string &V, std::string &Err) {
            return parseUnsignedOption(Name, V, Out, Err, Min, Max);
          }};
}

/// The options more than one subcommand takes. The packed kernel is the
/// default engine; the reference engine (`--engine=reference`) is the
/// oracle.
struct CommonOptions {
  SolverOptions::Engine Engine = SolverOptions::Engine::PackedKernel;
  SolverBudget Budget;
  uint64_t MaxInputBytes = io::DefaultMaxInputBytes;
  std::string TraceOut;
};

/// Groups of common rows; a subcommand takes the groups that mean
/// something to it.
enum CommonGroup : unsigned {
  EngineFlag = 1,   ///< --engine
  BudgetFlags = 2,  ///< --budget-{visits,slack,deadline-ms,cells}, all > 0
  InputCapFlag = 4, ///< --max-input-bytes (0 = uncapped)
  TraceFlag = 8,    ///< --trace-out
};

/// The rows of the \p Groups common flags, writing into \p O.
std::vector<Flag> commonFlags(CommonOptions &O, unsigned Groups);

/// The usage text: "usage: ardf <Synopsis>", \p About, one line per
/// row of \p Flags (plus --version and --help), then \p Exits.
std::string usageText(const char *Synopsis, const char *About,
                      const std::vector<Flag> &Flags, const char *Exits);

/// Parses \p Args against \p Flags; what is not a flag goes to
/// \p Positional. --help/-h (usage to stdout), --version, and usage
/// errors ("<Tool>: error: ..." and the usage on stderr) return their
/// exit code, 0 or 2. Returns nullopt when the subcommand should run.
std::optional<int> parseArgs(const char *Tool,
                             const std::vector<std::string> &Args,
                             const std::vector<Flag> &Flags,
                             const std::string &Usage,
                             std::vector<std::string> &Positional);

/// Prints "<Tool>: error: <Msg>" and the usage to stderr; returns 2.
int usageError(const char *Tool, const std::string &Msg,
               const std::string &Usage);

/// The --version line, "ardf build=release" (see libraryBuildType).
std::string versionLine();

/// Reads \p File under the \p Cap byte limit; on failure prints why.
bool readInput(const char *Tool, const std::string &File, uint64_t Cap,
               std::string &Text);

/// readInput, then parse; parse errors print as "File:L:C: error: ...".
bool readProgram(const char *Tool, const std::string &File, uint64_t Cap,
                 ParseResult &Parsed);

/// The telemetry of one run: timings on, the trace sink attached when
/// --trace-out is given, the context installed on this thread until
/// stop() or destruction. The write functions print why on failure.
class RunTelemetry {
public:
  enum class Report { Table, Json, Prometheus };

  explicit RunTelemetry(std::string TraceOut);

  /// Uninstalls the context; later work is not recorded.
  void stop() { Scope.reset(); }

  /// Writes the Chrome trace to the --trace-out file, if one was given.
  bool writeTrace(const char *Tool) const;

  /// Writes report \p R to \p File, or to stdout when \p File is empty.
  bool writeReport(const char *Tool, Report R, const std::string &File) const;

private:
  std::string TraceOut;
  telem::Telemetry Telem;
  telem::MemoryTraceSink Sink;
  std::optional<telem::TelemetryScope> Scope;
};

int runLint(const std::vector<std::string> &Args);
int runExplain(const std::vector<std::string> &Args);
int runStats(const std::vector<std::string> &Args);
int runServe(const std::vector<std::string> &Args);

} // namespace ardf::cli

#endif // ARDF_TOOLS_ARDF_CLI_H
