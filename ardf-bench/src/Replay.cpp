//===- ardf-bench/src/Replay.cpp - Layer-by-layer replays -----------------===//

#include "Replay.h"

#include "analysis/LoopAnalysisSession.h"
#include "analysis/LoopNest.h"
#include "frontend/Parser.h"
#include "lint/Checks.h"
#include "lint/Render.h"
#include "passes/Validate.h"
#include "serve/Protocol.h"

#include <sstream>
#include <unordered_set>

using namespace ardf;
using namespace ardfbench;

namespace {

using Span = Tracer::Span;

Diagnostic makeDiag(const char *Check, DiagSeverity Sev,
                    const std::string &File, SourceLoc Loc,
                    std::string Message) {
  Diagnostic D;
  D.CheckId = Check;
  D.Severity = Sev;
  D.File = File;
  D.Loc = Loc;
  D.Message = std::move(Message);
  return D;
}

/// The per-loop part of lintProgram: session build, then the instances,
/// compiled programs and solutions every check draws from (built up front
/// so each lands in its own layer span; the checks then hit the session
/// caches), then the checks themselves.
void lintLoop(Tracer &T, const Program &P, const NestLoop &N,
              const std::string &File, const LintOptions &Opts,
              LintOutcome &Out) {
  const DoLoopStmt *Loop = N.Analyzed;
  LintCheckContext Ctx;
  Ctx.File = File;
  Ctx.Solver.Eng = Opts.Engine;
  Ctx.Solver.Budget = Opts.Budget;
  Ctx.NestPath = N.Depth > 0 ? N.path() : "";

  std::unique_ptr<LoopAnalysisSession> Session;
  std::vector<std::unique_ptr<LoopAnalysisSession>> Levels;
  {
    Span S(T, "analysis.session");
    Session = std::make_unique<LoopAnalysisSession>(P, *Loop);
    for (const NestLoop *A : N.ancestors()) {
      NestLevel Level;
      if (A->isSupported()) {
        Level.Iv = A->iv();
        Levels.push_back(std::make_unique<LoopAnalysisSession>(
            P, *Loop, A->iv(), A->tripCount()));
        Level.Session = Levels.back().get();
      } else {
        Level.Iv = "?";
      }
      Ctx.Ancestors.push_back(std::move(Level));
    }
  }

  const std::vector<ProblemSpec> Specs = lintProblems();
  SolverOptions Ref = Ctx.Solver, Packed = Ctx.Solver;
  Ref.Eng = SolverOptions::Engine::Reference;
  Packed.Eng = SolverOptions::Engine::PackedKernel;
  bool PackedPrimary = Opts.Engine != SolverOptions::Engine::Reference;
  // A throw here (a budget or failpoint fault) is re-raised by the check
  // that needs the result, inside its fault boundary below.
  try {
    {
      Span S(T, "dataflow.instance");
      for (const ProblemSpec &Spec : Specs) {
        Session->instance(Spec);
        for (auto &L : Levels)
          L->instance(Spec);
      }
    }
    if (Opts.CrossCheck || PackedPrimary) {
      Span S(T, "dataflow.compile");
      for (const ProblemSpec &Spec : Specs) {
        Session->compiledFlow(Spec);
        if (PackedPrimary)
          for (auto &L : Levels)
            L->compiledFlow(Spec);
      }
    }
    {
      Span S(T, "dataflow.solve");
      for (const ProblemSpec &Spec : Specs) {
        Session->solve(Spec, Ctx.Solver);
        if (Opts.CrossCheck) {
          Session->solve(Spec, Ref);
          Session->solve(Spec, Packed);
        }
        for (auto &L : Levels)
          L->solve(Spec, Ctx.Solver);
      }
    }
  } catch (const std::exception &) {
  }

  auto RunCheck = [&](const char *SpanName, const char *Name, auto &&Fn) {
    Span S(T, SpanName);
    try {
      Fn();
    } catch (const std::exception &E) {
      Out.Diags.push_back(makeDiag(
          checkid::AnalysisDegraded, DiagSeverity::Warning, File,
          Loop->getLoc(),
          std::string("analysis degraded: check '") + Name +
              "' aborted for the loop over '" + Loop->getIndVar() +
              "': " + E.what()));
    }
  };
  RunCheck("lint.check.redundant_load", "redundant-load",
           [&] { checkRedundantLoad(*Session, Ctx, Out.Diags); });
  RunCheck("lint.check.dead_store", "dead-store",
           [&] { checkDeadStore(*Session, Ctx, Out.Diags); });
  RunCheck("lint.check.loop_carried_reuse", "loop-carried-reuse",
           [&] { checkLoopCarriedReuse(*Session, Ctx, Out.Diags); });
  RunCheck("lint.check.cross_iteration_conflict", "cross-iteration-conflict",
           [&] { checkCrossIterationConflict(*Session, Ctx, Out.Diags); });
  if (Opts.CrossCheck)
    RunCheck("lint.crosscheck", "engine-cross-check", [&] {
      Out.Divergences += checkEngineDivergence(*Session, Ctx, Out.Diags);
    });

  // Tearing the sessions down is part of the session layer's cost.
  Span S(T, "analysis.session");
  Levels.clear();
  Session.reset();
}

} // namespace

LintOutcome ardfbench::replayLint(Tracer &T, const std::string &Source,
                                  const std::string &File,
                                  const LintOptions &Opts) {
  LintOutcome Out;
  ParseResult Parsed;
  {
    Span S(T, "frontend.parse");
    Parsed = parseProgram(Source);
  }
  // Every generated input parses; a parse failure is reported by the
  // caller as a mismatch against lintSource.
  if (!Parsed.succeeded())
    return Out;
  Out.Parsed = true;
  const Program &P = Parsed.Prog;

  std::unordered_set<const Stmt *> Poisoned;
  {
    Span S(T, "lint.validate");
    for (const ValidationIssue &I : validateForAnalysis(P)) {
      bool Error = I.Severity == IssueSeverity::Error;
      if (Error)
        Poisoned.insert(I.Offending);
      Diagnostic D = makeDiag(checkid::Precondition,
                              Error ? DiagSeverity::Error
                                    : DiagSeverity::Warning,
                              File, I.Loc, I.Message);
      D.StmtId = I.StmtId;
      Out.Diags.push_back(std::move(D));
    }
  }

  std::unique_ptr<LoopNestTree> Nest;
  {
    Span S(T, "analysis.nest");
    Nest = std::make_unique<LoopNestTree>(P);
  }
  for (const std::unique_ptr<NestLoop> &NodePtr : Nest->all()) {
    const NestLoop &N = *NodePtr;
    if (N.Depth > 0 && !Opts.IncludeNested)
      continue;
    bool Skip = false;
    forEachStmt(*N.Source,
                [&](const Stmt &S) { Skip |= Poisoned.count(&S) > 0; });
    if (Skip)
      continue;
    if (!N.isSupported()) {
      Diagnostic D = makeDiag(
          checkid::AnalysisUnsupported, DiagSeverity::Warning, File, N.loc(),
          std::string("analysis unsupported: the ") +
              (N.isWhile() ? "while" : "do") + " loop at nest path '" +
              N.path() + "' was not analyzed: " + N.UnsupportedReason);
      D.NestPath = N.Depth > 0 ? N.path() : "";
      D.FixHint = "rewrite the loop as a counted form the framework "
                  "supports (see the analyzability preconditions)";
      Out.Diags.push_back(std::move(D));
      continue;
    }
    lintLoop(T, P, N, File, Opts, Out);
  }

  {
    Span S(T, "lint.sort");
    for (const Diagnostic &D : Out.Diags)
      if (D.CheckId == checkid::AnalysisDegraded)
        ++Out.Degraded;
    sortDiagnostics(Out.Diags);
  }
  {
    Span S(T, "analysis.nest");
    Nest.reset();
  }
  Span S(T, "frontend.parse");
  Parsed = ParseResult();
  return Out;
}

//===----------------------------------------------------------------------===//
// Serve requests
//===----------------------------------------------------------------------===//

namespace {

bool sameInt(const JsonValue &Real, const char *Key, int64_t Mine,
             std::string &Why) {
  if (Real[Key].K == JsonValue::Kind::Number && Real[Key].asInt() == Mine)
    return true;
  Why = std::string("replayed analyze differs in '") + Key + "'";
  return false;
}

} // namespace

bool ServeReplay::replay(Tracer &T, const std::string &Line, ServedAs How,
                         const JsonValue &RealResult, std::string &Why) {
  serve::ParsedRequest PR;
  {
    Span S(T, "serve.protocol.parse");
    PR = serve::parseRequest(Line);
  }
  if (!PR.Ok) {
    Why = "request did not parse: " + PR.Error;
    return false;
  }
  // A memo hit replays the stored response bytes: no layer below the
  // protocol runs.
  if (How.Memo)
    return true;
  const serve::Request &R = PR.R;
  // The server folds its own request deadline into every solver budget
  // and lets a request only tighten it.
  SolverBudget Budget = R.Budget;
  uint64_t ServerNs = ServerDeadlineMs * 1000000ull;
  if (ServerNs != 0 && (Budget.DeadlineNs == 0 || ServerNs < Budget.DeadlineNs))
    Budget.DeadlineNs = ServerNs;
  bool TimingBound = R.Budget.DeadlineNs != 0 && R.Budget.DeadlineNs < ServerNs;

  if (R.M == serve::Method::Lint) {
    LintOptions LO;
    LO.Engine = R.Engine;
    LO.CrossCheck = R.CrossCheck;
    LO.IncludeNested = R.IncludeNested;
    LO.Budget = Budget;
    LintOutcome L = replayLint(T, R.Source, R.File, LO);
    std::ostringstream OS;
    {
      Span S(T, "lint.render");
      renderJsonLines(OS, L.Diags);
    }
    if (TimingBound || OS.str() == RealResult["render"].Str)
      return true;
    Why = "replayed lint render differs from the server's";
    return false;
  }

  if (R.M != serve::Method::Analyze) {
    Why = "unexpected method in the replayed stream";
    return false;
  }
  std::unique_ptr<Program> Prog;
  {
    Span S(T, "frontend.parse");
    ParseResult Parsed = parseProgram(R.Source);
    if (!Parsed.succeeded()) {
      Why = "analyze source did not parse";
      return false;
    }
    Prog = std::make_unique<Program>(std::move(Parsed.Prog));
  }
  Doc &D = Docs[R.Tenant + "\n" + R.File];
  DriverRerun RR;
  if (How.Cold || !D.Driver) {
    D.Driver.reset();
    D.Programs.clear();
    DriverOptions DO;
    DO.IncludeNested = R.IncludeNested;
    DO.Solver.Eng = R.Engine;
    DO.Solver.Budget = Budget;
    D.Driver = std::make_unique<ProgramAnalysisDriver>(*Prog, std::move(DO));
    Span S(T, "driver.run");
    D.Driver->run();
  } else {
    Span S(T, "driver.rerun");
    RR = D.Driver->rerun(*Prog);
  }
  D.Programs.push_back(std::move(Prog));
  DriverReport Rep = D.Driver->report();
  return sameInt(RealResult, "loops", Rep.total(), Why) &&
         sameInt(RealResult, "ok", Rep.Ok, Why) &&
         sameInt(RealResult, "degraded", Rep.Degraded, Why) &&
         sameInt(RealResult, "failed", Rep.Failed, Why) &&
         sameInt(RealResult, "node_visits", D.Driver->totalNodeVisits(), Why) &&
         sameInt(RealResult, "reused", RR.Reused, Why) &&
         sameInt(RealResult, "reanalyzed", RR.Reanalyzed, Why);
}
