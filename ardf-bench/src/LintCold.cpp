//===- ardf-bench/src/LintCold.cpp - The lint-cold workload ---------------===//
//
// One-shot `ardf-lint` traffic: a closed loop on one thread, each
// operation a cold lintSource + renderText of one file with the CLI
// defaults (reference engine, cross-check on, nested on). Outputs are
// checked against the committed goldens (examples) and the committed
// digests (pool programs).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Corpus.h"
#include "Layers.h"
#include "Replay.h"

#include "lint/LintEngine.h"
#include "lint/Render.h"

#include <fstream>
#include <iostream>
#include <sstream>

#include <sched.h>

using namespace ardf;
using namespace ardfbench;

namespace {

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

struct LintInput {
  std::string File;
  std::string Text;
  /// Golden text (examples) or recorded digest (pool programs).
  std::string Golden;
  uint64_t Digest = 0;
  bool Example = false;
  /// "example", or the pool slot's size stratum.
  const char *Stratum = "example";
};

struct LintCorpus {
  std::vector<LintInput> Examples;
  /// Indexed Slot * LintVariants + Variant.
  std::vector<LintInput> Pool;

  /// The \p I-th operation of the stream of \p Picks.
  const LintInput &at(Rng &Picks, size_t I) const {
    int E = lintBlockOrder()[I % lintBlockOrder().size()];
    if (E < 0)
      return Examples[static_cast<size_t>(-1 - E)];
    return Pool[static_cast<size_t>(E) * LintVariants +
                static_cast<size_t>(Picks.range(0, LintVariants - 1))];
  }
};

/// Moves the calling thread to the next CPU it may run on. Each lint-cold
/// operation starts on a fresh CPU with cold caches, as a new ardf-lint
/// process would, and one run samples every CPU of the host instead of
/// whichever one the scheduler kept it on.
class CpuRotation {
public:
  CpuRotation() {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
      for (int C = 0; C != CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Set))
          Cpus.push_back(C);
  }

  void next() {
    if (Cpus.size() < 2)
      return;
    cpu_set_t Set;
    CPU_ZERO(&Set);
    CPU_SET(Cpus[Next++ % Cpus.size()], &Set);
    sched_setaffinity(0, sizeof(Set), &Set);
  }

private:
  std::vector<int> Cpus;
  size_t Next = 0;
};

/// lintSource + renderText, the ardf-lint pipeline.
std::string lintToText(const LintInput &In, LintResult &LR) {
  LR = lintSource(In.Text, In.File);
  SourceMap Sources;
  Sources.add(In.File, In.Text);
  std::ostringstream OS;
  renderText(OS, LR.Diags, Sources);
  return OS.str();
}

/// Checks one output; returns "" when correct.
std::string verify(const LintInput &In, const LintResult &LR,
                   const std::string &Out) {
  if (LR.EngineDivergences != 0)
    return In.File + ": engine-divergence reported";
  if (In.Example ? Out != In.Golden : fnv1a(Out) != In.Digest)
    return In.File + ": output differs from the committed " +
           (In.Example ? "golden" : "digest");
  return "";
}

bool loadDigests(const std::string &Path,
                 std::map<std::string, uint64_t> &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string File, Hex;
  while (In >> File >> Hex)
    Out[File] = std::stoull(Hex, nullptr, 16);
  return true;
}

/// Generates the pool, attaching each program's recorded digest.
/// Returns the file names \p Digests lacks.
std::string buildPool(LintCorpus &C,
                      const std::map<std::string, uint64_t> &Digests) {
  std::string Missing;
  C.Pool.clear();
  for (unsigned S = 0; S != LintSlots; ++S)
    for (unsigned V = 0; V != LintVariants; ++V) {
      LintInput In;
      In.File = lintPoolFile(S, V);
      In.Text = lintPoolProgram(S, V).text();
      In.Stratum = lintSlotStratum(S);
      auto It = Digests.find(In.File);
      if (It != Digests.end())
        In.Digest = It->second;
      else
        Missing += " " + In.File;
      C.Pool.push_back(std::move(In));
    }
  return Missing;
}

} // namespace

int ardfbench::recordLintDigests(const BenchOptions &O) {
  LintCorpus C;
  buildPool(C, {});
  std::vector<std::string> Lines(C.Pool.size());
  parallelFor(C.Pool.size(), 4, [&](size_t I) {
    LintResult LR;
    std::string Out = lintToText(C.Pool[I], LR);
    Lines[I] = C.Pool[I].File + " " + hex64(fnv1a(Out)) +
               (LR.EngineDivergences ? " DIVERGENT" : "");
  });
  std::ofstream OS(O.Digests);
  for (const std::string &L : Lines) {
    if (L.find("DIVERGENT") != std::string::npos) {
      std::cerr << "ardf-bench: refusing to record a divergent digest: " << L
                << "\n";
      return 1;
    }
    OS << L << "\n";
  }
  std::cerr << "ardf-bench: wrote " << Lines.size() << " digests to "
            << O.Digests << "\n";
  return OS ? 0 : 1;
}

int ardfbench::runLintCold(const BenchOptions &O, RunResult &R) {
  std::map<std::string, uint64_t> Digests;
  if (!loadDigests(O.Digests, Digests)) {
    std::cerr << "ardf-bench: cannot read digests " << O.Digests << "\n";
    return 2;
  }

  // Set-up: read the bundled examples, generate the pool, warm up on
  // the examples and one 144-statement program (each warm-up lint is a
  // checked operation). Like every timed lint, each repetition starts
  // on the next CPU.
  CpuRotation Cpus;
  LintCorpus C;
  bool SetupOk = true;
  std::string Missing;
  auto Reset = [&] {
    Cpus.next();
    C.Examples.clear();
    C.Pool.clear();
  };
  double SetupS = medianSetupSeconds(LintSetupReps, Reset, [&] {
    for (const std::string &Name : exampleNames()) {
      LintInput In;
      In.File = Name + ".arf";
      In.Example = true;
      SetupOk &= readFile(O.Root + "/examples/programs/" + In.File, In.Text);
      SetupOk &= readFile(O.Root + "/tests/lint/golden/" + Name + ".expected",
                          In.Golden);
      C.Examples.push_back(std::move(In));
    }
    Missing = buildPool(C, Digests);
    if (!SetupOk || !Missing.empty())
      return;
    std::vector<const LintInput *> Warm;
    for (const LintInput &In : C.Examples)
      Warm.push_back(&In);
    Warm.push_back(&C.Pool[14 * LintVariants]);
    for (const LintInput *In : Warm) {
      LintResult LR;
      std::string Out = lintToText(*In, LR);
      std::string Bad = verify(*In, LR, Out);
      R.op(Bad.empty(), Bad);
    }
  });
  if (!SetupOk) {
    std::cerr << "ardf-bench: cannot read the bundled examples or goldens\n";
    return 2;
  }
  if (!Missing.empty()) {
    std::cerr << "ardf-bench: no recorded digest for" << Missing << "\n";
    return 2;
  }

  if (!O.Trace) {
    Rng Picks(mixSeed(O.Seed, 1));
    LatencyClass Lint;
    std::map<std::string, LatencyClass> ByStratum;
    uint64_t Cpu0 = processCpuNs(), T0 = nowNs();
    uint64_t End = T0 + static_cast<uint64_t>(O.Seconds * 1e9);
    size_t Ops = 0;
    for (; nowNs() < End; ++Ops) {
      const LintInput &In = C.at(Picks, Ops);
      Cpus.next();
      LintResult LR;
      uint64_t S = nowNs();
      std::string Out = lintToText(In, LR);
      uint64_t Ns = nowNs() - S;
      Lint.add(Ns);
      ByStratum[In.Stratum].add(Ns);
      std::string Bad = verify(In, LR, Out);
      R.op(Bad.empty(), Bad);
    }
    double Elapsed = static_cast<double>(nowNs() - T0) / 1e9;
    double CpuMs = nsToMs(processCpuNs() - Cpu0);

    R.add("setup_s", SetupS, "s");
    R.add("ops_per_s", static_cast<double>(Ops) / Elapsed, "1/s");
    R.add("p50_ms", Lint.p50(), "ms");
    R.add("p90_ms", Lint.p90(), "ms");
    R.add("cpu_ms_per_op", CpuMs / static_cast<double>(Ops), "ms");
    R.add("peak_rss_mb", peakRssMb(), "MB");
    R.report("lint_p50_ms", Lint.p50(), "ms");
    R.report("lint_p90_ms", Lint.p90(), "ms");
    R.Samples.push_back({"lint", Lint.Ms.size()});
    // The mix is fixed by lintBlockOrder; the shares show it as run.
    for (const auto &[Stratum, Class] : ByStratum) {
      R.report("share." + Stratum, static_cast<double>(Class.Ms.size()) /
                                       static_cast<double>(Ops),
               "ratio");
      R.report("lint_" + Stratum + "_p50_ms", Class.p50(), "ms");
    }
    return 0;
  }

  // Traced run. Counting rounds: block 0 of the stream through the real
  // entry points under an installed telemetry context, twice; the counts
  // must repeat exactly.
  LayerInputs L;
  std::vector<CounterSet> Rounds;
  for (int Round = 0; Round != 2; ++Round) {
    Rng Picks(mixSeed(O.Seed, 1));
    telem::Telemetry Tel;
    LayerInputs Mine;
    {
      telem::TelemetryScope Scope(Tel);
      for (size_t I = 0; I != lintBlockOrder().size(); ++I) {
        const LintInput &In = C.at(Picks, I);
        LintResult LR;
        std::string Out = lintToText(In, LR);
        std::string Bad = verify(In, LR, Out);
        R.op(Bad.empty(), Bad);
        Mine.ParseBytes += In.Text.size();
        Mine.RenderBytes += Out.size();
        Mine.ChecksDegraded += LR.ChecksDegraded;
      }
    }
    Mine.Counts = CounterSet::of(Tel);
    Rounds.push_back(Mine.Counts);
    R.check(Round == 0 || (Mine.ParseBytes == L.ParseBytes &&
                           Mine.RenderBytes == L.RenderBytes),
            "counting round outputs did not repeat");
    L = Mine;
  }
  std::string Diff = Rounds[0].differences(Rounds[1]);
  R.check(Diff.empty(), "library counters did not repeat exactly: " + Diff);
  L.BudgetBreaches = L.Counts[telem::Counter::BudgetBreaches];
  L.DegradedSolves = L.Counts[telem::Counter::DegradedSolves];

  // Timed traced loop: the real call, then the traced replay, then the
  // untraced replay of the same file, each starting on the next CPU.
  Tracer Traced(true), Untraced(false);
  Rng Picks(mixSeed(O.Seed, 1));
  uint64_t End = nowNs() + static_cast<uint64_t>(O.Seconds * 1e9);
  for (uint32_t I = 0; nowNs() < End; ++I) {
    const LintInput &In = C.at(Picks, I);
    Cpus.next();
    LintResult LR;
    uint64_t S0 = nowNs();
    std::string Out = lintToText(In, LR);
    uint64_t S1 = nowNs();
    std::string Bad = verify(In, LR, Out);
    R.op(Bad.empty(), Bad);

    std::string Replayed[2];
    uint64_t ReplayNs[2];
    Tracer *Tr[2] = {&Traced, &Untraced};
    for (int K = 0; K != 2; ++K) {
      Cpus.next();
      uint64_t T0 = nowNs();
      Tr[K]->beginOp(I);
      LintOutcome LO = replayLint(*Tr[K], In.Text, In.File, LintOptions());
      SourceMap Sources;
      Sources.add(In.File, In.Text);
      std::ostringstream OS;
      {
        Tracer::Span Sp(*Tr[K], "lint.render");
        renderText(OS, LO.Diags, Sources);
      }
      Tr[K]->endOp();
      ReplayNs[K] = nowNs() - T0;
      Replayed[K] = OS.str();
    }
    R.check(Replayed[0] == Out && Replayed[1] == Out,
            "replayed lint differs from lintSource on " + In.File);
    L.RealOpNs += S1 - S0;
    L.TracedNs += ReplayNs[0];
    L.UntracedNs += ReplayNs[1];
  }
  L.LayerNs = Traced.layerNs();
  L.TracedOps = Traced.opsTraced();
  addLayerMetrics(R, L);
  writeSpans(O, Traced);
  return 0;
}
