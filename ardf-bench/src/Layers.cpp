//===- ardf-bench/src/Layers.cpp - Per-layer metrics of a traced run ------===//

#include "Layers.h"

#include <fstream>
#include <iostream>

using namespace ardf;
using namespace ardfbench;
using telem::Counter;

namespace {

double ratio(double Num, double Den) { return Den == 0 ? 0 : Num / Den; }

} // namespace

void ardfbench::addLayerMetrics(RunResult &R, const LayerInputs &L) {
  auto Ms = [&](std::initializer_list<const char *> Spans) {
    uint64_t Ns = 0;
    for (const char *S : Spans) {
      auto It = L.LayerNs.find(S);
      if (It != L.LayerNs.end())
        Ns += It->second;
    }
    return nsToMs(Ns) / static_cast<double>(L.TracedOps ? L.TracedOps : 1);
  };
  auto Count = [&](const std::string &Name, double V) {
    R.add(Name, V, "count");
  };
  const CounterSet &C = L.Counts;

  R.add("frontend.parse.ms", Ms({"frontend.parse"}), "ms");
  R.add("frontend.parse.bytes", static_cast<double>(L.ParseBytes), "bytes");

  R.add("analysis.nest.ms", Ms({"analysis.nest"}), "ms");
  Count("cfg.blocks", C[Counter::CfgBlocks]);
  Count("analysis.nest.reduced", C[Counter::NestReduced]);

  R.add("analysis.session.ms", Ms({"analysis.session"}), "ms");
  Count("analysis.session.count", C[Counter::SessionsBuilt]);

  R.add("dataflow.instance.ms", Ms({"dataflow.instance"}), "ms");
  Count("dataflow.instance.count", C[Counter::SessionInstanceMisses]);
  Count("dataflow.preserve.hits", C[Counter::PreserveHits]);
  Count("dataflow.preserve.misses", C[Counter::PreserveMisses]);

  R.add("dataflow.compile.ms", Ms({"dataflow.compile"}), "ms");
  Count("dataflow.compile.cells", C[Counter::FlowCompiledCells]);

  R.add("dataflow.solve.ms", Ms({"dataflow.solve"}), "ms");
  Count("dataflow.solve.node_visits", C[Counter::SolverNodeVisits]);
  Count("dataflow.solve.meet_ops", C[Counter::SolverMeetOps]);
  Count("dataflow.solve.apply_ops", C[Counter::SolverApplyOps]);
  R.add("dataflow.solve.bound_ratio",
        ratio(C[Counter::MustNodeVisits] + C[Counter::MayNodeVisits],
              C[Counter::MustVisitBound] + C[Counter::MayVisitBound]),
        "ratio");

  R.add("lint.checks.ms",
        Ms({"lint.validate", "lint.check.redundant_load",
            "lint.check.dead_store", "lint.check.loop_carried_reuse",
            "lint.check.cross_iteration_conflict", "lint.crosscheck",
            "lint.sort"}),
        "ms");
  R.add("lint.check.redundant_load.ms", Ms({"lint.check.redundant_load"}),
        "ms");
  R.add("lint.check.dead_store.ms", Ms({"lint.check.dead_store"}), "ms");
  R.add("lint.check.loop_carried_reuse.ms",
        Ms({"lint.check.loop_carried_reuse"}), "ms");
  R.add("lint.check.cross_iteration_conflict.ms",
        Ms({"lint.check.cross_iteration_conflict"}), "ms");
  R.add("lint.crosscheck.ms", Ms({"lint.crosscheck"}), "ms");
  Count("lint.diagnostics", C[Counter::LintDiagnostics]);
  Count("lint.checks.degraded", L.ChecksDegraded);

  R.add("lint.render.ms", Ms({"lint.render"}), "ms");
  R.add("lint.render.bytes", static_cast<double>(L.RenderBytes), "bytes");

  Count("driver.reused", L.Reused);
  Count("driver.reanalyzed", L.Reanalyzed);
  R.add("driver.reuse_ratio", ratio(L.Reused, L.Reused + L.Reanalyzed),
        "ratio");

  R.add("serve.protocol.request_bytes", static_cast<double>(L.RequestBytes),
        "bytes");
  R.add("serve.protocol.response_bytes", static_cast<double>(L.ResponseBytes),
        "bytes");
  R.add("serve.memo.hit_ratio",
        ratio(C[Counter::ServeCacheHits],
              C[Counter::ServeCacheHits] + C[Counter::ServeCacheMisses]),
        "ratio");
  Count("serve.cache.evictions", C[Counter::ServeCacheEvictions]);
  Count("serve.reruns", C[Counter::ServeReruns]);
  Count("serve.overloads", L.Overloads);
  Count("serve.watchdog_kills", L.WatchdogKills);

  Count("dataflow.budget.breaches", L.BudgetBreaches);
  Count("dataflow.budget.degraded_solves", L.DegradedSolves);

  // Whatever the real entry point spent outside the replayed layer calls
  // (server queueing, response serialization, memo copies, glue).
  uint64_t LayerTotal = 0;
  for (const auto &[Name, Ns] : L.LayerNs)
    LayerTotal += Ns;
  double Ops = static_cast<double>(L.TracedOps ? L.TracedOps : 1);
  R.add("unattributed.ms", (nsToMs(L.RealOpNs) - nsToMs(LayerTotal)) / Ops,
        "ms");
  R.add("trace.overhead_pct",
        100.0 * ratio(static_cast<double>(L.TracedNs) -
                          static_cast<double>(L.UntracedNs),
                      static_cast<double>(L.UntracedNs)),
        "%");
}

void ardfbench::writeSpans(const BenchOptions &O, const Tracer &T) {
  if (O.SpansOut.empty())
    return;
  std::ofstream OS(O.SpansOut);
  T.writeChromeTrace(OS);
  if (!OS)
    std::cerr << "ardf-bench: could not write spans to " << O.SpansOut
              << "\n";
}
