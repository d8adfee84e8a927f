//===- ardf-bench/src/Serve.cpp - The serve-edit and serve-deadline loads -===//
//
// Editor traffic through AnalysisServer::submit, in one process. Every
// client is a closed loop owning one tenant:
//
//  * an interactive client cycles through ServeDocs documents, more than
//    the server's per-tenant quota, visiting the HotDocs hot ones four
//    times as often. A visit to a document the quota has evicted (or
//    never saw) opens it: a cold analyze, then a lint. A visit to a
//    resident document either sends two one-loop edits, each as analyze
//    then lint of the new text, or repeats its last analyze and lint
//    lines twice (memo hits). An edit that finds the document at the
//    server's version cap (MaxProgramsPerDocument) is rebuilt cold by
//    the server; those are a class of their own.
//  * the heavy client of serve-deadline sends lint requests of one
//    256-511 statement loop with budget.deadline_ms far below their cold
//    cost, each under a new file name so no memo answers it.
//
// The client keeps its own model of the tenant's LRU and of each
// document's retained versions, so which requests are opens, warm edits,
// cap-forced rebuilds and memo hits depends only on the seed, and every
// answer is checked against that prediction.
//
// The mix constants (HotDocs and HotVisitPercent, EditVisitPercent,
// EditsPerVisit, HeavyReplayEvery) are assumptions, not measurements:
// the repository records no editor traffic. README.md gives the reason
// for each; the report line gives the share of every class as run.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Corpus.h"
#include "Layers.h"
#include "Replay.h"

#include "lint/LintEngine.h"
#include "lint/Render.h"
#include "serve/Server.h"

#include <array>
#include <condition_variable>
#include <deque>
#include <iostream>
#include <list>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

using namespace ardf;
using namespace ardfbench;
using telem::Counter;

namespace {

/// budget.deadline_ms of every heavy request.
constexpr unsigned HeavyDeadlineMs = 20;

/// Requests of each client in one counting round (after its warm-up).
constexpr unsigned CountingRequests = 40;

/// Share of visits that go to the HotDocs hot documents.
constexpr unsigned HotVisitPercent = 80;
/// Share of visits to a resident document that edit it; the rest repeat
/// its last lines (memo hits).
constexpr unsigned EditVisitPercent = 75;
/// One-loop edits sent per editing visit.
constexpr unsigned EditsPerVisit = 2;
/// In the replay phase of serve-deadline, one operation in this many is
/// a heavy request.
constexpr unsigned HeavyReplayEvery = 8;

enum class Kind : uint8_t {
  OpenAnalyze,
  OpenLint,
  EditAnalyze,
  EditLint,
  Memo,
  Heavy
};

/// How the server should answer an analyze: an open and a cap-forced
/// rebuild are cold, any other edit is a warm rerun.
enum class Expect : uint8_t { Cold, Warm };

struct Outgoing {
  std::string Line;
  Kind K = Kind::Memo;
  /// fnv1a of file name and source text (lint verification key).
  uint64_t TextKey = 0;
  /// Loops in the source (analyze checks).
  unsigned Loops = 0;
  /// Memo: digest of the original response.
  uint64_t MemoDigest = 0;
  /// Analyze: the answer the client's model predicts.
  Expect Analyze = Expect::Cold;
  /// Bytes of the program text.
  uint64_t SourceBytes = 0;
  /// Interactive: document slot; heavy: stratum of the text.
  unsigned Doc = 0;
};

std::string requestLine(uint64_t Id, const char *Method,
                        const std::string &Tenant, const std::string &File,
                        const std::string &Source, unsigned DeadlineMs = 0) {
  std::string L = "{\"id\":" + std::to_string(Id) + ",\"method\":\"" + Method +
                  "\",\"tenant\":" + jsonQuote(Tenant) +
                  ",\"file\":" + jsonQuote(File) +
                  ",\"source\":" + jsonQuote(Source);
  if (DeadlineMs)
    L += ",\"budget\":{\"deadline_ms\":" + std::to_string(DeadlineMs) + "}";
  return L + "}";
}

/// Anything that produces a stream of requests.
class Client {
public:
  virtual ~Client() = default;
  virtual Outgoing next() = 0;
  /// Called with every response, in order.
  virtual void answered(const Outgoing &, const std::string &) {}
  /// The source text of a lint verification key.
  std::map<uint64_t, std::pair<std::string, std::string>> Texts;
};

class InteractiveClient final : public Client {
public:
  InteractiveClient(uint64_t Seed, unsigned Index,
                    const serve::ServeOptions &SO)
      : R(mixSeed(Seed, 100 + Index)), Tenant("t" + std::to_string(Index)),
        Quota(SO.TenantQuota), VersionCap(SO.MaxProgramsPerDocument) {
    for (unsigned D = 0; D != ServeDocs; ++D)
      Docs.push_back(serveDocument(R, D));
    LastAnalyze.resize(ServeDocs);
    LastLint.resize(ServeDocs);
    Versions.resize(ServeDocs);
  }

  /// Queues an open of document \p D: analyze, then lint.
  void open(unsigned D) {
    send(D, Kind::OpenAnalyze);
    send(D, Kind::OpenLint);
  }

  Outgoing next() override {
    if (Queue.empty())
      visit();
    Outgoing O = std::move(Queue.front());
    Queue.pop_front();
    return O;
  }

  void answered(const Outgoing &O, const std::string &Resp) override {
    uint64_t H = fnv1a(Resp);
    if (O.K == Kind::OpenAnalyze || O.K == Kind::EditAnalyze)
      LastAnalyze[O.Doc].second = H;
    else if (O.K == Kind::OpenLint || O.K == Kind::EditLint)
      LastLint[O.Doc].second = H;
  }

private:
  Rng R;
  std::string Tenant;
  unsigned Quota;
  unsigned VersionCap;
  std::vector<SynthProgram> Docs;
  /// Program versions the server retains per resident document.
  std::vector<unsigned> Versions;
  /// Last analyze / lint line per document and its response digest.
  std::vector<std::pair<std::string, uint64_t>> LastAnalyze, LastLint;
  std::list<unsigned> Lru;
  std::deque<Outgoing> Queue;
  uint64_t NextId = 1;

  static std::string file(unsigned D) { return "d" + std::to_string(D) + ".arf"; }

  bool resident(unsigned D) const {
    for (unsigned X : Lru)
      if (X == D)
        return true;
    return false;
  }

  /// Mirrors ServeCache::lookup for this client's tenant.
  void touch(unsigned D) {
    Lru.remove(D);
    Lru.push_front(D);
    while (Lru.size() > Quota)
      Lru.pop_back();
  }

  void send(unsigned D, Kind K) {
    bool Lint = K == Kind::OpenLint || K == Kind::EditLint;
    Outgoing O;
    O.K = K;
    O.Doc = D;
    std::string Text = Docs[D].text();
    O.SourceBytes = Text.size();
    O.Loops = static_cast<unsigned>(Docs[D].Loops.size());
    O.Line = requestLine(NextId++, Lint ? "lint" : "analyze", Tenant, file(D),
                         Text);
    if (Lint) {
      O.TextKey = fnv1a(file(D) + "\n" + Text);
      Texts.emplace(O.TextKey, std::make_pair(file(D), std::move(Text)));
      LastLint[D].first = O.Line;
    } else {
      LastAnalyze[D].first = O.Line;
      // Mirrors the server's version cap: an edit of a document already
      // holding VersionCap versions rebuilds it cold.
      bool Cold = K == Kind::OpenAnalyze || Versions[D] >= VersionCap;
      O.Analyze = Cold ? Expect::Cold : Expect::Warm;
      Versions[D] = Cold ? 1 : Versions[D] + 1;
    }
    touch(D);
    Queue.push_back(std::move(O));
  }

  void visit() {
    unsigned D = R.chance(HotVisitPercent)
                     ? static_cast<unsigned>(R.range(0, HotDocs - 1))
                     : static_cast<unsigned>(R.range(HotDocs, ServeDocs - 1));
    if (!resident(D))
      return open(D);
    if (R.chance(EditVisitPercent)) {
      for (unsigned E = 0; E != EditsPerVisit; ++E) {
        editOneLoop(Docs[D], R);
        send(D, Kind::EditAnalyze);
        send(D, Kind::EditLint);
      }
      return;
    }
    for (int Rep = 0; Rep != 2; ++Rep)
      for (const auto *Last : {&LastAnalyze[D], &LastLint[D]}) {
        Outgoing O;
        O.K = Kind::Memo;
        O.Doc = D;
        O.Line = Last->first;
        O.MemoDigest = Last->second;
        touch(D);
        Queue.push_back(std::move(O));
      }
  }
};

class HeavyClient final : public Client {
public:
  explicit HeavyClient(uint64_t Seed) : R(mixSeed(Seed, 200)) {
    for (unsigned S = 0; S != HeavyStrata; ++S)
      Sources.push_back(heavyProgram(R, S).text());
  }

  Outgoing next() override {
    if (Order.empty()) {
      // Every round of HeavyStrata requests covers each stratum once.
      std::vector<unsigned> Round;
      for (unsigned S = 0; S != HeavyStrata; ++S)
        Round.push_back(S);
      for (size_t I = Round.size(); I > 1; --I)
        std::swap(Round[I - 1], Round[static_cast<size_t>(R.range(0, I - 1))]);
      Order.assign(Round.begin(), Round.end());
    }
    Outgoing O;
    O.K = Kind::Heavy;
    O.Doc = Order.front();
    Order.pop_front();
    O.SourceBytes = Sources[O.Doc].size();
    O.Line = requestLine(NextId, "lint", "heavy",
                         "h" + std::to_string(NextId) + ".arf",
                         Sources[O.Doc], HeavyDeadlineMs);
    ++NextId;
    return O;
  }

  std::vector<std::string> Sources;

private:
  Rng R;
  std::deque<unsigned> Order;
  uint64_t NextId = 1;
};

/// Submits \p Line and blocks for its response; \p Ns is the
/// client-observed latency.
std::string roundTrip(serve::AnalysisServer &S, const std::string &Line,
                      uint64_t &Ns) {
  std::mutex M;
  std::condition_variable CV;
  bool Done = false;
  std::string Resp;
  uint64_t T0 = nowNs();
  S.submit(Line, [&](std::string R) {
    std::lock_guard<std::mutex> L(M);
    Resp = std::move(R);
    Done = true;
    CV.notify_one();
  });
  std::unique_lock<std::mutex> L(M);
  CV.wait(L, [&] { return Done; });
  Ns = nowNs() - T0;
  return Resp;
}

/// What one client observed: latencies per class and what still needs
/// checking once the timed phase is over.
struct Observed {
  /// ColdAnalyze: opens; EditAnalyze: warm reruns; RebuildAnalyze: edits
  /// the version cap rebuilt cold. Edit and RebuildEdit: an edit's
  /// analyze plus its lint, warm or rebuilt.
  LatencyClass ColdAnalyze, EditAnalyze, RebuildAnalyze, EditLint, OpenLint,
      Memo, Edit, RebuildEdit, Heavy;
  uint64_t Requests = 0;
  uint64_t ClientNs = 0;
  /// (lint verification key, digest of the response's render).
  std::vector<std::pair<uint64_t, uint64_t>> Lints;
  /// (stratum, file, render) of heavy responses.
  std::vector<std::tuple<unsigned, std::string, std::string>> Heavies;
  uint64_t ChecksDegraded = 0;
  uint64_t Reused = 0, Reanalyzed = 0;
  uint64_t ParseBytes = 0, RenderBytes = 0, RequestBytes = 0,
           ResponseBytes = 0;
  uint64_t PendingEditNs = 0;
  bool PendingRebuild = false;
  RunResult Ops;

  /// Every latency class of \p S with its report name.
  template <typename Self> static auto classesOf(Self &S) {
    return std::array{std::pair{"cold_analyze", &S.ColdAnalyze},
                      std::pair{"edit_analyze", &S.EditAnalyze},
                      std::pair{"rebuild_analyze", &S.RebuildAnalyze},
                      std::pair{"edit_lint", &S.EditLint},
                      std::pair{"open_lint", &S.OpenLint},
                      std::pair{"memo", &S.Memo}, std::pair{"edit", &S.Edit},
                      std::pair{"rebuild_edit", &S.RebuildEdit},
                      std::pair{"heavy", &S.Heavy}};
  }

  void merge(const Observed &O) {
    auto Mine = classesOf(*this);
    auto Theirs = classesOf(O);
    for (size_t I = 0; I != Mine.size(); ++I)
      Mine[I].second->Ms.insert(Mine[I].second->Ms.end(),
                                Theirs[I].second->Ms.begin(),
                                Theirs[I].second->Ms.end());
    Requests += O.Requests;
    ClientNs += O.ClientNs;
    Lints.insert(Lints.end(), O.Lints.begin(), O.Lints.end());
    Heavies.insert(Heavies.end(), O.Heavies.begin(), O.Heavies.end());
    ChecksDegraded += O.ChecksDegraded;
    Reused += O.Reused;
    Reanalyzed += O.Reanalyzed;
    ParseBytes += O.ParseBytes;
    RenderBytes += O.RenderBytes;
    RequestBytes += O.RequestBytes;
    ResponseBytes += O.ResponseBytes;
    Ops.Attempted += O.Ops.Attempted;
    Ops.Failed += O.Ops.Failed;
    Ops.FailureNotes.insert(Ops.FailureNotes.end(), O.Ops.FailureNotes.begin(),
                            O.Ops.FailureNotes.end());
  }

  /// Checks one response and files its latency. Returns the parsed
  /// "result" member through \p Result and how the server served it.
  ServedAs record(const Outgoing &O, const std::string &Resp, uint64_t Ns,
                  JsonValue *Result = nullptr) {
    ++Requests;
    ClientNs += Ns;
    RequestBytes += O.Line.size();
    ResponseBytes += Resp.size();
    ServedAs How;
    How.Memo = O.K == Kind::Memo;
    if (How.Memo) {
      Memo.add(Ns);
      Ops.op(fnv1a(Resp) == O.MemoDigest,
             "memo response differs from the original");
      return How;
    }
    JsonValue V;
    if (!parseJson(Resp, V) || !V["ok"].B) {
      Ops.op(false, "request failed: " + Resp.substr(0, 200));
      return How;
    }
    const JsonValue &Res = V["result"];
    if (Result)
      *Result = Res;
    bool Ok = true;
    std::string Why;
    switch (O.K) {
    case Kind::OpenAnalyze:
    case Kind::EditAnalyze: {
      ParseBytes += O.SourceBytes;
      int64_t Loops = O.Loops;
      bool Warm = Res["warm"].B;
      How.Cold = !Warm;
      int64_t Reu = Res["reused"].asInt(), Rea = Res["reanalyzed"].asInt();
      Reused += static_cast<uint64_t>(Reu);
      Reanalyzed += static_cast<uint64_t>(Rea);
      Ok = Res["loops"].asInt() == Loops && Res["ok"].asInt() == Loops &&
           Res["failed"].asInt() == 0 && Res["degraded"].asInt() == 0;
      // A warm answer re-solved exactly the edited loop; opens and
      // cap-forced rebuilds are cold.
      Ok &= Warm == (O.Analyze == Expect::Warm);
      if (Warm)
        Ok &= Rea == 1 && Reu == Loops - 1;
      else
        Ok &= Reu == 0 && Rea == 0;
      Why = "analyze result does not match the document";
      if (O.K == Kind::OpenAnalyze) {
        ColdAnalyze.add(Ns);
        break;
      }
      (Warm ? EditAnalyze : RebuildAnalyze).add(Ns);
      PendingEditNs = Ns;
      PendingRebuild = !Warm;
      break;
    }
    case Kind::OpenLint:
    case Kind::EditLint:
      ParseBytes += O.SourceBytes;
      RenderBytes += Res["render"].Str.size();
      Ok = Res["divergences"].asInt() == 0 && Res["degraded"].asInt() == 0;
      Why = "lint reported divergence or degradation";
      Lints.push_back({O.TextKey, fnv1a(Res["render"].Str)});
      (O.K == Kind::OpenLint ? OpenLint : EditLint).add(Ns);
      if (O.K == Kind::EditLint) {
        (PendingRebuild ? RebuildEdit : Edit).add(PendingEditNs + Ns);
        PendingEditNs = 0;
        PendingRebuild = false;
      }
      break;
    case Kind::Heavy:
      ParseBytes += O.SourceBytes;
      RenderBytes += Res["render"].Str.size();
      ChecksDegraded += static_cast<uint64_t>(Res["degraded"].asInt());
      Ok = Res["divergences"].asInt() == 0;
      Why = "heavy lint reported divergence";
      Heavies.emplace_back(O.Doc,
                           "h" + std::to_string(V["id"].asInt()) + ".arf",
                           Res["render"].Str);
      Heavy.add(Ns);
      break;
    case Kind::Memo:
      break;
    }
    Ops.op(Ok, Why);
    return How;
  }
};

/// serve-edit: two editor clients; serve-deadline: one editor client and
/// the heavy client. Two workers either way.
struct ServeConfig {
  unsigned Interactive = 2;
  bool HeavyClient = false;
  unsigned Workers = 2;
};

/// One complete benchmark set-up: clients and a warmed-up server.
struct ServeRig {
  std::vector<std::unique_ptr<Client>> Clients;
  std::unique_ptr<serve::AnalysisServer> Server;

  ServeRig(const ServeConfig &C, uint64_t Seed) {
    serve::ServeOptions SO;
    SO.Workers = C.Workers;
    Server = std::make_unique<serve::AnalysisServer>(SO);
    for (unsigned I = 0; I != C.Interactive; ++I)
      Clients.push_back(std::make_unique<InteractiveClient>(
          Seed, I, Server->options()));
    if (C.HeavyClient)
      Clients.push_back(std::make_unique<HeavyClient>(Seed));
  }

  /// Opens every interactive client's hot documents, clients in
  /// parallel; returns what each client observed.
  std::vector<Observed> warmUp() {
    std::vector<Observed> Warmup(Clients.size());
    std::vector<std::thread> Threads;
    for (size_t I = 0; I != Clients.size(); ++I) {
      auto *IC = dynamic_cast<InteractiveClient *>(Clients[I].get());
      if (!IC)
        continue;
      Threads.emplace_back([this, IC, &Warmup, I] {
        for (unsigned D = 0; D != HotDocs; ++D)
          IC->open(D);
        for (unsigned N = 0; N != 2 * HotDocs; ++N)
          exchange(*IC, Warmup[I]);
      });
    }
    for (std::thread &T : Threads)
      T.join();
    return Warmup;
  }

  ServedAs exchange(Client &C, Observed &Obs, uint64_t *Ns = nullptr,
                    JsonValue *Result = nullptr,
                    std::string *Line = nullptr) {
    Outgoing O = C.next();
    uint64_t T = 0;
    std::string Resp = roundTrip(*Server, O.Line, T);
    ServedAs How = Obs.record(O, Resp, T, Result);
    C.answered(O, Resp);
    if (Ns)
      *Ns = T;
    if (Line)
      *Line = std::move(O.Line);
    return How;
  }

  /// Every client as a closed loop on its own thread for \p Seconds.
  std::vector<Observed> runConcurrent(double Seconds) {
    std::vector<Observed> Obs(Clients.size());
    uint64_t End = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
    std::vector<std::thread> Threads;
    for (size_t I = 0; I != Clients.size(); ++I)
      Threads.emplace_back([this, &Obs, I, End] {
        while (nowNs() < End)
          exchange(*Clients[I], Obs[I]);
      });
    for (std::thread &T : Threads)
      T.join();
    return Obs;
  }
};

/// Lints every distinct text once and compares every recorded lint
/// response; checks heavy responses against the full lint of their text.
void verifyAfterwards(const ServeRig &Rig, const std::vector<Observed> &Obs,
                      RunResult &R) {
  std::map<uint64_t, const std::pair<std::string, std::string> *> Texts;
  for (const auto &C : Rig.Clients)
    for (const auto &[Key, FT] : C->Texts)
      Texts[Key] = &FT;
  std::set<uint64_t> Needed;
  for (const Observed &O : Obs)
    for (const auto &[Key, Digest] : O.Lints)
      Needed.insert(Key);
  std::vector<uint64_t> Keys(Needed.begin(), Needed.end());
  std::vector<uint64_t> Expected(Keys.size());
  parallelFor(Keys.size(), 4, [&](size_t I) {
    const auto &[File, Text] = *Texts.at(Keys[I]);
    std::ostringstream OS;
    renderJsonLines(OS, lintSource(Text, File).Diags);
    Expected[I] = fnv1a(OS.str());
  });
  std::map<uint64_t, uint64_t> ExpectedOf;
  for (size_t I = 0; I != Keys.size(); ++I)
    ExpectedOf[Keys[I]] = Expected[I];
  for (const Observed &O : Obs)
    for (const auto &[Key, Digest] : O.Lints)
      if (Digest != ExpectedOf[Key])
        R.fail("lint response differs from lintSource + renderJsonLines "
               "on the same text");

  // Heavy answers may degrade by timing; every finding they do report
  // must be one the unbudgeted lint reports too.
  const HeavyClient *HC = nullptr;
  for (const auto &C : Rig.Clients)
    if (auto *H = dynamic_cast<const HeavyClient *>(C.get()))
      HC = H;
  if (!HC)
    return;
  // Two threads: a cold lint of a 500-statement loop peaks near 300 MiB.
  std::vector<std::set<std::string>> Full(HeavyStrata);
  parallelFor(HeavyStrata, 2, [&](size_t S) {
    std::ostringstream OS;
    renderJsonLines(OS, lintSource(HC->Sources[S], "heavy.arf").Diags);
    std::istringstream IS(OS.str());
    for (std::string Line; std::getline(IS, Line);)
      Full[S].insert(Line);
  });
  for (const Observed &O : Obs)
    for (const auto &[Stratum, File, Render] : O.Heavies) {
      std::istringstream IS(Render);
      for (std::string Line; std::getline(IS, Line);) {
        if (Line.rfind("{\"check\":\"analysis-degraded\"", 0) == 0)
          continue;
        std::string Tag = "\"file\":\"" + File + "\"";
        size_t At = Line.find(Tag);
        if (At != std::string::npos)
          Line.replace(At, Tag.size(), "\"file\":\"heavy.arf\"");
        if (!Full[Stratum].count(Line)) {
          R.fail("heavy lint reported a finding the full lint lacks");
          break;
        }
      }
    }
}

/// The share of the timed phase's requests in each class: opens (analyze
/// and lint), warm edits, cap-forced rebuilt edits (analyze and lint),
/// memo repeats and heavy lints. Requests answered with an error are in
/// no class.
void reportShares(RunResult &R, const Observed &All) {
  double N = static_cast<double>(All.Requests ? All.Requests : 1);
  auto Share = [&](const char *Name, size_t Count) {
    R.report(std::string("share.") + Name, static_cast<double>(Count) / N,
             "ratio");
  };
  Share("open", All.ColdAnalyze.Ms.size() + All.OpenLint.Ms.size());
  Share("warm_edit", All.EditAnalyze.Ms.size() + All.Edit.Ms.size());
  Share("rebuild_edit",
        All.RebuildAnalyze.Ms.size() + All.RebuildEdit.Ms.size());
  Share("memo", All.Memo.Ms.size());
  Share("heavy", All.Heavy.Ms.size());
}

void addOps(RunResult &R, const Observed &O) {
  R.Attempted += O.Ops.Attempted;
  R.Failed += O.Ops.Failed;
  for (const std::string &N : O.Ops.FailureNotes)
    if (R.FailureNotes.size() < 8)
      R.FailureNotes.push_back(N);
}

/// Server-side metrics of a concurrent phase: worker time from the
/// serve.request_ns histogram, queue wait as the client-observed
/// remainder.
void reportServerTimes(RunResult &R, const serve::AnalysisServer &S,
                       const telem::HistogramSnapshot &Before,
                       const Observed &All) {
  telem::HistogramSnapshot H =
      S.telemetry().histogram(telem::Histo::ServeRequestNs).snapshot();
  uint64_t Count = H.Count - Before.Count;
  double WorkerMs =
      Count ? nsToMs(H.SumNs - Before.SumNs) / static_cast<double>(Count) : 0;
  double ClientMs = All.Requests ? nsToMs(All.ClientNs) /
                                       static_cast<double>(All.Requests)
                                 : 0;
  R.report("serve.worker.ms", WorkerMs, "ms");
  R.report("serve.queue_wait.ms", ClientMs - WorkerMs, "ms");
}

} // namespace

int ardfbench::runServe(const BenchOptions &O, RunResult &R) {
  ServeConfig Cfg;
  if (O.Workload == "serve-deadline") {
    Cfg.Interactive = 1;
    Cfg.HeavyClient = true;
  }

  if (!O.Trace) {
    // Every repetition generates the same inputs, so the last rig's
    // texts verify every repetition's warm-up answers.
    std::unique_ptr<ServeRig> Rig;
    std::vector<Observed> Warm;
    // Tearing the previous repetition's server down is not set-up.
    auto Reset = [&] { Rig.reset(); };
    double SetupS = medianSetupSeconds(ServeSetupReps, Reset, [&] {
      Rig = std::make_unique<ServeRig>(Cfg, O.Seed);
      for (Observed &W : Rig->warmUp())
        Warm.push_back(std::move(W));
    });
    telem::HistogramSnapshot H0 = Rig->Server->telemetry()
                                      .histogram(telem::Histo::ServeRequestNs)
                                      .snapshot();
    uint64_t Cpu0 = processCpuNs(), T0 = nowNs();
    std::vector<Observed> Obs = Rig->runConcurrent(O.Seconds);
    double Elapsed = static_cast<double>(nowNs() - T0) / 1e9;
    double CpuMs = nsToMs(processCpuNs() - Cpu0);
    Observed All;
    for (const Observed &X : Obs)
      All.merge(X);
    double PeakMb = peakRssMb();
    for (const Observed &W : Warm)
      addOps(R, W);
    addOps(R, All);
    Obs.insert(Obs.end(), Warm.begin(), Warm.end());
    verifyAfterwards(*Rig, Obs, R);

    const LatencyClass &Head = Cfg.HeavyClient ? All.Heavy : All.Edit;
    double Ops = static_cast<double>(All.Requests);
    R.add("setup_s", SetupS, "s");
    R.add("ops_per_s", Ops / Elapsed, "1/s");
    R.add("p50_ms", Head.p50(), "ms");
    R.add("p90_ms", Head.p90(), "ms");
    R.add("cpu_ms_per_op", CpuMs / Ops, "ms");
    R.add("peak_rss_mb", PeakMb, "MB");

    if (!Cfg.HeavyClient) {
      R.report("cold_analyze_p50_ms", All.ColdAnalyze.p50(), "ms");
      R.report("memo_p50_ms", All.Memo.p50(), "ms");
    }
    R.report("edit_analyze_p50_ms", All.EditAnalyze.p50(), "ms");
    R.report("edit_analyze_p90_ms", All.EditAnalyze.p90(), "ms");
    R.report("edit_lint_p50_ms", All.EditLint.p50(), "ms");
    R.report("edit_lint_p90_ms", All.EditLint.p90(), "ms");
    R.report("open_lint_p50_ms", All.OpenLint.p50(), "ms");
    R.report("edit_p50_ms", All.Edit.p50(), "ms");
    R.report("edit_p90_ms", All.Edit.p90(), "ms");
    if (Cfg.HeavyClient) {
      R.report("deadline_p50_ms", All.Heavy.p50(), "ms");
      R.report("deadline_p90_ms", All.Heavy.p90(), "ms");
      R.report("requested_deadline_ms", HeavyDeadlineMs, "ms");
    }
    R.report("rebuild_analyze_p50_ms", All.RebuildAnalyze.p50(), "ms");
    R.report("rebuild_edit_p50_ms", All.RebuildEdit.p50(), "ms");
    reportServerTimes(R, *Rig->Server, H0, All);
    reportShares(R, All);
    for (auto [Name, C] : Observed::classesOf(All))
      if (!C->Ms.empty())
        R.Samples.push_back({Name, C->Ms.size()});
    return 0;
  }

  // Traced run, part 1: counting rounds. Each interactive client's
  // warm-up plus CountingRequests requests, one request at a time on a
  // fresh server; the library and server counters must repeat exactly.
  // Heavy requests degrade by timing and stay out of the counts.
  LayerInputs L;
  std::vector<CounterSet> Rounds;
  for (int Round = 0; Round != 2; ++Round) {
    ServeConfig Seq = Cfg;
    Seq.HeavyClient = false;
    ServeRig Rig(Seq, O.Seed);
    Observed Obs;
    for (auto &C : Rig.Clients) {
      auto &IC = static_cast<InteractiveClient &>(*C);
      for (unsigned D = 0; D != HotDocs; ++D)
        IC.open(D);
      for (unsigned N = 0; N != 2 * HotDocs + CountingRequests; ++N)
        Rig.exchange(IC, Obs);
    }
    addOps(R, Obs);
    verifyAfterwards(Rig, {Obs}, R);
    LayerInputs Mine;
    Mine.Counts = CounterSet::of(Rig.Server->telemetry());
    Mine.ParseBytes = Obs.ParseBytes;
    Mine.RenderBytes = Obs.RenderBytes;
    Mine.RequestBytes = Obs.RequestBytes;
    Mine.ResponseBytes = Obs.ResponseBytes;
    Mine.Reused = Obs.Reused;
    Mine.Reanalyzed = Obs.Reanalyzed;
    Rounds.push_back(Mine.Counts);
    R.check(Round == 0 || (Mine.ResponseBytes == L.ResponseBytes &&
                           Mine.Reused == L.Reused &&
                           Mine.Reanalyzed == L.Reanalyzed),
            "counting round responses did not repeat");
    L = Mine;
  }
  std::string Diff = Rounds[0].differences(Rounds[1]);
  R.check(Diff.empty(), "server counters did not repeat exactly: " + Diff);

  // Part 2: the concurrent workload for half the time, for what only
  // contention shows: queue wait, shedding, watchdog kills, budgets.
  {
    ServeRig Rig(Cfg, O.Seed);
    std::vector<Observed> Warm = Rig.warmUp();
    for (const Observed &W : Warm)
      addOps(R, W);
    CounterSet C0 = CounterSet::of(Rig.Server->telemetry());
    telem::HistogramSnapshot H0 = Rig.Server->telemetry()
                                      .histogram(telem::Histo::ServeRequestNs)
                                      .snapshot();
    std::vector<Observed> Obs = Rig.runConcurrent(O.Seconds / 2);
    Observed All;
    for (const Observed &X : Obs)
      All.merge(X);
    addOps(R, All);
    Obs.insert(Obs.end(), Warm.begin(), Warm.end());
    verifyAfterwards(Rig, Obs, R);
    CounterSet D = CounterSet::of(Rig.Server->telemetry()) - C0;
    L.Overloads = D[Counter::ServeOverloads];
    L.WatchdogKills = D[Counter::ServeWatchdogKills];
    L.BudgetBreaches = D[Counter::BudgetBreaches];
    L.DegradedSolves = D[Counter::DegradedSolves];
    L.ChecksDegraded = All.ChecksDegraded;
    reportServerTimes(R, *Rig.Server, H0, All);
    if (Cfg.HeavyClient) {
      std::vector<double> Over;
      for (double Ms : All.Heavy.Ms)
        Over.push_back(Ms - HeavyDeadlineMs);
      R.report("serve.deadline.overrun_ms", median(Over), "ms");
    }
  }

  // Part 3: the same streams one request at a time: the real request,
  // then its traced and untraced replays.
  ServeRig Rig(Cfg, O.Seed);
  for (auto &C : Rig.Clients)
    if (auto *IC = dynamic_cast<InteractiveClient *>(C.get()))
      for (unsigned D = 0; D != HotDocs; ++D)
        IC->open(D);
  uint64_t ServerDeadline = Rig.Server->options().RequestDeadlineMs;
  ServeReplay ReplayA(ServerDeadline), ReplayB(ServerDeadline);
  Tracer Traced(true), Untraced(false);
  Observed Obs;
  uint64_t End = nowNs() + static_cast<uint64_t>(O.Seconds / 2 * 1e9);
  // Heavy requests are one in HeavyReplayEvery, so the interactive
  // stream still dominates the replayed operations.
  for (uint32_t I = 0; nowNs() < End; ++I) {
    size_t Which = I % Rig.Clients.size();
    if (Cfg.HeavyClient)
      Which = I % HeavyReplayEvery == HeavyReplayEvery - 1 ? 1 : 0;
    Client &C = *Rig.Clients[Which];
    uint64_t RealNs = 0;
    JsonValue Result;
    std::string Line;
    ServedAs How = Rig.exchange(C, Obs, &RealNs, &Result, &Line);
    uint64_t ReplayNs[2];
    Tracer *Tr[2] = {&Traced, &Untraced};
    ServeReplay *Rp[2] = {&ReplayA, &ReplayB};
    for (int K = 0; K != 2; ++K) {
      uint64_t T0 = nowNs();
      Tr[K]->beginOp(I);
      std::string Why;
      bool Same = Rp[K]->replay(*Tr[K], Line, How, Result, Why);
      Tr[K]->endOp();
      ReplayNs[K] = nowNs() - T0;
      R.check(Same, Why);
    }
    L.RealOpNs += RealNs;
    L.TracedNs += ReplayNs[0];
    L.UntracedNs += ReplayNs[1];
  }
  addOps(R, Obs);
  verifyAfterwards(Rig, {Obs}, R);
  L.LayerNs = Traced.layerNs();
  L.TracedOps = Traced.opsTraced();
  addLayerMetrics(R, L);
  double Ops = static_cast<double>(L.TracedOps ? L.TracedOps : 1);
  for (const char *Layer :
       {"serve.protocol.parse", "driver.run", "driver.rerun"}) {
    auto It = L.LayerNs.find(Layer);
    R.report(std::string(Layer) + ".ms",
             It == L.LayerNs.end() ? 0 : nsToMs(It->second) / Ops, "ms");
  }
  writeSpans(O, Traced);
  return 0;
}
