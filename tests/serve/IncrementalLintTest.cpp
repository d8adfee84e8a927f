//===- tests/serve/IncrementalLintTest.cpp - Per-loop daemon lint ---------===//
//
// The daemon's lint re-lints only the loops an edit changed and takes
// every other loop's output from the document's lint cache. After every
// request the served "render" must be byte-equal to lintSource +
// renderJsonLines of the same text under the same options, every count
// of the result must match that LintResult, and "reused"/"relinted" must
// be exactly the loops the edit left alone and the loops it touched.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "lint/LintEngine.h"
#include "lint/Render.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <random>
#include <sstream>

using namespace ardf;
using namespace ardf::serve;

namespace {

/// What one lint or explain request sends besides the source text.
struct LintRequest {
  std::string Method = "lint";
  /// Extra members appended verbatim to the request object.
  std::string Extra;
  /// The same options as the single-shot reference sees them.
  LintOptions Ref;
};

class IncrementalLintTest : public ::testing::Test {
protected:
  /// No server deadline: nothing here may depend on timing.
  static ServeOptions options() {
    ServeOptions O;
    O.RequestDeadlineMs = 0;
    return O;
  }

  AnalysisServer S{options()};
  int NextId = 1;

  json::Value call(const std::string &Line) {
    auto P = std::make_shared<std::promise<std::string>>();
    std::future<std::string> F = P->get_future();
    S.submit(Line, [P](std::string R) { P->set_value(std::move(R)); });
    EXPECT_EQ(F.wait_for(std::chrono::seconds(60)),
              std::future_status::ready);
    json::ParseOutcome O = json::parse(F.get());
    EXPECT_TRUE(O.Ok) << O.Error;
    const json::Value *Ok = O.V.find("ok");
    EXPECT_TRUE(Ok && Ok->boolValue()) << O.V.toString().substr(0, 300);
    const json::Value *R = O.V.find("result");
    return R ? *R : json::Value();
  }

  std::string line(const std::string &Method, const std::string &Source,
                   const std::string &Extra) {
    std::string L = "{\"method\":\"" + Method +
                    "\",\"id\":" + std::to_string(NextId++) +
                    ",\"file\":\"doc.arf\",\"source\":";
    json::appendQuoted(L, Source);
    return L + Extra + "}";
  }

  void analyze(const std::string &Source) {
    json::Value R = call(line("analyze", Source, ""));
    EXPECT_NE(R.find("loops"), nullptr);
  }

  /// Lints \p Source through the daemon and checks the result against
  /// the single-shot pipeline and the predicted reuse.
  void expectLint(const std::string &Source, unsigned Reused,
                  unsigned Relinted, const LintRequest &Req = {}) {
    json::Value R = call(line(Req.Method, Source, Req.Extra));
    LintResult LR = lintSource(Source, "doc.arf", Req.Ref);
    std::ostringstream OS;
    renderJsonLines(OS, LR.Diags);
    auto Int = [&](const char *Key) {
      const json::Value *V = R.find(Key);
      EXPECT_NE(V, nullptr) << Key;
      return V ? V->intValue() : -1;
    };
    const json::Value *Render = R.find("render");
    ASSERT_NE(Render, nullptr);
    EXPECT_EQ(Render->stringValue(), OS.str());
    EXPECT_EQ(Int("diagnostics"), static_cast<int64_t>(LR.Diags.size()));
    EXPECT_EQ(Int("errors"), LR.count(DiagSeverity::Error));
    EXPECT_EQ(Int("warnings"), LR.count(DiagSeverity::Warning));
    EXPECT_EQ(Int("notes"), LR.count(DiagSeverity::Note));
    EXPECT_EQ(Int("loops"), LR.LoopsAnalyzed);
    EXPECT_EQ(Int("degraded"), LR.ChecksDegraded);
    EXPECT_EQ(Int("divergences"), LR.EngineDivergences);
    EXPECT_EQ(Int("exit"), LR.hasErrors() ? 1 : 0);
    EXPECT_EQ(Int("reused"), Reused);
    EXPECT_EQ(Int("relinted"), Relinted);
  }
};

/// A document of flat loops, one statement per line; loop K counts with
/// its own induction variable, so no two loops are ever equal.
struct FlatDoc {
  std::vector<std::vector<std::string>> Loops;

  std::string text(const std::string &Above = "",
                   size_t IndentLoop = SIZE_MAX) const {
    std::string T = Above + "array A[400];\narray B[400];\narray C[400];\n";
    for (size_t K = 0; K != Loops.size(); ++K) {
      std::string Pad = K == IndentLoop ? "    " : "";
      T += Pad + "do i" + std::to_string(K) + " = 1, 100 {\n";
      for (const std::string &St : Loops[K])
        T += Pad + "  " + St + "\n";
      T += Pad + "}\n";
    }
    return T;
  }
};

std::string randomStmt(std::mt19937 &R, size_t Loop) {
  static const char *Arrays[] = {"A", "B", "C"};
  std::string Iv = "i" + std::to_string(Loop);
  auto Ref = [&] {
    unsigned Off = R() % 4;
    return std::string(Arrays[R() % 3]) + "[" + Iv +
           (Off ? " + " + std::to_string(Off) : "") + "]";
  };
  std::string L = Ref(), X = Ref(), Y = Ref();
  return L + " = " + X + (R() % 2 ? " + " + Y : " * 2") + ";";
}

FlatDoc randomDoc(std::mt19937 &R, size_t NumLoops) {
  FlatDoc D;
  for (size_t K = 0; K != NumLoops; ++K) {
    D.Loops.emplace_back();
    for (unsigned I = 0, N = 2 + R() % 4; I != N; ++I)
      D.Loops.back().push_back(randomStmt(R, K));
  }
  return D;
}

} // namespace

TEST_F(IncrementalLintTest, SeededOneStatementEditsRelintOneLoop) {
  std::mt19937 R(20261019);
  FlatDoc D = randomDoc(R, 6);
  expectLint(D.text(), 0, 6);
  for (int Step = 0; Step != 24; ++Step) {
    size_t K = R() % D.Loops.size();
    std::string &St = D.Loops[K][R() % D.Loops[K].size()];
    for (std::string Old = St; St == Old;)
      St = randomStmt(R, K);
    // Half the edits arrive as an editor sends them (analyze, then
    // lint), so the lint runs on the driver's program and nest.
    if (Step % 2)
      analyze(D.text());
    expectLint(D.text(), 5, 1);
  }
}

TEST_F(IncrementalLintTest, LinesInsertedAboveLoopsRebaseThem) {
  std::mt19937 R(7);
  FlatDoc D = randomDoc(R, 4);
  expectLint(D.text(), 0, 4);
  expectLint(D.text("// a comment line\n"), 4, 0);
  expectLint(D.text("// a comment line\n\n\n"), 4, 0);
  // Lines removed again: shifted upwards.
  expectLint(D.text(), 4, 0);
  // A line inside the first loop moves part of it (re-linted) and
  // shifts every later loop (re-based).
  D.Loops[0].insert(D.Loops[0].begin() + 1, "// inside");
  expectLint(D.text(), 3, 1);
}

TEST_F(IncrementalLintTest, ReindentedLoopIsRelinted) {
  std::mt19937 R(11);
  FlatDoc D = randomDoc(R, 4);
  expectLint(D.text(), 0, 4);
  expectLint(D.text("", 2), 3, 1);
  expectLint(D.text("// shifted\n", 2), 4, 0);
}

TEST_F(IncrementalLintTest, EnclosingLevelChangeRelintsNestedLoop) {
  // The inner loop's per-level distance at i reads -1 under 100 outer
  // iterations and 2 under 2: a cache that ignored the enclosing level
  // would serve the stale one.
  auto Text = [](const std::string &Outer, const std::string &Decl) {
    return "array B[" + Decl + "];\n" + Outer +
           " {\n  do j = 1, 8 {\n    B[i + 2 * j + 2] = B[i + 2 * j];\n"
           "    B[i + 2 * j + 1] = 1;\n  }\n}\n"
           "do k = 1, 50 {\n  B[k + 1] = B[k];\n}\n";
  };
  expectLint(Text("do i = 1, 100", "400"), 0, 3);
  // Outer trip count: the unchanged inner loop's level session reads it.
  expectLint(Text("do i = 1, 2", "400"), 1, 2);
  // Same trip count, shifted bounds: normalization substitutes the
  // outer induction variable through the inner loop's analyzed form.
  expectLint(Text("do i = 3, 4", "400"), 1, 2);
  expectLint(Text("do i = 3, 4", "400") + "\n", 3, 0);
  // An array declaration change re-lints every loop.
  expectLint(Text("do i = 3, 4", "420"), 0, 3);
}

TEST_F(IncrementalLintTest, OptionAndBudgetChangesRelintEverything) {
  std::mt19937 R(3);
  FlatDoc D = randomDoc(R, 4);
  expectLint(D.text(), 0, 4);
  LintRequest Cross;
  Cross.Extra = ",\"cross_check\":true";
  Cross.Ref.CrossCheck = true;
  expectLint(D.text(), 0, 4, Cross);
  LintRequest Budget;
  Budget.Extra = ",\"budget\":{\"visits\":100000}";
  Budget.Ref.Budget.MaxNodeVisits = 100000;
  expectLint(D.text(), 0, 4, Budget);
  D.Loops[1][0] = "A[i1 + 3] = A[i1] + B[i1];";
  expectLint(D.text(), 3, 1, Budget);
}

TEST_F(IncrementalLintTest, ExplainBypassesTheCache) {
  std::mt19937 R(5);
  FlatDoc D = randomDoc(R, 4);
  expectLint(D.text(), 0, 4);
  LintRequest Explain;
  Explain.Method = "explain";
  Explain.Ref.Explain = true;
  expectLint(D.text(), 0, 4, Explain);
  // The explain left the lint cache as the last lint made it.
  D.Loops[2][0] = "B[i2 + 1] = B[i2] * 2;";
  expectLint(D.text(), 3, 1);
  expectLint(D.text(), 0, 4, Explain);
}

TEST_F(IncrementalLintTest, DegradedLoopsAreNeverCached) {
  // A visit ceiling of 40 degrades the 30-statement loop's must solves
  // (3N visits) and leaves the three small loops exact.
  FlatDoc D;
  D.Loops.emplace_back();
  for (int I = 0; I != 30; ++I)
    D.Loops[0].push_back("A[i0 + " + std::to_string(I % 4) + "] = B[i0] + " +
                         std::to_string(I) + ";");
  for (size_t K = 1; K != 4; ++K)
    D.Loops.push_back({"C[i" + std::to_string(K) + " + 1] = C[i" +
                       std::to_string(K) + "] + " + std::to_string(K) + ";"});
  LintRequest Tight;
  Tight.Extra = ",\"budget\":{\"visits\":40}";
  Tight.Ref.Budget.MaxNodeVisits = 40;
  expectLint(D.text(), 0, 4, Tight);
  EXPECT_GT(lintSource(D.text(), "doc.arf", Tight.Ref).ChecksDegraded, 0u);
  D.Loops[2][0] = "C[i2 + 2] = C[i2] + 2;";
  expectLint(D.text(), 2, 2, Tight);
  expectLint(D.text("\n"), 3, 1, Tight);
}

TEST_F(IncrementalLintTest, ParseErrorBetweenGoodVersions) {
  std::mt19937 R(9);
  FlatDoc D = randomDoc(R, 4);
  expectLint(D.text(), 0, 4);
  expectLint(D.text() + "do z = 1, {\n", 0, 0);
  D.Loops[3][0] = "A[i3] = A[i3 + 1] + C[i3];";
  expectLint(D.text(), 3, 1);
}
