//===- tests/lint/LintExplainGoldenTest.cpp - --explain golden tests -----===//
//
// Lints fig4 and nested with remarks enabled and diffs both renderings
// against checked-in goldens: the text because-trail and the SARIF with
// codeFlows/threadFlows. Like the plain golden test, each program is
// linted under BOTH solver engines (the explain pass re-solves through
// the reference engine and cross-checks against the configured one, so
// the evidence must be engine-independent too).
//
// To regenerate after an intentional change:
//   cd examples/programs && for f in fig4 nested; do
//     ../../build/tools/ardf lint --quiet --explain $f.arf >
//       ../../tests/lint/golden/explain/$f.expected
//     ../../build/tools/ardf lint --format=sarif --explain $f.arf >
//       ../../tests/lint/golden/explain/$f.sarif
//   done
//
//===----------------------------------------------------------------------===//

#include "lint/LintEngine.h"
#include "lint/Render.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace ardf;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

class LintExplainGoldenTest : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(LintExplainGoldenTest, TextTrailMatchesExpectedUnderBothEngines) {
  std::string Name = GetParam();
  std::string File = Name + ".arf";
  std::string Src = readFile(std::string(ARDF_EXAMPLES_DIR) + "/" + File);
  std::string Expected = readFile(std::string(ARDF_LINT_GOLDEN_DIR) +
                                  "/explain/" + Name + ".expected");

  SourceMap Sources;
  Sources.add(File, Src);
  for (SolverOptions::Engine Eng : {SolverOptions::Engine::Reference,
                                    SolverOptions::Engine::PackedKernel}) {
    LintOptions Opts;
    Opts.Engine = Eng;
    Opts.Explain = true;
    Opts.CrossCheck = true;
    LintResult R = lintSource(Src, File, Opts);
    EXPECT_EQ(R.EngineDivergences, 0u);
    EXPECT_FALSE(R.hasErrors());
    std::ostringstream OS;
    renderText(OS, R.Diags, Sources);
    EXPECT_EQ(OS.str(), Expected)
        << File << " with engine "
        << (Eng == SolverOptions::Engine::Reference ? "reference" : "packed");
  }
}

TEST_P(LintExplainGoldenTest, SarifWithCodeFlowsMatchesExpected) {
  std::string Name = GetParam();
  std::string File = Name + ".arf";
  std::string Src = readFile(std::string(ARDF_EXAMPLES_DIR) + "/" + File);
  std::string Expected = readFile(std::string(ARDF_LINT_GOLDEN_DIR) +
                                  "/explain/" + Name + ".sarif");

  LintOptions Opts;
  Opts.Explain = true;
  LintResult R = lintSource(Src, File, Opts);
  std::ostringstream OS;
  renderSarif(OS, R.Diags);
  std::string Got = OS.str();
  EXPECT_EQ(Got, Expected) << File;
  // The structural contract behind the byte diff: evidence flows out as
  // SARIF codeFlows/threadFlows and the derivation DAG rides along.
  EXPECT_NE(Got.find("\"codeFlows\""), std::string::npos);
  EXPECT_NE(Got.find("\"threadFlows\""), std::string::npos);
  EXPECT_NE(Got.find("\"derivation\""), std::string::npos);
}

TEST_P(LintExplainGoldenTest, ExplainFilterKeepsOnlyTheNamedCheck) {
  std::string Name = GetParam();
  std::string File = Name + ".arf";
  std::string Src = readFile(std::string(ARDF_EXAMPLES_DIR) + "/" + File);

  LintOptions Opts;
  Opts.Explain = true;
  Opts.ExplainCheck = "cross-iteration-conflict";
  LintResult R = lintSource(Src, File, Opts);
  for (const Diagnostic &D : R.Diags) {
    if (D.CheckId != "cross-iteration-conflict") {
      EXPECT_FALSE(D.hasEvidence()) << D.CheckId;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Examples, LintExplainGoldenTest,
                         ::testing::Values("fig4", "nested"));
