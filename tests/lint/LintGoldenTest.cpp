//===- tests/lint/LintGoldenTest.cpp - Golden-file lint output tests -----===//
//
// Lints every bundled example program and compares the text rendering
// against a checked-in .expected file. Each program is linted with BOTH
// solver engines, each with the opt-in engine cross-check on; the
// output must be identical (the golden file encodes the
// engine-independent truth) and the cross-check must see zero
// divergences.
//
// To regenerate after an intentional diagnostic change:
//   cd examples/programs && for f in *.arf; do
//     ../../build/tools/ardf lint --quiet $f >
//     ../../tests/lint/golden/${f%.arf}.expected; done
// (same loop with --format=sarif refreshes tests/lint/golden/sarif/.)
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

class LintGoldenTest : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(LintGoldenTest, MatchesExpectedUnderBothEngines) {
  std::string Name = GetParam();
  std::string File = Name + ".arf";
  std::string Src = readFile(std::string(ARDF_EXAMPLES_DIR) + "/" + File);
  std::string Expected =
      readFile(std::string(ARDF_LINT_GOLDEN_DIR) + "/" + Name + ".expected");

  SourceMap Sources;
  Sources.add(File, Src);
  for (SolverOptions::Engine Eng : {SolverOptions::Engine::Reference,
                                    SolverOptions::Engine::PackedKernel}) {
    LintOptions Opts;
    Opts.Engine = Eng;
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

INSTANTIATE_TEST_SUITE_P(Examples, LintGoldenTest,
                         ::testing::Values("fig1", "fig4", "fig5", "nested",
                                           "stencil"));
