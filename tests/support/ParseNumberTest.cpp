//===- tests/support/ParseNumberTest.cpp - Strict CLI number parsing -----===//

#include "support/ParseNumber.h"

#include <gtest/gtest.h>

using namespace ardf;

TEST(ParseNumberTest, UnsignedAcceptsOnlyWholeDecimalText) {
  uint64_t V = 7;
  EXPECT_TRUE(parseUnsigned("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseUnsigned("18446744073709551615", V));
  EXPECT_EQ(V, UINT64_MAX);
  for (const char *Bad : {"", "ten", "2s", "1MiB", "4x", "-1", "+1", " 1",
                          "1 ", "0x10", "1.5", "18446744073709551616"}) {
    V = 7;
    EXPECT_FALSE(parseUnsigned(Bad, V)) << '"' << Bad << '"';
    EXPECT_EQ(V, 7u) << "failed parse must leave the value untouched";
  }
  EXPECT_TRUE(parseUnsigned("10", V, 10));
  EXPECT_FALSE(parseUnsigned("11", V, 10));
}

TEST(ParseNumberTest, DecimalRejectsSignsExponentsAndNonFinite) {
  double D = 0;
  EXPECT_TRUE(parseDecimal("1.5", D));
  EXPECT_DOUBLE_EQ(D, 1.5);
  EXPECT_TRUE(parseDecimal("2", D));
  EXPECT_DOUBLE_EQ(D, 2.0);
  for (const char *Bad : {"", "abc", "1.5x", "-1", "+1", "1e3", "inf", "nan",
                          ".5", " 1"})
    EXPECT_FALSE(parseDecimal(Bad, D)) << '"' << Bad << '"';
}

TEST(ParseNumberTest, OptionFormNamesTheOptionAndItsBounds) {
  unsigned Workers = 1;
  std::string Err;
  EXPECT_TRUE(parseUnsignedOption("--workers", "4", Workers, Err, 1));
  EXPECT_EQ(Workers, 4u);
  EXPECT_FALSE(parseUnsignedOption("--workers", "0", Workers, Err, 1));
  EXPECT_EQ(Err, "--workers needs a positive integer");
  // Values past the target type are rejected, not truncated.
  EXPECT_FALSE(
      parseUnsignedOption("--workers", "4294967297", Workers, Err, 1));
  EXPECT_EQ(Workers, 4u);
  uint64_t Bytes = 5;
  EXPECT_FALSE(parseUnsignedOption("--max-input-bytes", "ten", Bytes, Err));
  EXPECT_EQ(Err, "--max-input-bytes needs a non-negative integer");
  EXPECT_EQ(Bytes, 5u);
}
