//===- tests/support/JsonTest.cpp - Bounded JSON layer --------------------===//
//
// The daemon's JSON parser faces untrusted bytes: these tests pin the
// total-parsing contract (never throws, one located error), the
// nesting-depth bomb cap, integer exactness, and the NDJSON-safe
// writer (no raw newline ever escapes into the stream).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace ardf::json;

namespace {

Value parseOk(const std::string &Text) {
  ParseOutcome O = parse(Text);
  EXPECT_TRUE(O.Ok) << Text << " -> " << O.Error;
  return O.V;
}

} // namespace

TEST(JsonTest, ParsesEveryKind) {
  EXPECT_TRUE(parseOk("null").isNull());
  EXPECT_TRUE(parseOk("true").boolValue());
  EXPECT_FALSE(parseOk("false").boolValue());
  EXPECT_EQ(parseOk("42").intValue(), 42);
  EXPECT_EQ(parseOk("-7").intValue(), -7);
  EXPECT_DOUBLE_EQ(parseOk("2.5").doubleValue(), 2.5);
  EXPECT_EQ(parseOk("\"hi\"").stringValue(), "hi");
  EXPECT_EQ(parseOk("[1, 2, 3]").array().size(), 3u);
  Value O = parseOk("{\"a\": 1, \"b\": [true]}");
  ASSERT_TRUE(O.isObject());
  ASSERT_NE(O.find("a"), nullptr);
  EXPECT_EQ(O.find("a")->intValue(), 1);
  EXPECT_EQ(O.find("missing"), nullptr);
}

TEST(JsonTest, IntegersRoundTripExactly) {
  // Budget ceilings and ids must survive untruncated; integral source
  // text stays Kind::Int up to the int64 edges.
  EXPECT_EQ(parseOk("9223372036854775807").intValue(),
            INT64_C(9223372036854775807));
  EXPECT_EQ(parseOk("-9223372036854775808").intValue(), INT64_MIN);
  EXPECT_TRUE(parseOk("1e3").isNumber());
  EXPECT_FALSE(parseOk("1e3").isInt()); // exponent form is a double
  EXPECT_FALSE(parseOk("1.0").isInt());
}

TEST(JsonTest, StringEscapes) {
  EXPECT_EQ(parseOk("\"a\\nb\\t\\\"c\\\\\"").stringValue(), "a\nb\t\"c\\");
  EXPECT_EQ(parseOk("\"\\u0041\"").stringValue(), "A");
}

TEST(JsonTest, MalformedInputsReportLocatedErrors) {
  const char *Bad[] = {"",       "{",          "[1,", "tru",
                       "\"abc",  "{\"a\" 1}",  "1 2", "{1: 2}",
                       "[1, 2,, 3]", "nul",    "\x01", "+5",
                       "{\"a\": }"};
  for (const char *Text : Bad) {
    ParseOutcome O = parse(Text);
    EXPECT_FALSE(O.Ok) << "accepted: " << Text;
    EXPECT_FALSE(O.Error.empty()) << Text;
  }
}

TEST(JsonTest, DepthBombIsRefusedAtTheCap) {
  // "[[[[..." must cost O(cap), not a stack overflow.
  std::string AtCap(DefaultMaxDepth, '[');
  std::string Closers(DefaultMaxDepth, ']');
  EXPECT_TRUE(parse(AtCap + Closers).Ok);
  std::string Bomb(DefaultMaxDepth + 8, '[');
  ParseOutcome O = parse(Bomb + std::string(DefaultMaxDepth + 8, ']'));
  EXPECT_FALSE(O.Ok);
  EXPECT_NE(O.Error.find("depth"), std::string::npos) << O.Error;
  // A custom (smaller) cap binds too.
  EXPECT_FALSE(parse("[[[[]]]]", 2).Ok);
  EXPECT_TRUE(parse("[[[[]]]]", 3).Ok);
}

TEST(JsonTest, WriterIsNdjsonSafe) {
  // One request per line means a raw newline inside a written value
  // would split a response in two. The writer must escape it.
  Object O;
  O["text"] = Value(std::string("line1\nline2\r\ttab"));
  std::string Out = Value(std::move(O)).toString();
  EXPECT_EQ(Out.find('\n'), std::string::npos) << Out;
  EXPECT_EQ(Out.find('\r'), std::string::npos) << Out;
  // And the escaped form parses back to the original bytes.
  Value Back = parseOk(Out);
  EXPECT_EQ(Back.find("text")->stringValue(), "line1\nline2\r\ttab");
}

TEST(JsonTest, WriteParseRoundTrip) {
  const char *Docs[] = {
      "{\"a\":[1,2.5,\"x\"],\"b\":{\"c\":null,\"d\":false}}",
      "[]",
      "{}",
      "[{\"nested\":[[-1]]}]",
  };
  for (const char *Doc : Docs) {
    std::string Rewritten = parseOk(Doc).toString();
    EXPECT_EQ(Rewritten, Doc);
  }
}

TEST(JsonTest, AppendQuotedEscapesControlBytes) {
  std::string Out;
  appendQuoted(Out, std::string("a\x01" "b\"c", 5));
  EXPECT_EQ(Out.front(), '"');
  EXPECT_EQ(Out.back(), '"');
  EXPECT_NE(Out.find("\\u0001"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\\\""), std::string::npos) << Out;
}

TEST(JsonTest, EscapeHandlesSpecials) {
  // One escape table for every JSON writer: quotes, backslashes, the
  // three named controls, and every other byte below 0x20 as \u00xx.
  auto Quote = [](std::string_view S) {
    std::string Out;
    appendQuoted(Out, S);
    return Out;
  };
  EXPECT_EQ(Quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(Quote(std::string(1, '\x01')), "\"\\u0001\"");
  EXPECT_EQ(Quote("\t\r\x1f"), "\"\\t\\r\\u001f\"");
  EXPECT_EQ(Quote("\x7f\xc3\xa9"), "\"\x7f\xc3\xa9\"");
  // The stream form writes the same bytes.
  for (std::string_view S : {"plain", "a\"b\\c\nd", "\x01\x1f\t", ""}) {
    std::ostringstream OS;
    OS << quoted(S);
    EXPECT_EQ(OS.str(), Quote(S));
  }
}
