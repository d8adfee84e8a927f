//===- support/ParseNumber.cpp - Strict CLI number parsing ---------------===//

#include "support/ParseNumber.h"

#include <charconv>
#include <cmath>

using namespace ardf;

namespace {

/// from_chars skips no whitespace but accepts a leading '-' for
/// floating point; requiring a leading digit rules out signs, "inf" and
/// "nan" for both parsers alike.
bool startsWithDigit(std::string_view Text) {
  return !Text.empty() && Text.front() >= '0' && Text.front() <= '9';
}

} // namespace

bool ardf::parseUnsigned(std::string_view Text, uint64_t &Out,
                         uint64_t Max) {
  if (!startsWithDigit(Text))
    return false;
  uint64_t V = 0;
  auto [End, Ec] = std::from_chars(Text.data(), Text.data() + Text.size(), V);
  if (Ec != std::errc() || End != Text.data() + Text.size() || V > Max)
    return false;
  Out = V;
  return true;
}

bool ardf::parseDecimal(std::string_view Text, double &Out) {
  if (!startsWithDigit(Text))
    return false;
  double V = 0;
  auto [End, Ec] = std::from_chars(Text.data(), Text.data() + Text.size(), V,
                                   std::chars_format::fixed);
  if (Ec != std::errc() || End != Text.data() + Text.size() ||
      !std::isfinite(V))
    return false;
  Out = V;
  return true;
}
