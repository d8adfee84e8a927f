//===- support/ParseNumber.h - Strict CLI number parsing -------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strict parsers for numeric option values. strtoull and atoi read the
/// longest numeric prefix and return 0 for garbage, and several options
/// give 0 the meaning "uncapped" or "no deadline": "--max-input-bytes=ten"
/// would lift the input cap and "--deadline-ms=2s" would set 2 ms. These
/// parsers accept the whole text or nothing, so every subcommand turns a
/// malformed value into a usage error (exit 2).
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_SUPPORT_PARSENUMBER_H
#define ARDF_SUPPORT_PARSENUMBER_H

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace ardf {

/// Parses \p Text as a decimal unsigned integer no larger than \p Max.
/// Rejects empty text, signs, whitespace, any non-digit byte (unit
/// suffixes included) and overflow. On failure \p Out is untouched.
bool parseUnsigned(std::string_view Text, uint64_t &Out,
                   uint64_t Max = std::numeric_limits<uint64_t>::max());

/// Parses \p Text as a non-negative finite decimal ("2", "1.5"). Same
/// rules as parseUnsigned: the text must start with a digit and be
/// consumed whole; exponents, "inf" and "nan" are rejected.
bool parseDecimal(std::string_view Text, double &Out);

/// Option form for the command line: parses \p Value, the value of
/// option \p Name ("--workers"), into \p Out, requiring at least \p Min
/// and at most \p Max (default: whatever \p Out holds). On failure
/// leaves \p Out untouched, sets \p Err to a usage message ("--workers
/// needs a positive integer") and returns false.
template <typename T>
bool parseUnsignedOption(std::string_view Name, std::string_view Value,
                         T &Out, std::string &Err, uint64_t Min = 0,
                         uint64_t Max = std::numeric_limits<T>::max()) {
  uint64_t V = 0;
  if (parseUnsigned(Value, V, Max) && V >= Min) {
    Out = static_cast<T>(V);
    return true;
  }
  Err = std::string(Name) + " needs a " + (Min ? "positive" : "non-negative") +
        " integer";
  return false;
}

} // namespace ardf

#endif // ARDF_SUPPORT_PARSENUMBER_H
