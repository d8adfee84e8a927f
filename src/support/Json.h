//===- support/Json.h - Bounded JSON parsing and writing --------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The project's one JSON layer: a small value model, a
/// recursive-descent parser, a compact single-line writer, and the one
/// string escape every JSON producer (daemon, lint renders, telemetry
/// exports, derivation DAGs) goes through. The parser is built for
/// untrusted input -- it never throws, reports one located error
/// message, and enforces a nesting-depth cap so a "[[[[..." bomb costs
/// O(depth cap) stack instead of a stack overflow. Payload-size caps
/// live one layer up (the line reader and the server's admission
/// control); this layer assumes the text already fit in memory.
///
/// Numbers are kept as int64 when the source text is integral and in
/// range (budget ceilings and ids must round-trip exactly), doubles
/// otherwise.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_SUPPORT_JSON_H
#define ARDF_SUPPORT_JSON_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ardf {
namespace json {

class Value;

/// Object members in key order (std::map: deterministic serialization).
using Object = std::map<std::string, Value>;
using Array = std::vector<Value>;

/// One JSON value. A tagged union over the seven JSON shapes (numbers
/// split into integral and floating).
class Value {
public:
  enum class Kind : uint8_t { Null, Bool, Int, Double, String, Array, Object };

  Value() : K(Kind::Null) {}
  Value(std::nullptr_t) : K(Kind::Null) {}
  Value(bool B) : K(Kind::Bool), BoolV(B) {}
  Value(int64_t I) : K(Kind::Int), IntV(I) {}
  Value(int I) : K(Kind::Int), IntV(I) {}
  Value(uint64_t U);
  Value(double D) : K(Kind::Double), DoubleV(D) {}
  Value(const char *S) : K(Kind::String), StringV(S) {}
  Value(std::string S) : K(Kind::String), StringV(std::move(S)) {}
  Value(Array A) : K(Kind::Array), ArrayV(std::move(A)) {}
  Value(Object O) : K(Kind::Object), ObjectV(std::move(O)) {}

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isInt() const { return K == Kind::Int; }
  bool isNumber() const { return K == Kind::Int || K == Kind::Double; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool boolValue() const { return BoolV; }
  int64_t intValue() const;
  double doubleValue() const;
  const std::string &stringValue() const { return StringV; }
  const Array &array() const { return ArrayV; }
  Array &array() { return ArrayV; }
  const Object &object() const { return ObjectV; }
  Object &object() { return ObjectV; }

  /// Member lookup on an object; null for other kinds or missing keys.
  const Value *find(const std::string &Key) const;

  /// Compact single-line serialization (NDJSON-safe: the writer never
  /// emits a raw newline, including inside strings).
  void write(std::string &Out) const;
  std::string toString() const;

private:
  Kind K;
  bool BoolV = false;
  int64_t IntV = 0;
  double DoubleV = 0.0;
  std::string StringV;
  Array ArrayV;
  Object ObjectV;
};

/// Default nesting-depth cap for untrusted input.
inline constexpr unsigned DefaultMaxDepth = 64;

/// Result of parse(): either a value or a located error message.
struct ParseOutcome {
  Value V;
  bool Ok = false;
  std::string Error;    ///< empty when Ok
  size_t ErrorAt = 0;   ///< byte offset of the error
};

/// Parses one complete JSON document from \p Text (leading/trailing
/// whitespace allowed; anything else after the value is an error).
/// Never throws.
ParseOutcome parse(std::string_view Text, unsigned MaxDepth = DefaultMaxDepth);

/// Escapes \p S as a JSON string literal (with quotes) into \p Out:
/// `"`, `\`, `\n`, `\t`, `\r`, and any other byte below 0x20 as
/// lowercase `\u00xx`. Every other byte is copied as is.
void appendQuoted(std::string &Out, std::string_view S);

/// appendQuoted without the quotes: the escaped contents alone, for a
/// literal assembled from several pieces.
void appendEscaped(std::string &Out, std::string_view S);

/// Stream form of appendQuoted, for writers that render straight into
/// an ostream: `OS << json::quoted(S)` writes the same bytes with no
/// intermediate string.
struct Quoted {
  std::string_view S;
};
inline Quoted quoted(std::string_view S) { return {S}; }
std::ostream &operator<<(std::ostream &OS, Quoted Q);

} // namespace json
} // namespace ardf

#endif // ARDF_SUPPORT_JSON_H
