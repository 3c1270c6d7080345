// Minimal shared JSON support: escaping + number formatting for the writers
// (bench JsonResult, trace exporters) and a small recursive-descent parser
// for the validators (the CI trace schema check). This is deliberately not a
// general-purpose JSON library — just enough shared machinery that every
// emitter escapes strings the same way and the test side can read what the
// tool side wrote without a third-party dependency.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace flashinfer::util {

/// Escapes `s` for embedding inside a JSON string literal. Quotes are NOT
/// added; `"`, `\`, and control characters are escaped.
std::string JsonEscape(const std::string& s);

/// Formats a JSON number (%.10g keeps microsecond timestamps exact at trace
/// scale). JSON has no inf/nan: non-finite values are emitted as 0.
std::string JsonNum(double v);

/// Parsed JSON document node. Object members keep insertion order.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  bool IsObject() const { return type == Type::kObject; }
  bool IsArray() const { return type == Type::kArray; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
  /// Member's number (or `dflt` when absent / not a number).
  double NumberOr(const std::string& key, double dflt) const;
  /// Member's string (or `dflt`).
  std::string StringOr(const std::string& key, const std::string& dflt) const;
};

/// Deepest array/object nesting JsonParse accepts. The in-repo writers emit
/// at most 4 levels; the cap bounds the parser's recursion on hostile input.
inline constexpr int kJsonMaxDepth = 256;

/// Parses `text` into `*out`. Returns false with a positioned message in
/// `*err` (when non-null) on malformed input, including nesting deeper than
/// kJsonMaxDepth. Accepts exactly one top-level value; trailing whitespace is
/// allowed, trailing garbage is not.
bool JsonParse(const std::string& text, JsonValue* out, std::string* err = nullptr);

}  // namespace flashinfer::util
