#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace flashinfer::util {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::NumberOr(const std::string& key, double dflt) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->type == Type::kNumber ? v->number : dflt;
}

std::string JsonValue::StringOr(const std::string& key, const std::string& dflt) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->type == Type::kString ? v->str : dflt;
}

namespace {

/// Recursive-descent parser state over the raw text.
struct Parser {
  const std::string& text;
  size_t pos = 0;
  std::string err;

  bool Fail(const std::string& what) {
    if (err.empty()) err = what + " at offset " + std::to_string(pos);
    return false;
  }

  void SkipWs() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool Consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return Fail(std::string("expected '") + c + "'");
  }

  bool Literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++pos) {
      if (pos >= text.size() || text[pos] != *p) return Fail(std::string("expected ") + lit);
    }
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos >= text.size()) return Fail("truncated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) return Fail("truncated \\u escape");
          uint32_t cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<uint32_t>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<uint32_t>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<uint32_t>(h - 'A' + 10);
            else return Fail("bad \\u escape");
          }
          // BMP-only UTF-8 encode (surrogate pairs are not produced by any
          // in-repo writer; a lone surrogate encodes as-is).
          if (cp < 0x80) {
            *out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            *out += static_cast<char>(0xC0 | (cp >> 6));
            *out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (cp >> 12));
            *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  /// `depth` counts the arrays and objects enclosing this value.
  bool ParseValue(JsonValue* out, int depth) {
    SkipWs();
    if (pos >= text.size()) return Fail("unexpected end of input");
    const char c = text[pos];
    if ((c == '{' || c == '[') && depth == kJsonMaxDepth) {
      return Fail("nesting deeper than " + std::to_string(kJsonMaxDepth));
    }
    if (c == '{') {
      ++pos;
      out->type = JsonValue::Type::kObject;
      SkipWs();
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        return true;
      }
      while (true) {
        SkipWs();
        std::string key;
        if (!ParseString(&key)) return false;
        SkipWs();
        if (!Consume(':')) return false;
        JsonValue member;
        if (!ParseValue(&member, depth + 1)) return false;
        out->obj.emplace_back(std::move(key), std::move(member));
        SkipWs();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        return Consume('}');
      }
    }
    if (c == '[') {
      ++pos;
      out->type = JsonValue::Type::kArray;
      SkipWs();
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return true;
      }
      while (true) {
        JsonValue elem;
        if (!ParseValue(&elem, depth + 1)) return false;
        out->arr.push_back(std::move(elem));
        SkipWs();
        if (pos < text.size() && text[pos] == ',') {
          ++pos;
          continue;
        }
        return Consume(']');
      }
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->str);
    }
    if (c == 't') {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->type = JsonValue::Type::kBool;
      out->boolean = false;
      return Literal("false");
    }
    if (c == 'n') {
      out->type = JsonValue::Type::kNull;
      return Literal("null");
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      const char* start = text.c_str() + pos;
      char* end = nullptr;
      out->type = JsonValue::Type::kNumber;
      out->number = std::strtod(start, &end);
      if (end == start) return Fail("bad number");
      pos += static_cast<size_t>(end - start);
      return true;
    }
    return Fail("unexpected character");
  }
};

}  // namespace

bool JsonParse(const std::string& text, JsonValue* out, std::string* err) {
  Parser p{text, 0, {}};
  *out = JsonValue{};
  if (!p.ParseValue(out, 0)) {
    if (err != nullptr) *err = p.err;
    return false;
  }
  p.SkipWs();
  if (p.pos != text.size()) {
    if (err != nullptr) *err = "trailing garbage at offset " + std::to_string(p.pos);
    return false;
  }
  return true;
}

}  // namespace flashinfer::util
