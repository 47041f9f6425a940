#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace everest::json {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double n) {
  if (std::floor(n) == n && std::abs(n) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(n));
    out += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", n);
    out += buf;
  }
}

void append_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Value::dump_to(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; return;
    case Kind::kBool: out += bool_ ? "true" : "false"; return;
    case Kind::kNumber: append_number(out, number_); return;
    case Kind::kString: append_escaped(out, string_); return;
    case Kind::kArray: {
      if (array_.empty()) { out += "[]"; return; }
      out += '[';
      bool first = true;
      for (const Value& v : array_) {
        if (!first) out += ',';
        first = false;
        append_indent(out, indent, depth + 1);
        v.dump_to(out, indent, depth + 1);
      }
      append_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Kind::kObject: {
      if (object_.empty()) { out += "{}"; return; }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out += ',';
        first = false;
        append_indent(out, indent, depth + 1);
        append_escaped(out, k);
        out += indent < 0 ? ":" : ": ";
        v.dump_to(out, indent, depth + 1);
      }
      append_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

/// Deepest array/object nesting parse() accepts. The parser recurses once
/// per level, so the cap bounds its stack use (a few hundred bytes per
/// level) whatever the input; the SDK's own documents nest a few levels.
constexpr int kMaxNestingDepth = 512;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> parse() {
    skip_ws();
    auto v = parse_value(0);
    if (!v.ok()) return v;
    skip_ws();
    if (pos_ != text_.size()) return error("trailing characters");
    return v;
  }

 private:
  Status error(const std::string& what) const {
    return InvalidArgument("JSON parse error at offset " +
                           std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  /// `depth` counts the arrays and objects enclosing this value.
  Result<Value> parse_value(int depth) {
    if (pos_ >= text_.size()) return error("unexpected end of input");
    const char c = text_[pos_];
    if ((c == '{' || c == '[') && depth >= kMaxNestingDepth) {
      return error("nesting deeper than " + std::to_string(kMaxNestingDepth));
    }
    if (c == '{') return parse_object(depth + 1);
    if (c == '[') return parse_array(depth + 1);
    if (c == '"') {
      auto s = parse_string();
      if (!s.ok()) return s.status();
      return Value(std::move(s).value());
    }
    if (consume_literal("true")) return Value(true);
    if (consume_literal("false")) return Value(false);
    if (consume_literal("null")) return Value(nullptr);
    return parse_number();
  }

  Result<Value> parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return error("expected a value");
    double out = 0.0;
    const auto* first = text_.data() + start;
    const auto* last = text_.data() + pos_;
    auto [ptr, ec] = std::from_chars(first, last, out);
    if (ec != std::errc{} || ptr != last) return error("bad number");
    return Value(out);
  }

  Result<std::string> parse_string() {
    if (!consume('"')) return error("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return error("bad escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return error("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else return error("bad hex digit");
            }
            // Encode as UTF-8 (BMP only; surrogate pairs unsupported).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return error("bad escape");
        }
      } else {
        out += c;
      }
    }
    return error("unterminated string");
  }

  Result<Value> parse_array(int depth) {
    consume('[');
    Array arr;
    skip_ws();
    if (consume(']')) return Value(std::move(arr));
    while (true) {
      skip_ws();
      auto v = parse_value(depth);
      if (!v.ok()) return v;
      arr.push_back(std::move(v).value());
      skip_ws();
      if (consume(']')) return Value(std::move(arr));
      if (!consume(',')) return error("expected ',' or ']'");
    }
  }

  Result<Value> parse_object(int depth) {
    consume('{');
    Object obj;
    skip_ws();
    if (consume('}')) return Value(std::move(obj));
    while (true) {
      skip_ws();
      auto key = parse_string();
      if (!key.ok()) return key.status();
      skip_ws();
      if (!consume(':')) return error("expected ':'");
      skip_ws();
      auto v = parse_value(depth);
      if (!v.ok()) return v;
      obj.emplace(std::move(key).value(), std::move(v).value());
      skip_ws();
      if (consume('}')) return Value(std::move(obj));
      if (!consume(',')) return error("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Value> parse(std::string_view text) { return Parser(text).parse(); }

}  // namespace everest::json
