#include "dockmine/json/json.h"

#include <cctype>
#include <charconv>
#include <cmath>

namespace dockmine::json {

namespace {
const Value kNullValue{};
}

const Value& Value::operator[](std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return v;
  }
  return kNullValue;
}

bool Value::contains(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    (void)v;
    if (k == key) return true;
  }
  return false;
}

void Value::set(std::string key, Value value) {
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
}

Value Value::preserialized(const Value& tree) {
  Value v;
  v.type_ = Type::kPreserialized;
  v.text_ = std::make_shared<const std::string>(tree.dump());
  return v;
}

namespace {

// Appends `raw` escaped per RFC 8259, copying each run of plain bytes in
// one append.
void escape_into(std::string& out, std::string_view raw) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const auto c = static_cast<unsigned char>(raw[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(raw.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char unicode[] = {'\\', 'u', '0', '0',
                                static_cast<char>('0' + (c >> 4)),
                                "0123456789abcdef"[c & 0xf]};
        out.append(unicode, sizeof unicode);
      }
    }
  }
  out.append(raw.data() + run, raw.size() - run);
}

void write_quoted(std::string& out, std::string_view raw) {
  out += '"';
  escape_into(out, raw);
  out += '"';
}

// The first of %.15g, %.16g and %.17g that reads back exactly. to_chars
// with a precision prints printf's digits, and from_chars reads like strtod,
// so these are the bytes the printf + strtod loop printed.
void write_double(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";  // JSON has no Inf/NaN
    return;
  }
  char buf[32];  // %.17g needs at most 24: sign, 17 digits, '.', e-308
  char* end = buf;
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(buf, buf + sizeof buf, value,
                        std::chars_format::general, precision)
              .ptr;
    double back = 0.0;
    const auto parsed = std::from_chars(buf, end, back);
    if (parsed.ec == std::errc() && back == value) break;
  }
  out.append(buf, end);
}

void write_int(std::string& out, std::int64_t value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

// Pretty mode only: a line break and `depth` levels of indent.
void new_line(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

std::string escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  escape_into(out, raw);
  return out;
}

void Value::write(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kInt: write_int(out, int_); break;
    case Type::kDouble: write_double(out, double_); break;
    case Type::kString: write_quoted(out, string_); break;
    case Type::kPreserialized: out += *text_; break;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        new_line(out, indent, depth + 1);
        array_[i].write(out, indent, depth + 1);
      }
      new_line(out, indent, depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ',';
        new_line(out, indent, depth + 1);
        write_quoted(out, members_[i].first);
        out += indent > 0 ? ": " : ":";
        members_[i].second.write(out, indent, depth + 1);
      }
      new_line(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Value::dump() const {
  std::string out;
  write(out, 0, 0);
  return out;
}

std::string Value::dump_pretty() const {
  std::string out;
  write(out, 2, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  util::Result<Value> run() {
    skip_ws();
    auto value = parse_value(0);
    if (!value.ok()) return value;
    skip_ws();
    if (pos_ != text_.size()) {
      return fail("trailing characters after document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 200;

  util::Error fail(std::string msg) const {
    return util::corrupt("json at offset " + std::to_string(pos_) + ": " +
                         std::move(msg));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  util::Result<Value> parse_value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        auto s = parse_string();
        if (!s.ok()) return std::move(s).error();
        return Value(std::move(s).value());
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          return Value(true);
        }
        return fail("bad literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          return Value(false);
        }
        return fail("bad literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          return Value(nullptr);
        }
        return fail("bad literal");
      default: return parse_number();
    }
  }

  util::Result<std::string> parse_string() {
    if (!eat('"')) return fail("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("dangling escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("short \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("bad hex in \\u escape");
            }
            // Encode BMP code point as UTF-8 (surrogate pairs folded to
            // U+FFFD; manifests never contain them).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xc0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else if (code >= 0xd800 && code <= 0xdfff) {
              out += "\xef\xbf\xbd";
            } else {
              out += static_cast<char>(0xe0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default: return fail("unknown escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  util::Result<Value> parse_number() {
    const std::size_t start = pos_;
    if (eat('-')) {}
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool is_double = false;
    if (eat('.')) {
      is_double = true;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") return fail("bad number");
    if (!is_double) {
      std::int64_t iv = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), iv);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return Value(iv);
      }
      // Integer overflow: fall through to double.
    }
    double dv = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), dv);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      return fail("unparseable number '" + std::string(token) + "'");
    }
    return Value(dv);
  }

  util::Result<Value> parse_array(int depth) {
    eat('[');
    Value out = Value::array();
    skip_ws();
    if (eat(']')) return out;
    for (;;) {
      skip_ws();
      auto element = parse_value(depth + 1);
      if (!element.ok()) return element;
      out.push_back(std::move(element).value());
      skip_ws();
      if (eat(']')) return out;
      if (!eat(',')) return fail("expected ',' or ']'");
    }
  }

  util::Result<Value> parse_object(int depth) {
    eat('{');
    Value out = Value::object();
    skip_ws();
    if (eat('}')) return out;
    for (;;) {
      skip_ws();
      auto key = parse_string();
      if (!key.ok()) return std::move(key).error();
      skip_ws();
      if (!eat(':')) return fail("expected ':'");
      skip_ws();
      auto value = parse_value(depth + 1);
      if (!value.ok()) return value;
      out.set(std::move(key).value(), std::move(value).value());
      skip_ws();
      if (eat('}')) return out;
      if (!eat(',')) return fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

util::Result<Value> parse(std::string_view text) { return Parser(text).run(); }

}  // namespace dockmine::json
