// Minimal JSON document model, recursive-descent parser, and serializer.
//
// Docker manifests and image configs are JSON ("image manifests as
// JSON-based files", paper §II-C); the registry stores and serves them, the
// downloader parses them, and the bench harness emits JSON reports. Objects
// preserve insertion order so serialized manifests are byte-stable, which
// matters because manifests are content-addressed by their digest.
//
// Numbers: an integer prints in decimal; a finite double prints as the
// first of `%.15g`, `%.16g`, `%.17g` that reads back to the same double,
// through std::to_chars with that precision (the same digits printf
// prints) and a std::from_chars round trip; Inf and NaN print `null`.
//
// A pre-serialized node (Value::preserialized) holds one tree's dump()
// bytes, shared between copies: copying it costs a refcount, and dump()
// splices the bytes verbatim wherever the node sits. The serve daemon
// keeps every immutable answer this way, built once per snapshot. parse()
// never produces one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dockmine/util/error.h"

namespace dockmine::json {

class Value;
using Array = std::vector<Value>;
using Members = std::vector<std::pair<std::string, Value>>;

enum class Type : std::uint8_t {
  kNull,
  kBool,
  kInt,     // exact 64-bit integers (sizes, counts)
  kDouble,  // everything else numeric
  kString,
  kArray,
  kObject,
  kPreserialized,  // opaque dump() bytes of another tree; see preserialized()
};

class Value {
 public:
  Value() : type_(Type::kNull) {}
  Value(std::nullptr_t) : type_(Type::kNull) {}                    // NOLINT
  Value(bool b) : type_(Type::kBool), bool_(b) {}                  // NOLINT
  Value(std::int64_t i) : type_(Type::kInt), int_(i) {}            // NOLINT
  Value(std::uint64_t u)                                           // NOLINT
      : type_(Type::kInt), int_(static_cast<std::int64_t>(u)) {}
  Value(int i) : type_(Type::kInt), int_(i) {}                     // NOLINT
  Value(double d) : type_(Type::kDouble), double_(d) {}            // NOLINT
  Value(const char* s) : type_(Type::kString), string_(s) {}       // NOLINT
  Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT
  Value(Array a) : type_(Type::kArray), array_(std::move(a)) {}    // NOLINT

  static Value object() {
    Value v;
    v.type_ = Type::kObject;
    return v;
  }
  static Value array() {
    Value v;
    v.type_ = Type::kArray;
    return v;
  }
  /// `tree`'s compact bytes, serialized once and shared by every copy. The
  /// node is opaque: it answers type() and dump() (which writes the bytes
  /// verbatim, also inside dump_pretty()), and reads as empty otherwise.
  static Value preserialized(const Value& tree);

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_int() const noexcept { return type_ == Type::kInt; }
  bool is_number() const noexcept {
    return type_ == Type::kInt || type_ == Type::kDouble;
  }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  std::int64_t as_int() const {
    return type_ == Type::kDouble ? static_cast<std::int64_t>(double_) : int_;
  }
  std::uint64_t as_uint() const {
    return static_cast<std::uint64_t>(as_int());
  }
  double as_double() const {
    return type_ == Type::kInt ? static_cast<double>(int_) : double_;
  }
  const std::string& as_string() const { return string_; }

  const Array& items() const { return array_; }
  Array& items() { return array_; }
  const Members& members() const { return members_; }
  Members& members() { return members_; }

  std::size_t size() const noexcept {
    return is_array() ? array_.size() : is_object() ? members_.size() : 0;
  }

  /// Object member access; returns a shared null for missing keys so lookup
  /// chains (`v["a"]["b"]`) are safe on absent paths.
  const Value& operator[](std::string_view key) const;
  bool contains(std::string_view key) const;

  /// Array element access (bounds-checked).
  const Value& at(std::size_t index) const { return array_.at(index); }

  /// Insert or replace a member (objects only).
  void set(std::string key, Value value);

  /// Append an element (arrays only).
  void push_back(Value value) { array_.push_back(std::move(value)); }

  /// Compact serialization (no whitespace). Stable member order.
  std::string dump() const;
  /// Pretty serialization with 2-space indent.
  std::string dump_pretty() const;

 private:
  void write(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Members members_;
  std::shared_ptr<const std::string> text_;  // kPreserialized
};

/// Parse a complete JSON document. Trailing non-whitespace is an error.
util::Result<Value> parse(std::string_view text);

/// Escape a string per RFC 8259 (used by the serializer; exposed for tests).
std::string escape(std::string_view raw);

}  // namespace dockmine::json
