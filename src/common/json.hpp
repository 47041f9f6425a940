// JSON-lite: a small value model + writer + recursive-descent parser.
// Used as the exchange format for variant metadata between the compiler
// backend and the runtime (paper §III-B: "Meta-information about the
// variants will be provided to the runtime system").
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace everest::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

/// A JSON value: null, bool, number (double), string, array, or object.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() : kind_(Kind::kNull) {}
  Value(std::nullptr_t) : kind_(Kind::kNull) {}                        // NOLINT
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}                      // NOLINT
  Value(double n) : kind_(Kind::kNumber), number_(n) {}                // NOLINT
  Value(int n) : kind_(Kind::kNumber), number_(n) {}                   // NOLINT
  Value(std::int64_t n)                                                // NOLINT
      : kind_(Kind::kNumber), number_(static_cast<double>(n)) {}
  Value(std::size_t n)                                                 // NOLINT
      : kind_(Kind::kNumber), number_(static_cast<double>(n)) {}
  Value(const char* s) : kind_(Kind::kString), string_(s) {}           // NOLINT
  Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}  // NOLINT
  Value(Array a) : kind_(Kind::kArray), array_(std::move(a)) {}        // NOLINT
  Value(Object o) : kind_(Kind::kObject), object_(std::move(o)) {}     // NOLINT

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  [[nodiscard]] bool as_bool() const { return bool_; }
  [[nodiscard]] double as_number() const { return number_; }
  [[nodiscard]] std::int64_t as_int() const {
    return static_cast<std::int64_t>(number_);
  }
  [[nodiscard]] const std::string& as_string() const { return string_; }
  [[nodiscard]] const Array& as_array() const { return array_; }
  [[nodiscard]] Array& as_array() { return array_; }
  [[nodiscard]] const Object& as_object() const { return object_; }
  [[nodiscard]] Object& as_object() { return object_; }

  /// Object member access; returns a shared null for missing keys.
  [[nodiscard]] const Value& at(const std::string& key) const {
    static const Value kNullValue;
    if (kind_ != Kind::kObject) return kNullValue;
    auto it = object_.find(key);
    return it == object_.end() ? kNullValue : it->second;
  }
  [[nodiscard]] bool contains(const std::string& key) const {
    return kind_ == Kind::kObject && object_.count(key) > 0;
  }

  /// Serializes this value; indent < 0 emits compact one-line JSON.
  [[nodiscard]] std::string dump(int indent = -1) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Parses a JSON document; returns INVALID_ARGUMENT with a position on error,
/// including for arrays/objects nested more than 512 deep.
Result<Value> parse(std::string_view text);

}  // namespace everest::json
