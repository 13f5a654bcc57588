// JSON document model: the one writer of every JSON document the library,
// tools and benches emit (bench and dfcheck run reports, bench tables,
// `dfcheck --json`, the daemon's `stats` reply) and the recursive-descent
// reader of those documents and of google-benchmark output. JSON syntax is
// written here and nowhere else; the one exception is the Chrome trace
// exporter (obs/trace.cpp), which streams its events through json_quote
// because a trace can hold millions of spans.
//
// Deliberately small: no SAX interface, no allocator tuning, no NaN/Inf
// extensions. Integers that fit int64 are kept exactly (metric counters go
// far beyond 2^53, where doubles lose integer precision); other numbers are
// doubles and re-serialize via shortest-round-trip formatting, so
// parse(dump(v)) == v holds for every document the repo emits.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dfsssp::obs {

/// Returns `s` as a double-quoted JSON string literal with all mandatory
/// escapes applied (quote, backslash, control characters).
std::string json_quote(std::string_view s);

class JsonValue {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  /// Object members as an ordered list: emission order is preserved on
  /// round trip, while find() and operator== treat keys as a map (object
  /// keys are unique in every document this repo produces).
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;  // null
  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool b);
  static JsonValue number(double d);
  static JsonValue integer(std::int64_t i);
  static JsonValue string(std::string s);
  static JsonValue array();
  static JsonValue object();

  /// Parses one JSON document (trailing non-whitespace is an error).
  /// Throws std::runtime_error with a byte offset on malformed input.
  static JsonValue parse(std::string_view text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  /// True for numbers written without '.', 'e' and representable in int64.
  bool is_integer() const { return type_ == Type::kNumber && is_int_; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;  // throws unless is_integer()
  /// Integer reading clamped into uint64 semantics for metric values.
  std::uint64_t as_uint() const;
  const std::string& as_string() const;

  std::vector<JsonValue>& items();              // array elements
  const std::vector<JsonValue>& items() const;
  std::vector<Member>& members();               // object members
  const std::vector<Member>& members() const;

  /// First member with `key`, or nullptr. Objects only.
  const JsonValue* find(std::string_view key) const;
  /// find() that throws std::runtime_error when the key is absent.
  const JsonValue& at(std::string_view key) const;
  bool contains(std::string_view key) const { return find(key) != nullptr; }

  /// Appends to an array.
  JsonValue& push_back(JsonValue v);
  /// Sets (or replaces) an object member; returns the stored value.
  JsonValue& set(std::string key, JsonValue v);

  std::size_t size() const;  // array/object element count, else 0

  /// Structural equality. Object comparison is key-based (order
  /// insensitive); numbers compare exactly (integer vs integer by value,
  /// anything else by bit-identical double).
  friend bool operator==(const JsonValue& a, const JsonValue& b);
  friend bool operator!=(const JsonValue& a, const JsonValue& b) {
    return !(a == b);
  }

  /// Serializes with 2-space indentation per `depth`; scalars and empty
  /// containers stay inline. Output ends without a newline.
  void write(std::ostream& out, int depth = 0) const;
  std::string dump() const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  bool is_int_ = false;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  std::string str_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

}  // namespace dfsssp::obs
