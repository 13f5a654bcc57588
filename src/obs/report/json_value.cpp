#include "obs/report/json_value.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace dfsssp::obs {

// ---- string escaping --------------------------------------------------------

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

// ---- constructors -----------------------------------------------------------

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.num_ = d;
  return v;
}

JsonValue JsonValue::integer(std::int64_t i) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.is_int_ = true;
  v.int_ = i;
  v.num_ = static_cast<double>(i);
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

// ---- accessors --------------------------------------------------------------

namespace {

[[noreturn]] void type_error(const char* want, JsonValue::Type got) {
  throw std::runtime_error(std::string("JSON value is not ") + want +
                           " (type " +
                           std::to_string(static_cast<int>(got)) + ")");
}

}  // namespace

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) type_error("a bool", type_);
  return bool_;
}

double JsonValue::as_double() const {
  if (type_ != Type::kNumber) type_error("a number", type_);
  return is_int_ ? static_cast<double>(int_) : num_;
}

std::int64_t JsonValue::as_int() const {
  if (!is_integer()) type_error("an integer", type_);
  return int_;
}

std::uint64_t JsonValue::as_uint() const {
  const std::int64_t v = as_int();
  if (v < 0) throw std::runtime_error("JSON integer is negative");
  return static_cast<std::uint64_t>(v);
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) type_error("a string", type_);
  return str_;
}

std::vector<JsonValue>& JsonValue::items() {
  if (type_ != Type::kArray) type_error("an array", type_);
  return items_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::kArray) type_error("an array", type_);
  return items_;
}

std::vector<JsonValue::Member>& JsonValue::members() {
  if (type_ != Type::kObject) type_error("an object", type_);
  return members_;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  if (type_ != Type::kObject) type_error("an object", type_);
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) type_error("an object", type_);
  for (const Member& m : members_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw std::runtime_error("JSON object has no key '" + std::string(key) +
                             "'");
  }
  return *v;
}

JsonValue& JsonValue::push_back(JsonValue v) {
  items().push_back(std::move(v));
  return items_.back();
}

JsonValue& JsonValue::set(std::string key, JsonValue v) {
  for (Member& m : members()) {
    if (m.first == key) {
      m.second = std::move(v);
      return m.second;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
  return members_.back().second;
}

std::size_t JsonValue::size() const {
  if (type_ == Type::kArray) return items_.size();
  if (type_ == Type::kObject) return members_.size();
  return 0;
}

bool operator==(const JsonValue& a, const JsonValue& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case JsonValue::Type::kNull: return true;
    case JsonValue::Type::kBool: return a.bool_ == b.bool_;
    case JsonValue::Type::kNumber:
      if (a.is_int_ && b.is_int_) return a.int_ == b.int_;
      return a.as_double() == b.as_double();
    case JsonValue::Type::kString: return a.str_ == b.str_;
    case JsonValue::Type::kArray: return a.items_ == b.items_;
    case JsonValue::Type::kObject: {
      if (a.members_.size() != b.members_.size()) return false;
      for (const JsonValue::Member& m : a.members_) {
        const JsonValue* other = b.find(m.first);
        if (other == nullptr || !(m.second == *other)) return false;
      }
      return true;
    }
  }
  return false;
}

// ---- parser -----------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue::boolean(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue::boolean(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue::null();
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members().emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items().push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          // The repo's emitters only \u-escape control characters; encode
          // the general case as UTF-8 anyway so foreign documents survive.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = c == '+' || c == '-' ? integral : false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (integral) {
      std::int64_t i = 0;
      const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), i);
      if (ec == std::errc() && p == tok.data() + tok.size()) {
        return JsonValue::integer(i);
      }
      // Out of int64 range: fall through to double.
    }
    const std::string owned(tok);
    errno = 0;
    char* end = nullptr;
    const double d = std::strtod(owned.c_str(), &end);
    if (end != owned.c_str() + owned.size() || errno == ERANGE) {
      fail("bad number '" + owned + "'");
    }
    return JsonValue::number(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void write_number(std::ostream& out, const JsonValue& v) {
  if (v.is_integer()) {
    out << v.as_int();
    return;
  }
  const double d = v.as_double();
  if (!std::isfinite(d)) {
    // JSON has no Inf/NaN; the repo never emits them, but don't produce an
    // unparseable document if one sneaks in through arithmetic.
    out << (d > 0 ? "1e308" : (d < 0 ? "-1e308" : "0"));
    return;
  }
  char buf[32];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), d);
  if (ec == std::errc()) {
    out.write(buf, p - buf);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out << buf;
  }
}

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

void JsonValue::write(std::ostream& out, int depth) const {
  const std::string pad(static_cast<std::size_t>(depth) * 2, ' ');
  switch (type_) {
    case Type::kNull: out << "null"; break;
    case Type::kBool: out << (bool_ ? "true" : "false"); break;
    case Type::kNumber: write_number(out, *this); break;
    case Type::kString: out << json_quote(str_); break;
    case Type::kArray: {
      if (items_.empty()) {
        out << "[]";
        break;
      }
      out << "[";
      for (std::size_t i = 0; i < items_.size(); ++i) {
        out << (i ? ",\n" : "\n") << pad << "  ";
        items_[i].write(out, depth + 1);
      }
      out << "\n" << pad << "]";
      break;
    }
    case Type::kObject: {
      if (members_.empty()) {
        out << "{}";
        break;
      }
      out << "{";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        out << (i ? ",\n" : "\n") << pad << "  "
            << json_quote(members_[i].first) << ": ";
        members_[i].second.write(out, depth + 1);
      }
      out << "\n" << pad << "}";
      break;
    }
  }
}

std::string JsonValue::dump() const {
  std::ostringstream out;
  write(out);
  return out.str();
}

}  // namespace dfsssp::obs
