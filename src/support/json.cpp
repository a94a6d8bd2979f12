#include "support/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/error.hpp"

namespace rca {

namespace {

/// Appends `raw` to `out` with JSON string escaping: runs of plain bytes are
/// copied in one append, so the common case costs no per-byte push_back.
void append_escaped(std::string& out, std::string_view raw) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // first byte not yet copied
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const auto c = static_cast<unsigned char>(raw[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(raw.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(u, sizeof(u));
      }
    }
  }
  out.append(raw.data() + run, raw.size() - run);
}

}  // namespace

std::string JsonWriter::escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  append_escaped(out, raw);
  return out;
}

void JsonWriter::before_value() {
  if (!stack_.empty() && stack_.back() == Ctx::kObjectExpectKey) {
    throw Error("JsonWriter: value emitted where an object key is required");
  }
  if (needs_comma_) out_.push_back(',');
}

void JsonWriter::after_value() {
  if (!stack_.empty() && stack_.back() == Ctx::kObjectExpectValue) {
    stack_.back() = Ctx::kObjectExpectKey;
  }
  needs_comma_ = true;
}

void JsonWriter::begin_object() {
  before_value();
  out_.push_back('{');
  stack_.push_back(Ctx::kObjectExpectKey);
  needs_comma_ = false;
}

void JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() == Ctx::kObjectExpectValue ||
      stack_.back() == Ctx::kArray) {
    throw Error("JsonWriter: end_object out of place");
  }
  stack_.pop_back();
  out_.push_back('}');
  after_value();
}

void JsonWriter::begin_array() {
  before_value();
  out_.push_back('[');
  stack_.push_back(Ctx::kArray);
  needs_comma_ = false;
}

void JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != Ctx::kArray) {
    throw Error("JsonWriter: end_array out of place");
  }
  stack_.pop_back();
  out_.push_back(']');
  after_value();
}

void JsonWriter::key(std::string_view k) {
  if (stack_.empty() || stack_.back() != Ctx::kObjectExpectKey) {
    throw Error("JsonWriter: key outside an object");
  }
  if (needs_comma_) out_.push_back(',');
  out_.push_back('"');
  append_escaped(out_, k);
  out_ += "\":";
  stack_.back() = Ctx::kObjectExpectValue;
  needs_comma_ = false;
}

void JsonWriter::string_value(std::string_view v) {
  before_value();
  out_.push_back('"');
  append_escaped(out_, v);
  out_.push_back('"');
  after_value();
}

void JsonWriter::number(double v) {
  before_value();
  if (std::isfinite(v)) {
    char buf[32];  // %.17g needs at most 24 bytes ("-1.2345678901234567e-308")
    const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_.append(buf, static_cast<std::size_t>(n));
  } else {
    out_ += "null";  // JSON has no NaN/Inf
  }
  after_value();
}

void JsonWriter::integer(long long v) {
  before_value();
  char buf[24];  // "-9223372036854775808" is 20 bytes
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out_.append(buf, res.ptr);
  after_value();
}

void JsonWriter::boolean(bool v) {
  before_value();
  out_ += v ? "true" : "false";
  after_value();
}

void JsonWriter::null() {
  before_value();
  out_ += "null";
  after_value();
}

void JsonWriter::raw_value(std::string_view json) {
  before_value();
  out_ += json;
  after_value();
}

void JsonWriter::raw_value(const std::function<void(std::string*)>& emit) {
  before_value();
  emit(&out_);
  after_value();
}

void JsonWriter::check_balanced() const {
  if (!stack_.empty()) {
    throw Error("JsonWriter: unbalanced containers at str()");
  }
}

std::string JsonWriter::str() const& {
  check_balanced();
  return out_;
}

std::string JsonWriter::str() && {
  check_balanced();
  return std::move(out_);
}

// ---------------------------------------------------------------------------
// JsonValue
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void kind_error(const char* wanted, JsonValue::Kind got) {
  static const char* const names[] = {"null",   "bool",  "number",
                                      "string", "array", "object"};
  throw Error(std::string("JSON: expected ") + wanted + ", got " +
              names[static_cast<int>(got)]);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("bool", kind_);
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) kind_error("number", kind_);
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_error("string", kind_);
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::kArray) kind_error("array", kind_);
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (kind_ != Kind::kObject) kind_error("object", kind_);
  return members_;
}

const JsonValue* JsonValue::get(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::get_string(std::string_view key,
                                  std::string fallback) const {
  const JsonValue* v = get(key);
  return v == nullptr ? std::move(fallback) : v->as_string();
}

double JsonValue::get_number(std::string_view key, double fallback) const {
  const JsonValue* v = get(key);
  return v == nullptr ? fallback : v->as_number();
}

long long JsonValue::get_int(std::string_view key, long long fallback) const {
  const JsonValue* v = get(key);
  return v == nullptr ? fallback : static_cast<long long>(v->as_number());
}

bool JsonValue::get_bool(std::string_view key, bool fallback) const {
  const JsonValue* v = get(key);
  return v == nullptr ? fallback : v->as_bool();
}

std::vector<std::string> JsonValue::get_string_array(
    std::string_view key) const {
  std::vector<std::string> out;
  const JsonValue* v = get(key);
  if (v == nullptr) return out;
  for (const JsonValue& item : v->items()) out.push_back(item.as_string());
  return out;
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.members_ = std::move(members);
  return v;
}

// ---------------------------------------------------------------------------
// parse_json — strict recursive descent over RFC 8259.
// ---------------------------------------------------------------------------

namespace {

class JsonParser {
 public:
  JsonParser(std::string_view text, const JsonParseOptions& opts)
      : text_(text), opts_(opts) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("JSON parse error at byte " + std::to_string(pos_) + ": " +
                what);
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  char next() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void expect(char c) {
    if (eof() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  void skip_ws() {
    while (!eof()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value(std::size_t depth) {
    if (eof()) fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue::make_string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return JsonValue::make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return JsonValue::make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return JsonValue::make_null();
      default: return parse_number();
    }
  }

  JsonValue parse_object(std::size_t depth) {
    // Depth counts nested *containers* — a scalar at the limit is fine.
    if (depth >= opts_.max_depth) fail("nesting depth limit exceeded");
    expect('{');
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    for (;;) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = next();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return JsonValue::make_object(std::move(members));
  }

  JsonValue parse_array(std::size_t depth) {
    if (depth >= opts_.max_depth) fail("nesting depth limit exceeded");
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    for (;;) {
      skip_ws();
      items.push_back(parse_value(depth + 1));
      skip_ws();
      const char c = next();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return JsonValue::make_array(std::move(items));
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = next();
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape digit");
    }
    return value;
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char e = next();
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a \uDC00-\uDFFF low surrogate must follow.
            if (next() != '\\' || next() != 'u') {
              fail("unpaired UTF-16 surrogate");
            }
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired UTF-16 surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    // Integer part: 0, or [1-9][0-9]*.
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      fail("invalid number");
    }
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digits required after decimal point");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        fail("digits required in exponent");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    return JsonValue::make_number(std::strtod(token.c_str(), nullptr));
  }

  std::string_view text_;
  JsonParseOptions opts_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text, const JsonParseOptions& opts) {
  if (text.size() > opts.max_bytes) {
    throw Error("JSON parse error: document of " + std::to_string(text.size()) +
                " bytes exceeds the " + std::to_string(opts.max_bytes) +
                "-byte limit");
  }
  return JsonParser(text, opts).parse_document();
}

namespace {

void emit_value(JsonWriter& w, const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: w.null(); break;
    case JsonValue::Kind::kBool: w.boolean(v.as_bool()); break;
    case JsonValue::Kind::kNumber: {
      const double n = v.as_number();
      const double truncated = std::trunc(n);
      if (std::isfinite(n) && truncated == n &&
          std::abs(n) < 9.007199254740992e15) {  // exact in a double
        w.integer(static_cast<long long>(n));
      } else {
        w.number(n);
      }
      break;
    }
    case JsonValue::Kind::kString: w.string_value(v.as_string()); break;
    case JsonValue::Kind::kArray:
      w.begin_array();
      for (const JsonValue& item : v.items()) emit_value(w, item);
      w.end_array();
      break;
    case JsonValue::Kind::kObject:
      w.begin_object();
      for (const auto& [k, member] : v.members()) {
        w.key(k);
        emit_value(w, member);
      }
      w.end_object();
      break;
  }
}

}  // namespace

std::string to_json(const JsonValue& value) {
  JsonWriter w;
  emit_value(w, value);
  return w.str();
}

}  // namespace rca
