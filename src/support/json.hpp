// Minimal JSON support for machine-readable reports and requests.
//
// Historically write-only ("the toolkit emits reports, it never parses
// them") — the resident RCA service lifted that: request bodies arrive as
// JSON, so this header now also carries a strict recursive-descent parser
// (`parse_json`) with explicit depth and size limits for adversarial input.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rca {

/// Streaming JSON builder with correct string escaping. Usage:
///   JsonWriter w;
///   w.begin_object();
///   w.key("name"); w.string_value("x");
///   w.key("items"); w.begin_array(); w.number(1); w.end_array();
///   w.end_object();
///   std::string out = w.str();
/// Keys and strings are escaped straight into the one output buffer.
/// Structural errors (value without key inside an object, unbalanced
/// begin/end) throw rca::Error.
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  /// Object member key; must be followed by exactly one value.
  void key(std::string_view k);
  void string_value(std::string_view v);
  void number(double v);
  void integer(long long v);
  void boolean(bool v);
  void null();
  /// Splices a pre-serialized JSON document in value position (e.g. a
  /// diagnostics report embedded inside a service response). The caller is
  /// responsible for `json` being well-formed.
  void raw_value(std::string_view json);
  /// The same for a document written piecewise: `emit` appends it to the
  /// output buffer, so a large one is never copied twice.
  void raw_value(const std::function<void(std::string*)>& emit);
  /// Reserves output capacity, so a caller splicing a large raw_value
  /// grows the buffer once instead of copying it on every doubling.
  void reserve(std::size_t bytes) { out_.reserve(bytes); }

  /// Final document; throws if containers are unbalanced. The rvalue
  /// overload (`std::move(w).str()`) moves the buffer out instead of
  /// copying it.
  std::string str() const&;
  std::string str() &&;

  static std::string escape(std::string_view raw);

 private:
  enum class Ctx { kArray, kObjectExpectKey, kObjectExpectValue };
  void check_balanced() const;
  void before_value();
  void after_value();

  std::string out_;
  std::vector<Ctx> stack_;
  bool needs_comma_ = false;
};

/// Parsed JSON document node. Objects preserve member order (so a re-emitted
/// document round-trips deterministically) and are looked up linearly —
/// request bodies are small by construction (JsonParseOptions::max_bytes).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const;            // throws rca::Error on kind mismatch
  double as_number() const;        // "
  const std::string& as_string() const;  // "
  const std::vector<JsonValue>& items() const;  // array elements
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object member by key; null when absent or when this is not an object.
  const JsonValue* get(std::string_view key) const;

  // Typed object-member accessors (the service request idiom:
  // `body.get_int("top", 15)`). The fallback applies when the member is
  // absent; a present member of the wrong type throws rca::Error, so a
  // mistyped request field surfaces as a client error instead of being
  // silently defaulted.
  std::string get_string(std::string_view key, std::string fallback = "") const;
  double get_number(std::string_view key, double fallback) const;
  long long get_int(std::string_view key, long long fallback) const;
  bool get_bool(std::string_view key, bool fallback) const;
  /// Member `key` as a vector of strings; empty when absent. Throws if the
  /// member exists but is not an array of strings.
  std::vector<std::string> get_string_array(std::string_view key) const;

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double n);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Limits for `parse_json`. Both bounds fail closed: over-deep or over-long
/// input is rejected before any unbounded recursion or allocation.
struct JsonParseOptions {
  std::size_t max_depth = 64;               // nested containers
  std::size_t max_bytes = 8 * 1024 * 1024;  // document size
};

/// Strict recursive-descent JSON parser (RFC 8259 grammar): one top-level
/// value, no trailing garbage, no comments, no trailing commas, strings must
/// be valid escapes (\uXXXX with surrogate pairs), numbers must match the
/// JSON grammar. Throws rca::Error with a byte offset on malformed input.
JsonValue parse_json(std::string_view text, const JsonParseOptions& opts = {});

/// Re-serializes a parsed document. Objects keep their parsed member order,
/// so parse → to_json → parse round-trips deterministically; integral
/// numbers are emitted without a decimal point. Used where a document must
/// be persisted verbatim-equivalent (e.g. campaign journals).
std::string to_json(const JsonValue& value);

}  // namespace rca
