#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <string>
#include <utility>

#include "support/error.hpp"
#include "support/json.hpp"

namespace rca {
namespace {

TEST(Json, ObjectWithMixedValues) {
  JsonWriter w;
  w.begin_object();
  w.key("name");
  w.string_value("wsub");
  w.key("count");
  w.integer(14);
  w.key("ratio");
  w.number(0.5);
  w.key("pass");
  w.boolean(false);
  w.key("missing");
  w.null();
  w.end_object();
  EXPECT_EQ(w.str(),
            R"({"name":"wsub","count":14,"ratio":0.5,"pass":false,)"
            R"("missing":null})");
}

TEST(Json, NestedArraysAndObjects) {
  JsonWriter w;
  w.begin_object();
  w.key("iterations");
  w.begin_array();
  for (int i = 0; i < 2; ++i) {
    w.begin_object();
    w.key("n");
    w.integer(i);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"iterations":[{"n":0},{"n":1}]})");
}

TEST(Json, TopLevelArray) {
  JsonWriter w;
  w.begin_array();
  w.string_value("a");
  w.string_value("b");
  w.integer(3);
  w.end_array();
  EXPECT_EQ(w.str(), R"(["a","b",3])");
}

TEST(Json, EscapingControlAndSpecialCharacters) {
  EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  JsonWriter w;
  w.begin_array();
  w.number(std::nan(""));
  w.number(1.0 / 0.0);
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

TEST(Json, StructuralErrorsThrow) {
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.string_value("no key"), Error);
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.key("keys are for objects"), Error);
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.end_array(), Error);
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.str(), Error);  // unbalanced
  }
}

TEST(Json, EmptyContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("empty_list");
  w.begin_array();
  w.end_array();
  w.key("empty_obj");
  w.begin_object();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"empty_list":[],"empty_obj":{}})");
}

// Byte pins for the writer's output: every control character, the escaped
// characters in keys and values, the integer extremes, nested empty
// containers, spliced raw values and the %.17g number format.
TEST(JsonWriterBytes, EveryControlCharacterInKeyAndValue) {
  std::string controls;
  for (int c = 0; c < 0x20; ++c) controls.push_back(static_cast<char>(c));
  const std::string escaped =
      "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
      "\\u0008\\t\\n\\u000b\\u000c\\r\\u000e\\u000f"
      "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
      "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f";
  JsonWriter w;
  w.begin_object();
  w.key(controls);
  w.string_value(controls + "\x7f");
  w.end_object();
  EXPECT_EQ(w.str(), "{\"" + escaped + "\":\"" + escaped + "\x7f\"}");
  EXPECT_EQ(JsonWriter::escape(controls), escaped);
}

TEST(JsonWriterBytes, QuoteAndBackslashInKeys) {
  JsonWriter w;
  w.begin_object();
  w.key("a\"b\\c");
  w.string_value("\"\\");
  w.key("");
  w.string_value("");
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a\"b\\c":"\"\\","":""})");
}

TEST(JsonWriterBytes, IntegerExtremes) {
  JsonWriter w;
  w.begin_array();
  w.integer(LLONG_MIN);
  w.integer(LLONG_MAX);
  w.integer(0);
  w.integer(-1);
  w.end_array();
  EXPECT_EQ(w.str(),
            "[-9223372036854775808,9223372036854775807,0,-1]");
}

TEST(JsonWriterBytes, NestedEmptyContainers) {
  JsonWriter w;
  w.begin_array();
  w.begin_array();
  w.begin_object();
  w.end_object();
  w.begin_array();
  w.end_array();
  w.end_array();
  w.begin_object();
  w.key("o");
  w.begin_object();
  w.key("a");
  w.begin_array();
  w.end_array();
  w.end_object();
  w.end_object();
  w.end_array();
  EXPECT_EQ(w.str(), R"([[{},[]],{"o":{"a":[]}}])");
}

TEST(JsonWriterBytes, RawValueSplicedVerbatim) {
  JsonWriter w;
  w.begin_object();
  w.key("report");
  w.raw_value(R"({"x": [1, 2]})");
  w.key("n");
  w.integer(1);
  w.end_object();
  w.begin_array();  // a second top-level value is comma-separated
  w.raw_value("null");
  w.raw_value("\"s\"");
  w.end_array();
  EXPECT_EQ(w.str(), R"({"report":{"x": [1, 2]},"n":1},[null,"s"])");
}

TEST(JsonWriterBytes, NumbersUsePercent17g) {
  JsonWriter w;
  w.begin_array();
  w.number(0.1);
  w.number(1e300);
  w.number(-0.0);
  w.number(std::nan(""));
  w.number(0.5);
  w.number(3.0);
  w.end_array();
  EXPECT_EQ(w.str(),
            "[0.10000000000000001,1.0000000000000001e+300,-0,null,0.5,3]");
}

TEST(JsonWriterBytes, StrMovesTheDocumentOut) {
  JsonWriter w;
  w.begin_object();
  w.key("k");
  w.string_value("v");
  w.end_object();
  const std::string copy = w.str();
  EXPECT_EQ(std::move(w).str(), copy);
  EXPECT_EQ(copy, R"({"k":"v"})");
}

// ---------------------------------------------------------------------------
// Parser (strict RFC 8259 recursive descent with depth/size limits).
// ---------------------------------------------------------------------------

TEST(JsonParse, ScalarsAndStructure) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse_json("-12.5e2").as_number(), -1250.0);
  EXPECT_EQ(parse_json(R"("hi")").as_string(), "hi");

  const JsonValue v = parse_json(
      R"({"a": 1, "b": [true, null, "x"], "c": {"d": 2}})");
  EXPECT_TRUE(v.is_object());
  EXPECT_EQ(v.get_int("a", -1), 1);
  ASSERT_NE(v.get("b"), nullptr);
  EXPECT_EQ(v.get("b")->items().size(), 3u);
  EXPECT_EQ(v.get("c")->get_int("d", -1), 2);
  EXPECT_EQ(v.get("nope"), nullptr);
  EXPECT_EQ(v.get_string("nope", "fb"), "fb");
}

TEST(JsonParse, TypedAccessorFallbacksAndStrictness) {
  const JsonValue v = parse_json(R"({"s": "x", "n": 3, "b": true,
                                     "arr": ["p", "q"]})");
  // Fallbacks apply only when the member is absent...
  EXPECT_EQ(v.get_string("missing", "fb"), "fb");
  EXPECT_EQ(v.get_int("missing", 9), 9);
  EXPECT_EQ(v.get_bool("missing", true), true);
  EXPECT_EQ(v.get_string_array("missing").size(), 0u);
  // ...a present member of the wrong type is a client error, not a default.
  EXPECT_THROW(v.get_string("n", "fb"), Error);
  EXPECT_THROW(v.get_int("s", 9), Error);
  EXPECT_THROW(v.get_bool("s", false), Error);
  EXPECT_THROW(v.get_string_array("n"), Error);
  const std::vector<std::string> arr = v.get_string_array("arr");
  ASSERT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr[0], "p");
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\/d\n\t\r\b\f")").as_string(),
            "a\"b\\c/d\n\t\r\b\f");
  EXPECT_EQ(parse_json(R"("\u0041\u00e9")").as_string(), "A\xc3\xa9");
  // Surrogate pair: U+1F600 as \ud83d\ude00.
  EXPECT_EQ(parse_json(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonParse, MalformedDocumentsThrow) {
  const char* bad[] = {
      "",                      // empty
      "  ",                    // whitespace only
      "{",                     // truncated object
      "[1, 2",                 // truncated array
      "{\"a\": }",             // missing value
      "{\"a\": 1,}",           // trailing comma
      "[1, 2,]",               // trailing comma
      "{'a': 1}",              // single quotes
      "{\"a\" 1}",             // missing colon
      "{\"a\": 1} extra",      // trailing garbage
      "nul",                   // truncated literal
      "truex",                 // literal + garbage
      "\"unterminated",        // unterminated string
      "\"bad \\q escape\"",    // unknown escape
      "\"\\u12\"",             // short \u
      "\"\\ud800\"",           // lone high surrogate
      "\"\\ude00\"",           // lone low surrogate
      "01",                    // leading zero
      "+1",                    // leading plus
      "1.",                    // bare decimal point
      ".5",                    // missing integer part
      "1e",                    // empty exponent
      "- 1",                   // space inside number
      "\x01",                  // control character
  };
  for (const char* doc : bad) {
    EXPECT_THROW(parse_json(doc), Error) << "accepted: " << doc;
  }
  // Unescaped control character inside a string.
  EXPECT_THROW(parse_json(std::string("\"a\x01b\"")), Error);
}

TEST(JsonParse, DepthLimitEnforced) {
  std::string deep;
  for (int i = 0; i < 70; ++i) deep += "[";
  for (int i = 0; i < 70; ++i) deep += "]";
  EXPECT_THROW(parse_json(deep), Error);  // default max_depth = 64

  JsonParseOptions loose;
  loose.max_depth = 128;
  EXPECT_NO_THROW(parse_json(deep, loose));

  JsonParseOptions tight;
  tight.max_depth = 2;
  EXPECT_NO_THROW(parse_json("[[1]]", tight));
  EXPECT_THROW(parse_json("[[[1]]]", tight), Error);
}

TEST(JsonParse, SizeLimitEnforced) {
  JsonParseOptions opts;
  opts.max_bytes = 16;
  EXPECT_NO_THROW(parse_json("[1,2,3]", opts));
  EXPECT_THROW(parse_json("[1,2,3,4,5,6,7,8,9]", opts), Error);
}

TEST(JsonParse, ErrorsCarryByteOffsets) {
  try {
    parse_json("{\"a\": nope}");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(JsonParse, WriterOutputRoundTrips) {
  JsonWriter w;
  w.begin_object();
  w.key("name");
  w.string_value("a\"b\\c\nd");
  w.key("vals");
  w.begin_array();
  w.integer(-3);
  w.number(0.25);
  w.boolean(true);
  w.null();
  w.end_array();
  w.end_object();
  const JsonValue v = parse_json(w.str());
  EXPECT_EQ(v.get_string("name", ""), "a\"b\\c\nd");
  const auto& vals = v.get("vals")->items();
  ASSERT_EQ(vals.size(), 4u);
  EXPECT_DOUBLE_EQ(vals[0].as_number(), -3.0);
  EXPECT_DOUBLE_EQ(vals[1].as_number(), 0.25);
  EXPECT_EQ(vals[2].as_bool(), true);
  EXPECT_TRUE(vals[3].is_null());
}

TEST(JsonParse, MemberOrderPreserved) {
  const JsonValue v = parse_json(R"({"z": 1, "a": 2, "m": 3})");
  const auto& members = v.members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

}  // namespace
}  // namespace rca
