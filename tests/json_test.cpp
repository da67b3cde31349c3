#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dockmine/json/json.h"

namespace dockmine::json {
namespace {

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(parse("null").value().is_null());
  EXPECT_EQ(parse("true").value().as_bool(), true);
  EXPECT_EQ(parse("false").value().as_bool(), false);
  EXPECT_EQ(parse("42").value().as_int(), 42);
  EXPECT_EQ(parse("-7").value().as_int(), -7);
  EXPECT_DOUBLE_EQ(parse("3.5").value().as_double(), 3.5);
  EXPECT_DOUBLE_EQ(parse("1e3").value().as_double(), 1000.0);
  EXPECT_EQ(parse("\"hi\"").value().as_string(), "hi");
}

TEST(JsonParseTest, IntegerVsDoubleDistinction) {
  EXPECT_TRUE(parse("5278465130").value().is_int());
  EXPECT_EQ(parse("5278465130").value().as_uint(), 5278465130ULL);
  EXPECT_FALSE(parse("5.0").value().is_int());
  // Overflowing integers degrade to double instead of failing.
  EXPECT_TRUE(parse("99999999999999999999999").value().is_number());
}

TEST(JsonParseTest, NestedStructure) {
  auto doc = parse(R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}})");
  ASSERT_TRUE(doc.ok());
  const Value& root = doc.value();
  EXPECT_EQ(root["a"].size(), 3u);
  EXPECT_EQ(root["a"].at(2)["b"].as_string(), "c");
  EXPECT_TRUE(root["d"]["e"].is_null());
  EXPECT_TRUE(root["missing"].is_null());
  EXPECT_TRUE(root["missing"]["deeper"].is_null());
  EXPECT_TRUE(root.contains("a"));
  EXPECT_FALSE(root.contains("z"));
}

TEST(JsonParseTest, StringEscapes) {
  auto doc = parse(R"("a\"b\\c\/d\n\tAé")");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().as_string(), "a\"b\\c/d\n\tA\xc3\xa9");
}

TEST(JsonParseTest, RejectsMalformed) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "01x", "\"unterminated",
        "{\"a\":1}extra", "[1 2]", "{\"a\" 1}", "\"bad\\q\"", "nan",
        "\"raw\ncontrol\""}) {
    EXPECT_FALSE(parse(bad).ok()) << bad;
  }
}

TEST(JsonParseTest, DeepNestingIsBounded) {
  std::string deep(500, '[');
  deep += std::string(500, ']');
  EXPECT_FALSE(parse(deep).ok());
}

TEST(JsonDumpTest, CompactStableOrder) {
  Value obj = Value::object();
  obj.set("z", 1);
  obj.set("a", Value::array());
  obj.set("z", 2);  // replace, keeps position
  EXPECT_EQ(obj.dump(), R"({"z":2,"a":[]})");
}

TEST(JsonDumpTest, RoundTripsThroughParse) {
  const std::string text =
      R"({"schemaVersion":2,"layers":[{"size":123,"digest":"sha256:ab"},)"
      R"({"size":0,"digest":""}],"flag":true,"ratio":2.6,"none":null})";
  auto doc = parse(text);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().dump(), text);
}

TEST(JsonDumpTest, EscapesControlCharacters) {
  Value v(std::string("a\x01""b\n"));
  EXPECT_EQ(v.dump(), "\"a\\u0001b\\n\"");
}

TEST(JsonDumpTest, PrettyPrintsIndented) {
  Value obj = Value::object();
  obj.set("a", 1);
  const std::string pretty = obj.dump_pretty();
  EXPECT_NE(pretty.find("{\n  \"a\": 1\n}"), std::string::npos);
}

TEST(JsonDumpTest, NonFiniteBecomesNull) {
  Value v(std::numeric_limits<double>::infinity());
  EXPECT_EQ(v.dump(), "null");
}

// The writer's earlier rule, kept as the reference: %.15g, then %.16g, then
// %.17g, stopping at the first that strtod reads back exactly.
std::string reference_double(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

// Every class of double a report can hold, and the edges of the format:
// over a million values in all.
std::vector<double> formatter_corpus() {
  std::vector<double> values;
  std::mt19937_64 rng(20170530);
  // Random finite bit patterns: every exponent, sign and mantissa.
  while (values.size() < 400000) {
    const double d = std::bit_cast<double>(rng());
    if (std::isfinite(d)) values.push_back(d);
  }
  // Uniform [0,1), the shape of shares and ratios, plus scaled copies.
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 100000; ++i) {
    const double u = unit(rng);
    for (const double scale : {1.0, 100.0, 1e6, 1e-4, 12345.678}) {
      values.push_back(u * scale);
    }
  }
  // Integers up to 2^53 (byte counts held as doubles), small and large.
  for (std::uint64_t i = 0; i < 50000; ++i) {
    values.push_back(static_cast<double>(i));
  }
  for (int i = 0; i < 150000; ++i) {
    values.push_back(static_cast<double>(rng() >> 11));  // < 2^53
  }
  // Powers of 2 and 10 with their nextafter neighbours.
  const auto with_neighbours = [&values](double d) {
    values.push_back(d);
    values.push_back(std::nextafter(d, 0.0));
    values.push_back(std::nextafter(d, std::numeric_limits<double>::infinity()));
    values.push_back(-d);
  };
  for (int e = -1074; e <= 1023; ++e) with_neighbours(std::ldexp(1.0, e));
  for (int e = -323; e <= 308; ++e) {
    with_neighbours(std::strtod(("1e" + std::to_string(e)).c_str(), nullptr));
  }
  // Subnormals, the extremes, and both zeros.
  const double min_normal = std::numeric_limits<double>::min();
  for (int i = 0; i < 50000; ++i) {
    values.push_back(std::bit_cast<double>(rng() & ((std::uint64_t{1} << 52) - 1)));
  }
  for (const double d : {0.0, -0.0, min_normal, std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::epsilon()}) {
    with_neighbours(d);
  }
  // The report grid's quantiles.
  for (const double q : {0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95,
                         0.99, 1.0}) {
    values.push_back(q);
  }
  return values;
}

TEST(JsonDumpTest, DoublesPrintTheBytesOfThePrintfStrtodRule) {
  const std::vector<double> values = formatter_corpus();
  ASSERT_GE(values.size(), 1000000u);
  std::size_t differences = 0;
  for (const double d : values) {
    const std::string got = Value(d).dump();
    const std::string want = reference_double(d);
    if (got != want && ++differences <= 10) {
      ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(d) << ": wrote "
                    << got << ", the reference prints " << want;
    }
  }
  EXPECT_EQ(differences, 0u) << "of " << values.size() << " doubles";

  // Non-finite values stay null, also inside containers.
  Value row = Value::array();
  row.push_back(std::numeric_limits<double>::quiet_NaN());
  row.push_back(-std::numeric_limits<double>::infinity());
  row.push_back(100000.0);
  row.push_back(0.1);
  EXPECT_EQ(row.dump(), "[null,null,100000,0.1]");
}

TEST(JsonDumpTest, EscapesKeysLikeStrings) {
  Value obj = Value::object();
  obj.set("a\"b\\c\x1f\t", std::string("\x7f\xc3\xa9\r"));
  EXPECT_EQ(obj.dump(),
            "{\"a\\\"b\\\\c\\u001f\\t\":\"\x7f\xc3\xa9\\r\"}");
  EXPECT_EQ(escape("plain"), "plain");
  EXPECT_EQ(escape(std::string("\0", 1)), "\\u0000");
}

TEST(JsonPreserializedTest, SplicesTheTreesBytesVerbatim) {
  Value tree = Value::object();
  tree.set("ratio", 2.6);
  tree.set("big", 1e5);
  tree.set("rows", Value(Array{Value(1), Value("two"), Value()}));
  const Value node = Value::preserialized(tree);
  EXPECT_EQ(node.type(), Type::kPreserialized);
  EXPECT_EQ(node.dump(), tree.dump());
  EXPECT_EQ(node.dump(), R"({"ratio":2.6,"big":100000,"rows":[1,"two",null]})");

  // Inside an envelope it writes what the tree would have written.
  Value envelope = Value::object();
  envelope.set("id", 7);
  envelope.set("body", node);
  Value expected = Value::object();
  expected.set("id", 7);
  expected.set("body", tree);
  EXPECT_EQ(envelope.dump(), expected.dump());
  // Pretty output keeps the bytes compact where the node sits.
  EXPECT_EQ(envelope.dump_pretty(),
            "{\n  \"id\": 7,\n  \"body\": " + tree.dump() + "\n}");

  // Opaque: it reads as no container, and parsing its bytes gives the tree.
  EXPECT_FALSE(node.is_object());
  EXPECT_EQ(node.size(), 0u);
  EXPECT_TRUE(node["ratio"].is_null());
  auto parsed = parse(node.dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().type(), Type::kObject);
  EXPECT_EQ(parsed.value().dump(), tree.dump());
}

TEST(JsonValueTest, PushBackBuildsArray) {
  Value arr = Value::array();
  arr.push_back(1);
  arr.push_back("two");
  EXPECT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr.at(1).as_string(), "two");
}

}  // namespace
}  // namespace dockmine::json
