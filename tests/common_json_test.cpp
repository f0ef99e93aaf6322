#include "common/json.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace hpcla {
namespace {

TEST(JsonTest, ScalarConstruction) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(nullptr).is_null());
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(7).is_int());
  EXPECT_TRUE(Json(std::int64_t{1} << 40).is_int());
  EXPECT_TRUE(Json(3.5).is_double());
  EXPECT_TRUE(Json("s").is_string());
  EXPECT_TRUE(Json::object().is_object());
  EXPECT_TRUE(Json::array().is_array());
}

TEST(JsonTest, ObjectInsertionOrderPreserved) {
  Json j = Json::object();
  j["zulu"] = 1;
  j["alpha"] = 2;
  j["mike"] = 3;
  EXPECT_EQ(j.dump(), R"({"zulu":1,"alpha":2,"mike":3})");
}

TEST(JsonTest, ObjectOverwriteKeepsPosition) {
  Json j = Json::object();
  j["a"] = 1;
  j["b"] = 2;
  j["a"] = 9;
  EXPECT_EQ(j.dump(), R"({"a":9,"b":2})");
}

TEST(JsonTest, NestedBuild) {
  Json q = Json::object();
  q["query"] = "heatmap";
  q["range"]["begin"] = 1489468800;
  q["range"]["end"] = 1489472400;
  q["types"].push_back("MCE");
  q["types"].push_back("LustreError");
  EXPECT_EQ(q.dump(),
            R"({"query":"heatmap","range":{"begin":1489468800,"end":1489472400},)"
            R"("types":["MCE","LustreError"]})");
}

TEST(JsonTest, ParseScalars) {
  EXPECT_TRUE(Json::parse("null")->is_null());
  EXPECT_EQ(Json::parse("true")->as_bool(), true);
  EXPECT_EQ(Json::parse("false")->as_bool(), false);
  EXPECT_EQ(Json::parse("42")->as_int(), 42);
  EXPECT_EQ(Json::parse("-17")->as_int(), -17);
  EXPECT_DOUBLE_EQ(Json::parse("2.5")->as_double(), 2.5);
  EXPECT_DOUBLE_EQ(Json::parse("1e3")->as_double(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"")->as_string(), "hi");
}

TEST(JsonTest, ParsePreservesInt64) {
  auto j = Json::parse("1489468866");
  ASSERT_TRUE(j.is_ok());
  EXPECT_TRUE(j->is_int());
  EXPECT_EQ(j->as_int(), 1489468866);
}

TEST(JsonTest, ParseStringEscapes) {
  auto j = Json::parse(R"("line1\nline2\t\"quoted\" \\ A")");
  ASSERT_TRUE(j.is_ok());
  EXPECT_EQ(j->as_string(), "line1\nline2\t\"quoted\" \\ A");
}

TEST(JsonTest, UnicodeEscapeToUtf8) {
  auto j = Json::parse("\"\\u00e9\\u20acA\"");  // é € A
  ASSERT_TRUE(j.is_ok());
  EXPECT_EQ(j->as_string(), "\xc3\xa9\xe2\x82\xac" "A");
}

TEST(JsonTest, ParseRejectsGarbage) {
  EXPECT_FALSE(Json::parse("").is_ok());
  EXPECT_FALSE(Json::parse("{").is_ok());
  EXPECT_FALSE(Json::parse("[1,]").is_ok());
  EXPECT_FALSE(Json::parse("{\"a\":}").is_ok());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").is_ok());
  EXPECT_FALSE(Json::parse("tru").is_ok());
  EXPECT_FALSE(Json::parse("1 2").is_ok());
  EXPECT_FALSE(Json::parse("\"unterminated").is_ok());
  EXPECT_FALSE(Json::parse("01a").is_ok());
  EXPECT_FALSE(Json::parse("1.").is_ok());
  EXPECT_FALSE(Json::parse("1e").is_ok());
}

TEST(JsonTest, DeepNestingLimit) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(Json::parse(deep).is_ok());
}

TEST(JsonTest, FallibleGetters) {
  Json q = Json::object();
  q["n"] = 5;
  q["name"] = "mce";
  q["live"] = true;
  q["frac"] = 0.25;
  EXPECT_EQ(q.get_int("n").value(), 5);
  EXPECT_EQ(q.get_string("name").value(), "mce");
  EXPECT_EQ(q.get_bool("live").value(), true);
  EXPECT_DOUBLE_EQ(q.get_double("frac").value(), 0.25);
  EXPECT_FALSE(q.get_int("missing").is_ok());
  EXPECT_FALSE(q.get_int("name").is_ok());
  EXPECT_FALSE(q.get_string("n").is_ok());
  EXPECT_FALSE(Json(3).get_int("x").is_ok());  // not an object
  // Integral doubles outside int64's range are not integers: casting them
  // would be undefined. The parser reads an int64-overflowing literal as a
  // double.
  for (const char* text : {R"({"n":1e300})", R"({"n":-1e19})",
                           R"({"n":25000000000000000000})"}) {
    auto parsed = Json::parse(text);
    ASSERT_TRUE(parsed.is_ok()) << text;
    const auto n = parsed.value().get_int("n");
    ASSERT_FALSE(n.is_ok()) << text << " -> " << n.value();
    EXPECT_EQ(n.status().code(), StatusCode::kInvalidArgument) << text;
  }
  // The range ends are exact: -2^63 is an int64, 2^63 is not.
  q["lo"] = -9223372036854775808.0;
  q["hi"] = 9223372036854775808.0;
  EXPECT_EQ(q.get_int("lo").value(), INT64_MIN);
  EXPECT_FALSE(q.get_int("hi").is_ok());
}

TEST(JsonTest, ConstIndexOnMissingReturnsNull) {
  const Json q = Json::object();
  EXPECT_TRUE(q["anything"].is_null());
  const Json notobj = 5;
  EXPECT_TRUE(notobj["k"].is_null());
}

TEST(JsonTest, EqualityIsDeep) {
  auto a = Json::parse(R"({"x":[1,2,{"y":true}]})");
  auto b = Json::parse(R"({ "x" : [ 1 , 2 , { "y" : true } ] })");
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value(), b.value());
}

TEST(JsonTest, PrettyPrintIndents) {
  Json j = Json::object();
  j["a"] = 1;
  EXPECT_EQ(j.pretty(), "{\n  \"a\": 1\n}");
}

TEST(JsonTest, ControlCharactersEscapedOnDump) {
  Json j = std::string("a\x01" "b");
  EXPECT_EQ(j.dump(), "\"a\\u0001b\"");
}

TEST(JsonTest, DoubleSerializationStaysDouble) {
  Json j = 2.0;
  auto round = Json::parse(j.dump());
  ASSERT_TRUE(round.is_ok());
  EXPECT_TRUE(round->is_double());
}

class JsonRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(JsonRoundTripTest, DumpParseDumpIsStable) {
  auto first = Json::parse(GetParam());
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  const std::string once = first->dump();
  auto second = Json::parse(once);
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second->dump(), once);
  EXPECT_EQ(first.value(), second.value());
}

INSTANTIATE_TEST_SUITE_P(
    Documents, JsonRoundTripTest,
    ::testing::Values(
        "null", "true", "0", "-1", "9223372036854775807", "0.5",
        R"("")", R"(" tab\t")",
        "[]", "{}", "[[[1]]]",
        R"([1,2.5,"x",null,true,{"k":[]}])",
        R"({"query":"distribution","group_by":"cabinet","hours":[413185,413186]})",
        R"({"ctx":{"type":"GPU_DBE","loc":"c21-3c0s4n2","user":null}})"));

// Randomized structural fuzz: generated documents of bounded depth must
// survive dump -> parse -> dump bit-identically.
namespace fuzz {

Json random_json(hpcla::Rng& rng, int depth) {
  const auto pick = rng.next_below(depth <= 0 ? 5 : 7);
  switch (pick) {
    case 0: return Json(nullptr);
    case 1: return Json(rng.chance(0.5));
    case 2: return Json(static_cast<std::int64_t>(rng.next_u64() >> 1) *
                        (rng.chance(0.5) ? 1 : -1));
    case 3: return Json(rng.normal(0, 1e6));
    case 4: {
      std::string s = rng.hex_string(rng.next_below(12));
      if (rng.chance(0.3)) s += "\"\\\n\t weird ";
      return Json(std::move(s));
    }
    case 5: {
      Json arr = Json::array();
      const auto n = rng.next_below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        arr.push_back(random_json(rng, depth - 1));
      }
      return arr;
    }
    default: {
      Json obj = Json::object();
      const auto n = rng.next_below(4);
      for (std::uint64_t i = 0; i < n; ++i) {
        obj["k" + rng.hex_string(4)] = random_json(rng, depth - 1);
      }
      return obj;
    }
  }
}

}  // namespace fuzz

TEST(JsonFuzzTest, RandomDocumentsRoundTripStably) {
  hpcla::Rng rng(0xF00D);
  for (int i = 0; i < 500; ++i) {
    Json doc = fuzz::random_json(rng, 4);
    const std::string once = doc.dump();
    auto back = Json::parse(once);
    ASSERT_TRUE(back.is_ok()) << once;
    EXPECT_EQ(back->dump(), once) << "iteration " << i;
  }
}

}  // namespace
}  // namespace hpcla
