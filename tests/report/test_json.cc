/**
 * @file
 * JsonValue serializer/parser tests: construction, escaping, exact
 * integer round-trips, structural equality, and malformed-input
 * rejection.
 */

#include <gtest/gtest.h>

#include "report/json.hh"

using namespace specfetch;

TEST(Json, ScalarKinds)
{
    EXPECT_TRUE(JsonValue::null().isNull());
    EXPECT_TRUE(JsonValue::boolean(true).asBool());
    EXPECT_FALSE(JsonValue::boolean(false).asBool());
    EXPECT_EQ(JsonValue::integer(42).asUint(), 42u);
    EXPECT_DOUBLE_EQ(JsonValue::number(1.5).asDouble(), 1.5);
    EXPECT_EQ(JsonValue::string("hi").asString(), "hi");
    // Uint also reads as a double.
    EXPECT_DOUBLE_EQ(JsonValue::integer(7).asDouble(), 7.0);
}

TEST(Json, DumpCompactDeterministic)
{
    JsonValue obj = JsonValue::object();
    obj.set("b", JsonValue::integer(1))
        .set("a", JsonValue::string("x"))
        .set("nested",
             JsonValue::object().set("flag", JsonValue::boolean(false)));
    // Insertion order is preserved; no whitespace.
    EXPECT_EQ(obj.dump(), "{\"b\":1,\"a\":\"x\",\"nested\":{\"flag\":false}}");
}

TEST(Json, SetOverwritesInPlace)
{
    JsonValue obj = JsonValue::object();
    obj.set("k", JsonValue::integer(1));
    obj.set("k", JsonValue::integer(2));
    ASSERT_EQ(obj.members().size(), 1u);
    EXPECT_EQ(obj.find("k")->asUint(), 2u);
}

TEST(Json, EscapingSpecialCharacters)
{
    EXPECT_EQ(JsonValue::escape("plain"), "\"plain\"");
    EXPECT_EQ(JsonValue::escape("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(JsonValue::escape("back\\slash"), "\"back\\\\slash\"");
    EXPECT_EQ(JsonValue::escape("line\nbreak"), "\"line\\nbreak\"");
    EXPECT_EQ(JsonValue::escape("tab\there"), "\"tab\\there\"");
    EXPECT_EQ(JsonValue::escape(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(Json, EscapedStringsRoundTrip)
{
    std::string nasty = "quote\" slash\\ nl\n tab\t ctrl\x02 end";
    JsonValue original = JsonValue::string(nasty);
    JsonValue parsed;
    ASSERT_TRUE(JsonValue::parse(original.dump(), parsed));
    EXPECT_EQ(parsed.asString(), nasty);
}

TEST(Json, LargeIntegersAreExact)
{
    // Larger than 2^53: would be corrupted through a double.
    uint64_t big = 9'007'199'254'740'995ull;
    JsonValue parsed;
    ASSERT_TRUE(JsonValue::parse(JsonValue::integer(big).dump(), parsed));
    ASSERT_TRUE(parsed.isUint());
    EXPECT_EQ(parsed.asUint(), big);
}

TEST(Json, DoublesRoundTripExactly)
{
    for (double value : {0.1, 1.0 / 3.0, 2.875, 1e-20, 3.5e18}) {
        JsonValue parsed;
        ASSERT_TRUE(
            JsonValue::parse(JsonValue::number(value).dump(), parsed));
        EXPECT_EQ(parsed.asDouble(), value);
    }
}

TEST(Json, NestedDocumentRoundTrip)
{
    JsonValue doc = JsonValue::object();
    doc.set("name", JsonValue::string("run"))
        .set("count", JsonValue::integer(123456789))
        .set("rate", JsonValue::number(0.0625))
        .set("ok", JsonValue::boolean(true))
        .set("missing", JsonValue::null())
        .set("list", JsonValue::array()
                         .push(JsonValue::integer(1))
                         .push(JsonValue::string("two"))
                         .push(JsonValue::object().set(
                             "three", JsonValue::integer(3))));
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(doc.dump(), parsed, &error)) << error;
    EXPECT_EQ(parsed, doc);
    EXPECT_EQ(parsed.dump(), doc.dump());
}

TEST(Json, ParseAcceptsWhitespace)
{
    JsonValue parsed;
    ASSERT_TRUE(JsonValue::parse("  { \"a\" : [ 1 , 2 ] }\n", parsed));
    EXPECT_EQ(parsed.find("a")->size(), 2u);
    EXPECT_EQ(parsed.find("a")->at(1).asUint(), 2u);
}

TEST(Json, ParseNegativeAndExponentNumbers)
{
    JsonValue parsed;
    ASSERT_TRUE(JsonValue::parse("[-2.5, 1e3, -7]", parsed));
    EXPECT_DOUBLE_EQ(parsed.at(0).asDouble(), -2.5);
    EXPECT_DOUBLE_EQ(parsed.at(1).asDouble(), 1000.0);
    EXPECT_DOUBLE_EQ(parsed.at(2).asDouble(), -7.0);
}

TEST(Json, ParseRejectsMalformedInput)
{
    JsonValue out;
    for (const char *bad :
         {"", "{", "}", "{\"a\":}", "{\"a\" 1}", "[1,]", "tru", "\"open",
          "{\"a\":1} trailing", "01a", "1.", "--3", "{'a':1}",
          "\"bad\\q\"", "\"\\u12g4\""}) {
        std::string error;
        EXPECT_FALSE(JsonValue::parse(bad, out, &error))
            << "accepted: " << bad;
        EXPECT_FALSE(error.empty());
    }

    // Nesting past the limit is malformed input, not a stack overflow:
    // the refusal names the limit, and a document exactly at the limit
    // still parses.
    auto nested = [](size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    std::string error;
    EXPECT_FALSE(JsonValue::parse("{\"id\":" + nested(100'000) + "}", out,
                                  &error));
    EXPECT_NE(error.find(std::to_string(JsonValue::kMaxNesting)),
              std::string::npos)
        << error;
    EXPECT_FALSE(JsonValue::parse(nested(JsonValue::kMaxNesting + 1), out));
    EXPECT_TRUE(JsonValue::parse(nested(JsonValue::kMaxNesting), out));
}

TEST(Json, EqualityIsStructural)
{
    JsonValue a = JsonValue::object().set("x", JsonValue::integer(1));
    JsonValue b = JsonValue::object().set("x", JsonValue::integer(1));
    JsonValue c = JsonValue::object().set("x", JsonValue::integer(2));
    JsonValue d = JsonValue::object().set("y", JsonValue::integer(1));
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(a, d);
    // Kind matters: integer 1 != double 1.0 (golden files must not
    // silently change numeric kind).
    EXPECT_NE(JsonValue::integer(1), JsonValue::number(1.0));
}

TEST(Json, RemoveMember)
{
    JsonValue obj = JsonValue::object();
    obj.set("keep", JsonValue::integer(1))
        .set("drop", JsonValue::integer(2));
    EXPECT_TRUE(obj.remove("drop"));
    EXPECT_FALSE(obj.remove("drop"));
    EXPECT_EQ(obj.find("drop"), nullptr);
    EXPECT_NE(obj.find("keep"), nullptr);
}
