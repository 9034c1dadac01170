/**
 * @file
 * Strictness and fidelity contract of the service-protocol JSON parser:
 * exactly one RFC 8259 document, int64 preservation, byte-offset errors.
 */
#include <gtest/gtest.h>

#include "src/common/log.h"
#include "src/common/stats.h"
#include "src/svc/json_min.h"

namespace wsrs::svc {
namespace {

TEST(JsonMin, ParsesScalarsAndContainers)
{
    const JsonValue doc = parseJson(
        R"({"a": 1, "b": -2.5, "c": "x", "d": [true, false, null],
            "e": {"nested": 42}})",
        "test");
    EXPECT_EQ(doc.getInt("a", 0), 1);
    EXPECT_DOUBLE_EQ(doc.get("b").asDouble(), -2.5);
    EXPECT_EQ(doc.getString("c", ""), "x");
    const auto &arr = doc.get("d").asArray();
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_TRUE(arr[0].asBool());
    EXPECT_FALSE(arr[1].asBool());
    EXPECT_TRUE(arr[2].isNull());
    EXPECT_EQ(doc.get("e").getInt("nested", 0), 42);
}

TEST(JsonMin, PreservesLargeIntegersExactly)
{
    // 2^63 - 1 does not round-trip through a double; the parser must
    // keep integral tokens exact.
    const JsonValue doc =
        parseJson(R"({"k": 9223372036854775807})", "test");
    EXPECT_EQ(doc.getInt("k", 0), 9223372036854775807LL);
}

TEST(JsonMin, DecodesEscapesAndUnicode)
{
    const JsonValue doc =
        parseJson(R"({"s": "a\"b\\c\nAé"})", "test");
    EXPECT_EQ(doc.getString("s", ""), "a\"b\\c\nA\xc3\xa9");
}

TEST(JsonMin, RejectsTrailingGarbageWithOffset)
{
    try {
        parseJson("{} x", "frame body");
        FAIL() << "trailing garbage accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("frame body"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
    }
}

TEST(JsonMin, RejectsMalformedDocuments)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\" 1}", "{'a': 1}", "nul", "01", "+1",
          "\"unterminated", "{\"a\": 1,}"})
        EXPECT_THROW(parseJson(bad, "test"), FatalError) << bad;
}

TEST(JsonMin, AbsentKeysFallBackToDefaults)
{
    const JsonValue doc = parseJson("{}", "test");
    EXPECT_EQ(doc.getInt("missing", 7), 7);
    EXPECT_TRUE(doc.getBool("missing", true));
    EXPECT_EQ(doc.getString("missing", "d"), "d");
    EXPECT_FALSE(doc.has("missing"));
    EXPECT_TRUE(doc.get("missing").isNull());
}

TEST(JsonMin, EscapeRoundTripsThroughParse)
{
    const std::string raw = "quote\" back\\ newline\n tab\t ctrl\x01";
    const JsonValue doc = parseJson(
        "{\"s\": \"" + jsonEscape(raw) + "\"}", "test");
    EXPECT_EQ(doc.getString("s", ""), raw);
}

} // namespace
} // namespace wsrs::svc
