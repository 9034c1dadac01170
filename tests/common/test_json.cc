/**
 * @file
 * Strictness and fidelity contract of the JSON parser: exactly one
 * RFC 8259 document, int64 preservation, byte-offset errors. And the
 * writer's: both styles, every value kind, and output that parses back.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "src/common/json.h"
#include "src/common/log.h"

namespace wsrs {
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

    const JsonValue mixed =
        parseJson("{\"a\": [1, 2.5e-3, \"s\\n\", null]}", "test");
    EXPECT_DOUBLE_EQ(mixed.get("a").asArray()[1].asDouble(), 2.5e-3);
    EXPECT_EQ(mixed.get("a").asArray()[2].asString(), "s\n");
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
    const auto error = [](std::string_view text) -> std::string {
        try {
            parseJson(text, "test");
        } catch (const FatalError &e) {
            return e.what();
        }
        return "";
    };
    // Every emitter stays below this depth; one level more must fail.
    const auto nested = [](int depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_EQ(error(nested(kJsonMaxDepth)), "");
    const std::string tooDeep = nested(kJsonMaxDepth + 1);

    for (const char *bad :
         {"", "{", "[1,]", "{\"a\" 1}", "{'a': 1}", "nul", "01", "+1",
          "\"unterminated", "{\"a\": 1,}",
          // nan/inf have no JSON spelling; Python's json.load refuses
          // them too.
          "{\"a\": nan}", "{\"a\": inf}", "{\"a\": 1} extra",
          "{\"a\": \"unterminated}", "{\"a\": \"bad\x01" "ctl\"}",
          "[1, 2",
          // A number that overflows a double is not read as infinity.
          "1e400", "[-1e400]", "{\"to\": 1e309}", tooDeep.c_str()})
        EXPECT_NE(error(bad).find("test: JSON parse error at offset"),
                  std::string::npos)
            << bad;
    EXPECT_NE(error(tooDeep).find("nesting too deep"), std::string::npos);
    EXPECT_NE(error("[1, 1e400]").find("offset 4: number overflows a double"),
              std::string::npos);
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

/** What @p body writes in @p style; it must parse back. */
std::string
written(JsonWriter::Style style, const std::function<void(JsonWriter &)> &body)
{
    std::ostringstream os;
    JsonWriter w(os, style);
    body(w);
    EXPECT_NO_THROW(parseJson(os.str(), "writer output")) << os.str();
    return os.str();
}

TEST(JsonWriter, StylesDifferOnlyInSeparators)
{
    const auto body = [](JsonWriter &w) {
        w.beginObject()
            .field("a", 1)
            .key("b")
            .beginArray()
            .value(true)
            .value("s")
            .null()
            .endArray()
            .endObject();
    };
    EXPECT_EQ(written(JsonWriter::Style::Compact, body),
              R"({"a":1,"b":[true,"s",null]})");
    EXPECT_EQ(written(JsonWriter::Style::Spaced, body),
              R"({"a": 1, "b": [true, "s", null]})");
}

TEST(JsonWriter, EmptyAndNestedContainers)
{
    const auto spaced = JsonWriter::Style::Spaced;
    EXPECT_EQ(written(spaced, [](JsonWriter &w) {
                  w.beginObject().endObject();
              }),
              "{}");
    EXPECT_EQ(written(spaced, [](JsonWriter &w) {
                  w.beginArray().endArray();
              }),
              "[]");
    EXPECT_EQ(written(spaced,
                      [](JsonWriter &w) {
                          w.beginObject().key("e").beginArray().endArray();
                          w.key("o").beginObject().endObject();
                          w.key("n").beginArray().beginArray().value(1);
                          w.endArray().beginObject().key("d").beginArray();
                          w.endArray().endObject().endArray().endObject();
                      }),
              R"({"e": [], "o": {}, "n": [[1], {"d": []}]})");
    // The writer may nest exactly as deep as the parser accepts.
    const std::string deepest = written(spaced, [](JsonWriter &w) {
        for (int i = 0; i < kJsonMaxDepth; ++i)
            w.beginArray();
        for (int i = 0; i < kJsonMaxDepth; ++i)
            w.endArray();
    });
    EXPECT_EQ(deepest.size(), 2u * kJsonMaxDepth);
}

TEST(JsonWriter, IntegersPrintAsNumbers)
{
    const std::uint8_t clusters = 4;
    const std::int64_t low = std::numeric_limits<std::int64_t>::min();
    const std::string doc =
        written(JsonWriter::Style::Compact, [&](JsonWriter &w) {
            w.beginArray().value(clusters).value(low).value(-1).endArray();
        });
    EXPECT_EQ(doc, "[4,-9223372036854775808,-1]");
    EXPECT_EQ(parseJson(doc, "test").asArray()[1].asInt(), low);
}

TEST(JsonWriter, NonFiniteDoublesAreNull)
{
    EXPECT_EQ(written(JsonWriter::Style::Spaced,
                      [](JsonWriter &w) {
                          w.beginArray()
                              .value(std::nan(""))
                              .value(1.0 / 0.0)
                              .value(-1.0 / 0.0)
                              .value(0.25)
                              .endArray();
                      }),
              "[null, null, null, 0.25]");
}

TEST(JsonWriter, HostileKeysAndValuesRoundTrip)
{
    const std::string key = "k\"ey\\\n\x01";
    const std::string val = "v\"al\t\r\b\f\x1f/\xc3\xa9";
    const std::string doc =
        written(JsonWriter::Style::Spaced, [&](JsonWriter &w) {
            w.beginObject().field(key, val).endObject();
        });
    EXPECT_EQ(doc, "{\"k\\\"ey\\\\\\n\\u0001\": "
                   "\"v\\\"al\\t\\r\\b\\f\\u001f/\xc3\xa9\"}");
    EXPECT_EQ(parseJson(doc, "test").getString(key, ""), val);
}

TEST(JsonWriter, RawEmbedsSerializedValues)
{
    const std::string doc =
        written(JsonWriter::Style::Compact, [](JsonWriter &w) {
            w.beginArray()
                .raw(R"({"spaced": [1, 2]})")
                .raw("7")
                .beginObject()
                .key("r")
                .raw("null")
                .endObject()
                .endArray();
        });
    EXPECT_EQ(doc, R"([{"spaced": [1, 2]},7,{"r":null}])");
}

} // namespace
} // namespace wsrs
