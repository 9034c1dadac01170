/** @file Unit tests for the statistics package. */
#include <gtest/gtest.h>

#include <sstream>

#include "src/common/stats.h"
#include "tests/support/json_error.h"

namespace wsrs {
namespace {

std::string
dump(const StatGroup &g)
{
    std::ostringstream os;
    JsonWriter w(os, JsonWriter::Style::Spaced);
    g.dumpJson(w);
    return os.str();
}

TEST(Stats, CounterIncrements)
{
    StatGroup g("g");
    Counter c(g, "c");
    EXPECT_EQ(c.name(), "g.c");
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 4;
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, GroupDumpContainsNamesAndValues)
{
    // Members appear in registration order, under group-qualified names.
    StatGroup g("core");
    Counter c(g, "commits");
    Counter s(g, "squashes");
    c += 17;
    s += 2;
    EXPECT_EQ(dump(g), "{\"core.commits\": 17, \"core.squashes\": 2}");
}

TEST(Stats, JsonDumpIsWellFormed)
{
    StatGroup g("core");
    Counter c(g, "commits");
    Counter w(g, "width");
    c += 5;
    const std::string j = dump(g);
    EXPECT_EQ(test::jsonError(j), "");
    EXPECT_EQ(j, "{\"core.commits\": 5, \"core.width\": 0}");
}

TEST(Stats, JsonEscapeSpecialCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("back\\slash"), "back\\\\slash");
    EXPECT_EQ(jsonEscape("nl\ntab\tcr\r"), "nl\\ntab\\tcr\\r");
    EXPECT_EQ(jsonEscape(std::string("ctl\x01") + "\x1f"),
              "ctl\\u0001\\u001f");
}

TEST(Stats, HostileNamesAreEscapedInJson)
{
    StatGroup g("we\"ird");
    Counter c(g, "c\\ount\nr");
    c += 1;
    const std::string j = dump(g);
    EXPECT_EQ(test::jsonError(j), "");
    EXPECT_NE(j.find("\"we\\\"ird.c\\\\ount\\nr\": 1"), std::string::npos);
    EXPECT_EQ(parseJson(j, "test").getInt("we\"ird.c\\ount\nr", 0), 1);
}

TEST(Stats, EveryStatTypeRoundTripsThroughParser)
{
    StatGroup g("core");
    Counter c(g, "commits");
    Counter big(g, "big");
    c += 7;
    big += std::uint64_t{1} << 40;

    const JsonValue doc = parseJson(dump(g), "test");
    EXPECT_EQ(doc.getInt("core.commits", 0), 7);
    EXPECT_EQ(doc.getInt("core.big", 0), std::int64_t{1} << 40);

    // A reset group must still dump a parseable document with zeroed
    // measurements.
    c.reset();
    const std::string after = dump(g);
    EXPECT_EQ(test::jsonError(after), "");
    EXPECT_NE(after.find("\"core.commits\": 0"), std::string::npos);
}

TEST(Stats, JsonLintRejectsMalformedDocuments)
{
    // Sanity-check the test helper itself: documents Python's json.load
    // would reject must not pass as clean.
    EXPECT_NE(test::jsonError("{\"a\": nan}"), "");
    EXPECT_NE(test::jsonError("{\"a\": inf}"), "");
    EXPECT_NE(test::jsonError("{\"a\": 1,}"), "");
    EXPECT_NE(test::jsonError("{\"a\": 1} extra"), "");
    EXPECT_NE(test::jsonError("{\"a\": \"unterminated}"), "");
    EXPECT_NE(test::jsonError("{\"a\": \"bad\x01" "ctl\"}"), "");
    EXPECT_NE(test::jsonError("[1, 2"), "");
    EXPECT_EQ(test::jsonError("{\"a\": [1, 2.5e-3, \"s\\n\", null]}"), "");
}

} // namespace
} // namespace wsrs
