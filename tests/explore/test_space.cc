/**
 * @file
 * Tests of the wsrs-space-v1 parser and the streaming point codec:
 * row-major index decoding, base-preset materialization, feasibility
 * flagging, the parse-time validation errors, and each axis's
 * core-side / memory-side classification.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/common/log.h"
#include "src/explore/space.h"
#include "src/sim/presets.h"
#include "tests/support/json_error.h"

namespace wsrs::explore {
namespace {

const char *kSpec = R"({
  "schema": "wsrs-space-v1",
  "base": {"machine": "WSRS-RC-512", "mem": "constant"},
  "workloads": ["gzip", "mcf"],
  "axes": [
    {"param": "core.num_clusters", "values": [2, 4]},
    {"param": "core.mode", "values": ["conventional", "ws", "wsrs"]},
    {"param": "core.num_phys_regs", "from": 256, "to": 512, "step": 128}
  ]
})";

TEST(SpaceSpecParse, AxesWorkloadsAndBase)
{
    const SpaceSpec spec = parseSpaceSpec(kSpec, "test");
    ASSERT_EQ(spec.axes.size(), 3u);
    EXPECT_EQ(spec.axes[0].param, "core.num_clusters");
    EXPECT_EQ(spec.axes[0].size(), 2u);
    EXPECT_TRUE(spec.axes[1].isEnum);
    EXPECT_EQ(spec.axes[1].labels,
              (std::vector<std::string>{"conventional", "ws", "wsrs"}));
    // Range axis expands to an inclusive arithmetic sequence.
    EXPECT_EQ(spec.axes[2].numeric, (std::vector<double>{256, 384, 512}));
    EXPECT_EQ(spec.workloads,
              (std::vector<std::string>{"gzip", "mcf"}));
    EXPECT_EQ(spec.baseMachineLabel, "WSRS-RC-512");
    EXPECT_EQ(spec.baseMemLabel, "constant");
    EXPECT_EQ(spec.totalPoints(), 18u);
}

TEST(SpaceSpecParse, RejectsMalformedSpecs)
{
    const auto reject = [](const char *text) {
        EXPECT_THROW(parseSpaceSpec(text, "test"), FatalError) << text;
    };
    reject("{");                                     // not JSON
    reject(R"({"schema": "nope", "axes": []})");     // wrong schema
    reject(R"({"schema": "wsrs-space-v1", "base": {"machine": "RR-256"},
               "workloads": ["gzip"], "axes": []})"); // no axes
    reject(R"({"schema": "wsrs-space-v1", "base": {"machine": "RR-256"},
               "workloads": ["gzip"],
               "axes": [{"param": "core.bogus", "values": [1]}]})");
    reject(R"({"schema": "wsrs-space-v1", "base": {"machine": "RR-256"},
               "workloads": ["not-a-benchmark"],
               "axes": [{"param": "core.fetch_width", "values": [8]}]})");
    reject(R"({"schema": "wsrs-space-v1", "base": {"machine": "RR-256"},
               "workloads": ["gzip"],
               "axes": [{"param": "core.mode", "values": ["sideways"]}]})");
    reject(R"({"schema": "wsrs-space-v1", "base": {"machine": "RR-256"},
               "workloads": ["gzip"],
               "axes": [{"param": "core.fetch_width",
                         "from": 8, "to": 4, "step": 1}]})");

    // Ranges are counted before they are expanded: none of these may
    // loop or allocate without bound.
    const auto range = [](const std::string &bounds) {
        return R"({"schema": "wsrs-space-v1", "base": {"machine": "RR-256"},
                   "workloads": ["gzip"],
                   "axes": [{"param": "core.num_phys_regs", )" +
               bounds + "}]}";
    };
    for (const char *bounds :
         {R"("from": 256, "to": 1e400)",            // not a double
          R"("from": 256, "to": 1e12, "step": 1)",  // 10^12 values
          R"("from": -1e308, "to": 1e308)",         // count overflows
          R"("from": 1e20, "to": 1e20, "step": 1)", // step lost to rounding
          R"("from": 0, "to": 4096)"})              // one past the cap
        reject(range(bounds).c_str());
    try {
        parseSpaceSpec(range(R"("from": 256, "to": 1e12, "step": 1)"),
                       "test");
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "axis 'core.num_phys_regs' has more than 4096 values"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(parseSpaceSpec(range(R"("from": 1, "to": 4096)"), "test")
                  .axes[0]
                  .size(),
              kMaxAxisValues);
}

TEST(SpaceCodec, RowMajorDecode)
{
    const SpaceSpec spec = parseSpaceSpec(kSpec, "test");
    std::uint32_t digits[3];
    decodePoint(spec, 0, digits);
    EXPECT_EQ(digits[0], 0u);
    EXPECT_EQ(digits[1], 0u);
    EXPECT_EQ(digits[2], 0u);
    decodePoint(spec, 17, digits);
    EXPECT_EQ(digits[0], 1u);
    EXPECT_EQ(digits[1], 2u);
    EXPECT_EQ(digits[2], 2u);
    // First axis outermost: index = ((d0 * 3) + d1) * 3 + d2.
    decodePoint(spec, 1 * 9 + 2 * 3 + 1, digits);
    EXPECT_EQ(digits[0], 1u);
    EXPECT_EQ(digits[1], 2u);
    EXPECT_EQ(digits[2], 1u);
}

TEST(SpaceCodec, MaterializeAppliesAxes)
{
    const SpaceSpec spec = parseSpaceSpec(kSpec, "test");
    // digits {1, 2, 1}: 4 clusters, wsrs, 384 registers.
    const std::uint32_t digits[3] = {1, 2, 1};
    const ConfigPoint pt = materializePoint(spec, digits);
    EXPECT_TRUE(pt.feasible);
    EXPECT_EQ(pt.core.numClusters, 4u);
    EXPECT_EQ(pt.core.mode, core::RegFileMode::Wsrs);
    EXPECT_EQ(pt.core.numPhysRegs, 384u);
}

TEST(SpaceCodec, InfeasiblePointsAreFlaggedNotSkipped)
{
    const SpaceSpec spec = parseSpaceSpec(kSpec, "test");
    // digits {0, 2, 0}: 2-cluster WSRS — the paired-subset geometry
    // requires exactly 4 clusters.
    const std::uint32_t digits[3] = {0, 2, 0};
    const ConfigPoint pt = materializePoint(spec, digits);
    EXPECT_FALSE(pt.feasible);
    ASSERT_NE(pt.whyInfeasible, nullptr);
    EXPECT_NE(std::string(pt.whyInfeasible), "");
}

TEST(SpaceCodec, PointNamesAndConfigJson)
{
    const SpaceSpec spec = parseSpaceSpec(kSpec, "test");
    EXPECT_EQ(pointName(0), "x0");
    EXPECT_EQ(pointName(42), "x42");
    std::uint32_t digits[3];
    for (std::uint64_t idx : {std::uint64_t(0), std::uint64_t(7),
                              std::uint64_t(17)}) {
        decodePoint(spec, idx, digits);
        const std::string json = pointConfigJson(spec, digits);
        EXPECT_EQ(test::jsonError(json), "") << json;
        for (const auto &ax : spec.axes)
            EXPECT_NE(json.find('"' + ax.param + '"'), std::string::npos)
                << json;
    }
}

TEST(SpaceCodec, SupportedParamCatalog)
{
    const std::vector<std::string> params = supportedParams();
    EXPECT_GE(params.size(), 30u);
    for (const char *must :
         {"core.num_clusters", "core.mode", "core.policy",
          "core.num_phys_regs", "mem.l2_kb", "mem.model"})
        EXPECT_NE(std::find(params.begin(), params.end(), must),
                  params.end())
            << must;
}

TEST(SpaceCodec, MemorySideAxesFeedOnlyTheMemoryTerms)
{
    // Every mem.* axis is memory-side except mem.l1_latency, which
    // stretches the core-side chain latency; every core.* axis is
    // core-side. The explorer's sweep reuses core terms across steps of
    // memory-side axes, so a misfiled axis would score points wrongly.
    const std::map<std::string, std::string> enumValue = {
        {"core.mode", "\"ws\""},         {"core.policy", "\"rr\""},
        {"core.rename_impl", "\"impl1\""}, {"core.ff_scope", "\"intra\""},
        {"mem.model", "\"dram\""}};
    for (const std::string &param : supportedParams()) {
        const auto e = enumValue.find(param);
        const std::string value = e == enumValue.end() ? "4" : e->second;
        const std::string text =
            R"({"schema": "wsrs-space-v1", "axes": [{"param": ")" + param +
            R"(", "values": [)" + value + "]}]}";
        const SpaceSpec spec = parseSpaceSpec(text, param);
        ASSERT_EQ(spec.axes.size(), 1u);
        const bool memorySide =
            param.rfind("mem.", 0) == 0 && param != "mem.l1_latency";
        EXPECT_EQ(spec.axes[0].memorySide, memorySide) << param;
    }
}

} // namespace
} // namespace wsrs::explore
