/**
 * @file
 * Tests of the wsrs-space-v1 parser and the streaming point codec:
 * row-major index decoding, base-preset materialization, feasibility
 * flagging, the parse-time validation errors, each axis's
 * core-side / memory-side classification, and the ablation axes
 * (machine, fetch break, replacement, predictor) against the machines
 * the sweeps built by hand before them.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/common/log.h"
#include "src/explore/space.h"
#include "src/sim/presets.h"
#include "src/sim/warmup.h"
#include "src/workload/profiles.h"
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
        {"mem.model", "\"dram\""},       {"machine", "\"RR-256\""},
        {"mem.replacement", "\"random\""}, {"bpred.kind", "\"gshare\""},
        {"core.fetch_break_on_taken", "1"}};
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

/** Parse a spec over gzip with @p axes and materialize point @p index. */
ConfigPoint
pointOf(const std::string &axes, std::uint64_t index, SpaceSpec *out = nullptr)
{
    const SpaceSpec spec = parseSpaceSpec(
        R"({"schema": "wsrs-space-v1", "workloads": ["gzip"], "axes": [)" +
            axes + "]}",
        "test");
    std::vector<std::uint32_t> digits(spec.axes.size());
    decodePoint(spec, index, digits.data());
    if (out != nullptr)
        *out = spec;
    return materializePoint(spec, digits.data());
}

/** @p a equals @p b in every field but the name. */
void
expectSameMachine(const core::CoreParams &a, const core::CoreParams &b)
{
#define WSRS_SAME(f) EXPECT_EQ(a.f, b.f) << #f << " of " << b.name
    WSRS_SAME(numClusters);
    WSRS_SAME(fetchWidth);
    WSRS_SAME(commitWidth);
    WSRS_SAME(issuePerCluster);
    WSRS_SAME(lsusPerCluster);
    WSRS_SAME(fpusPerCluster);
    WSRS_SAME(alusPerCluster);
    WSRS_SAME(clusterWindow);
    WSRS_SAME(lsqSize);
    WSRS_SAME(fetchQueue);
    WSRS_SAME(agenWidth);
    WSRS_SAME(numPhysRegs);
    WSRS_SAME(mode);
    WSRS_SAME(policy);
    WSRS_SAME(renameImpl);
    WSRS_SAME(ffScope);
    WSRS_SAME(frontEndDepth);
    WSRS_SAME(regReadStages);
    WSRS_SAME(recycleDelay);
    WSRS_SAME(writebackPerCluster);
    WSRS_SAME(commutativeFus);
    WSRS_SAME(sharedComplexUnit);
    WSRS_SAME(verifyDataflow);
    WSRS_SAME(deadlockPolicy);
    WSRS_SAME(fetchBreakOnTaken);
    WSRS_SAME(seed);
#undef WSRS_SAME
}

TEST(SpaceAblationAxes, MachineWithRenameImplAndRegsIsThePreset)
{
    // Ablation A1's Impl-2 machine at 320 registers, rebuilt through
    // presetForMode from the machine's mode and policy.
    SpaceSpec spec;
    const ConfigPoint pt = pointOf(
        R"({"param": "machine", "values": ["WSRS-RC-512"]},
           {"param": "core.rename_impl", "values": ["impl1", "impl2"]},
           {"param": "core.num_phys_regs", "values": [384, 320]})",
        3, &spec);
    ASSERT_TRUE(pt.feasible);
    expectSameMachine(pt.core,
                      sim::presetWsrsRc(320, core::RenameImpl::ExactCount));
    const std::uint32_t impl1[] = {0, 0, 0};
    expectSameMachine(
        materializePoint(spec, impl1).core,
        sim::presetWsrsRc(384, core::RenameImpl::OverPickRecycle));
    const std::uint32_t digits[] = {0, 1, 1};
    EXPECT_EQ(pointLabel(spec, digits),
              "WSRS-RC-512/rename_impl=impl2/num_phys_regs=320");
}

TEST(SpaceAblationAxes, MachineWithRegsIsThePresetAtThatCount)
{
    // Ablations A3 and A7: a preset resized without a reshell.
    const std::string axes =
        R"({"param": "machine", "values": ["WSP-512", "WSRR-512", "RR-256"]},
           {"param": "core.num_phys_regs", "values": [640]})";
    expectSameMachine(pointOf(axes, 0).core,
                      sim::presetWriteSpecPools(640));
    expectSameMachine(pointOf(axes, 1).core, sim::presetWriteSpec(640));
    expectSameMachine(pointOf(axes, 2).core, sim::presetConventional(640));

    // 256 registers over WSP's four FU pools is 64 per pool, fewer than
    // the 80 logical registers: its injected moves would deadlock.
    const std::string pools =
        R"({"param": "machine", "values": ["WSP-512"]},
           {"param": "core.num_phys_regs", "values": [256, 320]})";
    EXPECT_FALSE(pointOf(pools, 0).feasible);
    EXPECT_TRUE(pointOf(pools, 1).feasible);
}

TEST(SpaceAblationAxes, FetchBreakReplacementAndPredictor)
{
    const std::string axes =
        R"({"param": "machine", "values": ["RR-256"]},
           {"param": "core.fetch_break_on_taken", "values": [0, 1]},
           {"param": "mem.replacement",
            "values": ["lru", "tree-plru", "random"]},
           {"param": "bpred.kind", "values": ["2bc-gskew", "gshare"]})";
    // Digits {0, 1, 1, 1}: index 1*6 + 1*2 + 1.
    const ConfigPoint pt = pointOf(axes, 9);
    core::CoreParams rr = sim::findPreset("RR-256");
    rr.fetchBreakOnTaken = true;
    expectSameMachine(pt.core, rr);
    EXPECT_EQ(pt.mem.l1.replacement, memory::ReplacementPolicy::TreePlru);
    EXPECT_EQ(pt.mem.l2.replacement, memory::ReplacementPolicy::TreePlru);
    EXPECT_EQ(pt.predictor, sim::PredictorKind::Gshare);
    // Index 4: digits {0, 0, 2, 0}.
    const ConfigPoint random = pointOf(axes, 4);
    EXPECT_FALSE(random.core.fetchBreakOnTaken);
    EXPECT_EQ(random.mem.l1.replacement, memory::ReplacementPolicy::Random);
    EXPECT_EQ(random.mem.l2.replacement, memory::ReplacementPolicy::Random);
    EXPECT_EQ(random.predictor, sim::PredictorKind::TwoBcGskew);
    // Every --predictor spelling is a bpred.kind value, in enum order.
    const ConfigPoint perfect =
        pointOf(R"({"param": "bpred.kind", "values": ["perfect"]})", 0);
    EXPECT_EQ(perfect.predictor, sim::PredictorKind::Perfect);
}

TEST(SpaceAblationAxes, WarmupKeySeparatesPredictorAndReplacement)
{
    // --reuse-warmup shares one warm-up blob per key: points trained
    // under another predictor or replacement policy must not share it.
    const workload::BenchmarkProfile &gzip = workload::findProfile("gzip");
    const auto key = [&](const std::string &axes, std::uint64_t index) {
        const ConfigPoint pt = pointOf(axes, index);
        sim::SimConfig cfg;
        cfg.core = pt.core;
        cfg.mem = pt.mem;
        cfg.predictor = pt.predictor;
        return sim::warmupKeyHash(gzip, cfg);
    };
    const std::string bpred =
        R"({"param": "bpred.kind", "values": ["gshare", "bimodal"]})";
    EXPECT_NE(key(bpred, 0), key(bpred, 1));
    const std::string repl =
        R"({"param": "mem.replacement", "values": ["lru", "random"]})";
    EXPECT_NE(key(repl, 0), key(repl, 1));
    // The machine alone never splits the key: that is what reuse shares.
    const std::string machine =
        R"({"param": "machine", "values": ["RR-256", "WSRS-RC-512"]})";
    EXPECT_EQ(key(machine, 0), key(machine, 1));
}

TEST(SpaceAblationAxes, RejectsMisusedAxes)
{
    const auto error = [](const std::string &axes) {
        try {
            pointOf(axes, 0);
        } catch (const FatalError &e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    const auto expectError = [&](const std::string &axes,
                                 const std::string &needle) {
        const std::string what = error(axes);
        EXPECT_EQ(what.rfind("test: ", 0), 0u) << what;
        EXPECT_NE(what.find(needle), std::string::npos) << what;
    };
    expectError(R"({"param": "machine", "values": ["RR-256"]},
                   {"param": "core.mode", "values": ["ws"]})",
                "both set the register-file mode");
    expectError(R"({"param": "machine", "values": ["NO-SUCH"]})",
                "unknown machine preset 'NO-SUCH'");
    expectError(R"({"param": "core.fetch_break_on_taken", "values": [2]})",
                "takes 0 or 1");
    expectError(R"({"param": "mem.replacement", "values": ["fifo"]})",
                "has no value 'fifo'");
    expectError(R"({"param": "bpred.kind", "values": ["oracle"]})",
                "has no value 'oracle'");
    for (const char *value : {"-1", "2.5", "4294967296", "1e300"})
        expectError(R"({"param": "core.num_phys_regs", "values": [)" +
                        std::string(value) + "]}",
                    "is not an integer in [0, 2^32)");
}

TEST(SpaceSpecParse, EveryRejectionNamesTheDocument)
{
    // Wrong member types and unknown names come from the JSON accessors
    // and the preset/profile lookups; the parser locates each of them.
    for (const char *text : {
             R"({"schema": 7, "axes": []})",
             R"([1, 2])",
             R"({"schema": "wsrs-space-v1", "base": {"machine": 4},
                 "axes": [{"param": "core.fetch_width", "values": [8]}]})",
             R"({"schema": "wsrs-space-v1", "base": {"mem": "sram"},
                 "axes": [{"param": "core.fetch_width", "values": [8]}]})",
             R"({"schema": "wsrs-space-v1", "workloads": ["nonesuch"],
                 "axes": [{"param": "core.fetch_width", "values": [8]}]})",
             R"({"schema": "wsrs-space-v1", "axes": {}})",
             R"({"schema": "wsrs-space-v1", "axes": [7]})",
             R"({"schema": "wsrs-space-v1",
                 "axes": [{"param": "core.fetch_width", "values": ["8"]}]})",
         }) {
        try {
            parseSpaceSpec(text, "doc.json");
            ADD_FAILURE() << "accepted " << text;
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()).rfind("doc.json: ", 0), 0u)
                << e.what();
        }
    }
}

TEST(SpaceSpecParse, RejectsSpacesPastTheU64PointCount)
{
    // Six axes of 4096 values are 2^72 points.
    std::string axes;
    for (const char *param :
         {"core.num_clusters", "core.fetch_width", "core.commit_width",
          "core.issue_per_cluster", "core.lsus_per_cluster",
          "core.fpus_per_cluster"})
        axes += std::string(axes.empty() ? "" : ", ") + R"({"param": ")" +
                param + R"(", "from": 1, "to": 4096})";
    EXPECT_THROW(pointOf(axes, 0), FatalError);
}

} // namespace
} // namespace wsrs::explore
