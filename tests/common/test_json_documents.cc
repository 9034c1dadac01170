/**
 * @file
 * Golden bytes of the JSON documents no other test locks, built from
 * fixed inputs: a sweep report (with a failed job), a
 * metrics snapshot, a span trace, a custom register-file organization, a
 * DRAM stats document with interval samples and an explorer report with
 * cycle-accurate confirmation. The hashes were captured from the
 * emitters as they were before JSON syntax moved into one writer (the
 * sweep report's from that writer, once the report lost its `svc`
 * object); a mismatch means an emitter changed its bytes.
 *
 * The same documents, plus the shipped wsrs-rf-v1 table, seed the
 * parser's mutation test: every seeded bit flip, truncation and splice
 * must parse or raise a FatalError naming its offset, never crash or
 * hang (the ASan, UBSan and TSan lanes run this through `common`).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.h"
#include "src/common/log.h"
#include "src/common/rng.h"
#include "src/explore/analytic_model.h"
#include "src/explore/explorer.h"
#include "src/explore/space.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/span_log.h"
#include "src/rfmodel/regfile_model.h"
#include "src/runner/sweep_report.h"
#include "src/sim/presets.h"
#include "src/sim/simulator.h"
#include "src/workload/profiles.h"
#include "tests/support/fnv.h"

namespace wsrs {
namespace {

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
readSourceFile(const std::string &rel)
{
    const std::string path = std::string(WSRS_SOURCE_DIR) + "/" + rel;
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << "cannot read " << path;
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

std::string
sweepReportDoc()
{
    runner::SweepJob ok{workload::findProfile("gzip"), {}};
    ok.config.core = sim::findPreset("WSRS-RC-512");
    runner::SweepJob bad{workload::findProfile("mcf"), {}};
    bad.config.core = sim::findPreset("RR-256");
    std::vector<runner::SweepOutcome> outcomes(2);
    outcomes[0].ok = true;
    outcomes[0].results.statsJson = "{\"ipc\": 1.5, \"cycles\": 42}";
    outcomes[1].error = "worker said \"no\"\nthen died";
    runner::SweepRunner::Telemetry t;
    t.resumed = true;
    t.skippedRuns = 1;
    t.warmupReuse = true;
    t.warmupHits = 3;
    t.warmupMisses = 2;
    std::ostringstream os;
    runner::writeSweepReport(os, {ok, bad}, outcomes, t);
    return os.str();
}

std::string
metricsDoc()
{
    obs::MetricsRegistry reg;
    reg.counter("wsrs_doc_events_total", "events").add(7);
    reg.gauge("wsrs_doc_depth", "queue \"depth\"").set(-5);
    obs::MetricHistogram &h =
        reg.histogram("wsrs_doc_latency_ms", "latency", {1, 10, 100});
    for (const std::uint64_t v : {0, 5, 50, 500})
        h.observe(v);
    std::ostringstream os;
    reg.writeJson(os);
    return os.str();
}

std::string
spansDoc()
{
    obs::SpanLog log;
    log.nameJob(0, "gzip@RR-256");
    log.nameJob(7, "mcf \"big\"\tjob");
    log.complete("job", 0, 0, 0, 1000, 500);
    log.complete("attempt", 0, 0, 1, 1010, 400);
    log.complete("job", 7, 0, 0, 1200, 900);
    log.complete("attempt", 7, 2, 3, 1300, 600, "retry after \"lost\"\n");
    log.complete("simulate", 7, 2, 3, 1350, 500);
    log.instant("merged", 7, 2, 0, 1950, "shard\\1");
    std::ostringstream os;
    log.writeChromeTrace(os, "sweep \"doc\"");
    return os.str();
}

std::string
customOrgDoc()
{
    rfmodel::RegFileOrg org;
    org.name = "custom \"rf\"";
    org.totalRegs = 384;
    org.copiesPerReg = 2;
    org.portsPerCopy.reads = 6;
    org.portsPerCopy.writes = 3;
    org.numSubfiles = 4;
    org.entriesPerSubfile = 192;
    org.writeBusesPerSubfile = 6;
    org.writeSpanRows = 96;
    org.producersVisible = 6;
    const rfmodel::RegFileModel model;
    return rfmodel::orgJson(
        org, model.estimate(org, rfmodel::makeNoWs2Cluster()));
}

std::string
dramStatsDoc()
{
    sim::SimConfig cfg;
    cfg.core = sim::findPreset("WSRS-RC-512");
    cfg.mem = sim::findMemPreset("dram");
    cfg.warmupUops = 2000;
    cfg.measureUops = 6000;
    cfg.intervalStatsCycles = 1500;
    return sim::runSimulation(workload::findProfile("mcf"), cfg).statsJson;
}

std::string
confirmedExploreDoc()
{
    const explore::SpaceSpec spec = explore::parseSpaceSpec(
        readSourceFile("examples/design_space.json"), "design_space.json");
    explore::ExplorerOptions opt;
    opt.confirmTop = 3;
    opt.confirmThreads = 1;
    opt.confirmMeasureUops = 3000;
    opt.confirmWarmupUops = 1000;
    return explore::explore(spec, explore::AnalyticModel(), opt).reportJson;
}

struct Document
{
    const char *name;
    std::string (*build)();
    std::uint64_t hash; ///< fnv1a over the emitted bytes.
};

// Captured before the emitters moved onto JsonWriter; see the file comment.
const Document kDocuments[] = {
    {"sweep report", sweepReportDoc, 0xb9cafe62210b59b8ull},
    {"metrics", metricsDoc, 0xf16eac94d964ffcfull},
    {"spans", spansDoc, 0xbe7e2e58cbabd81aull},
    {"custom rf org", customOrgDoc, 0x733798d504ce3c0cull},
    {"dram stats with intervals", dramStatsDoc, 0xe421a99f1f0ac7f3ull},
    {"confirmed explore report", confirmedExploreDoc, 0x6aa22b766f4e0290ull},
};

TEST(JsonDocuments, BytesAreGolden)
{
    for (const Document &d : kDocuments) {
        const std::string doc = d.build();
        EXPECT_EQ(hex64(test::fnv1a(doc)), hex64(d.hash)) << d.name;
        EXPECT_NO_THROW(parseJson(doc, d.name));
    }
}

/** Mutants per document, a third each of flips, truncations, splices. */
constexpr int kMutants = 300;

/** "" when @p text parses or raises a FatalError naming its offset. */
std::string
defectOf(const std::string &text)
{
    try {
        parseJson(text, "<mutant>");
    } catch (const FatalError &e) {
        if (std::string(e.what()).find("at offset") == std::string::npos)
            return std::string("unlocated: ") + e.what();
    } catch (const std::exception &e) {
        return e.what();
    }
    return "";
}

/** A seeded bit flip, truncation or splice of @p doc; @p i picks which. */
std::string
mutant(const std::string &doc, int i, XorShiftRng &rng)
{
    std::string m = doc;
    switch (i % 3) {
      case 0:
        for (int flips = 1 + static_cast<int>(rng.below(3)); flips > 0;
             --flips)
            m[rng.below(m.size())] ^= static_cast<char>(1u << rng.below(8));
        break;
      case 1:
        m.resize(rng.below(m.size()));
        break;
      default: {
        // Copy a slice of the document over another place in it, so
        // brackets, quotes and numbers land where they do not belong.
        const std::size_t from = rng.below(m.size());
        const std::size_t len = 1 + rng.below(std::min<std::size_t>(
                                        64, m.size() - from));
        const std::size_t to = rng.below(m.size());
        m.replace(to, rng.below(len + 1), doc.substr(from, len));
        break;
      }
    }
    return m;
}

TEST(JsonDocuments, MutantsParseOrFailAtAnOffset)
{
    std::vector<std::pair<std::string, std::string>> docs;
    for (const Document &d : kDocuments)
        docs.emplace_back(d.name, d.build());
    docs.emplace_back("wsrs-rf-v1 table",
                      readSourceFile("tests/golden/rf_table1.json"));

    XorShiftRng rng(0x6a736f6e);
    for (const auto &[name, doc] : docs) {
        ASSERT_EQ(defectOf(doc), "") << name;
        ASSERT_FALSE(doc.empty()) << name;
        for (int i = 0; i < kMutants; ++i) {
            const std::string m = mutant(doc, i, rng);
            EXPECT_EQ(defectOf(m), "") << name << " mutant " << i;
        }
    }
}

} // namespace
} // namespace wsrs
