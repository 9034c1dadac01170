/** @file Tests for the crash-resume sweep journal. */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/common/log.h"
#include "src/runner/resume_journal.h"
#include "src/runner/sweep_report.h"
#include "src/runner/sweep_runner.h"
#include "src/sim/presets.h"
#include "src/workload/profiles.h"
#include "tests/support/fnv.h"

namespace wsrs::runner {
namespace {

struct TempFile
{
    TempFile()
    {
        path = (std::filesystem::temp_directory_path() /
                ("wsrs_jrn_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter++) + ".bin"))
                   .string();
    }
    ~TempFile() { std::remove(path.c_str()); }
    static inline int counter = 0;
    std::string path;
};

std::vector<SweepJob>
smallSweep()
{
    sim::SimConfig base;
    base.warmupUops = 2000;
    base.measureUops = 4000;
    return SweepRunner::crossProduct(
        {workload::findProfile("gzip"), workload::findProfile("swim")},
        {"RR-256", "WSRS-RC-512"}, base);
}

SweepOutcome
fakeOutcome(std::size_t i)
{
    SweepOutcome out;
    out.ok = (i % 3) != 2;
    out.error = out.ok ? "" : "synthetic failure #" + std::to_string(i);
    out.results.benchmark = "bench" + std::to_string(i);
    out.results.machine = "mach" + std::to_string(i);
    out.results.statsJson = "{\"i\": " + std::to_string(i) + "}";
    out.results.ipc = 0.5 + 0.125 * static_cast<double>(i);
    out.results.stats.cycles = 1000 + i;
    out.results.stats.committed = 900 + i;
    out.results.stats.perCluster[1] = 17 * i;
    out.results.stats.issueWidthHist[3] = 23 * i;
    return out;
}

void
expectOutcomeEq(const SweepOutcome &a, const SweepOutcome &b)
{
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.results.benchmark, b.results.benchmark);
    EXPECT_EQ(a.results.machine, b.results.machine);
    EXPECT_EQ(a.results.statsJson, b.results.statsJson);
    EXPECT_EQ(a.results.ipc, b.results.ipc);
    EXPECT_EQ(a.results.stats.cycles, b.results.stats.cycles);
    EXPECT_EQ(a.results.stats.committed, b.results.stats.committed);
    EXPECT_EQ(a.results.stats.perCluster, b.results.stats.perCluster);
    EXPECT_EQ(a.results.stats.issueWidthHist, b.results.stats.issueWidthHist);
}

TEST(ResumeJournal, RecordsReplayOnResume)
{
    TempFile tmp;
    {
        ResumeJournal j(tmp.path, 0xabc, 6, /*resume=*/false);
        EXPECT_FALSE(j.resumed());
        j.record(0, fakeOutcome(0));
        j.record(4, fakeOutcome(4));
        j.record(2, fakeOutcome(2));
    }
    ResumeJournal j(tmp.path, 0xabc, 6, /*resume=*/true);
    EXPECT_TRUE(j.resumed());
    EXPECT_EQ(j.recoveredCount(), 3u);
    EXPECT_TRUE(j.recoveredMask()[0]);
    EXPECT_FALSE(j.recoveredMask()[1]);
    EXPECT_TRUE(j.recoveredMask()[2]);
    EXPECT_TRUE(j.recoveredMask()[4]);
    expectOutcomeEq(j.recovered()[0], fakeOutcome(0));
    expectOutcomeEq(j.recovered()[2], fakeOutcome(2));
    expectOutcomeEq(j.recovered()[4], fakeOutcome(4));
}

TEST(ResumeJournal, WithoutResumeTruncatesExisting)
{
    TempFile tmp;
    {
        ResumeJournal j(tmp.path, 0xabc, 4, false);
        j.record(1, fakeOutcome(1));
    }
    {
        ResumeJournal j(tmp.path, 0xabc, 4, /*resume=*/false);
        EXPECT_EQ(j.recoveredCount(), 0u);
    }
    ResumeJournal j(tmp.path, 0xabc, 4, /*resume=*/true);
    EXPECT_EQ(j.recoveredCount(), 0u);  // prior records were discarded
}

TEST(ResumeJournal, TornTailIsDiscardedIntactPrefixKept)
{
    TempFile tmp;
    {
        ResumeJournal j(tmp.path, 7, 8, false);
        j.record(0, fakeOutcome(0));
        j.record(1, fakeOutcome(1));
        j.record(2, fakeOutcome(2));
    }
    // Chop bytes off the tail, simulating a kill mid-write: whatever
    // prefix of records is intact must replay, the rest rerun.
    const auto fullSize = std::filesystem::file_size(tmp.path);
    std::filesystem::resize_file(tmp.path, fullSize - 5);
    {
        ResumeJournal j(tmp.path, 7, 8, /*resume=*/true);
        EXPECT_EQ(j.recoveredCount(), 2u);
        EXPECT_TRUE(j.recoveredMask()[0]);
        EXPECT_TRUE(j.recoveredMask()[1]);
        EXPECT_FALSE(j.recoveredMask()[2]);
        // Appending after truncation keeps the journal well-formed.
        j.record(2, fakeOutcome(2));
        j.record(3, fakeOutcome(3));
    }
    ResumeJournal j(tmp.path, 7, 8, true);
    EXPECT_EQ(j.recoveredCount(), 4u);
}

TEST(ResumeJournal, CorruptRecordStopsReplay)
{
    TempFile tmp;
    {
        ResumeJournal j(tmp.path, 7, 4, false);
        j.record(0, fakeOutcome(0));
        j.record(1, fakeOutcome(1));
    }
    // Flip a byte inside the first record's payload: its CRC fails, and
    // everything from there on is treated as unusable.
    {
        std::fstream f(tmp.path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(40);
        f.put('\x7f');
    }
    ResumeJournal j(tmp.path, 7, 4, true);
    EXPECT_EQ(j.recoveredCount(), 0u);
}

TEST(ResumeJournal, RefusesDifferentSweep)
{
    TempFile tmp;
    { ResumeJournal j(tmp.path, 1, 4, false); }
    EXPECT_THROW(ResumeJournal(tmp.path, 2, 4, true), FatalError);
    EXPECT_THROW(ResumeJournal(tmp.path, 1, 5, true), FatalError);
    ResumeJournal ok(tmp.path, 1, 4, true);  // matching identity resumes
}

TEST(ResumeJournal, SweepKeyCoversJobsAndConfigs)
{
    const auto jobs = smallSweep();
    const std::uint64_t k = sweepKeyHash(jobs);
    auto fewer = jobs;
    fewer.pop_back();
    EXPECT_NE(sweepKeyHash(fewer), k);
    auto reordered = jobs;
    std::swap(reordered[0], reordered[1]);
    EXPECT_NE(sweepKeyHash(reordered), k);
    auto tweaked = jobs;
    tweaked[2].config.measureUops += 1;
    EXPECT_NE(sweepKeyHash(tweaked), k);
}

TEST(SweepRunnerResume, ResumedSweepMatchesCleanRun)
{
    const auto jobs = smallSweep();

    SweepRunner::Options plain;
    plain.threads = 2;
    const auto clean = SweepRunner(plain).run(jobs);

    // First pass journals everything; the "crashed" second pass resumes
    // and must re-deliver identical outcomes without rerunning.
    TempFile tmp;
    SweepRunner::Options journaled = plain;
    journaled.journalPath = tmp.path;
    SweepRunner first(journaled);
    const auto firstOut = first.run(jobs);
    EXPECT_FALSE(first.telemetry().resumed);
    EXPECT_EQ(first.telemetry().skippedRuns, 0u);

    SweepRunner::Options resume = journaled;
    resume.resume = true;
    SweepRunner second(resume);
    std::size_t events = 0;
    resume.onEvent = [&](const SweepEvent &) { ++events; };
    SweepRunner secondWithEvents(resume);
    const auto secondOut = secondWithEvents.run(jobs);
    EXPECT_TRUE(secondWithEvents.telemetry().resumed);
    EXPECT_EQ(secondWithEvents.telemetry().skippedRuns, jobs.size());
    EXPECT_EQ(events, jobs.size());

    ASSERT_EQ(secondOut.size(), clean.size());
    for (std::size_t i = 0; i < clean.size(); ++i) {
        EXPECT_EQ(secondOut[i].ok, clean[i].ok);
        EXPECT_EQ(secondOut[i].results.statsJson, clean[i].results.statsJson)
            << "job " << i;
    }

    // The aggregated reports agree job for job (the resume/ckpt metadata
    // differs by design).
    std::ostringstream a, b;
    writeSweepReport(a, jobs, clean);
    writeSweepReport(b, jobs, secondOut);
    const auto body = [](const std::string &s) {
        return s.substr(0, s.find("\"resume\""));
    };
    EXPECT_EQ(body(a.str()), body(b.str()));
}

TEST(SweepRunnerResume, WarmupReuseProducesDeterministicSweep)
{
    const auto jobs = smallSweep();
    SweepRunner::Options opt;
    opt.threads = 2;
    opt.reuseWarmup = true;
    SweepRunner r1(opt), r2(opt);
    const auto a = r1.run(jobs);
    const auto b = r2.run(jobs);
    EXPECT_TRUE(r1.telemetry().warmupReuse);
    // 2 benchmarks -> 2 builds; the other jobs hit the cache.
    EXPECT_EQ(r1.telemetry().warmupMisses, 2u);
    EXPECT_EQ(r1.telemetry().warmupHits, jobs.size() - 2);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(a[i].ok) << a[i].error;
        EXPECT_EQ(a[i].results.statsJson, b[i].results.statsJson)
            << "job " << i;
    }
}

// Locks the WSRSJRN1 file bytes (header plus two records); the hash was
// taken before the journal codec moved onto the shared little-endian
// helpers.
TEST(ResumeJournal, FileBytesAreGolden)
{
    TempFile tmp;
    {
        ResumeJournal j(tmp.path, 0x0123456789abcdefull, 6, false);
        j.record(0, fakeOutcome(0));
        j.record(4, fakeOutcome(4));
    }
    std::ifstream is(tmp.path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
    const std::uint64_t hash = test::fnv1a(bytes);
    EXPECT_EQ(hash, 0x391c6a3ff7980505ull) << std::hex << hash;
}

} // namespace
} // namespace wsrs::runner
