/** @file Tests for the crash-resume sweep journal. */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "src/common/log.h"
#include "src/common/rng.h"
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
    out.results.renameStalls = {11 * i, 13 * i, 5, 7 * i};
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
    EXPECT_EQ(a.results.renameStalls.freeReg, b.results.renameStalls.freeReg);
    EXPECT_EQ(a.results.renameStalls.window, b.results.renameStalls.window);
    EXPECT_EQ(a.results.renameStalls.rob, b.results.renameStalls.rob);
    EXPECT_EQ(a.results.renameStalls.lsq, b.results.renameStalls.lsq);
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

/** A journal stamped with format @p version must be refused as a
 *  mismatch (exit code 3), not misread. */
void
expectRefusesVersion(std::uint32_t version)
{
    TempFile tmp;
    {
        ResumeJournal j(tmp.path, 1, 4, false);
        j.record(0, fakeOutcome(0));
    }
    {
        std::fstream f(tmp.path,
                       std::ios::binary | std::ios::in | std::ios::out);
        char bytes[4];
        ckpt::storeLe(bytes, version, 4);
        f.seekp(8);  // after the magic
        f.write(bytes, 4);
    }
    try {
        ResumeJournal j(tmp.path, 1, 4, /*resume=*/true);
        FAIL() << "a version-" << version << " journal resumed";
    } catch (const FatalError &e) {
        EXPECT_EQ(exitCodeFor(e), kExitSweepMismatch) << e.what();
        EXPECT_NE(std::string(e.what()).find("format version " +
                                             std::to_string(version)),
                  std::string::npos)
            << e.what();
    }
}

// Version 1 records carried a timeline-text field that version 2 dropped.
TEST(ResumeJournal, RefusesVersion1Journal) { expectRefusesVersion(1); }

// Version 2 records carried the unbalancing degree, the mispredict rate
// and five CoreStats counters that version 3 derives or dropped.
TEST(ResumeJournal, RefusesVersion2Journal) { expectRefusesVersion(2); }

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

// Locks the WSRSJRN1 file bytes (header plus two records). Version 3
// dropped the unbalancing-degree and mispredict-rate doubles and the five
// CoreStats counters the stall attribution now derives, and added the
// four grouped rename-stall counts; version 2 hashed to
// 0x52fdefe869f47381, version 1 to 0x391c6a3ff7980505.
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
    EXPECT_EQ(hash, 0x99adf48416027b73ull) << std::hex << hash;
}

/** One journal record as ResumeJournal::record frames it, with @p crc. */
std::string
recordBytes(std::uint64_t index, const std::string &payload,
            std::uint32_t crc)
{
    ckpt::Writer w;
    w.bytes("JREC", 4);
    w.u64(index);
    w.u64(payload.size());
    w.bytes(payload.data(), payload.size());
    w.u32(crc);
    return w.buffer();
}

/** The CRC ResumeJournal::record gives @p payload at @p index. */
std::uint32_t
recordCrc(std::uint64_t index, const std::string &payload)
{
    const std::string rec = recordBytes(index, payload, 0);
    return ckpt::crc32(rec.data() + 4, rec.size() - 8);
}

/** "" when @p what is an IoError naming a byte offset. */
std::string
unlocated(const IoError &e)
{
    const std::string what = e.what();
    return what.find("offset") == std::string::npos ? "unlocated: " + what
                                                    : "";
}

/** "" when @p payload decodes or raises a located IoError. */
std::string
decodeDefect(const std::string &payload)
{
    ckpt::Reader r(payload, "<mutant>");
    try {
        (void)decodeOutcome(r);
    } catch (const IoError &e) {
        return unlocated(e);
    } catch (const std::exception &e) {
        return e.what();
    }
    return "";
}

/**
 * A three-record journal whose middle record (index 1) is @p rec. A
 * record whose CRC is @p intact must replay with the other two or raise
 * a located IoError; a damaged one must stop replay there, keeping only
 * index 0 and truncating the file after it. "" when it does.
 */
std::string
replayDefect(const SweepOutcome &out, const std::string &rec, bool intact)
{
    TempFile tmp;
    {
        ResumeJournal j(tmp.path, 9, 3, false);
        j.record(0, out);
    }
    const auto prefix = std::filesystem::file_size(tmp.path);
    {
        std::ofstream os(tmp.path, std::ios::binary | std::ios::app);
        ckpt::Writer payload;
        encodeOutcome(payload, out);
        os << rec
           << recordBytes(2, payload.buffer(),
                          recordCrc(2, payload.buffer()));
    }
    try {
        ResumeJournal j(tmp.path, 9, 3, /*resume=*/true);
        if (intact)
            return j.recoveredCount() == 3
                       ? ""
                       : "replay stopped at an intact record";
        if (j.recoveredCount() != 1 || !j.recoveredMask()[0])
            return "replay kept " + std::to_string(j.recoveredCount()) +
                   " records across a damaged one";
        if (std::filesystem::file_size(tmp.path) != prefix)
            return "torn tail not truncated to the intact prefix";
    } catch (const IoError &e) {
        return intact ? unlocated(e)
                      : std::string("damaged record decoded: ") + e.what();
    } catch (const std::exception &e) {
        return e.what();
    }
    return "";
}

// Seeded mutation of a v3 record payload, modelled on CheckpointMutator:
// bit flips, truncations, and each string length and record-header field
// set to 2^k. Every mutant is decoded directly, and replayed inside a
// journal file twice: with its CRC recomputed (decode or a located
// IoError) and with the intact record's CRC (replay stops there). Any
// other exception, a crash or a hang is a defect (the ASan and UBSan
// lanes run this through the `runner` label).
TEST(JournalMutator, EveryMutantDecodesStopsReplayOrRaisesIoError)
{
    const SweepOutcome base = fakeOutcome(5);  // failed: every string set
    const std::string good = [&] {
        ckpt::Writer w;
        encodeOutcome(w, base);
        return w.buffer();
    }();
    const std::uint32_t goodCrc = recordCrc(1, good);
    int mutants = 0;
    const auto check = [&](const std::string &label, const std::string &m) {
        ++mutants;
        EXPECT_EQ(decodeDefect(m), "") << label;
        EXPECT_EQ(
            replayDefect(base, recordBytes(1, m, recordCrc(1, m)), true), "")
            << label << " (CRC recomputed)";
        EXPECT_EQ(replayDefect(base, recordBytes(1, m, goodCrc), false), "")
            << label << " (stale CRC)";
    };

    XorShiftRng rng(0x6a726e6c);
    for (int i = 0; i < 200; ++i) {
        std::string m = good;
        if (i % 2 == 0) {
            for (int flips = 1 + static_cast<int>(rng.below(3)); flips > 0;
                 --flips)
                m[rng.below(m.size())] ^=
                    static_cast<char>(1u << rng.below(8));
            check("bit flips " + std::to_string(i), m);
        } else {
            m.resize(rng.below(m.size()));
            check("truncated to " + std::to_string(m.size()), m);
        }
    }

    // The u32 lengths of the error, benchmark, machine and stats strings.
    std::size_t at = 1;  // after the ok byte
    for (const std::string *s :
         {&base.error, &base.results.benchmark, &base.results.machine,
          &base.results.statsJson}) {
        for (unsigned k = 0; k < 32; ++k) {
            std::string m = good;
            ckpt::storeLe(m.data() + at, std::uint64_t{1} << k, 4);
            if (m != good)
                check("string length 2^" + std::to_string(k) + " at " +
                          std::to_string(at),
                      m);
        }
        at += 4 + s->size();
    }

    // The record header's index and payload length: replay must stop.
    const std::string rec = recordBytes(1, good, goodCrc);
    for (const std::size_t field : {std::size_t{4}, std::size_t{12}}) {
        for (unsigned k = 0; k < 64; ++k) {
            std::string m = rec;
            ckpt::storeLe(m.data() + field, std::uint64_t{1} << k, 8);
            if (m == rec)
                continue;
            ++mutants;
            EXPECT_EQ(replayDefect(base, m, false), "")
                << "header field at " << field << " = 2^" << k;
        }
    }
    EXPECT_GE(mutants, 200);
}

} // namespace
} // namespace wsrs::runner
