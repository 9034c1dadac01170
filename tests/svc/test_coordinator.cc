/**
 * @file
 * Coordinator/worker protocol contract, exercised fully in-process over
 * unix sockets: distributed outcomes must be bit-identical to the
 * in-process SweepRunner's, dead and hung lease holders are re-leased
 * with bounded retries, and a mismatched worker is refused at handshake.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "src/common/log.h"
#include "src/runner/resume_journal.h"
#include "src/runner/sweep_runner.h"
#include "src/svc/coordinator.h"
#include "src/svc/frame.h"
#include "src/svc/proto.h"
#include "src/svc/transport.h"
#include "src/svc/worker.h"
#include "src/workload/profiles.h"

namespace wsrs::svc {
namespace {

std::string
endpointFor(const char *name)
{
    return "unix:" + testing::TempDir() + "wsrs_coord_" + name + ".sock";
}

std::vector<runner::SweepJob>
smallMatrix(std::uint64_t seed = 0)
{
    sim::SimConfig cfg;
    cfg.warmupUops = 500;
    cfg.measureUops = 2000;
    cfg.seed = seed;
    return runner::SweepRunner::crossProduct(
        {workload::findProfile("gzip"), workload::findProfile("mcf")},
        {"RR-256", "WSRS-RC-512"}, cfg);
}

Coordinator::Options
quickOptions(const std::string &endpoint)
{
    Coordinator::Options opt;
    opt.endpoint = endpoint;
    opt.shardSize = 1;
    opt.leaseBackoffMs = 1;
    opt.drainGraceMs = 500;
    return opt;
}

/** Connect + handshake a raw protocol client (for misbehaving peers). */
std::unique_ptr<Stream>
handshake(const std::string &endpoint,
          const std::vector<runner::SweepJob> &jobs)
{
    auto stream = connect(endpoint);
    EXPECT_TRUE(sendFrame(*stream, FrameType::Hello,
                          helloPayload(1, runner::sweepKeyHash(jobs),
                                       jobs.size())));
    Frame frame;
    EXPECT_TRUE(recvFrame(*stream, frame));
    EXPECT_EQ(frame.type, FrameType::HelloAck);
    EXPECT_EQ(parseHelloAck(frame.payload), "");
    return stream;
}

TEST(Coordinator, DistributedOutcomesAreBitIdenticalToInProcess)
{
    const auto jobs = smallMatrix();
    const auto reference = runner::SweepRunner().run(jobs);

    Coordinator coord(quickOptions(endpointFor("ident")), jobs);
    coord.bind();
    std::vector<std::thread> workers;
    for (int w = 0; w < 2; ++w)
        workers.emplace_back([&, jobs] {
            WorkerOptions wopt;
            wopt.endpoint = coord.endpoint();
            runWorker(jobs, wopt);
        });
    const auto outcomes = coord.run();
    for (auto &t : workers)
        t.join();

    ASSERT_EQ(outcomes.size(), reference.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
        EXPECT_EQ(outcomes[i].results.stats.cycles,
                  reference[i].results.stats.cycles);
        EXPECT_EQ(std::memcmp(&outcomes[i].results.ipc,
                              &reference[i].results.ipc,
                              sizeof(double)),
                  0);
        // The per-job stats document is what the merged report embeds:
        // byte equality here is what makes the reports byte-equal.
        EXPECT_EQ(outcomes[i].results.statsJson,
                  reference[i].results.statsJson);
    }
    const obs::SvcCounters &ctr = coord.svcReport().counters;
    EXPECT_EQ(ctr.shards, jobs.size()); // shardSize = 1.
    EXPECT_EQ(ctr.leasesGranted, jobs.size());
    EXPECT_EQ(ctr.shardsFailed, 0u);
    EXPECT_EQ(ctr.workersLost, 0u);
    EXPECT_GE(ctr.workersSeen, 1u);
    EXPECT_LE(ctr.workersSeen, 2u);
}

TEST(Coordinator, RefusesAWorkerFromADifferentSweep)
{
    const auto jobs = smallMatrix(0);
    Coordinator coord(quickOptions(endpointFor("refuse")), jobs);
    coord.bind();

    std::thread mismatched([&] {
        WorkerOptions wopt;
        wopt.endpoint = coord.endpoint();
        // Different seed => different job matrix => different sweep key.
        EXPECT_THROW(runWorker(smallMatrix(99), wopt),
                     SweepMismatchError);
    });
    std::thread good([&, jobs] {
        WorkerOptions wopt;
        wopt.endpoint = coord.endpoint();
        runWorker(jobs, wopt);
    });
    const auto outcomes = coord.run();
    mismatched.join();
    good.join();
    for (const auto &o : outcomes)
        EXPECT_TRUE(o.ok) << o.error;
    EXPECT_EQ(coord.svcReport().counters.workersSeen, 1u);
}

TEST(Coordinator, ReleasesSharedAfterLeaseHolderDies)
{
    const auto jobs = smallMatrix();
    Coordinator coord(quickOptions(endpointFor("death")), jobs);
    coord.bind();

    std::thread sequence([&, jobs] {
        // A worker that takes one lease and dies without a result.
        {
            auto flaky = handshake(coord.endpoint(), jobs);
            ASSERT_TRUE(sendFrame(*flaky, FrameType::Claim, "{}"));
            Frame frame;
            ASSERT_TRUE(recvFrame(*flaky, frame));
            ASSERT_EQ(frame.type, FrameType::Lease);
            flaky->close(); // SIGKILL equivalent: EOF mid-lease.
        }
        // A healthy worker finishes everything, including the
        // re-leased shard.
        WorkerOptions wopt;
        wopt.endpoint = coord.endpoint();
        runWorker(jobs, wopt);
    });
    const auto outcomes = coord.run();
    sequence.join();

    for (const auto &o : outcomes)
        EXPECT_TRUE(o.ok) << o.error;
    const obs::SvcCounters &ctr = coord.svcReport().counters;
    EXPECT_GE(ctr.leaseRetries, 1u);
    EXPECT_GE(ctr.workersLost, 1u);
    EXPECT_EQ(ctr.shardsFailed, 0u);
}

TEST(Coordinator, HungLeaseHolderIsTimedOutAndReplaced)
{
    const auto jobs = smallMatrix();
    Coordinator::Options opt = quickOptions(endpointFor("hang"));
    // Low enough for the hung holder to blow promptly, high enough
    // that an honest job never does — even slowed ~20x under TSan.
    opt.perJobTimeoutMs = 2000;
    Coordinator coord(opt, jobs);
    coord.bind();

    std::thread sequence([&, jobs] {
        auto hung = handshake(coord.endpoint(), jobs);
        EXPECT_TRUE(sendFrame(*hung, FrameType::Claim, "{}"));
        Frame frame;
        EXPECT_TRUE(recvFrame(*hung, frame));
        EXPECT_EQ(frame.type, FrameType::Lease);
        // Sit on the lease; the coordinator must cut us off.
        char buf[16];
        while (hung->read(buf, sizeof buf) > 0) {
        }
        WorkerOptions wopt;
        wopt.endpoint = coord.endpoint();
        EXPECT_NO_THROW(runWorker(jobs, wopt));
    });
    const auto outcomes = coord.run();
    sequence.join();

    for (const auto &o : outcomes)
        EXPECT_TRUE(o.ok) << o.error;
    EXPECT_GE(coord.svcReport().counters.leaseTimeouts, 1u);
}

TEST(Coordinator, FailsShardJobsOnceRetriesAreExhausted)
{
    const auto jobs = smallMatrix();
    Coordinator::Options opt = quickOptions(endpointFor("exhaust"));
    opt.shardSize = jobs.size(); // One shard holds the whole sweep.
    opt.maxLeaseRetries = 1;
    Coordinator coord(opt, jobs);
    coord.bind();

    std::thread clients([&, jobs] {
        // Every "worker" dies holding the lease; the retry budget (1)
        // means the second death fails the shard.
        for (int attempt = 0; attempt < 2; ++attempt) {
            auto flaky = handshake(coord.endpoint(), jobs);
            ASSERT_TRUE(sendFrame(*flaky, FrameType::Claim, "{}"));
            Frame frame;
            ASSERT_TRUE(recvFrame(*flaky, frame));
            ASSERT_EQ(frame.type, FrameType::Lease);
            flaky->close();
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    });
    const auto outcomes = coord.run();
    clients.join();

    for (const auto &o : outcomes) {
        EXPECT_FALSE(o.ok);
        EXPECT_NE(o.error.find("lease retries"), std::string::npos)
            << o.error;
    }
    EXPECT_EQ(coord.svcReport().counters.shardsFailed, 1u);
}

TEST(Coordinator, DuplicateResultsAreDroppedAndCounted)
{
    const auto jobs = smallMatrix();
    Coordinator::Options opt = quickOptions(endpointFor("dup"));
    opt.shardSize = jobs.size();
    Coordinator coord(opt, jobs);
    coord.bind();

    std::thread client([&, jobs] {
        auto stream = handshake(coord.endpoint(), jobs);
        ASSERT_TRUE(sendFrame(*stream, FrameType::Claim, "{}"));
        Frame frame;
        ASSERT_TRUE(recvFrame(*stream, frame));
        ASSERT_EQ(frame.type, FrameType::Lease);
        const Shard shard = parseLease(frame.payload).shard;
        runner::SweepOutcome fake;
        fake.ok = false;
        fake.error = "synthetic";
        for (const std::uint64_t index : shard.jobs) {
            ASSERT_TRUE(sendFrame(*stream, FrameType::JobDone,
                                  encodeJobDone(index, fake)));
            // Report the first job twice: the duplicate must be dropped.
            if (index == shard.jobs.front()) {
                ASSERT_TRUE(sendFrame(*stream, FrameType::JobDone,
                                      encodeJobDone(index, fake)));
            }
        }
        ASSERT_TRUE(sendFrame(*stream, FrameType::ShardDone,
                              shardDonePayload(shard.id)));
        ASSERT_TRUE(sendFrame(*stream, FrameType::Claim, "{}"));
        ASSERT_TRUE(recvFrame(*stream, frame));
        EXPECT_EQ(frame.type, FrameType::NoWork);
        stream->close();
    });
    const auto outcomes = coord.run();
    client.join();

    EXPECT_EQ(coord.svcReport().counters.duplicateResults, 1u);
    for (const auto &o : outcomes)
        EXPECT_EQ(o.error, "synthetic");
}

} // namespace
} // namespace wsrs::svc
