/**
 * @file
 * Unix-socket stream contract: listen/connect round trips, endpoint
 * parsing, stale-socket-file recovery, unknown-scheme refusal.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <thread>

#include "src/common/log.h"
#include "src/svc/transport.h"

namespace wsrs::svc {
namespace {

std::string
socketPath(const char *name)
{
    return testing::TempDir() + "wsrs_transport_" + name + ".sock";
}

TEST(Transport, UnixListenConnectRoundTrip)
{
    const std::string endpoint = "unix:" + socketPath("rt");
    auto listener = listen(endpoint);

    std::thread client([&] {
        auto stream = connect(endpoint);
        ASSERT_TRUE(stream->writeAll("ping", 4));
        char buf[4];
        ASSERT_EQ(stream->read(buf, 4), 4);
        EXPECT_EQ(std::string(buf, 4), "pong");
    });

    auto peer = listener->accept();
    ASSERT_NE(peer, nullptr);
    char buf[4];
    ASSERT_EQ(peer->read(buf, 4), 4);
    EXPECT_EQ(std::string(buf, 4), "ping");
    ASSERT_TRUE(peer->writeAll("pong", 4));
    client.join();
    listener->close();
}

TEST(Transport, ReadReturnsZeroOnPeerClose)
{
    auto [a, b] = localPair();
    a->close();
    char buf[8];
    EXPECT_EQ(b->read(buf, sizeof buf), 0);
}

TEST(Transport, WriteFailsAfterPeerClose)
{
    auto [a, b] = localPair();
    b->close();
    // The first write may succeed into the kernel buffer; a subsequent
    // one must fail instead of raising SIGPIPE.
    bool ok = true;
    for (int i = 0; ok && i < 64; ++i)
        ok = a->writeAll("xxxxxxxx", 8);
    EXPECT_FALSE(ok);
}

TEST(Transport, RebindsOverAStaleSocketFile)
{
    const std::string path = socketPath("stale");
    { std::ofstream(path) << "stale"; } // Leftover from a dead process.
    const std::string endpoint = "unix:" + path;
    auto listener = listen(endpoint);
    EXPECT_EQ(listener->endpoint(), endpoint);
    listener->close();
}

TEST(Transport, UnknownSchemeIsAConfigError)
{
    EXPECT_THROW(listen("tcp://127.0.0.1:9"), FatalError);
    EXPECT_THROW(connect("tcp://127.0.0.1:9"), FatalError);
    EXPECT_THROW(listen("spool:/var/tmp/q"), FatalError);
    EXPECT_THROW(connect("spool:/var/tmp/q"), FatalError);
}

TEST(Transport, EndpointPathStripsTheScheme)
{
    EXPECT_EQ(endpointPath("unix:/tmp/x.sock"), "/tmp/x.sock");
    EXPECT_EQ(endpointPath("/tmp/bare.sock"), "/tmp/bare.sock");
}

TEST(Transport, ConnectToMissingSocketIsAnIoError)
{
    EXPECT_THROW(connect("unix:/tmp/definitely-missing-wsrs.sock"), IoError);
}

} // namespace
} // namespace wsrs::svc
