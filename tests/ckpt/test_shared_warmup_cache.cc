/**
 * @file
 * Warm-up cache shared through a directory: build-once sharing between
 * instances (standing in for processes), atomic publish, corrupt entries
 * being diagnosed with byte offsets, quarantined and rebuilt, and the
 * memory / disk / built answer getOrBuild reports.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/ckpt/io.h"
#include "src/ckpt/warmup_cache.h"
#include "src/common/log.h"

namespace wsrs::ckpt {
namespace {

std::string
cacheDir(const char *name)
{
    const std::string dir = testing::TempDir() + "wsrs_swc_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/** A minimal but fully valid wsrs-ckpt-v1 container blob. */
std::string
containerBlob(const std::string &body)
{
    std::ostringstream os;
    CheckpointWriter cw(os, "<test>", kKindWarmup, 0x1234);
    Writer section;
    section.str(body);
    cw.section("warmup", section);
    cw.finish();
    return os.str();
}

TEST(SharedWarmupCache, BuildsOnceAndSharesAcrossInstances)
{
    const std::string dir = cacheDir("share");
    const std::string blob = containerBlob("snapshot-bytes");

    WarmupCache first(dir);
    int builds = 0;
    const auto builder = [&] {
        ++builds;
        return blob;
    };
    EXPECT_EQ(*first.getOrBuild(42, builder), blob);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(first.misses(), 1u);
    EXPECT_TRUE(first.contains(42));

    // A second instance over the same directory models another worker
    // process: it must hit the published entry, never its builder.
    WarmupCache second(dir);
    EXPECT_EQ(*second.getOrBuild(42, [&]() -> std::string {
        ADD_FAILURE() << "builder ran despite a published entry";
        return blob;
    }),
              blob);
    EXPECT_EQ(second.hits(), 1u);
    EXPECT_EQ(second.misses(), 0u);

    // Same instance, same key: served again without building.
    EXPECT_EQ(*first.getOrBuild(42, builder), blob);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(first.hits(), 1u);
}

TEST(SharedWarmupCache, DistinctKeysGetDistinctEntries)
{
    WarmupCache cache(cacheDir("keys"));
    const std::string a = containerBlob("alpha");
    const std::string b = containerBlob("beta");
    EXPECT_EQ(*cache.getOrBuild(1, [&] { return a; }), a);
    EXPECT_EQ(*cache.getOrBuild(2, [&] { return b; }), b);
    EXPECT_NE(cache.entryPath(1), cache.entryPath(2));
    EXPECT_TRUE(cache.contains(1));
    EXPECT_TRUE(cache.contains(2));
    EXPECT_FALSE(cache.contains(3));
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(SharedWarmupCache, TruncatedEntryFailsWithByteOffset)
{
    WarmupCache cache(cacheDir("trunc"));
    const std::string blob = containerBlob("will-be-torn");
    cache.getOrBuild(7, [&] { return blob; });

    // Tear the published entry the way a crashed non-atomic writer would.
    std::filesystem::resize_file(cache.entryPath(7), blob.size() / 2);
    try {
        cache.load(7);
        FAIL() << "truncated entry loaded";
    } catch (const IoError &e) {
        EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos)
            << e.what();
    }
}

TEST(SharedWarmupCache, CorruptEntryIsQuarantinedAndRebuilt)
{
    const std::string dir = cacheDir("corrupt");
    const std::string blob = containerBlob("poisoned-then-rebuilt");
    WarmupCache(dir).getOrBuild(9, [&] { return blob; });
    // A fresh instance, so the blob is not already in its memory.
    WarmupCache cache(dir);

    // Flip one payload byte; the section CRC must catch it.
    const std::string path = cache.entryPath(9);
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(static_cast<std::streamoff>(blob.size()) - 10);
        f.put('\xff');
    }
    EXPECT_THROW(cache.load(9), IoError);

    int rebuilds = 0;
    const std::string fresh = *cache.getOrBuild(9, [&] {
        ++rebuilds;
        return blob;
    });
    EXPECT_EQ(fresh, blob);
    EXPECT_EQ(rebuilds, 1);
    EXPECT_EQ(cache.corruptRebuilds(), 1u);
    // The damaged bytes are preserved for postmortem, and the fresh
    // entry validates cleanly.
    EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
    EXPECT_EQ(cache.load(9), blob);
}

TEST(SharedWarmupCache, LoadOfMissingEntryIsAnIoError)
{
    WarmupCache cache(cacheDir("missing"));
    EXPECT_THROW(cache.load(1234), IoError);
}

TEST(SharedWarmupCache, ReportsWhetherMemoryDiskOrBuilderAnswered)
{
    const std::string dir = cacheDir("source");
    const std::string blob = containerBlob("source");
    const auto builder = [&] { return blob; };
    using Source = WarmupCache::Source;

    WarmupCache first(dir);
    Source source = Source::Memory;
    first.getOrBuild(5, builder, &source);
    EXPECT_EQ(source, Source::Built);
    first.getOrBuild(5, builder, &source);
    EXPECT_EQ(source, Source::Memory);

    WarmupCache second(dir);
    EXPECT_EQ(*second.getOrBuild(5, builder, &source), blob);
    EXPECT_EQ(source, Source::Disk);
    second.getOrBuild(5, builder, &source);
    EXPECT_EQ(source, Source::Memory);
    EXPECT_EQ(second.hits(), 2u);
    EXPECT_EQ(second.misses(), 0u);

    // Without a directory every first request builds.
    WarmupCache memoryOnly;
    memoryOnly.getOrBuild(5, builder, &source);
    EXPECT_EQ(source, Source::Built);
}

} // namespace
} // namespace wsrs::ckpt
