/** @file Unit tests for the host-side stage profiler. */
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/obs/stage_profiler.h"
#include "tests/support/json_error.h"

namespace wsrs::obs {
namespace {

TEST(StageProfiler, AccumulatesCallsAndSeconds)
{
    StageProfiler prof;
    int ran = 0;
    for (int i = 0; i < 5; ++i)
        prof.time(StageProfiler::Issue, [&] { ++ran; });
    prof.time(StageProfiler::Fetch, [&] { ++ran; });
    EXPECT_EQ(ran, 6);
    EXPECT_EQ(prof.calls(StageProfiler::Issue), 5u);
    EXPECT_EQ(prof.calls(StageProfiler::Fetch), 1u);
    EXPECT_EQ(prof.calls(StageProfiler::Commit), 0u);
    EXPECT_GE(prof.seconds(StageProfiler::Issue), 0.0);
    EXPECT_GE(prof.totalSeconds(),
              prof.seconds(StageProfiler::Issue) +
                  prof.seconds(StageProfiler::Fetch) - 1e-12);
}

TEST(StageProfiler, ResetZeroesEverything)
{
    StageProfiler prof;
    prof.time(StageProfiler::Rename, [] {});
    prof.reset();
    EXPECT_EQ(prof.calls(StageProfiler::Rename), 0u);
    EXPECT_EQ(prof.totalSeconds(), 0.0);
}

TEST(StageProfiler, DumpJsonIsStrictlyParseable)
{
    StageProfiler prof;
    prof.time(StageProfiler::Agen, [] {});
    std::ostringstream os;
    prof.dumpJson(os);
    const std::string j = os.str();
    EXPECT_EQ(test::jsonError(j), "");
    for (int s = 0; s < StageProfiler::kNumStages; ++s)
        EXPECT_NE(j.find(std::string{"\""} +
                         StageProfiler::stageName(
                             static_cast<StageProfiler::Stage>(s)) +
                         "\""),
                  std::string::npos);
}

} // namespace
} // namespace wsrs::obs
