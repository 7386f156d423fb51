/**
 * @file
 * Unit tests: sim::Subprocess bounded waits — the primitive the
 * subprocess transport's per-shard deadline rests on.
 */

#include <gtest/gtest.h>

#include "sim/subprocess.hh"

using namespace warped;
using namespace warped::sim;

#if !defined(_WIN32)

TEST(SubprocessWaitFor, QuickExitIsReapedWithinTimeout)
{
    Subprocess p({"true"});
    const auto r = p.waitFor(5000);
    ASSERT_TRUE(r);
    EXPECT_TRUE(r->ok());
}

TEST(SubprocessWaitFor, HungChildTimesOutThenDiesOnKill)
{
    Subprocess p({"sleep", "30"});
    const auto r = p.waitFor(100);
    EXPECT_FALSE(r); // still running: the hung-worker case
    p.kill();
    const auto dead = p.waitFor(5000);
    ASSERT_TRUE(dead);
    EXPECT_TRUE(dead->signaled);
}

TEST(SubprocessWaitFor, IdempotentAfterReap)
{
    Subprocess p({"true"});
    const auto first = p.wait();
    EXPECT_TRUE(first.ok());
    const auto again = p.waitFor(0);
    ASSERT_TRUE(again);
    EXPECT_TRUE(again->ok());
}

#endif // !_WIN32
