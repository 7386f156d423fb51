/**
 * @file
 * The recovery-off identity gate: on every pinned machine that does
 * not enable recovery, a disabled RecoveryConfig carrying noisy
 * non-default knobs must leave the launch metrics byte-identical to
 * the plain baseline, with no recovery.* key in the registry.
 * Registered as the `recovery_noop_smoke` ctest.
 */

#include <gtest/gtest.h>

#include <string>

#include "recovery/recovery_config.hh"
#include "pinned_configs.hh"

using namespace warped;

TEST(RecoveryNoop, PinnedConfigsAreByteIdentical)
{
    recovery::RecoveryConfig noisyOff;
    noisyOff.retryBudget = 1;
    noisyOff.ringCapacity = 7;
    noisyOff.rollbackPenalty = 99;
    for (const auto &cfg : test::pinnedConfigs()) {
        if (cfg.recovery.enabled)
            continue;
        SCOPED_TRACE(cfg.name);
        const auto off = test::runPinned(cfg, noisyOff);
        EXPECT_EQ(test::runPinned(cfg, {}), off);
        for (const auto &json : off)
            EXPECT_EQ(json.find("recovery"), std::string::npos);
    }
}
