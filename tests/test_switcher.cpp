#include "switching/switcher.h"

#include <gtest/gtest.h>

namespace safecross::switching {
namespace {

TEST(Switcher, SwitchToUnregisteredThrows) {
  ModelSwitcher sw;
  EXPECT_THROW(sw.switch_to("nope"), std::invalid_argument);
}

TEST(Switcher, FirstSwitchPaysDelay) {
  ModelSwitcher sw;
  sw.register_model("day", slowfast_r50_profile());
  const double delay = sw.switch_to("day");
  EXPECT_GT(delay, 0.0);
  EXPECT_EQ(sw.active_scene(), "day");
  EXPECT_EQ(sw.switch_count(), 1u);
}

TEST(Switcher, RepeatSwitchIsFree) {
  ModelSwitcher sw;
  sw.register_model("day", slowfast_r50_profile());
  sw.switch_to("day");
  EXPECT_DOUBLE_EQ(sw.switch_to("day"), 0.0);
  EXPECT_EQ(sw.switch_count(), 1u);
}

TEST(Switcher, PipeSwitchPolicyIsMilliseconds) {
  ModelSwitcher sw({}, SwitchPolicy::PipeSwitch);
  sw.register_model("day", slowfast_r50_profile());
  sw.register_model("snow", slowfast_r50_profile());
  sw.switch_to("day");
  const double delay = sw.switch_to("snow");
  EXPECT_LT(delay, 10.0);
}

TEST(Switcher, StopAndStartPolicyIsSeconds) {
  ModelSwitcher sw({}, SwitchPolicy::StopAndStart);
  sw.register_model("day", slowfast_r50_profile());
  sw.register_model("snow", slowfast_r50_profile());
  sw.switch_to("day");
  const double delay = sw.switch_to("snow");
  EXPECT_GT(delay, 1000.0);
}

TEST(Switcher, AccumulatesTotals) {
  ModelSwitcher sw;
  sw.register_model("a", inception_v3_profile());
  sw.register_model("b", resnet152_profile());
  sw.switch_to("a");
  sw.switch_to("b");
  sw.switch_to("a");
  EXPECT_EQ(sw.switch_count(), 3u);
  EXPECT_GT(sw.total_delay_ms(), 0.0);
  ASSERT_TRUE(sw.last_switch().has_value());
  EXPECT_FALSE(sw.last_switch()->timeline.empty());
}

TEST(Switcher, ReRegisterReplacesProfile) {
  ModelSwitcher sw;
  sw.register_model("x", inception_v3_profile());
  sw.register_model("x", resnet152_profile());  // replace
  EXPECT_TRUE(sw.has_model("x"));
  sw.switch_to("x");
  SUCCEED();
}

TEST(Switcher, SwitchToUnregisteredThrowsAndKeepsTheActiveModel) {
  ModelSwitcher sw;
  sw.register_model("day", slowfast_r50_profile());
  sw.register_model("rain", slowfast_r50_profile());
  sw.switch_to("day");
  EXPECT_THROW(sw.switch_to("nope"), std::invalid_argument);
  EXPECT_EQ(sw.active_scene(), "day");
  EXPECT_EQ(sw.switch_count(), 1u);
  // The failed attempt leaves the switcher usable.
  EXPECT_GT(sw.switch_to("rain"), 0.0);
  EXPECT_EQ(sw.active_scene(), "rain");
}

TEST(Switcher, PolicyNames) {
  EXPECT_STREQ(policy_name(SwitchPolicy::PipeSwitch), "pipeswitch");
  EXPECT_STREQ(policy_name(SwitchPolicy::StopAndStart), "stop-and-start");
}

}  // namespace
}  // namespace safecross::switching
