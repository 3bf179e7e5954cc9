#include "hw/component.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace simty::hw {
namespace {

TEST(ComponentSet, EmptyByDefault) {
  ComponentSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.contains(Component::kWifi));
  EXPECT_EQ(s.to_string(), "{}");
}

TEST(ComponentSet, InsertEraseContains) {
  ComponentSet s;
  s.insert(Component::kWifi);
  s.insert(Component::kWps);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.contains(Component::kWifi));
  s.erase(Component::kWifi);
  EXPECT_FALSE(s.contains(Component::kWifi));
  EXPECT_TRUE(s.contains(Component::kWps));
  // Insert is idempotent.
  s.insert(Component::kWps);
  EXPECT_EQ(s.size(), 1u);
}

TEST(ComponentSet, SetAlgebra) {
  const ComponentSet a{Component::kWifi, Component::kWps};
  const ComponentSet b{Component::kWps, Component::kSpeaker};
  EXPECT_EQ(a | b,
            (ComponentSet{Component::kWifi, Component::kWps, Component::kSpeaker}));
  EXPECT_EQ(a & b, (ComponentSet{Component::kWps}));
  EXPECT_EQ(a - b, (ComponentSet{Component::kWifi}));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(ComponentSet{Component::kVibrator}));
  // Empty sets never intersect anything — the "low hardware similarity" case.
  EXPECT_FALSE(a.intersects(ComponentSet::none()));
  EXPECT_FALSE(ComponentSet::none().intersects(ComponentSet::none()));
}

TEST(ComponentSet, UnionCompoundAssign) {
  ComponentSet s{Component::kWifi};
  s |= ComponentSet{Component::kWps};
  EXPECT_EQ(s, (ComponentSet{Component::kWifi, Component::kWps}));
}

TEST(ComponentSet, PerceptibilityFollowsUserSenses) {
  // Paper §3.1.2: screen/speaker/vibrator are perceptible; radios/sensors not.
  EXPECT_TRUE(is_user_perceptible(Component::kScreen));
  EXPECT_TRUE(is_user_perceptible(Component::kSpeaker));
  EXPECT_TRUE(is_user_perceptible(Component::kVibrator));
  EXPECT_FALSE(is_user_perceptible(Component::kWifi));
  EXPECT_FALSE(is_user_perceptible(Component::kWps));
  EXPECT_FALSE(is_user_perceptible(Component::kGps));
  EXPECT_FALSE(is_user_perceptible(Component::kAccelerometer));
  EXPECT_FALSE(is_user_perceptible(Component::kCellular));

  EXPECT_TRUE((ComponentSet{Component::kWifi, Component::kVibrator}).any_perceptible());
  EXPECT_FALSE((ComponentSet{Component::kWifi, Component::kWps}).any_perceptible());
  EXPECT_FALSE(ComponentSet::none().any_perceptible());
}

TEST(ComponentSet, ComponentsInEnumOrder) {
  const ComponentSet s{Component::kVibrator, Component::kWifi};
  std::vector<Component> cs;
  s.for_each([&cs](Component c) { cs.push_back(c); });
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[0], Component::kWifi);
  EXPECT_EQ(cs[1], Component::kVibrator);

  // Every subset visits exactly its members, ascending.
  for (std::uint32_t bits = 0; bits < (1u << kComponentCount); ++bits) {
    const ComponentSet sub = ComponentSet::from_bits(bits);
    std::vector<Component> visited;
    sub.for_each([&visited](Component c) { visited.push_back(c); });
    std::vector<Component> expected;
    for (int i = 0; i < kComponentCount; ++i) {
      if (sub.contains(static_cast<Component>(i))) {
        expected.push_back(static_cast<Component>(i));
      }
    }
    ASSERT_EQ(visited, expected) << bits;
  }
}

TEST(ComponentSet, AllContainsEveryComponent) {
  const ComponentSet all = ComponentSet::all();
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kComponentCount));
  for (int i = 0; i < kComponentCount; ++i) {
    EXPECT_TRUE(all.contains(static_cast<Component>(i)));
  }
}

TEST(ComponentSet, Names) {
  EXPECT_STREQ(to_string(Component::kWifi), "wifi");
  EXPECT_STREQ(to_string(Component::kAccelerometer), "accelerometer");
  EXPECT_EQ((ComponentSet{Component::kWifi, Component::kWps}).to_string(),
            "{wifi,wps}");
}

}  // namespace
}  // namespace simty::hw
