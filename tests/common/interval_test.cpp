#include "common/interval.hpp"

#include <gtest/gtest.h>

namespace simty {
namespace {

TimePoint at(std::int64_t s) { return TimePoint::origin() + Duration::seconds(s); }

TEST(TimeInterval, FromLength) {
  const TimeInterval w = TimeInterval::from_length(at(10), Duration::seconds(5));
  EXPECT_EQ(w.start(), at(10));
  EXPECT_EQ(w.end(), at(15));
  EXPECT_EQ(w.length(), Duration::seconds(5));
  EXPECT_THROW(TimeInterval::from_length(at(0), -Duration::seconds(1)),
               std::invalid_argument);
}

TEST(TimeInterval, PointIntervalIsClosed) {
  // An alpha = 0 alarm has a single-point window: it still "overlaps" an
  // interval containing that point.
  const TimeInterval p = TimeInterval::point(at(60));
  EXPECT_FALSE(p.is_empty());
  EXPECT_EQ(p.length(), Duration::zero());
  EXPECT_TRUE(p.contains(at(60)));
  EXPECT_TRUE(p.overlaps(TimeInterval{at(50), at(70)}));
  EXPECT_TRUE(p.overlaps(p));
}

TEST(TimeInterval, EmptyBehaviour) {
  const TimeInterval e = TimeInterval::empty();
  EXPECT_TRUE(e.is_empty());
  EXPECT_EQ(e.length(), Duration::zero());
  EXPECT_FALSE(e.contains(at(0)));
  EXPECT_FALSE(e.overlaps(TimeInterval{at(0), at(100)}));
  // All empty intervals compare equal regardless of endpoints.
  EXPECT_EQ(e, (TimeInterval{at(9), at(3)}));
}

TEST(TimeInterval, OverlapIsSymmetricAndClosed) {
  const TimeInterval a{at(0), at(10)};
  const TimeInterval b{at(10), at(20)};  // touch at a single point
  const TimeInterval c{at(11), at(20)};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_FALSE(c.overlaps(a));
}

TEST(TimeInterval, IntersectComputesOverlapRegion) {
  const TimeInterval a{at(0), at(10)};
  const TimeInterval b{at(6), at(14)};
  const TimeInterval i = a.intersect(b);
  EXPECT_EQ(i, (TimeInterval{at(6), at(10)}));
  // Disjoint -> empty.
  EXPECT_TRUE(a.intersect(TimeInterval{at(11), at(12)}).is_empty());
  // Intersection with empty stays empty.
  EXPECT_TRUE(a.intersect(TimeInterval::empty()).is_empty());
}

TEST(TimeInterval, IntersectionIsAssociativeOnChains) {
  // Entry attribute computation folds member windows left to right; the
  // result must not depend on the order.
  const TimeInterval a{at(0), at(30)};
  const TimeInterval b{at(10), at(40)};
  const TimeInterval c{at(20), at(50)};
  EXPECT_EQ(a.intersect(b).intersect(c), a.intersect(c).intersect(b));
  EXPECT_EQ(a.intersect(b).intersect(c), (TimeInterval{at(20), at(30)}));
}

TEST(TimeInterval, Shifted) {
  const TimeInterval a{at(5), at(10)};
  EXPECT_EQ(a.shifted(Duration::seconds(3)), (TimeInterval{at(8), at(13)}));
  EXPECT_TRUE(TimeInterval::empty().shifted(Duration::seconds(3)).is_empty());
}

TEST(TimeInterval, Contains) {
  const TimeInterval a{at(5), at(10)};
  EXPECT_TRUE(a.contains(at(5)));
  EXPECT_TRUE(a.contains(at(10)));
  EXPECT_FALSE(a.contains(at(11)));
}

TEST(TimeInterval, ToString) {
  EXPECT_EQ(TimeInterval::empty().to_string(), "[empty]");
  EXPECT_EQ((TimeInterval{at(1), at(2)}).to_string(), "[1.000s, 2.000s]");
}

}  // namespace
}  // namespace simty
