// Tests for game/nash: the flat profile layout the VI solver uses.
#include "game/nash.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace hecmine::game {
namespace {

TEST(FlattenUnflatten, RoundTrips) {
  const Profile profile{{1.0, 2.0}, {3.0}, {4.0, 5.0, 6.0}};
  const auto flat = flatten(profile);
  ASSERT_EQ(flat.size(), 6u);
  const auto back = unflatten(flat, {2, 1, 3});
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0], (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(back[2], (std::vector<double>{4.0, 5.0, 6.0}));
}

TEST(FlattenUnflatten, ValidatesSizes) {
  EXPECT_THROW((void)unflatten({1.0, 2.0}, {3}), support::PreconditionError);
}

}  // namespace
}  // namespace hecmine::game
