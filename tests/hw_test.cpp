#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "hw/bitflip.h"
#include "util/rng.h"

namespace drivefi::hw {
namespace {

std::uint64_t flipped_mask(double before, double after) {
  return std::bit_cast<std::uint64_t>(before) ^
         std::bit_cast<std::uint64_t>(after);
}

TEST(BitFlip, RandomFlipsAreDistinct) {
  // With 3 requested bits the flip mask must have exactly 3 set bits, so
  // flipping cannot silently cancel.
  util::Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    const double corrupted = flip_random_bits(1.0, 3, rng);
    EXPECT_EQ(std::popcount(flipped_mask(1.0, corrupted)), 3);
  }
}

TEST(BitFlip, SixtyFourBitsComplementTheWord) {
  util::Rng rng(4);
  const double corrupted = flip_random_bits(2.5, 64, rng);
  EXPECT_EQ(flipped_mask(2.5, corrupted), ~0ULL);
}

}  // namespace
}  // namespace drivefi::hw
