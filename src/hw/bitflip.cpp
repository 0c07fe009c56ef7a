#include "hw/bitflip.h"

#include <bit>
#include <cassert>
#include <cstdint>

namespace drivefi::hw {

double flip_random_bits(double value, unsigned bits, util::Rng& rng) {
  assert(bits <= 64 && "a 64-bit word has no 65th distinct bit");
  std::uint64_t mask = 0;
  unsigned placed = 0;
  while (placed < bits) {
    const std::uint64_t b = 1ULL << rng.uniform_index(64);
    if (mask & b) continue;
    mask |= b;
    ++placed;
  }
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(value) ^ mask);
}

}  // namespace drivefi::hw
