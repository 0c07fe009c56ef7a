// The hardware fault model (paper fault model (a)): single/multi-bit
// faults in processor state. The paper injects only into unprotected
// state, since memory and caches are assumed SECDED-protected ("Memory and
// caches ... are assumed to be protected with SECDED codes", §II-C); every
// register the pipeline exposes is such state, so a flip always lands in
// the live value.
#pragma once

#include "util/rng.h"

namespace drivefi::hw {

// Flips `bits` distinct bits (0 = LSB of mantissa, 63 = sign) of the
// double's 64-bit image. Positions are drawn from `rng` by rejection until
// `bits` distinct ones are placed, so a fault's flip depends only on the
// stream. Requires bits <= 64 (core::BitFlipModel enforces 1..64).
double flip_random_bits(double value, unsigned bits, util::Rng& rng);

}  // namespace drivefi::hw
