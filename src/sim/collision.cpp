#include "sim/collision.h"

#include <cmath>

namespace drivefi::sim {

namespace {

struct Vec2 {
  double x, y;
};

// Projection radius of box `b` onto unit axis `axis`.
double projection_radius(const Obb& b, const Vec2& axis) {
  const double c = std::cos(b.heading);
  const double s = std::sin(b.heading);
  const Vec2 ex{c, s};         // body x axis
  const Vec2 ey{-s, c};        // body y axis
  return b.half_length * std::abs(axis.x * ex.x + axis.y * ex.y) +
         b.half_width * std::abs(axis.x * ey.x + axis.y * ey.y);
}

}  // namespace

bool obb_overlap(const Obb& a, const Obb& b) {
  const Vec2 d{b.cx - a.cx, b.cy - a.cy};
  const double axes[4][2] = {
      {std::cos(a.heading), std::sin(a.heading)},
      {-std::sin(a.heading), std::cos(a.heading)},
      {std::cos(b.heading), std::sin(b.heading)},
      {-std::sin(b.heading), std::cos(b.heading)},
  };
  for (const auto& ax : axes) {
    const Vec2 axis{ax[0], ax[1]};
    const double dist = std::abs(d.x * axis.x + d.y * axis.y);
    if (dist > projection_radius(a, axis) + projection_radius(b, axis))
      return false;  // separating axis found
  }
  return true;
}

}  // namespace drivefi::sim
