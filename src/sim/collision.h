// Oriented-bounding-box collision test (separating axis theorem) for
// vehicle bodies. Exact for the rectangles we model; no broad-phase is
// needed at this scene scale.
#pragma once

namespace drivefi::sim {

struct Obb {
  double cx = 0.0;      // center, world frame
  double cy = 0.0;
  double heading = 0.0; // rad
  double half_length = 2.4;
  double half_width = 0.95;
};

bool obb_overlap(const Obb& a, const Obb& b);

}  // namespace drivefi::sim
