// Kinematic bicycle model of the ego vehicle (paper §III-A, eq. (3)):
//   dx/dt = v cos(theta), dy/dt = v sin(theta), dtheta/dt = v tan(phi) / L
// with speed v driven by throttle/brake through a longitudinal
// acceleration model.
#pragma once

#include <cstddef>

namespace drivefi::kinematics {

// Planar pose + motion state of a vehicle.
struct VehicleState {
  double x = 0.0;      // m, world frame
  double y = 0.0;      // m, world frame
  double theta = 0.0;  // rad, heading
  double v = 0.0;      // m/s, forward speed (>= 0)
  double phi = 0.0;    // rad, steering angle
  double a = 0.0;      // m/s^2, current longitudinal acceleration

  bool operator==(const VehicleState&) const = default;
};

// Actuation command applied to the vehicle (paper's A_t = {throttle zeta,
// brake b, steering angle phi}).
struct Actuation {
  double throttle = 0.0;  // [0, 1]
  double brake = 0.0;     // [0, 1]
  double steering = 0.0;  // rad, commanded steering angle
};

// Physical parameters; defaults approximate a mid-size sedan and match the
// constants used throughout the paper's examples (amax comfortable ~6 m/s^2,
// highway speed 33.5 m/s).
struct VehicleParams {
  double wheelbase = 2.8;          // L, m
  double max_accel = 4.5;          // m/s^2 at full throttle
  double max_brake_decel = 8.0;    // m/s^2 at full brake
  double amax_comfort = 6.0;       // m/s^2, emergency-stop deceleration
  double max_steering = 0.55;      // rad, mechanical steering limit
  double max_speed = 45.0;         // m/s
  double steering_rate = 0.8;      // rad/s, actuator slew limit
  // Tire friction limit on lateral acceleration: the yaw dynamics use an
  // effective steering angle capped so that v^2 tan(phi)/L never exceeds
  // this. Without it the kinematic model would corner at 7 g under a
  // full-lock command at highway speed, which no road tire delivers, and
  // brief steering faults would be apocalyptic instead of hazardous.
  double max_lateral_accel = 6.0;  // m/s^2 (~0.6 g)
  double length = 4.8;             // m, body length
  double width = 1.9;              // m, body width

  bool operator==(const VehicleParams&) const = default;
};

// Advance the bicycle model by dt seconds under a fixed actuation using
// RK4 on the state [x, y, theta, v]. Steering obeys the slew limit.
VehicleState step(const VehicleState& state, const Actuation& act,
                  const VehicleParams& params, double dt);

}  // namespace drivefi::kinematics
