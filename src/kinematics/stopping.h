// Emergency-stop maneuver and stopping distance d_stop (paper §III-A,
// eqs. (4)–(7)). The maneuver holds the steering angle (dphi/dt = 0) and
// applies maximum comfortable deceleration (dv/dt = -amax) until the
// vehicle halts; d_stop is the displacement accumulated during the
// maneuver, decomposed into the longitudinal/lateral axes of the vehicle
// frame at the start of the maneuver.
#pragma once

#include "kinematics/bicycle.h"

namespace drivefi::kinematics {

// Version of the stop-maneuver numerics. Every safety potential a campaign
// records comes from this solver, so a change that moves its results bumps
// the version, and core::campaign_config_hash folds it in: a store written
// by another version refuses to resume or merge. Version 1 was a fixed
// 5 ms RK4 step; version 2 is the event-located adaptive solver.
inline constexpr int kStoppingSolverVersion = 2;

// Components are expressed in the reference frame theta0 is measured
// against (the lane axis): longitudinal is along the lane, lateral across
// it. A heading error theta0 != 0 therefore contributes lateral stopping
// displacement -- the quantity compared against the lane margin.
struct StoppingDistance {
  double longitudinal = 0.0;  // m, along the lane axis (>= 0)
  double lateral = 0.0;       // m, signed; + is left of the lane axis
  double stop_time = 0.0;     // s, time to standstill
};

// The paper's procedure P (eq. (7)): numerical integration of the reduced
// system (6) from the initial kinematic state. Speed is closed-form
// (v = v0 - amax t); the steering actuator is piecewise smooth (slewing,
// or sliding on its target), and the pose is integrated within each piece
// by an adaptive Dormand-Prince 5(4) method whose switching events are
// located by root-finding. Tolerances are fixed: positions agree with a
// converged fixed-step reference to well under a millimetre.
//
// Deviation from eq. (5), documented under "Modelling choices" in
// docs/ARCHITECTURE.md: the paper freezes the
// steering angle during the stop (dphi/dt = 0). With that choice, ANY
// nonzero steering angle or heading error at highway speed integrates
// into a lateral displacement far beyond the lane margin, so every
// realistically noisy scene reads as laterally unsafe. We instead model
// the stop the way a production AEB executes it -- braking with lane-hold
// steering: the actuator slews (at steering_release_rate, rad/s) toward a
// command that decays the heading error, limited to +-max_steering, under
// a combined-slip friction cap. A genuine fault-induced heading excursion
// still produces a large lateral displacement before the hold catches it
// -- exactly the lateral hazard -- while sensor-noise wiggle does not.
// Pass steering_release_rate = 0 for the paper-pure frozen-steering
// variant.
StoppingDistance stopping_distance(double amax, double v0, double theta0,
                                   double phi0, double wheelbase,
                                   double steering_release_rate = 0.8,
                                   double max_steering = 0.55);

// Convenience overload from a vehicle state; the actuator's slew rate and
// steering limit come from the vehicle parameters.
StoppingDistance stopping_distance(const VehicleState& state,
                                   const VehicleParams& params);

// Closed form for straight-line motion (phi0 == 0): v0^2 / (2 amax).
// Used by tests/benches to validate the numerical procedure.
double stopping_distance_straight(double amax, double v0);

}  // namespace drivefi::kinematics
