#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "kinematics/bicycle.h"
#include "kinematics/safety.h"
#include "kinematics/stopping.h"
#include "util/rng.h"

namespace drivefi::kinematics {
namespace {

// ---------- Bicycle model ----------

TEST(Bicycle, StraightLineAtConstantSpeed) {
  VehicleState s;
  s.v = 20.0;
  VehicleParams params;
  Actuation act;  // coast; drag decays speed slightly
  for (int i = 0; i < 100; ++i) s = step(s, act, params, 0.01);
  EXPECT_NEAR(s.y, 0.0, 1e-9);
  EXPECT_NEAR(s.theta, 0.0, 1e-9);
  EXPECT_GT(s.x, 19.0);  // ~1 s at ~20 m/s
  EXPECT_LT(s.v, 20.0);  // drag
}

TEST(Bicycle, ThrottleAccelerates) {
  VehicleState s;
  s.v = 10.0;
  VehicleParams params;
  Actuation act;
  act.throttle = 1.0;
  for (int i = 0; i < 100; ++i) s = step(s, act, params, 0.01);
  EXPECT_GT(s.v, 13.5);  // ~max_accel * 1s minus drag
}

TEST(Bicycle, BrakeStopsAndDoesNotReverse) {
  VehicleState s;
  s.v = 5.0;
  VehicleParams params;
  Actuation act;
  act.brake = 1.0;
  for (int i = 0; i < 500; ++i) s = step(s, act, params, 0.01);
  EXPECT_DOUBLE_EQ(s.v, 0.0);
}

TEST(Bicycle, SteeringCurvesPath) {
  VehicleState s;
  s.v = 10.0;
  s.phi = 0.1;  // pre-set steering to skip slew
  VehicleParams params;
  Actuation act;
  act.steering = 0.1;
  for (int i = 0; i < 200; ++i) s = step(s, act, params, 0.01);
  EXPECT_GT(s.theta, 0.05);
  EXPECT_GT(s.y, 0.1);
}

TEST(Bicycle, SteeringSlewLimit) {
  VehicleState s;
  s.v = 10.0;
  VehicleParams params;
  Actuation act;
  act.steering = params.max_steering;
  s = step(s, act, params, 0.01);
  EXPECT_NEAR(s.phi, params.steering_rate * 0.01, 1e-12);
}

TEST(Bicycle, SpeedClampedToMax) {
  VehicleState s;
  s.v = 44.9;
  VehicleParams params;
  Actuation act;
  act.throttle = 1.0;
  for (int i = 0; i < 1000; ++i) s = step(s, act, params, 0.01);
  EXPECT_LE(s.v, params.max_speed + 1e-9);
}

// RK4 convergence: halving dt should shrink error ~16x (4th order). We
// test against a fine-dt reference on a curved path.
TEST(Bicycle, Rk4ConvergenceOrder) {
  VehicleParams params;
  Actuation act;
  act.throttle = 0.5;
  act.steering = 0.2;

  auto simulate = [&](double dt) {
    VehicleState s;
    s.v = 15.0;
    s.phi = 0.2;
    const int steps = static_cast<int>(std::lround(2.0 / dt));
    for (int i = 0; i < steps; ++i) s = step(s, act, params, dt);
    return s;
  };

  const VehicleState ref = simulate(1e-5);
  const VehicleState coarse = simulate(0.02);
  const VehicleState fine = simulate(0.01);
  const double err_coarse = std::hypot(coarse.x - ref.x, coarse.y - ref.y);
  const double err_fine = std::hypot(fine.x - ref.x, fine.y - ref.y);
  // Some order-reduction is expected because phi/accel are held piecewise
  // constant; still expect clearly better than 2nd order (factor 4).
  EXPECT_LT(err_fine, err_coarse / 3.0);
}

// ---------- Stopping distance ----------

TEST(Stopping, MatchesClosedFormStraight) {
  for (double v0 : {5.0, 10.0, 20.0, 33.5, 40.0}) {
    const StoppingDistance d = stopping_distance(6.0, v0, 0.0, 0.0, 2.8);
    EXPECT_NEAR(d.longitudinal, stopping_distance_straight(6.0, v0),
                1e-4 * stopping_distance_straight(6.0, v0) + 1e-6)
        << "v0=" << v0;
    EXPECT_NEAR(d.lateral, 0.0, 1e-9);
    EXPECT_NEAR(d.stop_time, v0 / 6.0, 1e-12);
  }
}

TEST(Stopping, ZeroSpeedZeroDistance) {
  const StoppingDistance d = stopping_distance(6.0, 0.0, 0.0, 0.0, 2.8);
  EXPECT_DOUBLE_EQ(d.longitudinal, 0.0);
  EXPECT_DOUBLE_EQ(d.lateral, 0.0);
}

TEST(Stopping, SteeringProducesLateralComponent) {
  const StoppingDistance d = stopping_distance(6.0, 20.0, 0.0, 0.15, 2.8);
  // The lane-hold stop bounds the excursion, but the curvature transient
  // before the hold catches it still shows up laterally.
  EXPECT_GT(std::abs(d.lateral), 0.05);
  // Total displacement can't exceed the straight-line stopping distance.
  const double straight = stopping_distance_straight(6.0, 20.0);
  EXPECT_LT(std::hypot(d.longitudinal, d.lateral), straight + 1e-6);
  // The paper-pure frozen-steering variant keeps the full arc.
  const StoppingDistance frozen =
      stopping_distance(6.0, 20.0, 0.0, 0.15, 2.8, 0.0);
  EXPECT_GT(std::abs(frozen.lateral), std::abs(d.lateral));
}

TEST(Stopping, SignOfLateralFollowsSteering) {
  const StoppingDistance left = stopping_distance(6.0, 20.0, 0.0, 0.1, 2.8);
  const StoppingDistance right = stopping_distance(6.0, 20.0, 0.0, -0.1, 2.8);
  EXPECT_GT(left.lateral, 0.0);
  EXPECT_LT(right.lateral, 0.0);
  EXPECT_NEAR(left.lateral, -right.lateral, 1e-9);
}

TEST(Stopping, HeadingErrorProducesLateralDriftWhenFrozen) {
  // Paper-pure variant (frozen steering): a heading error theta0 drifts
  // laterally by ~sin(theta0) * straight-line stopping distance.
  const double theta0 = 0.02;
  const StoppingDistance frozen =
      stopping_distance(6.0, 30.0, theta0, 0.0, 2.8, 0.0);
  const double straight = stopping_distance_straight(6.0, 30.0);
  EXPECT_NEAR(frozen.lateral, std::sin(theta0) * straight, 0.01);
  EXPECT_NEAR(frozen.longitudinal, std::cos(theta0) * straight, 0.01);

  // The lane-hold stop corrects most of that drift.
  const StoppingDistance held = stopping_distance(6.0, 30.0, theta0, 0.0, 2.8);
  EXPECT_LT(std::abs(held.lateral), std::abs(frozen.lateral) / 2.0);
}

TEST(Stopping, SteeringReleaseBoundsLateralExcursion) {
  // A small steering correction must NOT produce a lane-width lateral
  // displacement once steering releases at the actuator rate -- the
  // degenerate sensitivity the frozen-steering variant suffers from.
  const StoppingDistance released =
      stopping_distance(6.0, 30.0, 0.0, 0.02, 2.8, 0.8);
  const StoppingDistance frozen =
      stopping_distance(6.0, 30.0, 0.0, 0.02, 2.8, 0.0);
  EXPECT_LT(std::abs(released.lateral), 0.5);
  EXPECT_GT(std::abs(frozen.lateral), 5.0);
}

// Parameterized sweep: dstop is monotonically increasing in v0 and
// decreasing in amax.
class StoppingSweep : public ::testing::TestWithParam<double> {};

TEST_P(StoppingSweep, MonotoneInSpeed) {
  const double phi = GetParam();
  double prev = -1.0;
  for (double v0 = 5.0; v0 <= 40.0; v0 += 5.0) {
    const StoppingDistance d = stopping_distance(6.0, v0, 0.0, phi, 2.8);
    EXPECT_GT(d.longitudinal, prev);
    prev = d.longitudinal;
  }
}

TEST_P(StoppingSweep, MonotoneInDeceleration) {
  const double phi = GetParam();
  double prev = 1e18;
  for (double amax = 2.0; amax <= 10.0; amax += 2.0) {
    const StoppingDistance d = stopping_distance(amax, 30.0, 0.0, phi, 2.8);
    EXPECT_LT(d.longitudinal, prev);
    prev = d.longitudinal;
  }
}

INSTANTIATE_TEST_SUITE_P(SteeringAngles, StoppingSweep,
                         ::testing::Values(0.0, 0.05, 0.1, 0.2, -0.1));

// ---------- Stopping solver vs a converged fixed-step oracle ----------

// The emergency-stop maneuver integrated the direct way: classic RK4 at a
// fixed step over (x, y, theta, v, phi), with the actuator slewing at
// +-rate on the sign of its error to the lane-hold target (bang-bang, so
// phi chatters around the target once it catches it). Converges to first
// order in dt; at dt <= 2.5e-5 s it is a reference to a fraction of a
// millimetre for the inputs below.
struct OracleState {
  double x, y, theta, v, phi;
};

OracleState oracle_deriv(const OracleState& s, double amax, double wheelbase,
                         double rate, double cap) {
  double dphi = 0.0;
  if (rate > 0.0) {
    const double err = std::clamp(-1.2 * s.theta, -cap, cap) - s.phi;
    if (err > 1e-12)
      dphi = rate;
    else if (err < -1e-12)
      dphi = -rate;
  }
  const double limit =
      s.v <= 1.0 ? 1.0 : std::atan(0.7 * amax * wheelbase / (s.v * s.v));
  const double phi_eff = std::clamp(s.phi, -limit, limit);
  return OracleState{s.v * std::cos(s.theta), s.v * std::sin(s.theta),
                     s.v * std::tan(phi_eff) / wheelbase, -amax, dphi};
}

StoppingDistance rk4_stopping_distance(double amax, double v0, double theta0,
                                       double phi0, double wheelbase,
                                       double rate, double cap, double dt) {
  const auto axpy = [](const OracleState& s, const OracleState& d, double h) {
    return OracleState{s.x + h * d.x, s.y + h * d.y, s.theta + h * d.theta,
                       s.v + h * d.v, s.phi + h * d.phi};
  };
  OracleState s{0.0, 0.0, theta0, v0, std::clamp(phi0, -1.0, 1.0)};
  const double t_stop = v0 / amax;
  for (double t = 0.0; t < t_stop;) {
    const double h = std::min(dt, t_stop - t);
    const OracleState k1 = oracle_deriv(s, amax, wheelbase, rate, cap);
    const OracleState k2 =
        oracle_deriv(axpy(s, k1, 0.5 * h), amax, wheelbase, rate, cap);
    const OracleState k3 =
        oracle_deriv(axpy(s, k2, 0.5 * h), amax, wheelbase, rate, cap);
    const OracleState k4 =
        oracle_deriv(axpy(s, k3, h), amax, wheelbase, rate, cap);
    s.x += h / 6.0 * (k1.x + 2.0 * k2.x + 2.0 * k3.x + k4.x);
    s.y += h / 6.0 * (k1.y + 2.0 * k2.y + 2.0 * k3.y + k4.y);
    s.theta +=
        h / 6.0 * (k1.theta + 2.0 * k2.theta + 2.0 * k3.theta + k4.theta);
    s.phi += h / 6.0 * (k1.phi + 2.0 * k2.phi + 2.0 * k3.phi + k4.phi);
    s.v = std::max(0.0, s.v - amax * h);
    t += h;
  }
  return StoppingDistance{s.x, s.y, t_stop};
}

struct StopCase {
  const char* what;
  double amax, v0, theta0, phi0, rate, cap;
};

// Seeded sweep over the ranges the pipeline and the selector feed in,
// plus near-nominal states and one input for each switching path.
std::vector<StopCase> accuracy_cases() {
  std::vector<StopCase> cases = {
      {"near-nominal", 6.0, 33.5, 1e-4, -2e-4, 0.8, 0.55},
      {"near-nominal", 6.0, 20.0, -3e-4, 1e-4, 0.8, 0.55},
      {"near-nominal", 6.0, 10.0, 0.0, 1e-3, 0.8, 0.55},
      {"straight", 6.0, 25.0, 0.0, 0.0, 0.8, 0.55},
      {"slide entry after a slew", 6.0, 30.0, 0.0, 0.05, 0.8, 0.55},
      {"slew-limited slide exit", 6.0, 9.9272, 0.5619, -0.3475, 0.8, 0.55},
      {"active friction clamp", 6.0, 30.0, 0.0, 0.3, 0.8, 0.55},
      {"saturated target", 6.0, 30.0, 0.6, 0.0, 0.8, 0.55},
      {"v = 1 breakpoint", 0.5, 3.0, 0.0, 0.9, 0.0, 0.55},
      {"frozen steering", 6.0, 33.5, 0.02, 0.1, 0.0, 0.55},
  };
  util::Rng rng(20190624);
  for (int i = 0; i < 24; ++i)
    cases.push_back({"sweep", 6.0, rng.uniform(1.0, 40.0),
                     rng.uniform(-0.15, 0.15), rng.uniform(-0.3, 0.3), 0.8,
                     0.55});
  return cases;
}

TEST(Stopping, MatchesConvergedFixedStepOracle) {
  // 5 mm bounds the whole maneuver; the old 5 ms fixed-step integration
  // was off by about 5 cm on the same inputs.
  constexpr double kToleranceM = 5e-3;
  for (const StopCase& c : accuracy_cases()) {
    const StoppingDistance d = stopping_distance(c.amax, c.v0, c.theta0,
                                                 c.phi0, 2.8, c.rate, c.cap);
    const StoppingDistance ref = rk4_stopping_distance(
        c.amax, c.v0, c.theta0, c.phi0, 2.8, c.rate, c.cap, 2.5e-5);
    EXPECT_LE(std::hypot(d.longitudinal - ref.longitudinal,
                         d.lateral - ref.lateral),
              kToleranceM)
        << c.what << ": amax=" << c.amax << " v0=" << c.v0
        << " theta0=" << c.theta0 << " phi0=" << c.phi0;
    EXPECT_DOUBLE_EQ(d.stop_time, c.v0 / c.amax);
  }
}

TEST(Stopping, HonoursTheVehicleSteeringLimit) {
  // A large heading error at low speed saturates the lane-hold command,
  // so the steering limit shapes the stop.
  VehicleState state;
  state.v = 5.0;
  state.theta = 0.6;
  state.phi = -0.55;
  VehicleParams params;
  params.max_steering = 0.3;
  const StoppingDistance d = stopping_distance(state, params);
  const StoppingDistance capped = rk4_stopping_distance(
      params.amax_comfort, state.v, state.theta, state.phi, params.wheelbase,
      params.steering_rate, 0.3, 2.5e-5);
  const StoppingDistance default_cap = rk4_stopping_distance(
      params.amax_comfort, state.v, state.theta, state.phi, params.wheelbase,
      params.steering_rate, 0.55, 2.5e-5);
  EXPECT_NEAR(d.lateral, capped.lateral, 1e-3);
  EXPECT_NEAR(d.longitudinal, capped.longitudinal, 1e-3);
  EXPECT_GT(std::abs(d.lateral - default_cap.lateral), 0.05);
}

TEST(Stopping, SanitizesNonFiniteAndOutOfRangeInputs) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const StoppingDistance& d :
       {stopping_distance(6.0, nan, 0.0, 0.0, 2.8),
        stopping_distance(6.0, 20.0, inf, 0.0, 2.8),
        stopping_distance(6.0, 20.0, 0.0, 0.0, 2.8, nan),
        stopping_distance(6.0, 20.0, 0.0, 0.0, 2.8, 0.8, inf),
        stopping_distance(-1.0, 20.0, 0.0, 0.0, 2.8)}) {
    EXPECT_EQ(d.longitudinal, 0.0);
    EXPECT_EQ(d.lateral, 0.0);
    EXPECT_EQ(d.stop_time, 0.0);
  }
  // A corrupted speed is clamped to the physical envelope, not integrated
  // for an astronomical stop time.
  const StoppingDistance fast = stopping_distance(6.0, 1e300, 0.01, 0.2, 2.8);
  EXPECT_DOUBLE_EQ(fast.stop_time, 150.0 / 6.0);
  EXPECT_TRUE(std::isfinite(fast.longitudinal));
  EXPECT_TRUE(std::isfinite(fast.lateral));
}

// ---------- Friction-limited steering ----------

// At any speed, the yaw dynamics under a full-lock command must respect
// the lateral-acceleration cap: |v * dtheta/dt| <= max_lateral_accel.
class FrictionCapSweep : public ::testing::TestWithParam<double> {};

TEST_P(FrictionCapSweep, LateralAccelerationBounded) {
  const double speed = GetParam();
  VehicleParams params;
  VehicleState s;
  s.v = speed;
  s.phi = params.max_steering;  // start at full lock
  Actuation act;
  act.steering = params.max_steering;
  act.throttle = 0.3;

  const double dt = 1.0 / 120.0;
  for (int i = 0; i < 240; ++i) {
    const VehicleState next = step(s, act, params, dt);
    const double yaw_rate = (next.theta - s.theta) / dt;
    EXPECT_LE(std::abs(next.v * yaw_rate),
              params.max_lateral_accel * 1.05)
        << "v=" << next.v;
    s = next;
  }
}

TEST_P(FrictionCapSweep, LowSpeedKeepsMechanicalAuthority) {
  // Below ~sqrt(a_lat L / tan(phi_max)) the mechanical limit binds, so a
  // parking-speed car can still articulate fully.
  const double speed = GetParam();
  VehicleParams params;
  if (speed > 5.0) GTEST_SKIP() << "only meaningful at parking speeds";
  VehicleState s;
  s.v = speed;
  s.phi = params.max_steering;
  Actuation act;
  act.steering = params.max_steering;
  const VehicleState next = step(s, act, params, 0.01);
  // Turning at full articulation: yaw rate matches tan(phi_max).
  const double expect_rate = speed * std::tan(params.max_steering) /
                             params.wheelbase;
  EXPECT_NEAR((next.theta - s.theta) / 0.01, expect_rate,
              0.2 * expect_rate + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Speeds, FrictionCapSweep,
                         ::testing::Values(2.0, 5.0, 10.0, 20.0, 30.0, 40.0));

// ---------- Safety envelope / potential ----------

TEST(Safety, OpenRoadEnvelopeIsHorizon) {
  VehicleState ev;
  ev.y = 0.0;
  ev.v = 30.0;
  VehicleParams params;
  SafetyConfig config;
  const SafetyEnvelope env = safety_envelope(ev, params, {}, 0.0, config);
  EXPECT_DOUBLE_EQ(env.d_safe_lon, config.horizon);
  EXPECT_FALSE(env.limiting_obstacle.has_value());
}

TEST(Safety, StoppedLeadLimitsEnvelope) {
  VehicleState ev;
  ev.v = 20.0;
  VehicleParams params;
  ObstacleView lead;
  lead.x = 50.0;
  lead.v = 0.0;
  const SafetyEnvelope env = safety_envelope(ev, params, {lead}, 0.0);
  ASSERT_TRUE(env.limiting_obstacle.has_value());
  // gap = 50 - (4.8+4.8)/2 - standstill 2 = 43.2; no trajectory credit.
  EXPECT_NEAR(env.d_safe_lon, 43.2, 1e-9);
}

TEST(Safety, MovingLeadGetsTrajectoryCredit) {
  VehicleState ev;
  ev.v = 30.0;
  VehicleParams params;
  ObstacleView lead;
  lead.x = 50.0;
  lead.v = 25.0;
  SafetyConfig config;
  const SafetyEnvelope env = safety_envelope(ev, params, {lead}, 0.0, config);
  const double expected_credit = 25.0 * 25.0 / (2.0 * config.obstacle_amax);
  EXPECT_NEAR(env.d_safe_lon, 43.2 + expected_credit, 1e-9);
}

TEST(Safety, AdjacentLaneVehicleDoesNotLimitLongitudinal) {
  VehicleState ev;
  ev.v = 30.0;
  VehicleParams params;
  ObstacleView neighbor;
  neighbor.x = 50.0;
  neighbor.y = 3.7;  // one lane over
  neighbor.v = 30.0;
  SafetyConfig config;
  const SafetyEnvelope env =
      safety_envelope(ev, params, {neighbor}, 0.0, config);
  EXPECT_DOUBLE_EQ(env.d_safe_lon, config.horizon);
}

TEST(Safety, AbeamVehicleLimitsLateral) {
  VehicleState ev;
  ev.v = 30.0;
  VehicleParams params;
  ObstacleView neighbor;
  neighbor.x = 0.0;  // right beside us
  neighbor.y = 2.5;
  neighbor.v = 30.0;
  const SafetyEnvelope env = safety_envelope(ev, params, {neighbor}, 0.0);
  // side gap = 2.5 - 0.95 - 0.95 = 0.6 < lane margin.
  EXPECT_NEAR(env.d_safe_lat, 0.6, 1e-9);
}

TEST(Safety, LaneOffsetShrinksLateralMargin) {
  VehicleState ev;
  ev.y = 1.0;  // off center
  VehicleParams params;
  const SafetyEnvelope centered = safety_envelope({}, params, {}, 0.0);
  const SafetyEnvelope offset = safety_envelope(ev, params, {}, 0.0);
  EXPECT_LT(offset.d_safe_lat, centered.d_safe_lat);
}

TEST(Safety, PotentialCombinesEnvelopeAndStopping) {
  SafetyEnvelope env;
  env.d_safe_lon = 100.0;
  env.d_safe_lat = 1.0;
  StoppingDistance dstop;
  dstop.longitudinal = 75.0;
  dstop.lateral = -0.4;
  const SafetyPotential sp = safety_potential(env, dstop);
  EXPECT_DOUBLE_EQ(sp.longitudinal, 25.0);
  EXPECT_DOUBLE_EQ(sp.lateral, 0.6);
  EXPECT_TRUE(sp.safe());
}

TEST(Safety, UnsafeWhenStoppingExceedsEnvelope) {
  VehicleState ev;
  ev.v = 33.5;
  VehicleParams params;
  ObstacleView lead;
  lead.x = 30.0;  // way too close for 33.5 m/s
  lead.v = 0.0;
  const SafetyPotential sp =
      compute_safety_potential(ev, params, {lead}, 0.0);
  EXPECT_LT(sp.longitudinal, 0.0);
  EXPECT_FALSE(sp.safe());
}

TEST(Safety, FastFollowingOfMovingLeadIsSafe) {
  // Standard highway following at 1.8 s headway must be safe thanks to
  // the lead's trajectory credit.
  VehicleState ev;
  ev.v = 30.0;
  VehicleParams params;
  ObstacleView lead;
  lead.x = 5.0 + 1.8 * 30.0;  // standstill + headway gap
  lead.v = 30.0;
  const SafetyPotential sp =
      compute_safety_potential(ev, params, {lead}, 0.0);
  EXPECT_GT(sp.longitudinal, 0.0) << "headway following must be safe";
}

}  // namespace
}  // namespace drivefi::kinematics
