#include "kinematics/stopping.h"

#include <algorithm>
#include <cmath>

namespace drivefi::kinematics {

namespace {

// Lane-hold steering gain during the stop (rad of steering per rad of
// heading error).
constexpr double kLaneHoldGain = 1.2;
// At and below this speed the friction cap is lifted (low-speed
// maneuvering), so the right-hand side jumps here.
constexpr double kFrictionFloorSpeed = 1.0;
// Initial-condition dead band of the steering error, below which the
// actuator is already on its target.
constexpr double kOnTargetBand = 1e-12;

// Error control of the adaptive step: absolute (m, rad) and relative
// tolerance per component, and the time resolution of event location.
constexpr double kAbsTol = 1e-7;
constexpr double kRelTol = 1e-7;
constexpr double kEventTimeTol = 1e-10;  // s
constexpr double kFirstStep = 1e-2;      // s
constexpr int kMaxRelocations = 8;

// Planar position and heading; speed and (outside slide) steering are
// closed-form functions of time, so this is the whole integrated state.
struct Pose {
  double x, y, theta;
};

// Piecewise-smooth modes of the steering actuator during the stop.
//   kFrozen     phi' = 0 (steering_release_rate = 0, the paper's eq. (5))
//   kSlew       phi' = +-rate, chasing the lane-hold target
//   kSaturated  phi = target(theta) = +-cap: sliding on the saturated target
//   kSlide      phi = target(theta) = -gain theta: the Filippov sliding mode
//               of the bang-bang slew, which tracks the target exactly
enum class Steer { kFrozen, kSlew, kSaturated, kSlide };

struct Mode {
  Steer steer = Steer::kFrozen;
  double phi0 = 0.0;  // steering at t0 (kFrozen, kSlew)
  double t0 = 0.0;    // s
  double dphi = 0.0;  // rad/s, signed slew rate (kSlew)
  // Side of the friction cap: +1 free, -1 clamped, 0 lifted (below the
  // floor speed). The cap is a kink in the yaw rate, so a step stops at
  // it like at an event, but the mode carries on.
  double friction = 0.0;
};

// The maneuver's fixed parameters and the steering law of each mode.
struct Maneuver {
  double amax, v0, wheelbase, rate, cap;
  // Combined-slip lateral allowance while braking at amax, as a bound on
  // tan(phi_eff): v^2 tan(phi_eff) / L <= 0.7 amax.
  double tan_budget;
  double t_floor;  // s, when the speed reaches kFrictionFloorSpeed

  double speed(double t) const { return std::max(0.0, v0 - amax * t); }

  double target(double theta) const {
    return std::clamp(-kLaneHoldGain * theta, -cap, cap);
  }

  double steering(const Mode& m, double t, double theta) const {
    if (m.steer == Steer::kSaturated || m.steer == Steer::kSlide)
      return target(theta);
    return m.phi0 + m.dphi * (t - m.t0);
  }

  // tan of the friction-limited steering angle; |phi| <= 1 < pi/2, so
  // clamping tan(phi) equals the tan of the clamped angle.
  double tan_effective(double phi, double v) const {
    const double t = std::tan(phi);
    if (v <= kFrictionFloorSpeed) return t;
    const double limit = tan_budget / (v * v);
    return std::clamp(t, -limit, limit);
  }

  // Heading rate, the only coupled equation of the reduced system (6).
  double yaw_rate(const Mode& m, double t, double theta) const {
    const double v = speed(t);
    return v * tan_effective(steering(m, t, theta), v) / wheelbase;
  }

  Pose deriv(const Mode& m, double t, double theta) const {
    const double v = speed(t);
    return Pose{v * std::cos(theta), v * std::sin(theta),
                yaw_rate(m, t, theta)};
  }

  // Margin to the friction cap: positive while the steering is free.
  double friction_margin(const Mode& m, double t, double theta) const {
    const double v = speed(t);
    return tan_budget - std::abs(std::tan(steering(m, t, theta))) * v * v;
  }

  Mode with_friction_side(Mode m, double t, double theta) const {
    m.friction = 0.0;
    if (t < t_floor)
      m.friction = friction_margin(m, t, theta) >= 0.0 ? 1.0 : -1.0;
    return m;
  }

  // Event functions of a mode: positive inside it. The mode ends where
  // kSwitch reaches zero; a step also stops where kFriction does (a kink).
  enum Event { kSwitch, kFriction, kEvents };

  double event(const Mode& m, double t, double theta, int e) const {
    if (e == kFriction)
      return m.friction == 0.0 ? 1.0
                               : m.friction * friction_margin(m, t, theta);
    switch (m.steer) {
      case Steer::kFrozen:
        return 1.0;
      case Steer::kSlew:  // the slewing actuator reaches its target
        return (m.dphi > 0.0 ? 1.0 : -1.0) *
               (target(theta) - steering(m, t, theta));
      case Steer::kSaturated:  // the target leaves its cap
        return kLaneHoldGain * std::abs(theta) - cap;
      case Steer::kSlide:  // the target moves faster than the actuator
        return rate - kLaneHoldGain * std::abs(yaw_rate(m, t, theta));
    }
    return 1.0;
  }

  // Mode entered with the actuator on its target at (t, theta).
  Mode on_target(double t, double theta) const {
    if (kLaneHoldGain * std::abs(theta) > cap) return Mode{Steer::kSaturated};
    const double target_rate =
        -kLaneHoldGain * yaw_rate(Mode{Steer::kSlide}, t, theta);
    if (std::abs(target_rate) <= rate) return Mode{Steer::kSlide};
    return slew_after(t, theta, target_rate);
  }

  // Slew that chases a target moving at target_rate from phi = target.
  Mode slew_after(double t, double theta, double target_rate) const {
    return Mode{Steer::kSlew, target(theta), t,
                target_rate > 0.0 ? rate : -rate};
  }

  // Mode after event e at (t, theta).
  Mode next(const Mode& m, double t, double theta, int e) const {
    if (e == kFriction) {
      Mode crossed = m;
      crossed.friction = -m.friction;
      return crossed;
    }
    const Mode after =
        m.steer == Steer::kSlide
            ? slew_after(t, theta, -kLaneHoldGain * yaw_rate(m, t, theta))
            : on_target(t, theta);
    return with_friction_side(after, t, theta);
  }
};

// One Dormand–Prince 5(4) step of size h from (t, p) with k1 = f(t, p).
// x and y do not feed back into the right-hand side, so only theta is
// carried through the stages.
struct Trial {
  Pose p;      // 5th-order solution at t + h
  Pose k7;     // f(t + h, p): the next step's k1 (first same as last)
  double err;  // scaled error norm; the step is accepted when <= 1
  // 4th-order continuous extension of theta over the step (Hairer's
  // dense output for this pair), for locating events without re-stepping.
  double dense[5];

  double theta_at(double s) const {
    return dense[0] +
           s * (dense[1] +
                (1.0 - s) * (dense[2] + s * (dense[3] + (1.0 - s) * dense[4])));
  }
};

Trial dp_step(const Maneuver& m, const Mode& mode, double t, const Pose& p,
              const Pose& k1, double h) {
  const Pose k2 = m.deriv(mode, t + h / 5.0, p.theta + h * (k1.theta / 5.0));
  const Pose k3 =
      m.deriv(mode, t + h * (3.0 / 10.0),
              p.theta + h * (3.0 / 40.0 * k1.theta + 9.0 / 40.0 * k2.theta));
  const Pose k4 = m.deriv(
      mode, t + h * (4.0 / 5.0),
      p.theta + h * (44.0 / 45.0 * k1.theta - 56.0 / 15.0 * k2.theta +
                     32.0 / 9.0 * k3.theta));
  const Pose k5 = m.deriv(
      mode, t + h * (8.0 / 9.0),
      p.theta + h * (19372.0 / 6561.0 * k1.theta -
                     25360.0 / 2187.0 * k2.theta +
                     64448.0 / 6561.0 * k3.theta - 212.0 / 729.0 * k4.theta));
  const Pose k6 = m.deriv(
      mode, t + h,
      p.theta + h * (9017.0 / 3168.0 * k1.theta - 355.0 / 33.0 * k2.theta +
                     46732.0 / 5247.0 * k3.theta + 49.0 / 176.0 * k4.theta -
                     5103.0 / 18656.0 * k5.theta));
  const auto b5 = [&](double Pose::*c) {
    return h * (35.0 / 384.0 * k1.*c + 500.0 / 1113.0 * k3.*c +
                125.0 / 192.0 * k4.*c - 2187.0 / 6784.0 * k5.*c +
                11.0 / 84.0 * k6.*c);
  };
  Trial out;
  out.p = Pose{p.x + b5(&Pose::x), p.y + b5(&Pose::y),
               p.theta + b5(&Pose::theta)};
  out.k7 = m.deriv(mode, t + h, out.p.theta);
  double err = 0.0;
  for (double Pose::*c : {&Pose::x, &Pose::y, &Pose::theta}) {
    const double e =
        h * (71.0 / 57600.0 * k1.*c - 71.0 / 16695.0 * k3.*c +
             71.0 / 1920.0 * k4.*c - 17253.0 / 339200.0 * k5.*c +
             22.0 / 525.0 * k6.*c - 1.0 / 40.0 * out.k7.*c);
    const double scale =
        kAbsTol + kRelTol * std::max(std::abs(p.*c), std::abs(out.p.*c));
    err = std::max(err, std::abs(e) / scale);
  }
  out.err = err;
  const double rise = out.p.theta - p.theta;
  out.dense[0] = p.theta;
  out.dense[1] = rise;
  out.dense[2] = h * k1.theta - rise;
  out.dense[3] = rise - h * out.k7.theta - out.dense[2];
  out.dense[4] =
      h * (-12715105075.0 / 11282082432.0 * k1.theta +
           87487479700.0 / 32700410799.0 * k3.theta -
           10690763975.0 / 1880347072.0 * k4.theta +
           701980252875.0 / 199316789632.0 * k5.theta -
           1453857185.0 / 822651844.0 * k6.theta +
           69997945.0 / 29380423.0 * out.k7.theta);
  return out;
}

// Illinois regula falsi on the dense output of `trial` (a step of size
// `step` from t) for the zero of event e, bracketed by g_lo > 0 at the
// start and g_hi <= 0 at the end. Returns the upper bracket. Secant points
// are kept off the bracket ends (the first one by 1% of the step), which
// bounds the iterations when g is near zero at an end.
double locate(const Maneuver& m, const Mode& mode, double t,
              const Trial& trial, double step, int e, double g_lo,
              double g_hi) {
  double lo = 0.0, hi = step;
  int side = 0;
  for (int i = 0; i < 200 && hi - lo > kEventTimeTol; ++i) {
    const double margin = i == 0 ? 0.01 * step : 0.5 * kEventTimeTol;
    const double tau = std::clamp(hi - g_hi * (hi - lo) / (g_hi - g_lo),
                                  lo + margin, hi - margin);
    const double g = m.event(mode, t + tau, trial.theta_at(tau / step), e);
    if (g > 0.0) {
      lo = tau;
      g_lo = g;
      if (side == 1) g_hi *= 0.5;
      side = 1;
    } else {
      hi = tau;
      g_hi = g;
      if (side == -1) g_lo *= 0.5;
      side = -1;
    }
  }
  return hi;
}

// Integrates the maneuver from (t, p) to t_end, switching modes at every
// located event. Returns the mode in force at t_end.
Mode integrate(const Maneuver& m, Mode mode, double& t, Pose& p, double& h,
               double t_end) {
  mode = m.with_friction_side(mode, t, p.theta);
  Pose k1;
  double g0[Maneuver::kEvents];
  const auto start_mode = [&] {
    k1 = m.deriv(mode, t, p.theta);
    for (int e = 0; e < Maneuver::kEvents; ++e)
      g0[e] = m.event(mode, t, p.theta, e);
  };
  double g1[Maneuver::kEvents];
  const auto end_events = [&](double t1, const Trial& trial) {
    for (int e = 0; e < Maneuver::kEvents; ++e)
      g1[e] = m.event(mode, t1, trial.p.theta, e);
  };
  start_mode();
  while (t < t_end) {
    const bool last = h >= t_end - t;
    double step = last ? t_end - t : h;
    Trial trial = dp_step(m, mode, t, p, k1, step);
    double t1 = last ? t_end : t + step;
    end_events(t1, trial);
    // An event inside the step is located on the dense output and the
    // step is retaken to it, before the error test, so a kink inside the
    // step does not shrink it blindly. A location read off an inaccurate
    // step is refined on the retaken one until the event sits at its end.
    for (int pass = 0; pass < kMaxRelocations; ++pass) {
      double at = step;
      for (int e = 0; e < Maneuver::kEvents; ++e)
        if (g0[e] > 0.0 && g1[e] <= 0.0)
          at = std::min(at, locate(m, mode, t, trial, step, e, g0[e], g1[e]));
      if (at >= step - kEventTimeTol) break;
      step = at;
      trial = dp_step(m, mode, t, p, k1, step);
      t1 = t + step;
      end_events(t1, trial);
    }
    const double grow =
        trial.err > 0.0 ? 0.9 * std::pow(trial.err, -0.2) : 5.0;
    if (trial.err > 1.0) {
      h = step * std::max(0.2, grow);
      continue;
    }
    t = t1;
    p = trial.p;
    // The event that fired: the one furthest past its boundary. A mode
    // entered on its own boundary counts as fired once a step ends past it.
    int fired = -1;
    for (int e = 0; e < Maneuver::kEvents; ++e)
      if (g1[e] <= 0.0 && (fired < 0 || g1[e] < g1[fired])) fired = e;
    if (fired >= 0) {
      mode = m.next(mode, t, p.theta, fired);
      start_mode();
    } else {
      h = step * std::min(5.0, grow);
      k1 = trial.k7;
      std::copy(g1, g1 + Maneuver::kEvents, g0);
    }
  }
  return mode;
}

}  // namespace

StoppingDistance stopping_distance(double amax, double v0, double theta0,
                                   double phi0, double wheelbase,
                                   double steering_release_rate,
                                   double max_steering) {
  StoppingDistance out;
  // The inputs may be *believed* state reconstructed from corrupted ADS
  // variables (that is the whole point of fault injection), so they must
  // be sanitized before driving the integration: a bit-flipped speed of
  // 1e300 m/s would otherwise make t_stop astronomically large. Values
  // are clamped to generous physical envelopes -- the procedure P models a
  // road vehicle, and any clamped input is already far beyond every
  // safety threshold it feeds.
  if (!std::isfinite(v0) || !std::isfinite(theta0) || !std::isfinite(phi0) ||
      !std::isfinite(amax) || !std::isfinite(wheelbase) ||
      !std::isfinite(steering_release_rate) || !std::isfinite(max_steering))
    return out;
  constexpr double kMaxSpeed = 150.0;     // m/s, > any road vehicle
  constexpr double kMaxSteer = 1.0;       // rad, past full mechanical lock
  v0 = std::min(v0, kMaxSpeed);
  phi0 = std::clamp(phi0, -kMaxSteer, kMaxSteer);
  if (v0 <= 0.0 || amax <= 0.0 || wheelbase <= 0.0) return out;

  // Speed is closed-form, v(t) = v0 - amax t: the stop ends at v0/amax and
  // the friction cap is lifted at the floor speed, a breakpoint in time.
  const double t_stop = v0 / amax;
  const double t_floor =
      std::clamp((v0 - kFrictionFloorSpeed) / amax, 0.0, t_stop);
  const Maneuver m{amax,
                   v0,
                   wheelbase,
                   std::max(0.0, steering_release_rate),
                   std::clamp(max_steering, 0.0, kMaxSteer),
                   0.7 * amax * wheelbase,
                   t_floor};

  // Initial mode: the actuator slews toward its target unless it is
  // already on it (within the dead band).
  Mode mode{Steer::kFrozen, phi0, 0.0, 0.0};
  if (m.rate > 0.0) {
    const double err = m.target(theta0) - phi0;
    if (std::abs(err) <= kOnTargetBand)
      mode = m.on_target(0.0, theta0);
    else
      mode = Mode{Steer::kSlew, phi0, 0.0, err > 0.0 ? m.rate : -m.rate};
  }

  Pose p{0.0, 0.0, theta0};
  double t = 0.0;
  double h = kFirstStep;
  mode = integrate(m, mode, t, p, h, t_floor);
  // Past the breakpoint a sliding actuator faces a new yaw law, so
  // re-check that it can still track its target.
  if (mode.steer == Steer::kSlide || mode.steer == Steer::kSaturated)
    mode = m.on_target(t, p.theta);
  integrate(m, mode, t, p, h, t_stop);

  // Components are expressed in the reference (lane) frame that theta0 is
  // measured against: a heading error at maneuver start therefore shows up
  // as lateral displacement, which is exactly the lane-violation hazard.
  out.longitudinal = p.x;
  out.lateral = p.y;
  out.stop_time = t_stop;
  return out;
}

StoppingDistance stopping_distance(const VehicleState& state,
                                   const VehicleParams& params) {
  return stopping_distance(params.amax_comfort, state.v, state.theta,
                           state.phi, params.wheelbase, params.steering_rate,
                           params.max_steering);
}

double stopping_distance_straight(double amax, double v0) {
  if (v0 <= 0.0 || amax <= 0.0) return 0.0;
  return v0 * v0 / (2.0 * amax);
}

}  // namespace drivefi::kinematics
