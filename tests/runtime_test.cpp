#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/channel.h"
#include "runtime/fault_registry.h"
#include "runtime/scheduler.h"

namespace drivefi::runtime {
namespace {

struct TestMsg {
  double value = 0.0;
  int id = 0;
};

// ---------- Channel ----------

TEST(Channel, PublishAndRead) {
  Channel<TestMsg> ch("test");
  EXPECT_FALSE(ch.has_message());
  ch.publish({3.5, 1}, 0.1);
  ASSERT_TRUE(ch.has_message());
  EXPECT_DOUBLE_EQ(ch.latest().value, 3.5);
  EXPECT_EQ(ch.sequence(), 1u);
  EXPECT_DOUBLE_EQ(ch.last_publish_time(), 0.1);
}

TEST(Channel, LatestValueSemantics) {
  Channel<TestMsg> ch("test");
  ch.publish({1.0, 1}, 0.0);
  ch.publish({2.0, 2}, 0.1);
  EXPECT_EQ(ch.latest().id, 2);
  EXPECT_EQ(ch.sequence(), 2u);
}

TEST(Channel, AgeTracksStaleness) {
  Channel<TestMsg> ch("test");
  EXPECT_GT(ch.age(0.0), 1e17);  // no message: infinitely stale
  ch.publish({1.0, 1}, 1.0);
  EXPECT_NEAR(ch.age(1.5), 0.5, 1e-12);
}

TEST(Channel, HookInterceptsPublication) {
  Channel<TestMsg> ch("test");
  ch.set_hook([](TestMsg& msg, double) { msg.value = -msg.value; });
  ch.publish({5.0, 1}, 0.0);
  EXPECT_DOUBLE_EQ(ch.latest().value, -5.0);
  ch.clear_hook();
  ch.publish({5.0, 2}, 0.1);
  EXPECT_DOUBLE_EQ(ch.latest().value, 5.0);
}

TEST(Channel, MutableLatestAllowsInPlaceCorruption) {
  Channel<TestMsg> ch("test");
  ch.publish({1.0, 1}, 0.0);
  ch.mutable_latest().value = 99.0;  // what the fault injector does
  EXPECT_DOUBLE_EQ(ch.latest().value, 99.0);
}

// ---------- FaultRegistry ----------

TEST(FaultRegistry, RegisterFindAndAccess) {
  double storage = 1.0;
  FaultRegistry registry;
  registry.register_target({"mod.var", "mod", 0.0, 10.0,
                            [&] { return storage; },
                            [&](double v) { storage = v; }});
  ASSERT_EQ(registry.size(), 1u);
  const FaultTarget* target = registry.find("mod.var");
  ASSERT_NE(target, nullptr);
  EXPECT_DOUBLE_EQ(target->get(), 1.0);
  target->set(7.5);
  EXPECT_DOUBLE_EQ(storage, 7.5);
  EXPECT_EQ(registry.find("nope"), nullptr);
}

// ---------- Scheduler ----------

TEST(Scheduler, RatesDivideBase) {
  Scheduler sched(120.0);
  std::vector<double> fast_times;
  std::vector<double> slow_times;
  sched.add_module("fast", 60.0, [&](double t) { fast_times.push_back(t); });
  sched.add_module("slow", 10.0, [&](double t) { slow_times.push_back(t); });
  sched.run_for(1.0);
  EXPECT_EQ(fast_times.size(), 60u);
  EXPECT_EQ(slow_times.size(), 10u);
  // First firing at t = 0.
  EXPECT_DOUBLE_EQ(fast_times[0], 0.0);
  // Spacing of slow module = 0.1 s.
  EXPECT_NEAR(slow_times[1] - slow_times[0], 0.1, 1e-12);
}

TEST(Scheduler, RegistrationOrderWithinTick) {
  Scheduler sched(100.0);
  std::vector<std::string> order;
  sched.add_module("first", 100.0, [&](double) { order.push_back("first"); });
  sched.add_module("second", 100.0,
                   [&](double) { order.push_back("second"); });
  sched.step();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "first");
  EXPECT_EQ(order[1], "second");
}

TEST(Scheduler, DisableStopsTicks) {
  Scheduler sched(100.0);
  int count = 0;
  sched.add_module("mod", 100.0, [&](double) { ++count; });
  sched.run_for(0.1);
  EXPECT_EQ(count, 10);
  sched.set_enabled("mod", false);
  EXPECT_FALSE(sched.enabled("mod"));
  sched.run_for(0.1);
  EXPECT_EQ(count, 10);  // unchanged
  sched.set_enabled("mod", true);
  sched.run_for(0.1);
  EXPECT_EQ(count, 20);
}

TEST(Scheduler, DeterministicReplay) {
  auto run = [] {
    Scheduler sched(120.0);
    std::vector<std::pair<std::string, double>> trace;
    sched.add_module("a", 30.0,
                     [&](double t) { trace.emplace_back("a", t); });
    sched.add_module("b", 40.0,
                     [&](double t) { trace.emplace_back("b", t); });
    sched.run_for(2.0);
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST(Scheduler, RejectsRatesThatDoNotDivideBase) {
  Scheduler sched(120.0);
  // 70 Hz on a 120 Hz base would silently round to the 60 Hz divisor and
  // skew campaign timing; it must be rejected instead.
  EXPECT_THROW(sched.add_module("bad", 70.0, [](double) {}),
               std::invalid_argument);
  EXPECT_THROW(sched.add_module("zero", 0.0, [](double) {}),
               std::invalid_argument);
  EXPECT_THROW(sched.add_module("negative", -30.0, [](double) {}),
               std::invalid_argument);
  EXPECT_THROW(sched.add_module("too_fast", 240.0, [](double) {}),
               std::invalid_argument);
  // Non-integer rates that DO divide the base exactly stay legal (the
  // scene recorder runs at 7.5 Hz on the 120 Hz base).
  EXPECT_NO_THROW(sched.add_module("scene", 7.5, [](double) {}));
  EXPECT_NO_THROW(sched.add_module("base", 120.0, [](double) {}));
}

TEST(Scheduler, NowAdvancesByDt) {
  Scheduler sched(50.0);
  EXPECT_DOUBLE_EQ(sched.now(), 0.0);
  sched.step();
  EXPECT_DOUBLE_EQ(sched.now(), 0.02);
  EXPECT_EQ(sched.tick(), 1u);
}

}  // namespace
}  // namespace drivefi::runtime
