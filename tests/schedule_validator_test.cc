// Unit tests for core/schedule cost and core/validator legality checks.
#include <gtest/gtest.h>

#include "core/instance.h"
#include "core/schedule.h"
#include "core/validator.h"
#include "util/check.h"

namespace rrs {
namespace {

/// Two colors (delay 4 and 8), three jobs; used by most validator tests.
Instance small_instance() {
  InstanceBuilder builder;
  builder.delta(3);
  const ColorId red = builder.add_color(4);   // jobs 0, 1 arrive round 0
  const ColorId blue = builder.add_color(8);  // job 2 arrives round 0
  builder.add_jobs(red, 0, 2);
  builder.add_jobs(blue, 0, 1);
  return builder.build();
}

Schedule valid_schedule() {
  Schedule s;
  s.num_resources = 2;
  s.speed = 1;
  s.reconfigs = {{0, 0, 0, 0}, {0, 0, 1, 1}};
  s.execs = {{0, 0, 0, 0}, {0, 0, 1, 2}, {1, 0, 0, 1}};
  return s;
}

TEST(Validator, AcceptsValidSchedule) {
  const Instance inst = small_instance();
  const ValidationResult r = validate(inst, valid_schedule());
  EXPECT_TRUE(r.ok) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_EQ(r.cost.total(), 6);
}

TEST(Validator, ValidateOrThrowReturnsCost) {
  const Instance inst = small_instance();
  EXPECT_EQ(validate_or_throw(inst, valid_schedule()).total(), 6);
}

TEST(Validator, RejectsDoubleExecutionOfJob) {
  const Instance inst = small_instance();
  Schedule s = valid_schedule();
  s.execs.push_back({2, 0, 0, 0});  // job 0 again
  const ValidationResult r = validate(inst, s);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.errors[0].find("already executed"), std::string::npos);
  EXPECT_THROW((void)validate_or_throw(inst, s), InputError);
}

TEST(Validator, RejectsExecutionBeforeArrival) {
  InstanceBuilder builder;
  const ColorId c = builder.add_color(4);
  builder.add_jobs(c, 4, 1);
  const Instance inst = builder.build();
  Schedule s;
  s.num_resources = 1;
  s.reconfigs = {{0, 0, 0, c}};
  s.execs = {{2, 0, 0, 0}};  // before arrival round 4
  const ValidationResult r = validate(inst, s);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.errors[0].find("before arrival"), std::string::npos);
}

TEST(Validator, RejectsExecutionAtOrAfterDeadline) {
  const Instance inst = small_instance();  // red deadline is round 4
  Schedule s;
  s.num_resources = 1;
  s.reconfigs = {{0, 0, 0, 0}};
  s.execs = {{4, 0, 0, 0}};
  const ValidationResult r = validate(inst, s);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.errors[0].find("deadline"), std::string::npos);
}

TEST(Validator, RejectsColorMismatch) {
  const Instance inst = small_instance();
  Schedule s;
  s.num_resources = 1;
  s.reconfigs = {{0, 0, 0, 1}};  // configured blue
  s.execs = {{0, 0, 0, 0}};      // executes a red job
  const ValidationResult r = validate(inst, s);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.errors[0].find("configured"), std::string::npos);
}

TEST(Validator, RejectsUnconfiguredExecution) {
  const Instance inst = small_instance();
  Schedule s;
  s.num_resources = 1;
  s.execs = {{0, 0, 0, 0}};  // resource still black
  EXPECT_FALSE(validate(inst, s).ok);
}

TEST(Validator, RejectsDoubleBookedSlot) {
  const Instance inst = small_instance();
  Schedule s;
  s.num_resources = 1;
  s.reconfigs = {{0, 0, 0, 0}};
  s.execs = {{0, 0, 0, 0}, {0, 0, 0, 1}};  // two jobs, same slot
  const ValidationResult r = validate(inst, s);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.errors[0].find("twice"), std::string::npos);
}

TEST(Validator, MiniRoundsGiveSeparateSlots) {
  const Instance inst = small_instance();
  Schedule s;
  s.num_resources = 1;
  s.speed = 2;
  s.reconfigs = {{0, 0, 0, 0}};
  s.execs = {{0, 0, 0, 0}, {0, 1, 0, 1}};  // one per mini-round: legal
  EXPECT_TRUE(validate(inst, s).ok);
}

TEST(Validator, ReconfigWithinMiniRoundPrecedesExecution) {
  const Instance inst = small_instance();
  Schedule s;
  s.num_resources = 1;
  s.speed = 2;
  s.reconfigs = {{0, 0, 0, 0}, {0, 1, 0, 1}};
  // Mini 0 executes red; mini 1 executes blue after the mini-1 reconfig.
  s.execs = {{0, 0, 0, 0}, {0, 1, 0, 2}};
  EXPECT_TRUE(validate(inst, s).ok);
}

TEST(Validator, RejectsOutOfRangeEvents) {
  const Instance inst = small_instance();
  {
    Schedule s = valid_schedule();
    s.reconfigs.push_back({99, 0, 0, 0});  // beyond horizon
    EXPECT_FALSE(validate(inst, s).ok);
  }
  {
    Schedule s = valid_schedule();
    s.execs.push_back({1, 0, 7, 1});  // resource out of range
    EXPECT_FALSE(validate(inst, s).ok);
  }
  {
    Schedule s = valid_schedule();
    s.reconfigs[0].mini = 5;  // mini >= speed
    EXPECT_FALSE(validate(inst, s).ok);
  }
  {
    Schedule s = valid_schedule();
    s.execs[0].job = 42;  // unknown job
    EXPECT_FALSE(validate(inst, s).ok);
  }
  {
    Schedule s = valid_schedule();
    s.reconfigs[0].color = 9;  // unknown color
    EXPECT_FALSE(validate(inst, s).ok);
  }
}

TEST(Validator, CostRejectsOutOfRangeExecJobIds) {
  // Schedule::cost looks each execution's job up by id: an id past the
  // job table must throw whatever the instance's job lengths.
  for (const Round length : {Round{1}, Round{2}}) {
    InstanceBuilder builder;
    builder.delta(1);
    builder.add_color(4, /*drop_cost=*/1, length);
    builder.add_jobs(0, 0, 1);
    const Instance inst = builder.build();
    Schedule s;
    s.num_resources = 1;
    s.execs = {{0, 0, 0, 7}};
    EXPECT_THROW((void)s.cost(inst), InputError) << "length " << length;
  }
}

TEST(Validator, RejectsUnorderedEvents) {
  const Instance inst = small_instance();
  Schedule s = valid_schedule();
  std::swap(s.execs[0], s.execs[2]);
  const ValidationResult r = validate(inst, s);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.errors[0].find("order"), std::string::npos);
}

TEST(Validator, CollectsMultipleErrors) {
  const Instance inst = small_instance();
  Schedule s;
  s.num_resources = 1;
  s.execs = {{0, 0, 0, 0}, {1, 0, 0, 0}};  // unconfigured + double exec
  const ValidationResult r = validate(inst, s, /*max_errors=*/8);
  EXPECT_GE(r.errors.size(), 2u);
}

TEST(Validator, RejectsExecutionOnAFailedResource) {
  const Instance inst = small_instance();
  Schedule s;
  s.num_resources = 1;
  s.reconfigs = {{0, 0, 0, 0}, {2, 0, 0, 0}};
  s.execs = {{0, 0, 0, 0}, {3, 0, 0, 1}};
  s.churn = {{1, 0, true, false}, {4, 0, false, false}};
  // Failed in round 1, recolored while down in round 2, executes in round
  // 3: both the recoloring and the execution are illegal.
  const ValidationResult r = validate(inst, s);
  ASSERT_FALSE(r.ok);
  ASSERT_EQ(r.errors.size(), 2u);
  EXPECT_NE(r.errors[0].find("reconfig of failed resource 0"),
            std::string::npos) << r.errors[0];
  EXPECT_NE(r.errors[1].find("resource 0 is failed"), std::string::npos)
      << r.errors[1];

  // Repaired before the recoloring, the same executions are legal.
  s.churn[1].round = 2;
  EXPECT_TRUE(validate(inst, s).ok);
}

TEST(Validator, ZeroErrorCapStillRejects) {
  const Instance inst = small_instance();
  Schedule s;
  s.num_resources = 1;
  s.execs = {{0, 0, 0, 0}};  // resource still black
  const ValidationResult r = validate(inst, s, /*max_errors=*/0);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.errors.empty());
  s.execs[0].job = 42;  // malformed
  EXPECT_FALSE(validate(inst, s, /*max_errors=*/0).ok);
}

TEST(Validator, EmptyScheduleIsValidAllDropped) {
  const Instance inst = small_instance();
  Schedule s;
  s.num_resources = 2;
  const ValidationResult r = validate(inst, s);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.cost.drops, 3);
  EXPECT_EQ(r.cost.reconfig_cost, 0);
}

}  // namespace
}  // namespace rrs
