// LEES envelope index (DESIGN.md §18): indexed LEES must deliver exactly
// what the paper's scan loop and the engine-free Subscription::matches
// oracle deliver, for every publication (tests/lees_differential.hpp).
#include <gtest/gtest.h>

#include <random>

#include "analysis/audit/snapshot.hpp"
#include "lees_differential.hpp"
#include "test_util.hpp"

namespace evps {
namespace {

using testutil::LeesDifferential;
using testutil::make_sub;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Probe values around the interesting points of the programs below.
std::vector<Value> probe_values() {
  std::vector<Value> out;
  for (double v = -12.0; v <= 12.0; v += 0.25) out.emplace_back(v);
  for (const double v : {std::nan(""), kInf, -kInf, -0.0, std::nextafter(2.0, 3.0),
                         std::nextafter(2.0, 1.0)}) {
    out.emplace_back(v);
  }
  out.emplace_back(std::int64_t{3});
  out.emplace_back(std::int64_t{-7});
  out.emplace_back(std::int64_t{9'007'199'254'740'993});
  out.emplace_back(std::string("a"));
  return out;
}

/// Publications over `probe_values` on x (y fixed or missing) at every
/// instant in `times`; the three matchers must agree on all of them.
void sweep(LeesDifferential& diff, const std::vector<double>& times, bool with_y = true) {
  for (const double at : times) {
    diff.host().set_now(SimTime::from_seconds(at));
    for (const Value& x : probe_values()) {
      Publication pub;
      pub.set("x", x);
      if (with_y) pub.set("y", Value{1.0});
      const std::string bad = diff.check(pub);
      ASSERT_TRUE(bad.empty()) << bad;
    }
  }
}

const std::vector<double> kTimes = {0.0, 0.3, 0.999999, 1.0, 1.000001, 2.5, 7.25, 3.0, 40.0};

class LeesEnvelope : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LeesEnvelope, AffinePrograms) {
  LeesDifferential diff(GetParam());
  diff.add(make_sub(1, "x >= -3 + t; x <= 3 + t"), NodeId{1});
  diff.add(make_sub(2, "x >= 2 - 0.5 * t; x <= 4 - 0.5 * t; y >= -1 + t"), NodeId{2});
  diff.add(make_sub(3, "[mei=0.05] x > t * 3"), NodeId{3});
  diff.add(make_sub(4, "[mei=2] x < 1 - t", SimTime::from_seconds(2)), NodeId{4});
  sweep(diff, kTimes);
}

TEST_P(LeesEnvelope, NonlinearPrograms) {
  LeesDifferential diff(GetParam());
  diff.add(make_sub(1, "x <= 5 * sin(t); x >= 5 * sin(t) - 1"), NodeId{1});
  diff.add(make_sub(2, "x = floor(t * 2)"), NodeId{2});
  diff.add(make_sub(3, "x >= min(t, 2); x <= max(6 - t, 1)"), NodeId{3});
  diff.add(make_sub(4, "x >= 1 / (t - 1)"), NodeId{4});    // ±inf at the pole
  diff.add(make_sub(5, "x <= 0 / (t - 1)"), NodeId{5});    // NaN at t = 1
  diff.add(make_sub(6, "x < sqrt(2 - t)"), NodeId{6});     // NaN past t = 2
  diff.add(make_sub(7, "x >= 1 / (t - t)"), NodeId{7});    // +inf always
  diff.add(make_sub(8, "x = (t - t) / (t - t)"), NodeId{8});  // NaN always
  diff.add(make_sub(9, "x <= 3 + t * t * -2"), NodeId{9});
  sweep(diff, kTimes);
}

TEST_P(LeesEnvelope, EveryOperator) {
  LeesDifferential diff(GetParam());
  std::uint64_t id = 1;
  for (const char* op : {"<", "<=", ">", ">=", "=", "!="}) {
    diff.add(make_sub(id, std::string("x ") + op + " floor(t)"), NodeId{id});
    ++id;
    diff.add(make_sub(id, std::string("x ") + op + " 2 + t; y " + op + " 1"), NodeId{id});
    ++id;
  }
  sweep(diff, kTimes);
  sweep(diff, kTimes, /*with_y=*/false);
}

TEST_P(LeesEnvelope, SplitSubscriptionsAndStaticSettlement) {
  LeesDifferential diff(GetParam());
  diff.add(make_sub(1, "s = 'a'; x >= t - 1; x <= t + 1"), NodeId{1});
  diff.add(make_sub(2, "s != 'a'; x >= t"), NodeId{1});
  diff.add(make_sub(3, "y > 0"), NodeId{2});                  // settles dest 2 statically
  diff.add(make_sub(4, "x >= t - 1; x <= t + 1"), NodeId{2});
  for (const double at : kTimes) {
    diff.host().set_now(SimTime::from_seconds(at));
    for (const Value& x : probe_values()) {
      for (const char* s : {"a", "b"}) {
        for (const double y : {-1.0, 1.0}) {
          Publication pub;
          pub.set("x", x);
          pub.set("y", Value{y});
          pub.set("s", Value{std::string(s)});
          const std::string bad = diff.check(pub);
          ASSERT_TRUE(bad.empty()) << bad;
        }
      }
    }
  }
}

TEST_P(LeesEnvelope, DedupGroupsAndRemovalsInsideAWindow) {
  LeesDifferential diff(GetParam());
  for (std::uint64_t id = 1; id <= 6; ++id) {
    diff.add(make_sub(id, "x >= t - 1; x <= t + 1"), NodeId{1 + id % 2});  // two dedup groups
  }
  diff.add(make_sub(7, "[mei=0.5] x >= 2 * t"), NodeId{3});
  EXPECT_GT(diff.indexed().deduped_installs(), 0u);
  sweep(diff, {0.0, 0.2});
  diff.host().set_now(SimTime::from_seconds(0.25));  // inside the first windows
  diff.remove(SubscriptionId{1});                      // a canonical member
  diff.remove(SubscriptionId{4});                      // a sharing member
  diff.remove(SubscriptionId{7});
  sweep(diff, {0.25, 0.4, 1.7});
  diff.add(make_sub(8, "x >= t - 1; x <= t + 1"), NodeId{1});  // rejoins a group
  diff.add(make_sub(9, "[mei=0.5] x >= 2 * t"), NodeId{3});    // reuses a freed slot
  sweep(diff, {1.8, 2.9});
}

TEST_P(LeesEnvelope, JumpsAcrossWindowsAndBackwards) {
  LeesDifferential diff(GetParam());
  diff.add(make_sub(1, "[mei=0.05] x >= t - 0.5; x <= t + 0.5"), NodeId{1});
  diff.add(make_sub(2, "x >= 2 * t; x <= 2 * t + 1"), NodeId{2});
  diff.add(make_sub(3, "[mei=2] x >= -t; x <= 1 - t"), NodeId{3});
  sweep(diff, {0.0, 0.01, 9.999, 10.0, 3.5, 0.5, 123.0, 123.05, 2.0});
}

TEST_P(LeesEnvelope, SparseAndDenseTrafficAgree) {
  // The default engine leaves its index while publications are sparse and
  // comes back when they are dense; churn lands in both states.
  LeesDifferential diff(GetParam());
  diff.add(make_sub(1, "[mei=0.05] x >= t - 0.5; x <= t + 0.5"), NodeId{1});
  diff.add(make_sub(2, "x >= 2 * t - 3; x <= 2 * t + 1"), NodeId{2});
  diff.add(make_sub(3, "x >= -t; x <= 1 - t; y >= 0"), NodeId{3});
  diff.add(make_sub(4, "s = 'a'; x >= t - 2; x <= t"), NodeId{4});
  const std::vector<Value> values = probe_values();
  std::size_t next = 0;
  std::int64_t now_us = 0;
  std::uint64_t id = 5;
  const auto publish = [&](std::int64_t step_us, int count) {
    for (int i = 0; i < count; ++i) {
      diff.host().set_now(SimTime::from_micros(now_us += step_us));
      const double t = static_cast<double>(now_us) / 1e6;
      Publication pub;
      pub.set("x", next % 3 == 0 ? Value{t - 0.25} : values[next % values.size()]);
      pub.set("y", Value{1.0});
      pub.set("s", Value{std::string(next % 2 == 0 ? "a" : "b")});
      ++next;
      const std::string bad = diff.check(pub);
      ASSERT_TRUE(bad.empty()) << bad;
    }
  };
  for (int round = 0; round < 3; ++round) {
    publish(1'500'000, 12);  // sparse: windows of 1 s and less
    EXPECT_GT(diff.by_default().sparse_shards(), 0u);
    diff.remove(SubscriptionId{id - 3});
    diff.add(make_sub(id, "x >= t - 1; x <= t + 1"), NodeId{1 + id % 4});
    ++id;
    publish(1'500'000, 4);
    publish(1'000, 96);  // dense
    EXPECT_EQ(diff.by_default().sparse_shards(), 0u);
    diff.add(make_sub(id, "[mei=0.05] x >= 3 * t; x <= 3 * t + 2"), NodeId{1 + id % 4});
    ++id;
    publish(1'000, 8);
  }
}

TEST_P(LeesEnvelope, FastBoundsAcrossWindowEdges) {
  // The bound moves 1 unit per 10 ms window: an envelope kept even 20 µs
  // past its window's end misses the publication at the bound.
  LeesDifferential diff(GetParam());
  diff.add(make_sub(1, "[mei=0.01] x >= 100 * t - 0.001; x <= 100 * t + 0.001"), NodeId{1});
  diff.add(make_sub(2, "[mei=0.01] x >= 7 - 100 * t; x <= 7.002 - 100 * t"), NodeId{2});
  for (std::int64_t us = 0; us <= 100'000; us += 20) {
    diff.host().set_now(SimTime::from_micros(us));
    const double t = static_cast<double>(us) / 1e6;
    for (const double x : {100 * t, 7.001 - 100 * t}) {
      Publication pub;
      pub.set("x", Value{x});
      const std::string bad = diff.check(pub);
      ASSERT_TRUE(bad.empty()) << bad;
    }
  }
}

TEST_P(LeesEnvelope, SecondAttributeFiltersExactly) {
  // Keyed on x (the narrower range); y's range filters the hits. 0 * t keeps
  // y's envelope exactly on its bound, so the probes sit on its edges.
  LeesDifferential diff(GetParam());
  diff.add(make_sub(1, "x >= 3 * t - 1; x <= 3 * t + 1; y >= 0 * t - 20; y <= 0 * t + 20"),
           NodeId{1});
  diff.add(make_sub(2, "x >= 3 * t - 1; x <= 3 * t + 1; y > 0 * t - 20; y < 0 * t + 20"),
           NodeId{2});
  for (std::int64_t us = 0; us <= 3'000'000; us += 250'000) {
    diff.host().set_now(SimTime::from_micros(us));
    const double t = static_cast<double>(us) / 1e6;
    for (const double edge : {-20.0, 20.0}) {
      for (const double y : {std::nextafter(edge, -kInf), edge, std::nextafter(edge, kInf)}) {
        Publication pub;
        pub.set("x", Value{3 * t});
        pub.set("y", Value{y});
        const std::string bad = diff.check(pub);
        ASSERT_TRUE(bad.empty()) << bad;
      }
    }
  }
}

TEST_P(LeesEnvelope, SnapshotPathMatchesOracle) {
  LeesDifferential diff(GetParam());
  diff.host().variables().set("v", 1.0, SimTime::zero());
  diff.add(make_sub(1, "x >= t - 1; x <= t + 1"), NodeId{1});
  diff.add(make_sub(2, "x <= 10 * v"), NodeId{2});
  diff.host().set_now(SimTime::from_seconds(3));
  const VariableSnapshot snapshot = make_variable_snapshot({{"v", 0.1}});
  const VariableSnapshot shadow_t = make_variable_snapshot({{"t", 8.0}});
  for (const Value& x : probe_values()) {
    Publication pub;
    pub.set("x", x);
    pub.set_entry_time(SimTime::from_seconds(1));  // windows were anchored at 3 s
    for (const VariableSnapshot* snap : {&snapshot, &shadow_t}) {
      const std::string bad = diff.check(pub, snap);
      ASSERT_TRUE(bad.empty()) << bad;
    }
  }
}

TEST_P(LeesEnvelope, ExportListsEveryPart) {
  LeesDifferential diff(GetParam(), /*dedup=*/false);
  diff.add(make_sub(1, "x >= t"), NodeId{1});
  diff.add(make_sub(2, "x <= v"), NodeId{1});
  diff.add(make_sub(3, "s = 'a'; x >= t"), NodeId{2});
  audit::EngineState state;
  diff.indexed().export_audit_state(state);
  EXPECT_EQ(state.lazy_entries.size(), 3u);
  EXPECT_EQ(diff.indexed().indexed_size(), 2u);
}

TEST_P(LeesEnvelope, RandomScenarios) {
  std::mt19937_64 rng(0x1ee5 + GetParam());
  std::vector<std::uint8_t> bytes(768);
  for (int scenario = 0; scenario < 150; ++scenario) {
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    bytes[0] = static_cast<std::uint8_t>((bytes[0] & ~1U) | (GetParam() > 1 ? 1U : 0U));
    const std::string bad = testutil::run_lees_scenario(bytes.data(), bytes.size());
    ASSERT_TRUE(bad.empty()) << "scenario " << scenario << ": " << bad;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, LeesEnvelope, ::testing::Values(std::size_t{1}, std::size_t{4}),
                         [](const auto& info) { return "K" + std::to_string(info.param); });

}  // namespace
}  // namespace evps
