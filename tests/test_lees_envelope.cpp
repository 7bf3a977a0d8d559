// LEES envelope index (DESIGN.md §18): indexed LEES must deliver exactly
// what the paper's scan loop and the engine-free Subscription::matches
// oracle deliver, for every publication (tests/lees_differential.hpp).
#include <gtest/gtest.h>

#include <random>

#include "analysis/audit/snapshot.hpp"
#include "evolving/envelope_index.hpp"
#include "expr/parser.hpp"
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


// Endpoint anchoring and the stab records, on the index itself.

bool chain(const ExprPtr& expr) {
  return EnvelopeIndex::monotone_chain(ExprProgram::compile(*expr));
}
bool chain(std::string_view text) { return chain(parse_expr(text)); }

TEST(EnvelopeChain, AcceptsMonotoneChains) {
  for (const char* text :
       {"t", "3 + 2 * t", "3 + -2 * t", "-3 + t * 0.5", "3 - 2 * t", "3 - t * -2", "t - 4",
        "(t * 2) / -4", "(2 * t) / -4 + 1", "t / 3", "-(1 + t * 3)", "-(3 - 2 * t) * 5",
        "floor(t * 2) + 1", "ceil(0.5 - t)", "floor(ceil(t) * -3)", "-floor(-t)",
        "1e308 * t", "t * 1e300 * 1e10", "-1.7e308 + t * 1e300", "t * 1e-300 * 1e-300"}) {
    EXPECT_TRUE(chain(text)) << text;
  }
  // Constant subtrees the parser would fold, kept as arithmetic.
  const ExprPtr t = Expr::variable("t");
  EXPECT_TRUE(chain(Expr::add(Expr::mul(Expr::constant(2), Expr::constant(-3)), t)));
  EXPECT_TRUE(chain(Expr::div(t, Expr::sub(Expr::constant(1), Expr::constant(3)))));
  EXPECT_TRUE(chain(Expr::mul(Expr::unary(UnaryOp::kNeg, Expr::constant(2)), t)));
}

TEST(EnvelopeChain, RejectsEverythingElse) {
  for (const char* text :
       {"t - t", "t + t", "t * t", "2 / t", "1 / (t - 1)", "sin(t)", "cos(t)", "abs(t)",
        "abs(t) + 1", "sin(t) * 2", "sqrt(t)", "sign(t)", "min(t, 1)", "max(t, 1)",
        "clamp(t, 0, 1)", "step(t)", "step(t) + t", "t % 2", "t ^ 2", "2 ^ t", "0 * t", "t * 0",
        "t / 0", "t * -0", "t + 1e308 * 10", "t * (1e308 * 10)", "t + 0 / 0", "t * (0 / 0)",
        "5", "1 + v", "t + v", "v * t"}) {
    EXPECT_FALSE(chain(text)) << text;
  }
  const ExprPtr t = Expr::variable("t");
  const auto c = [](double v) { return Expr::constant(v); };
  EXPECT_FALSE(chain(Expr::add(Expr::unary(UnaryOp::kFloor, c(2.5)), t)));  // floor of a constant
  EXPECT_FALSE(chain(Expr::mul(t, Expr::sub(c(1), c(1)))));                 // a zero multiplier
  EXPECT_FALSE(chain(Expr::div(t, Expr::mul(c(1e-300), c(1e-300)))));       // underflows to 0
  EXPECT_FALSE(chain(Expr::add(t, Expr::div(c(1), c(0)))));                 // +inf
  EXPECT_FALSE(chain(Expr::call(CallFn::kMax, {t, c(1)})));
}

/// One part with one `x = f` predicate per expression, on the index alone.
struct IndexedParts {
  std::vector<std::vector<CompiledPredicate>> preds;
  EnvelopeIndex index;
};

/// Publication {x: v}.
Publication at_x(double v) {
  Publication pub;
  pub.set("x", Value{v});
  return pub;
}

/// A random monotone chain in `t`: up to six steps, with constants from
/// tiny to large enough to overflow to ±inf inside the window.
ExprPtr random_chain(std::mt19937_64& rng) {
  static const double kScales[] = {1e-300, 1e-6, 0.5, 1.0, 7.0, 1e6, 1e150, 1e300, 8e307};
  const auto constant = [&rng] {
    const double c = kScales[rng() % 9] * (1.0 + static_cast<double>(rng() % 1000) / 1000.0);
    return Expr::constant((rng() & 1) != 0 ? c : -c);
  };
  ExprPtr e = Expr::variable("t");
  const int steps = 1 + static_cast<int>(rng() % 6);
  for (int i = 0; i < steps; ++i) {
    switch (rng() % 10) {
      case 0: e = Expr::unary(UnaryOp::kNeg, e); break;
      case 1: e = Expr::unary(UnaryOp::kFloor, e); break;
      case 2: e = Expr::unary(UnaryOp::kCeil, e); break;
      case 3: e = Expr::add(e, constant()); break;
      case 4: e = Expr::add(constant(), e); break;
      case 5: e = Expr::sub(e, constant()); break;
      case 6: e = Expr::sub(constant(), e); break;
      case 7: e = Expr::mul(e, constant()); break;
      case 8: e = Expr::mul(constant(), e); break;
      default: e = Expr::div(e, constant()); break;
    }
  }
  return e;
}

TEST(EnvelopeChain, EveryValueInAWindowLiesInItsAnchoredRange) {
  // For each chain, every exact evaluation on the microsecond grid of a
  // window must reach its part through the index: the anchored range holds
  // it. Windows sit on multiples of W (stagger 0).
  std::mt19937_64 rng(0xc4a1);
  for (int round = 0; round < 300; ++round) {
    const ExprPtr expr = random_chain(rng);
    IndexedParts parts;
    parts.preds.push_back({CompiledPredicate(Predicate{"x", RelOp::kEq, expr})});
    ASSERT_TRUE(EnvelopeIndex::monotone_chain(parts.preds[0][0].program())) << expr->to_string();
    const std::int64_t window_us = 1 + static_cast<std::int64_t>(rng() % 3000);
    const SimTime epoch = SimTime::from_micros(static_cast<std::int64_t>(rng() % 5'000'000));
    const std::int64_t start_us = window_us * static_cast<std::int64_t>(rng() % 4000);
    parts.index.add(0, parts.preds[0], epoch, Duration::micros(window_us), 0);
    std::vector<std::uint32_t> out;
    std::vector<double> stack;
    for (std::int64_t us = start_us; us <= start_us + window_us; ++us) {
      parts.index.advance(SimTime::from_micros(us));
      const double v = parts.preds[0][0].program().eval(
          EvalScope(nullptr, SimTime::from_micros(us), epoch), stack);
      ASSERT_FALSE(std::isnan(v)) << expr->to_string();
      out.clear();
      parts.index.stab(at_x(v), out);
      ASSERT_EQ(out.size(), 1u) << expr->to_string() << " = " << v << " at " << us << " us, window ["
                                << start_us << ", " << start_us + window_us << "], epoch "
                                << epoch;
    }
    EXPECT_EQ(parts.index.anchorings(), 1u);  // one window covered every instant
  }
}

TEST(EnvelopeChain, DecreasingAndOverflowingChainsAnchorBothWays) {
  // Chains that fall over the window, cross zero, or overflow to ±inf in it.
  IndexedParts parts;
  for (const char* text : {"5 - 3 * t", "(t * 2) / -4", "-(t * 1e308)", "1e308 * t - 1e308",
                           "ceil(-t * 1000)", "-floor(t * 1e300 * 1e10)"}) {
    parts.preds.push_back({CompiledPredicate(Predicate{"x", RelOp::kEq, parse_expr(text)})});
  }
  for (std::uint32_t slot = 0; slot < parts.preds.size(); ++slot) {
    ASSERT_TRUE(EnvelopeIndex::monotone_chain(parts.preds[slot][0].program())) << slot;
    parts.index.add(slot, parts.preds[slot], SimTime::zero(), Duration::millis(1500), 0);
  }
  std::vector<double> stack;
  std::vector<std::uint32_t> out;
  for (std::int64_t us = 0; us <= 3'000'000; us += 1'000) {
    parts.index.advance(SimTime::from_micros(us));
    for (std::uint32_t slot = 0; slot < parts.preds.size(); ++slot) {
      const double v = parts.preds[slot][0].program().eval(
          EvalScope(nullptr, SimTime::from_micros(us), SimTime::zero()), stack);
      out.clear();
      parts.index.stab(at_x(v), out);
      EXPECT_NE(std::find(out.begin(), out.end(), slot), out.end())
          << "slot " << slot << " value " << v << " at " << us << " us";
    }
  }
}

TEST(EnvelopeRecords, ChurnKeepsEveryListedPartReachable) {
  // Many parts crowd few buckets; removals swap records around inside a
  // list. Each stab must return exactly the registered parts whose range
  // holds the value, once each.
  constexpr std::uint32_t kSlots = 400;
  std::mt19937_64 rng(0x5ab);
  IndexedParts parts;
  parts.preds.resize(kSlots);
  std::vector<bool> live(kSlots, false);
  std::vector<double> centre(kSlots, 0.0);
  const auto install = [&](std::uint32_t slot) {
    centre[slot] = static_cast<double>(rng() % 40);
    const std::string c = std::to_string(centre[slot]);
    parts.preds[slot] = {
        CompiledPredicate(Predicate{"x", RelOp::kGe, parse_expr(c + " - 1 + 0 * t")}),
        CompiledPredicate(Predicate{"x", RelOp::kLe, parse_expr(c + " + 1 + t * 1e-9")})};
    parts.index.add(slot, parts.preds[slot], SimTime::zero(), Duration::millis(7), rng());
    live[slot] = true;
  };
  for (std::uint32_t slot = 0; slot < kSlots; ++slot) {
    if (rng() % 2 == 0) install(slot);
  }
  std::vector<std::uint32_t> out;
  std::int64_t now_us = 0;
  for (int step = 0; step < 3000; ++step) {
    const auto slot = static_cast<std::uint32_t>(rng() % kSlots);
    if (live[slot]) {
      parts.index.remove(slot);
      live[slot] = false;
    } else {
      install(slot);
    }
    now_us += static_cast<std::int64_t>(rng() % 3000);
    parts.index.advance(SimTime::from_micros(now_us));
    const double v = static_cast<double>(rng() % 4200) / 100.0;
    out.clear();
    parts.index.stab(at_x(v), out);
    std::vector<std::uint32_t> expected;
    for (std::uint32_t s = 0; s < kSlots; ++s) {
      if (live[s] && centre[s] - 1 <= v && v <= centre[s] + 1 + 1e-3) expected.push_back(s);
    }
    std::sort(out.begin(), out.end());
    // The index may add parts within float rounding of their range's edge;
    // it must never drop one or list one twice or list a removed one.
    ASSERT_TRUE(std::includes(out.begin(), out.end(), expected.begin(), expected.end()))
        << "step " << step << " value " << v;
    ASSERT_EQ(std::adjacent_find(out.begin(), out.end()), out.end()) << "step " << step;
    for (const std::uint32_t s : out) {
      ASSERT_TRUE(live[s]) << "removed slot " << s << " at step " << step;
      ASSERT_LE(centre[s] - 1 - 1e-3, v);
      ASSERT_LE(v, centre[s] + 1 + 1e-3);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, LeesEnvelope, ::testing::Values(std::size_t{1}, std::size_t{4}),
                         [](const auto& info) { return "K" + std::to_string(info.param); });

}  // namespace
}  // namespace evps
