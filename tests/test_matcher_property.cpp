// Property suite: the counting matcher must agree exactly with the
// brute-force oracle on randomized workloads, including interleaved
// insertions and removals. Generators emit IEEE specials (NaN, ±inf, −0.0)
// as both predicate constants and publication values — incomparable pairs
// must satisfy exactly kNe, everywhere.
#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"
#include "matching/brute_force_matcher.hpp"
#include "matching/counting_matcher.hpp"

namespace evps {
namespace {

const char* kAttributes[] = {"x", "y", "price", "volume", "symbol"};

Value special_double(Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0: return Value{std::numeric_limits<double>::quiet_NaN()};
    case 1: return Value{std::numeric_limits<double>::infinity()};
    case 2: return Value{-std::numeric_limits<double>::infinity()};
    default: return Value{-0.0};
  }
}

Value random_value(Rng& rng, bool allow_string) {
  const auto kind = rng.uniform_int(0, allow_string ? 3 : 2);
  switch (kind) {
    case 0: return Value{rng.uniform_int(-20, 20)};
    case 1: return Value{rng.uniform(-20.0, 20.0)};
    case 2: return special_double(rng);
    default: return Value{std::string(1, static_cast<char>('a' + rng.uniform_int(0, 5)))};
  }
}

Predicate random_predicate(Rng& rng) {
  const auto* attr = kAttributes[rng.uniform_int(0, 4)];
  const auto op = static_cast<RelOp>(rng.uniform_int(0, 5));
  return Predicate{attr, op, random_value(rng, true)};
}

Publication random_publication(Rng& rng) {
  Publication pub;
  const auto n = rng.uniform_int(1, 4);
  for (std::int64_t i = 0; i < n; ++i) {
    pub.set(kAttributes[rng.uniform_int(0, 4)], random_value(rng, true));
  }
  return pub;
}

struct Params {
  std::uint64_t seed;
  int subscriptions;
  int publications;
};

class MatcherAgreement : public ::testing::TestWithParam<Params> {};

TEST_P(MatcherAgreement, CountingEqualsBruteForce) {
  const auto [seed, n_subs, n_pubs] = GetParam();
  Rng rng{seed};
  BruteForceMatcher oracle;
  CountingMatcher counting;

  std::vector<SubscriptionId> live;
  std::uint64_t next_id = 1;

  // Interleave adds, removes and matches.
  const int operations = n_subs + n_pubs;
  for (int op = 0; op < operations; ++op) {
    const double roll = rng.uniform();
    if (roll < 0.45 || live.empty()) {
      const SubscriptionId id{next_id++};
      std::vector<Predicate> preds;
      const auto n = rng.uniform_int(1, 3);
      for (std::int64_t i = 0; i < n; ++i) preds.push_back(random_predicate(rng));
      oracle.add(id, preds);
      counting.add(id, preds);
      live.push_back(id);
    } else if (roll < 0.55) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const SubscriptionId id = live[idx];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      EXPECT_EQ(oracle.remove(id), true);
      EXPECT_EQ(counting.remove(id), true);
    } else {
      const Publication pub = random_publication(rng);
      const auto expected = oracle.match(pub);
      ASSERT_EQ(counting.match(pub), expected) << "pub " << pub.to_string() << " seed " << seed;
    }
    ASSERT_EQ(counting.size(), oracle.size());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, MatcherAgreement,
                         ::testing::Values(Params{1, 200, 400}, Params{2, 200, 400},
                                           Params{3, 200, 400}, Params{4, 500, 500},
                                           Params{5, 500, 500}, Params{6, 50, 1000},
                                           Params{7, 1000, 200}, Params{8, 300, 600},
                                           Params{977, 400, 400}, Params{31337, 250, 800}));

TEST(MatcherAgreement, DenseSameBoundWorkload) {
  // Many predicates sharing the exact same bound stress equal_range removal.
  Rng rng{99};
  BruteForceMatcher oracle;
  CountingMatcher counting;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    const std::vector<Predicate> preds{
        Predicate{"x", static_cast<RelOp>(i % 6), Value{5}},
    };
    oracle.add(SubscriptionId{i}, preds);
    counting.add(SubscriptionId{i}, preds);
  }
  for (int v = 0; v <= 10; ++v) {
    Publication pub{{"x", Value{v}}};
    ASSERT_EQ(counting.match(pub), oracle.match(pub)) << v;
  }
  // Remove odd ids, re-check.
  for (std::uint64_t i = 1; i <= 100; i += 2) {
    oracle.remove(SubscriptionId{i});
    counting.remove(SubscriptionId{i});
  }
  for (int v = 0; v <= 10; ++v) {
    Publication pub{{"x", Value{v}}};
    ASSERT_EQ(counting.match(pub), oracle.match(pub)) << v;
  }
}

}  // namespace
}  // namespace evps
