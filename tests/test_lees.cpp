// Lazy Evaluation Evolving Subscriptions behaviour (Sections IV-B, V-B).
#include <gtest/gtest.h>

#include "evolving/lees_engine.hpp"
#include "test_util.hpp"

namespace evps {
namespace {

using testutil::SimHost;
using testutil::make_sub;
using testutil::match;

SimTime sec(double s) { return SimTime::from_seconds(s); }

struct LeesTest : ::testing::Test {
  Simulator sim;
  SimHost host{sim};
  // matcher_threads pinned: the exact lazy_evaluations counts below assume
  // the K=1 probe order (per-destination early exit is per shard, so an
  // EVPS_MATCHER_THREADS override would change counters, not results). The
  // envelope index stays on at any publication rate, so its counts hold too.
  EngineConfig cfg{
      .kind = EngineKind::kLees, .lees_envelope_min_pubs = 0.0, .matcher_threads = 1};
  LeesEngine engine{cfg};
};

/// The paper's LEES: every evolving part on the scan loop, so the exact
/// per-publication evaluation counts of Sections IV-B/VI-C hold.
struct PaperLeesTest : ::testing::Test {
  Simulator sim;
  SimHost host{sim};
  EngineConfig cfg{.kind = EngineKind::kLees, .lees_envelope_index = false, .matcher_threads = 1};
  LeesEngine engine{cfg};
};

TEST_F(LeesTest, ExactEvaluationAtPublicationTime) {
  engine.add(make_sub(1, "x >= -3 + t; x <= 3 + t"), NodeId{1}, host);
  // Paper example: x=4 does not match at t=0, matches at t=1.
  EXPECT_TRUE(match(engine, host, parse_publication("x = 4")).empty());
  sim.run_until(sec(1));
  EXPECT_EQ(match(engine, host, parse_publication("x = 4")).size(), 1u);
  sim.run_until(sec(7.001));  // window is now [4.001, 10.001]
  EXPECT_TRUE(match(engine, host, parse_publication("x = 4")).empty());
  EXPECT_EQ(match(engine, host, parse_publication("x = 10")).size(), 1u);
}

TEST_F(LeesTest, NoEvolutionTimersNeeded) {
  engine.add(make_sub(1, "x >= t"), NodeId{1}, host);
  EXPECT_TRUE(sim.empty());  // lazy engines schedule nothing
}

TEST_F(LeesTest, SplitSubscriptionRequiresBothParts) {
  engine.add(make_sub(1, "symbol = 'IBM'; price <= 10 + t"), NodeId{1}, host);
  EXPECT_EQ(engine.leme_size(), 1u);
  // Static part fails -> no match even though the evolving part matches.
  EXPECT_TRUE(match(engine, host, parse_publication("symbol = 'MSFT'; price = 5")).empty());
  // Evolving part fails -> no match.
  EXPECT_TRUE(match(engine, host, parse_publication("symbol = 'IBM'; price = 15")).empty());
  EXPECT_EQ(match(engine, host, parse_publication("symbol = 'IBM'; price = 5")).size(), 1u);
}

TEST_F(LeesTest, StaticOnlySubscriptionDecidedByMatcher) {
  engine.add(make_sub(1, "x > 0"), NodeId{1}, host);
  EXPECT_EQ(engine.leme_size(), 0u);
  EXPECT_EQ(match(engine, host, parse_publication("x = 1")).size(), 1u);
}

TEST_F(LeesTest, MissingAttributeFailsEvolvingPart) {
  engine.add(make_sub(1, "x >= t; y >= t"), NodeId{1}, host);
  EXPECT_TRUE(match(engine, host, parse_publication("x = 100")).empty());
  EXPECT_EQ(match(engine, host, parse_publication("x = 100; y = 100")).size(), 1u);
}

TEST_F(PaperLeesTest, EarlyExitPerDestination) {
  // Two fully-evolving subscriptions for the same destination: once the
  // first matches, the second must not be evaluated.
  engine.add(make_sub(1, "x >= t"), NodeId{7}, host);
  engine.add(make_sub(2, "x >= t - 1"), NodeId{7}, host);
  const auto dests = match(engine, host, parse_publication("x = 5"));
  EXPECT_EQ(dests, std::vector<NodeId>{NodeId{7}});
  EXPECT_EQ(engine.costs().lazy_evaluations, 1u);
}

TEST_F(PaperLeesTest, NoEarlyExitAcrossDestinations) {
  engine.add(make_sub(1, "x >= t"), NodeId{7}, host);
  engine.add(make_sub(2, "x >= t"), NodeId{8}, host);
  const auto dests = match(engine, host, parse_publication("x = 5"));
  EXPECT_EQ(dests, (std::vector<NodeId>{NodeId{7}, NodeId{8}}));
  EXPECT_EQ(engine.costs().lazy_evaluations, 2u);
}

TEST_F(PaperLeesTest, NonMatchingSubsAllEvaluated) {
  for (std::uint64_t i = 1; i <= 10; ++i) {
    engine.add(make_sub(i, "x <= -1 - t"), NodeId{i}, host);  // never matches x=5
  }
  EXPECT_TRUE(match(engine, host, parse_publication("x = 5")).empty());
  EXPECT_EQ(engine.costs().lazy_evaluations, 10u);  // exhaustive scan
}

TEST_F(PaperLeesTest, StaticShortcutSkipsEvolvingEvaluation) {
  engine.add(make_sub(1, "symbol = 'IBM'; price <= 10 + t"), NodeId{1}, host);
  (void)match(engine, host, parse_publication("symbol = 'MSFT'; price = 5"));
  // The evolving part must not have been evaluated (M1 miss short-circuits).
  EXPECT_EQ(engine.costs().lazy_evaluations, 0u);
}

TEST_F(PaperLeesTest, DestinationSettledByStaticSubSkipsLazyWork) {
  engine.add(make_sub(1, "x > 0"), NodeId{7}, host);          // static
  engine.add(make_sub(2, "x >= t"), NodeId{7}, host);         // evolving, same dest
  const auto dests = match(engine, host, parse_publication("x = 5"));
  EXPECT_EQ(dests, std::vector<NodeId>{NodeId{7}});
  EXPECT_EQ(engine.costs().lazy_evaluations, 0u);
}

TEST_F(LeesTest, RemoveEvolvingSubscription) {
  engine.add(make_sub(1, "x >= t"), NodeId{1}, host);
  engine.add(make_sub(2, "symbol = 'A'; x >= t"), NodeId{2}, host);
  EXPECT_EQ(engine.leme_size(), 2u);
  EXPECT_TRUE(engine.remove(SubscriptionId{1}, host));
  EXPECT_TRUE(engine.remove(SubscriptionId{2}, host));
  EXPECT_EQ(engine.leme_size(), 0u);
  EXPECT_TRUE(match(engine, host, parse_publication("symbol = 'A'; x = 100")).empty());
}

TEST_F(LeesTest, DiscreteVariableReadAtPublicationTime) {
  host.set_variable("v", 1.0);
  engine.add(make_sub(1, "x <= 10 * v"), NodeId{1}, host);
  EXPECT_EQ(match(engine, host, parse_publication("x = 5")).size(), 1u);
  host.set_variable("v", 0.1);
  // No MEI lag: the very next publication sees the new value.
  EXPECT_TRUE(match(engine, host, parse_publication("x = 5")).empty());
}

TEST_F(LeesTest, SnapshotOverridesLocalState) {
  host.set_variable("v", 0.1);
  engine.add(make_sub(1, "x <= 10 * v"), NodeId{1}, host);
  Publication pub = parse_publication("x = 5");
  pub.set_entry_time(sim.now());
  EXPECT_TRUE(match(engine, host, pub).empty());  // local v = 0.1 -> x <= 1
  const VariableSnapshot snapshot = make_variable_snapshot({{"v", 1.0}});
  EXPECT_EQ(match(engine, host, pub, &snapshot).size(), 1u);  // snapshot v = 1
}

TEST_F(PaperLeesTest, LazyCostChargedPerPublication) {
  engine.add(make_sub(1, "x >= t"), NodeId{1}, host);
  for (int i = 0; i < 5; ++i) (void)match(engine, host, parse_publication("x = 100"));
  EXPECT_EQ(engine.costs().lazy_eval.count(), 5u);
  EXPECT_EQ(engine.costs().lazy_evaluations, 5u);
}

// --- envelope index (DESIGN.md §18) -----------------------------------------

TEST_F(LeesTest, TimeOnlyPartsAreIndexed) {
  engine.add(make_sub(1, "x >= -3 + t; x <= 3 + t"), NodeId{1}, host);
  engine.add(make_sub(2, "x <= 10 * v"), NodeId{2}, host);            // reads v: scan
  engine.add(make_sub(3, "x != t"), NodeId{3}, host);                 // no envelope: scan
  engine.add(make_sub(4, "symbol = 'A'; x >= t"), NodeId{4}, host);   // split, indexed
  EXPECT_EQ(engine.leme_size(), 4u);
  EXPECT_EQ(engine.indexed_size(), 2u);
  EngineConfig off = cfg;
  off.lees_envelope_index = false;
  LeesEngine paper{off};
  paper.add(make_sub(1, "x >= -3 + t; x <= 3 + t"), NodeId{1}, host);
  EXPECT_EQ(paper.indexed_size(), 0u);
}

TEST_F(LeesTest, PartsOutsideTheirEnvelopeRunNoPrograms) {
  for (std::uint64_t i = 1; i <= 10; ++i) {
    engine.add(make_sub(i, "x <= -1 - t"), NodeId{i}, host);  // never matches x=5
  }
  EXPECT_TRUE(match(engine, host, parse_publication("x = 5")).empty());
  EXPECT_EQ(engine.costs().lazy_evaluations, 0u);
  // A value inside every envelope runs each part once and matches each.
  EXPECT_EQ(match(engine, host, parse_publication("x = -5")).size(), 10u);
  EXPECT_EQ(engine.costs().lazy_evaluations, 10u);
}

TEST_F(LeesTest, UnsatisfiableWindowRunsNoPrograms) {
  // sqrt of a negative operand is NaN for every t: no operator but != holds.
  engine.add(make_sub(1, "x <= sqrt(-1 - t)"), NodeId{1}, host);
  EXPECT_TRUE(match(engine, host, parse_publication("x = 0")).empty());
  EXPECT_EQ(engine.costs().lazy_evaluations, 0u);
  // A string value fails closed: the program decides (and rejects).
  EXPECT_TRUE(match(engine, host, parse_publication("x = 'a'")).empty());
  EXPECT_EQ(engine.costs().lazy_evaluations, 1u);
}

TEST_F(LeesTest, IndexedEarlyExitPerDestination) {
  engine.add(make_sub(1, "x >= t"), NodeId{7}, host);
  engine.add(make_sub(2, "x >= t - 1"), NodeId{7}, host);
  EXPECT_EQ(match(engine, host, parse_publication("x = 5")), std::vector<NodeId>{NodeId{7}});
  EXPECT_EQ(engine.costs().lazy_evaluations, 1u);
}

TEST_F(LeesTest, ReanchoringAcrossWindowsSchedulesNothing) {
  // MEI 0.5 s: the window envelope of [x - t, x - t] moves every 0.5 s.
  engine.add(make_sub(1, "[mei=0.5] x >= t - 0.1; x <= t + 0.1"), NodeId{1}, host);
  for (int step = 0; step <= 40; ++step) {
    const double now = 0.25 * step;
    sim.run_until(sec(now));
    const auto hit = parse_publication("x = " + std::to_string(now));
    const auto miss = parse_publication("x = " + std::to_string(now + 1.0));
    EXPECT_EQ(match(engine, host, hit).size(), 1u) << "t=" << now;
    EXPECT_TRUE(match(engine, host, miss).empty()) << "t=" << now;
  }
  EXPECT_TRUE(sim.empty());  // re-anchoring happens on the match path
  // Each miss fell outside the window envelope and ran no program.
  EXPECT_EQ(engine.costs().lazy_evaluations, 41u);
}

TEST_F(LeesTest, SparseTrafficRunsTheScanLoop) {
  // Default fallback: 1 s windows need ~4 publications each to repay
  // their re-anchoring.
  cfg.lees_envelope_min_pubs = EngineConfig{}.lees_envelope_min_pubs;
  LeesEngine adaptive{cfg};
  for (std::uint64_t i = 1; i <= 10; ++i) {
    adaptive.add(make_sub(i, "x <= -1 - t"), NodeId{i}, host);  // never matches x=5
  }
  const auto miss = parse_publication("x = 5");
  // Publications 2 s apart: two windows per publication.
  for (int i = 0; i < 4; ++i) {
    sim.run_until(sec(2.0 * i));
    EXPECT_TRUE(match(adaptive, host, miss).empty());
  }
  EXPECT_EQ(adaptive.sparse_shards(), 1u);
  const EngineCosts sparse = adaptive.costs();
  EXPECT_EQ(match(adaptive, host, miss).size(), 0u);
  EXPECT_EQ(adaptive.costs().lazy_evaluations - sparse.lazy_evaluations, 10u);  // every part
  EXPECT_EQ(adaptive.costs().anchorings, sparse.anchorings);                     // no windows
  // Dense publications bring the index back: misses run no program.
  for (int i = 0; i < 64; ++i) EXPECT_TRUE(match(adaptive, host, miss).empty());
  EXPECT_EQ(adaptive.sparse_shards(), 0u);
  const EngineCosts dense = adaptive.costs();
  EXPECT_GE(dense.anchorings - sparse.anchorings, 10u);  // every window anchored afresh
  EXPECT_TRUE(match(adaptive, host, miss).empty());
  EXPECT_EQ(adaptive.costs().lazy_evaluations, dense.lazy_evaluations);
  EXPECT_EQ(match(adaptive, host, parse_publication("x = -20")).size(), 10u);
  EXPECT_TRUE(sim.empty());
}

TEST_F(LeesTest, BackwardClockReanchors) {
  engine.add(make_sub(1, "x >= t - 0.1; x <= t + 0.1"), NodeId{1}, host);
  sim.run_until(sec(5));
  EXPECT_EQ(match(engine, host, parse_publication("x = 5")).size(), 1u);
  // A fresh host clock behind the engine's last publication.
  Simulator early;
  SimHost early_host{early};
  early.run_until(sec(1));
  EXPECT_EQ(match(engine, early_host, parse_publication("x = 1")).size(), 1u);
  EXPECT_TRUE(match(engine, early_host, parse_publication("x = 5")).empty());
}

}  // namespace
}  // namespace evps
