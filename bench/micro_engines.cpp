// Micro-benchmarks: per-publication match cost and per-evolution maintenance
// cost of the three evolving engine designs.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "evolving/engine.hpp"
#include "evolving/envelope_index.hpp"
#include "evolving/ves_engine.hpp"
#include "gbench_main.hpp"

namespace {

using namespace evps;

class BenchHost final : public EngineHost {
 public:
  [[nodiscard]] SimTime now() const override { return now_; }
  void schedule(Duration delay, std::function<void()> fn) override {
    timers_.emplace_back(now_ + delay, std::move(fn));
  }
  [[nodiscard]] VariableRegistry& variables() override { return registry_; }

  void advance_to(SimTime t) {
    now_ = t;
    for (std::size_t i = 0; i < timers_.size(); ++i) {
      if (timers_[i].first <= now_) {
        auto fn = std::move(timers_[i].second);
        timers_.erase(timers_.begin() + static_cast<std::ptrdiff_t>(i));
        --i;
        fn();
      }
    }
  }

 private:
  SimTime now_ = SimTime::zero();
  VariableRegistry registry_;
  std::vector<std::pair<SimTime, std::function<void()>>> timers_;
};

/// A moving area of interest. `mei` is the VES evolution interval and the
/// LEES envelope window; the default keeps VES timers out of match benches.
SubscriptionPtr aoi_subscription(std::uint64_t id, Rng& rng,
                                 Duration mei = Duration::seconds(3600)) {
  const double x = rng.uniform(-100.0, 100.0);
  const double y = rng.uniform(-100.0, 100.0);
  const double dx = rng.uniform(-2, 2);
  const double dy = rng.uniform(-2, 2);
  const auto moving = [](double origin, double velocity) {
    return Expr::add(Expr::constant(origin),
                     Expr::mul(Expr::constant(velocity), Expr::variable("t")));
  };
  Subscription sub;
  sub.add(Predicate{"x", RelOp::kGe, Expr::sub(moving(x, dx), Expr::constant(3.0))});
  sub.add(Predicate{"x", RelOp::kLe, Expr::add(moving(x, dx), Expr::constant(3.0))});
  sub.add(Predicate{"y", RelOp::kGe, Expr::sub(moving(y, dy), Expr::constant(2.0))});
  sub.add(Predicate{"y", RelOp::kLe, Expr::add(moving(y, dy), Expr::constant(2.0))});
  sub.set_id(SubscriptionId{id});
  sub.set_epoch(SimTime::zero());
  sub.set_mei(mei);
  sub.set_tt(Duration::seconds(1));
  return std::make_shared<const Subscription>(std::move(sub));
}

/// `n` areas of interest; publications arrive `step` of simulated time
/// apart. 32 untimed publications first, so the timed ones see the engine's
/// steady state (first window anchorings, the LEES gap estimate).
void engine_match_bench(benchmark::State& state, const EngineConfig& cfg, std::size_t n,
                        Duration mei = Duration::seconds(3600),
                        Duration step = Duration::micros(100)) {
  BenchHost host;
  const auto engine = make_engine(cfg);
  Rng rng{7};
  for (std::size_t i = 0; i < n; ++i) {
    engine->add(aoi_subscription(i + 1, rng, mei), NodeId{i % 100}, host);
  }
  std::vector<NodeId> dests;
  std::int64_t tick = 0;
  const auto publish = [&] {
    host.advance_to(SimTime::from_micros(tick += step.count_micros()));
    Publication pub;
    pub.set("x", rng.uniform(-100.0, 100.0));
    pub.set("y", rng.uniform(-100.0, 100.0));
    dests.clear();
    engine->match(pub, nullptr, host, dests);
    benchmark::DoNotOptimize(dests.size());
  };
  for (int i = 0; i < 32; ++i) publish();
  const EngineCosts before = engine->costs();
  for (auto _ : state) publish();
  const EngineCosts& after = engine->costs();
  state.counters["evaluations_per_pub"] =
      benchmark::Counter(static_cast<double>(after.lazy_evaluations - before.lazy_evaluations),
                         benchmark::Counter::kAvgIterations);
  state.counters["anchorings_per_pub"] = benchmark::Counter(
      static_cast<double>(after.anchorings - before.anchorings), benchmark::Counter::kAvgIterations);
}

std::size_t arg(const benchmark::State& state, int i) {
  return static_cast<std::size_t>(state.range(i));
}

void BM_VesMatch(benchmark::State& state) {
  engine_match_bench(state, EngineConfig{.kind = EngineKind::kVes}, arg(state, 0));
}
void BM_LeesMatch(benchmark::State& state) {
  // Args: {subscriptions, envelope index}. 0 is the paper's scan loop; 1
  // reaches the `t`-only areas through 1 s window envelopes (the MEI).
  const bool indexed = state.range(1) != 0;
  engine_match_bench(state,
                     EngineConfig{.kind = EngineKind::kLees, .lees_envelope_index = indexed},
                     arg(state, 0), Duration::seconds(1));
}
void BM_CleesMatch(benchmark::State& state) {
  engine_match_bench(state, EngineConfig{.kind = EngineKind::kClees}, arg(state, 0));
}
BENCHMARK(BM_VesMatch)->Arg(100)->Arg(1000)->Arg(5000)->Arg(10000);
BENCHMARK(BM_LeesMatch)
    ->Args({100, 0})
    ->Args({1000, 0})
    ->Args({5000, 0})
    ->Args({10000, 0})
    ->Args({10000, 1});
BENCHMARK(BM_CleesMatch)->Arg(100)->Arg(1000)->Arg(5000)->Arg(10000);

void BM_LeesMatchSparse(benchmark::State& state) {
  // Args: {subscriptions, publications per 1 s window, mode}. Mode 0 is the
  // paper's scan loop, 1 the envelope index at any rate, 2 the default (the
  // index while windows see enough publications, DESIGN.md §18 "Sparse
  // publications"). Locates where re-anchoring stops paying for itself.
  const auto per_window = state.range(1);
  const auto mode = state.range(2);
  EngineConfig cfg{.kind = EngineKind::kLees, .lees_envelope_index = mode != 0};
  if (mode == 1) cfg.lees_envelope_min_pubs = 0.0;
  state.SetLabel(mode == 0 ? "scan" : mode == 1 ? "index" : "default");
  engine_match_bench(state, cfg, arg(state, 0), Duration::seconds(1),
                     Duration::micros(1'000'000 / per_window));
}
BENCHMARK(BM_LeesMatchSparse)->ArgsProduct({{10000}, {1, 4, 8, 12, 16, 32}, {0, 1, 2}})->Iterations(64);

void BM_LeesReanchor(benchmark::State& state) {
  // Cost of re-anchoring envelope windows: 1 ms windows, and every
  // iteration steps the clock a full window, so each publication re-anchors
  // every part. The publication carries neither key attribute, so no
  // program runs (the index stays on at this rate: min pubs 0). Items
  // processed = windows anchored.
  BenchHost host;
  const auto engine =
      make_engine(EngineConfig{.kind = EngineKind::kLees, .lees_envelope_min_pubs = 0.0});
  Rng rng{7};
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    engine->add(aoi_subscription(i + 1, rng, Duration::millis(1)), NodeId{i % 100}, host);
  }
  Publication pub;
  pub.set("z", 0.0);
  std::vector<NodeId> dests;
  std::int64_t tick = 0;
  for (auto _ : state) {
    host.advance_to(SimTime::from_micros(tick += 1000));
    dests.clear();
    engine->match(pub, nullptr, host, dests);
    benchmark::DoNotOptimize(dests.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(engine->costs().anchorings));
}
BENCHMARK(BM_LeesReanchor)->Arg(1000)->Arg(10000);

void BM_LeesStab(benchmark::State& state) {
  // The envelope index alone on a game-like stream: `n` areas of interest
  // with 1 s windows, one publication every 5 ms, 70% of them inside a
  // random area (the game_lees mix). An iteration is one publication:
  // advance (re-anchoring due windows) and stab. Counters are per
  // publication; candidates are what the exact programs would run on.
  const auto n = arg(state, 0);
  Rng rng{7};
  std::vector<std::vector<CompiledPredicate>> preds(n);
  struct Centre {
    double x, dx, y, dy;
  };
  std::vector<Centre> centres;
  EnvelopeIndex index;
  std::vector<double> stack;
  for (std::size_t i = 0; i < n; ++i) {
    const SubscriptionPtr sub = aoi_subscription(i + 1, rng);
    for (const Predicate& p : sub->predicates()) preds[i].emplace_back(p);
    const auto mid = [&](std::size_t lo, double t) {
      const EvalScope scope(nullptr, SimTime::from_seconds(t), SimTime::zero());
      return (preds[i][lo].program().eval(scope, stack) +
              preds[i][lo + 1].program().eval(scope, stack)) / 2;
    };
    centres.push_back(
        Centre{mid(0, 0.0), mid(0, 1.0) - mid(0, 0.0), mid(2, 0.0), mid(2, 1.0) - mid(2, 0.0)});
    index.add(static_cast<std::uint32_t>(i), preds[i], SimTime::zero(), Duration::seconds(1),
              rng());
  }
  Publication pub;
  std::vector<std::uint32_t> candidates;
  std::int64_t tick = 0;
  std::uint64_t found = 0;
  const auto publish = [&] {
    const SimTime now = SimTime::from_micros(tick += 5'000);
    if (rng.bernoulli(0.7)) {
      const Centre& c = centres[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))];
      const double t = static_cast<double>(now.micros()) / 1e6;
      pub.set("x", c.x + c.dx * t + rng.uniform(-1.0, 1.0));
      pub.set("y", c.y + c.dy * t + rng.uniform(-1.0, 1.0));
    } else {
      pub.set("x", rng.uniform(-100.0, 100.0));
      pub.set("y", rng.uniform(-100.0, 100.0));
    }
    index.advance(now);
    candidates.clear();
    index.stab(pub, candidates);
    benchmark::DoNotOptimize(candidates.data());
    found += candidates.size();
  };
  // Two windows first: every part anchored, the grid tuned.
  for (int i = 0; i < 400; ++i) publish();
  const std::uint64_t anchorings = index.anchorings();
  const std::uint64_t visited = index.visited();
  found = 0;
  for (auto _ : state) publish();
  const auto per_pub = [](std::uint64_t count) {
    return benchmark::Counter(static_cast<double>(count), benchmark::Counter::kAvgIterations);
  };
  state.counters["anchorings_per_pub"] = per_pub(index.anchorings() - anchorings);
  state.counters["visited_per_pub"] = per_pub(index.visited() - visited);
  state.counters["candidates_per_pub"] = per_pub(found);
}
BENCHMARK(BM_LeesStab)->Arg(1000)->Arg(10000);

void engine_sharded_match_bench(benchmark::State& state, EngineKind kind) {
  // Args: {subscriptions, matcher shards}. Same workload as the plain match
  // bench; K=1 is bit-identical to it, higher K adds the fork/join (and, on
  // hosts with free cores, the parallel-section win). LEES runs the paper's
  // scan loop.
  BenchHost host;
  EngineConfig cfg;
  cfg.kind = kind;
  cfg.lees_envelope_index = false;
  cfg.matcher_threads = static_cast<std::size_t>(state.range(1));
  const auto engine = make_engine(cfg);
  Rng rng{7};
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    engine->add(aoi_subscription(i + 1, rng), NodeId{i % 100}, host);
  }
  std::vector<NodeId> dests;
  std::int64_t tick = 0;
  for (auto _ : state) {
    host.advance_to(SimTime::from_micros(tick += 100));
    Publication pub;
    pub.set("x", rng.uniform(-100.0, 100.0));
    pub.set("y", rng.uniform(-100.0, 100.0));
    dests.clear();
    engine->match(pub, nullptr, host, dests);
    benchmark::DoNotOptimize(dests.size());
  }
}

void BM_VesShardedMatch(benchmark::State& state) {
  engine_sharded_match_bench(state, EngineKind::kVes);
}
void BM_LeesShardedMatch(benchmark::State& state) {
  engine_sharded_match_bench(state, EngineKind::kLees);
}
void BM_CleesShardedMatch(benchmark::State& state) {
  engine_sharded_match_bench(state, EngineKind::kClees);
}
BENCHMARK(BM_VesShardedMatch)
    ->Args({10000, 1})
    ->Args({10000, 2})
    ->Args({10000, 4})
    ->Args({10000, 8});
BENCHMARK(BM_LeesShardedMatch)
    ->Args({10000, 1})
    ->Args({10000, 2})
    ->Args({10000, 4})
    ->Args({10000, 8});
BENCHMARK(BM_CleesShardedMatch)
    ->Args({10000, 1})
    ->Args({10000, 2})
    ->Args({10000, 4})
    ->Args({10000, 8});

void engine_batch_match_bench(benchmark::State& state, EngineKind kind) {
  // Args: {subscriptions, matcher shards, batch size}. One engine-level
  // match_batch() per iteration; items processed = publications. LEES runs
  // the paper's scan loop.
  BenchHost host;
  EngineConfig cfg;
  cfg.kind = kind;
  cfg.lees_envelope_index = false;
  cfg.matcher_threads = static_cast<std::size_t>(state.range(1));
  const auto engine = make_engine(cfg);
  Rng rng{7};
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    engine->add(aoi_subscription(i + 1, rng), NodeId{i % 100}, host);
  }
  const auto batch = static_cast<std::size_t>(state.range(2));
  std::vector<Publication> pubs(batch);
  std::vector<std::vector<NodeId>> dests;
  std::int64_t tick = 0;
  for (auto _ : state) {
    state.PauseTiming();
    host.advance_to(SimTime::from_micros(tick += 100));
    for (auto& pub : pubs) {
      pub = Publication{};
      pub.set("x", rng.uniform(-100.0, 100.0));
      pub.set("y", rng.uniform(-100.0, 100.0));
      pub.set_entry_time(host.now());
    }
    state.ResumeTiming();
    engine->match_batch(pubs, nullptr, host, dests);
    benchmark::DoNotOptimize(dests.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch));
}

void BM_VesMatchBatch(benchmark::State& state) {
  engine_batch_match_bench(state, EngineKind::kVes);
}
void BM_LeesMatchBatch(benchmark::State& state) {
  engine_batch_match_bench(state, EngineKind::kLees);
}
BENCHMARK(BM_VesMatchBatch)
    ->Args({10000, 4, 1})
    ->Args({10000, 4, 8})
    ->Args({10000, 4, 32})
    ->Args({10000, 1, 8});
BENCHMARK(BM_LeesMatchBatch)
    ->Args({10000, 4, 1})
    ->Args({10000, 4, 8})
    ->Args({10000, 4, 32})
    ->Args({10000, 1, 8});

void BM_VesEvolutionRound(benchmark::State& state) {
  // One full evolution round (every subscription re-materialised) with the
  // matcher holding `n` subscriptions — the Figure 9 maintenance cost.
  BenchHost host;
  EngineConfig cfg;
  cfg.kind = EngineKind::kVes;
  VesEngine engine{cfg};
  Rng rng{9};
  const auto n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    auto sub = aoi_subscription(i + 1, rng);
    auto mutable_sub = std::make_shared<Subscription>(*sub);
    mutable_sub->set_mei(Duration::seconds(1));
    engine.add(std::shared_ptr<const Subscription>(std::move(mutable_sub)), NodeId{i % 100},
               host);
  }
  std::int64_t seconds = 0;
  for (auto _ : state) {
    host.advance_to(SimTime::from_seconds(static_cast<double>(++seconds)));
    benchmark::DoNotOptimize(engine.costs().evolutions);
  }
  state.counters["evolutions"] = static_cast<double>(engine.costs().evolutions);
}
BENCHMARK(BM_VesEvolutionRound)->Arg(100)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) { return evps_bench::run(argc, argv, "BENCH_engines.json"); }
