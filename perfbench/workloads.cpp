#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "common/rng.hpp"
#include "expr/ast.hpp"

namespace perfbench {

using evps::Duration;
using evps::Expr;
using evps::ExprPtr;
using evps::Predicate;
using evps::Publication;
using evps::RelOp;
using evps::Rng;
using evps::SimTime;
using evps::Subscription;
using evps::Value;

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "game_lees") return Workload::kGameLees;
  if (name == "burst_fanout") return Workload::kBurstFanout;
  if (name == "hft_churn") return Workload::kHftChurn;
  return std::nullopt;
}

const char* to_string(Workload w) noexcept {
  switch (w) {
    case Workload::kGameLees: return "game_lees";
    case Workload::kBurstFanout: return "burst_fanout";
    case Workload::kHftChurn: return "hft_churn";
  }
  return "?";
}

int rounds_for(Workload w, double seconds) noexcept {
  double round_s = 1;
  switch (w) {
    case Workload::kGameLees: round_s = 2.2; break;
    case Workload::kBurstFanout: round_s = 2.6; break;
    case Workload::kHftChurn: round_s = 9.0; break;
  }
  return std::max(2, static_cast<int>(seconds / round_s));
}

int installs_per_round(Workload w) noexcept {
  switch (w) {
    case Workload::kGameLees: return 1;     // ~0.4 s per install
    case Workload::kBurstFanout: return 4;  // ~8 ms per install
    case Workload::kHftChurn: return 1;     // ~4-7 s per install
  }
  return 1;
}

namespace {

/// Collects timed ops in issue order and files them into Inputs, ordered by
/// instant with ties kept in issue order.
class Script {
 public:
  explicit Script(Inputs& in) : in_(in) {}

  void advertise(SimTime at, std::uint32_t client, std::vector<Predicate> preds) {
    in_.adverts.push_back(std::move(preds));
    push(at, Op{Op::Kind::kAdvertise, client, index(in_.adverts), {}});
  }
  void subscribe(SimTime at, std::uint32_t client, Subscription sub) {
    in_.subs.push_back(std::move(sub));
    push(at, Op{Op::Kind::kSubscribe, client, index(in_.subs), {}});
    ++in_.subscribe_ops;
  }
  void unsubscribe(SimTime at, std::uint32_t client, evps::SubscriptionId id) {
    push(at, Op{Op::Kind::kUnsubscribe, client, 0, id});
    ++in_.unsubscribe_ops;
  }
  void publish(SimTime at, std::uint32_t client, Publication pub) {
    in_.pubs.push_back(std::move(pub));
    push(at, Op{Op::Kind::kPublish, client, index(in_.pubs), {}});
    ++in_.publish_ops;
  }
  void var_update(SimTime at, std::uint32_t client, std::string name, double value) {
    in_.var_updates.emplace_back(std::move(name), value);
    push(at, Op{Op::Kind::kVarUpdate, client, index(in_.var_updates), {}});
  }

  /// Sort, group, and derive the tick boundaries from the publication
  /// instants. `closing` is the boundary after the last publication instant.
  void finish(std::size_t warm_ticks, SimTime closing) {
    std::stable_sort(timed_.begin(), timed_.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [at, op] : timed_) {
      if (in_.groups.empty() || in_.groups.back().at != at) {
        in_.groups.push_back(OpGroup{at, static_cast<std::uint32_t>(in_.ops.size()), 0});
      }
      ++in_.groups.back().count;
      in_.ops.push_back(op);
      if (op.kind == Op::Kind::kPublish && (in_.ticks.empty() || in_.ticks.back() != at)) {
        in_.ticks.push_back(at);
      }
    }
    in_.ticks.push_back(closing);
    for (const auto& [at, op] : timed_) {
      if (op.kind != Op::Kind::kSubscribe || at >= in_.ticks.front()) continue;
      if (in_.initial_subscribes++ == 0) in_.first_subscribe = at;
    }
    in_.warm_ticks = warm_ticks;
    if (in_.ticks.size() <= warm_ticks + 1 || in_.initial_subscribes == 0) {
      throw std::logic_error("workload needs initial subscriptions and measured ticks");
    }
  }

 private:
  template <typename Pool>
  static std::uint32_t index(const Pool& pool) {
    return static_cast<std::uint32_t>(pool.size() - 1);
  }
  void push(SimTime at, Op op) { timed_.emplace_back(at, op); }

  Inputs& in_;
  std::vector<std::pair<SimTime, Op>> timed_;
};

/// Every knob of BrokerConfig/EngineConfig, set explicitly so no environment
/// default (EVPS_MATCHER_THREADS, EVPS_LINK_BATCH) can reach the overlay.
evps::BrokerConfig pinned_config(evps::EngineKind engine, evps::RoutingMode routing,
                                 bool covering, std::size_t batch, bool reference,
                                 bool small_population) {
  evps::BrokerConfig c;
  c.engine.kind = engine;
  c.engine.matcher = reference && small_population ? evps::MatcherKind::kBruteForce
                                                   : evps::MatcherKind::kCounting;
  c.engine.default_mei = Duration::seconds(1.0);
  c.engine.default_tt = Duration::seconds(1.0);
  c.engine.overestimate_forwarding = false;
  c.engine.analysis_cache_windows = true;
  c.engine.dedup_identical = !reference;
  c.engine.matcher_threads = 1;
  c.routing = routing;
  c.snapshot_consistency = false;
  c.analysis = evps::AnalysisPolicy::kEnforce;
  c.covering = covering && !reference;
  c.relational_covering = true;
  c.batch_size = reference ? 1 : batch;
  c.link_batch_size = reference ? 1 : batch;
  c.link_flush_deadline = Duration::zero();
  c.measure_link_bytes = false;
  return c;
}

// game_lees: the event source sits on the server; every client machine is
// this far from it.
constexpr Duration kGameMachineLatency = Duration::millis(2);

ExprPtr linear(double origin, double rate, const char* var) {
  return Expr::add(Expr::constant(origin), Expr::mul(Expr::constant(rate), Expr::variable(var)));
}

}  // namespace

Deployment::Deployment(Workload w, std::uint64_t seed, std::size_t measured_ticks,
                       bool reference) {
  switch (w) {
    case Workload::kGameLees: build_game_lees(seed, measured_ticks, reference); break;
    case Workload::kBurstFanout: build_burst_fanout(seed, measured_ticks, reference); break;
    case Workload::kHftChurn: build_hft_churn(seed, measured_ticks, reference); break;
  }
}

evps::Broker& Deployment::add_broker(std::string name) {
  evps::Broker& b = overlay_.add_broker(std::move(name), config_);
  brokers_.push_back(&b);
  return b;
}

std::uint32_t Deployment::add_client(std::string name, evps::Broker& at, Duration latency) {
  evps::PubSubClient& c = overlay_.add_client(std::move(name));
  c.connect(at, latency);
  clients_.push_back(&c);
  return static_cast<std::uint32_t>(clients_.size() - 1);
}

void Deployment::fire(const OpGroup& group) {
  for (std::uint32_t i = group.first; i < group.first + group.count; ++i) {
    const Op& op = inputs_.ops[i];
    evps::PubSubClient& client = *clients_[op.client];
    switch (op.kind) {
      case Op::Kind::kAdvertise: client.advertise(std::move(inputs_.adverts[op.payload])); break;
      case Op::Kind::kSubscribe: client.subscribe(std::move(inputs_.subs[op.payload])); break;
      case Op::Kind::kUnsubscribe: client.unsubscribe(op.sub); break;
      case Op::Kind::kPublish: {
        if (pub_ids_.size() <= op.payload) pub_ids_.resize(inputs_.pubs.size());
        pub_ids_[op.payload] = client.publish(std::move(inputs_.pubs[op.payload]));
        break;
      }
      case Op::Kind::kVarUpdate: {
        const auto& [name, value] = inputs_.var_updates[op.payload];
        client.send_var_update(name, value);
        break;
      }
    }
  }
}

// game_lees: one game-server broker running LEES; 10k moving areas of
// interest on 100 client machines; one event per 5 ms tick, 70% at a
// character's current position. Every subscription is fully evolving, so
// each publication evaluates the lazy predicates of the whole population.
void Deployment::build_game_lees(std::uint64_t seed, std::size_t measured_ticks,
                                 bool reference) {
  constexpr std::size_t kMachines = 100;
  constexpr std::size_t kCharacters = 10'000;
  constexpr std::size_t kWarmTicks = 400;
  constexpr double kWorldHalf = 100.0;
  const SimTime subscribe_at = SimTime::from_millis(100);
  const SimTime first_pub = SimTime::from_millis(500);
  const Duration period = Duration::millis(5);

  config_ = pinned_config(evps::EngineKind::kLees, evps::RoutingMode::kFlooding, false, 1,
                          reference, kCharacters <= 1000);
  evps::Broker& server = add_broker("gameserver");
  const std::uint32_t events = add_client("gameevents", server, Duration::zero());
  std::vector<std::uint32_t> machines;
  for (std::size_t m = 0; m < kMachines; ++m) {
    machines.push_back(add_client("player" + std::to_string(m), server, kGameMachineLatency));
  }

  Script script(inputs_);
  Rng rng(seed);
  struct Character {
    double x, y, dx, dy;
  };
  std::vector<Character> chars(kCharacters);
  std::vector<std::uint32_t> next_seq(kMachines, 1);
  for (std::size_t i = 0; i < kCharacters; ++i) {
    Rng crng = rng.fork(100 + i);
    Character& ch = chars[i];
    ch.x = crng.uniform(-0.8 * kWorldHalf, 0.8 * kWorldHalf);
    ch.y = crng.uniform(-0.8 * kWorldHalf, 0.8 * kWorldHalf);
    const double speed = crng.uniform(0.5, 3.0);
    const double angle = crng.uniform(0.0, 2.0 * std::numbers::pi);
    ch.dx = std::cos(angle) * speed;
    ch.dy = std::sin(angle) * speed;

    const std::size_t m = i % kMachines;
    evps::PubSubClient& owner = *clients_[machines[m]];
    Subscription sub;
    sub.add(Predicate{"x", RelOp::kGe, linear(ch.x - 3.0, ch.dx, "t")});
    sub.add(Predicate{"x", RelOp::kLe, linear(ch.x + 3.0, ch.dx, "t")});
    sub.add(Predicate{"y", RelOp::kGe, linear(ch.y - 2.0, ch.dy, "t")});
    sub.add(Predicate{"y", RelOp::kLe, linear(ch.y + 2.0, ch.dy, "t")});
    sub.set_mei(Duration::seconds(1.0));
    sub.set_tt(Duration::seconds(1.0));
    sub.set_id(evps::make_subscription_id(owner.id(), next_seq[m]++));
    script.subscribe(subscribe_at, machines[m], std::move(sub));
  }

  // Hotspots follow each character's current position (t is measured from
  // the subscription epoch, the subscribe instant), so the hit rate holds
  // steady over the whole run.
  Rng prng = rng.fork(0xeef);
  const std::size_t ticks = kWarmTicks + measured_ticks;
  for (std::size_t k = 0; k < ticks; ++k) {
    const SimTime at = first_pub + period * static_cast<std::int64_t>(k);
    double x = 0;
    double y = 0;
    if (prng.bernoulli(0.7)) {
      const auto& ch = chars[static_cast<std::size_t>(
          prng.uniform_int(0, static_cast<std::int64_t>(kCharacters) - 1))];
      const double t = (at - subscribe_at).count_seconds();
      x = ch.x + ch.dx * t + prng.uniform(-1.0, 1.0);
      y = ch.y + ch.dy * t + prng.uniform(-1.0, 1.0);
    } else {
      x = prng.uniform(-kWorldHalf, kWorldHalf);
      y = prng.uniform(-kWorldHalf, kWorldHalf);
    }
    Publication pub;
    pub.set("x", x);
    pub.set("y", y);
    pub.set("action", prng.bernoulli(0.5) ? "move" : "pickup");
    script.publish(at, events, std::move(pub));
  }
  script.finish(kWarmTicks, first_pub + period * static_cast<std::int64_t>(ticks));
}

void game_lees_expected(const Inputs& in, const ExpectFn& expect) {
  struct Aoi {
    const Subscription* sub;
    std::uint32_t client;
    SimTime epoch;  // the subscribe instant: t reads 0 there
  };
  std::vector<Aoi> aois;
  std::uint32_t clients = 0;
  for (const OpGroup& g : in.groups) {
    for (std::uint32_t i = g.first; i < g.first + g.count; ++i) {
      const Op& op = in.ops[i];
      if (op.kind == Op::Kind::kSubscribe) {
        aois.push_back(Aoi{&in.subs[op.payload], op.client, g.at});
        clients = std::max(clients, op.client + 1);
      }
    }
  }
  if (aois.empty()) throw std::logic_error("game_lees has no areas of interest");
  // Every area of interest reaches the server before the first publication.
  const SimTime installed = aois.back().epoch + kGameMachineLatency;
  std::vector<char> hit(clients);
  evps::MapEnv env;
  for (const OpGroup& g : in.groups) {
    for (std::uint32_t i = g.first; i < g.first + g.count; ++i) {
      const Op& op = in.ops[i];
      if (op.kind != Op::Kind::kPublish) continue;
      if (g.at <= installed) throw std::logic_error("publication before install");
      const Publication& pub = in.pubs[op.payload];
      std::fill(hit.begin(), hit.end(), 0);
      SimTime bound_epoch = g.at;  // no subscription has this epoch
      for (const Aoi& a : aois) {
        if (hit[a.client] != 0) continue;
        if (a.epoch != bound_epoch) {
          env.set("t", (g.at - a.epoch).count_seconds());
          bound_epoch = a.epoch;
        }
        if (a.sub->matches(pub, env)) hit[a.client] = 1;
      }
      for (std::uint32_t c = 0; c < clients; ++c) {
        if (hit[c] != 0) expect(op.payload, c, g.at + kGameMachineLatency);
      }
    }
  }
}

// burst_fanout: star (core + 4 edges), advertisement routing, CLEES; 400
// wide zones (25% evolving over the declared-range variable gz_load);
// bursts of 64 publications per instant through matcher and link batching
// at 64 with a zero flush deadline. Most of the time goes to event
// dispatch, forwarding, link batching and client delivery.
void Deployment::build_burst_fanout(std::uint64_t seed, std::size_t measured_ticks,
                                    bool reference) {
  constexpr std::size_t kEdges = 4;
  constexpr std::size_t kZones = 400;
  constexpr std::size_t kBurst = 64;
  constexpr std::size_t kWarmTicks = 200;
  const SimTime subscribe_at = SimTime::from_millis(100);
  const SimTime first_burst = SimTime::from_millis(500);
  const Duration period = Duration::millis(10);
  const Duration var_period = Duration::seconds(1.0);

  config_ = pinned_config(evps::EngineKind::kClees, evps::RoutingMode::kAdvertisement, false,
                          kBurst, reference, kZones <= 1000);
  evps::Broker& core = add_broker("core");
  std::vector<evps::Broker*> edges;
  for (std::size_t e = 0; e < kEdges; ++e) {
    evps::Broker& edge = add_broker("edge" + std::to_string(e));
    overlay_.connect(edge, core, Duration::millis(5));
    edges.push_back(&edge);
  }
  for (evps::Broker* b : brokers_) b->variables().declare_range("gz_load", 0.0, 1.0);
  const std::uint32_t publisher = add_client("publisher", core, Duration::millis(1));
  std::vector<std::uint32_t> subscribers;
  for (std::size_t z = 0; z < kZones; ++z) {
    subscribers.push_back(
        add_client("zone" + std::to_string(z), *edges[z % kEdges], Duration::millis(1)));
  }

  Script script(inputs_);
  Rng rng(seed);
  script.advertise(SimTime::zero(), publisher,
                   {Predicate{"x", RelOp::kGe, Value{0.0}}, Predicate{"x", RelOp::kLe, Value{1000.0}},
                    Predicate{"y", RelOp::kGe, Value{0.0}},
                    Predicate{"y", RelOp::kLe, Value{1000.0}}});
  script.var_update(SimTime::zero(), publisher, "gz_load", 0.5);

  // Radii are stratified over [80, 180] and every fourth zone per edge is
  // evolving, so seeds move zone positions but not the amount of work.
  Rng zrng = rng.fork(1);
  for (std::size_t z = 0; z < kZones; ++z) {
    const double cx = zrng.uniform(150.0, 850.0);
    const double cy = zrng.uniform(150.0, 850.0);
    const double r = 80.0 + 100.0 * (static_cast<double>(z) + zrng.uniform()) /
                                static_cast<double>(kZones);
    Subscription sub;
    sub.add(Predicate{"x", RelOp::kGe, Value{cx - r}});
    if ((z / kEdges) % 4 == 0) {
      // Evolving zone: the x reach scales with gz_load in [0, 1].
      sub.add(Predicate{"x", RelOp::kLe, linear(cx, r, "gz_load")});
      sub.set_tt(Duration::millis(500));
    } else {
      sub.add(Predicate{"x", RelOp::kLe, Value{cx + r}});
    }
    sub.add(Predicate{"y", RelOp::kGe, Value{cy - r}});
    sub.add(Predicate{"y", RelOp::kLe, Value{cy + r}});
    sub.set_id(evps::make_subscription_id(clients_[subscribers[z]]->id(), 1));
    script.subscribe(subscribe_at, subscribers[z], std::move(sub));
  }

  Rng prng = rng.fork(2);
  const std::size_t ticks = kWarmTicks + measured_ticks;
  for (std::size_t k = 0; k < ticks; ++k) {
    const SimTime at = first_burst + period * static_cast<std::int64_t>(k);
    for (std::size_t p = 0; p < kBurst; ++p) {
      Publication pub;
      pub.set("x", prng.uniform(0.0, 1000.0));
      pub.set("y", prng.uniform(0.0, 1000.0));
      script.publish(at, publisher, std::move(pub));
    }
  }
  const SimTime closing = first_burst + period * static_cast<std::int64_t>(ticks);
  Rng vrng = rng.fork(3);
  for (SimTime at = first_burst + Duration::millis(5); at < closing; at += var_period) {
    script.var_update(at, publisher, "gz_load", vrng.uniform(0.2, 1.0));
  }
  script.finish(kWarmTicks, closing);
}

// hft_churn: the paper's HFT tree (3 markets x 3 edges, 3 cores, a central
// broker) with advertisement routing, covering, VES (MEI 1 s) and the
// per-message path. 900 firms x 10 evolving price bands are replaced by
// subscribe + unsubscribe every 10 s, staggered across firms, while 9
// publishers quote 500 stocks at 100 publications/s each.
void Deployment::build_hft_churn(std::uint64_t seed, std::size_t measured_ticks,
                                 bool reference) {
  constexpr std::size_t kMarkets = 3;
  constexpr std::size_t kEdgesPerMarket = 3;
  constexpr std::size_t kFirms = 90;
  constexpr std::size_t kBands = 10;
  constexpr std::size_t kStocks = 500;
  constexpr std::size_t kPublishers = kMarkets * kEdgesPerMarket;
  constexpr double kWidths[] = {0.25, 0.5, 1.0, 2.0};
  // Initial subscribes are spread over one MEI so VES evolution waves are
  // staggered from the start, as they are in steady-state churn.
  const SimTime subscribe_at = SimTime::from_millis(100);
  const Duration subscribe_spread = Duration::seconds(1.0);
  const SimTime first_pub = SimTime::from_millis(1500);
  const Duration pub_period = Duration::millis(10);  // 100 publications/s per publisher
  const Duration validity = Duration::seconds(10.0);
  const std::size_t warm_ticks = 900;

  config_ = pinned_config(evps::EngineKind::kVes, evps::RoutingMode::kAdvertisement, true, 1,
                          reference, kFirms * kBands <= 1000);
  evps::Broker& central = add_broker("central");
  std::vector<evps::Broker*> edges;
  for (std::size_t m = 0; m < kMarkets; ++m) {
    evps::Broker& core = add_broker("market" + std::to_string(m) + "_core");
    overlay_.connect(core, central, Duration::millis(5));
    for (std::size_t e = 0; e < kEdgesPerMarket; ++e) {
      evps::Broker& edge =
          add_broker("market" + std::to_string(m) + "_edge" + std::to_string(e));
      overlay_.connect(edge, core, Duration::millis(5));
      edges.push_back(&edge);
    }
  }
  std::vector<std::uint32_t> publishers;
  for (std::size_t p = 0; p < kPublishers; ++p) {
    publishers.push_back(add_client("quotes" + std::to_string(p), *edges[p], Duration::millis(2)));
  }
  std::vector<std::uint32_t> firms;
  for (std::size_t f = 0; f < kFirms; ++f) {
    firms.push_back(
        add_client("firm" + std::to_string(f), *edges[f % edges.size()], Duration::millis(2)));
  }

  Rng rng(seed);
  struct Stock {
    std::string symbol;
    double base, drift, amplitude, omega, phase;
  };
  std::vector<Stock> stocks(kStocks);
  Rng srng = rng.fork(0x57004);
  for (std::size_t s = 0; s < kStocks; ++s) {
    std::string num = std::to_string(s);
    stocks[s] = Stock{"STK" + std::string(3 - num.size(), '0') + num,
                      srng.uniform(10.0, 500.0),
                      srng.uniform(-0.05, 0.05),
                      srng.uniform(0.0, 0.5),
                      2.0 * std::numbers::pi / srng.uniform(20.0, 120.0),
                      srng.uniform(0.0, 2.0 * std::numbers::pi)};
  }
  const auto price = [&stocks](std::size_t s, SimTime at) {
    const Stock& m = stocks[s];
    const double t = at.seconds();
    return m.base + m.drift * t + m.amplitude * std::sin(m.omega * t + m.phase);
  };

  Script script(inputs_);
  for (const std::uint32_t p : publishers) {
    script.advertise(SimTime::zero(), p,
                     {Predicate{"price", RelOp::kGe, Value{0.0}},
                      Predicate{"price", RelOp::kLe, Value{1000.0}}});
  }

  const std::size_t ticks = warm_ticks + measured_ticks;
  const std::size_t rounds = (ticks + kPublishers - 1) / kPublishers;
  const SimTime closing = first_pub + pub_period * static_cast<std::int64_t>(rounds);

  // Band trajectory: centre snaps to the model price at the subscribe
  // instant and drifts with the stock (t counts from that instant).
  struct Band {
    std::size_t stock;
    double half_width;
  };
  const auto band_sub = [&](const Band& b, SimTime at, evps::SubscriptionId id) {
    const double c0 = price(b.stock, at);
    const double drift = stocks[b.stock].drift;
    Subscription sub;
    sub.add(Predicate{"symbol", RelOp::kEq, Value{stocks[b.stock].symbol}});
    sub.add(Predicate{"price", RelOp::kGe, linear(c0 - b.half_width, drift, "t")});
    sub.add(Predicate{"price", RelOp::kLe, linear(c0 + b.half_width, drift, "t")});
    sub.set_mei(Duration::seconds(1.0));
    sub.set_tt(Duration::seconds(1.0));
    sub.set_validity(validity);
    sub.set_id(id);
    return sub;
  };
  for (std::size_t f = 0; f < kFirms; ++f) {
    Rng frng = rng.fork(1000 + f);
    std::vector<Band> bands(kBands);
    for (auto& b : bands) {
      b.stock = static_cast<std::size_t>(frng.uniform_int(0, kStocks - 1));
      b.half_width = kWidths[frng.uniform_int(0, 3)];
    }
    const evps::ClientId owner = clients_[firms[f]]->id();
    std::uint32_t seq = 1;
    const SimTime first_at = subscribe_at + Duration::micros(subscribe_spread.count_micros() *
                                                           static_cast<std::int64_t>(f) /
                                                           static_cast<std::int64_t>(kFirms));
    std::vector<evps::SubscriptionId> current(kBands);
    for (std::size_t k = 0; k < kBands; ++k) {
      current[k] = evps::make_subscription_id(owner, seq++);
      script.subscribe(first_at, firms[f], band_sub(bands[k], first_at, current[k]));
    }
    // Each band is replaced on its own staggered schedule, so about one tick
    // in ten carries a replacement.
    for (std::size_t k = 0; k < kBands; ++k) {
      const Duration stagger = Duration::micros(
          validity.count_micros() * static_cast<std::int64_t>(f * kBands + k) /
          static_cast<std::int64_t>(kFirms * kBands));
      for (SimTime at = first_pub + stagger; at < closing; at += validity) {
        const evps::SubscriptionId fresh = evps::make_subscription_id(owner, seq++);
        script.subscribe(at, firms[f], band_sub(bands[k], at, fresh));
        script.unsubscribe(at, firms[f], current[k]);
        current[k] = fresh;
      }
    }
  }

  // Publisher p quotes the stocks s with s % 9 == p in turn, offset by p ms
  // so every publication instant is distinct.
  std::vector<std::size_t> cursor(kPublishers, 0);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t p = 0; p < kPublishers; ++p) {
      const SimTime at = first_pub + pub_period * static_cast<std::int64_t>(r) +
                         Duration::millis(static_cast<std::int64_t>(p));
      const std::size_t per_publisher = (kStocks - p + kPublishers - 1) / kPublishers;
      const std::size_t s = p + kPublishers * (cursor[p]++ % per_publisher);
      Publication pub;
      pub.set("symbol", stocks[s].symbol);
      pub.set("price", price(s, at));
      pub.set("avail", static_cast<std::int64_t>(std::sin(0.05 * at.seconds() + 0.37 *
                                                          static_cast<double>(s % 97)) > -0.8));
      script.publish(at, publishers[p], std::move(pub));
    }
  }
  script.finish(warm_ticks, closing);
}

}  // namespace perfbench
