// Scripted deployments for the overlay benchmark.
//
// A Deployment is one overlay (brokers + clients) plus every input it will
// ever receive: subscriptions, publications, variable updates and churn,
// generated from the seed before set-up ends. The driver (driver.hpp) hands
// the inputs to the simulator tick by tick; nothing is generated while the
// overlay runs.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "broker/overlay.hpp"

namespace perfbench {

enum class Workload { kGameLees, kBurstFanout, kHftChurn };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* to_string(Workload w) noexcept;

/// Measured ticks of each replica (10 ticks beyond the p99). Fixed, so the
/// same seed always simulates the same work. Short, so a run has many
/// rounds: each tick's reported time is the fastest of its rounds.
inline constexpr std::size_t kMeasuredTicks = 1000;

/// Rounds of a run that measures for `seconds` wall seconds: fixed per
/// workload from the round's wall time on a 4-core x86-64 host at the
/// commit that introduced this benchmark, so the same (seed, seconds)
/// always runs the same rounds and a faster program simply finishes sooner.
[[nodiscard]] int rounds_for(Workload w, double seconds) noexcept;

/// Set-up + install copies per round, the replica's own included: the
/// fastest install of the run is reported, so short installs get more
/// copies.
[[nodiscard]] int installs_per_round(Workload w) noexcept;

/// Set-ups timed per round, those of the install copies included (set-up is
/// short, so the rest are built and dropped without an install).
inline constexpr std::size_t kSetupsPerRound = 4;

/// Set-ups timed per run at least (topped up after the last round); the
/// median is reported.
inline constexpr std::size_t kSetupSamples = 25;

/// One client action. `payload` indexes the pool of its kind in Inputs.
struct Op {
  enum class Kind : std::uint8_t { kAdvertise, kSubscribe, kUnsubscribe, kPublish, kVarUpdate };
  Kind kind = Kind::kPublish;
  std::uint32_t client = 0;  ///< index into Deployment::clients()
  std::uint32_t payload = 0;
  evps::SubscriptionId sub{};  ///< kUnsubscribe target
};

/// Consecutive ops sharing one simulated instant. The simulator runs a group
/// as one event, so a burst's publications share a virtual instant.
struct OpGroup {
  evps::SimTime at;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

struct Inputs {
  std::vector<Op> ops;  ///< ordered by instant, then issue order
  std::vector<OpGroup> groups;
  std::vector<evps::Subscription> subs;
  std::vector<evps::Publication> pubs;
  std::vector<std::vector<evps::Predicate>> adverts;
  std::vector<std::pair<std::string, double>> var_updates;

  /// Tick boundaries: the distinct publication instants, plus one closing
  /// boundary. Tick k is [ticks[k], ticks[k+1]).
  std::vector<evps::SimTime> ticks;
  std::size_t warm_ticks = 0;
  /// Instant of the first subscribe; everything before ticks[0] is install.
  evps::SimTime first_subscribe;
  std::size_t initial_subscribes = 0;
  std::size_t subscribe_ops = 0;
  std::size_t unsubscribe_ops = 0;
  std::size_t publish_ops = 0;
};

class Deployment {
 public:
  /// Build the overlay and generate every input. `reference` selects the
  /// oracle configuration: same topology and engine, with covering,
  /// matcher/link batching, install sharing and analysis cache windows off,
  /// and the brute-force matcher for small populations.
  Deployment(Workload w, std::uint64_t seed, std::size_t measured_ticks, bool reference);

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] evps::Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] evps::Overlay& overlay() noexcept { return overlay_; }
  [[nodiscard]] const std::vector<evps::Broker*>& brokers() const noexcept { return brokers_; }
  [[nodiscard]] const std::vector<evps::PubSubClient*>& clients() const noexcept {
    return clients_;
  }
  [[nodiscard]] const Inputs& inputs() const noexcept { return inputs_; }

  /// Issue every op of `group` (runs inside a simulator event).
  void fire(const OpGroup& group);

  /// Id the publisher assigned to each publication fired so far, indexed
  /// like Inputs::pubs.
  [[nodiscard]] const std::vector<evps::MessageId>& published_ids() const noexcept {
    return pub_ids_;
  }

 private:
  void build_game_lees(std::uint64_t seed, std::size_t ticks, bool reference);
  void build_burst_fanout(std::uint64_t seed, std::size_t ticks, bool reference);
  void build_hft_churn(std::uint64_t seed, std::size_t ticks, bool reference);

  evps::Broker& add_broker(std::string name);
  std::uint32_t add_client(std::string name, evps::Broker& at, evps::Duration latency);

  evps::Simulator sim_;
  evps::Overlay overlay_{sim_};
  evps::BrokerConfig config_;
  std::vector<evps::Broker*> brokers_;
  std::vector<evps::PubSubClient*> clients_;
  Inputs inputs_;
  std::vector<evps::MessageId> pub_ids_;
};

/// Called once per expected delivery: publication (index into Inputs::pubs),
/// client (index into Deployment::clients()) and delivery instant.
using ExpectFn = std::function<void(std::uint32_t pub, std::uint32_t client, evps::SimTime when)>;

/// The deliveries game_lees must make, derived without the overlay or any
/// engine: every publication is checked against every area of interest with
/// Subscription::matches, under t = publication instant - subscribe
/// instant. `in` must come from a Deployment that has not fired yet.
/// Deliveries are reported in publication order.
void game_lees_expected(const Inputs& in, const ExpectFn& expect);

}  // namespace perfbench
