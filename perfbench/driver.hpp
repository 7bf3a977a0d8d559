// Tick-by-tick driver for one Deployment.
//
// Run model: a closed replay. The driver advances the simulator as fast as
// the host allows. A tick is the simulated slice between consecutive
// publication instants; its wall time covers every event in the slice (each
// publication's full fan-out, evolution waves, batch flushes, control
// traffic). At the start of tick k the driver hands the inputs of
// [ticks[k], ticks[k+1]) to the simulator plus a sentinel event at
// ticks[k+1], then steps until the sentinel runs.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

class Tracer;

/// One publication's folded delivery record.
struct RecordEntry {
  std::uint64_t pub = 0;
  std::uint64_t hash = 0;
  std::uint64_t count = 0;
  bool operator==(const RecordEntry&) const = default;
};

/// Per-publication delivery record, folded to one order-independent hash:
/// for each delivery, (client, simulated time, the previous publication that
/// client received). Two runs agree on a publication exactly when they
/// delivered it to the same clients, at the same times, in the same
/// per-client order.
class DeliveryRecord {
 public:
  explicit DeliveryRecord(const Deployment& d);
  /// Fold and clear every client's delivery log.
  void harvest(const Deployment& d);
  /// Fold one delivery of publication `pub` to client index `client`.
  void add(std::uint64_t pub, std::size_t client, evps::SimTime when);
  [[nodiscard]] std::uint64_t deliveries() const noexcept { return deliveries_; }
  /// Every publication's entry, ordered by publication id.
  [[nodiscard]] std::vector<RecordEntry> entries() const;

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::uint64_t count = 0;
  };
  std::unordered_map<std::uint64_t, Entry> by_pub_;
  std::vector<std::uint64_t> last_pub_;  // per client
  std::uint64_t deliveries_ = 0;
};

/// Add to `out` every publication whose entry differs between `a` and `b`,
/// both ordered by publication id.
void mismatches(const std::vector<RecordEntry>& a, const std::vector<RecordEntry>& b,
                std::unordered_set<std::uint64_t>& out);

class Driver {
 public:
  /// Deliveries are folded into `record` after every tick.
  Driver(Deployment& d, DeliveryRecord& record);

  /// Issue the inputs before the first subscribe (advertisements, initial
  /// variable values), run up to the first subscribe and check the overlay
  /// is quiet.
  void pre_install();
  /// Issue the initial subscriptions and step until the overlay is quiet.
  /// Returns the wall seconds from the first subscribe to quiet.
  double install();
  /// Run ticks [first, last), appending each tick's wall time to
  /// tick_seconds(). A non-null `tracer` runs every step.
  void run_ticks(std::size_t first, std::size_t last, Tracer* tracer);

  /// Wall seconds of every tick run so far, in tick order.
  [[nodiscard]] const std::vector<double>& tick_seconds() const noexcept { return tick_s_; }
  [[nodiscard]] std::size_t warm_ticks() const noexcept { return d_.inputs().warm_ticks; }
  [[nodiscard]] std::size_t total_ticks() const noexcept { return d_.inputs().ticks.size() - 1; }

 private:
  void schedule_until(evps::SimTime end);
  /// True when every message sent so far has been received by a broker
  /// (holds during install, when nothing is addressed to a client).
  [[nodiscard]] bool quiet() const;

  Deployment& d_;
  std::size_t next_group_ = 0;
  bool boundary_ = false;
  std::vector<double> tick_s_;
  DeliveryRecord& record_;
};

[[nodiscard]] double wall_seconds();

}  // namespace perfbench
