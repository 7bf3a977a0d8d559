// Outside-in layer trace of the measured phase.
//
// Attribution happens only at public boundaries of the library:
//   * a Network tap, installed before the first simulated message, fires
//     immediately before on_message in the same event; it names the step
//     (broker.publish / broker.control / broker.client_deliver) and splits
//     off sim.dispatch_s (step start to tap time: queue pop + closure
//     dispatch);
//   * the EngineCosts sums (match, lazy_eval, maintenance), read over all
//     brokers before and after every step, give the engine child spans;
//   * a step with no tap is sim.timer.
// A step's self time is its duration minus its dispatch, tap and engine
// child spans. Steps fold into per-tick layer spans, which stay in memory
// until write() puts them out as one TSV row per tick.
//
// The tap keeps a copy of each message (shared publication pointers, no
// deep copies); the tick's messages are serialized for
// message.wire_bytes_per_delivery after the tick's span closes, so codec
// work never lands in the measured phase.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "driver.hpp"

namespace perfbench {

/// Self-time rows of the trace table. Together with trace.leftover_s they
/// sum to the traced phase wall time.
enum class Layer : std::uint8_t {
  kSimDispatch,
  kSimTimer,
  kBrokerPublish,
  kBrokerControl,
  kClientDeliver,
  kLazyEval,
  kMaintenance,
  kMatch,
  kTap,
  kCount
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
[[nodiscard]] const char* metric_name(Layer layer) noexcept;

struct TraceTotals {
  std::array<double, kLayers> self_s{};
  std::uint64_t events = 0;
  std::uint64_t backlog_max = 0;
  std::uint64_t publish_msgs = 0;
  std::uint64_t control_msgs = 0;
  std::uint64_t client_deliveries = 0;
  std::uint64_t wire_bytes = 0;
  double phase_s = 0;  ///< sum of tick wall times
};

class Tracer {
 public:
  /// Installs the tap; construct before the first simulated message.
  explicit Tracer(Deployment& d);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void begin_tick();
  /// Run one simulator step and attribute its wall time.
  void step(evps::Simulator& sim);
  void end_tick(std::size_t tick, double start_s, double end_s);

  [[nodiscard]] const TraceTotals& totals() const noexcept { return totals_; }
  /// One row per measured tick: index, start, end, then each layer's self
  /// time in that tick (seconds, start/end relative to the first tick).
  void write(const std::string& path) const;

 private:
  struct EngineSums {
    double match = 0;
    double lazy = 0;
    double maintenance = 0;
  };
  struct TickSpan {
    std::uint32_t tick = 0;
    double start_s = 0;
    double end_s = 0;
    std::array<float, kLayers> self_s{};
  };

  [[nodiscard]] EngineSums engine_sums() const;
  void on_tap(const evps::Envelope& env);

  Deployment& d_;
  std::vector<evps::Message> tick_msgs_;
  bool active_ = false;  ///< inside a measured tick
  bool tapped_ = false;
  Layer tap_layer_ = Layer::kSimTimer;
  double tap_in_ = 0;
  double tap_out_ = 0;
  TraceTotals totals_;
  std::array<double, kLayers> tick_self_{};
  std::vector<TickSpan> spans_;
};

}  // namespace perfbench
