#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "message/codec.hpp"

namespace perfbench {

const char* metric_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kSimDispatch: return "sim.dispatch_s";
    case Layer::kSimTimer: return "sim.timer_s";
    case Layer::kBrokerPublish: return "broker.publish_self_s";
    case Layer::kBrokerControl: return "broker.control_self_s";
    case Layer::kClientDeliver: return "broker.client_deliver_s";
    case Layer::kLazyEval: return "evolving.lazy_eval_s";
    case Layer::kMaintenance: return "evolving.maintenance_s";
    case Layer::kMatch: return "matching.match_s";
    case Layer::kTap: return "trace.tap_s";
    case Layer::kCount: break;
  }
  return "?";
}

namespace {

std::size_t at(Layer layer) { return static_cast<std::size_t>(layer); }

/// Codec bytes the envelope's payload would occupy on a wire.
std::uint64_t wire_bytes(const evps::Message& msg) {
  using namespace evps;
  if (const auto* m = std::get_if<PublishMsg>(&msg)) return serialize(*m->pub).size();
  if (const auto* m = std::get_if<DeliveryMsg>(&msg)) return serialize(*m->pub).size();
  if (const auto* m = std::get_if<PublishBatchMsg>(&msg)) return serialized_batch_size(m->pubs);
  if (const auto* m = std::get_if<DeliveryBatchMsg>(&msg)) return serialized_batch_size(m->pubs);
  if (const auto* m = std::get_if<SubscribeMsg>(&msg)) return serialize(*m->sub).size();
  return 0;
}

}  // namespace

Tracer::Tracer(Deployment& d) : d_(d) {
  d_.overlay().network().add_tap(
      [this](const evps::Envelope& env, evps::SimTime) { on_tap(env); });
}

void Tracer::on_tap(const evps::Envelope& env) {
  if (!active_) return;
  tap_in_ = wall_seconds();
  using namespace evps;
  const Message& msg = env.msg;
  if (std::holds_alternative<PublishMsg>(msg) || std::holds_alternative<PublishBatchMsg>(msg)) {
    tap_layer_ = Layer::kBrokerPublish;
    ++totals_.publish_msgs;
  } else if (std::holds_alternative<DeliveryMsg>(msg) ||
             std::holds_alternative<DeliveryBatchMsg>(msg)) {
    tap_layer_ = Layer::kClientDeliver;
    totals_.client_deliveries += publications_carried(msg);
  } else {
    tap_layer_ = Layer::kBrokerControl;
    ++totals_.control_msgs;
  }
  tick_msgs_.push_back(msg);
  tapped_ = true;
  tap_out_ = wall_seconds();
}

Tracer::EngineSums Tracer::engine_sums() const {
  EngineSums s;
  for (const evps::Broker* b : d_.brokers()) {
    const evps::EngineCosts& c = b->engine().costs();
    s.match += c.match.sum();
    s.lazy += c.lazy_eval.sum();
    s.maintenance += c.maintenance.sum();
  }
  return s;
}

void Tracer::begin_tick() {
  active_ = true;
  tick_self_.fill(0.0);
}

void Tracer::step(evps::Simulator& sim) {
  const EngineSums before = engine_sums();
  tapped_ = false;
  const double t0 = wall_seconds();
  sim.step();
  const double t1 = wall_seconds();
  const EngineSums after = engine_sums();

  const double match = after.match - before.match;
  const double lazy = after.lazy - before.lazy;
  const double maintenance = after.maintenance - before.maintenance;
  tick_self_[at(Layer::kMatch)] += match;
  tick_self_[at(Layer::kLazyEval)] += lazy;
  tick_self_[at(Layer::kMaintenance)] += maintenance;
  const double engine = match + lazy + maintenance;
  if (tapped_) {
    tick_self_[at(Layer::kSimDispatch)] += tap_in_ - t0;
    tick_self_[at(Layer::kTap)] += tap_out_ - tap_in_;
    tick_self_[at(tap_layer_)] += (t1 - tap_out_) - engine;
  } else {
    tick_self_[at(Layer::kSimTimer)] += (t1 - t0) - engine;
  }
  ++totals_.events;
  totals_.backlog_max = std::max<std::uint64_t>(totals_.backlog_max, sim.pending());
}

void Tracer::end_tick(std::size_t tick, double start_s, double end_s) {
  active_ = false;
  TickSpan span;
  span.tick = static_cast<std::uint32_t>(tick);
  span.start_s = start_s;
  span.end_s = end_s;
  for (std::size_t l = 0; l < kLayers; ++l) {
    totals_.self_s[l] += tick_self_[l];
    span.self_s[l] = static_cast<float>(tick_self_[l]);
  }
  totals_.phase_s += end_s - start_s;
  spans_.push_back(span);
  for (const evps::Message& msg : tick_msgs_) totals_.wire_bytes += wire_bytes(msg);
  tick_msgs_.clear();
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace to " + path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start_s;
  out << "tick\tstart_s\tend_s";
  for (std::size_t l = 0; l < kLayers; ++l) out << '\t' << metric_name(static_cast<Layer>(l));
  out << '\n';
  for (const TickSpan& s : spans_) {
    out << s.tick << '\t' << (s.start_s - origin) << '\t' << (s.end_s - origin);
    for (const float v : s.self_s) out << '\t' << v;
    out << '\n';
  }
}

}  // namespace perfbench
