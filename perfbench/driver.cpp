#include "driver.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "tracer.hpp"

namespace perfbench {

double wall_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

DeliveryRecord::DeliveryRecord(const Deployment& d) : last_pub_(d.clients().size(), 0) {}

void DeliveryRecord::harvest(const Deployment& d) {
  const auto& clients = d.clients();
  for (std::size_t c = 0; c < clients.size(); ++c) {
    evps::PubSubClient& client = *clients[c];
    if (client.deliveries().empty()) continue;
    for (const auto& delivery : client.deliveries()) add(delivery.pub.id().value(), c, delivery.when);
    client.clear_deliveries();
  }
}

void DeliveryRecord::add(std::uint64_t pub, std::size_t client, evps::SimTime when) {
  Entry& e = by_pub_[pub];
  e.hash += mix64(client ^ mix64(static_cast<std::uint64_t>(when.micros()) ^
                                 mix64(last_pub_[client])));
  ++e.count;
  last_pub_[client] = pub;
  ++deliveries_;
}

std::vector<RecordEntry> DeliveryRecord::entries() const {
  std::vector<RecordEntry> out;
  out.reserve(by_pub_.size());
  for (const auto& [pub, entry] : by_pub_) out.push_back({pub, entry.hash, entry.count});
  std::sort(out.begin(), out.end(),
            [](const RecordEntry& x, const RecordEntry& y) { return x.pub < y.pub; });
  return out;
}

void mismatches(const std::vector<RecordEntry>& a, const std::vector<RecordEntry>& b,
                std::unordered_set<std::uint64_t>& out) {
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() || j != b.end()) {
    if (j == b.end() || (i != a.end() && i->pub < j->pub)) {
      out.insert((i++)->pub);
    } else if (i == a.end() || j->pub < i->pub) {
      out.insert((j++)->pub);
    } else {
      if (!(*i == *j)) out.insert(i->pub);
      ++i;
      ++j;
    }
  }
}

Driver::Driver(Deployment& d, DeliveryRecord& record) : d_(d), record_(record) {}

void Driver::schedule_until(evps::SimTime end) {
  const auto& groups = d_.inputs().groups;
  while (next_group_ < groups.size() && groups[next_group_].at < end) {
    const OpGroup* group = &groups[next_group_++];
    d_.sim().at(group->at, [this, group] { d_.fire(*group); });
  }
}

bool Driver::quiet() const {
  std::uint64_t received = 0;
  for (const evps::Broker* b : d_.brokers()) received += b->stats().received_total;
  return received == d_.overlay().network().messages_sent();
}

void Driver::pre_install() {
  const evps::SimTime first = d_.inputs().first_subscribe;
  schedule_until(first);
  d_.sim().run_until(first - evps::Duration::micros(1));
  if (!quiet()) throw std::runtime_error("overlay not quiet before the first subscribe");
}

double Driver::install() {
  const Inputs& in = d_.inputs();
  schedule_until(in.ticks.front());
  evps::SimTime last = in.first_subscribe;
  for (std::size_t g = 0; g < next_group_; ++g) last = std::max(last, in.groups[g].at);
  const double start = wall_seconds();
  d_.sim().run_until(last);
  while (!quiet() && d_.sim().step()) {
  }
  const double seconds = wall_seconds() - start;
  if (!quiet()) throw std::runtime_error("overlay not quiet after install");
  return seconds;
}

void Driver::run_ticks(std::size_t first, std::size_t last, Tracer* tracer) {
  const auto& ticks = d_.inputs().ticks;
  evps::Simulator& sim = d_.sim();
  for (std::size_t k = first; k < last; ++k) {
    schedule_until(ticks[k + 1]);
    boundary_ = false;
    sim.at(ticks[k + 1], [this] { boundary_ = true; });
    if (tracer != nullptr) tracer->begin_tick();
    const double start = wall_seconds();
    if (tracer == nullptr) {
      while (!boundary_) sim.step();
    } else {
      while (!boundary_) tracer->step(sim);
    }
    const double end = wall_seconds();
    if (tracer != nullptr) tracer->end_tick(k, start, end);
    tick_s_.push_back(end - start);
    record_.harvest(d_);
  }
}

}  // namespace perfbench
