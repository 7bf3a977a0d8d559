// overlay_perf: one run of one overlay benchmark workload.
//
//   overlay_perf --workload <game_lees|burst_fanout|hft_churn> --seed <n>
//                --seconds <s> [--trace 0|1] [--rounds <k>] [--no-reference]
//                [--trace-out <file.tsv>]
//
// Phases: set-up (generate every input, build the overlay), subscription
// install (first subscribe until the overlay is quiet), warm-up ticks and
// measured ticks. A run is a sequence of rounds, each in its own forked
// child: a round sets up and installs fresh copies (installs_per_round) and
// runs the last of them, its replica, through the same kMeasuredTicks
// measured ticks. A run has rounds_for(workload, --seconds) rounds, or
// --rounds of them. Round 1's replica A is traced under --trace 1 and gives
// peak_rss_mb. The output check, after round 1, compares every replica's
// delivery records with the expected ones: for game_lees computed directly
// from the subscriptions (game_lees_expected), otherwise from an untimed
// replay of the same inputs on the reference configuration. Prints one JSON
// object on the last line.
//
// The driver owns the argument and environment checks; it exits 2 on a bad
// argument or a pinned knob set in the environment.
#include <algorithm>
#include <charconv>
#include <cerrno>
#include <csignal>
#include <cmath>
#include <cstring>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "driver.hpp"
#include "tracer.hpp"

namespace {

using namespace perfbench;

struct Args {
  Workload workload = Workload::kGameLees;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int rounds = 0;  ///< 0: until `seconds` have passed, at least two
  bool reference = true;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "overlay_perf: " << why
            << "\nusage: overlay_perf --workload <game_lees|burst_fanout|hft_churn> --seed <n> "
               "--seconds <s> [--trace 0|1] [--rounds <k>] [--no-reference] "
               "[--trace-out <file>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--no-reference") {
      a.reference = false;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        const auto w = parse_workload(value);
        if (!w) usage("unknown workload " + value);
        a.workload = *w;
        have_workload = true;
      } else if (flag == "--seed") {
        const auto res = std::from_chars(value.data(), value.data() + value.size(), a.seed);
        if (res.ec != std::errc{} || res.ptr != value.data() + value.size()) {
          usage("--seed takes a whole number >= 0");
        }
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = value == "1";
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      } else if (flag == "--rounds") {
        a.rounds = std::stoi(value);
        if (a.rounds < 1 || a.rounds > 50) usage("--rounds must be in [1, 50]");
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0) || a.seconds > 600) usage("--seconds must be in (0, 600]");
  return a;
}

/// Public counters summed over brokers.
struct Counters {
  std::uint64_t sent = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t sub_msgs = 0;
  std::uint64_t link_msgs = 0;
  std::uint64_t link_events = 0;
  std::uint64_t size_flushes = 0;
  std::uint64_t deadline_flushes = 0;
  std::uint64_t barrier_flushes = 0;
  std::uint64_t lazy_evaluations = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t evolutions = 0;
  std::uint64_t match_calls = 0;
  std::uint64_t cover_pairs = 0;
  std::uint64_t cover_covered = 0;
  std::uint64_t cover_relational = 0;
  std::uint64_t suppressed_forwards = 0;
  std::uint64_t resubscribes = 0;
  std::uint64_t rejected = 0;
};

Counters snapshot(Deployment& d) {
  Counters c;
  c.sent = d.overlay().network().messages_sent();
  c.sub_msgs = d.overlay().total_subscription_msgs();
  for (const evps::Broker* b : d.brokers()) {
    c.deliveries += b->stats().deliveries;
    const auto& link = b->link_counters();
    c.link_msgs += link.messages();
    c.link_events += link.events;
    c.size_flushes += link.size_flushes;
    c.deadline_flushes += link.deadline_flushes;
    c.barrier_flushes += link.barrier_flushes;
    const auto& costs = b->engine().costs();
    c.lazy_evaluations += costs.lazy_evaluations;
    c.cache_hits += costs.cache_hits;
    c.cache_misses += costs.cache_misses;
    c.evolutions += costs.evolutions;
    c.match_calls += costs.match.count();
    const evps::CoverStats cover = b->covering_stats();
    c.cover_pairs += cover.pairs;
    c.cover_covered += cover.covered;
    c.cover_relational += cover.relational;
    c.suppressed_forwards += b->covering_counters().suppressed_forwards;
    c.resubscribes += b->covering_counters().resubscribes;
    c.rejected += b->analysis_counters().rejected();
  }
  return c;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

/// Initial subscriptions that are not installed at their subscriber's
/// broker once the overlay is quiet (rejected or lost).
std::uint64_t missing_installs(const Deployment& d) {
  std::uint64_t missing = 0;
  for (const evps::PubSubClient* c : d.clients()) {
    for (const evps::SubscriptionId id : c->active_subscriptions()) {
      if (!c->broker().engine().contains(id)) ++missing;
    }
  }
  return missing;
}

/// Shortest round-trip decimal form (JSON has no NaN/inf; those print 0).
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return {buf, res.ptr};
}

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!first_) os_ << ", ";
    first_ = false;
    os_ << '"' << name << "\": {\"value\": " << num(value) << ", \"unit\": \"" << unit << "\"}";
  }
  /// Append the entries of another report's str().
  void append(const std::string& entries) {
    if (entries.empty()) return;
    if (!first_) os_ << ", ";
    first_ = false;
    os_ << entries;
  }
  [[nodiscard]] std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
  bool first_ = true;
};

struct TickStats {
  double pub_rate = 0;
  double p50_s = 0;
  double p99_s = 0;
};

/// Publications issued in each measured tick.
std::vector<double> measured_tick_pubs(const Inputs& in) {
  std::vector<double> tick_pubs(in.ticks.size() - 1 - in.warm_ticks, 0.0);
  for (const OpGroup& g : in.groups) {
    if (g.at < in.ticks[in.warm_ticks] || g.at >= in.ticks.back()) continue;
    const auto tick = static_cast<std::size_t>(
        std::upper_bound(in.ticks.begin(), in.ticks.end(), g.at) - in.ticks.begin() - 1);
    for (std::uint32_t i = g.first; i < g.first + g.count; ++i) {
      if (in.ops[i].kind == Op::Kind::kPublish) tick_pubs[tick - in.warm_ticks] += 1;
    }
  }
  return tick_pubs;
}

/// Interference from other work on the host only ever adds time, and on a
/// shared host it comes in stretches of seconds. Every replica runs the
/// same ticks, and the rounds are spread over the whole run, so each tick's
/// time is the fastest of its runs in the rounds; pub_rate, the p50 and the
/// p99 come from those per-tick times. A change to the program moves every
/// tick's time, so it moves them all; a stall the program makes in a given
/// tick in every round stays in the p99.
TickStats tick_stats(const std::vector<double>& tick_pubs,
                     const std::vector<std::vector<double>>& replicas) {
  std::vector<double> best = replicas.front();
  for (const std::vector<double>& tick_s : replicas) {
    for (std::size_t k = 0; k < best.size(); ++k) best[k] = std::min(best[k], tick_s[k]);
  }
  const double pubs = std::accumulate(tick_pubs.begin(), tick_pubs.end(), 0.0);
  return {ratio(pubs, std::accumulate(best.begin(), best.end(), 0.0)), percentile(best, 0.50),
          percentile(best, 0.99)};
}

/// A run without --rounds starts no round after this many times --seconds,
/// so a slow host shortens the run (fewer rounds) instead of lengthening it.
constexpr double kSlowHostFactor = 1.3;

/// Per-layer metrics of the traced measured phase: the tracer's spans and
/// counts plus deltas of the public counters.
void add_layer_metrics(Report& r, const TraceTotals& t, const Counters& before,
                       const Counters& after, const Deployment& d) {
  const auto delta = [&](std::uint64_t Counters::*field) {
    return static_cast<double>(after.*field - before.*field);
  };
  double spans = 0;
  for (std::size_t l = 0; l < kLayers; ++l) {
    r.add(metric_name(static_cast<Layer>(l)), t.self_s[l], "s");
    spans += t.self_s[l];
  }
  r.add("sim.events", static_cast<double>(t.events), "count");
  r.add("sim.backlog_max", static_cast<double>(t.backlog_max), "count");
  r.add("broker.publish_msgs", static_cast<double>(t.publish_msgs), "count");
  r.add("broker.control_msgs", static_cast<double>(t.control_msgs), "count");
  r.add("broker.client_deliveries", static_cast<double>(t.client_deliveries), "count");
  r.add("broker.link_events_per_msg",
        ratio(delta(&Counters::link_events), delta(&Counters::link_msgs)), "events/msg");
  r.add("broker.flush_size", delta(&Counters::size_flushes), "count");
  r.add("broker.flush_deadline", delta(&Counters::deadline_flushes), "count");
  r.add("broker.flush_barrier", delta(&Counters::barrier_flushes), "count");
  r.add("evolving.lazy_evaluations", delta(&Counters::lazy_evaluations), "count");
  const double hits = delta(&Counters::cache_hits);
  r.add("evolving.cache_hit_ratio", ratio(hits, hits + delta(&Counters::cache_misses)),
        "ratio");
  r.add("evolving.evolutions", delta(&Counters::evolutions), "count");
  std::uint64_t deduped = 0;
  std::uint64_t population = 0;
  for (const evps::Broker* b : d.brokers()) {
    deduped += b->engine().deduped_installs();
    population += b->engine().matcher_population();
  }
  r.add("evolving.dedup_suppressed", static_cast<double>(deduped), "count");
  r.add("matching.match_calls", delta(&Counters::match_calls), "count");
  r.add("matching.population", static_cast<double>(population), "count");
  const double pairs = delta(&Counters::cover_pairs);
  r.add("analysis.cover_checks", pairs, "count");
  r.add("analysis.cover_proof_ratio", ratio(delta(&Counters::cover_covered), pairs), "ratio");
  r.add("analysis.relational_proofs", delta(&Counters::cover_relational), "count");
  r.add("analysis.suppressed_forwards", delta(&Counters::suppressed_forwards), "count");
  r.add("analysis.resubscribes", delta(&Counters::resubscribes), "count");
  r.add("message.wire_bytes_per_delivery",
        ratio(static_cast<double>(t.wire_bytes), static_cast<double>(t.client_deliveries)),
        "bytes");
  r.add("trace.phase_s", t.phase_s, "s");
  r.add("trace.leftover_s", t.phase_s - spans, "s");
}

/// game_lees's expected deliveries, from a fresh copy of the inputs. A
/// reference replay would run the very same engine code here: LEES keeps
/// fully evolving subscriptions out of the matcher and no two areas of
/// interest are identical, so no reference knob changes anything. `ids` are
/// the ids replica A's publisher gave each publication.
DeliveryRecord game_lees_oracle(const Args& a, std::size_t ticks,
                                const std::vector<std::uint64_t>& ids) {
  const Deployment fresh(a.workload, a.seed, ticks, true);
  DeliveryRecord expected(fresh);
  game_lees_expected(fresh.inputs(),
                     [&](std::uint32_t pub, std::uint32_t client, evps::SimTime when) {
                       expected.add(ids.at(pub), client, when);
                     });
  return expected;
}

/// Untimed replay of the same inputs on the reference configuration.
DeliveryRecord reference_record(const Args& a, std::size_t ticks, std::uint64_t& rejected) {
  Deployment ref(a.workload, a.seed, ticks, true);
  DeliveryRecord record(ref);
  Driver driver(ref, record);
  driver.pre_install();
  driver.install();
  driver.run_ticks(0, driver.total_ticks(), nullptr);
  rejected = snapshot(ref).rejected;
  return record;
}

/// One installed copy of the deployment. Members are destroyed in reverse
/// order, so the driver and tracer go before the overlay they refer to.
struct Replica {
  std::unique_ptr<Deployment> d;
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<DeliveryRecord> record;
  std::unique_ptr<Driver> driver;
};

/// Warm-up ticks, then the measured ticks (traced when the replica has a
/// tracer); returns the measured ticks' wall seconds. `before`, when given,
/// receives the counters at the start of the measured ticks.
std::vector<double> run_measured(Replica& r, Counters* before) {
  Driver& driver = *r.driver;
  double start = wall_seconds();
  driver.run_ticks(0, driver.warm_ticks(), nullptr);
  std::cerr << "overlay_perf: warm-up " << driver.warm_ticks() << " ticks in "
            << wall_seconds() - start << " s\n";
  if (before != nullptr) *before = snapshot(*r.d);
  start = wall_seconds();
  driver.run_ticks(driver.warm_ticks(), driver.total_ticks(), r.tracer.get());
  std::cerr << "overlay_perf: measured " << driver.total_ticks() - driver.warm_ticks()
            << " ticks in " << wall_seconds() - start << " s\n";
  return {driver.tick_seconds().begin() + static_cast<std::ptrdiff_t>(driver.warm_ticks()),
          driver.tick_seconds().end()};
}

/// Byte buffer for what a forked child hands back to the driver.
class Wire {
 public:
  Wire() = default;
  explicit Wire(std::string bytes) : buf_(std::move(bytes)) {}

  template <class T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    buf_.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  template <class T>
  void put(const std::vector<T>& v) {
    put(v.size());
    buf_.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
  }
  void put(const std::string& v) {
    put(v.size());
    buf_.append(v);
  }
  template <class T>
  void get(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    take(&v, sizeof v);
  }
  template <class T>
  void get(std::vector<T>& v) {
    std::size_t n = 0;
    get(n);
    v.resize(n);
    take(v.data(), n * sizeof(T));
  }
  void get(std::string& v) {
    std::size_t n = 0;
    get(n);
    v.resize(n);
    take(v.data(), n);
  }
  [[nodiscard]] const std::string& bytes() const noexcept { return buf_; }

 private:
  void take(void* out, std::size_t n) {
    if (buf_.size() - pos_ < n) throw std::runtime_error("short result from a child");
    std::memcpy(out, buf_.data() + pos_, n);
    pos_ += n;
  }

  std::string buf_;
  std::size_t pos_ = 0;
};

/// Run `body` in a forked child and return what it wrote. The driver itself
/// never builds an overlay: every round and the output check run in their
/// own child, so every round starts from the same memory state. (Run one
/// after another in one process, later copies installed up to 2x slower
/// than the first, on an allocator that earlier copies had left
/// fragmented.) The child is waited for on every path, and is killed if
/// the driver dies first.
Wire in_child(const std::function<void(Wire&)>& body) {
  int fds[2];
  if (pipe(fds) != 0) throw std::system_error(errno, std::generic_category(), "pipe");
  std::cout.flush();
  std::cerr.flush();
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) throw std::system_error(errno, std::generic_category(), "fork");
  if (pid == 0) {
    // The child goes down with the driver, however the driver ends.
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent) _exit(1);
    close(fds[0]);
    int code = 0;
    try {
      Wire out;
      body(out);
      const std::string& bytes = out.bytes();
      for (std::size_t done = 0; done < bytes.size();) {
        const ssize_t n = write(fds[1], bytes.data() + done, bytes.size() - done);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) throw std::system_error(errno, std::generic_category(), "write");
        done += static_cast<std::size_t>(n);
      }
    } catch (const std::exception& e) {
      std::cerr << "overlay_perf: " << e.what() << "\n";
      code = 1;
    }
    std::cerr.flush();
    _exit(code);
  }
  close(fds[1]);
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    bytes.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("a child of the driver failed");
  }
  return Wire(std::move(bytes));
}

/// What round 1 reports besides its samples: replica A's counts, peak RSS
/// and the figures of its measured phase.
struct FirstFacts {
  std::uint64_t missing = 0;
  std::uint64_t attempted = 0;
  std::uint64_t initial_subscribes = 0;
  std::uint64_t published = 0;
  std::uint64_t rejected = 0;
  std::uint64_t delivered = 0;
  double msgs_per_delivery = 0;
  double sub_msgs = 0;
  double rss = 0;
  double phase_s = 0;
};

/// One round, run in a child: set-up and install copies, then the replica's
/// warm-up and measured ticks. Writes the set-up, install and tick times
/// and the replica's delivery record. Round 1 builds replica A alone, so
/// peak RSS is A's, traced under --trace 1, and also writes FirstFacts, the
/// publications of each measured tick, the publication ids and the
/// per-layer metrics.
void run_round(const Args& a, bool first, Wire& out) {
  std::vector<double> setup_times;
  std::vector<double> install_times;
  const auto timed_setup = [&] {
    const double start = wall_seconds();
    auto copy = std::make_unique<Deployment>(a.workload, a.seed, kMeasuredTicks, false);
    setup_times.push_back(wall_seconds() - start);
    return copy;
  };
  const auto installed_copy = [&](bool traced) {
    Replica r;
    r.d = timed_setup();
    if (traced) r.tracer = std::make_unique<Tracer>(*r.d);
    r.record = std::make_unique<DeliveryRecord>(*r.d);
    r.driver = std::make_unique<Driver>(*r.d, *r.record);
    r.driver->pre_install();
    install_times.push_back(r.driver->install());
    return r;
  };
  if (!first) {
    for (int i = 1; i < installs_per_round(a.workload); ++i) installed_copy(false);
    while (setup_times.size() + 1 < kSetupsPerRound) timed_setup();
  }
  Replica r = installed_copy(first && a.trace);
  FirstFacts facts;
  if (first) facts.missing = missing_installs(*r.d);
  Counters before;
  const std::vector<double> tick_s = run_measured(r, &before);
  out.put(setup_times);
  out.put(install_times);
  out.put(tick_s);
  out.put(r.record->entries());
  if (!first) return;

  const Counters after = snapshot(*r.d);
  facts.rss = peak_rss_mib();
  const Inputs& in = r.d->inputs();
  facts.attempted = in.publish_ops + in.subscribe_ops + in.unsubscribe_ops;
  facts.initial_subscribes = in.initial_subscribes;
  facts.published = in.publish_ops;
  facts.rejected = after.rejected;
  facts.delivered = r.record->deliveries();
  facts.msgs_per_delivery = ratio(static_cast<double>(after.sent - before.sent),
                                  static_cast<double>(after.deliveries - before.deliveries));
  facts.sub_msgs = static_cast<double>(after.sub_msgs);
  facts.phase_s = std::accumulate(tick_s.begin(), tick_s.end(), 0.0);
  std::vector<std::uint64_t> pub_ids;
  for (const evps::MessageId id : r.d->published_ids()) pub_ids.push_back(id.value());
  Report layers;
  if (r.tracer) {
    add_layer_metrics(layers, r.tracer->totals(), before, after, *r.d);
    if (!a.trace_out.empty()) r.tracer->write(a.trace_out);
  }
  out.put(facts);
  out.put(measured_tick_pubs(in));
  out.put(pub_ids);
  out.put(layers.str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  for (const char* var : {"EVPS_MATCHER_THREADS", "EVPS_LINK_BATCH"}) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded, before any work.
    if (std::getenv(var) != nullptr) {
      std::cerr << "overlay_perf: refusing to run with " << var
                << " set; every knob is pinned by the workload\n";
      return 2;
    }
  }
  try {
    const double run_start = wall_seconds();
    std::vector<double> setup_times;
    std::vector<double> install_times;
    std::vector<std::vector<double>> replicas;
    // Collects one round's samples; returns its delivery record.
    const auto read_round = [&](Wire& w) {
      std::vector<double> v;
      w.get(v);
      setup_times.insert(setup_times.end(), v.begin(), v.end());
      w.get(v);
      install_times.insert(install_times.end(), v.begin(), v.end());
      replicas.emplace_back();
      w.get(replicas.back());
      std::vector<RecordEntry> record;
      w.get(record);
      return record;
    };

    Wire first = in_child([&](Wire& out) { run_round(a, true, out); });
    const std::vector<RecordEntry> record_a = read_round(first);
    FirstFacts facts;
    std::vector<double> tick_pubs;
    std::vector<std::uint64_t> pub_ids;
    std::string layers;
    first.get(facts);
    first.get(tick_pubs);
    first.get(pub_ids);
    first.get(layers);

    // A publication fails when any replica delivered it differently from
    // the expected record.
    std::unordered_set<std::uint64_t> failed_ids;
    std::vector<RecordEntry> expected;
    std::uint64_t ref_rejected = 0;
    if (a.reference) {
      const double start = wall_seconds();
      Wire check = in_child([&](Wire& out) {
        std::uint64_t rejected = 0;
        const DeliveryRecord record = a.workload == Workload::kGameLees
                                          ? game_lees_oracle(a, kMeasuredTicks, pub_ids)
                                          : reference_record(a, kMeasuredTicks, rejected);
        out.put(rejected);
        out.put(record.entries());
      });
      check.get(ref_rejected);
      check.get(expected);
      std::cerr << "overlay_perf: expected deliveries in " << wall_seconds() - start << " s\n";
      mismatches(record_a, expected, failed_ids);
    }

    const int rounds = a.rounds > 0 ? a.rounds : rounds_for(a.workload, a.seconds);
    const auto more_rounds = [&] {
      if (static_cast<int>(replicas.size()) >= rounds) return false;
      // On a host far slower than the nominal one the run ends early
      // rather than late.
      return a.rounds > 0 || wall_seconds() - run_start < kSlowHostFactor * a.seconds;
    };
    while (more_rounds()) {
      Wire round = in_child([&](Wire& out) { run_round(a, false, out); });
      const std::vector<RecordEntry> record = read_round(round);
      if (a.reference) mismatches(record, expected, failed_ids);
    }
    if (setup_times.size() < kSetupSamples) {
      const std::size_t more = kSetupSamples - setup_times.size();
      Wire setups = in_child([&](Wire& out) {
        std::vector<double> times;
        for (std::size_t i = 0; i < more; ++i) {
          const double start = wall_seconds();
          const Deployment copy(a.workload, a.seed, kMeasuredTicks, false);
          times.push_back(wall_seconds() - start);
        }
        out.put(times);
      });
      std::vector<double> times;
      setups.get(times);
      setup_times.insert(setup_times.end(), times.begin(), times.end());
    }
    std::cerr << "overlay_perf: " << to_string(a.workload) << " set-up " << median(setup_times)
              << " s, install " << *std::min_element(install_times.begin(), install_times.end())
              << " s (" << setup_times.size() << " set-ups, " << install_times.size()
              << " installs, " << replicas.size() << " rounds in "
              << wall_seconds() - run_start << " s)\n";

    const std::uint64_t failed_pubs = failed_ids.size();
    const std::uint64_t failed = failed_pubs + facts.rejected + facts.missing;
    const bool correct =
        failed == 0 && ref_rejected == 0 && facts.delivered > 0 && facts.published > 0;

    const TickStats tick = tick_stats(tick_pubs, replicas);
    Report r;
    r.add("setup_s", median(setup_times), "s");
    // The fastest install, for the same reason as tick_stats.
    const double install_s = *std::min_element(install_times.begin(), install_times.end());
    r.add("install_rate", ratio(static_cast<double>(facts.initial_subscribes), install_s),
          "subs/s");
    r.add("pub_rate", tick.pub_rate, "pubs/s");
    r.add("tick_p50_us", tick.p50_s * 1e6, "us");
    r.add("tick_p99_us", tick.p99_s * 1e6, "us");
    r.add("msgs_per_delivery", facts.msgs_per_delivery, "msgs");
    r.add("sub_msgs", facts.sub_msgs, "msgs");
    r.add("peak_rss_mb", facts.rss, "MiB");
    r.append(layers);

    std::cout << "{\"workload\": \"" << to_string(a.workload) << "\", \"seed\": " << a.seed
              << ", \"seconds\": " << num(a.seconds)
              << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"reference\": "
              << (a.reference ? "true" : "false") << ", \"measured_ticks\": " << tick_pubs.size()
              << ", \"rounds\": " << replicas.size() << ", \"phase_s\": " << num(facts.phase_s)
              << ", \"deliveries\": " << facts.delivered
              << ", \"failed_publications\": " << failed_pubs
              << ", \"failed_subscriptions\": " << (facts.rejected + facts.missing)
              << ", \"context\": {\"nproc\": " << std::thread::hardware_concurrency()
              << ", \"build_type\": \"" << EVPS_BENCH_BUILD_TYPE << "\", \"compiler\": \""
              << EVPS_BENCH_COMPILER << "\"}, \"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << facts.attempted << ", \"failed\": " << failed
              << ", \"metrics\": {" << r.str() << "}}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "overlay_perf: " << e.what() << "\n";
    return 1;
  }
}
