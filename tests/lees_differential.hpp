// Differential harness for the LEES envelope index (DESIGN.md §18), shared by
// tests/test_lees_envelope.cpp and fuzz/fuzz_lees_envelope.cpp.
//
// One subscription population is installed in four matchers:
//   * LEES with the envelope index at any publication rate (K shards),
//   * LEES with the default configuration (K shards): the index, or the scan
//     loop while publications are too sparse for it to pay,
//   * LEES on the paper's scan loop (lees_envelope_index = false, K = 1),
//   * the engine-free oracle: Subscription::matches under an EvalScope at
//     the publication instant (entry time plus bound values in snapshot
//     mode), mapped to each subscription's destination.
// Every publication must yield the same destination set from all four, and
// LEES must never schedule a timer.
//
// run_lees_scenario decodes a byte string into a whole scenario — the
// population (affine and nonlinear `t` programs, monotone chains that fall,
// divide by a negative constant, round, negate or overflow to ±inf, every
// operator, static and split subscriptions, variable-reading parts,
// identical installs), then a
// stream of publications (doubles, ints, strings, NaN, ±inf, missing
// attributes, boundary values a bound evaluates to and their 1-ulp
// neighbours, snapshots), clock steps that span several windows or go
// backwards, removals, installs and variable updates. Past-the-end reads
// yield zero, so every input decodes to a valid scenario.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "evolving/lees_engine.hpp"
#include "message/codec.hpp"

namespace evps::testutil {

/// EngineHost whose clock can be set anywhere, backwards included.
class ClockHost final : public EngineHost {
 public:
  [[nodiscard]] SimTime now() const override { return now_; }
  void schedule(Duration /*delay*/, std::function<void()> /*fn*/) override { ++scheduled_; }
  [[nodiscard]] VariableRegistry& variables() override { return registry_; }

  void set_now(SimTime t) noexcept { now_ = t; }
  [[nodiscard]] std::size_t scheduled() const noexcept { return scheduled_; }

 private:
  SimTime now_{};
  std::size_t scheduled_ = 0;
  VariableRegistry registry_;
};

class LeesDifferential {
 public:
  explicit LeesDifferential(std::size_t shards, bool dedup = true)
      : indexed_(EngineConfig{.kind = EngineKind::kLees,
                              .dedup_identical = dedup,
                              .lees_envelope_min_pubs = 0.0,
                              .matcher_threads = shards}),
        default_(EngineConfig{.kind = EngineKind::kLees,
                              .dedup_identical = dedup,
                              .matcher_threads = shards}),
        scan_(EngineConfig{.kind = EngineKind::kLees,
                           .dedup_identical = dedup,
                           .lees_envelope_index = false,
                           .matcher_threads = 1}) {}

  void add(const SubscriptionPtr& sub, NodeId dest) {
    indexed_.add(sub, dest, host_);
    default_.add(sub, dest, host_);
    scan_.add(sub, dest, host_);
    live_.emplace(sub->id(), std::make_pair(sub, dest));
  }

  void remove(SubscriptionId id) {
    indexed_.remove(id, host_);
    default_.remove(id, host_);
    scan_.remove(id, host_);
    live_.erase(id);
  }

  /// Match `pub` at the host clock on all four; "" when they agree.
  [[nodiscard]] std::string check(const Publication& pub,
                                  const VariableSnapshot* snapshot = nullptr) {
    std::vector<NodeId> indexed;
    std::vector<NodeId> by_default;
    std::vector<NodeId> scan;
    indexed_.match(pub, snapshot, host_, indexed);
    default_.match(pub, snapshot, host_, by_default);
    scan_.match(pub, snapshot, host_, scan);
    const std::vector<NodeId> expected = oracle(pub, snapshot);
    if (indexed == expected && by_default == expected && scan == expected &&
        host_.scheduled() == 0) {
      return {};
    }
    std::ostringstream os;
    os << "at " << host_.now() << (snapshot != nullptr ? " (snapshot)" : "") << " pub {"
       << pub.to_string() << "}: indexed " << indexed.size() << " default "
       << by_default.size() << " (sparse shards " << default_.sparse_shards() << ") scan "
       << scan.size() << " oracle " << expected.size() << " timers " << host_.scheduled()
       << "\n";
    for (const auto& [id, entry] : live_) {
      os << "  " << id.value() << " -> " << entry.second.value() << " epoch "
         << entry.first->epoch() << " mei " << entry.first->mei() << ": "
         << entry.first->to_string() << "\n";
    }
    return os.str();
  }

  [[nodiscard]] ClockHost& host() noexcept { return host_; }
  [[nodiscard]] const LeesEngine& indexed() const noexcept { return indexed_; }
  [[nodiscard]] const LeesEngine& by_default() const noexcept { return default_; }
  [[nodiscard]] const std::map<SubscriptionId, std::pair<SubscriptionPtr, NodeId>>& live()
      const noexcept {
    return live_;
  }

 private:
  std::vector<NodeId> oracle(const Publication& pub, const VariableSnapshot* snapshot) {
    const SimTime at = snapshot != nullptr ? pub.entry_time() : host_.now();
    std::vector<NodeId> out;
    for (const auto& [id, entry] : live_) {
      EvalScope scope(&host_.variables(), at, entry.first->epoch());
      if (snapshot != nullptr) {
        for (const auto& [var, value] : *snapshot) scope.bind(var, value);
      }
      if (entry.first->matches(pub, scope)) out.push_back(entry.second);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  ClockHost host_;
  LeesEngine indexed_;
  LeesEngine default_;
  LeesEngine scan_;
  std::map<SubscriptionId, std::pair<SubscriptionPtr, NodeId>> live_;
};

/// Deterministic byte decoder: past-the-end reads yield zero.
class ScenarioBytes {
 public:
  ScenarioBytes(const std::uint8_t* data, std::size_t size) noexcept : p_(data), n_(size) {}
  std::uint8_t u8() noexcept { return i_ < n_ ? p_[i_++] : 0; }
  [[nodiscard]] bool done() const noexcept { return i_ >= n_; }
  /// Value in [lo, hi]; whole numbers half of the time.
  double in(double lo, double hi) noexcept {
    const double v = lo + (hi - lo) * (u8() / 255.0);
    return (u8() & 1) != 0 ? std::floor(v) : v;
  }

 private:
  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t i_ = 0;
};

namespace lees_scenario {

inline std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// One evolving (or static) predicate from the template list.
inline std::string predicate(ScenarioBytes& in) {
  static const char* const kOps[] = {"<", "<=", ">", ">=", "=", "!="};
  const char* attr = (in.u8() & 1) != 0 ? "x" : "y";
  const char* op = kOps[in.u8() % 6];
  const double cv = in.in(-10.0, 10.0);
  const std::string c = num(cv);
  const std::string r = num(in.in(-3.0, 3.0));
  std::string fn;
  switch (in.u8() % 19) {
    case 0:
    case 1: fn = c + " + " + r + " * t"; break;                       // affine
    case 2: fn = c + " * sin(t)"; break;
    case 3: fn = "floor(t * " + r + ") + " + c; break;
    case 4: fn = "min(t, " + c + ")"; break;
    case 5: fn = "max(" + c + " - t, " + r + ")"; break;
    case 6: fn = c + " / (t - " + r + ")"; break;                     // pole: ±inf, 0/0
    case 7: fn = "sqrt(" + c + " - t)"; break;                        // NaN past c
    case 8: fn = "1 / (t - t)"; break;                                // +inf always
    case 9: fn = "(t - t) / (t - t)"; break;                          // NaN always
    case 10: fn = "clamp(t * " + r + ", " + c + ", 4) + step(t - " + r + ")"; break;
    case 11: fn = c + " + t * t * " + r; break;                       // quadratic
    case 12: fn = "v + " + r + " * t"; break;                         // reads v: scan
    case 13: fn = c + " - " + r + " * t"; break;                      // falling chain
    case 14: fn = "(t * " + r + ") / " + num(-1.0 - std::fabs(cv)); break;  // c < 0
    case 15: fn = "ceil(" + c + " - t * " + r + ")"; break;
    case 16: fn = "-(" + c + " + " + r + " * t)"; break;              // negated chain
    case 17: fn = c + " + t * 1e308 * " + r; break;                   // overflows to ±inf
    default:                                                          // static
      return (in.u8() & 1) != 0 ? std::string(attr) + " " + op + " " + c
                                : std::string("s ") + ((in.u8() & 1) != 0 ? "=" : "!=") + " 'a'";
  }
  return std::string(attr) + " " + op + " " + fn;
}

inline std::string subscription(ScenarioBytes& in) {
  static const char* const kMei[] = {"", "[mei=0.05] ", "[mei=0.5] ", "[mei=2] "};
  std::string text = kMei[in.u8() % 4];
  const int preds = 1 + in.u8() % 3;
  for (int i = 0; i < preds; ++i) {
    if (i > 0) text += "; ";
    text += predicate(in);
  }
  return text;
}

/// A publication value for `attr`, often on or next to a live bound.
inline void set_value(ScenarioBytes& in, LeesDifferential& diff, Publication& pub,
                      const char* attr) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  switch (in.u8() % 10) {
    case 0: return;  // missing
    case 1: pub.set(attr, Value{static_cast<std::int64_t>(in.in(-12.0, 12.0))}); return;
    case 2: pub.set(attr, Value{std::string("a")}); return;
    case 3: {
      static const double kOdd[] = {std::nan(""), kInf, -kInf, 0.0, -0.0};
      pub.set(attr, Value{kOdd[in.u8() % 5]});
      return;
    }
    case 4:  // an integer a double cannot hold exactly
      pub.set(attr, Value{std::int64_t{9'007'199'254'740'993} * ((in.u8() & 1) != 0 ? 1 : -1)});
      return;
    case 5:
    case 6: {  // a live bound's value now, or a neighbour of it
      const auto& live = diff.live();
      if (live.empty()) break;
      auto it = live.begin();
      std::advance(it, in.u8() % live.size());
      const Subscription& sub = *it->second.first;
      const Predicate& p = sub.predicates()[in.u8() % sub.predicates().size()];
      if (!p.is_evolving()) break;
      EvalScope scope(&diff.host().variables(), diff.host().now(), sub.epoch());
      double v = 0.0;
      try {
        v = p.fun()->eval(scope);
      } catch (const UnboundVariableError&) {
        break;
      }
      switch (in.u8() % 3) {
        case 1: v = std::nextafter(v, -kInf); break;
        case 2: v = std::nextafter(v, kInf); break;
        default: break;
      }
      pub.set(attr, Value{v});
      return;
    }
    default: break;
  }
  pub.set(attr, Value{in.in(-12.0, 12.0)});
}

}  // namespace lees_scenario

/// Decode and run one scenario; returns the first disagreement, or "".
inline std::string run_lees_scenario(const std::uint8_t* data, std::size_t size) {
  using namespace lees_scenario;
  ScenarioBytes in(data, size);
  const std::uint8_t mode = in.u8();
  LeesDifferential diff((mode & 1) != 0 ? 4 : 1, (mode & 2) != 0);
  ClockHost& host = diff.host();
  SimTime last_var_change = SimTime::zero();
  host.variables().set("v", 1.0, SimTime::zero());
  std::uint64_t next_id = 1;
  std::string previous;  // last subscription text, for identical installs

  const auto install = [&](SimTime epoch) {
    std::string text = (in.u8() % 4 == 0 && !previous.empty()) ? previous : subscription(in);
    const NodeId dest{1 + in.u8() % 5ULL};
    SubscriptionPtr sub;
    try {
      Subscription parsed = parse_subscription(text);
      parsed.set_id(SubscriptionId{next_id});
      parsed.set_subscriber(ClientId{next_id});
      parsed.set_epoch(epoch);
      sub = std::make_shared<const Subscription>(std::move(parsed));
    } catch (const std::exception&) {
      return;  // a template folded into something the codec rejects
    }
    ++next_id;
    previous = std::move(text);
    diff.add(sub, dest);
  };

  const int initial = 1 + in.u8() % 24;
  for (int i = 0; i < initial; ++i) install(SimTime::from_millis(in.u8() % 4 * 700));

  while (!in.done()) {
    const SimTime now = host.now();
    switch (in.u8() % 12) {
      case 0:  // small step
        host.set_now(now + Duration::millis(1 + in.u8()));
        break;
      case 1:  // several windows at once
        host.set_now(now + Duration::millis(1000 * (1 + in.u8() % 8) + in.u8()));
        break;
      case 2:  // backwards
        host.set_now(SimTime::from_millis(std::max<std::int64_t>(0, now.millis() - in.u8() * 20)));
        break;
      case 3:
        if (!diff.live().empty()) {
          auto it = diff.live().begin();
          std::advance(it, in.u8() % diff.live().size());
          diff.remove(it->first);
        }
        break;
      case 4: install(now - Duration::millis(in.u8() % 3 * 300)); break;
      case 5:
        if (now >= last_var_change) {
          host.variables().set("v", in.in(-5.0, 5.0), now);
          last_var_change = now;
        }
        break;
      default: {
        Publication pub;
        set_value(in, diff, pub, "x");
        set_value(in, diff, pub, "y");
        if ((in.u8() & 1) != 0) pub.set("s", Value{std::string((in.u8() & 1) != 0 ? "a" : "b")});
        std::string bad;
        if (in.u8() % 6 == 0) {
          pub.set_entry_time(SimTime::from_millis(std::max<std::int64_t>(0, now.millis() - 5)));
          const VariableSnapshot snapshot =
              in.u8() % 4 == 0 ? make_variable_snapshot({{"v", 2.0}, {"t", 1.5}})
                               : make_variable_snapshot({{"v", in.in(-5.0, 5.0)}});
          bad = diff.check(pub, &snapshot);
        } else {
          bad = diff.check(pub);
        }
        if (!bad.empty()) return bad;
      }
    }
  }
  return {};
}

}  // namespace evps::testutil
