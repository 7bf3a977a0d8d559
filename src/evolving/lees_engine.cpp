#include "evolving/lees_engine.hpp"

#include <algorithm>
#include <cstring>

#include "common/thread_pool.hpp"

namespace evps {
namespace {

/// Dedup key for a FULLY-evolving subscription towards `dest`: destination +
/// epoch + order-independent, bit-exact serialization of each compiled
/// predicate (opcode stream with operand bit patterns). Equal keys imply
/// bit-identical evaluation on every publication: same programs, same
/// operators, same `t` origin, same destination.
std::string lazy_dedup_key(NodeId dest, const Subscription& sub) {
  std::vector<std::string> parts;
  parts.reserve(sub.predicates().size());
  for (const auto& p : sub.predicates()) {
    std::string s = std::to_string(p.attr_id());
    s += '~';
    s += std::to_string(static_cast<int>(p.op()));
    const ExprProgram prog = ExprProgram::compile(*p.fun());
    for (const auto& insn : prog.code()) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &insn.k, sizeof(bits));
      s += '~';
      s += std::to_string(static_cast<int>(insn.op));
      s += ',';
      s += std::to_string(insn.argc);
      s += ',';
      s += std::to_string(insn.var);
      s += ',';
      s += std::to_string(bits);
    }
    parts.push_back(std::move(s));
  }
  std::sort(parts.begin(), parts.end());
  std::string key = std::to_string(dest.value());
  key += '@';
  key += std::to_string(sub.epoch().micros());
  for (const auto& part : parts) {
    key += '|';
    key += part;
  }
  return key;
}

/// Spreads first windows over the window length (splitmix64 finaliser).
std::uint64_t stagger_of(SubscriptionId id) noexcept {
  std::uint64_t z = id.value() + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

LeesEngine::LeesEngine(const EngineConfig& config) : BrokerEngine(config) {
  shards_.resize(shard_count());
  shard_scratch_.resize(shard_count());
}

void LeesEngine::add_part(Leme::Part part, const Installed& entry) {
  Shard& shard = shard_for(entry.sub->id());
  const Duration window = effective_mei(*entry.sub);
  if (!config_.lees_envelope_index || !EnvelopeIndex::indexable(part.preds, window)) {
    shard.scan.add(std::move(part), entry.dest);
    return;
  }
  Leme::Group& group = shard.indexed.add(std::move(part), entry.dest);
  const Leme::Part& stored = group.parts.back();
  if (stored.slot >= shard.targets.size()) shard.targets.resize(stored.slot + 1);
  shard.targets[stored.slot] = Target{&group, entry.dest, stored.has_static_part};
  shard.index.add(stored.slot, stored.preds, entry.sub->epoch(), window, stagger_of(stored.id));
}

void LeesEngine::do_add(const Installed& entry, EngineHost& /*host*/) {
  const auto& sub = *entry.sub;
  if (!sub.is_evolving()) {
    matcher_add_static(entry);
    return;
  }
  const auto static_part = sub.static_predicates();
  if (static_part.empty() && config_.dedup_identical) {
    // Fully-evolving: share one LEME part per identical group. The key is
    // built (and programs compiled) before any state changes, so compile
    // failures leave the engine untouched; the canonical install is undone
    // from the table if verification rejects it below.
    if (!lazy_dedup_.add(sub.id(), lazy_dedup_key(entry.dest, sub))) return;
    try {
      add_part(Leme::make_part(entry.sub, false), entry);
    } catch (...) {
      lazy_dedup_.remove(sub.id());
      throw;
    }
    return;
  }
  auto part = Leme::make_part(entry.sub, !static_part.empty());
  if (part.has_static_part) matcher_->add(sub.id(), static_part);
  add_part(std::move(part), entry);
}

void LeesEngine::do_remove(const Installed& entry, EngineHost& /*host*/) {
  const auto& sub = *entry.sub;
  if (!sub.is_evolving()) {
    matcher_remove_static(sub.id());
    return;
  }
  if (!sub.is_fully_evolving()) matcher_->remove(sub.id());
  const DedupTable::RemoveAction action = lazy_dedup_.remove(sub.id());
  if (action.tracked && !action.uninstall) return;  // a sharing member left; canonical stays
  Shard& shard = shard_for(sub.id());
  if (!shard.scan.remove(sub.id(), entry.dest)) {
    if (const auto slot = shard.indexed.remove(sub.id(), entry.dest)) shard.index.remove(*slot);
  }
  if (action.reinstall.valid()) {
    // The surviving member lives in its own id's shard.
    const Installed* next = installed_entry(action.reinstall);
    if (next != nullptr) add_part(Leme::make_part(next->sub, false), *next);
  }
}

bool LeesEngine::evolving_part_matches(std::span<const CompiledPredicate> preds,
                                       const Publication& pub, const EvalScope& scope,
                                       std::vector<double>& stack) {
  for (const auto& cp : preds) {
    const Value* v = pub.get(cp.attr());
    if (v == nullptr || !cp.matches(*v, scope, stack)) return false;
  }
  return true;
}

void LeesEngine::begin_match() {
  for (Shard& shard : shards_) {
    shard.scan.begin_match();
    shard.indexed.begin_match();
  }
}

void LeesEngine::process_m1(const std::vector<SubscriptionId>& m1,
                            std::vector<NodeId>& destinations) {
  for (const auto id : m1) {
    Shard& shard = shard_for(id);
    // Static half of a split subscription.
    if (shard.scan.note_m1(id) || shard.indexed.note_m1(id)) continue;
    const Installed* entry = installed_entry(id);
    if (entry == nullptr) continue;
    // Purely-static match: forward, and settle the destination's LEME group
    // in every shard (exact done-skip regardless of K).
    destinations.push_back(entry->dest);
    for (Shard& s : shards_) {
      s.scan.mark_done(entry->dest);
      s.indexed.mark_done(entry->dest);
    }
  }
}

void LeesEngine::scan_loop(Leme& leme, Leme* sibling, const Publication& pub, ShardScratch& sc) {
  for (auto& [dest, group] : leme.groups()) {
    if (leme.done(group)) continue;
    for (const auto& part : group.parts) {
      if (part.has_static_part && !leme.m1_hit(part)) continue;
      ++sc.lazy_evaluations;
      sc.scope.set_epoch(part.sub->epoch());
      if (evolving_part_matches(part.preds, pub, sc.scope, sc.stack)) {
        sc.dests.push_back(dest);
        if (sibling != nullptr) sibling->mark_done(dest);
        break;  // early exit: this (shard, destination) is settled
      }
    }
  }
}

void LeesEngine::scan_candidates(Shard& shard, const Publication& pub, SimTime now,
                                 ShardScratch& sc) {
  const std::uint64_t anchorings = shard.index.anchorings();
  shard.index.advance(now);
  sc.anchorings += shard.index.anchorings() - anchorings;
  sc.candidates.clear();
  shard.index.stab(pub, sc.candidates);
  for (const std::uint32_t slot : sc.candidates) {
    const Target& target = shard.targets[slot];
    if (shard.indexed.done(*target.group)) continue;
    if (target.has_static_part && !shard.indexed.m1_hit(slot)) continue;
    ++sc.lazy_evaluations;
    sc.scope.set_epoch(shard.index.epoch(slot));
    if (evolving_part_matches(shard.index.predicates(slot), pub, sc.scope, sc.stack)) {
      sc.dests.push_back(target.dest);
      // Early exit: the destination's other parts, indexed or not, are moot.
      shard.indexed.settle(*target.group);
      shard.scan.mark_done(target.dest);
    }
  }
}

void LeesEngine::note_publication(SimTime now) {
  if (last_publication_) {
    // Clamped: a backwards clock counts as dense, an idle day as one day.
    constexpr double kMaxGapUs = 86'400e6;
    const double gap = std::clamp(static_cast<double>((now - *last_publication_).count_micros()),
                                  0.0, kMaxGapUs);
    gap_us_ += (gap - gap_us_) / 8.0;
  }
  last_publication_ = now;
}

bool LeesEngine::index_pays(Shard& shard) const {
  const double min_pubs = config_.lees_envelope_min_pubs;
  if (!(min_pubs > 0.0)) return true;
  const double pubs = shard.index.publications_per_window(gap_us_);
  if (shard.sparse ? pubs >= 2.0 * min_pubs : pubs < min_pubs) {
    shard.sparse = !shard.sparse;
    if (shard.sparse) shard.index.suspend();
  }
  return !shard.sparse;
}

void LeesEngine::lazy_eval_phase(const Publication& pub, const VariableSnapshot* snapshot,
                                 const VariableRegistry& registry, SimTime now,
                                 std::vector<NodeId>& destinations) {
  auto task = [&](std::size_t s) {
    ShardScratch& sc = shard_scratch_[s];
    sc.dests.clear();
    Shard& shard = shards_[s];
    if (shard.scan.size() == 0 && shard.indexed.size() == 0) return;
    rebind_publication_scope(sc.scope, pub, snapshot, registry, now);
    if (shard.indexed.size() != 0) {
      if (snapshot == nullptr && index_pays(shard)) {
        scan_candidates(shard, pub, now, sc);
      } else {
        // Sparse publications, or snapshot values and an entry-time clock
        // the windows were not anchored on: every part runs its programs.
        scan_loop(shard.indexed, &shard.scan, pub, sc);
      }
    }
    scan_loop(shard.scan, nullptr, pub, sc);
  };
  if (shards_.size() == 1) {
    task(0);
  } else {
    ThreadPool::shared().run_indexed(shards_.size(), task);
  }
  for (ShardScratch& sc : shard_scratch_) {
    destinations.insert(destinations.end(), sc.dests.begin(), sc.dests.end());
    costs_.lazy_evaluations += sc.lazy_evaluations;
    costs_.anchorings += sc.anchorings;
    sc.lazy_evaluations = sc.anchorings = 0;
  }
}

void LeesEngine::do_match(const Publication& pub, const VariableSnapshot* snapshot,
                          EngineHost& host, std::vector<NodeId>& destinations) {
  // M1: standard matcher over static parts and purely-static subscriptions
  // (parallel across shards inside the ShardedMatcher).
  m1_.clear();
  {
    const ScopedTimer timer(costs_.match);
    matcher_->match(pub, m1_);
  }
  begin_match();
  process_m1(m1_, destinations);

  // M2: on-demand evaluation of evolving parts, one worker per shard, with
  // early exit once a destination is known to need the publication.
  const ScopedTimer timer(costs_.lazy_eval);
  note_publication(host.now());
  lazy_eval_phase(pub, snapshot, host.variables(), host.now(), destinations);
}

void LeesEngine::do_match_batch(std::span<const Publication* const> pubs,
                                const VariableSnapshot* snapshot, EngineHost& host,
                                std::vector<std::vector<NodeId>>& destinations) {
  // One pool dispatch covers the matcher phase of the whole batch; the lazy
  // phases then run per publication (each its own fan-out), preserving exact
  // equivalence with a do_match loop — including CLEES-style engines' cache
  // trajectories, since per-publication ordering is unchanged.
  {
    const ScopedTimer timer(costs_.match);
    matcher_->match_batch(pubs, m1_batch_);
  }
  const VariableRegistry& registry = host.variables();
  const SimTime now = host.now();
  for (std::size_t i = 0; i < pubs.size(); ++i) {
    begin_match();
    process_m1(m1_batch_[i], destinations[i]);
    const ScopedTimer timer(costs_.lazy_eval);
    note_publication(now);
    lazy_eval_phase(*pubs[i], snapshot, registry, now, destinations[i]);
  }
}

void LeesEngine::export_audit_state(audit::EngineState& out) const {
  BrokerEngine::export_audit_state(out);
  for (const Shard& shard : shards_) {
    for (const Leme* leme : {&shard.scan, &shard.indexed}) {
      for (const auto& [dest, group] : leme->groups()) {
        for (const Leme::Part& part : group.parts) {
          out.lazy_entries.push_back(audit::LazyEntry{part.id, dest});
        }
      }
    }
  }
  lazy_dedup_.for_each_group([&out](const std::string& key,
                                    const std::vector<SubscriptionId>& members) {
    out.dedup_groups.push_back(audit::DedupGroup{key, members, /*lazy=*/true});
  });
}

}  // namespace evps
