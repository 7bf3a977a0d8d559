// Lazy Evaluation Evolving Subscriptions (LEES) — Sections IV-B and V-B.
//
// A subscription is split in two parts sharing its id: the non-evolving
// predicates go into the standard matcher (producing match set M1), while
// the evolving predicates enter the Lazy Evolution Matching Engine (LEME),
// which is evaluated on demand for every incoming publication (producing
// M2). A publication is forwarded towards subscriptions in M1 ∩ M2;
// single-part subscriptions (only static or only evolving predicates) are
// flagged and decided by their one engine alone.
//
// The LEME groups evolving parts by *destination* (next hop): once any
// subscription of a destination is known to match, evaluation for that
// destination stops, because the publication must be forwarded there
// regardless of further matches — the early-exit behaviour behind
// Figure 10(b).
//
// Evolving predicates are compiled at install time (attribute ids + flat
// expression programs), so the per-publication loop touches no strings and
// allocates nothing (see lazy_storage.hpp for the scratch discipline).
//
// Sharding (DESIGN.md §11): the LEME is partitioned like the matcher — one
// LazyStorage per matcher shard, parts routed by the same id hash — and the
// lazy phase fans out one worker per shard. Each worker owns its shard's
// storage (generation stamps included) plus a private scope/stack/result
// scratch, so workers share nothing mutable. Purely-static settlement
// (mark_done) is broadcast to every shard before the fan-out, which keeps
// the done-destination skip exact for any K; the within-destination early
// exit is per (shard, destination) — for K=1 that is exactly the paper's
// behaviour, for K>1 it evaluates at most K-1 extra parts per destination
// (pure evaluations: delivery is unchanged, only the lazy_evaluations
// counter can differ between K values).
//
// Envelope index (DESIGN.md §18): parts whose programs read only `t` are
// held in a second per-shard store reached through an EnvelopeIndex. Per
// publication the index re-anchors expired windows, and only the parts
// whose window envelope admits the publication run their compiled programs,
// under the same m1, done-destination and early-exit rules. Every other part
// — and every part while a VariableSnapshot is in force — goes through the
// paper's scan loop; EngineConfig::lees_envelope_index = false sends every
// part there, which reproduces the paper's per-publication evaluation count.
// A shard whose windows see too few publications to repay re-anchoring
// (EngineConfig::lees_envelope_min_pubs) runs its indexed parts through the
// scan loop too, until publications are dense again.
#pragma once

#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "evolving/engine.hpp"
#include "evolving/envelope_index.hpp"
#include "evolving/lazy_storage.hpp"

namespace evps {

class LeesEngine final : public BrokerEngine {
 public:
  explicit LeesEngine(const EngineConfig& config);

  /// Number of subscriptions with at least one evolving predicate.
  [[nodiscard]] std::size_t leme_size() const noexcept {
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard.scan.size() + shard.indexed.size();
    return total;
  }

  /// Subscriptions whose evolving part is reached through the envelope index.
  [[nodiscard]] std::size_t indexed_size() const noexcept {
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard.indexed.size();
    return total;
  }

  /// Shards whose indexed parts currently run the scan loop because their
  /// windows see too few publications (EngineConfig::lees_envelope_min_pubs).
  [[nodiscard]] std::size_t sparse_shards() const noexcept {
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard.sparse && shard.indexed.size() != 0 ? 1 : 0;
    return total;
  }

  [[nodiscard]] std::size_t deduped_installs() const noexcept override {
    return BrokerEngine::deduped_installs() + lazy_dedup_.suppressed();
  }

  void export_audit_state(audit::EngineState& out) const override;

 protected:
  void do_add(const Installed& entry, EngineHost& host) override;
  void do_remove(const Installed& entry, EngineHost& host) override;
  void do_match(const Publication& pub, const VariableSnapshot* snapshot, EngineHost& host,
                std::vector<NodeId>& destinations) override;
  void do_match_batch(std::span<const Publication* const> pubs, const VariableSnapshot* snapshot,
                      EngineHost& host, std::vector<std::vector<NodeId>>& destinations) override;

 private:
  struct NoExtra {};
  using Leme = LazyStorage<NoExtra>;
  // The index reads Part::preds through its buffer address, which a vector
  // move (the group reallocating or erasing) leaves in place.
  static_assert(std::is_nothrow_move_constructible_v<Leme::Part>);

  /// What a candidate needs besides its programs (indexed-store slot order).
  struct Target {
    Leme::Group* group = nullptr;  // stable map node while the part lives
    NodeId dest;
    bool has_static_part = false;
  };

  /// One matcher shard's lazy state.
  struct Shard {
    Leme scan;     // evaluated part by part on every publication (the paper's loop)
    Leme indexed;  // reached through `index`
    EnvelopeIndex index;
    std::vector<Target> targets;  // by `indexed` slot
    bool sparse = false;  // `indexed` runs the scan loop; `index` is suspended
  };

  /// Per-shard-worker scratch; cacheline-aligned so parallel workers do not
  /// false-share counters.
  struct alignas(64) ShardScratch {
    EvalScope scope;
    std::vector<double> stack;
    std::vector<NodeId> dests;
    std::vector<std::uint32_t> candidates;
    std::uint64_t lazy_evaluations = 0;
    std::uint64_t anchorings = 0;
  };

  [[nodiscard]] Shard& shard_for(SubscriptionId id) noexcept {
    return shards_[sharded_->shard_of(id)];
  }

  /// Store `part` (built from `entry`) in its shard's scan store, or in the
  /// indexed store when the envelope index can bound it.
  void add_part(Leme::Part part, const Installed& entry);

  /// True iff all compiled evolving predicates are satisfied by `pub` under
  /// `scope`.
  static bool evolving_part_matches(std::span<const CompiledPredicate> preds,
                                    const Publication& pub, const EvalScope& scope,
                                    std::vector<double>& stack);

  /// The paper's LEME loop over `leme`: every unsettled destination's parts
  /// in order until one matches. A match also settles the destination in
  /// `sibling`, when given.
  static void scan_loop(Leme& leme, Leme* sibling, const Publication& pub, ShardScratch& sc);

  /// The envelope-index path: re-anchor, stab, evaluate candidates.
  static void scan_candidates(Shard& shard, const Publication& pub, SimTime now,
                              ShardScratch& sc);

  /// Fold the gap since the previous publication into gap_us_.
  void note_publication(SimTime now);

  /// Whether `shard` uses its index for this publication: flips
  /// `shard.sparse` against lees_envelope_min_pubs (with hysteresis) and
  /// suspends the index on entering the sparse state.
  [[nodiscard]] bool index_pays(Shard& shard) const;

  /// Route the matcher hits: mark static halves in their shard's LEME,
  /// collect purely-static destinations and broadcast their settlement.
  /// Every shard's begin_match must have been called for this publication.
  void process_m1(const std::vector<SubscriptionId>& m1, std::vector<NodeId>& destinations);

  /// Open a match round in every shard store.
  void begin_match();

  /// The parallel M2 phase: one worker per shard, results merged into
  /// `destinations` and costs_ afterwards. Caller times it.
  void lazy_eval_phase(const Publication& pub, const VariableSnapshot* snapshot,
                       const VariableRegistry& registry, SimTime now,
                       std::vector<NodeId>& destinations);

  std::vector<Shard> shards_;  // one per matcher shard (same id partition)
  /// Moving average of the simulated time between publications, in
  /// microseconds (weight 1/8 per publication).
  double gap_us_ = 0.0;
  std::optional<SimTime> last_publication_;
  std::vector<ShardScratch> shard_scratch_;
  /// Install-sharing over FULLY-evolving subscriptions: identical compiled
  /// predicates towards the same destination with the same epoch evaluate
  /// identically on every publication, so one LEME part stands in for the
  /// whole group. Split subscriptions never dedup (note_m1 is keyed by id).
  /// LEES-only: the CLEES/hybrid stores carry per-part cache state.
  DedupTable lazy_dedup_;
};

}  // namespace evps
